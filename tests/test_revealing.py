import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtrees import (
    ClopenSet,
    Element,
    TypeGraph,
    boundary_point,
    chains,
    compose,
    dynamics,
    element_from_map,
    epsilon_neighborhood,
    eventually_periodic_witness,
    hyp_power_bound,
    identity,
    is_elliptic,
    is_revealing,
    load_type_graph,
    make_element,
    order,
    parse_element,
    random_element,
    recheck_hyp_certificate,
    reveal,
)
import vtrees.revealing as revealing
from vtrees.element import TreePair, expand_pair
from vtrees.revealing import report_from_revealing
from vtrees.treespace import is_prefix

from conftest import BINARY_SPEC, RAY_SPEC, WIDE_SPEC, sample_elements
from oracles import (
    binary_helpers,
    brute_force_order_search,
    collapse_one_at_a_time,
    iterated_periodic_points,
    revealing_oracle,
    scanned_power_bound,
    wide_helpers,
)

TREES = {name: load_type_graph(spec) for name, spec in
         (("binary", BINARY_SPEC), ("wide", WIDE_SPEC), ("ray", RAY_SPEC))}


def pt(tg, prefix, cycle):
    return boundary_point(tg, prefix, cycle)


def ball(tg, *addrs):
    return ClopenSet.from_balls(tg, addrs)


# ---------------------------------------------------------------------------
# Chains


def test_chains_x0_pinned(x0):
    ch = chains(x0.pair)
    data = {c.vertices: c.kind for c in ch}
    assert data == {
        ((0, 0), (0,)): "repelling",
        ((0, 1), (1, 0)): "wandering",
        ((1,), (1, 1)): "attracting",
    }
    assert [c.kind for c in ch].count("attracting") == 1


def test_chains_sigma_periodic(sigma):
    ch = chains(sigma.pair)
    assert len(ch) == 1
    assert ch[0].kind == "periodic"
    assert set(ch[0].vertices) == {(0,), (1,)}
    assert ch[0].period == 2


def test_chains_identity_expansion(binary):
    p = expand_pair(identity(binary).pair, ())
    ch = chains(p)
    assert [c.kind for c in ch] == ["periodic", "periodic"]
    assert all(c.period == 1 for c in ch)


def test_chains_partition_leaves(binary, wide):
    for tg in (binary, wide):
        for e in sample_elements(tg, 30, 4, seed_base=640):
            ch = chains(e.pair)
            seen = [v for c in ch for v in c.vertices]
            assert len(seen) == len(set(seen))
            assert set(seen) == set(e.pair.domain_leaves) | set(e.pair.range_leaves)


def test_chain_classification_matches_definitions(binary, wide):
    # re-derive each kind from raw descendant / membership data
    for tg in (binary, wide):
        for e in sample_elements(tg, 40, 4, seed_base=2000):
            p = e.pair
            l1, l2 = set(p.domain_leaves), set(p.range_leaves)
            t1 = {u[:k] for u in l1 for k in range(len(u) + 1)}
            t2 = {u[:k] for u in l2 for k in range(len(u) + 1)}
            kappa = p.leaf_map()
            for c in chains(p):
                u0, un = c.vertices[0], c.vertices[-1]
                if c.kind == "periodic":
                    assert kappa[un] == u0
                    assert all(v in l1 and v in l2 for v in c.vertices)
                    continue
                assert u0 in l1 and u0 not in l2
                assert un in l2 and un not in l1
                if c.kind == "attracting":
                    assert is_prefix(u0, un) and u0 != un
                elif c.kind == "repelling":
                    assert is_prefix(un, u0) and u0 != un
                elif c.kind == "wandering":
                    assert u0 not in t2 and un not in t1
                else:
                    assert c.kind == "mixed"
                    assert not (is_prefix(u0, un) or is_prefix(un, u0))
                    assert u0 in t2 or un in t1


# ---------------------------------------------------------------------------
# is_revealing


def test_is_revealing_pinned(x0, sigma, binary):
    assert is_revealing(x0.pair)
    assert is_revealing(sigma.pair)  # both differences empty
    p = expand_pair(x0.pair, (0, 1))  # expands range at kappa(01) = 10
    assert is_revealing(p)
    ch = {c.vertices: c.kind for c in chains(p)}
    assert ch[((0, 1, 0), (1, 0, 0))] == "wandering"
    assert ch[((0, 1, 1), (1, 0, 1))] == "wandering"


def test_is_revealing_negative_case(binary):
    # frozen counterexample: the orbit 1 -> 00 is neither attracting,
    # repelling, periodic nor wandering, and the difference component rooted
    # at 00 holds no repeller
    p = parse_element(binary,
                      "pair{domain=[000,001,01,1], range=[00,01,10,11], "
                      "perm=[1,3,2,0]}").pair
    ch = {c.vertices: c.kind for c in chains(p)}
    assert ch[((1,), (0, 0))] == "mixed"
    assert not is_revealing(p)


def _pair_and_expansions(tg, seed, expansions):
    """A seeded random element's reduced pair, then that pair after each of
    ``expansions`` random caret expansions."""
    rng = random.Random(seed)
    p = random_element(tg, rng.randint(1, 4), rng).pair
    out = [p]
    for _ in range(expansions):
        p = expand_pair(p, rng.choice(p.domain_leaves))
        out.append(p)
    return out


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       expansions=st.integers(1, 3))
def test_is_revealing_matches_oracle(tree, seed, expansions):
    for p in _pair_and_expansions(TREES[tree], seed, expansions):
        assert is_revealing(p) == revealing_oracle(p.leaf_map())


def test_revealing_oracle_sees_both_outcomes():
    for name, tg in TREES.items():
        seen = set()
        for seed in range(40):
            for p in _pair_and_expansions(tg, seed, 3):
                got = is_revealing(p)
                assert got == revealing_oracle(p.leaf_map())
                seen.add(got)
        assert seen == {True, False}, name


# ---------------------------------------------------------------------------
# reveal


def test_reveal_x0_is_its_own_pair(x0):
    rp = reveal(x0)
    assert rp.pair == x0.pair
    assert rp.attractors == (((1,), (1, 1)),)
    assert rp.repellers == (((0,), (0, 0)),)


def test_reveal_sigma_trivial(sigma):
    rp = reveal(sigma)
    assert rp.pair == sigma.pair
    assert rp.attractors == () and rp.repellers == ()


def test_reveal_x0_squared(x0):
    g = compose(x0, x0)
    rp = reveal(g)
    assert is_revealing(rp.pair)
    assert make_element(rp.pair) == g
    kinds = {c.kind for c in rp.chains}
    assert "attracting" in kinds and "repelling" in kinds
    att = next(c for c in rp.chains if c.kind == "attracting")
    rep = next(c for c in rp.chains if c.kind == "repelling")
    assert is_prefix((1, 1), att.vertices[-1])
    assert is_prefix((0, 0), rep.vertices[0])
    d = dynamics(g)
    assert d.attracting_periodic == (pt(x0.tg, (), (1,)),)
    assert d.repelling_periodic == (pt(x0.tg, (), (0,)),)


def test_reveal_rolls_frozen_counterexample(binary):
    e = parse_element(binary,
                      "pair{domain=[000,001,01,1], range=[00,01,10,11], "
                      "perm=[1,3,2,0]}")
    rp = reveal(e)
    assert is_revealing(rp.pair)
    assert make_element(rp.pair) == e
    assert all(c.kind == "periodic" for c in rp.chains)  # it is elliptic


def test_reveal_strategies_agree(binary, wide):
    for tg in (binary, wide):
        for e in sample_elements(tg, 25, 4, seed_base=4200):
            a = reveal(e, strategy="rolling")
            b = reveal(e, strategy="bfs")
            assert is_revealing(a.pair) and is_revealing(b.pair)
            assert make_element(a.pair) == e
            assert make_element(b.pair) == e


def test_reveal_rejects_unknown_strategy(x0):
    with pytest.raises(ValueError):
        reveal(x0, strategy="magic")


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_x0_pinned(x0):
    tg = x0.tg
    rep = dynamics(x0)
    assert rep.stable.is_empty()
    assert rep.hyperbolic.is_all()
    assert rep.attracting_periodic == (pt(tg, (), (1,)),)
    assert rep.repelling_periodic == (pt(tg, (), (0,)),)
    assert rep.isolated == ()
    assert len(rep.attracting_cycles) == 1
    cd = rep.attracting_cycles[0]
    assert (cd.root, cd.target, cd.period, cd.ratio) == \
        ((1,), (1, 1), 1, Fraction(1, 2))
    kinds = sorted(c.kind for c in rep.chains)
    assert kinds == ["attracting", "repelling", "wandering"]


def test_dynamics_sigma_pinned(sigma):
    rep = dynamics(sigma)
    assert rep.stable.is_all()
    assert rep.hyperbolic.is_empty()
    assert rep.attracting_periodic == () and rep.repelling_periodic == ()
    assert rep.isometric_power == 2


def test_dynamics_identity(binary):
    rep = dynamics(identity(binary))
    assert rep.stable.is_all()
    assert rep.isometric_power == 1


def test_dynamics_invariance_properties(binary, wide):
    for tg in (binary, wide):
        for e in sample_elements(tg, 18, 4, seed_base=30):
            rep = dynamics(e)
            assert rep.stable.union(rep.hyperbolic).is_all()
            assert rep.stable.intersect(rep.hyperbolic).is_empty()
            assert e.apply_clopen(rep.stable) == rep.stable
            assert e.apply_clopen(rep.hyperbolic) == rep.hyperbolic
            # the isometric power fixes witness points of every stable ball
            p = e.power(rep.isometric_power)
            for b in rep.stable.balls():
                w = eventually_periodic_witness(tg, b)
                assert p.apply_point(w) == w
            # hyperbolic periodic points are fixed by the period powers
            for c in rep.attracting_cycles:
                xi = pt(tg, c.root, c.target[len(c.root):])
                assert e.power(c.period).apply_point(xi) == xi
            for x in rep.attracting_periodic + rep.repelling_periodic:
                assert rep.hyperbolic.contains_point(x)
            assert not (set(rep.attracting_periodic) & set(rep.repelling_periodic))


def test_attractor_basin_strictly_contracts(binary, wide):
    for tg in (binary, wide):
        for e in sample_elements(tg, 18, 4, seed_base=77):
            rep = dynamics(e)
            for c in rep.attracting_cycles:
                root_ball = ClopenSet.ball(tg, c.root)
                image = e.power(c.period).apply_clopen(root_ball)
                assert image.subset_of(root_ball) and image != root_ball


def test_wandering_balls_never_return(binary, wide):
    for tg in (binary, wide):
        for e in sample_elements(tg, 15, 4, seed_base=550):
            rep = dynamics(e)
            bound = 2 * len(rep.pair.domain_leaves)
            for c in rep.chains:
                if c.kind != "wandering":
                    continue
                w = eventually_periodic_witness(tg, c.vertices[0])
                seen = {w}
                cur = w
                for _ in range(bound):
                    cur = e.apply_point(cur)
                    assert cur not in seen
                    seen.add(cur)


def test_dynamics_on_wide_tree_nontrivial(wide):
    from vtrees import builtin_generators
    fam = builtin_generators(wide)
    rep = dynamics(fam["x0"])
    assert rep.stable.is_empty() or not rep.stable.is_all()
    assert len(rep.attracting_periodic) >= 1
    assert len(rep.repelling_periodic) >= 1


# ---------------------------------------------------------------------------
# Isolated periodic points (trees with rays)


def test_fake_attracting_chain_is_collapsed(ray):
    h = element_from_map(ray, {(0, 0): (0, 0), (0, 1): (1,), (1,): (0, 1)})
    rp = reveal(h)
    assert all(c.kind == "periodic" for c in rp.chains)
    assert order(h) == 2


def test_report_on_raw_pair_reassigns_isolated_points(ray):
    # a revealing pair for the identity with a spurious attracting chain
    # along the isolated ray below 01
    from vtrees.element import TreePair
    pair = TreePair.from_map(ray, {(0, 0): (0, 0), (0, 1): (0, 1, 0), (1,): (1,)})
    assert is_revealing(pair)
    kinds = {c.vertices: c.kind for c in chains(pair)}
    assert kinds[((0, 1), (0, 1, 0))] == "attracting"
    rep = report_from_revealing(identity(ray), pair)
    assert rep.isolated == (pt(ray, (0, 1), (0,)),)
    assert rep.attracting_periodic == ()
    assert rep.stable.is_all()
    assert rep.hyperbolic.is_empty()


def test_report_on_raw_pair_swap_of_isolated_points(ray):
    from vtrees.element import TreePair
    h = element_from_map(ray, {(0, 0): (0, 0), (0, 1): (1,), (1,): (0, 1)})
    pair = TreePair.from_map(ray, {(0, 0): (0, 0), (0, 1): (1,), (1,): (0, 1, 0)})
    assert make_element(pair) == h
    assert is_revealing(pair)
    rep = report_from_revealing(h, pair)
    assert set(rep.isolated) == {pt(ray, (0, 1), (0,)), pt(ray, (1,), (0,))}
    assert rep.stable.is_all()
    assert rep.isometric_power == 2
    assert compose(h, h).is_identity()


class _TruthyEmpty(frozenset):
    """No singleton type, in a set that reads as nonempty: ``reveal`` then
    runs the fake-chain pass that it skips on an empty set."""

    def __bool__(self):
        return True


def counted_chains(builds: list):
    chains_ = revealing.chains

    def counted(pair):
        builds.append(pair)
        return chains_(pair)
    return counted


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(tree=st.sampled_from(["binary", "wide"]), size=st.integers(2, 12),
       seed=st.integers(0, 2 ** 32))
def test_skipping_the_fake_chain_pass_changes_nothing(tree, size, seed):
    tg = TypeGraph(TREES[tree].children, TREES[tree].root_type)  # to patch
    g = random_element(tg, size, seed)
    builds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(revealing, "chains", counted_chains(builds))
        skipped = reveal(g), dynamics(g)
        n = len(builds)
        mp.setattr(tg, "_singleton_types", _TruthyEmpty())
        ran = reveal(g), dynamics(g)
    assert ran == skipped
    # the pass ran once in each of the two reveals, changing nothing
    assert len(builds) == 2 * n + 2


def test_the_fake_chain_pass_runs_on_the_ray_tree(monkeypatch, ray, binary):
    h = element_from_map(ray, {(0, 0): (0, 0), (0, 1): (1,), (1,): (0, 1)})
    builds = []
    monkeypatch.setattr(revealing, "chains", counted_chains(builds))
    for e, count in ((h, 3), (identity(ray), 3), (identity(binary), 2)):
        del builds[:]
        reveal(e)
        # the rolling loop's check, the pass on a tree with a singleton
        # type, and the final re-check
        assert len(builds) == count


# ---------------------------------------------------------------------------
# Periodic points and the fake-chain collapse, read off the chains


def slid_down(pair, ks):
    """The pair with its i-th periodic chain over single-point balls slid
    down its ray by ``ks[i]`` steps, which undoes a collapse: for k > 0 the
    chain's last vertex maps to the k-th vertex below its start, a fake
    attracting chain, and for k < 0 that vertex replaces the start as a
    domain leaf, a fake repelling chain.  k = 0 leaves the chain alone."""
    tg = pair.tg
    kappa = pair.leaf_map()
    single = [c for c in chains(pair) if c.kind == "periodic"
              and tg.is_singleton_type(tg.type_at(c.start))]
    for c, k in zip(single, ks):
        below = c.start + (0,) * abs(k)
        if k > 0:
            kappa[c.end] = below
        elif k < 0:
            kappa[below] = kappa.pop(c.start)
    return TreePair.from_map(tg, kappa)


def fake_chains(pair):
    tg = pair.tg
    return [c for c in chains(pair) if c.kind in ("attracting", "repelling")
            and tg.is_singleton_type(tg.type_at(c.start))]


def revealing_expansions(pair, seed, count):
    """The pair after up to ``count`` seeded caret expansions, each kept
    only when the expanded pair is still revealing."""
    rng = random.Random(seed)
    for _ in range(count):
        p = expand_pair(pair, rng.choice(pair.domain_leaves))
        if is_revealing(p):
            pair = p
    return pair


def assert_points_are_the_iterated_orbits(g, pair):
    rep = report_from_revealing(g, pair)
    assert (rep.attracting_periodic, rep.repelling_periodic, rep.isolated,
            rep.isometric_power) == iterated_periodic_points(g, chains(pair))


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(tree=st.sampled_from(sorted(TREES)), size=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32), expansions=st.integers(0, 3),
       ks=st.lists(st.integers(-3, 3), max_size=4))
def test_periodic_points_are_the_iterated_orbits(tree, size, seed,
                                                 expansions, ks):
    # binary and wide pairs hold attracting and repelling cycles of period
    # 1 and 2 or more; slid ray pairs hold fake ones over isolated points
    g = random_element(TREES[tree], size, seed)
    pair = revealing_expansions(reveal(g).pair, seed, expansions)
    assert_points_are_the_iterated_orbits(g, slid_down(pair, ks))


@pytest.mark.parametrize("tree, leaf_map, kinds", [
    # 01 -> 00 -> 010 attracting, 11 -> 1 repelling
    ("binary", {(0, 0): (0, 1, 0), (0, 1): (0, 0), (1, 0): (0, 1, 1),
                (1, 1): (1,)}, {"attracting": 2, "repelling": 1}),
    # 01 -> 10 -> 0 repelling, 11 -> 110 attracting
    ("binary", {(0, 0): (1, 1, 1), (0, 1): (1, 0), (1, 0): (0,),
                (1, 1): (1, 1, 0)}, {"attracting": 1, "repelling": 2}),
    # the first one with a caret at 01: 00 -> 010 -> 000 attracting
    ("binary", {(0, 0): (0, 1, 0), (0, 1, 0): (0, 0, 0), (0, 1, 1): (0, 0, 1),
                (1, 0): (0, 1, 1), (1, 1): (1,)},
     {"attracting": 2, "repelling": 1}),
    # 01 -> 1 -> 010 attracting over the isolated points 010^inf, 10^inf
    ("ray", {(0, 0): (0, 0), (0, 1): (1,), (1,): (0, 1, 0)},
     {"attracting": 2}),
    # 0100 -> 1 -> 01 repelling over the same two points
    ("ray", {(0, 0): (0, 0), (0, 1, 0, 0): (1,), (1,): (0, 1)},
     {"repelling": 2}),
])
def test_hand_built_cycles_of_period_two(tree, leaf_map, kinds):
    pair = TreePair.from_map(TREES[tree], leaf_map)
    assert {c.kind: c.period for c in chains(pair)
            if c.kind in ("attracting", "repelling")} == kinds
    assert_points_are_the_iterated_orbits(make_element(pair), pair)


def assert_one_edit_collapses_every_fake_chain(size, seed, ks):
    pair = reveal(random_element(TREES["ray"], size, seed)).pair
    slid = slid_down(pair, ks)
    got = revealing._collapse_fake_chains(slid)
    assert got == collapse_one_at_a_time(slid) == pair
    assert fake_chains(got) == []
    return fake_chains(slid)


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(size=st.integers(4, 16), seed=st.integers(0, 2 ** 32),
       ks=st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=2,
                   max_size=4))
def test_one_edit_collapses_every_fake_chain(size, seed, ks):
    assert_one_edit_collapses_every_fake_chain(size, seed, ks)


def test_the_collapse_meets_several_fake_chains():
    # a fixed sweep that holds pairs with two or three fake chains,
    # attracting and repelling ones, and cycles of period 2
    seen = set()
    for seed in range(30):
        fakes = assert_one_edit_collapses_every_fake_chain(8, seed,
                                                           (2, -1, 1, -3))
        seen.add(len(fakes) >= 2)
        seen.update((c.kind, c.period) for c in fakes)
    assert {True, ("attracting", 2), ("repelling", 2)} <= seen


# ---------------------------------------------------------------------------
# Ellipticity and order


def test_elliptic_pinned(x0, sigma, binary):
    assert is_elliptic(sigma)
    assert not is_elliptic(x0)
    assert is_elliptic(identity(binary))


def test_order_pinned(x0, sigma, tau, binary):
    assert order(sigma) == 2
    assert order(tau) == 2
    assert order(x0) is None
    assert order(identity(binary)) == 1
    three_cycle = compose(sigma, x0)
    assert order(three_cycle) == 3
    assert compose(three_cycle, compose(three_cycle, three_cycle)).is_identity()


def test_elliptic_iff_bounded_order(binary, wide):
    for tg, (arity_of, l2c) in ((binary, binary_helpers()),
                                (wide, wide_helpers())):
        for e in sample_elements(tg, 30, 4, seed_base=9000):
            bo = brute_force_order_search(e, arity_of, l2c, 400)
            assert is_elliptic(e) == (bo is not None)
            if bo is not None:
                assert order(e) == bo or e.is_identity()


# ---------------------------------------------------------------------------
# Power bounds


def test_hyp_power_bound_x0_pinned(x0):
    tg = x0.tg
    rep = dynamics(x0)
    n, cert = hyp_power_bound(x0, rep, Fraction(1, 4))
    assert n == 2
    assert cert.forward.trap == ball(tg, (1, 1))
    assert cert.backward.trap == ball(tg, (0, 0))
    assert cert.forward.start == ball(tg, (0, 1), (1,))
    # exact recheck of both inclusions at powers 2..5
    assert recheck_hyp_certificate(x0, cert, extra_powers=3)
    # the inclusions verbatim
    att_nb = epsilon_neighborhood(tg, rep.attracting_periodic, Fraction(1, 4))
    x = cert.forward.start
    for k in range(1, 6):
        x = x0.apply_clopen(x)
        if k >= 2:
            assert x.subset_of(att_nb)


def test_hyp_power_bound_full_radius(x0):
    n, cert = hyp_power_bound(x0, dynamics(x0), Fraction(1))
    assert n == 1
    assert cert.forward.start.is_empty() and cert.backward.start.is_empty()
    assert recheck_hyp_certificate(x0, cert)


def test_hyp_power_bound_elliptic_degenerate(sigma):
    n, cert = hyp_power_bound(sigma, dynamics(sigma), Fraction(1, 8))
    assert n == 1
    assert recheck_hyp_certificate(sigma, cert)


def test_iterate_cap_raises_budget_exceeded(x0, monkeypatch):
    import vtrees.revealing as revealing
    from vtrees import BudgetExceeded
    # x0 needs N = 4 iterates at radius 2^-3, more than a cap of 1 allows
    monkeypatch.setattr(revealing, "_ITERATE_CAP", 1)
    with pytest.raises(BudgetExceeded, match="_ITERATE_CAP = 1"):
        hyp_power_bound(x0, dynamics(x0), Fraction(1, 8))


def test_hyp_power_bound_random_nonelliptic(binary, wide):
    found = 0
    for tg in (binary, wide):
        seed = 0
        per_tree = 0
        while per_tree < 5 and seed < 400:
            e = random_element(tg, 4, seed)
            seed += 1
            if is_elliptic(e):
                continue
            per_tree += 1
            found += 1
            rep = dynamics(e)
            n, cert = hyp_power_bound(e, rep, Fraction(1, 4))
            assert n >= 1
            assert recheck_hyp_certificate(e, cert, extra_powers=3)
    assert found == 10


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       carets=st.integers(0, 12), m=st.integers(0, 8))
def test_computed_traps_equal_the_refinement_scan(tree, seed, carets, m):
    # the trap computed from full_depth is the one the scan over t = 0..m
    # finds, in both directions, so N and every step count agree too
    e = random_element(TREES[tree], carets, seed)
    rep = dynamics(e)
    n, cert = hyp_power_bound(e, rep, Fraction(1, 2 ** m))
    got = tuple((d.trap, d.steps) for d in (cert.forward, cert.backward))
    assert (n, got) == scanned_power_bound(e, rep, Fraction(1, 2 ** m))


def with_trap(cert, side, trap):
    d = getattr(cert, side)
    return cert._replace(**{side: d._replace(trap=trap)})


def test_recheck_rejects_emptied_traps(x0):
    # empty traps lie in every target and are invariant, but g^N(start)
    # does not lie in them
    n, cert = hyp_power_bound(x0, dynamics(x0), Fraction(1, 8))
    empty = ClopenSet.empty(x0.tg)
    assert recheck_hyp_certificate(x0, cert)
    assert not recheck_hyp_certificate(
        x0, with_trap(with_trap(cert, "forward", empty), "backward", empty))


def test_recheck_rejects_a_trap_with_one_ball_removed(binary, wide, ray):
    # every ball of a trap holds an attracting point that g^N(start) reaches;
    # some shrunken traps stay invariant, and only the g^N(start) check
    # rejects those
    invariant = 0
    for tg in (binary, wide, ray):
        for seed in range(20):
            e = random_element(tg, 5, seed)
            rep = dynamics(e)
            for m in (2, 4):
                _n, cert = hyp_power_bound(e, rep, Fraction(1, 2 ** m))
                for side, elem in (("forward", e), ("backward", e.inverse())):
                    balls = getattr(cert, side).trap.balls()
                    for i in range(len(balls)):
                        trap = ClopenSet.from_balls(tg, balls[:i] + balls[i + 1:])
                        invariant += elem.apply_clopen(trap).subset_of(trap)
                        assert not recheck_hyp_certificate(
                            e, with_trap(cert, side, trap))
    assert invariant > 0


def test_recheck_rebuilds_the_target_and_start(x0):
    # start sets emptied, or N = 1 with full targets and traps, pass every
    # inclusion but are not the sets the radius gives
    _n, cert = hyp_power_bound(x0, dynamics(x0), Fraction(1, 8))
    empty, full = ClopenSet.empty(x0.tg), ClopenSet.full(x0.tg)

    def forged(**fields):
        return cert._replace(
            n=fields.pop("n", cert.n),
            forward=cert.forward._replace(**fields),
            backward=cert.backward._replace(**fields))

    assert recheck_hyp_certificate(x0, cert)
    assert recheck_hyp_certificate(x0, forged())
    assert not recheck_hyp_certificate(x0, forged(start=empty))
    assert not recheck_hyp_certificate(x0, forged(n=1, target=full, trap=full))
