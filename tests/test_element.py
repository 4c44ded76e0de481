import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtrees import (
    ClopenSet,
    Element,
    FormatError,
    GeneratingSet,
    TypeGraph,
    boundary_point,
    builtin_generators,
    compose,
    element_from_map,
    enumerate_elements,
    format_element,
    identity,
    load_type_graph,
    make_element,
    parse_element,
    random_element,
    reduce,
    visual_distance,
)
import vtrees.element as element_module
from vtrees.element import (
    TreePair,
    expand_pair,
    graft,
    interior_vertices,
    parse_pair,
    random_complete_shape,
    shape_at,
    shape_caret_count,
    shape_from_leaves,
    shape_leaves,
    shape_union,
)

from conftest import BINARY_SPEC, RAY_SPEC, WIDE_SPEC, random_point, sample_elements
from oracles import (
    binary_helpers,
    compose_strmaps,
    ray_helpers,
    reduce_strmap,
    sorted_random_leaves,
    strmap_is_identity,
    to_strmap,
    wide_helpers,
)


def pt(tg, prefix, cycle):
    return boundary_point(tg, prefix, cycle)


def ball(tg, *addr):
    return ClopenSet.from_balls(tg, addr)


# ---------------------------------------------------------------------------
# Shapes and pairs


def test_shape_from_leaves_roundtrip(binary):
    leaves = [(0, 0), (0, 1), (1,)]
    shape = shape_from_leaves(binary, leaves, "b")
    assert shape_leaves(shape) == leaves


def test_shape_from_leaves_rejects_bad_sets(binary):
    with pytest.raises(ValueError, match="missing branch"):
        shape_from_leaves(binary, [(0,)], "b")
    with pytest.raises(ValueError, match="ancestor"):
        shape_from_leaves(binary, [(0,), (0, 1), (1,)], "b")
    with pytest.raises(ValueError, match="out of range"):
        shape_from_leaves(binary, [(0,), (1,), (2,)], "b")


def test_shape_union(binary):
    a = shape_from_leaves(binary, [(0,), (1,)], "b")
    b = shape_from_leaves(binary, [(0, 0), (0, 1), (1,)], "b")
    u = shape_union(a, b)
    assert shape_leaves(u) == [(0, 0), (0, 1), (1,)]
    assert shape_union(None, a) == a


def test_shape_helpers_on_deep_shapes():
    # a 60 000-deep spine is past the recursion limit: no helper recurses
    # (compared by caret counts, since == on such tuples recurses in C)
    n = 60_000
    spine, combed = None, None
    for _ in range(n):
        spine = (spine, None)
        combed = (combed, (None, None))
    assert shape_caret_count(spine) == n
    assert shape_caret_count(combed) == 2 * n
    assert shape_caret_count(shape_union(spine, combed)) == 2 * n
    assert shape_caret_count(shape_union(combed, spine)) == 2 * n
    assert shape_union(spine, spine) is spine


def test_pair_requires_order_isomorphic_types(ray):
    # pairing an a-leaf with a b-leaf fails: arities differ
    with pytest.raises(ValueError, match="not order-isomorphic"):
        element_from_map(ray, {(0,): (1,), (1,): (0,)})


def test_pair_rejects_bad_perm(binary):
    shape = shape_from_leaves(binary, [(0,), (1,)], "b")
    with pytest.raises(ValueError, match="bijection"):
        TreePair(binary, shape, shape, (0, 0))


# ---------------------------------------------------------------------------
# make_element / reduce


def test_x0_is_already_reduced(x0):
    assert [a for a in x0.pair.domain_leaves] == [(0, 0), (0, 1), (1,)]
    assert [a for a in x0.pair.range_leaves] == [(0,), (1, 0), (1, 1)]
    assert x0.pair.perm == (0, 1, 2)


def test_identity_pair_reduces_to_trivial(binary):
    e = element_from_map(binary, {(0,): (0,), (1,): (1,)})
    assert e.is_identity()
    deep = element_from_map(binary, {(0, 0): (0, 0), (0, 1): (0, 1),
                                     (1, 0): (1, 0), (1, 1): (1, 1)})
    assert deep.is_identity()
    assert deep == identity(binary)


def test_reduce_idempotent_and_undoes_expansion(x0):
    p = expand_pair(x0.pair, (1,))
    assert reduce(p) == x0.pair
    assert reduce(x0.pair) == x0.pair


def test_reduce_random_expansions(binary, wide):
    rng = random.Random(42)
    for tg in (binary, wide):
        for e in sample_elements(tg, 25, 4, seed_base=900):
            p = e.pair
            for _ in range(rng.randint(1, 4)):
                leaves = p.domain_leaves
                p = expand_pair(p, leaves[rng.randrange(len(leaves))])
            assert Element(reduce(p)) == e


def test_reduce_confluence_across_orders(binary):
    # expanding in different orders and reducing gives one normal form
    rng = random.Random(77)
    for e in sample_elements(binary, 15, 3, seed_base=300):
        results = set()
        for trial in range(4):
            p = e.pair
            r = random.Random(trial)
            for _ in range(3):
                leaves = p.domain_leaves
                p = expand_pair(p, leaves[r.randrange(len(leaves))])
            results.add(Element(reduce(p)).key())
        assert results == {e.key()}


def test_ray_tree_normal_form_identifies_singleton_shifts(ray):
    # a pair differing from the identity only below an isolated point is
    # the identity, and the normal form must see that
    weird = element_from_map(ray, {(0, 0): (0, 0), (0, 1): (0, 1, 0), (1,): (1,)})
    assert weird.is_identity()
    # swap of the two isolated ends written with unbalanced depths
    h = element_from_map(ray, {(0, 0): (0, 0), (0, 1): (1,), (1,): (0, 1, 0)})
    h2 = element_from_map(ray, {(0, 0): (0, 0), (0, 1): (1,), (1,): (0, 1)})
    assert h == h2


# ---------------------------------------------------------------------------
# expand_pair


def test_expand_pinned(binary, x0):
    p = expand_pair(identity(binary).pair, ())
    assert p.domain_leaves == ((0,), (1,))
    q = make_element(p)
    p2 = expand_pair(p, (0,))
    assert p2.domain_leaves == ((0, 0), (0, 1), (1,))
    assert p2.leaf_map() == {(0, 0): (0, 0), (0, 1): (0, 1), (1,): (1,)}

    px = expand_pair(x0.pair, (1,))
    assert px.domain_leaves == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert px.range_leaves == ((0,), (1, 0), (1, 1, 0), (1, 1, 1))
    assert make_element(px) == x0


TREES = {name: load_type_graph(spec) for name, spec in
         (("binary", BINARY_SPEC), ("wide", WIDE_SPEC), ("ray", RAY_SPEC))}


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       carets=st.integers(0, 6))
def test_graft_refines_to_the_requested_tree(tree, seed, carets):
    tg = TREES[tree]
    rng = random.Random(seed)
    e = random_element(tg, rng.randint(1, 4), rng)
    extra = random_complete_shape(tg, carets, rng)
    dom = shape_union(e.pair.domain, extra)
    p = graft(e.pair, lambda u, w: shape_at(dom, u))
    assert p.domain == dom
    assert make_element(p) == e
    # refining the range to the matching shape gives the same pair
    q = graft(e.pair, lambda u, w: shape_at(p.range, w))
    assert q.range == p.range
    assert q == p
    ran = shape_union(e.pair.range, extra)
    q = graft(e.pair, lambda u, w: shape_at(ran, w))
    assert q.range == ran
    assert make_element(q) == e


# ---------------------------------------------------------------------------
# compose / inverse / apply


def test_compose_pinned(binary, x0, sigma):
    assert compose(x0, x0.inverse()).is_identity()
    assert compose(x0.inverse(), x0).is_identity()
    assert compose(sigma, sigma).is_identity()
    # apply-consistency, value frozen from exact point arithmetic:
    # sigma((1)^inf) = 0(1)^inf, then x0 sends ball 01 to ball 10
    one = pt(binary, (), (1,))
    via_compose = compose(x0, sigma).apply_point(one)
    via_steps = x0.apply_point(sigma.apply_point(one))
    assert via_compose == via_steps == pt(binary, (1, 0), (1,))


def test_compose_mixed_graphs(binary, wide, x0):
    with pytest.raises(ValueError):
        compose(identity(binary), identity(wide))
    # an identity factor over another tree is still refused
    with pytest.raises(ValueError):
        compose(x0, identity(wide))
    with pytest.raises(ValueError):
        compose(identity(wide), x0)


def test_compose_with_identity_is_the_other_factor(binary, wide):
    for tg in (binary, wide):
        e = identity(tg)
        assert compose(e, e).is_identity()
        for g in sample_elements(tg, 10, 5, seed_base=300):
            assert compose(g, e) == g
            assert compose(e, g) == g


# (arity_of, is_singleton) of the string-map oracle, per tree
ORACLE_TYPES = {"binary": (binary_helpers()[0], None),
                "wide": (wide_helpers()[0], None), "ray": ray_helpers()}


def assert_compose_matches_oracle(tree, g, h):
    want = reduce_strmap(compose_strmaps(to_strmap(g), to_strmap(h)),
                         *ORACLE_TYPES[tree])
    assert to_strmap(compose(g, h)) == want


def oracle_pair(tree, seed):
    """Two seeded random elements, the first usually the larger, so that
    range leaves of the second often lie strictly above domain leaves of
    the first."""
    rng = random.Random(seed)
    tg = TREES[tree]
    return (random_element(tg, rng.randint(2, 7), rng),
            random_element(tg, rng.randint(0, 4), rng))


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(tree=st.sampled_from(sorted(ORACLE_TYPES)), seed=st.integers(0, 2 ** 32))
def test_compose_matches_oracle(tree, seed):
    g, h = oracle_pair(tree, seed)
    assert_compose_matches_oracle(tree, g, h)
    assert_compose_matches_oracle(tree, h, g)


def test_compose_oracle_sample_has_both_walks():
    # both branches of compose's walk occur: a range leaf of h at or below
    # a domain leaf of g, and one strictly above several of them
    seen = set()
    for tree in sorted(ORACLE_TYPES):
        for seed in range(40):
            g, h = oracle_pair(tree, seed)
            inner = interior_vertices(g.pair.domain_leaves)
            seen.update(w in inner for w in h.pair.range_leaves)
            assert_compose_matches_oracle(tree, g, h)
    assert seen == {True, False}


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_ray_reduction_matches_oracle(seed):
    # reduced pairs are lifted, so products never lift; a refinement that
    # pushes singleton leaves down their rays on one side makes the
    # reduction lift them, in between caret contractions
    tg = TREES["ray"]
    rng = random.Random(seed)
    g = random_element(tg, rng.randint(0, 7), rng)
    kappa = {}
    for u, w in g.leaf_map().items():
        if 1 in u:
            kappa[u + (0,) * rng.randint(0, 2)] = w + (0,) * rng.randint(0, 2)
        elif rng.random() < 0.7:
            kappa.update({u + (i,): w + (i,) for i in range(2)})
        else:
            kappa[u] = w
    e = element_from_map(tg, kappa)
    string_map = {"".join(map(str, u)): "".join(map(str, w))
                  for u, w in kappa.items()}
    assert to_strmap(e) == reduce_strmap(string_map, *ORACLE_TYPES["ray"])
    assert e == g


@functools.cache
def x0_power(tree, n):
    return builtin_generators(TREES[tree])["x0"].power(n)


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(tree=st.sampled_from(["binary", "wide"]), n=st.integers(1, 40),
       m=st.integers(1, 40), seed=st.integers(0, 2 ** 32))
def test_compose_deep_leaves_match_oracle(tree, n, m, seed):
    # x0^n has leaves at depth n + 1: images of deep leaves keep long tails
    a, b = x0_power(tree, n), x0_power(tree, -m)
    r = random_element(TREES[tree], 4, random.Random(seed))
    for g, h in ((a, b), (b, a), (a, r), (r, b), (b, r)):
        assert_compose_matches_oracle(tree, g, h)


def test_compose_builds_one_pair(monkeypatch, binary, wide):
    # one product is one reduced leaf map: one TreePair, two shapes
    pairs = []
    for tg in (binary, wide):
        four = [e for e in sample_elements(tg, 60, 4, seed_base=700)
                if shape_caret_count(e.pair.domain) == 4]
        pairs += list(zip(four[:3], four[1:4]))
    counts = {"pair": 0, "shape": 0}
    fill = element_module.TreePair._set
    build = element_module.ordered_tree

    def counting_fill(self, *args):
        counts["pair"] += 1
        fill(self, *args)

    def counting_build(*args):
        counts["shape"] += 1
        return build(*args)

    monkeypatch.setattr(element_module.TreePair, "_set", counting_fill)
    monkeypatch.setattr(element_module, "ordered_tree", counting_build)
    assert len(pairs) == 6
    for g, h in pairs:
        counts.update(pair=0, shape=0)
        compose(g, h)
        assert counts == {"pair": 1, "shape": 2}
        # a product with an identity factor builds no pair
        e = identity(g.tg)
        counts.update(pair=0, shape=0)
        assert compose(g, e) is g and compose(e, h) is h
        assert counts == {"pair": 0, "shape": 0}


def test_inverse_pinned(x0, binary):
    inv = x0.inverse()
    assert inv.pair.domain_leaves == ((0,), (1, 0), (1, 1))
    assert inv.pair.range_leaves == ((0, 0), (0, 1), (1,))
    assert identity(binary).inverse().is_identity()


def test_inverse_involution(binary, wide):
    for tg in (binary, wide):
        for e in sample_elements(tg, 20, 5, seed_base=50):
            assert e.inverse().inverse() == e


def test_apply_point_pinned(binary, x0, sigma):
    zero, one = pt(binary, (), (0,)), pt(binary, (), (1,))
    assert x0.apply_point(zero) == zero
    assert x0.apply_point(pt(binary, (0, 1, 0), (0,))) == pt(binary, (1, 0, 0), (0,))
    # the ball swap transports the tail verbatim: sigma(0^inf) = 10^inf
    assert sigma.apply_point(zero) == pt(binary, (1,), (0,))
    assert sigma.apply_point(one) == pt(binary, (0,), (1,))


def test_ratio_pinned(x0):
    assert x0.ratio((0, 0)) == 2
    assert x0.ratio((0, 1)) == 1
    assert x0.ratio((1,)) == Fraction(1, 2)
    for u in ((), (0,), (0, 0, 1), (1, 0), (2,)):
        with pytest.raises(KeyError):
            x0.ratio(u)


def test_apply_clopen_pinned(binary, x0):
    assert x0.apply_clopen(ball(binary, (1,))) == ball(binary, (1, 1))
    assert x0.apply_clopen(ClopenSet.full(binary)).is_all()
    assert x0.apply_clopen(ball(binary, (0, 1), (1,))) == ball(binary, (1,))


def test_homomorphism_property(binary, wide):
    rng = random.Random(8)
    for tg in (binary, wide):
        elems = sample_elements(tg, 15, 4, seed_base=70)
        for _ in range(40):
            g, h = rng.choice(elems), rng.choice(elems)
            x = random_point(tg, rng)
            assert compose(g, h).apply_point(x) == g.apply_point(h.apply_point(x))


def test_homothety_property(binary):
    rng = random.Random(9)
    for e in sample_elements(binary, 12, 4, seed_base=400):
        for u, w in e.pair.leaf_map().items():
            lam = e.ratio(u)
            assert lam == Fraction(2 ** (len(u) - len(w)))
            for _ in range(4):
                sx = [rng.randrange(2) for _ in range(3)]
                sy = [rng.randrange(2) for _ in range(3)]
                x = pt(binary, tuple(u) + tuple(sx), (rng.randrange(2),))
                y = pt(binary, tuple(u) + tuple(sy), (rng.randrange(2),))
                if x == y:
                    continue
                assert visual_distance(e.apply_point(x), e.apply_point(y)) == \
                    lam * visual_distance(x, y)


def test_apply_point_apply_clopen_agree(binary, wide):
    rng = random.Random(10)
    from test_treespace import random_clopen
    for tg in (binary, wide):
        for e in sample_elements(tg, 10, 4, seed_base=20):
            for _ in range(10):
                c = random_clopen(tg, rng)
                x = random_point(tg, rng)
                assert e.apply_clopen(c).contains_point(e.apply_point(x)) == \
                    c.contains_point(x)


def test_power(binary, x0):
    assert x0.power(0).is_identity()
    assert x0.power(1) == x0
    assert x0.power(-1) == x0.inverse()
    inv = x0.power(-1).pair
    assert inv.domain_leaves == ((0,), (1, 0), (1, 1))
    assert inv.range_leaves == ((0, 0), (0, 1), (1,))
    assert inv.perm == (0, 1, 2)
    assert identity(binary).power(5).is_identity()
    assert x0.power(3) == compose(x0, compose(x0, x0))
    assert x0.power(-2) == compose(x0.inverse(), x0.inverse())


# ---------------------------------------------------------------------------
# Text format


def test_format_parse_roundtrip(binary, wide):
    for tg in (binary, wide):
        for e in sample_elements(tg, 30, 5, seed_base=10):
            assert parse_element(tg, format_element(e)) == e
    assert format_element(identity(binary)) == "pair{domain=[], range=[], perm=[0]}"
    assert parse_element(binary, "pair{domain=[], range=[], perm=[0]}").is_identity()


def test_parse_errors(binary):
    with pytest.raises(FormatError):
        parse_element(binary, "pair{domain=[0,1], range=[0,1]}")
    with pytest.raises(FormatError):
        parse_element(binary, "pair{domain=[0], range=[0,1], perm=[0,1]}")
    with pytest.raises(FormatError):
        parse_pair(binary, "pair{domain=[0,1], range=[0,1], perm=[0,2]}")
    with pytest.raises(FormatError):
        # leaves out of depth-first order
        parse_pair(binary, "pair{domain=[1,0], range=[0,1], perm=[0,1]}")
    with pytest.raises(FormatError, match="not a bijection"):
        # more perm entries than leaves
        parse_pair(binary, "pair{domain=[0,1], range=[0,1], perm=[0,1,2]}")
    with pytest.raises(FormatError, match="distinct"):
        # a repeated leaf
        parse_pair(binary, "pair{domain=[0,0,1], range=[0,1,1], perm=[0,1,2]}")


# ---------------------------------------------------------------------------
# Built-in generators


def test_builtin_generators_binary_pinned(binary, gens):
    assert list(gens) == ["x0", "x1", "sigma", "tau"]
    assert format_element(gens["x0"]) == \
        "pair{domain=[00,01,1], range=[0,10,11], perm=[0,1,2]}"
    assert format_element(gens["x1"]) == \
        "pair{domain=[0,100,101,11], range=[0,10,110,111], perm=[0,1,2,3]}"
    assert format_element(gens["sigma"]) == \
        "pair{domain=[0,1], range=[0,1], perm=[1,0]}"
    assert format_element(gens["tau"]) == \
        "pair{domain=[0,10,11], range=[0,10,11], perm=[0,2,1]}"
    assert gens.diagnostic is None


def test_builtin_generators_algebra(gens):
    x0, x1, sigma, tau = (gens[n] for n in ("x0", "x1", "sigma", "tau"))
    assert compose(sigma, sigma).is_identity()
    assert compose(tau, tau).is_identity()
    # the depth-2 sibling swap on the other side, conjugated through sigma
    sts = compose(sigma, compose(tau, sigma))
    assert sts.pair.leaf_map() == {(0, 0): (0, 1), (0, 1): (0, 0), (1,): (1,)}
    # classical shift relation: conjugating the deeper Thompson move by the
    # shallower one moves it one level further down
    x2 = element_from_map(x0.tg, {
        (0,): (0,), (1, 0): (1, 0),
        (1, 1, 0, 0): (1, 1, 0), (1, 1, 0, 1): (1, 1, 1, 0),
        (1, 1, 1): (1, 1, 1, 1)})
    assert compose(compose(x0, x1), x0.inverse()) == x2


def test_builtin_generators_give_all_small_ball_permutations(v_gens, binary):
    # every permutation of the four depth-2 balls is realised by some word in
    # the generators: collect the permutation elements found by a short
    # enumeration and close them abstractly
    import itertools
    target_leaves = ((0, 0), (0, 1), (1, 0), (1, 1))
    found = set()
    for word, e in enumerate_elements(v_gens, 5):
        p = e.pair
        if p.domain_leaves == target_leaves and p.range_leaves == target_leaves:
            found.add(p.perm)
        if len(found) >= 6:
            break
    closure = set(found)
    frontier = list(closure)
    while frontier:
        pi = frontier.pop()
        for rho in list(closure):
            comp = tuple(pi[rho[i]] for i in range(4))
            if comp not in closure:
                closure.add(comp)
                frontier.append(comp)
    assert len(closure) == 24


def test_builtin_generators_wide(wide):
    fam = builtin_generators(wide)
    assert fam.diagnostic is None
    assert "rho" in fam  # the root 3-cycle
    x0w = fam["x0"]
    assert x0w.pair.domain_leaves == ((0, 0), (0, 1), (1,), (2,))
    assert x0w.pair.range_leaves == ((0,), (1,), (2, 0), (2, 1))
    rho = fam["rho"]
    assert rho.apply_point(boundary_point(wide, (0,), (0,))) == \
        boundary_point(wide, (1,), (0,))
    from vtrees.revealing import order
    assert order(rho) == 3


def test_builtin_generators_diagnostic(ray):
    fam = builtin_generators(ray)
    assert len(fam) == 0
    assert fam.diagnostic is not None


# ---------------------------------------------------------------------------
# Random elements


def test_random_element_deterministic(binary):
    a = random_element(binary, 3, 12345)
    b = random_element(binary, 3, 12345)
    assert a == b and format_element(a) == format_element(b)


def test_random_element_size_zero(binary):
    assert random_element(binary, 0, 0).is_identity()


def test_random_element_size_bound(binary, wide):
    from vtrees.element import shape_caret_count
    for tg in (binary, wide):
        for seed in range(30):
            e = random_element(tg, 4, seed)
            # reduction can only shrink the sampled trees
            assert shape_caret_count(e.pair.domain) <= 4
            assert shape_caret_count(e.pair.range) <= 4


@pytest.mark.parametrize("tree", ["binary", "wide", "ray"])
def test_random_leaves_equal_a_sort_per_caret(tree, binary, wide, ray):
    tg = {"binary": binary, "wide": wide, "ray": ray}[tree]
    for seed in range(40):
        carets = seed * 3
        assert element_module._random_leaves(tg, carets, random.Random(seed)) \
            == sorted_random_leaves(tg, carets, random.Random(seed))


def test_random_element_refuses_a_size_past_its_bound(binary, monkeypatch):
    assert element_module.MAX_RANDOM_SIZE == 16_000
    for size in (16_001, 100_000_000):
        with pytest.raises(ValueError, match="MAX_RANDOM_SIZE = 16000"):
            random_element(binary, size, 0)
    monkeypatch.setattr(element_module, "MAX_RANDOM_SIZE", 3)
    assert shape_caret_count(random_element(binary, 3, 1).pair.domain) <= 3
    with pytest.raises(ValueError, match="MAX_RANDOM_SIZE = 3"):
        random_element(binary, 4, 1)


def test_random_element_respects_types(ray):
    # on the ray tree kappa may only match leaves of equal type
    for seed in range(20):
        e = random_element(ray, 3, seed)
        for u, w in e.pair.leaf_map().items():
            assert ray.subtree_order_isomorphic(ray.type_at(u), ray.type_at(w))
