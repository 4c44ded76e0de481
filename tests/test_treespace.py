import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from vtrees import (
    BoundaryPoint,
    ClopenSet,
    FormatError,
    TypeGraph,
    boundary_point,
    epsilon_neighborhood,
    eventually_periodic_witness,
    format_element,
    is_isolated,
    load_type_graph,
    parse_address,
    parse_eps,
    parse_point,
    point_is_isolated,
    random_element,
    visual_distance,
)
from vtrees.treespace import (
    address_str,
    common_prefix_length,
    eps_exponent,
    isolated_point_ball,
)

from conftest import BINARY_SPEC, WIDE_SPEC, RAY_SPEC, random_end, random_point
from oracles import (
    addresses_at_depth,
    common_prefix_oracle,
    contains_point_bruteforce,
    max_ball_depth,
    order_iso_to_depth,
    parse_pair_strmap,
    parse_point_str,
    strmap_image_balls,
)


def pt(tg, prefix, cycle):
    return boundary_point(tg, prefix, cycle)


# ---------------------------------------------------------------------------
# Type graphs


def test_load_binary():
    tg = load_type_graph(BINARY_SPEC)
    assert tg.root_type == "b"
    assert tg.arity("b") == 2
    assert tg.type_at((0, 1, 0)) == "b"


def test_load_wide():
    tg = load_type_graph(WIDE_SPEC)
    assert tg.arity(tg.root_type) == 3
    assert tg.type_at((2,)) == "b"
    assert tg.arity(tg.type_at((2,))) == 2


def test_load_rejects_empty_children():
    with pytest.raises(FormatError, match="empty children"):
        load_type_graph('{"types": {"a": ["a", "b"], "b": []}, "root": "a"}')


def test_load_rejects_unknown_type():
    with pytest.raises(FormatError, match="unknown child type"):
        load_type_graph('{"types": {"a": ["a", "c"]}, "root": "a"}')


def test_load_rejects_missing_root():
    with pytest.raises(FormatError):
        load_type_graph('{"types": {"a": ["a", "a"]}, "root": "z"}')


def test_load_rejects_malformed():
    with pytest.raises(FormatError):
        load_type_graph("not json at all {")
    with pytest.raises(FormatError):
        load_type_graph('{"types": {}}')


# ---------------------------------------------------------------------------
# Subtree isomorphism


def test_subtree_isomorphic_arity_mismatch(ray):
    # expected value frozen from the depth-2 unrolling oracle
    assert order_iso_to_depth(ray, "a", "b", 2) is False
    assert not ray.subtree_order_isomorphic("a", "b")


def test_subtree_isomorphic_unordered_but_not_ordered():
    # x and y have the same children up to swapping, with p (binary) and
    # q (a ray) non-isomorphic, so only the unordered isomorphism holds;
    # frozen from the depth-4 unrolling oracle.
    tg = TypeGraph({"x": ["p", "q"], "y": ["q", "p"],
                    "p": ["p", "p"], "q": ["q"]}, "x")
    assert order_iso_to_depth(tg, "x", "y", 4) is False
    assert not tg.subtree_order_isomorphic("x", "y")


def test_subtree_order_isomorphic_matches_oracle_on_random_graphs():
    rng = random.Random(5)
    names = ["t0", "t1", "t2", "t3"]
    positives = 0
    for _ in range(25):
        children = {t: [rng.choice(names) for _ in range(rng.randint(1, 3))]
                    for t in names}
        tg = TypeGraph(children, "t0")
        for s in names:
            for t in names:
                # depth 8 is far beyond stabilisation for 4 types
                iso = order_iso_to_depth(tg, s, t, 8)
                assert tg.subtree_order_isomorphic(s, t) == iso
                positives += iso and s != t
    assert positives == 94  # the draw holds isomorphic pairs of distinct types


# ---------------------------------------------------------------------------
# Boundary points and the visual metric


def test_point_canonical_absorbs_prefix(binary):
    assert str(pt(binary, (1,), (1,))) == "(1)^inf"
    assert str(pt(binary, (1, 1), (1,))) == "(1)^inf"
    assert str(pt(binary, (0, 1, 0), (0,))) == "01(0)^inf"


def test_point_canonical_primitive_cycle(binary):
    assert str(pt(binary, (), (0, 0))) == "(0)^inf"
    assert str(pt(binary, (), (1, 0, 1, 0))) == "(10)^inf"
    assert str(pt(binary, (0, 1), (1, 0))) == "01(10)^inf"


def test_point_cycle_respects_types():
    # with two alternating types the one-step cycle must unroll to length 2
    tg = TypeGraph({"a": ["b"], "b": ["a"]}, "a")
    p = boundary_point(tg, (), (0,))
    assert p.cycle == (0, 0)
    assert str(p) == "(00)^inf"


def test_point_equality_is_representation_independent(binary):
    rng = random.Random(11)
    for _ in range(200):
        x = random_point(binary, rng)
        k = rng.randint(1, 3)
        expanded = boundary_point(binary, x.prefix + x.cycle * k, x.cycle)
        assert expanded == x


def test_point_rejects_invalid(binary, ray):
    with pytest.raises(ValueError):
        boundary_point(binary, (2,), (0,))
    with pytest.raises(ValueError):
        boundary_point(ray, (1,), (0, 1))  # type b has a single child
    with pytest.raises(ValueError):
        boundary_point(binary, (), ())


def test_visual_distance_pinned(binary):
    assert visual_distance(pt(binary, (), (0,)), pt(binary, (), (0,))) == 0
    assert visual_distance(pt(binary, (), (0,)), pt(binary, (), (1,))) == 1
    a = pt(binary, (0, 1, 0), (0,))
    b = pt(binary, (0, 1, 1), (1,))
    assert visual_distance(a, b) == Fraction(1, 4)


def test_visual_distance_mixed_graphs(binary, wide):
    with pytest.raises(ValueError):
        visual_distance(pt(binary, (), (0,)), pt(wide, (0,), (0,)))


@pytest.mark.parametrize("spec", [BINARY_SPEC, WIDE_SPEC, RAY_SPEC],
                         ids=["binary", "wide", "ray"])
def test_common_prefix_length(spec):
    tg = load_type_graph(spec)
    rng = random.Random(41)
    deep = 0
    for _ in range(300):
        x = random_end(tg, rng)
        # half the pairs share a random part of x's address, then diverge
        head = x.address_prefix(rng.randint(0, 12)) if rng.random() < 0.5 else ()
        y = random_end(tg, rng, head=head)
        if x == y:
            with pytest.raises(ValueError):
                common_prefix_length(x, y)
            continue
        n = common_prefix_length(x, y)
        assert n == common_prefix_oracle(*(parse_point_str(str(p))
                                           for p in (x, y)))
        assert visual_distance(x, y) == Fraction(1, 2 ** n)
        deep += n >= 4
    assert deep >= 10


def test_ultrametric_inequality(binary):
    rng = random.Random(23)
    for _ in range(300):
        x, y, z = (random_point(binary, rng) for _ in range(3))
        assert visual_distance(x, z) <= max(visual_distance(x, y),
                                            visual_distance(y, z))


def test_point_parse_roundtrip(binary, wide):
    rng = random.Random(37)
    for tg in (binary, wide):
        for _ in range(100):
            x = random_point(tg, rng)
            assert parse_point(tg, str(x)) == x
    with pytest.raises(FormatError):
        parse_point(binary, "01")
    with pytest.raises(FormatError):
        parse_point(binary, "01()^inf")


# ---------------------------------------------------------------------------
# Clopen sets


def ball(tg, digits):
    return ClopenSet.ball(tg, parse_address(digits))


def random_walk(tg, rng, start, steps):
    out = list(start)
    t = tg.type_at(start)
    for _ in range(steps):
        i = rng.randrange(tg.arity(t))
        out.append(i)
        t = tg.children[t][i]
    return tuple(out)


def random_clopen(tg, rng, depth=4, count=3):
    out = ClopenSet.empty(tg)
    for _ in range(rng.randint(0, count)):
        addr = random_walk(tg, rng, (), rng.randint(0, depth))
        out = out.union(ClopenSet.ball(tg, addr))
    return out


def test_clopen_pinned(binary):
    assert ball(binary, "0").complement() == ball(binary, "1")
    assert ball(binary, "00").union(ball(binary, "01")) == ball(binary, "0")
    assert ball(binary, "11").contains_point(pt(binary, (), (1,)))
    assert ClopenSet.full(binary).complement().is_empty()


def test_clopen_canonical_normal_form(binary):
    c = ClopenSet.from_balls(binary, [(0, 0), (0, 1), (1, 1)])
    assert c.ball_strs() == ["0", "11"]
    d = ClopenSet.from_balls(binary, [(1, 1), (0,)])
    assert c == d
    assert hash(c) == hash(d)


def test_clopen_algebra_laws(binary, wide):
    rng = random.Random(101)
    for tg in (binary, wide):
        for _ in range(60):
            a = random_clopen(tg, rng)
            b = random_clopen(tg, rng)
            c = random_clopen(tg, rng)
            # de Morgan
            assert (a.union(b)).complement() == a.complement().intersect(b.complement())
            assert (a.intersect(b)).complement() == a.complement().union(b.complement())
            # double complement, absorption
            assert a.complement().complement() == a
            assert a.union(a.intersect(b)) == a
            assert a.intersect(a.union(b)) == a
            # distributivity
            assert a.intersect(b.union(c)) == (a & b) | (a & c)
            # difference and subset
            assert (a - b) == a & ~b
            assert (a & b).subset_of(a)


def test_clopen_mixed_graphs(binary, wide):
    with pytest.raises(ValueError):
        ClopenSet.full(binary).union(ClopenSet.full(wide))


def test_contains_point_matches_bruteforce(binary, wide):
    rng = random.Random(11)
    for tg in (binary, wide):
        for _ in range(150):
            c = random_clopen(tg, rng)
            x = random_point(tg, rng)
            depth = max_ball_depth(c) + len(x.prefix) + len(x.cycle)
            assert c.contains_point(x) == contains_point_bruteforce(c, x, depth)


# Trees where a vertex has exactly one child and its subtree still branches:
# a one-child root above a binary tree, and one-child levels at every other
# depth.
ONE_CHILD_ROOT = TypeGraph({"c": ["d"], "d": ["d", "d"]}, "c")
ALTERNATING = TypeGraph({"a": ["b"], "b": ["a", "a"]}, "a")


def random_end_near(tg, rng, addresses):
    """A random eventually periodic end, half the time through one of the
    given vertices."""
    start = rng.choice(addresses) if addresses and rng.random() < 0.5 else ()
    prefix = random_walk(tg, rng, start, rng.randint(0, 3))
    for _ in range(10):
        cycle = random_walk(tg, rng, prefix, rng.randint(1, 3))[len(prefix):]
        try:
            return boundary_point(tg, prefix, cycle)
        except ValueError:
            pass  # the cycle leaves the tree on a later pass
    return boundary_point(tg, prefix, (0,))


def in_balls(x, addresses) -> bool:
    return any(x.address_prefix(len(w)) == tuple(w) for w in addresses)


def test_clopen_membership_against_input_ball_lists(binary, wide, ray):
    # Expected values come from prefix tests on the ball lists the sets were
    # built from, never from the library's own listing of a set.
    rng = random.Random(23)
    for tg in (binary, wide, ray, ONE_CHILD_ROOT, ALTERNATING):
        for _ in range(60):
            la, lb = ([random_walk(tg, rng, (), rng.randint(1, 6))
                       for _ in range(rng.randint(0, 4))] for _ in range(2))
            a = ClopenSet.from_balls(tg, la)
            b = ClopenSet.from_balls(tg, lb)
            listed = [parse_address(s) for s in a.ball_strs()]
            assert ClopenSet.from_balls(tg, listed) == a
            g = random_element(tg, 4, rng)
            m = parse_pair_strmap(format_element(g))
            image = [parse_address(w) for ball in la
                     for w in strmap_image_balls(m, address_str(ball))]
            ga = g.apply_clopen(a)
            for _ in range(20):
                x = random_end_near(tg, rng, la + lb)
                ia, ib = in_balls(x, la), in_balls(x, lb)
                assert a.contains_point(x) == ia
                assert (a | b).contains_point(x) == (ia or ib)
                assert (a & b).contains_point(x) == (ia and ib)
                assert (~a).contains_point(x) == (not ia)
                assert (a - b).contains_point(x) == (ia and not ib)
                assert in_balls(x, listed) == ia
                assert ga.contains_point(x) == in_balls(x, image)


def test_one_child_root_balls_pinned():
    tg = ONE_CHILD_ROOT
    assert ball(tg, "0111").ball_strs() == ["0111"]
    assert (ball(tg, "000") | ball(tg, "01")).ball_strs() == ["000", "01"]
    # the ball at the only child of the root is the whole boundary
    assert ball(tg, "0").is_all()
    assert (ball(tg, "00") | ball(tg, "01")).is_all()


def test_deep_ball_listing_memory(wide):
    d = 4000
    c = ClopenSet.from_balls(wide, [(0,) * d, (0,) * (d - 1) + (1,)])
    tracemalloc.start()
    try:
        balls = c.balls()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert balls == ((0,) * (d - 1),)
    assert peak < 4 * 2 ** 20


def test_repr_lists_the_balls_of_a_deep_set(binary):
    # the dataclass repr would recurse once per trie level
    c = ClopenSet.ball(binary, (0,) * 2000)
    assert repr(c) == f"ClopenSet({binary!r}, balls={['0' * 2000]!r})"
    assert repr(ClopenSet.empty(binary)).endswith("balls=[])")
    assert repr(ClopenSet.full(binary)).endswith("balls=[''])")


def test_ray_tree_ball_collapse(ray):
    # below an arity-1 vertex the ball is the same set of ends, and the
    # canonical form must identify the two
    assert ClopenSet.ball(ray, (0, 1)) == ClopenSet.ball(ray, (0, 1, 0))


# ---------------------------------------------------------------------------
# Epsilon neighborhoods


def test_eps_neighborhood_pinned(binary):
    one_inf = pt(binary, (), (1,))
    nb = epsilon_neighborhood(binary, [one_inf], Fraction(1, 4))
    assert nb == ball(binary, "11")
    # frozen from the depth-3 enumeration oracle: exactly the depth-3
    # addresses extending "11" lie within 1/4 of (1)^inf
    hits = [a for a in addresses_at_depth(binary, 3)
            if visual_distance(eventually_periodic_witness(binary, a), one_inf)
            <= Fraction(1, 4) or a[:2] == (1, 1)]
    assert sorted(set(a[:2] for a in hits)) == [(1, 1)]

    both = [pt(binary, (), (0,)), one_inf]
    assert epsilon_neighborhood(binary, both, Fraction(1)).is_all()
    assert epsilon_neighborhood(binary, [], Fraction(1, 8)).is_empty()


def test_eps_neighborhood_rejects_bad_radius(binary):
    with pytest.raises(ValueError):
        epsilon_neighborhood(binary, [], Fraction(1, 3))
    with pytest.raises(ValueError):
        epsilon_neighborhood(binary, [], Fraction(3, 4))


def test_eps_parsing():
    assert parse_eps("1") == 1
    assert parse_eps("2^-3") == Fraction(1, 8)
    assert parse_eps("1/4") == Fraction(1, 4)
    with pytest.raises(FormatError):
        parse_eps("0.3")
    assert eps_exponent(Fraction(1, 16)) == 4


def test_the_radius_exponent_is_bounded(monkeypatch):
    from vtrees import treespace
    assert treespace.MAX_EPS_EXPONENT == 60_000
    assert parse_eps("2^-60000") == Fraction(1, 2 ** 60_000)
    for text in ("2^-60001", "2^-1000000000000", "2^--1"):
        with pytest.raises(FormatError, match=re.escape(f"bad radius {text!r}")):
            parse_eps(text)
    # the written-out spelling 1/2^m has the same bound
    monkeypatch.setattr(treespace, "MAX_EPS_EXPONENT", 10)
    assert parse_eps("1/1024") == parse_eps("2^-10") == Fraction(1, 1024)
    for text in ("1/2048", "2^-11"):
        with pytest.raises(FormatError, match="MAX_EPS_EXPONENT = 10"):
            parse_eps(text)


@pytest.mark.parametrize("text", ["1/0", "0/0", " 3/0 "])
def test_a_zero_denominator_is_a_bad_radius(text):
    with pytest.raises(FormatError, match=f"bad radius {text.strip()!r}"):
        parse_eps(text)


# ---------------------------------------------------------------------------
# Isolated points and witnesses


def test_is_isolated(binary, ray):
    assert not is_isolated(binary, (0, 1))
    # frozen from the reachable-type oracle: from b only b is reachable and
    # it has arity 1; from a the binary branching at a itself is reachable
    assert is_isolated(ray, (1,))
    assert is_isolated(ray, (0, 1))
    assert not is_isolated(ray, ())
    assert not is_isolated(ray, (0,))


def test_point_isolated(ray, binary):
    assert point_is_isolated(boundary_point(ray, (0, 1), (0,)))
    assert not point_is_isolated(boundary_point(ray, (), (0,)))
    assert not point_is_isolated(boundary_point(binary, (), (0,)))
    assert isolated_point_ball(boundary_point(ray, (0, 1), (0,))) == \
        ClopenSet.ball(ray, (0, 1))


def test_witness_pinned(binary, ray):
    assert str(eventually_periodic_witness(binary, (0, 1))) == "01(0)^inf"
    assert str(eventually_periodic_witness(binary, ())) == "(0)^inf"
    assert str(eventually_periodic_witness(ray, ())) == "(0)^inf"


def test_witness_properties(binary, wide, ray):
    rng = random.Random(3)
    for tg in (binary, wide, ray):
        for _ in range(50):
            addr = []
            t = tg.root_type
            for _ in range(rng.randint(0, 5)):
                i = rng.randrange(tg.arity(t))
                addr.append(i)
                t = tg.children[t][i]
            w = eventually_periodic_witness(tg, addr)
            assert ClopenSet.ball(tg, addr).contains_point(w)
            # canonical-form invariants: the cycle is primitive as a typed
            # sequence and re-normalising is a fixed point
            again = boundary_point(tg, w.prefix, w.cycle)
            assert again.prefix == w.prefix and again.cycle == w.cycle


def test_address_formatting():
    assert address_str((0, 1, 1)) == "011"
    assert parse_address("011") == (0, 1, 1)
    assert parse_address("") == ()
    with pytest.raises(FormatError):
        parse_address("0!1")
