"""The ping-pong radii computed from common prefixes and trie walks, against
the searches that built neighborhoods one radius at a time (``oracles.py``),
and the work ``build_pingpong`` does on V."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import vtrees.alternative as alternative_module
from vtrees import (
    Budgets,
    ClopenSet,
    TypeGraph,
    boundary_point,
    build_pingpong,
    eventually_periodic_witness,
    random_element,
)
from vtrees.alternative import _radius_exponent, _separation_exponent
from vtrees.element import random_complete_shape, shape_from_leaves, shape_leaves, shape_union
from vtrees.treespace import eps_exponent

from oracles import leaf_union, max_ball_depth, separation_by_search, shrink_radius

TREES = {
    "binary": TypeGraph({"b": ["b", "b"]}, "b"),
    "wide": TypeGraph({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r"),
    "ray": TypeGraph({"a": ["a", "b"], "b": ["b"]}, "a"),
}
EXAMPLES = settings(database=None, derandomize=True, max_examples=150,
                    deadline=None)


def capped(m, cap):
    """An exponent as the searches report it: None when none was found, or
    when it exceeds their cap."""
    return m if m is not None and m <= cap else None


def walk(tg, rng, t, steps):
    """A random path of ``steps`` child indices from a vertex of type t, and
    the type it ends at."""
    path = []
    for _ in range(steps):
        i = rng.randrange(tg.arity(t))
        path.append(i)
        t = tg.children[t][i]
    return path, t


def point_below(tg, rng, stem, depth):
    """A random end through the vertex ``stem``: a random walk of up to
    ``depth`` more steps, then a cycle of up to 3 steps that returns to the
    type it starts at, or the least-child descent where none is found."""
    tail, t = walk(tg, rng, tg.type_at(stem), rng.randint(0, depth))
    prefix = list(stem) + tail
    for _ in range(8):
        cycle, c = walk(tg, rng, t, rng.randint(1, 3))
        if c == t:
            return boundary_point(tg, prefix, cycle)
    return eventually_periodic_witness(tg, prefix)


def random_clopen(tg, rng, balls, depth):
    return ClopenSet.from_balls(
        tg, [tuple(walk(tg, rng, tg.root_type, rng.randint(0, depth))[0])
             for _ in range(balls)])


def exponent(eps):
    return None if eps is None else eps_exponent(eps)


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       cap=st.integers(2, 16))
def test_separation_exponent_is_the_searched_one(tree, seed, cap):
    tg = TREES[tree]
    rng = random.Random(seed)
    # points below one stem of random depth, so that their common prefixes
    # fall on both sides of the cap
    stem = tuple(walk(tg, rng, tg.root_type, rng.randint(0, 14))[0])
    points = {point_below(tg, rng, stem, 4) for _ in range(12)}
    points = sorted(points, key=lambda p: p.sort_key())
    if len(points) < 4:
        return  # the stem ends in a single point
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, len(points)), 3))
    sets = [points[i:j] for i, j in zip([0] + cuts, cuts + [len(points)])]
    assert capped(_separation_exponent(sets), cap) == \
        separation_by_search(tg, sets, cap)


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       cap=st.integers(2, 16), floor=st.integers(0, 17))
def test_radius_exponent_is_the_searched_one(tree, seed, cap, floor):
    tg = TREES[tree]
    rng = random.Random(seed)
    target = random_clopen(tg, rng, rng.randint(0, 6), 10)
    inside = list(target.balls())
    points = [point_below(tg, rng, rng.choice(inside) if inside and rng.random() < 0.8
                          else (), 12)
              for _ in range(rng.randint(0, 4))]
    found = shrink_radius(
        tg, points,
        lambda nbhd, eps: eps <= Fraction(1, 2 ** floor) and nbhd.subset_of(target),
        cap)
    assert capped(_radius_exponent(points, target, floor), cap) == exponent(found)


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       cap=st.integers(2, 16), floor=st.integers(0, 8))
def test_pulling_back_the_image_target_is_the_searched_radius(tree, seed, cap, floor):
    # the second radius: N inside P with w(N) inside V is N inside
    # P & w^-1(V), because w is a bijection
    tg = TREES[tree]
    rng = random.Random(seed)
    w = random_element(tg, rng.randint(1, 5), rng)
    points = [point_below(tg, rng, (), 8) for _ in range(rng.randint(1, 3))]
    near = [x.address_prefix(rng.randint(0, 6)) for x in points]
    near_images = [w.apply_point(x).address_prefix(rng.randint(0, 6)) for x in points]
    pull = random_clopen(tg, rng, 3, 6) | ClopenSet.from_balls(tg, near)
    image = random_clopen(tg, rng, 3, 6) | ClopenSet.from_balls(tg, near_images)
    found = shrink_radius(
        tg, points,
        lambda nbhd, eps: (eps <= Fraction(1, 2 ** floor) and nbhd.subset_of(pull)
                           and w.apply_clopen(nbhd).subset_of(image)),
        cap)
    target = pull & w.inverse().apply_clopen(image)
    assert capped(_radius_exponent(points, target, floor), cap) == exponent(found)


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32))
def test_full_depth_is_the_least_depth_of_a_ball_inside(tree, seed):
    tg = TREES[tree]
    rng = random.Random(seed)
    c = random_clopen(tg, rng, rng.randint(0, 6), 8)
    if rng.random() < 0.5:
        c = c.complement()
    for _ in range(6):
        x = point_below(tg, rng, (), 10)
        depths = [n for n in range(max_ball_depth(c) + 1)
                  if ClopenSet.ball(tg, x.address_prefix(n)).subset_of(c)]
        assert c.full_depth(x) == (depths[0] if depths else None)
        assert c.contains_point(x) == bool(depths)


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       carets=st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_shape_union_is_the_leaf_set_union(tree, seed, carets):
    tg = TREES[tree]
    rng = random.Random(seed)
    a, b = (random_complete_shape(tg, n, rng) for n in carets)
    expected = shape_from_leaves(
        tg, leaf_union(shape_leaves(a), shape_leaves(b)), tg.root_type)
    assert shape_union(a, b) == expected
    assert shape_union(b, a) == expected


def test_build_pingpong_builds_each_neighborhood_once(monkeypatch, v_gens):
    # U1, V1, U2 and V2; the radii come from common prefixes and trie walks.
    # The neighborhoods a contraction builds are its own.
    built = []
    contracting = []
    neighborhood = alternative_module.epsilon_neighborhood
    contraction = alternative_module._contraction

    def counted_neighborhood(*args, **kwargs):
        if not contracting:
            built.append(args[2])
        return neighborhood(*args, **kwargs)

    def marked_contraction(*args, **kwargs):
        contracting.append(True)
        try:
            return contraction(*args, **kwargs)
        finally:
            contracting.pop()

    monkeypatch.setattr(alternative_module, "epsilon_neighborhood",
                        counted_neighborhood)
    monkeypatch.setattr(alternative_module, "_contraction",
                        marked_contraction)
    w = build_pingpong(v_gens, Budgets())
    assert w is not None
    assert len(built) == 4
    assert len(set(built)) == 1  # all at the separation radius
