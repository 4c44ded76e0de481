"""The orbit search over interned point ids against a breadth-first search
over string maps (``oracles.py``), at a bound that closes and at one that
overflows, on the binary, wide and ray trees."""

import random

from vtrees import (
    Budgets,
    GeneratingSet,
    dichotomy,
    dynamics,
    load_type_graph,
    orbit,
)
from vtrees.alternative import _Run

from conftest import RAY_SPEC, nonidentity_element, random_end
from oracles import (
    letter_strmaps,
    orbit_oracle,
    parse_point_str,
    same_point,
    strmap_apply_word,
)
from test_finite_orbit_sweep import SWEEP_BUDGETS, sweep_cases

RAY = load_type_graph(RAY_SPEC)
ORBIT_SEED = 13
RAY_CASES = 10
ORACLE_CAP = 48  # orbits with more points are checked at this bound only


def orbit_cases():
    """The finite-orbit sweep's generating sets on the binary and wide
    trees, then ``RAY_CASES`` sets of two non-identity elements of at most
    6 carets on the ray tree.  Seeds: the seed of the driver's finite orbit
    at the sweep budgets, if it finds one, the generators' first hyperbolic
    point, if any, and a random end."""
    rng = random.Random(ORBIT_SEED)
    sets = sweep_cases() + [
        GeneratingSet([nonidentity_element(RAY, 6, rng) for _ in range(2)],
                      ["a", "b"]) for _ in range(RAY_CASES)]
    out = []
    for s in sets:
        res = dichotomy(s, SWEEP_BUDGETS)
        seeds = [res.orbit.seed] if res.orbit is not None else []
        seeds += [p for e in s.elements
                  for p in dynamics(e).attracting_periodic][:1]
        out.append((s, seeds + [random_end(s.tg, rng)]))
    return out


def as_pair(p) -> tuple:
    return parse_point_str(str(p))


def same_set(xs, ys) -> bool:
    return len(xs) == len(ys) and all(any(same_point(x, y) for y in ys)
                                      for x in xs)


def test_orbit_search_matches_the_oracle():
    closed = overflowed = 0
    for i, (s, seeds) in enumerate(orbit_cases()):
        maps = letter_strmaps(s)
        for x in seeds:
            points = orbit_oracle(maps, as_pair(x), ORACLE_CAP)
            size = len(points)
            # the least bound that closes, and the largest that overflows
            bounds = [size, size - 1] if size <= ORACLE_CAP else [ORACLE_CAP]
            for bound in bounds:
                if bound < 1:
                    continue
                res = orbit(x, s, bound)
                assert (res is not None) == (size <= bound), f"case {i}"
                if res is not None:
                    closed += 1
                    assert res.seed == x
                    found = [as_pair(p) for p in res.points]
                    assert same_set(found, points), f"case {i}"
                    assert set(res.words) == set(res.points)
                    for p, word in res.words.items():
                        assert same_point(
                            strmap_apply_word(maps, word, as_pair(x)),
                            as_pair(p)), f"case {i}"
                    continue
                overflowed += 1
                # the probe memoises the points its search reached: the
                # first ``bound`` points of the breadth-first search
                run = _Run(s, Budgets())
                assert run.probe(x, bound) is None
                memo = [as_pair(run.images.points[k])
                        for k in run.overflowed[bound]]
                assert same_set(memo, points[:bound]), f"case {i}"
                assert run.probe(x, bound) is None
    assert closed >= 40 and overflowed >= 70
