"""The orbit search over interned point ids against a breadth-first search
over string maps (``oracles.py``), at a bound that closes and at one that
overflows, on the binary, wide and ray trees.  With the generators' escape
data the search stops at the first point a generator moves along an
infinite forward orbit: that search is checked against the plain one, and
the escape against the string-map iterates of the generator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from vtrees import (
    Budgets,
    GeneratingSet,
    dichotomy,
    dynamics,
    load_type_graph,
    orbit,
)
from vtrees.alternative import _Run
from vtrees.subgroup import _LetterImages, _orbit_search

from conftest import RAY_SPEC, nonidentity_element, random_end
from oracles import (
    letter_strmaps,
    orbit_oracle,
    parse_point_str,
    same_point,
    strmap_apply_point,
    strmap_apply_word,
)
from test_dichotomy_golden import BINARY, WIDE, verdict_text
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


def oracle_bounds(points) -> list:
    """The bounds checked for an oracle orbit: the least bound that closes
    and the largest that overflows, or ``ORACLE_CAP`` for a larger orbit."""
    size = len(points)
    bounds = [size, size - 1] if size <= ORACLE_CAP else [ORACLE_CAP]
    return [b for b in bounds if b >= 1]


def catcher(s, y):
    """The index of the first generator whose hyperbolic part holds y and
    whose periodic points do not, or None."""
    for k, e in enumerate(s.elements):
        rep = dynamics(e)
        if (rep.hyperbolic.contains_point(y)
                and y not in rep.attracting_periodic + rep.repelling_periodic):
            return k
    return None


def test_orbit_search_matches_the_oracle():
    closed = overflowed = 0
    for i, (s, seeds) in enumerate(orbit_cases()):
        maps = letter_strmaps(s)
        for x in seeds:
            points = orbit_oracle(maps, as_pair(x), ORACLE_CAP)
            size = len(points)
            for bound in oracle_bounds(points):
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
                # the probe memoises the points its search reached: a
                # prefix of the breadth-first order of at most ``bound``
                # points, which ends at the first point a generator moves
                # along an infinite forward orbit when it is shorter
                run = _Run(s, Budgets())
                assert run.probe(x, bound) is None
                memo = [run.images.points[k] for k in run.overflowed[bound]]
                n = len(memo)
                assert 1 <= n <= bound, f"case {i}"
                prefix = points[:n]
                assert same_set([as_pair(p) for p in memo], prefix), f"case {i}"
                escaping = [p for p in memo if catcher(s, p) is not None]
                if n < bound:
                    assert len(escaping) == 1, f"case {i}"
                    assert same_point(as_pair(escaping[0]), prefix[-1])
                else:
                    assert len(escaping) <= 1, f"case {i}"
                assert run.probe(x, bound) is None
    assert closed >= 40 and overflowed >= 70


def distinct_iterates(m, y, count) -> bool:
    """Whether y, m(y), ..., m^count(y) are pairwise distinct points, for a
    string leaf map m and a point (prefix, cycle)."""
    seen = [y]
    for _ in range(count):
        y = strmap_apply_point(m, y)
        if any(same_point(y, z) for z in seen):
            return False
        seen.append(y)
    return True


def test_escaping_search_matches_the_plain_one():
    closed = stopped = 0
    for i, (s, seeds) in enumerate(orbit_cases()):
        maps = letter_strmaps(s)
        escapes = _Run(s, Budgets()).escape_data()
        for x in seeds:
            points = orbit_oracle(maps, as_pair(x), ORACLE_CAP)
            for bound in oracle_bounds(points):
                plain, _ = _orbit_search(x, s, bound)
                images = _LetterImages(s)
                res, reached = _orbit_search(x, s, bound, images, escapes)
                if plain is not None:
                    closed += 1
                    assert res == plain, f"case {i}"
                    continue
                assert res is None and len(points) > bound, f"case {i}"
                found = [images.points[k] for k in reached]
                assert 1 <= len(found) <= bound, f"case {i}"
                assert all(same_point(as_pair(p), q)
                           for p, q in zip(found, points)), f"case {i}"
                k = catcher(s, found[-1])
                if len(found) < bound:
                    assert k is not None, f"case {i}"
                if k is not None:
                    # the lemma, checked on string maps: the generator's
                    # forward iterates of the point are pairwise distinct
                    stopped += 1
                    assert distinct_iterates(maps[2 * k][1],
                                             as_pair(found[-1]), bound)
                assert all(catcher(s, p) is None for p in found[:-1])
    assert closed >= 40 and stopped >= 40


SWEEP_TREES = {"binary": BINARY, "wide": WIDE, "ray": RAY}
ESCAPE_SWEEP_BUDGETS = Budgets(word_length=3, orbit_size=24, closure_size=40,
                               expansion_depth=8, dovetail_steps=200)


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(tree=st.sampled_from(sorted(SWEEP_TREES)), seed=st.integers(0, 2 ** 32),
       carets=st.integers(2, 6))
def test_escape_data_changes_no_verdict(tree, seed, carets):
    rng = random.Random(seed)
    tg = SWEEP_TREES[tree]
    s = GeneratingSet([nonidentity_element(tg, carets, rng)
                       for _ in range(2)], ["a", "b"])
    text = verdict_text(dichotomy(s, ESCAPE_SWEEP_BUDGETS))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Run, "escape_data", lambda self: ())
        assert verdict_text(dichotomy(s, ESCAPE_SWEEP_BUDGETS)) == text
