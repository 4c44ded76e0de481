"""The translation search over point tuples against the search that
composes every enumerated element (``oracles.py``), and the work it does."""

import random

import vtrees.alternative as alternative_module
import vtrees.element as element_module
import vtrees.subgroup as subgroup_module
from vtrees import (
    GeneratingSet,
    dynamics,
    enumerate_elements,
    load_type_graph,
    neumann_disjoint,
)
from vtrees.alternative import _first_moving_off
from vtrees.element import Element
from vtrees.subgroup import _LetterImages

from conftest import RAY_SPEC, nonidentity_element, random_end, random_point
from oracles import first_moving_off_by_elements
from test_dichotomy_golden import BINARY, WIDE, with_carets

RAY = load_type_graph(RAY_SPEC)
SEARCH_SEED = 11
SEARCH_CASES = 24
RAY_CASES = 8
WORD_BUDGETS = range(5)


def hyperbolic_points(s):
    reports = [dynamics(e) for e in s.elements]
    return sorted({p for rep in reports
                   for p in rep.attracting_periodic + rep.repelling_periodic},
                  key=lambda p: p.sort_key())


def search_cases():
    """Case i: tree (binary, wide)[i % 2], two generators of 2 + i % 3
    carets, and two (A, B) pairs: A = B = the generators' hyperbolic points,
    and random points A with B made of A's tail, letter images of some
    points of A and one more random point.  Then RAY_CASES cases on the ray
    tree, whose elements are all elliptic and which has no hyperbolic
    points: two non-identity generators of at most 8 carets, and one pair
    of 1 + i % 2 random ends A with B made of A's head and as many letter
    images of points of A."""
    rng = random.Random(SEARCH_SEED)
    out = []
    for i in range(SEARCH_CASES):
        tg = (BINARY, WIDE)[i % 2]
        s = GeneratingSet([with_carets(tg, 2 + i % 3, rng) for _ in range(2)],
                          ["a", "b"])
        hyp = hyperbolic_points(s)
        a = [random_point(tg, rng) for _ in range(2 + i % 2)]
        letters = [le for _, le in s.letters()]
        b = a[1:] + [rng.choice(letters).apply_point(rng.choice(a))
                     for _ in range(2 + i % 3)] + [random_point(tg, rng)]
        out.append((s, [(hyp, hyp), (a, b)]))
    for i in range(RAY_CASES):
        s = GeneratingSet([nonidentity_element(RAY, 8, rng) for _ in range(2)],
                          ["a", "b"])
        a = [random_end(RAY, rng) for _ in range(1 + i % 2)]
        letters = [le for _, le in s.letters()]
        b = a[:1] + [rng.choice(letters).apply_point(rng.choice(a))
                     for _ in range(1 + i % 2)]
        out.append((s, [(a, b)]))
    return out


def test_tuple_search_matches_element_enumeration():
    found = 0
    for i, (s, point_sets) in enumerate(search_cases()):
        images = _LetterImages(s)  # shared, as within one dichotomy call
        for a, b in point_sets:
            for budget in WORD_BUDGETS:
                expected = first_moving_off_by_elements(
                    enumerate_elements(s, budget), a, b)
                assert neumann_disjoint(s, a, b, budget) == expected, \
                    f"case {i}, budget {budget}"
                assert _first_moving_off(s, budget, a, b, images) == expected
                found += expected is not None and len(expected[0]) > 1
    assert found >= 30


def count_calls(monkeypatch, module, name, log):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_neumann_disjoint_composes_only_the_word_found(monkeypatch):
    log = []
    for module in (element_module, subgroup_module, alternative_module):
        count_calls(monkeypatch, module, "compose", log)
    count_calls(monkeypatch, Element, "inverse", log)
    checked = 0
    for s, point_sets in search_cases():
        for a, b in point_sets:
            log.clear()
            res = neumann_disjoint(s, a, b, 4)
            # the letters were computed when the case was built
            assert "inverse" not in log
            if res is not None:
                checked += 1
                assert log.count("compose") == len(res[0])
            else:
                assert "compose" not in log
    assert checked >= 20


def test_letters_are_computed_once(monkeypatch):
    s = GeneratingSet(search_cases()[0][0].elements, ["a", "b"])
    log = []
    count_calls(monkeypatch, Element, "inverse", log)
    letters = s.letters()
    assert s.letters() is letters
    assert log.count("inverse") == len(s.elements)
    s.evaluate((("a", -1), ("b", -1), ("a", 1)))
    assert log.count("inverse") == len(s.elements)
