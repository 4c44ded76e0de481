"""The letter-image table of the point searches: every entry it holds,
computed or filled from the reverse edge, is the image computed directly,
and a closed orbit costs one ``apply_point`` per edge of its orbit graph."""

import vtrees.element as element_module
from vtrees import GeneratingSet, orbit
from vtrees.alternative import _first_moving_off
from vtrees.subgroup import _LetterImages, _orbit_search

from test_orbit_oracle import ORACLE_CAP, orbit_cases

TRANSLATION_BUDGET = 3


def check_table(images):
    """Every filled entry of every row names the directly computed image."""
    filled = 0
    for i, row in enumerate(images.rows):
        p = images.points[i]
        for k, j in enumerate(row):
            if j is not None:
                assert images.ids[images.letters[k][1].apply_point(p)] == j
                filled += 1
    return filled


def test_filled_entries_are_the_computed_images():
    partial = 0
    for i, (s, seeds) in enumerate(orbit_cases()):
        images = _LetterImages(s)  # shared, as within one dichotomy call
        for x in seeds:
            _orbit_search(x, s, ORACLE_CAP, images)
            check_table(images)
        letters = [le for _, le in s.letters()]
        for a, b in ((seeds, seeds),
                     (seeds[:1], [le.apply_point(seeds[0]) for le in letters])):
            _first_moving_off(s, TRANSLATION_BUDGET, a, b, images)
            assert check_table(images) > 0, f"case {i}"
        # rows filled only from reverse edges are left partial
        partial += sum(0 < row.count(None) < len(row) for row in images.rows)
    assert partial > 0


def test_a_closed_orbit_costs_one_apply_point_per_edge(monkeypatch):
    calls = []
    apply_point = element_module.Element.apply_point

    def counted_apply_point(self, x):
        calls.append(x)
        return apply_point(self, x)

    closed = 0
    for i, (s, seeds) in enumerate(orbit_cases()):
        for x in seeds:
            res = orbit(x, s, ORACLE_CAP)
            if res is None:
                continue
            size = len(res)
            monkeypatch.setattr(element_module.Element, "apply_point",
                                counted_apply_point)
            del calls[:]
            assert orbit(x, s, size) is not None
            # each of the N points has 2g letter entries, and each call
            # fills one entry and its reverse: N * g calls, not 2 * N * g
            assert len(calls) == size * len(s.elements), f"case {i}"
            monkeypatch.undo()
            closed += size > 1
    assert closed >= 20


def test_letter_k_xor_1_is_the_inverse_of_letter_k(x0, sigma, v_gens):
    sets = [GeneratingSet([sigma], ["sigma"]),  # an involution
            GeneratingSet([x0, x0], ["a", "b"]),  # two equal generators
            v_gens]
    sets += [s for s, _ in orbit_cases()]
    for s in sets:
        letters = s.letters()
        assert len(letters) == 2 * len(s.elements)
        for k, ((name, sign), e) in enumerate(letters):
            assert letters[k ^ 1] == ((name, -sign), e.inverse())
