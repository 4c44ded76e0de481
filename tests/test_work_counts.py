"""Count pins for work whose outcome the input already fixes.

A reveal on a tree without singleton types builds no chains for the
fake-chain pass; a translation search reads each level tuple's rows once
per level; the two contractions of one ping-pong construction share their
power squarings, and at equal radii there is one contraction; a parsed
pair text is walked once per side, and a reduced pair is not rebuilt; a
power-bound trap is computed, not found by a scan over refinements; a roll
grafts at a vertex of the chains it is handed, and the periodic points are
read off the chains, with no leaf map, inverse or point image.  The counts
are exact and repeat, and the ``apply_point`` and ``apply_clopen`` counts
show that the point and image work is unchanged."""

from fractions import Fraction

import pytest

import vtrees.alternative as alternative
import vtrees.element as element_module
import vtrees.revealing as revealing
import vtrees.subgroup as subgroup
from vtrees import (ClopenSet, Element, build_pingpong, compose, dichotomy,
                    dynamics, element_from_map, format_element,
                    hyp_power_bound, is_elliptic, make_element, parse_element)
from vtrees.element import TreePair, expand_pair


@pytest.fixture
def counts(monkeypatch):
    """Counts of ``chains`` builds, ``_LetterImages.row`` reads, products
    with no identity factor and ``apply_point`` calls."""
    out = {"chains": 0, "row": 0, "products": 0, "apply_point": 0}
    chains, row = revealing.chains, subgroup._LetterImages.row
    compose_, apply_point = element_module.compose, element_module.Element.apply_point

    def counted_chains(pair):
        out["chains"] += 1
        return chains(pair)

    def counted_row(self, i):
        out["row"] += 1
        return row(self, i)

    def counted_compose(g, h):
        out["products"] += not (g.is_identity() or h.is_identity())
        return compose_(g, h)

    def counted_apply_point(self, x):
        out["apply_point"] += 1
        return apply_point(self, x)

    monkeypatch.setattr(revealing, "chains", counted_chains)
    monkeypatch.setattr(subgroup._LetterImages, "row", counted_row)
    for module in (element_module, subgroup, alternative):
        monkeypatch.setattr(module, "compose", counted_compose)
    monkeypatch.setattr(element_module.Element, "apply_point",
                        counted_apply_point)
    return out


def test_a_reveal_without_singleton_types_builds_chains_twice(counts, x0,
                                                              x1, sigma):
    x1_sigma = compose(x1, sigma)
    for run, builds in ((lambda: dynamics(x0), 2),
                        (lambda: dynamics(x1_sigma), 3),
                        (lambda: is_elliptic(x0), 2)):
        counts["chains"] = 0
        run()
        assert counts["chains"] == builds


def test_dichotomy_of_v_counts(counts, v_gens):
    assert dichotomy(v_gens).verdict == "ping-pong"
    assert counts == {"chains": 10, "row": 56, "products": 10,
                      "apply_point": 64}


def counting(monkeypatch, module, names):
    """Counts of calls of the named functions of a module, by name."""
    out = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            out[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return out


def test_equal_radii_make_one_contraction(monkeypatch):
    from test_pingpong_sweep import SWEEP_BUDGETS, sweep_cases
    s = sweep_cases()[17][0]  # both radii are 2^-8
    calls = counting(monkeypatch, alternative, ["_contraction"])
    assert build_pingpong(s, SWEEP_BUDGETS) is not None
    assert calls == {"_contraction": 1}


def test_a_parsed_pair_is_walked_once_per_side(monkeypatch, binary, x0, x1,
                                               sigma):
    texts = [format_element(g) for g in (x0, compose(x1, sigma))]
    calls = counting(monkeypatch, element_module, [
        "ordered_tree", "typed_leaves", "shape_from_leaves"])
    for text in texts:
        calls.update(dict.fromkeys(calls, 0))
        assert format_element(parse_element(binary, text)) == text
        assert calls == {"ordered_tree": 2, "typed_leaves": 0,
                         "shape_from_leaves": 0}


def test_a_reduced_pair_is_not_rebuilt(monkeypatch, x0):
    unreduced = expand_pair(x0.pair, (1,))
    calls = counting(monkeypatch, element_module, ["pair_from_ordered"])
    assert make_element(x0.pair).pair is x0.pair
    assert calls == {"pair_from_ordered": 0}
    assert make_element(unreduced) == x0
    assert calls == {"pair_from_ordered": 1}


def test_a_power_bound_trap_is_computed_not_scanned(monkeypatch, x0):
    # Per direction at m = 70: trap <= target and g(trap) <= trap once
    # each, then g^k(start) <= trap for k = 0 .. N; no check per
    # refinement, of which a scan would make m = 70 for x0's cycle
    # (1) -> (11).
    rep = dynamics(x0)
    subset = counting(monkeypatch, ClopenSet, ["subset_of"])
    images = counting(monkeypatch, Element, ["apply_clopen"])
    n, cert = hyp_power_bound(x0, rep, Fraction(1, 2 ** 70))
    assert (n, cert.forward.steps, cert.backward.steps) == (138, 138, 138)
    assert subset == {"subset_of": 2 * 141}
    assert images == {"apply_clopen": 2 * 139}


def test_a_roll_reads_the_chains_it_is_given(monkeypatch, x0, x1, sigma):
    # x0 x1 fails on the repeller side, x1 sigma on the attractor side
    calls = counting(monkeypatch, TreePair, ["leaf_map"])
    for g, side in ((compose(x0, x1), "repeller"),
                    (compose(x1, sigma), "attractor")):
        ch = revealing.chains(g.pair)
        viol, _ = revealing._check_components(g.pair, ch)
        assert viol[0] == side
        calls.update(leaf_map=0)
        revealing._roll_once(g.pair, *viol, ch)
        assert calls == {"leaf_map": 0}


def test_dynamics_makes_no_inverse_and_no_point_image(monkeypatch, x0, x1,
                                                      sigma, ray):
    # x1 sigma and x0 x1 roll once, and h swaps two isolated points
    calls = counting(monkeypatch, Element, ["inverse", "apply_point"])
    h = element_from_map(ray, {(0, 0): (0, 0), (0, 1): (1,), (1,): (0, 1)})
    for g in (x0, compose(x1, sigma), compose(x0, x1), h):
        dynamics(g)
    assert calls == {"inverse": 0, "apply_point": 0}
