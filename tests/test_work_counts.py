"""Count pins for work whose outcome the input already fixes.

A reveal on a tree without singleton types builds no chains for the
fake-chain pass; a translation search reads each level tuple's rows once
per level; the two contractions of one ping-pong construction share their
power squarings.  The counts are exact and repeat, and the ``apply_point``
count shows that the point work is unchanged."""

import pytest

import vtrees.alternative as alternative
import vtrees.element as element_module
import vtrees.revealing as revealing
import vtrees.subgroup as subgroup
from vtrees import compose, dichotomy, dynamics, is_elliptic


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
