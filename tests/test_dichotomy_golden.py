"""Golden first witnesses of the dichotomy driver.

The determinism contract promises the same first witness in shortlex order
for the same generating set and budgets.  The expected strings were recorded
before the driver began to skip work that cannot change its answer
(docs/dynamics_notes.md, section 3); any change to what the driver finds
first shows up here.
"""

import random

import pytest

from vtrees import (
    Budgets,
    GeneratingSet,
    TypeGraph,
    builtin_generators,
    dichotomy,
    random_element,
    word_str,
)
from vtrees.element import shape_caret_count

BINARY = TypeGraph({"b": ["b", "b"]}, "b")
WIDE = TypeGraph({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r")

SUITE = {"x0": ["x0"], "sigma": ["sigma"], "F": ["x0", "x1"],
         "V": ["x0", "x1", "sigma", "tau"]}

CASE_BUDGETS = Budgets(word_length=4, orbit_size=64, closure_size=64)
CASE_SEED = 20

EXPECTED_SUITE = {
    'x0': 'finite-orbit (0)^inf',
    'sigma': 'finite-orbit (0)^inf 1(0)^inf',
    'F': 'finite-orbit (0)^inf',
    'V': 'ping-pong x0^6*sigma^-1 | x0*sigma*x0^-1*x0^8*sigma^-1*x0*sigma^-1*x0^-1 | 0111 1000 | 0000 1111 | 1101 1110 | 1011 1100',
}

# case i: tree (binary, wide)[i % 2], two generators of 3 + (i // 2) % 2 carets
EXPECTED_CASES = [
    'finite-orbit 0(1)^inf',
    'ping-pong b^6*a^-2 | a^-1*b*a^-1*b^-1*b^12*a^-2*b*a*b^-1*a | 1001 1100 2100 | 0111 1000 2000 | 1111 2001 2111 | 0000 1110 2011',
    'finite-orbit 10(1)^inf',
    'undecided stable parts empty but neither branch verified in budget | 7 |  | b b^-1 a*b | 0(0)^inf 0(1)^inf 00(1)^inf 1(0)^inf 1(1)^inf 10(1)^inf 100(1)^inf 11(0)^inf 2(1)^inf 20(1)^inf 21(0)^inf',
    'undecided stable parts empty but neither branch verified in budget | 4 |  | b | (1)^inf 0(1)^inf',
    'undecided stable parts empty but neither branch verified in budget | 4 |  | b | 0(10)^inf 1(01)^inf 2(10)^inf',
    'undecided stable parts empty but neither branch verified in budget | 4 |  | b | (0)^inf 00(1)^inf 01(0)^inf 1(0)^inf',
    'undecided stable parts empty but neither branch verified in budget | 7 |  | b b^-1 a*b | 0(1)^inf 00(0001)^inf 00(1)^inf 01(0100)^inf 010(1)^inf 1(010)^inf 2(010)^inf 2(1)^inf',
    'ping-pong b^10*a^-1 | b*a*b^-1*b^16*a^-1*b*a^-1*b^-1 | 01111 10000 10100 | 00000 01000 11111 | 11001 11011 | 10111 11000 11010',
    'finite-orbit 2(1)^inf',
    'finite-orbit (1)^inf',
    'finite-orbit 1(0)^inf',
    'undecided stable parts empty but neither branch verified in budget | 4 |  | b | (0)^inf 1(0)^inf',
    'undecided stable parts empty but neither branch verified in budget | 2 |  | a | 0(1)^inf 00(1)^inf 1(1)^inf 10(1)^inf 2(1)^inf',
    'finite-orbit 1(0)^inf',
    'undecided stable parts empty but neither branch verified in budget | 4 |  | a a^-1 b | 0(0)^inf 0(1)^inf 1(0)^inf 11(0)^inf 21(0)^inf',
    'ping-pong a^6*b^-1 | a*b*a^6*b^-2*a^-1 | 010000 100101 | 001010 100000 | 000000 001101 | 001100 110101',
    'undecided stable parts empty but neither branch verified in budget | 7 |  | a*b | 00(1)^inf 1(1)^inf 10(1)^inf 2(1)^inf 20(1)^inf',
    'undecided stable parts empty but neither branch verified in budget | 4 |  | b | (0)^inf 1(0)^inf',
    'ping-pong a^9*b^-1 | b^2*a^9*b^-3 | 0000 0100 1010 | 0111 2000 2100 | 0101 1000 2110 | 1011 1100 2101',
    'finite-orbit 1(0)^inf 11(0)^inf',
    'ping-pong a^4*b^-1 | a*b*a^-1*a^6*b^-1*a*b^-1*a^-1 | 00 | 100 200 | 101 | 11',
    'ping-pong a^17*b^-1*a^-1*b^-1 | b^-1*a*b*a^17*b^-1*a^-1*b^-2*a^-1*b | 01101111 11011111 11100000 | 00111111 01000000 11111111 | 00101001 00101010 00101110 | 00011111 00101011 00101100',
    'ping-pong a^8*b^-2 | a*b^2*a^8*b^-4*a^-1 | 001111 110111 201111 | 011111 111111 211111 | 100111 111011 111100 | 101111 110011 111101',
]


def verdict_text(res):
    """Verdict plus orbit points, witness words and clopens, or the
    undecided frontier, on one line."""
    if res.orbit is not None:
        return "finite-orbit " + " ".join(str(p) for p in res.orbit.points)
    if res.witness is not None:
        w = res.witness
        return "ping-pong " + " | ".join(
            [word_str(w.g_word), word_str(w.h_word)]
            + [" ".join(c.ball_strs()) for c in (w.u1, w.v1, w.u2, w.v2)])
    d = res.diagnostics
    return "undecided " + " | ".join([
        d["reason"], str(d["elements_scanned"]),
        " ".join(d["stable_intersection"]), " ".join(d["contributor_words"]),
        " ".join(d["candidate_points"])])


def with_carets(tg, carets, rng):
    while True:
        e = random_element(tg, carets, rng)
        if shape_caret_count(e.pair.domain) == carets:
            return e


def seeded_cases():
    rng = random.Random(CASE_SEED)
    out = []
    for i in range(len(EXPECTED_CASES)):
        tg = (BINARY, WIDE)[i % 2]
        carets = 3 + (i // 2) % 2
        out.append(GeneratingSet([with_carets(tg, carets, rng) for _ in range(2)],
                                 ["a", "b"]))
    return out


@pytest.mark.parametrize("name", list(SUITE))
def test_suite_first_witness(name):
    gens = builtin_generators(BINARY)
    s = GeneratingSet([gens[n] for n in SUITE[name]], SUITE[name])
    assert verdict_text(dichotomy(s)) == EXPECTED_SUITE[name]


def test_seeded_first_witnesses():
    got = [verdict_text(dichotomy(s, CASE_BUDGETS)) for s in seeded_cases()]
    for i, (text, expected) in enumerate(zip(got, EXPECTED_CASES)):
        assert text == expected, f"case {i}"
