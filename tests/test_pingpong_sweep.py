"""Seeded sweep: every ping-pong pair the driver certifies passes the
independent string-map checker in ``oracles.py``, which reads only the
witness's pair strings and ball lists."""

import random

from vtrees import Budgets, GeneratingSet, dichotomy, format_element

from oracles import (
    binary_helpers,
    complement_balls,
    parse_pair_strmap,
    pingpong_oracle,
    strmap_image_balls,
    wide_helpers,
)
from test_dichotomy_golden import BINARY, WIDE, with_carets

SWEEP_BUDGETS = Budgets(word_length=4, orbit_size=16, closure_size=16)
SWEEP_SEED = 7
SWEEP_CASES = 60


def sweep_cases():
    """Case i: tree (binary, wide)[i % 2], two generators of 3 + i % 2
    carets; with the arity function of its tree."""
    rng = random.Random(SWEEP_SEED)
    arities = (binary_helpers()[0], wide_helpers()[0])
    return [(GeneratingSet([with_carets((BINARY, WIDE)[i % 2], 3 + i % 2, rng)
                            for _ in range(2)], ["a", "b"]), arities[i % 2])
            for i in range(SWEEP_CASES)]


def test_every_pingpong_pair_passes_the_oracle():
    pingpong = 0
    for i, (s, arity_of) in enumerate(sweep_cases()):
        res = dichotomy(s, SWEEP_BUDGETS)
        assert res.verdict in ("finite-orbit", "ping-pong", "undecided")
        if res.verdict != "ping-pong":
            continue
        w = res.witness
        g, h = format_element(w.g), format_element(w.h)
        balls = [c.ball_strs() for c in (w.u1, w.v1, w.u2, w.v2)]
        assert pingpong_oracle(g, h, *balls, arity_of), f"case {i}"
        # the checker rejects the pair with g and h swapped
        assert not pingpong_oracle(h, g, *balls, arity_of), f"case {i}"
        pingpong += 1
    assert pingpong >= 20


def test_oracle_checks_disjointness_and_both_inclusions():
    arity_of = binary_helpers()[0]
    x0 = "pair{domain=[00,01,1], range=[0,10,11], perm=[0,1,2]}"
    m = parse_pair_strmap(x0)
    # a ball below a domain leaf is translated, one above leaves is split
    assert strmap_image_balls(m, "1") == ["11"]
    assert strmap_image_balls(m, "0") == ["0", "10"]
    assert complement_balls(["00"], arity_of) == ["01", "1"]
    # x0 maps X - 0, the ball 1, onto 11
    assert pingpong_oracle(x0, x0, ["0"], ["11"], ["0"], ["11"], arity_of) \
        is False  # U1 and U2 meet
    assert pingpong_oracle(x0, x0, ["0"], ["10"], ["110"], ["111"],
                           arity_of) is False  # 11 is not inside V1
