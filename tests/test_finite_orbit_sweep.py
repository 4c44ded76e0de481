"""Seeded sweep: every finite orbit the driver certifies passes the
independent string-map checker in ``oracles.py``.

The budgets put ``closure_size`` above ``orbit_size``, so the driver's
larger orbit probe (docs/dynamics_notes.md, section 3) is exercised as well
as the ordinary probes.
"""

import random

from vtrees import Budgets, GeneratingSet, dichotomy

from oracles import finite_orbit_oracle, to_strmap
from test_dichotomy_golden import BINARY, WIDE, with_carets

SWEEP_BUDGETS = Budgets(word_length=3, orbit_size=2, closure_size=16)
SWEEP_SEED = 5
SWEEP_CASES = 40


def sweep_cases():
    """Case i: tree (binary, wide)[i % 2], two generators of 2 + i % 3
    carets."""
    rng = random.Random(SWEEP_SEED)
    return [GeneratingSet([with_carets((BINARY, WIDE)[i % 2], 2 + i % 3, rng)
                           for _ in range(2)], ["a", "b"])
            for i in range(SWEEP_CASES)]


def test_every_finite_orbit_passes_the_oracle():
    finite = above_orbit_budget = 0
    for i, s in enumerate(sweep_cases()):
        res = dichotomy(s, SWEEP_BUDGETS)
        assert res.verdict in ("finite-orbit", "ping-pong", "undecided")
        if res.verdict != "finite-orbit":
            continue
        maps = [to_strmap(e) for e in s.elements]
        seed = str(res.orbit.seed)
        points = [str(p) for p in res.orbit.points]
        assert finite_orbit_oracle(maps, seed, points), f"case {i}"
        # the checker rejects the orbit with any one point left out
        for k in range(len(points)):
            assert not finite_orbit_oracle(maps, seed,
                                           points[:k] + points[k + 1:])
        finite += 1
        above_orbit_budget += len(points) > SWEEP_BUDGETS.orbit_size
    assert finite >= 12 and above_orbit_budget >= 3
