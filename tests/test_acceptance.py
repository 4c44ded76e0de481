"""Acceptance suite: ten criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance and time limit is pinned here; expected
values marked as recomputed were frozen from the independent oracles in
``oracles.py`` (string-map order search, depth-n enumeration, unrollings).
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from vtrees import (
    Budgets,
    ClopenSet,
    Element,
    GeneratingSet,
    boundary_point,
    builtin_generators,
    chains,
    compose,
    dichotomy,
    dynamics,
    epsilon_neighborhood,
    eventually_periodic_witness,
    free_group_smoke,
    hyp_power_bound,
    is_elliptic,
    is_revealing,
    make_element,
    proximal_contraction,
    random_element,
    recheck_hyp_certificate,
    reveal,
    verify_pingpong,
    visual_distance,
    word_str,
)
from vtrees.element import expand_pair, reduce as reduce_pair
from vtrees.cli import witness_json, orbit_json

from conftest import BINARY_SPEC, WIDE_SPEC, child_env, random_point
from oracles import (
    binary_helpers,
    brute_force_order_search,
    wide_helpers,
)


@contextmanager
def criterion(num, name, limit=None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL: {name} ({time.time() - t0:.2f}s)")
        raise
    dt = time.time() - t0
    within = limit is None or dt < limit
    bound = f", limit {limit}s" if limit is not None else ""
    print(f"[criterion {num:2d}] {'PASS' if within else 'FAIL'}: "
          f"{name} ({dt:.2f}s{bound})")
    assert within, f"criterion {num} exceeded its time limit: {dt:.2f}s"


@pytest.fixture(scope="module")
def trees():
    from vtrees import load_type_graph
    return load_type_graph(BINARY_SPEC), load_type_graph(WIDE_SPEC)


@pytest.fixture(scope="module")
def binary_gens(trees):
    return builtin_generators(trees[0])


@pytest.fixture(scope="module")
def suite_sets(trees, binary_gens):
    g = binary_gens
    return {
        "x0": GeneratingSet([g["x0"]], ["x0"]),
        "sigma": GeneratingSet([g["sigma"]], ["sigma"]),
        "f": GeneratingSet([g["x0"], g["x1"]], ["x0", "x1"]),
        "v": GeneratingSet([g[n] for n in ("x0", "x1", "sigma", "tau")],
                           ["x0", "x1", "sigma", "tau"]),
    }


@pytest.fixture(scope="module")
def suite_results(suite_sets):
    return {name: dichotomy(s) for name, s in suite_sets.items()}


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory, suite_results, suite_sets):
    d = tmp_path_factory.mktemp("acceptance")
    (d / "binary.json").write_text(BINARY_SPEC)
    from vtrees import format_generating_set
    (d / "vgens.txt").write_text(format_generating_set(suite_sets["v"]))
    (d / "sgens.txt").write_text(format_generating_set(suite_sets["sigma"]))
    (d / "witness.json").write_text(
        json.dumps(witness_json(suite_results["v"].witness), sort_keys=True))
    (d / "x0.txt").write_text(
        "pair{domain=[00,01,1], range=[0,10,11], perm=[0,1,2]}\n")
    (d / "xgens.txt").write_text(
        "x0 = pair{domain=[00,01,1], range=[0,10,11], perm=[0,1,2]}\n")
    return d


def test_criterion_01_group_laws(trees):
    with criterion(1, "group laws on 200 random elements (<= 6 carets)", 10):
        rng = random.Random(1)
        for tg in trees:
            elems = [random_element(tg, 6, random.Random(17_000 + i))
                     for i in range(100)]
            for i, e in enumerate(elems):
                # inverse laws
                assert compose(e, e.inverse()).is_identity()
                assert compose(e.inverse(), e).is_identity()
                # homomorphism on sample points
                h = elems[(i + 1) % len(elems)]
                gh = compose(e, h)
                for _ in range(2):
                    x = random_point(tg, rng)
                    assert gh.apply_point(x) == e.apply_point(h.apply_point(x))
                # confluence: one-step expansions reduce back, and random
                # interleavings reach the same normal form
                for u in e.pair.domain_leaves:
                    assert Element(reduce_pair(expand_pair(e.pair, u))) == e
                p = e.pair
                for _ in range(3):
                    leaves = p.domain_leaves
                    p = expand_pair(p, leaves[rng.randrange(len(leaves))])
                assert Element(reduce_pair(p)) == e


def test_criterion_02_metric_homothety(trees):
    with criterion(2, "homothety on 1000 same-ball pairs, "
                      "ultrametric on 1000 triples", 5):
        rng = random.Random(2)
        for tg in trees:
            elems = [random_element(tg, 5, random.Random(23_000 + i))
                     for i in range(25)]
            done = 0
            while done < 500:
                e = elems[done % len(elems)]
                kappa = e.pair.leaf_map()
                u = e.pair.domain_leaves[rng.randrange(len(kappa))]
                lam = e.ratio(u)
                sx = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
                sy = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
                x = boundary_point(tg, tuple(u) + tuple(sx), (rng.randrange(2),))
                y = boundary_point(tg, tuple(u) + tuple(sy), (rng.randrange(2),))
                if x == y:
                    continue
                assert visual_distance(e.apply_point(x), e.apply_point(y)) \
                    == lam * visual_distance(x, y)
                done += 1
            for _ in range(500):
                x, y, z = (random_point(tg, rng) for _ in range(3))
                assert visual_distance(x, z) <= max(visual_distance(x, y),
                                                    visual_distance(y, z))


def test_criterion_03_revealing_oracle_equivalence(trees):
    with criterion(3, "rolling vs breadth-first revealing on 100 random "
                      "elements (<= 4 carets)", 60):
        for tg in trees:
            for i in range(50):
                e = random_element(tg, 4, random.Random(31_000 + i))
                a = reveal(e, strategy="rolling")
                b = reveal(e, strategy="bfs")
                assert is_revealing(a.pair) and is_revealing(b.pair)
                assert make_element(a.pair) == e == make_element(b.pair)


def test_criterion_04_x0_dynamics_pinned(binary_gens):
    with criterion(4, "pinned dynamics of the basic Thompson move", 5):
        x0 = binary_gens["x0"]
        tg = x0.tg
        rep = dynamics(x0)
        assert rep.stable.is_empty()
        assert [str(p) for p in rep.attracting_periodic] == ["(1)^inf"]
        assert [str(p) for p in rep.repelling_periodic] == ["(0)^inf"]
        assert rep.isolated == ()
        kinds = sorted(c.kind for c in chains(x0.pair))
        assert kinds == ["attracting", "repelling", "wandering"]


def test_criterion_05_power_bound_certificates(trees, binary_gens):
    with criterion(5, "power-bound certificate N=2 for the basic move, "
                      "plus 20 random non-elliptic elements", 30):
        x0 = binary_gens["x0"]
        rep = dynamics(x0)
        n, cert = hyp_power_bound(x0, rep, Fraction(1, 4))
        assert n == 2
        # re-check at four consecutive powers 2..5 by exact images
        assert recheck_hyp_certificate(x0, cert, extra_powers=3)
        for tg in trees:
            found = 0
            seed = 0
            while found < 10:
                e = random_element(tg, 4, random.Random(41_000 + seed))
                seed += 1
                if is_elliptic(e):
                    continue
                found += 1
                d = dynamics(e)
                nn, c = hyp_power_bound(e, d, Fraction(1, 4))
                assert nn >= 1
                assert recheck_hyp_certificate(e, c, extra_powers=3)


def test_criterion_06_ellipticity_iff_finite_order(trees):
    with criterion(6, "ellipticity agrees with brute-force order search "
                      "(n <= 1000) on 100 random elements", 60):
        helpers = {0: binary_helpers(), 1: wide_helpers()}
        for k, tg in enumerate(trees):
            arity_of, l2c = helpers[k]
            for i in range(50):
                e = random_element(tg, 4, random.Random(53_000 + i))
                bo = brute_force_order_search(e, arity_of, l2c, 1000)
                assert is_elliptic(e) == (bo is not None)


def test_criterion_07_proximal_contraction_pinned(binary_gens):
    with criterion(7, "pinned contraction element at radius 1/4", 5):
        x0 = binary_gens["x0"]
        tg = x0.tg
        pc = proximal_contraction([x0], Fraction(1, 4), words=[(("x0", 1),)])
        t = pc.stages[0].multiplier
        assert t >= 2
        assert pc.element == x0.power(t)
        target = ClopenSet.from_balls(tg, [(0, 0), (1, 1)])
        assert pc.target == target
        assert pc.element.apply_clopen(pc.start).subset_of(target)


def test_criterion_08_dichotomy_suite(suite_results, suite_sets):
    with criterion(8, "dichotomy verdicts for the four suite subgroups", 480):
        t0 = time.time()
        res = suite_results["x0"]
        assert res.verdict == "finite-orbit"
        assert {str(p) for p in res.orbit.points} & {"(0)^inf", "(1)^inf"}

        res = suite_results["sigma"]
        assert res.verdict == "finite-orbit"
        # recomputed with exact point arithmetic: the ball swap transports
        # tails verbatim, so the two-point orbit of (0)^inf is {0^inf, 10^inf}
        assert [str(p) for p in res.orbit.points] == ["(0)^inf", "1(0)^inf"]

        res = suite_results["f"]
        assert res.verdict == "finite-orbit"
        assert [str(p) for p in res.orbit.points] == ["(0)^inf"]

        res = suite_results["v"]
        assert res.verdict == "ping-pong"
        ok, reason = verify_pingpong(res.witness)
        assert ok, reason
        assert free_group_smoke(res.witness.g, res.witness.h, 6)

        # each case individually well under the per-case limit
        assert time.time() - t0 < 480
        for name in ("x0", "sigma", "f", "v"):
            s = suite_sets[name]
            t1 = time.time()
            dichotomy(s)
            assert time.time() - t1 < 120, f"case {name} too slow"


def test_criterion_09_witness_portability(work_dir, suite_results):
    with criterion(9, "witnesses re-verified by fresh processes", 60):
        proc = subprocess.run(
            [sys.executable, "-m", "vtrees", "pingpong-verify",
             "--tree", str(work_dir / "binary.json"),
             "--witness", str(work_dir / "witness.json")],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

        orb = suite_results["sigma"].orbit
        proc = subprocess.run(
            [sys.executable, "-m", "vtrees", "orbit",
             "--tree", str(work_dir / "binary.json"),
             "--gens", str(work_dir / "sgens.txt"), str(orb.seed)],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["points"] == [str(p) for p in orb.points]


def test_criterion_10_determinism(work_dir):
    with criterion(10, "byte-identical reports across repeats and thread "
                       "counts", 120):
        invocations = [
            ["dynamics", "--tree", str(work_dir / "binary.json"),
             "--element", str(work_dir / "x0.txt"), "--eps", "2^-2"],
            ["dichotomy", "--tree", str(work_dir / "binary.json"),
             "--gens", str(work_dir / "sgens.txt")],
            ["dichotomy", "--tree", str(work_dir / "binary.json"),
             "--gens", str(work_dir / "vgens.txt")],
            ["contract", "--tree", str(work_dir / "binary.json"),
             "--gens", str(work_dir / "xgens.txt"), "--eps", "2^-2"],
            ["random-element", "--tree", str(work_dir / "binary.json"),
             "--seed", "7", "--size", "5"],
            ["orbit", "--tree", str(work_dir / "binary.json"),
             "--gens", str(work_dir / "sgens.txt"), "(0)^inf"],
        ]
        for args in invocations:
            outs = []
            for threads in ("1", "4", "1"):
                proc = subprocess.run(
                    [sys.executable, "-m", "vtrees", *args,
                     "--threads", threads],
                    capture_output=True, timeout=300, env=child_env())
                assert proc.returncode == 0, proc.stderr.decode()[-2000:]
                outs.append(proc.stdout)
            assert outs[0] == outs[1] == outs[2], f"nondeterministic: {args[0]}"
