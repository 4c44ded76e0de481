"""The four workloads: seeded inputs, the timed cases, and their output checks.

A workload is a list of cases ``(name, fn)``.  A pass calls every case in
order with one fresh ``state`` dict, so a case may use what an earlier case
of the same pass computed (``dynamics`` of the ``power`` just taken).  The
library is always reached through module attributes (``V.dichotomy``), so
the spans that ``tracing`` installs see every call.

Everything a case needs is generated by ``build`` from the seed before any
timing starts.  Checks run after the timed passes; see ``Workload.check``.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
from fractions import Fraction
from time import perf_counter

import vtrees as V
import vtrees.cli  # noqa: F401  (run_cli reaches it as V.cli)
from vtrees.element import shape_caret_count

from speed import Clock

BINARY_SPEC = '{"types": {"b": ["b", "b"]}, "root": "b"}'
WIDE_SPEC = '{"types": {"r": ["b", "b", "b"], "b": ["b", "b"]}, "root": "r"}'
RAY_SPEC = '{"types": {"a": ["a", "b"], "b": ["b"]}, "root": "a"}'

# corpus: explicit budgets; at the defaults single cases run for minutes
CORPUS_BUDGETS = V.Budgets(word_length=4, orbit_size=64, closure_size=64)
CORPUS_CASES = 120
HANG_GENERATOR = ("pair{domain=[00,010,0110,0111,1], "
                  "range=[00,01,10,110,111], perm=[2,0,1,3,4]}")

# deep: x0^n series; hyp_power_bound stops at 200 because at 400 it alone
# costs as much as the rest of the pass
# (half-steps between the doublings, and 168 between 141 and 200, make the
# slowest tenth of the cases thirteen x0^n cases of 0.15 s or more, so the
# p90 is a deterministic case long enough to time steadily)
X0_SERIES = (25, 35, 50, 71, 100, 141, 168, 200, 283, 400)
HYP_SERIES_MAX = 200
HYP_EPS = Fraction(1, 8)
RANDOM_SIZES = (8, 16, 32, 64)
RANDOM_PER_SIZE = 6  # 72 element cases: with the rest, 100 per pass
LARGEST_OF = 8
# dynamics and order stop at caret bound 8, and breadth-first reveal at 2:
# their cost depends on the element far more than on its size (dynamics at
# bound 16 up to ~50 ms, at 32 up to 0.34 s, at 64 one element took 40 s;
# breadth-first reveal at 3 carets up to 0.09 s, at 4 over 12 s), so larger
# elements put seed-dependent cases among the slowest tenth and made the
# p90 swing with the seed; the x0^n series carries the growth instead
DYNAMICS_SIZE_MAX = 8
REVEAL_SIZES = {"rolling": (4, 6, 8), "bfs": (2,)}

# clopen: depth stays far below the ~20 000 levels where the recursive trie
# operations overflow the C stack (ROADMAP open item 4 gates on that crash)
# set sizes and depths are spread evenly on a log scale, so case times
# form a continuum and their quantiles do not jump between distant cases
BALL_PAIRS = 16
BALLS_PER_SET = tuple(100 * (i + 1) for i in range(BALL_PAIRS))  # up to 1600
DEEP_DEPTHS = tuple(round(250 * 2 ** (k / 2)) for k in range(11))  # 250-8000
QUERY_POINTS = 50

# headline probe: repetitions, and the x0^n series of the exponent fits
PROBE_V_REPS = 5
PROBE_CLI_REPS = 5
PROBE_SERIES_REPS = 3
PROBE_SERIES = (25, 35, 50, 71, 100, 141, 200)


def trees():
    return tuple(V.load_type_graph(s) for s in (BINARY_SPEC, WIDE_SPEC, RAY_SPEC))


class Workload:
    def __init__(self, cases, checks):
        self.cases = cases      # [(name, fn(state) -> result)]
        self._checks = checks   # fn(results) -> [(check name, ok)]

    def check(self, results):
        """Output checks on one pass's results; an exception in a check
        counts as that check failing."""
        try:
            return self._checks(results)
        except Exception as e:  # a crashing check is a failed check
            return [(f"checks raised {type(e).__name__}: {e}", False)]


def build(name, seed, work):
    return {"suite": suite, "corpus": corpus, "deep": deep,
            "clopen": clopen}[name](seed, work)


# ---------------------------------------------------------------------------
# Results: digest lines, decided cases, certificate checks


def describe(result):
    """A canonical one-line text of a case result, for the verdict digest."""
    if isinstance(result, V.DichotomyResult):
        if result.orbit is not None:
            return f"{result.verdict} {[str(p) for p in result.orbit.points]}"
        if result.witness is not None:
            w = result.witness
            return (f"{result.verdict} {V.format_element(w.g)} "
                    f"{V.format_element(w.h)} {w.u1} {w.v1} {w.u2} {w.v2}")
        return f"{result.verdict} {result.diagnostics['reason']}"
    if isinstance(result, V.Element):
        return V.format_element(result)
    if isinstance(result, V.ClopenSet):
        return trie_digest(result.node)
    if isinstance(result, V.DynamicsReport):
        return (f"{result.stable} {result.hyperbolic} "
                f"{[str(p) for p in result.attracting_periodic]} "
                f"{[str(p) for p in result.repelling_periodic]}")
    if isinstance(result, CliRun):
        return f"exit {result.code} {hashlib.sha256(result.stdout).hexdigest()}"
    if isinstance(result, V.RevealingPair):
        return V.format_element(V.make_element(result.pair))
    if (isinstance(result, tuple) and len(result) == 2
            and isinstance(result[1], V.HypCertificate)):
        return f"N={result[0]}"
    if isinstance(result, (tuple, list)):
        return "(" + ", ".join(describe(x) for x in result) + ")"
    return repr(result)


def trie_digest(node):
    """Hash of a clopen trie, walked with an explicit stack (listing the
    balls of a depth-d trie costs d^2)."""
    h = hashlib.sha256()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is True or n is False:
            h.update(b"T" if n else b"F")
        else:
            h.update(b"(%d" % len(n))
            stack.extend(reversed(n))
    return h.hexdigest()


def decided(result):
    """Undecided dichotomies and failing CLI runs are the only cases that
    end without a definite answer."""
    if isinstance(result, V.DichotomyResult):
        return result.verdict != "undecided"
    if isinstance(result, CliRun):
        return result.code == 0
    return True


def orbit_closed(orb, gens):
    pts = set(orb.points)
    movers = list(gens) + [g.inverse() for g in gens]
    return orb.seed in pts and all(
        g.apply_point(p) in pts for g in movers for p in pts)


def certificate_checks(name, result, gens):
    """Re-check a dichotomy certificate independently of dichotomy."""
    if result.verdict == "finite-orbit":
        return [(f"{name}: orbit closed under generators and inverses",
                 orbit_closed(result.orbit, gens))]
    if result.verdict == "ping-pong":
        w = result.witness
        ok, _reason = V.verify_pingpong(w)
        return [(f"{name}: verify_pingpong", ok),
                (f"{name}: free_group_smoke", V.free_group_smoke(w.g, w.h, 2))]
    return []


# ---------------------------------------------------------------------------
# CLI runs in-process


class CliRun:
    __slots__ = ("code", "stdout")

    def __init__(self, code, stdout):
        self.code = code
        self.stdout = stdout


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = V.cli.main(list(argv))
    return CliRun(code, out.getvalue().encode())


def suite_sets(binary):
    g = V.builtin_generators(binary)
    return {
        "x0": V.GeneratingSet([g["x0"]], ["x0"]),
        "sigma": V.GeneratingSet([g["sigma"]], ["sigma"]),
        "f": V.GeneratingSet([g["x0"], g["x1"]], ["x0", "x1"]),
        "v": V.GeneratingSet([g[n] for n in ("x0", "x1", "sigma", "tau")],
                             ["x0", "x1", "sigma", "tau"]),
    }


def cli_invocations(work, sets):
    """The six report invocations of acceptance criterion 10, with their
    input files written under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    files = {
        "binary.json": BINARY_SPEC,
        "vgens.txt": V.format_generating_set(sets["v"]),
        "sgens.txt": V.format_generating_set(sets["sigma"]),
        "x0.txt": "pair{domain=[00,01,1], range=[0,10,11], perm=[0,1,2]}\n",
        "xgens.txt": "x0 = pair{domain=[00,01,1], range=[0,10,11], perm=[0,1,2]}\n",
    }
    for fname, text in files.items():
        (work / fname).write_text(text)
    tree = str(work / "binary.json")
    return (
        ("dynamics", "--tree", tree, "--element", str(work / "x0.txt"),
         "--eps", "2^-2"),
        ("dichotomy", "--tree", tree, "--gens", str(work / "sgens.txt")),
        ("dichotomy", "--tree", tree, "--gens", str(work / "vgens.txt")),
        ("contract", "--tree", tree, "--gens", str(work / "xgens.txt"),
         "--eps", "2^-2"),
        ("random-element", "--tree", tree, "--seed", "7", "--size", "5"),
        ("orbit", "--tree", tree, "--gens", str(work / "sgens.txt"), "(0)^inf"),
    )


# ---------------------------------------------------------------------------
# suite: the paper's headline verdicts at default budgets, and the CLI


def suite(seed, work):
    """The acceptance subgroups and CLI invocations are fixed; the seed
    does not change them."""
    binary = trees()[0]
    sets = suite_sets(binary)
    cases = [(f"dichotomy.{k}", lambda st, s=s: V.dichotomy(s))
             for k, s in sets.items()]
    cases += [(f"cli.{i}.{argv[0]}", lambda st, a=argv: run_cli(a))
              for i, argv in enumerate(cli_invocations(work, sets))]
    expected = {"x0": "finite-orbit", "sigma": "finite-orbit",
                "f": "finite-orbit", "v": "ping-pong"}

    def checks(results):
        out = []
        for k, s in sets.items():
            res = results[f"dichotomy.{k}"]
            out.append((f"dichotomy.{k}: verdict {expected[k]}",
                        res.verdict == expected[k]))
            out += certificate_checks(f"dichotomy.{k}", res, s.elements)
        for name, res in results.items():
            if isinstance(res, CliRun):
                out.append((f"{name}: exit 0", res.code == 0))
                out.append((f"{name}: JSON report", bool(json.loads(res.stdout))))
        return out

    return Workload(cases, checks)


# ---------------------------------------------------------------------------
# corpus: seeded random 2-generator subgroups at explicit budgets


def element_with_carets(tg, carets, rng):
    """A random element with exactly ``carets`` carets, drawn from
    ``random_element`` until one has them."""
    for _ in range(1000):
        e = V.random_element(tg, carets, rng)
        if shape_caret_count(e.pair.domain) == carets:
            return e
    raise RuntimeError(f"no {carets}-caret element in 1000 draws")


def largest_element(tg, size, rng):
    """The element with the most carets among ``LARGEST_OF`` calls of
    ``random_element`` at caret bound ``size``.  Unlike an exact count this
    also works on the ray tree, whose reduced elements stay small."""
    return max((V.random_element(tg, size, rng) for _ in range(LARGEST_OF)),
               key=lambda e: shape_caret_count(e.pair.domain))


def corpus(seed, work):
    """Subgroups generated by two elements of exactly 3 or 4 carets, on the
    binary and wide trees alternately, plus the named hang generator."""
    binary, wide, _ray = trees()
    rng = random.Random(seed)
    subgroups = []
    for i in range(CORPUS_CASES):
        tg, tname = ((binary, "binary"), (wide, "wide"))[i % 2]
        carets = 3 + (i // 2) % 2
        gens = [element_with_carets(tg, carets, rng) for _ in range(2)]
        subgroups.append((f"case{i:03d}.{tname}{carets}",
                          V.GeneratingSet(gens, ["a", "b"])))
    subgroups.append(("hang", V.GeneratingSet(
        [V.parse_element(binary, HANG_GENERATOR)], ["g"])))
    cases = [(name, lambda st, s=s: V.dichotomy(s, CORPUS_BUDGETS))
             for name, s in subgroups]

    def checks(results):
        out = []
        for name, s in subgroups:
            out += certificate_checks(name, results[name], s.elements)
        return out

    return Workload(cases, checks)


# ---------------------------------------------------------------------------
# deep: element and revealing layers only


def sample_points(tg, rng, count):
    pts = []
    while len(pts) < count:
        t = tg.root_type
        prefix = []
        for _ in range(rng.randint(0, 8)):
            i = rng.randrange(tg.arity(t))
            prefix.append(i)
            t = tg.children[t][i]
        cycle = [rng.randrange(tg.arity(t))]
        try:
            pts.append(V.boundary_point(tg, prefix, cycle))
        except ValueError:
            continue  # the cycle does not return to its entry type
    return pts


def element_ops(tg, e, f, with_dynamics):
    """One random-element case: compose with the next element of its group,
    inverse, format/parse round trip, and optionally dynamics and order."""
    out = (V.compose(e, f), e.inverse(), V.parse_element(tg, V.format_element(e)))
    if with_dynamics:
        out += (V.dynamics(e), V.order(e))
    return out


def deep(seed, work):
    """x0^n for doubling n, random elements at caret bounds 8-64 (dynamics
    and order at 8), rolling reveals up to 8 carets and breadth-first
    reveals at 2."""
    binary, wide, ray = trees()
    x0 = V.builtin_generators(binary)["x0"]
    rng = random.Random(seed)
    cases = []
    for n in X0_SERIES:
        cases.append((f"x0^{n}.power", lambda st, n=n: st.setdefault(
            f"x0^{n}", x0.power(n))))
        cases.append((f"x0^{n}.dynamics", lambda st, n=n: st.setdefault(
            f"dyn{n}", V.dynamics(st[f"x0^{n}"]))))
        if n <= HYP_SERIES_MAX:
            cases.append((f"x0^{n}.hyp_power_bound", lambda st, n=n: st.setdefault(
                f"hyp{n}", V.hyp_power_bound(st[f"x0^{n}"], st[f"dyn{n}"], HYP_EPS))))
    elements = {}
    points = {}
    for tg, tname in ((binary, "binary"), (wide, "wide"), (ray, "ray")):
        points[tname] = (tg, sample_points(tg, rng, 4))
        for size in RANDOM_SIZES:
            group = [largest_element(tg, size, rng) for _ in range(RANDOM_PER_SIZE)]
            for j, e in enumerate(group):
                key = f"{tname}{size}.{j}"
                f = group[(j + 1) % len(group)]
                elements[key] = (tname, e, f)
                cases.append((key, lambda st, e=e, f=f, tg=tg, d=size <= DYNAMICS_SIZE_MAX:
                              element_ops(tg, e, f, d)))
    revealed = {}
    for tg, tname in ((binary, "binary"), (wide, "wide"), (ray, "ray")):
        for strategy, sizes in REVEAL_SIZES.items():
            for size in sizes:
                e = largest_element(tg, size, rng)
                key = f"{tname}{size}.reveal.{strategy}"
                revealed[key] = e
                cases.append((key, lambda st, e=e, s=strategy: V.reveal(e, s)))

    def checks(results):
        out = []
        for n in X0_SERIES:
            g = results[f"x0^{n}.power"]
            rep = results[f"x0^{n}.dynamics"]
            out.append((f"x0^{n}: dynamics pinned", rep.stable.is_empty()
                        and [str(p) for p in rep.attracting_periodic] == ["(1)^inf"]
                        and [str(p) for p in rep.repelling_periodic] == ["(0)^inf"]))
            if n <= HYP_SERIES_MAX:
                out.append((f"x0^{n}: g * g.inverse() is the identity",
                            (g * g.inverse()).is_identity()))
                _n, cert = results[f"x0^{n}.hyp_power_bound"]
                out.append((f"x0^{n}: recheck_hyp_certificate",
                            V.recheck_hyp_certificate(g, cert)))
        for key, (tname, e, f) in elements.items():
            _tg, pts = points[tname]
            ef, inv, parsed, *dyn_order = results[key]
            out.append((f"{key}: compose acts as e(f(x))", all(
                ef.apply_point(x) == e.apply_point(f.apply_point(x)) for x in pts)))
            out.append((f"{key}: g * g.inverse() is the identity",
                        (e * inv).is_identity()))
            out.append((f"{key}: format/parse round trip", parsed == e))
            if dyn_order:
                k = dyn_order[1]
                out.append((f"{key}: order", k is None or e.power(k).is_identity()))
        for key, e in revealed.items():
            rp = results[key]
            out.append((f"{key}: revealing pair of the element",
                        V.is_revealing(rp.pair) and V.make_element(rp.pair) == e))
        return out

    return Workload(cases, checks)


# ---------------------------------------------------------------------------
# clopen: treespace and apply_clopen


def random_address(tg, rng, depth):
    t = tg.root_type
    out = []
    for _ in range(depth):
        i = rng.randrange(tg.arity(t))
        out.append(i)
        t = tg.children[t][i]
    return tuple(out)


def build_union(tg, balls_a, balls_b):
    a = V.ClopenSet.from_balls(tg, balls_a)
    b = V.ClopenSet.from_balls(tg, balls_b)
    return a, b, a.union(b)


def clopen(seed, work):
    """Build half: many-ball sets on the wide tree and deep ball pairs.
    Query half: subset, intersection, membership, listing and images, on
    sets built before timing."""
    _binary, wide, _ray = trees()
    rng = random.Random(seed)
    pairs = [tuple([random_address(wide, rng, rng.randint(4, 14))
                    for _ in range(n)] for _ in range(2))
             for n in BALLS_PER_SET]
    deep_balls = {d: [(0,) * d, (0,) * (d - 1) + (1,)] for d in DEEP_DEPTHS}
    pts = sample_points(wide, rng, QUERY_POINTS)
    movers = [element_with_carets(wide, rng.randint(4, 8), rng)
              for _ in range(BALL_PAIRS)]
    built = [build_union(wide, *p) for p in pairs]
    deep_sets = {d: V.ClopenSet.from_balls(wide, b) for d, b in deep_balls.items()}
    deep_point = V.boundary_point(wide, (), (0,))
    cases = []
    for i, (ab, (a, b, u), g) in enumerate(zip(pairs, built, movers)):
        cases += [
            (f"build{i}", lambda st, ab=ab: build_union(wide, *ab)),
            (f"query{i}", lambda st, a=a, b=b, u=u, g=g: (
                (a.subset_of(u), b.subset_of(u), u.subset_of(a)),
                a.intersect(b),
                u.complement(),
                tuple(u.contains_point(x) for x in pts),
                u.ball_strs(),
                g.apply_clopen(a))),
        ]
    for d in DEEP_DEPTHS:
        cases += [
            (f"build.deep{d}", lambda st, d=d: V.ClopenSet.from_balls(
                wide, deep_balls[d])),
            (f"query.deep{d}", lambda st, s=deep_sets[d], g=movers[0]: (
                s.contains_point(deep_point), s.ball_strs(), g.apply_clopen(s))),
        ]

    def in_balls(x, balls):
        return any(x.address_prefix(len(w)) == w for w in balls)

    def checks(results):
        out = []
        for i, (ab, (a, b, u), g) in enumerate(zip(pairs, built, movers)):
            out.append((f"pair{i}: rebuilt sets equal", results[f"build{i}"] == (a, b, u)))
            sub, inter, comp, contains, strs, image = results[f"query{i}"]
            out.append((f"pair{i}: subset_of", sub[0] and sub[1]
                        and sub[2] == (u == a)))
            out.append((f"pair{i}: intersection below both",
                        inter.subset_of(a) and inter.subset_of(b)))
            out.append((f"pair{i}: complement", comp.union(u).is_all()
                        and comp.intersect(u).is_empty()))
            out.append((f"pair{i}: membership agrees with the ball lists",
                        contains == tuple(in_balls(x, ab[0] + ab[1]) for x in pts)))
            out.append((f"pair{i}: ball list round trip", V.ClopenSet.from_balls(
                wide, [V.parse_address(t) for t in strs]) == u))
            out.append((f"pair{i}: image pulls back",
                        g.inverse().apply_clopen(image) == a))
        for d in DEEP_DEPTHS:
            contains, strs, _image = results[f"query.deep{d}"]
            out.append((f"deep{d}: union is the parent ball",
                        strs == ["0" * (d - 1)]
                        and results[f"build.deep{d}"] == deep_sets[d]))
            out.append((f"deep{d}: contains (0)^inf", contains is True))
        return out

    return Workload(cases, checks)


# ---------------------------------------------------------------------------
# Headline probe: program-level metrics measured the same way in every run


def loglog_slope(ns, times):
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def headline(work):
    """verdict_s.V, cli_reports_s and the x0^n exponents, each the median of
    its repetitions in reference seconds, with checks on what they computed."""
    binary = trees()[0]
    sets = suite_sets(binary)
    x0 = sets["x0"].elements[0]
    invocations = cli_invocations(work, sets)
    clock = Clock()
    checks = []
    v_times = []
    for _ in range(PROBE_V_REPS):
        res, t = clock.time(V.dichotomy, sets["v"])
        v_times.append(t)
    checks.append(("V: ping-pong", res.verdict == "ping-pong"))
    checks += certificate_checks("V", res, sets["v"].elements)
    cli_times, outputs = [], []
    for _ in range(PROBE_CLI_REPS):
        runs, t = clock.time(lambda: [run_cli(a) for a in invocations])
        cli_times.append(t)
        outputs.append([(r.code, r.stdout) for r in runs])
    checks.append(("CLI reports byte-identical across repetitions",
                   all(o == outputs[0] for o in outputs)))
    series = {"power": {n: [] for n in PROBE_SERIES},
              "dynamics": {n: [] for n in PROBE_SERIES}}
    for _ in range(PROBE_SERIES_REPS):
        for n in PROBE_SERIES:
            t = perf_counter()
            g = x0.power(n)
            t_power = perf_counter() - t
            t = perf_counter()
            V.dynamics(g)
            t_dynamics = perf_counter() - t
            factor = clock.next_factor()
            series["power"][n].append(t_power * factor)
            series["dynamics"][n].append(t_dynamics * factor)
    medians = {k: {n: statistics.median(v) for n, v in s.items()}
               for k, s in series.items()}
    return {
        "metrics": {
            "verdict_s.V": statistics.median(v_times),
            "cli_reports_s": statistics.median(cli_times),
            "exponent.power": loglog_slope(PROBE_SERIES, medians["power"].values()),
            "exponent.dynamics": loglog_slope(PROBE_SERIES,
                                              medians["dynamics"].values()),
        },
        "series": medians,
        "speed_factor": statistics.median(clock.factors),
        "v_report": outputs[0][2][1].decode(),
        "checks": checks,
    }
