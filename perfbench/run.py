"""vtrees benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (it imports ``src/vtrees``).  With
``--trace 0`` it prints every end-to-end metric of BENCHMARK.json; with
``--trace 1`` every per-layer metric, from one pass with spans installed
around the library's public functions (see ``tracing.py``).  Times are in
reference seconds (see ``speed.py``).  Human-readable lines come first; the
last line of stdout is the JSON result.  Scratch files (CLI inputs, span
dumps) go to ``.bench_build/perfbench``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from speed import Clock

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".bench_build") / "perfbench"
SETUP_REPS = 3
PROCESS_REPS = 3
P90_SAMPLES = 100  # so that at least 10 case times lie beyond the p90
CHILD_TIMEOUT = 120
SEGMENT_S = 1.0


class Pass(NamedTuple):
    seconds: float          # reference seconds
    case_seconds: list      # reference seconds, in case order
    results: dict
    errors: int
    wall: float


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("suite", "corpus", "deep", "clopen"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the workload's inputs, then exit")
    p.add_argument("--probe", action="store_true",
                   help="measure the headline metrics and print them as JSON")
    args = p.parse_args(argv)
    if not args.probe and args.workload is None:
        p.error("--workload is required")
    return args


def spawn(args):
    """Run a child in the checkout root, wait for it, return its stdout."""
    proc = subprocess.run(args, cwd=ROOT, capture_output=True,
                          timeout=CHILD_TIMEOUT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    if proc.returncode != 0:
        fail(f"child {args[1:]} exited {proc.returncode}: "
             f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return proc.stdout


def quantile(sorted_values, q):
    """The q-quantile by linear interpolation between order statistics."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_pass(workload, clock, tracer=None):
    """One pass over the cases; a case that raises is counted, not fatal.

    The pass is cut into segments of about ``SEGMENT_S`` wall seconds at
    case boundaries, with a calibration after each, so the speed factor
    follows the host's drift within a long pass."""
    state, results, times, errors = {}, {}, [], 0
    seconds = wall = 0.0
    first = 0  # index of the first case of the open segment
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        for i, (name, fn) in enumerate(workload.cases):
            if tracer is not None:
                tracer.case_starts.append(len(tracer.spans))
            # every case starts from the same collector state, so where
            # collections fall inside it does not depend on earlier cases
            gc.collect()
            t = perf_counter()
            try:
                results[name] = fn(state)
            except Exception as e:  # counted in failed by the caller
                results[name] = e
                errors += 1
            end = perf_counter()
            times.append(end - t)
            if end - t0 >= SEGMENT_S or i == len(workload.cases) - 1:
                factor = clock.next_factor()
                wall += sum(times[first:])
                seconds += sum(times[first:]) * factor
                times[first:] = [x * factor for x in times[first:]]
                first = i + 1
                t0 = perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(seconds, times, results, errors, wall)


def run_passes(workload, clock, seconds, min_samples=0):
    """Untraced passes for about ``seconds`` of wall time: no pass is
    started that the previous pass's time says would end past the budget,
    but passes go on until there are ``min_samples`` case times (and there
    is at least one)."""
    passes = []
    start = perf_counter()
    while (len(passes) * len(workload.cases) < max(min_samples, 1)
           or perf_counter() - start + passes[-1].wall <= seconds):
        passes.append(run_pass(workload, clock))
    return passes


def digest(lines):
    text = "\n".join(f"{k}={v}" for k, v in lines.items())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def print_result(failed, attempted, metrics, units):
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "vtrees" / "__init__.py").is_file():
        fail(f"no vtrees source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import workloads as W

    if args.setup_only:
        W.build(args.workload, args.seed, WORK)
        return 0
    if args.probe:
        print(json.dumps(W.headline(WORK)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = W.build(args.workload, args.seed, WORK)
    clock = Clock()
    if args.trace:
        return traced_run(args, spec, workload, clock, W)

    phases = {"start": perf_counter()}
    setup_args = [sys.executable, __file__, "--setup-only", "--workload",
                  args.workload, "--seed", str(args.seed)]
    setup = statistics.median(clock.time(spawn, setup_args)[1]
                              for _ in range(SETUP_REPS))
    phases["setup"] = perf_counter()
    passes = run_passes(workload, clock, args.seconds, P90_SAMPLES)
    phases["passes"] = perf_counter()
    attempted = sum(len(p.case_seconds) for p in passes)
    failed = sum(p.errors for p in passes)
    first = passes[0].results

    checks = workload.check(first)
    described = [{k: W.describe(v) for k, v in p.results.items()} for p in passes]
    for name, text in described[0].items():
        checks.append((f"{name}: same result in every pass",
                       all(d[name] == text for d in described)))
    phases["checks"] = perf_counter()

    probe = json.loads(spawn([sys.executable, __file__, "--probe"]))
    checks += [tuple(c) for c in probe["checks"]]
    phases["probe"] = perf_counter()
    cli_args = [sys.executable, "-m", "vtrees", "dichotomy", "--tree",
                str(WORK / "binary.json"), "--gens", str(WORK / "vgens.txt")]
    process_runs = [clock.time(spawn, cli_args) for _ in range(PROCESS_REPS)]
    checks.append(("fresh-process V report equals the in-process report",
                   all(out.decode() == probe["v_report"]
                       for out, _ in process_runs)))
    phases["cli processes"] = perf_counter()

    attempted += len(checks)
    failed += sum(1 for _, ok in checks if not ok)

    case_times = sorted(t for p in passes for t in p.case_seconds)
    run_s = statistics.median(p.seconds for p in passes)
    n_cases = len(workload.cases)
    metrics = {
        "setup_s": setup,
        "run_s": run_s,
        "case_s.p50": quantile(case_times, 0.5),
        "case_s.p90": quantile(case_times, 0.9),
        "cases_per_s": n_cases / run_s,
        "decided_ratio": sum(map(W.decided, first.values())) / n_cases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_process_s": statistics.median(t for _, t in process_runs),
        **probe["metrics"],
    }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"cases/pass {n_cases}  case samples {len(case_times)} "
          f"({len(case_times) - math.ceil(0.9 * len(case_times))} beyond p90)")
    print("phase wall seconds: " + "  ".join(
        f"{k} {t - prev:.2f}" for (k, t), prev in zip(
            list(phases.items())[1:], list(phases.values())[:-1])))
    print(f"speed factor (reference s per wall s): median "
          f"{statistics.median(clock.factors):.3f}, probe "
          f"{probe['speed_factor']:.3f}; median pass wall time "
          f"{statistics.median(p.wall for p in passes):.4f} s")
    print(f"verdict digest {digest(described[0])}")
    for name in units:
        print(f"  {name:<20} {metrics[name]:>14.6f} {units[name]}")
    print(f"  {'failed_ratio':<20} {failed / attempted:>14.6f} ratio "
          f"({failed} of {attempted} cases and checks)")
    for kind, series in probe["series"].items():
        print(f"  x0^n {kind:<8} " + "  ".join(
            f"n={n}: {t:.4f}s" for n, t in series.items()))
    if args.workload == "deep":
        deep_series(workload, passes, W)
    for name, ok in checks:
        if not ok:
            print(f"  FAILED CHECK: {name}")
    print_result(failed, attempted, metrics, units)
    return 0


def deep_series(workload, passes, W):
    """Per-n medians of the deep workload's own x0^n cases, up to n = 400,
    with the slope fitted over all of them."""
    names = [name for name, _ in workload.cases]
    for op in ("power", "dynamics"):
        idx = [names.index(f"x0^{n}.{op}") for n in W.X0_SERIES]
        meds = [statistics.median(p.case_seconds[i] for p in passes) for i in idx]
        print(f"  deep x0^n {op:<8} " + "  ".join(
            f"n={n}: {t:.4f}s" for n, t in zip(W.X0_SERIES, meds))
            + f"  slope {W.loglog_slope(W.X0_SERIES, meds):.3f}")


def traced_run(args, spec, workload, clock, W):
    from tracing import CLOSED_SEARCHES, SPAN_NAMES, Tracer

    untraced = [p.seconds for p in run_passes(workload, clock, args.seconds / 2)]
    tracer = Tracer()
    traced = run_pass(workload, clock, tracer)
    factor = traced.seconds / traced.wall
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    summary = {n: (c, s * factor, t * factor)
               for n, (c, s, t) in tracer.summary().items()}
    counts = tracer.counts
    checks = workload.check(traced.results)
    failed = traced.errors + sum(1 for _, ok in checks if not ok)
    attempted = len(traced.results) + len(checks)

    def ratio(num, den):
        return num / den if den else 0.0

    calls = {n: summary.get(n, (0, 0.0, 0.0))[0] for n in SPAN_NAMES}
    metrics = {}
    for n in SPAN_NAMES:
        c, self_s, total_s = summary.get(n, (0, 0.0, 0.0))
        metrics[f"{n}.calls"] = c
        metrics[f"{n}.self_s"] = self_s
        metrics[f"{n}.total_s"] = total_s
    metrics["element.compose.carets_out"] = counts["element.compose.carets_out"]
    metrics["revealing.bfs_fallbacks"] = counts["revealing.bfs_fallbacks"]
    metrics["revealing.rolling_ok_ratio"] = ratio(
        counts["revealing.rolling_ok"], calls["revealing.reveal.rolling"])
    for n in CLOSED_SEARCHES:
        metrics[f"{n}.closed_ratio"] = ratio(counts[f"{n}.closed"], calls[n])
    metrics["alternative.build_pingpong.found_ratio"] = ratio(
        counts["alternative.build_pingpong.found"],
        calls["alternative.build_pingpong"])
    metrics["cli.stdout_bytes"] = sum(
        len(r.stdout) for r in traced.results.values() if isinstance(r, W.CliRun))
    metrics["trace.overhead_ratio"] = traced.seconds / statistics.median(untraced)

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(units) != set(metrics):
        fail(f"per-layer metrics differ from BENCHMARK.json: "
             f"{sorted(set(units) ^ set(metrics))}")
    print(f"workload {args.workload}  seed {args.seed}  traced pass "
          f"{traced.seconds:.3f}s  untraced passes {len(untraced)} (median "
          f"{statistics.median(untraced):.3f}s)  spans {len(tracer.spans)}")
    print(f"verdict digest "
          f"{digest({k: W.describe(v) for k, v in traced.results.items()})}")
    for n in SPAN_NAMES:
        c, self_s, total_s = summary.get(n, (0, 0.0, 0.0))
        if c or total_s:
            print(f"  {n:<42} calls {c:>8}  self {self_s:>9.4f}s  total {total_s:>9.4f}s")
    for name in units:
        if not name.endswith((".calls", ".self_s", ".total_s")):
            print(f"  {name:<42} {metrics[name]}")
    print_tail(tracer, traced.case_seconds)
    for name, ok in checks:
        if not ok:
            print(f"  FAILED CHECK: {name}")
    print_result(failed, attempted, metrics, units)
    return 0


def print_tail(tracer, times):
    """Where the slowest tenth of the traced cases spent their time, as
    shares of the library time traced in those cases."""
    bounds = tracer.case_starts + [len(tracer.spans)]
    slow = sorted(range(len(times)), key=times.__getitem__)[-max(1, len(times) // 10):]
    shares, traced = {}, 0.0
    for i in slow:
        traced += sum(end - start for _n, start, end, parent
                      in tracer.spans[bounds[i]:bounds[i + 1]] if parent < 0)
        for name, (_c, _self, total) in tracer.summary(bounds[i], bounds[i + 1]).items():
            shares[name] = shares.get(name, 0.0) + total
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:8]
    print(f"  slowest {len(slow)} cases: {sum(times[i] for i in slow):.3f}s of "
          f"{sum(times):.3f}s; share of their traced time by function (total_s):")
    for name, t in top:
        print(f"    {name:<40} {t / (traced or 1.0):6.1%}")


if __name__ == "__main__":
    sys.exit(main())
