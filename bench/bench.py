"""Layered benchmark of demoivre: end-to-end and per-layer figures per workload.

    python3 bench/bench.py --workload cli_warm --seed 1 --seconds 30 --trace 0
    python3 bench/bench.py --workload all --seed 1 --seconds 30     # every workload
    python3 bench/bench.py --self-check     # every workload once, minimal size, outputs checked
    python3 bench/bench.py --record         # rewrite expected.json from this checkout's outputs
    python3 bench/bench.py --manifest       # rewrite BENCHMARK.json from the tables below

Run from the root of a checkout; the program is taken from its src/.
Each workload runs in worker processes started here, one at a time.  With
--trace 0 the last line of stdout is a JSON object of the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run,
in which passes alternate untraced and traced.  Set-up, passes and probes
all run closed loop with one client.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from cases import WORKLOADS  # noqa: E402  (this directory is sys.path[0])

RUN_SECONDS = 30
SETUPS = 5  # set-ups per run; setup_s is the median of the untraced ones
WORKER_GRACE_S = 150  # a worker may run this long past its measuring time
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it
PROBE_STARTS = 5
PROBE_IMPORTS = 3

WHY = {
    "cli_warm": "in-process cli.dispatch over all 33 subcommands: import paid once, so parser, parse, handler and render dominate",
    "exact_rational": "big-integer and Fraction kernels: exact band, sample-size scan, series reversion, annuity error table",
    "float_numeric": "float and numpy kernels: simulation, duration walk, float band, knight's tours, conics, recurrences",
}

# name, unit, bound: the share of the parent's median a metric may worsen by.
# setup_s: spawn of the workload's process to its first timed pass, median
# of the untraced set-ups.  pass_best_ms: one pass over the workload's case
# list (a CLI call per subcommand, or a call per kernel case), summed from
# each case's fastest untraced timing in the run.  On a shared 2-CPU VM the
# machine's speed flips between about 1x and 1.75x every few seconds, so a
# median tracks which speed a run happened to get (its spread over ten runs
# reached 47%); the fastest of many short timings tracks the program.
# peak_rss_mb: peak RSS of the worker before its first traced pass.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("pass_best_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.1),
]

# Per-layer metrics of the traced run.  LAYER_SPANS: metric -> span whose
# median duration over traced passes it reports.  LAYER_COUNTS: work
# counters computed from the inputs and results (cases.py), median over
# traced passes.
# PROBES: figures from probe processes.  Every layer also reports .calls,
# .self_s and .failed.
LAYER_SPANS = {
    "cli.build_parser_ms": "cli.build_parser",
    "cli.parse_ms": "cli.parse",
    "cli.handler_ms": "cli.handler",
    "cli.render_ms": "cli.render",
    "binomlimit.exact_band_ms": "binomlimit.exact_band",
    "binomlimit.sample_size_ms": "binomlimit.sample_size",
    "binomlimit.float_band_ms": "binomlimit.float_band",
    "binomlimit.simulate_ms": "binomlimit.simulate",
    "binomlimit.limit_ms": "binomlimit.limit",
    "series.revert_ms": "series.revert",
    "series.raise_ms": "series.raise",
    "series.compose_ms": "series.compose",
    "lifeannuity.error_table_ms": "lifeannuity.error_table",
    "lifeannuity.annuity_value_ms": "lifeannuity.annuity_value",
    "lifeannuity.joint_ms": "lifeannuity.joint",
    "recurrence.duration_walk_ms": "recurrence.duration_walk",
    "recurrence.duration_closed_ms": "recurrence.duration_closed",
    "recurrence.solve_ms": "recurrence.solve",
    "recurrence.power_ms": "recurrence.power",
    "games.find_tour_ms": "games.find_tour",
    "conics.inverse_square_ms": "conics.inverse_square",
    "exactnum.binomial_ms": "exactnum.binomial",
}
LAYER_COUNTS = {
    "cli.render_bytes": "bytes",
    "binomlimit.exact_band_terms": "count",
    "binomlimit.exact_band_den_bits": "bits",
    "binomlimit.sample_size_n_scanned": "count",
    "binomlimit.simulate_reps": "count",
    "series.multinomial_terms": "count",
    "lifeannuity.error_table_cells": "count",
    "recurrence.duration_walk_state_steps": "count",
}
PROBES = {
    "python.start_ms": "ms",
    "demoivre.import_ms": "ms",
    "demoivre.import_scipy_ms": "ms",
    "demoivre.import_numpy_ms": "ms",
    "demoivre.rss_mb": "MB",
}
LAYERS = ("python", "demoivre", "cli", "exactnum", "series", "binomlimit", "recurrence", "lifeannuity", "conics", "games")
OVERHEAD = {f"trace.{name}_delta": unit for name, unit, _ in END_TO_END}
# cli phase spans reach CLI internals; without them a call is one cli.dispatch span
CLI_INTERNAL = ("cli.build_parser_ms", "cli.parse_ms", "cli.handler_ms", "cli.render_ms")


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.failed": "count"})
    units.update(PROBES)
    units.update({name: "ms" for name in LAYER_SPANS})
    units["games.find_tour_max_ms"] = "ms"
    units.update(LAYER_COUNTS)
    units.update(OVERHEAD)
    return units


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ------------------------------------------------------------------ workers


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_worker(workload, seed, seconds, trace, mode):
    """Run one worker to its end: (seconds from spawn to `ready`, spawn time, report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--mode", mode]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - spawned
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) failed with exit {proc.returncode}")
    return ready, spawned, json.loads(rest.strip().splitlines()[-1])


def timed_children(argvs, repeat):
    """Run each argv `repeat` times: lists of (wall seconds, stdout, stderr)."""
    out = []
    for argv in argvs:
        for _ in range(repeat):
            start = time.perf_counter()
            try:
                done = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                raise BenchError(f"probe {argv[1:]} timed out") from None
            if done.returncode != 0:
                raise BenchError(f"probe {argv[1:]} failed: {done.stderr.strip()[-300:]}")
            out.append((time.perf_counter() - start, done.stdout, done.stderr))
    return out


def import_probe():
    """Interpreter start, and `import demoivre` split by `-X importtime`."""
    starts = timed_children([[sys.executable, "-c", "pass"]], PROBE_STARTS)
    code = "import demoivre, resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    imports = timed_children([[sys.executable, "-X", "importtime", "-c", code]], PROBE_IMPORTS)
    figures = {"python.start_ms": statistics.median(t for t, _, _ in starts) * 1000}
    parts = {"demoivre": [], "scipy": [], "numpy": []}
    for _, stdout, stderr in imports:
        tops = importtime_tops(stderr)
        for package in parts:
            parts[package].append(tops.get(package, 0) / 1000)
    figures["demoivre.import_ms"] = statistics.median(parts["demoivre"])
    figures["demoivre.import_scipy_ms"] = statistics.median(parts["scipy"])
    figures["demoivre.import_numpy_ms"] = statistics.median(parts["numpy"])
    figures["demoivre.rss_mb"] = statistics.median(int(stdout) for _, stdout, _ in imports) / 1024
    return figures


def importtime_tops(text) -> dict:
    """Cumulative microseconds per top-level package, summed over its outermost imports.

    `-X importtime` prints an import after the ones it caused, indented one
    level deeper, so reading the lines backwards meets each parent first.
    """
    lines = []
    for line in text.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            lines.append((len(match[2]), match[3].split(".")[0], int(match[1])))
    totals = {}
    ancestors = []  # (depth, package) of the imports enclosing the current line
    for depth, package, cumulative in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if all(outer != package for _, outer in ancestors):
            totals[package] = totals.get(package, 0) + cumulative
        ancestors.append((depth, package))
    return totals


# -------------------------------------------------------------- statistics


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def layer_of(name: str) -> str | None:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None


def span_tables(spans):
    """Self time of each span (its duration less its children's) and its root's name."""
    self_time = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent is not None:
            self_time[parent] -= end - start
    roots = []
    for name, start, end, parent in spans:
        roots.append(name if parent is None else roots[parent])
    return self_time, roots


# ------------------------------------------------------------------ a run


def best_pass(samples, traced):
    """Seconds of one pass, summed from each case's fastest timing among the (un)traced passes."""
    best = {}
    for was_traced, case, seconds in samples:
        if was_traced == traced:
            best[case] = min(seconds, best.get(case, seconds))
    return sum(best.values())


def run_workload(workload, seed, seconds, trace):
    """Set up SETUPS times (the last one starts the measuring worker), then measure.

    With tracing on, the last two set-ups are traced.
    """
    setups = []  # (traced, seconds, spawn time, report)
    plan = [0] * (SETUPS - 1) if not trace else [0] * (SETUPS - 2) + [1]
    for traced in plan:
        ready, spawned, report = spawn_worker(workload, seed, 0, traced, "setup")
        setups.append((traced, ready, spawned, report))
    ready, spawned, report = spawn_worker(workload, seed, seconds, trace, "run")
    setups.append((trace, ready, spawned, report))

    attempted = sum(r["attempted"] for *_, r in setups)
    failed = sum(r["failed"] for *_, r in setups)
    failures = [f for *_, r in setups for f in r["failures"]]
    passes = [t for traced, t in report["passes"] if not traced]
    calls = [t for traced, _, t in report["samples"] if not traced] if workload == "cli_warm" else []
    e2e = {
        "setup_s": median(t for traced, t, _, _ in setups if not traced),
        "pass_best_ms": best_pass(report["samples"], 0) * 1000,
        "peak_rss_mb": (report["rss_kb_untraced"] or report["rss_kb"]) / 1024,
    }
    extra = {
        "passes": len(passes),
        "pass_s": median(passes),
        "pass_s_p90": percentile(passes, 90) if len(passes) >= P90_MIN_SAMPLES else None,
        "calls": len(calls),
        "op_ms_p50": median(calls) * 1000 if calls else None,
        "op_ms_p90": percentile(calls, 90) * 1000 if len(calls) >= P90_MIN_SAMPLES else None,
        "error_rate": failed / attempted,
        "failures": failures,
    }
    result = {"attempted": attempted, "failed": failed, "e2e": e2e, "extra": extra}
    if trace:
        result["layers"] = layer_metrics(setups, report)
    return result


def layer_metrics(setups, report):
    """Per-layer figures from the traced set-ups and the traced passes of one run."""
    traced_setups = [(spawned, r) for traced, _, spawned, r in setups if traced]
    pass_spans = report["spans"]
    self_time, roots = span_tables(pass_spans)
    n_passes = sum(1 for traced, _ in report["passes"] if traced)
    values = dict.fromkeys(per_layer_units(), 0)

    def by_layer(spans, self_times):
        calls, busy = Counter(), Counter()
        for (name, *_), own in zip(spans, self_times):
            layer = layer_of(name)
            if layer:
                calls[layer] += 1
                busy[layer] += own
        return calls, busy

    # calls and self time per (one set-up + one pass): set-up spans are
    # averaged over the traced set-ups, pass spans over the traced passes
    setup_calls, setup_busy = Counter(), Counter()
    for spawned, r in traced_setups:
        own, setup_roots = span_tables(r["spans"])
        in_setup = [i for i, root in enumerate(setup_roots) if root == "bench.setup"]
        spans = [["python.start", spawned, r["t_start"], None]] + [r["spans"][i] for i in in_setup]
        calls, busy = by_layer(spans, [r["t_start"] - spawned] + [own[i] for i in in_setup])
        setup_calls.update(calls)
        setup_busy.update(busy)
    in_passes = [i for i, root in enumerate(roots) if root == "pass"]
    pass_calls, pass_busy = by_layer([pass_spans[i] for i in in_passes], [self_time[i] for i in in_passes])
    for layer in LAYERS:
        values[f"{layer}.calls"] = setup_calls[layer] / len(traced_setups) + pass_calls[layer] / n_passes
        values[f"{layer}.self_s"] = setup_busy[layer] / len(traced_setups) + pass_busy[layer] / n_passes

    durations = {}
    for i in in_passes:
        name, start, end, _ = pass_spans[i]
        durations.setdefault(name, []).append(end - start)
    for metric, span in LAYER_SPANS.items():
        values[metric] = (median(durations.get(span, [])) or 0.0) * 1000
    values["games.find_tour_max_ms"] = max(durations.get("games.find_tour", [0.0])) * 1000
    if "cli.dispatch" in durations:
        for metric in CLI_INTERNAL:
            values[metric] = None  # unavailable: the CLI's internals are gone
    for metric in LAYER_COUNTS:
        values[metric] = median(c[metric] for c in report["counts"] if metric in c) or 0
    for *_, r in setups:
        for layer, count in r["layer_failed"].items():
            values[f"{layer}.failed"] += count
    values.update(import_probe())

    setup_u = median(t for tr, t, _, _ in setups if not tr)
    setup_t = median(t for tr, t, _, _ in setups if tr)
    values["trace.setup_s_delta"] = setup_t - setup_u
    values["trace.pass_best_ms_delta"] = (best_pass(report["samples"], 1) - best_pass(report["samples"], 0)) * 1000
    values["trace.peak_rss_mb_delta"] = (report["rss_kb"] - report["rss_kb_untraced"]) / 1024
    return values


# ----------------------------------------------------------------- report


def machine_facts(workload, seed, seconds, trace) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def p90_line(name, unit, plural, value, n):
    if value is None:
        return f"  {name:13s} n/a  (needs {P90_MIN_SAMPLES} {plural}, have {n})"
    return f"  {name:13s} {value:.4f} {unit}  (n={n})"


def describe(workload, result, trace):
    e2e, extra = result["e2e"], result["extra"]
    lines = [f"{workload}: {extra['passes']} untraced passes, {result['attempted']} checked calls"]
    lines.append(f"  setup_s       {e2e['setup_s']:.4f} s  (median of {SETUPS - 2 * trace} untraced set-ups)")
    lines.append(f"  pass_best_ms  {e2e['pass_best_ms']:.3f} ms  (each case's fastest of {extra['passes']} passes)")
    lines.append(f"  pass_s        {extra['pass_s']:.4f} s  (median, n={extra['passes']})")
    lines.append(p90_line("pass_s_p90", "s", "passes", extra["pass_s_p90"], extra["passes"]))
    if extra["calls"]:
        lines.append(f"  op_ms_p50     {extra['op_ms_p50']:.4f} ms  (one CLI call, n={extra['calls']})")
        lines.append(p90_line("op_ms_p90", "ms", "calls", extra["op_ms_p90"], extra["calls"]))
    lines.append(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB")
    lines.append(f"  error_rate    {extra['error_rate']:.6g}  ({result['failed']} of {result['attempted']} failed)")
    lines.extend(f"  failure: {f}" for f in extra["failures"])
    if trace:
        units = per_layer_units()
        for name, value in result["layers"].items():
            shown = "unavailable" if value is None else f"{value:.6g}"
            lines.append(f"  {name:40s} {shown} {units[name]}")
    return lines


def metrics_json(result, trace) -> dict:
    if trace:
        units = per_layer_units()
        return {name: {"value": value, "unit": units[name]} for name, value in result["layers"].items()}
    return {name: {"value": result["e2e"][name], "unit": unit} for name, unit, _ in END_TO_END}


def write_manifest():
    manifest = {
        "command": ["python3", "bench/bench.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": "lower", "bound": bound}
                       for name, unit, bound in END_TO_END],
        # less time, memory, work and failure in a layer is better
        "per_layer": [{"name": name, "unit": unit, "better": "lower"} for name, unit in per_layer_units().items()],
    }
    with open(ROOT / "BENCHMARK.json", "w") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def check_checkout():
    if not (SRC / "demoivre" / "__init__.py").is_file():
        raise BenchError(f"no demoivre package under {SRC}: run from the root of a demoivre checkout")
    if not (HERE / "expected.json").is_file():
        raise BenchError("bench/expected.json is missing: run with --record first")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-check", action="store_true", help="every workload once at minimal size, no timing")
    mode.add_argument("--record", action="store_true", help="rewrite expected.json from this checkout")
    mode.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.manifest:
        write_manifest()
        return 0
    try:
        if args.record:
            if not (SRC / "demoivre" / "__init__.py").is_file():
                raise BenchError(f"no demoivre package under {SRC}")
            subprocess.run([sys.executable, str(HERE / "worker.py"), "--mode", "record"],
                           cwd=ROOT, env=worker_env(), check=True)
            return 0
        check_checkout()
        if args.self_check:
            return self_check()
        return measure(args)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def self_check():
    bad = 0
    for workload in WORKLOADS:
        _, _, report = spawn_worker(workload, 0, 0, 0, "check")
        bad += report["failed"]
        print(f"{workload}: {report['attempted']} calls checked, {report['failed']} failed")
        for failure in report["failures"]:
            print(f"  failure: {failure}")
    print("self-check " + ("passed" if bad == 0 else "FAILED"))
    return 0 if bad == 0 else 1


def measure(args):
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print("facts " + json.dumps(machine_facts(args.workload, args.seed, args.seconds, args.trace)))
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
        print("\n".join(describe(workload, results[workload], args.trace)), flush=True)
    if len(workloads) == 1:
        metrics = metrics_json(results[workloads[0]], args.trace)
    else:
        metrics = {f"{w}.{name}": value for w, r in results.items() for name, value in metrics_json(r, args.trace).items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
