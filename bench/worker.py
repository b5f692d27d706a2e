"""One workload's process: set up, then run timed passes until the time is up.

Started by bench.py with PYTHONPATH pointing at this checkout's src/:

    python bench/worker.py --workload W --seed S --seconds T --trace 0|1 [--mode M]

Modes: `run` (set up, then the timed loop), `setup` (set up and stop),
`check` (every variant of the minimal-size grid once, outputs checked, no
timing) and `record` (write expected.json from this commit's outputs).
Prints `ready` when set-up is done, then one JSON line of raw figures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import cases  # noqa: E402  (this directory is sys.path[0])
from spans import Tracer, cli_phases  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAX_FAILURES_SHOWN = 10


def import_demoivre(tracer):
    with tracer.span("demoivre.import"):
        import demoivre
        from demoivre import cli
    where = Path(demoivre.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise SystemExit(f"demoivre was imported from {where}, not from {SRC}")
    return cli


def merge_counts(total: dict, more: dict):
    for name, value in more.items():
        # bit sizes are maxima over the pass; every other counter adds up
        total[name] = max(total.get(name, 0), value) if name.endswith("_bits") else total.get(name, 0) + value


class Run:
    """Figures of one worker: timings, failures, spans and work counts."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.tracer = Tracer(enabled=bool(trace))
        self.expected = cases.load_expected()
        self.passes = []  # [traced, seconds] per timed pass
        self.samples = []  # [traced, case index, seconds] per timed case of a pass
        self.attempted = 0
        self.failures = []
        self.layer_failed = Counter()
        self.counts = []  # work counters of each traced pass
        self.rss_kb_untraced = None
        self.cli = None
        self.kernels = None

    def fail(self, layer, message):
        self.layer_failed[layer] += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(message)

    # ----------------------------------------------------------- set-up

    def setup(self):
        with self.tracer.span("bench.setup"):
            self.cli = import_demoivre(self.tracer)
            with self.tracer.span("bench.inputs"):
                if self.workload in cases.KERNELS:
                    build = cases.KERNELS[self.workload]
                    self.kernels = {"small": build(True), "full": build(False)}
            # warm-up: caches fill and lazy set-up finishes before timing
            with self.tracer.span("bench.warmup"):
                if self.workload == "cli_warm":
                    self.cli_pass(cases.cli_pass(self.rng), traced=False, timed=False)
                else:
                    self.kernel_pass(cases.kernel_pass(self.kernels["small"], self.rng), traced=False, timed=False)

    # -------------------------------------------------------------- passes

    def warm_call(self, argv, traced):
        """One in-process CLI call: `cli.dispatch`, or phase by phase when traced."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                status, text, err = cli_phases(self.cli, argv, self.tracer)
            else:
                status, text, err = self.cli.dispatch(argv)
        except Exception as exc:  # a failed call is counted, and the run goes on
            self.fail("cli", f"{argv}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if status != 0 or err:
            self.fail("cli", f"{argv}: exit {status}, stderr {err.strip()[:200]!r}")
        else:
            problem = cases.compare(self.expected, cases.cli_key(argv), text)
            if problem:
                self.fail("cli", problem)
            if traced:
                self.counts.append({"cli.render_bytes": len(text.encode())})
        return elapsed

    def cli_pass(self, items, traced, timed=True):
        """One call per subcommand; each call is timed on its own."""
        start = time.perf_counter()
        for case, argv in items:
            elapsed = self.warm_call(argv, traced)
            if timed:
                self.samples.append([int(traced), case, elapsed])
        return time.perf_counter() - start

    def kernel_pass(self, items, traced, timed=True):
        """One pass over a kernel case list; each case is timed on its own, checked after.

        When traced, each call is its own span.
        """
        results, errors = {}, {}
        span = self.tracer.span if traced else None
        start = time.perf_counter()
        for case, calls in items:
            case_start = time.perf_counter()
            for call in calls:
                try:
                    if span:
                        with span(call.span):
                            results[call.key] = call.fn()
                    else:
                        results[call.key] = call.fn()
                except Exception as exc:  # a failed call is counted, and the pass goes on
                    errors[call.key] = f"{type(exc).__name__}: {exc}"
            if timed:
                self.samples.append([int(traced), case, time.perf_counter() - case_start])
        elapsed = time.perf_counter() - start
        counts = {}
        for call in (call for _, calls in items for call in calls):
            self.attempted += 1
            if call.key in errors:
                self.fail(call.layer, f"{call.key}: {errors[call.key]}")
                continue
            result = results[call.key]
            problem = cases.compare(self.expected, call.key, cases.canon(result))
            if problem is None and call.check:
                problem = call.check(result, results)
            if problem:
                self.fail(call.layer, problem)
            if traced and call.counts:
                merge_counts(counts, call.counts(result))
        if traced:
            self.counts.append(counts)
        return elapsed

    def one_pass(self, traced):
        if self.workload == "cli_warm":
            return self.cli_pass(cases.cli_pass(self.rng), traced)
        return self.kernel_pass(cases.kernel_pass(self.kernels["full"], self.rng), traced)

    def timed_loop(self, seconds):
        """Closed loop, one client: the next pass starts when the last one ends.

        With tracing on, passes alternate untraced and traced, so the two
        halves share the machine's state and their difference is the
        tracing overhead.
        """
        least = 2 if self.tracer.enabled else 1
        deadline = time.perf_counter() + seconds
        index = 0
        while index < least or time.perf_counter() < deadline:
            traced = self.tracer.enabled and index % 2 == 1
            if traced and self.rss_kb_untraced is None:
                self.rss_kb_untraced = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with self.tracer.span("pass") if traced else nullcontext():
                self.passes.append([int(traced), self.one_pass(traced)])
            index += 1

    def check_all(self):
        """Every variant of the minimal-size grid once."""
        if self.workload == "cli_warm":
            items = [(case, argv) for case, variants in enumerate(cases.CLI_MIX) for argv in variants]
            self.cli_pass(items, traced=False, timed=False)
        else:
            self.kernel_pass([(0, list(cases.all_calls(self.kernels["small"])))], traced=False, timed=False)

    def report(self):
        return {
            "t_start": T_START,
            "passes": self.passes,
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": sum(self.layer_failed.values()),
            "failures": self.failures,
            "layer_failed": dict(self.layer_failed),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "rss_kb_untraced": self.rss_kb_untraced,
            "counts": self.counts,
            "spans": self.tracer.spans,
        }


def record():
    """Write expected.json: canonical outputs of every grid point at this commit."""
    import demoivre.cli as cli

    expected = {}
    for build in cases.KERNELS.values():
        for small in (True, False):
            calls = list(cases.all_calls(build(small)))
            results = {}
            for call in calls:
                results[call.key] = call.fn()
            for call in calls:
                problem = call.check(results[call.key], results) if call.check else None
                if problem:
                    raise SystemExit(f"oracle check failed, nothing recorded: {problem}")
                expected[call.key] = cases.stored(cases.canon(results[call.key]))
    for variants in cases.CLI_MIX:
        for argv in variants:
            status, text, err = cli.dispatch(argv)
            if status != 0 or err:
                raise SystemExit(f"{argv} exits {status}: {err}")
            expected[cases.cli_key(argv)] = cases.stored(text)
    with open(cases.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(expected)} outputs in {cases.EXPECTED_PATH}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup", "check", "record"), default="run")
    args = parser.parse_args()
    if args.mode == "record":
        record()
        return
    run = Run(args.workload, args.seed, args.trace)
    run.setup()
    print("ready", flush=True)
    if args.mode == "run":
        run.timed_loop(args.seconds)
    elif args.mode == "check":
        run.check_all()
    print(json.dumps(run.report()), flush=True)


if __name__ == "__main__":
    main()
