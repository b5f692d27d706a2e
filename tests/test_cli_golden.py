"""The pinned outputs: the CLI's bytes against the golden corpus, the kernel grid against its
store, both stores' coverage of the benchmark, and the benchmark's phase split."""

import json
import sys

from demoivre import cli

from cli_cases import SAMPLE_INVOCATIONS, load_bench
from cli_golden import CASES, COLUMNS, CORPUS_PATH, KERNEL_PATH, capture, from_argparse, grid_calls, kernel_outputs

CORPUS = json.loads(CORPUS_PATH.read_text())
KERNELS = json.loads(KERNEL_PATH.read_text())


def test_every_call_matches_the_golden_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    # argparse's own wording changes between Python versions; the corpus pins that of its recorder
    same_python = CORPUS["python"] == "%d.%d" % sys.version_info[:2]
    mismatches = []
    for case in CORPUS["cases"]:
        code, out, err = capture(case["argv"])
        if from_argparse(case["argv"], code) and not same_python:
            got, want = code, case["exit"]
        else:
            got, want = (code, out, err), (case["exit"], case["stdout"], case["stderr"])
        if got != want:
            mismatches.append((case["argv"], want, got))
    assert not mismatches, mismatches[:3]


def test_golden_corpus_exercises_every_declared_flag():
    used = {}
    for case in CORPUS["cases"]:
        flags = used.setdefault(tuple(case["argv"][:2]), set())
        flags.update(arg.split("=")[0] for arg in case["argv"] if arg.startswith("--"))
    missing = [
        (" ".join(command.path), flag)
        for command in cli.COMMANDS
        for flag in ("--format", *("--" + dest.replace("_", "-") for dest in command.args))
        if flag not in used.get(command.path, ())
    ]
    assert not missing


def test_every_kernel_result_matches_the_kernel_store():
    moved = [(key, KERNELS.get(key), text) for key, text in kernel_outputs().items() if KERNELS.get(key) != text]
    assert not moved, moved[:3]


def test_stores_cover_the_benchmark_grid():
    grid = {call.key for calls in grid_calls() for call in calls}
    assert sorted(grid - KERNELS.keys()) == [], "grid keys with no recorded result"
    assert sorted(KERNELS.keys() - grid) == [], "recorded keys the grid no longer makes"
    recorded = {json.dumps(case["argv"]) for case in CORPUS["cases"]}
    unrecorded = [argv for variants in CASES.CLI_MIX for argv in variants if json.dumps(argv) not in recorded]
    assert unrecorded == [], "CLI mix argvs with no corpus entry"


def test_bench_phase_split_reaches_cli_internals():
    spans = load_bench("spans")
    for argv in SAMPLE_INVOCATIONS:
        for full in (argv, argv + ["--format", "text"]):
            tracer = spans.Tracer()
            assert spans.cli_phases(cli, full, tracer) == cli.dispatch(full), full
            assert [span[0] for span in tracer.spans] == [
                "cli.build_parser",
                "cli.parse",
                "cli.handler",
                "cli.render",
            ]
