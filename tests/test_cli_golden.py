"""The CLI's bytes against the golden corpus, its flag coverage, and the benchmark's phase split."""

import importlib.util
import json
import sys
from pathlib import Path

from demoivre import cli

from cli_cases import SAMPLE_INVOCATIONS
from cli_golden import COLUMNS, CORPUS_PATH, capture, from_argparse

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads(CORPUS_PATH.read_text())


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


def load_bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_phase_split_reaches_cli_internals():
    spans = load_bench_spans()
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
