"""Pinned outputs: the golden CLI corpus and the kernel store, and how both are recorded.

`tests/data/cli_golden.json` holds (exit, stdout, stderr) for every argv of
the benchmark's CLI mix (`CLI_MIX` in `bench/cases.py`) and every edge argv
below, each in the default (json) and the text format; an argv that sets
`--format` itself is recorded once.  `test_cli_golden.py` replays it byte
for byte.  Paths inside `tests/data`, where the corpus and the `--table`
fixture `maty_breslau.csv` live, are written as `{DATA}` in argvs and outputs.

`tests/data/kernel_golden.json` maps the key of every call of the
benchmark's kernel grids (both workloads, both sizes) to the canonical text
of its result as the benchmark stores it (`stored(canon(result))`), and
`test_cli_golden.py` recomputes every key.

To re-record both (only when an output is meant to change):

    PYTHONPATH=src python tests/cli_golden.py

The recorder runs every kernel call's oracle check before it writes
anything.  It then prints, for each store, every entry that moved (its old
and new bytes) and the count of entries added and dropped.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from demoivre import cli

from cli_cases import load_bench

CASES = load_bench("cases")
CORPUS_PATH = Path(__file__).with_name("data") / "cli_golden.json"
KERNEL_PATH = CORPUS_PATH.with_name("kernel_golden.json")
DATA = "{DATA}"
DATA_DIR = str(CORPUS_PATH.parent)
COLUMNS = "80"  # argparse wraps usage and help text to the terminal width

SIMULATE = ["binom", "simulate", "--n", "100", "--c", "1", "--reps", "200", "--seed", "7"]
JOINT = ["--age-a", "50", "--age-b", "60", "--rate", "0.05"]
MATY_CSV = f"{DATA}/maty_breslau.csv"
HUGE = "1" + "0" * 400  # 10^400, past the double range

EDGE_INVOCATIONS = [
    # simulate sizes its own thread pool: --workers is no flag
    SIMULATE + ["--workers", "2"],
    SIMULATE + ["--seed", "0", "--p", "1/3"],
    # --p and --odds are echoed parsed
    ["num", "odds", "--p", "2/4"],
    ["num", "odds", "--p", "0.3"],
    ["num", "odds", "--p", "3/2"],
    ["binom", "exact", "--n", "100", "--c", "1", "--p", "2/4"],
    ["binom", "exact", "--n", "100", "--c", "1", "--p", "0.3"],
    ["binom", "sample-size", "--p", "0.3", "--c", "2/10", "--alpha", "0.1"],
    ["duration", "exact", "--b", "4", "--p", "0.30", "--n", "10"],
    ["num", "prob", "--odds", "02:3"],
    ["num", "prob", "--odds", "2"],
    ["num", "prob", "--odds", "a:b"],
    ["num", "prob", "--odds", "0:0"],
    ["num", "prob", "--odds", "2", "--bogus"],
    ["num", "prob", "--odds", "2", "--format", "xml"],
    # an unknown format is refused even when a later --format is known
    ["num", "prob", "--odds", "2", "--format", "xml", "--format", "text"],
    # --real
    ["series", "raise", "--real", "--coeffs", "0.5,1", "--power", "3", "--order", "4"],
    ["series", "revert", "--real", "--coeffs", "2,1", "--order", "4"],
    ["series", "compose", "--real", "--f", "0,1", "--g", "0.5,0.25", "--order", "4"],
    ["series", "revert", "--real", "--coeffs=nan,1", "--order", "3"],
    ["series", "raise", "--real", "--coeffs", "0.3,0.7,-1.1", "--power", "6", "--order", "20"],
    # coefficient, age and rate lists are echoed raw
    ["series", "raise", "--coeffs", "1,,1", "--power", "2", "--order", "4"],
    ["series", "raise", "--coeffs", ",", "--power", "2", "--order", "4"],
    ["series", "raise", "--coeffs", "x", "--power", "2", "--order", "4"],
    ["series", "revert", "--coeffs", " 1, 1 ", "--order", "3"],
    ["series", "compose", "--f", ",", "--g", "1", "--order", "3"],
    ["recur", "solve", "--coeffs", ",", "--init", "1"],
    ["recur", "eval", "--coeffs", "1,1", "--init", "x", "--n", "3"],
    ["annuity", "error-table", "--maty", "--ages", "20,,50", "--rates", "0.05,"],
    ["annuity", "error-table", "--maty", "--ages", "20,x", "--rates", "0.05"],
    ["annuity", "error-table", "--maty", "--ages", "20", "--rates", "0.05,x"],
    # life models, their -b variants and the survivor-tail note
    ["annuity", "joint", "--maty", "--law-b", "86"] + JOINT,
    ["annuity", "joint", "--law", "86", "--table-b", MATY_CSV] + JOINT,
    ["annuity", "joint", "--law", "86", "--maty-b"] + JOINT,
    ["annuity", "joint", "--maty", "--maty-b", "--law-b", "86"] + JOINT,
    ["annuity", "joint", "--maty", "--law", "86"] + JOINT,
    ["annuity", "table", "--law", "86"],
    ["annuity", "table", "--table", MATY_CSV],
    ["annuity", "table"],
    ["annuity", "survival", "--table", MATY_CSV, "--age", "50", "--t", "10"],
    ["annuity", "value", "--table", MATY_CSV, "--age", "50", "--rate", "0.05"],
    ["annuity", "joint", "--table", MATY_CSV] + JOINT,
    ["annuity", "error-table", "--table", MATY_CSV, "--ages", "20,50", "--rates", "0.05"],
    ["annuity", "value", "--table", f"{DATA}/no_such_table.csv", "--age", "50", "--rate", "0.05"],
    ["annuity", "value", "--age", "50", "--rate", "0.05"],
    ["annuity", "value", "--law", "86", "--age", "90", "--rate", "0.05"],
    ["annuity", "survival", "--maty", "--age", "90", "--t", "3"],
    ["annuity", "error-table", "--law", "86", "--ages", "50", "--rates", "0.05"],
    # zero-valued ints and floats are echoed
    ["num", "factorial", "--n", "0"],
    ["num", "binom", "--n", "0", "--k", "0"],
    ["series", "raise", "--coeffs", "1,1", "--power", "0", "--order", "3"],
    ["series", "multinomial", "--degree", "0", "--power", "0"],
    ["binom", "exact", "--n", "0", "--c", "0"],
    ["binom", "term", "--n", "100", "--l", "0"],
    ["binom", "limit", "--c", "0"],
    ["duration", "exact", "--b", "4", "--p", "0", "--n", "0"],
    ["recur", "eval", "--coeffs", "1,1", "--init", "0,1", "--n", "0"],
    ["recur", "sum", "--coeffs", "1,1", "--init", "0,1", "--upto", "0"],
    ["factor", "unity", "--n", "0", "--sign", "1"],
    ["factor", "power", "--theta", "0", "--n", "0"],
    ["annuity", "survival", "--law", "86", "--age", "50", "--t", "0"],
    ["annuity", "value", "--law", "86", "--age", "30", "--rate", "0"],
    ["conic", "curvature", "--a", "2", "--b", "1", "--theta", "0"],
    ["conic", "inverse-square", "--a", "2", "--b", "1", "--samples", "0"],
    ["games", "deck-odds", "--size", "0"],
    # other domain errors
    ["binom", "remark1", "--n", "3601"],
    ["binom", "limit", "--c=nan"],
    ["duration", "closed", "--b", "3", "--p", "0.5", "--n", "4"],
    ["series", "revert", "--coeffs", "0,1", "--order", "4"],
    ["factor", "power", "--theta=inf", "--n", "3"],
    ["conic", "force", "--a=nan", "--b", "1", "--theta", "0.5"],
    ["games", "tour", "--start", "z9"],
    ["games", "validate", "--squares", "a1 b3"],
    ["conic", "force", "--a", "1e308", "--b", "0.5", "--theta", "0.5"],
    ["binom", "term", "--n", "0", "--l", "0"],
    ["binom", "term", "--n", "10", "--l", "-1"],
    ["binom", "remark1", "--n", "0"],
    ["binom", "sample-size", "--p", "0", "--c", "1/10", "--alpha", "1/10"],
    ["binom", "sample-size", "--p", "1/2", "--c", "0", "--alpha", "1/10"],
    ["binom", "sample-size", "--p", "1/2", "--c", "1/10", "--alpha", "1"],
    ["binom", "simulate", "--n", "100", "--c", "1", "--reps", "0", "--seed", "1"],
    ["num", "binom", "--n", "-1", "--k", "0"],
    ["annuity", "value", "--law", "0", "--age", "0", "--rate", "0.05"],
    ["recur", "sum", "--coeffs", "1", "--init", "1", "--upto", "-1"],
    # an empty float band, a malformed tour, and integers printed past 4300 digits
    ["binom", "exact", "--n", "5000", "--c", "1e-9", "--p", "1/3"],
    ["games", "validate", "--squares", "a1,b3"],
    # every list flag refuses an empty field, --squares too
    ["games", "validate", "--squares", "a1,,a1"],
    ["games", "validate", "--squares", CASES.TOUR_A1.replace("b3,", "b3,,", 1)],
    ["series", "raise", "--coeffs=-1e4400", "--power", "1", "--order", "1"],
    ["games", "deck-odds", "--size", "2000"],
    # figures that underflow to 0 or a subnormal
    ["conic", "curvature", "--a", "1e-150", "--b", "1e-150", "--theta", "0.5"],
    ["conic", "focal-product", "--a", "1e-300", "--b", "1e-300", "--theta", "0.5"],
    ["conic", "focal-product", "--a", "1e-160", "--b", "1e-160", "--theta", "0.5"],
    # a tolerance past every float: every count is in the band at n = 1
    ["binom", "sample-size", "--p", "1/3", "--c", "1e400", "--alpha", "1/3"],
    # scans of 1501 and 2520 n
    ["binom", "sample-size", "--p", "1/2", "--c", "1/40", "--alpha", "1/20"],
    ["binom", "sample-size", "--p", "2/5", "--c", "1/40", "--alpha", "1/100"],
    # a large alpha stops the scan at n = 2, far before its predicted n, within the uncharged stretch
    ["binom", "sample-size", "--p", "1/2", "--c", "1/1000", "--alpha", "1/2"],
    # a closed form whose solved coefficient of 1.5^n should be 0: every term is 2
    ["recur", "eval", "--coeffs", "2.5,-1.5", "--init", "2,2", "--n", "100"],
    ["recur", "sum", "--coeffs", "2.5,-1.5", "--init", "2,2", "--upto", "100"],
    # more parts than the interpreter's recursion limit
    ["series", "multinomial", "--degree", "1000", "--power", "1000"],
    ["series", "raise", "--coeffs", "1", "--power", "1000", "--order", "1000"],
    # a power past the order: s^p starts at degree p, so 2^(10^12) is never formed
    ["series", "raise", "--coeffs", "1/2", "--power", "1000000000000", "--order", "3"],
    # a closed form whose product of weight differences underflows to 0
    ["duration", "closed", "--b", "1200", "--p", "0.3", "--n", "100"],
    ["duration", "closed", "--b", "100000000000000000000", "--p", "0.5", "--n", "10"],
    # a real root near 1, whose geometric sum cancels in root^(upto+1) - 1
    ["recur", "sum", "--coeffs", "1.000000001", "--init", "1", "--upto", "1000"],
    ["recur", "sum", "--coeffs", "1.000000001", "--init", "1", "--upto", "1000000"],
    ["recur", "sum", "--coeffs", "1.00000002", "--init", "1", "--upto", "10"],
    ["recur", "sum", "--coeffs", "1.000001", "--init", "1", "--upto", "3"],
    # integers past the double range or past sys.maxsize are refused by name
    ["binom", "term", "--n", HUGE, "--l", "0"],
    ["binom", "term", "--n", "100", "--l", HUGE],
    ["binom", "exact", "--n", HUGE, "--c", "1"],
    ["binom", "simulate", "--n", HUGE, "--c", "1", "--reps", "10", "--seed", "1"],
    ["binom", "simulate", "--n", "10000000000000000000", "--c", "1", "--reps", "10", "--seed", "1"],
    ["duration", "closed", "--b", "4", "--p", "0.5", "--n", HUGE],
    ["duration", "closed", "--b", HUGE, "--p", "0.5", "--n", "4"],
    ["factor", "unity", "--n", HUGE, "--sign", "1"],
    ["num", "factorial", "--n", HUGE],
    ["games", "deck-odds", "--size", HUGE],
    ["conic", "inverse-square", "--a", "2", "--b", "1", "--samples", HUGE],
    ["duration", "exact", "--b", "4", "--p", "0.5", "--n", HUGE],
    ["binom", "simulate", "--n", "100", "--c", "1", "--reps", "10000000000000000000000", "--seed", "1"],
    # work past the budget, refused before it starts
    ["binom", "sample-size", "--p", "1/2", "--c", "1/400", "--alpha", "1/20"],
    ["binom", "sample-size", "--p", "1/2", "--c", "1/1000000000", "--alpha", "1/100"],
    ["num", "factorial", "--n", "100000000000"],
    ["num", "binom", "--n", "10000000", "--k", "5000000"],
    ["num", "binom", "--n", "100000000", "--k", "50000000"],
    ["num", "binom", "--n", HUGE, "--k", "1" + "0" * 200],
    ["games", "deck-odds", "--size", "100000000000"],
    ["binom", "simulate", "--n", "100", "--c", "1", "--reps", "9223372036854775807", "--seed", "1"],
    ["duration", "exact", "--b", "4", "--p", "0.5", "--n", "9223372036854775807"],
    ["annuity", "value", "--law", HUGE, "--age", "0", "--rate", "0.05"],
    ["annuity", "joint", "--law", HUGE, "--age-a", "0", "--age-b", "3", "--rate", "0.05"],
    ["annuity", "value", "--law", "1000000", "--age", "0", "--rate", "0.05"],
    ["annuity", "value", "--law", "86", "--age", "-1000000", "--rate", "0.05"],
    ["annuity", "joint", "--law", "86", "--age-a", "-1000000", "--law-b", "86", "--age-b", "-1000000", "--rate", "0.05"],
    ["annuity", "error-table", "--maty", "--ages", "-1000000", "--rates", "0.05"],
    ["annuity", "value", "--law", "4000", "--age", "0", "--rate", "5e-324"],
    ["annuity", "joint", "--law", HUGE, "--age-a", "0", "--age-b", "3", "--rate", "0"],
    ["conic", "inverse-square", "--a", "2", "--b", "1", "--samples", "100000000000"],
    ["factor", "unity", "--n", "100000000000", "--sign", "1"],
    ["binom", "exact", "--n", "1000000000000000000000000", "--c", "1"],
    ["series", "revert", "--coeffs", "1,1", "--order", "100000"],
    ["series", "compose", "--f", "1,1", "--g", "1,1", "--order", "100000"],
    ["series", "raise", "--coeffs", "1,1", "--power", "2", "--order", "100000000"],
    ["series", "multinomial", "--degree", "400", "--power", "40"],
    # stakes far past what n games reach: the walk keeps only the reachable states
    ["duration", "exact", "--b", "4611686018427387904", "--p", "0.5", "--n", "4"],
    ["duration", "exact", "--b", "4000000000000000000000", "--p", "0.5", "--n", "4"],
    # usage errors and help
    [],
    ["nonsense"],
    ["num"],
    ["binom", "remark1"],
    ["num", "odds", "--p", "zebra"],
    ["num", "factorial", "--n", "1.5"],
    ["factor", "unity", "--n", "6", "--sign", "2"],
    ["conic", "force", "--a", "x", "--b", "1", "--theta", "0"],
    ["binom", "simulate", "--n", "100", "--c", "1", "--reps", "10"],
    ["--help"],
    ["annuity", "joint", "--help"],
    ["binom", "simulate", "-h"],
]


def from_argparse(argv, code) -> bool:
    """Whether the call's output is argparse's own usage, error or help text."""
    return code == 2 or "-h" in argv or "--help" in argv


def capture(argv):
    """(exit, stdout, stderr) of one call as a process sees them, argparse's own text included.

    `{DATA}` in argv stands for `tests/data`, and the directory is
    written back as `{DATA}` in the output.
    """
    real = [arg.replace(DATA, DATA_DIR) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code, text, error = cli.dispatch(real)
    return code, (out.getvalue() + text).replace(DATA_DIR, DATA), (err.getvalue() + error).replace(DATA_DIR, DATA)


def corpus_argvs():
    """Every argv of the CLI mix and the edge list, as given and in text format, each once."""
    argvs = {}
    for argv in [argv for variants in CASES.CLI_MIX for argv in variants] + EDGE_INVOCATIONS:
        for extra in ([],) if "--format" in argv else ([], ["--format", "text"]):
            argvs.setdefault(json.dumps(argv + extra), argv + extra)
    return list(argvs.values())


def grid_calls():
    """The calls of every kernel grid, both workloads and both sizes, one list per grid."""
    return [list(CASES.all_calls(build(small))) for build in CASES.KERNELS.values() for small in (True, False)]


def kernel_outputs():
    """Stored canonical text of every kernel grid call's result, by key; exits if an oracle objects."""
    outputs = {}
    for calls in grid_calls():
        results = {call.key: call.fn() for call in calls}  # in order: a grouped call reads the one before
        for call in calls:
            problem = call.check(results[call.key], results) if call.check else None
            if problem:
                raise SystemExit(f"oracle check failed, nothing recorded: {problem}")
            outputs[call.key] = CASES.stored(CASES.canon(results[call.key]))
    return outputs


def report(name, old, new):
    """Print each entry of new that moved from old, then the counts added and dropped."""
    for key in new:
        if key in old and new[key] != old[key]:
            print(f"{name} moved {key}: {old[key]!r} -> {new[key]!r}")
    print(f"{name}: added {len(new.keys() - old.keys())}, dropped {len(old.keys() - new.keys())}")


def by_argv(cases):
    return {json.dumps(case["argv"]): (case["exit"], case["stdout"], case["stderr"]) for case in cases}


def write(path, content):
    with open(path, "w") as handle:
        json.dump(content, handle, indent=1)
        handle.write("\n")


def record():
    kernels = kernel_outputs()
    os.environ["COLUMNS"] = COLUMNS
    cases = []
    for argv in corpus_argvs():
        code, out, err = capture(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    old_cases = json.loads(CORPUS_PATH.read_text())["cases"] if CORPUS_PATH.exists() else []
    report(CORPUS_PATH.name, by_argv(old_cases), by_argv(cases))
    old_kernels = json.loads(KERNEL_PATH.read_text()) if KERNEL_PATH.exists() else {}
    report(KERNEL_PATH.name, old_kernels, kernels)
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    write(CORPUS_PATH, {"python": "%d.%d" % sys.version_info[:2], "cases": cases})
    write(KERNEL_PATH, dict(sorted(kernels.items())))
    print(f"recorded {len(cases)} calls in {CORPUS_PATH} and {len(kernels)} results in {KERNEL_PATH}")


if __name__ == "__main__":
    record()
