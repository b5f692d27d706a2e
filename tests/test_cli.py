import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import demoivre
from demoivre import binomlimit, cli
from demoivre.exactnum import WORK_BUDGET

from cli_cases import SAMPLE_INVOCATIONS, rebuild_argv
from cli_golden import HUGE


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return cli.dispatch(argv)


def run_fresh(args):
    """A new interpreter with this checkout's src/ first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, (argv, err)
    return json.loads(out)


def test_registry_covers_every_operation_exactly_once():
    # COMMANDS is the one list of operations: each op names a public library callable
    for command in cli.COMMANDS:
        module, name = command.op.split(".")
        assert not name.startswith("_") and callable(getattr(getattr(demoivre, module), name)), command.op
    for key in ("op", "path"):
        values = [getattr(command, key) for command in cli.COMMANDS]
        assert len(values) == len(set(values)), key


def test_spec_example_remark1():
    payload = run_json(["binom", "remark1", "--n", "3600", "--format", "json"])
    assert payload["result"] == "1/120"


def test_spec_example_duration_closed():
    payload = run_json(["duration", "closed", "--b", "2", "--p", "0.5", "--n", "4"])
    assert float(payload["result"]) == 0.25


def test_spec_example_error_table():
    payload = run_json(["annuity", "error-table", "--maty", "--ages", "50", "--rates", "0.05"])
    cell = float(payload["result"]["percent"][0][0])
    assert 2.5 <= cell <= 5.5


def test_every_subcommand_roundtrips_and_is_deterministic():
    exercised = set()
    for argv in SAMPLE_INVOCATIONS:
        full = argv + ["--format", "json"]
        code1, out1, _ = run(full)
        code2, out2, _ = run(full)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv  # byte determinism
        payload = json.loads(out1)
        assert set(payload) == {"op", "inputs", "result", "provenance"}
        replay = json.loads(run(rebuild_argv(payload))[1])
        assert replay["result"] == payload["result"], argv
        exercised.add(payload["op"])
    # games.validate_tour needs a tour string from the solver
    tour_payload = run_json(["games", "tour", "--start", "c2"])
    verdict = run_json(["games", "validate", "--squares", tour_payload["result"]])
    assert verdict["result"]["valid"] is True
    replay = json.loads(run(rebuild_argv(verdict))[1])
    assert replay["result"] == verdict["result"]
    exercised.add(verdict["op"])
    assert exercised == {command.op for command in cli.COMMANDS}


def test_text_format_stable():
    code1, out1, _ = run(["num", "factorial", "--n", "5", "--format", "text"])
    code2, out2, _ = run(["num", "factorial", "--n", "5", "--format", "text"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result: \"120\"" in out1


def test_usage_errors_exit_2(capsys):
    code, out, _ = run(["binom", "remark1"])  # missing --n
    assert code == 2
    assert out == ""
    code, _, _ = run(["nonsense"])
    assert code == 2
    code, _, _ = run(["num", "odds", "--p", "zebra"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, leaf, extra",
    [
        (["num", "prob", "--odds", "2", "--bogus"], "num prob", "--bogus"),
        (["binom", "simulate", "--n", "100", "--c", "1", "--reps", "200", "--seed", "7", "--workers", "2"],
         "binom simulate", "--workers 2"),
    ],
)
def test_an_unknown_flag_is_reported_with_its_leaf_usage(argv, leaf, extra, capsys):
    assert run(argv) == (2, "", "")
    err = capsys.readouterr().err
    assert err.startswith(f"usage: demoivre {leaf} [-h] [--format {{json,text}}]")
    assert err.endswith(f"demoivre {leaf}: error: unrecognized arguments: {extra}\n")


def test_domain_errors_exit_3():
    code, out, err = run(["binom", "remark1", "--n", "3601"])
    assert code == 3
    assert out == ""  # never a partial object
    assert "error" in err

    code, _, err = run(["duration", "closed", "--b", "3", "--p", "0.5", "--n", "4"])
    assert code == 3

    code, _, err = run(["annuity", "value", "--law", "86", "--age", "90", "--rate", "0.05"])
    assert code == 3

    code, _, err = run(["series", "revert", "--coeffs", "0,1", "--order", "4"])
    assert code == 3

    code, _, err = run(["annuity", "value", "--age", "50", "--rate", "0.05"])  # no model
    assert code == 3

    code, _, err = run(["annuity", "value", "--table", "/no/such/file.csv", "--age", "50", "--rate", "0.05"])
    assert code == 3


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["binom", "limit"], ["binom", "exact", "--n", "100"]])
def test_non_finite_band_multiplier_exits_3(command, c):
    code, out, err = run(command + [f"--c={c}"])  # "--c -inf" would parse as an option
    assert code == 3
    assert out == ""
    assert "band multiplier c must be finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag, message",
    [
        (["annuity", "value", "--maty", "--age", "50"], "rate", "interest rate i must be finite"),
        (["annuity", "joint", "--maty", "--age-a", "50", "--age-b", "40"], "rate", "interest rate i must be finite"),
        (["annuity", "error-table", "--maty", "--ages", "50"], "rates", "interest rate i must be finite"),
        (["conic", "force", "--b", "1", "--theta", "0.5"], "a", "semi-major axis a must be finite"),
        (["conic", "focal-product", "--a", "2", "--theta", "0.5"], "b", "semi-minor axis b must be finite"),
        (["factor", "power", "--n", "3"], "theta", "angle theta must be finite"),
        (["conic", "focal-product", "--a", "2", "--b", "1"], "theta", "angle theta must be finite"),
        (["conic", "curvature", "--a", "2", "--b", "1"], "theta", "angle theta must be finite"),
        (["conic", "force", "--a", "2", "--b", "1"], "theta", "angle theta must be finite"),
        (["recur", "solve", "--init", "1"], "coeffs", "coefficient b_1 must be finite"),
        (["recur", "eval", "--init", "1", "--n", "3"], "coeffs", "coefficient b_1 must be finite"),
        (["recur", "sum", "--coeffs", "1", "--upto", "3"], "init", "initial term a_0 must be finite"),
    ],
)
def test_non_finite_argument_exits_3(command, flag, message, value):
    code, out, err = run(command + [f"--{flag}={value}"])
    assert code == 3
    assert out == ""
    assert message in err


CONIC_LEAVES = {
    "focal-product": ["--theta", "0.5"],
    "curvature": ["--theta", "0.5"],
    "force": ["--theta", "0.5"],
    "inverse-square": ["--samples", "90"],
}
# each ellipse made some leaf print nan or inf, or exit 3 with a raw overflow
# or zero-division message, or (the last three) print 0 or a subnormal for a
# figure that geometry makes positive; the (leaf, a, b) calls below were
# normal doubles and stay so
FAR_ELLIPSES = [
    ("1e308", "0.5"), ("1e200", "0.5"), ("1e120", "1"), ("1", "1e-200"), ("1", "1e-320"),
    ("1e-150", "1e-150"), ("1e-160", "1e-160"), ("1e-300", "1e-300"),
]
FINITE_ON_FAR_ELLIPSES = {
    ("focal-product", "1e120", "1"),
    ("focal-product", "1", "1e-200"),
    ("focal-product", "1", "1e-320"),
    ("curvature", "1", "1e-200"),
    ("focal-product", "1e-150", "1e-150"),
}


@pytest.mark.parametrize("leaf", CONIC_LEAVES)
@pytest.mark.parametrize("a, b", FAR_ELLIPSES)
def test_conic_ops_print_finite_values_or_exit_3_naming_a_and_b(leaf, a, b):
    code, out, err = run(["conic", leaf, "--a", a, "--b", b] + CONIC_LEAVES[leaf])
    if (leaf, a, b) in FINITE_ON_FAR_ELLIPSES:
        assert code == 0
        result = json.loads(out)["result"]
        values = result.values() if isinstance(result, dict) else [result]
        assert all(sys.float_info.min <= float(v) <= sys.float_info.max for v in values)
    else:
        assert (code, out) == (3, "")
        assert f"a = {float(a)!r}, b = {float(b)!r}" in err


def test_sample_size_at_a_tolerance_past_every_float_is_one():
    assert run_json(["binom", "sample-size", "--p", "1/3", "--c", "1e400", "--alpha", "1/3"])["result"] == "1"


def test_power_with_n_beyond_float_range_exits_3_with_its_own_message():
    code, out, err = run(["factor", "power", "--theta", "1", "--n", str(10**310)])
    assert (code, out) == (3, "")
    assert err == "error: angle n*theta must be finite, got n of 1030 bits\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["series", "revert", "--coeffs=nan,1", "--order", "3"], "--coeffs has a field that is not a valid Fraction: 'nan'"),
        (["series", "revert", "--coeffs=1,-inf", "--order", "3"], "--coeffs has a field that is not a valid Fraction: '-inf'"),
        (["series", "revert", "--coeffs=1e-300,1e300", "--order", "4"], "result: coefficient of x^2 lies past the double range"),
        (["series", "raise", "--coeffs=nan,1", "--power", "2", "--order", "3"], "--coeffs has a field that is not a valid Fraction: 'nan'"),
        (["series", "compose", "--f=1,inf", "--g=1,1", "--order", "3"], "--f has a field that is not a valid Fraction: 'inf'"),
        (["series", "compose", "--f=1,1", "--g=nan", "--order", "3"], "--g has a field that is not a valid Fraction: 'nan'"),
    ],
)
def test_real_series_with_non_finite_coefficient_exits_3(argv, message):
    code, out, err = run(argv + ["--real"])
    assert code == 3
    assert out == ""
    assert message in err


def test_real_series_keeps_finite_results():
    record = run_json(["series", "revert", "--real", "--coeffs", "2,1", "--order", "4"])
    assert record["result"] == ["0.5", "-0.125", "0.0625", "-0.0390625"]


two_decimals = st.integers(-999, 999).map(lambda k: str(Decimal(k).scaleb(-2)))
decimal_list = st.lists(two_decimals, min_size=1, max_size=12).map(",".join)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(decimal_list, st.integers(1, 5)).map(lambda t: ["series", "raise", "--coeffs=" + t[0], "--power", str(t[1])]),
        decimal_list.map(lambda coeffs: ["series", "revert", "--coeffs=" + coeffs]),
        st.tuples(decimal_list, decimal_list).map(lambda t: ["series", "compose", "--f=" + t[0], "--g=" + t[1]]),
    ),
    st.integers(1, 12),
)
@example(["series", "raise", "--coeffs=0.3,0.7,-1.1", "--power", "6"], 20)
def test_real_series_print_the_exact_result_correctly_rounded(argv, order):
    # each --real coefficient is the nearest double to the Fraction the same call prints without --real
    argv = argv + ["--order", str(order)]
    exact_code, exact_out, exact_err = run(argv)
    code, out, err = run(argv + ["--real"])
    if exact_code:  # only a series that is not invertible
        not_invertible = (3, "", "error: series with zero linear coefficient is not invertible\n")
        assert (code, out, err) == (exact_code, exact_out, exact_err) == not_invertible
        return
    assert code == 0, err
    exact = json.loads(exact_out)["result"]
    assert json.loads(out)["result"] == [format(float(Fraction(f)), ".17g") for f in exact]


def test_limit_at_huge_c_prints_one():
    for c in ("5000", "10000"):
        assert run_json(["binom", "limit", "--c", c])["result"] == "1"


@pytest.mark.parametrize("argv, flag", [
    (["series", "raise", "--coeffs", "1,,1", "--power", "2", "--order", "4"], "--coeffs"),
    (["series", "compose", "--f", "0,1", "--g", "1, ,1", "--order", "4"], "--g"),
    (["recur", "eval", "--coeffs", "1,1", "--init", "0,1,", "--n", "3"], "--init"),
    (["annuity", "error-table", "--maty", "--ages", "20,,50", "--rates", "0.05"], "--ages"),
    (["annuity", "error-table", "--maty", "--ages", "20,50", "--rates", "0.05,"], "--rates"),
    (["games", "validate", "--squares", "a1,,a1"], "--squares"),
])
def test_empty_list_field_exits_3_naming_the_list(argv, flag):
    code, out, err = run(argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {flag} has an empty field")


@pytest.mark.parametrize("flags, message", [
    (["--ages", "20,x", "--rates", "0.05"], "--ages has a field that is not a valid int: 'x'"),
    (["--ages", "20", "--rates", "0.05,x"], "--rates has a field that is not a valid float: 'x'"),
])
def test_error_table_names_the_flag_and_field_it_cannot_read(flags, message):
    assert run(["annuity", "error-table", "--maty", *flags]) == (3, "", f"error: {message}\n")


def test_closed_duration_refuses_an_underflowing_weight_product():
    # b = 626 is the first even b at which prod(t_j - t_i) underflows to 0 for p = 0.1
    for b, p in (("626", "0.1"), ("1200", "0.3")):
        code, out, err = run(["duration", "closed", "--b", b, "--p", p, "--n", "100"])
        assert (code, out, err) == (3, "", f"error: closed form underflows at b = {b}, p = {p}; use duration exact\n")
    # the walk it names answers: no ruin is possible within 100 games of 1200 stakes
    walk = run_json(["duration", "exact", "--b", "1200", "--p", "0.3", "--n", "100"])["result"]
    assert float(walk) == pytest.approx(1.0, abs=1e-13)


def test_recur_eval_inside_the_initial_terms_returns_them():
    for n, term in enumerate(["0", "1"]):
        assert run_json(["recur", "eval", "--coeffs", "1,1", "--init", "0,1", "--n", str(n)])["result"] == term
    # from n = k on the value is the closed form's, with its rounding
    assert run_json(["recur", "eval", "--coeffs", "1,1", "--init", "0,1", "--n", "2"])["result"] == "0.99999999999999989"
    assert run(["recur", "eval", "--coeffs", "1,1", "--init", "0,1", "--n", "-1"])[0] == 3


def test_integers_past_the_str_digit_limit_are_printed():
    # str() of an int over 4300 digits raises on Python 3.11+; Decimal prints it in full
    n = math.comb(20000, 10000)
    assert run_json(["num", "binom", "--n", "20000", "--k", "10000"])["result"] == str(Decimal(n))
    assert cli.canonical(Fraction(1, -n)) == f"-1/{Decimal(n)}"
    assert run(["binom", "exact", "--n", "4096", "--c", "1", "--p", "0.123"])[0] == 0


def test_cached_parser_output_matches_fresh_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run(["binom", "remark1"])[0] == 2  # argparse error first
    assert run(["binom", "remark1", "--n", "3601"])[0] == 3  # then a domain error
    capsys.readouterr()
    for argv in SAMPLE_INVOCATIONS:
        assert run(argv) == run_fresh(["-m", "demoivre.cli", *argv]), argv


def test_cli_import_leaves_numpy_and_scipy_unloaded():
    code = "import sys, demoivre.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    assert run_fresh(["-c", code]) == (0, "[]\n", "")


def test_large_binomial_leaves_numpy_unloaded():
    # pure Python at any size: no numpy route above a work threshold
    code = (
        "import sys\n"
        "from demoivre import cli\n"
        "assert cli.dispatch(['num', 'binom', '--n', '20000', '--k', '10000'])[0] == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_fresh(["-c", code]) == (0, "False\n", "")


@pytest.mark.parametrize("argv, name", [
    (["binom", "term", "--n", HUGE, "--l", "0"], "n"),
    (["binom", "term", "--n", "100", "--l", HUGE], "l"),
    (["binom", "exact", "--n", HUGE, "--c", "1"], "n"),
    (["binom", "simulate", "--n", HUGE, "--c", "1", "--reps", "10", "--seed", "1"], "n"),
    (["binom", "simulate", "--n", "10000000000000000000", "--c", "1", "--reps", "10", "--seed", "1"], "n"),
    (["duration", "closed", "--b", "4", "--p", "0.5", "--n", HUGE], "n"),
    (["duration", "closed", "--b", HUGE, "--p", "0.5", "--n", "4"], "b"),
    # one past sys.maxsize, the most numpy's int64 takes
    (["binom", "simulate", "--n", "9223372036854775808", "--c", "1", "--reps", "10", "--seed", "1"], "n"),
    (["factor", "unity", "--n", HUGE, "--sign", "1"], "n"),
    (["num", "factorial", "--n", HUGE], "n"),
    (["games", "deck-odds", "--size", HUGE], "size"),
    (["conic", "inverse-square", "--a", "2", "--b", "1", "--samples", HUGE], "samples"),
    (["duration", "exact", "--b", "4", "--p", "0.5", "--n", HUGE], "n"),
    (["binom", "simulate", "--n", "100", "--c", "1", "--reps", "10000000000000000000000", "--seed", "1"], "reps"),
])
def test_integer_past_the_double_or_index_range_exits_3_naming_it(argv, name):
    code, out, err = run(argv)
    assert (code, out) == (3, ""), err
    # a range check names it after its rule, the work budget before it
    named = f" got {name} of " in err and err.startswith(f"error: {name} must ")
    assert named or err.startswith(f"error: {name} of "), err
    for raw in ("int too large", "index-sized", "C long", "factorial()", "ellipse a ="):
        assert raw not in err, err


@pytest.mark.parametrize("b", ["4000000000000000000000", "9223372036854775808"])
def test_duration_exact_stakes_past_what_n_games_reach_walk_as_b_n_plus_one(b):
    # 4 games reach 4 states each way: any larger b walks as b = 5, past sys.maxsize too
    walked = run_json(["duration", "exact", "--b", b, "--p", "0.5", "--n", "4"])
    assert walked["inputs"]["b"] == b
    assert walked["result"] == run_json(["duration", "exact", "--b", "5", "--p", "0.5", "--n", "4"])["result"]


def _refused(argv, name):
    """The value a refusal names: the flag's, or binom exact's float band width."""
    if name == "band width":
        flag = dict(zip(argv[2::2], argv[3::2]))
        lo, hi = binomlimit.band_bounds(binomlimit.TrialSpec(int(flag["--n"])), float(flag["--c"]))
        return hi - lo + 1
    return int(argv[argv.index("--" + name) + 1])


@pytest.mark.parametrize("argv, name, ceiling", [
    (["num", "factorial", "--n", "100000000000"], "n", "100000"),
    (["num", "factorial", "--n", "100001"], "n", "100000"),
    (["games", "deck-odds", "--size", "100000000000"], "size", "100000"),
    (["binom", "simulate", "--n", "100", "--c", "1", "--reps", "9223372036854775807", "--seed", "1"], "reps", "10000000"),
    (["binom", "simulate", "--n", "100", "--c", "1", "--reps", "10000001", "--seed", "1"], "reps", "10000000"),
    # the most games that fit at b = 4
    (["duration", "exact", "--b", "4", "--p", "0.5", "--n", "9223372036854775807"], "n", "3370786"),
    (["duration", "exact", "--b", "4", "--p", "0.5", "--n", "3370787"], "n", "3370786"),
    # an annuity walk names the ages it prices and its years, past the most its rate allows
    (["annuity", "value", "--law", "1000000", "--age", "0", "--rate", "0.05"], "0", "24182"),
    (["annuity", "value", "--law", "86", "--age", "-1000000", "--rate", "0.05"], "-1000000", "24182"),
    (["annuity", "joint", "--law", "86", "--age-a", "-1000000", "--law-b", "86", "--age-b", "-1000000",
      "--rate", "0.05"], "-1000000 and -1000000", "24182"),
    (["annuity", "error-table", "--maty", "--ages", "-1000000", "--rates", "0.05"], "-1000000", "24182"),
    (["annuity", "value", "--law", "4000", "--age", "0", "--rate", "5e-324"], "0", "1585"),
    # a law's 1329-bit entries, and the joint run's 2658-bit ones, count past the first 64 bits
    (["annuity", "value", "--law", HUGE, "--age", "0", "--rate", "0.05"], "0", "8733"),
    (["annuity", "joint", "--law", HUGE, "--age-a", "0", "--age-b", "3", "--rate", "0.05"], "0 and 3", "6314"),
    # refused before any entry is listed
    (["annuity", "joint", "--law", HUGE, "--age-a", "0", "--age-b", "3", "--rate", "0"], "0 and 3", "48224"),
    # a value past sys.maxsize is named by its bits
    (["num", "factorial", "--n", HUGE], "n", "100000"),
    (["games", "deck-odds", "--size", HUGE], "size", "100000"),
    (["binom", "simulate", "--n", "100", "--c", "1", "--reps", "10000000000000000000000", "--seed", "1"], "reps", "10000000"),
    (["duration", "exact", "--b", "4", "--p", "0.5", "--n", HUGE], "n", "3370786"),
    # leaves that the double range alone guarded ran on past any budget
    (["conic", "inverse-square", "--a", "2", "--b", "1", "--samples", "100000000000"], "samples", "4000000"),
    (["conic", "inverse-square", "--a", "2", "--b", "1", "--samples", "4000001"], "samples", "4000000"),
    (["conic", "inverse-square", "--a", "2", "--b", "1", "--samples", HUGE], "samples", "4000000"),
    (["factor", "unity", "--n", "100000000000", "--sign", "1"], "n", "5000000"),
    (["factor", "unity", "--n", "5000001", "--sign", "-1"], "n", "5000000"),
    (["binom", "exact", "--n", "1000000000000000000000000", "--c", "1"], "band width", "20000000"),
    (["binom", "exact", "--n", "400000000000000", "--c", "1"], "band width", "20000000"),
    # the sample-size scan is charged for the n the normal approximation predicts, 50000 at most for p = 1/2
    (["binom", "sample-size", "--p", "1/2", "--c", "1/400", "--alpha", "1/20"], "predicted n", "50000"),
    (["binom", "sample-size", "--p", "1/2", "--c", "1/1000000000", "--alpha", "1/100"], "predicted n", "50000"),
])
def test_work_past_its_ceiling_exits_3_before_it_starts(argv, name, ceiling):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, ""), err
    parameter = f"years (annuity price at age {name})" if argv[0] == "annuity" else name
    refused = re.fullmatch(rf"error: {re.escape(parameter)} (= (\d+)|of (\d+) bits) is past the work budget: "
                           rf"it costs (\d+|at least 2\^\d+) units, the budget is {WORK_BUDGET}\n", err)
    assert refused, err
    value = int(refused[2]) if refused[2] else 2 ** (int(refused[3]) - 1)
    assert value > int(ceiling)
    if argv[0] != "annuity" and name != "predicted n":  # the rest name what they derive
        named = _refused(argv, name)
        assert refused[1] == (f"= {named}" if named <= sys.maxsize else f"of {named.bit_length()} bits")


def test_simulate_negative_seed_exits_3():
    code, out, err = run(["binom", "simulate", "--n", "100", "--c", "1", "--reps", "10", "--seed", "-1"])
    assert (code, out, err) == (3, "", "error: seed must be non-negative, got -1\n")


@pytest.mark.parametrize(
    "argv, ages",
    [
        (["annuity", "value", "--maty", "--age", "12"], "12"),
        (["annuity", "joint", "--maty", "--age-a", "12", "--age-b", "12"], "12 and 12"),
        (["annuity", "error-table", "--maty", "--ages", "12"], "12"),
        (["annuity", "value", "--law", "86", "--age", "0"], "0"),
    ],
)
def test_annuity_price_past_the_double_range_exits_3_naming_the_age(argv, ages):
    # at i = -0.9999 the discount factor is ~10^4: the price was a raw
    # "integer division result too large for a float"
    flag = "--rates" if "error-table" in argv else "--rate"
    code, out, err = run(argv + [flag, "-0.9999"])
    assert (code, out, err) == (3, "", f"error: annuity price at age {ages} leaves the double range\n")


def test_malformed_table_file_is_domain_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("age,lx\n30,100\n31,200\n")
    code, out, err = run(["annuity", "value", "--table", str(bad), "--age", "30", "--rate", "0.05"])
    assert code == 3
    assert "line 3" in err


def test_simulate_requires_seed():
    code, _, _ = run(["binom", "simulate", "--n", "100", "--c", "1", "--reps", "10"])
    assert code == 2


def test_simulate_sizes_its_own_pool_and_has_no_workers_flag(capsys):
    code, out, _ = run(["binom", "simulate", "--n", "400", "--c", "1", "--reps", "2000", "--seed", "5",
                        "--workers", "4"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --workers 4" in capsys.readouterr().err
    # one chunk, or one CPU, runs without a pool: concurrent.futures is never imported
    code = (
        "import os, sys\n"
        "from demoivre import cli\n"
        "simulate = ['binom', 'simulate', '--n', '100', '--c', '1', '--seed', '1', '--reps']\n"
        "assert cli.dispatch(simulate + ['4096'])[0] == 0\n"
        "loaded = 'concurrent.futures' in sys.modules\n"
        "os.cpu_count = lambda: 1\n"
        "assert cli.dispatch(simulate + ['10000'])[0] == 0\n"
        "print(loaded, 'concurrent.futures' in sys.modules)\n"
    )
    assert run_fresh(["-c", code]) == (0, "False False\n", "")


def test_tail_extrapolation_flagged_in_maty_outputs():
    payload = run_json(["annuity", "value", "--maty", "--age", "80", "--rate", "0.05"])
    assert "extrapolated" in payload["provenance"]
    law_only = run_json(["annuity", "value", "--law", "86", "--age", "80", "--rate", "0.05"])
    assert "extrapolated" not in law_only["provenance"]


def test_limit_provenance_reports_printed_values():
    payload = run_json(["binom", "limit", "--c", "2"])
    assert "0.95428" in payload["provenance"]
    assert float(payload["result"]) == pytest.approx(0.954500, abs=1e-5)
