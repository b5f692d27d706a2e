"""Command-line front end: one subcommand per library operation.

Every invocation prints a single JSON object {op, inputs, result,
provenance} (or a text rendering of the same fields).  Reals are printed
with 17 significant digits, integers and rationals as exact strings, so
identical argv always produces byte-identical output.  Exit codes:
0 success, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from . import binomlimit, conics, exactnum, games, lifeannuity, recurrence, series
from .exactnum import Odds

TAIL_NOTE = "; survivor tail past age {} extrapolated"  # the table's last observed age


def _decimal_str(n: int) -> str:
    """str(n), also past Python's limit on the digits of an int-to-str conversion.

    Since 3.11 str() refuses ints of more than 4300 digits by default (C(20000,
    10000) has 6019).  Such an int goes through decimal, whose libmpdec
    multiplies huge numbers in subquadratic time, as CPython 3.12's _pylong
    does: D(n) = D(hi) * 2^k + D(lo) over the binary halves of n, with each
    D(2^k) formed once per call.  Splitting at powers of ten with int
    division was quadratic: 100000! printed in 2.3 s, now in 0.18 s.
    """
    try:
        return str(n)
    except ValueError:
        import decimal

        powers = {}

        def power_of_two(k):
            if k not in powers:
                half = k >> 1
                powers[k] = decimal.Decimal(2) ** k if k <= 128 else power_of_two(half) * power_of_two(k - half)
            return powers[k]

        def digits(part, bits):
            if bits <= 128:
                return decimal.Decimal(part)
            k = bits >> 1
            hi = part >> k
            return digits(hi, bits - k) * power_of_two(k) + digits(part - (hi << k), k)

        with decimal.localcontext() as exact:
            exact.prec, exact.Emax, exact.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
            exact.traps[decimal.Inexact] = True
            return ("-" if n < 0 else "") + str(digits(abs(n), abs(n).bit_length()))


def canonical(value):
    """Render result values deterministically: exact strings, 17g reals."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return _decimal_str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return f"{_decimal_str(value.numerator)}/{_decimal_str(value.denominator)}"
    if isinstance(value, Odds):
        return f"{_decimal_str(value.favor)}:{_decimal_str(value.against)}"
    if isinstance(value, complex):
        return [format(value.real, ".17g"), format(value.imag, ".17g")]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot render {type(value).__name__}")


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def list_fields(text: str, flag: str, kind=str) -> list:
    """The stripped comma-separated fields of a list flag, each taken by kind.

    Every list flag is read here.  An empty field, or one that kind refuses
    (Fraction('1/0') too), is a domain error that names the flag.
    """
    fields = [field.strip() for field in text.split(",")]
    if not all(fields):
        raise ValueError(f"{flag} has an empty field: {text!r}")
    values = []
    for field in fields:
        try:
            values.append(kind(field))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{flag} has a field that is not a valid {kind.__name__}: {field!r}") from None
    return values


def parse_odds(text: str):
    """Odds from 'favor:against', or the ValueError that a malformed pair is.

    argparse reports an exception raised here as a usage error (exit 2) and
    stops parsing, so the failure is returned and raised by the call instead:
    a bad pair exits 3, and any usage error on the same line still exits 2.
    """
    try:
        favor, against = text.split(":")
        return Odds(int(favor), int(against))
    except (ValueError, TypeError) as exc:
        return ValueError(f"bad odds {text!r}: {exc}")


def _parsed(value):
    if isinstance(value, ValueError):
        raise value
    return value


def _series(args, flag="coeffs"):
    return series.PowerSeries(tuple(list_fields(getattr(args, flag), "--" + flag, Fraction)))


def _coefficients(ps, real):
    """The exact coefficients, or with --real each one's nearest double (float() rounds correctly)."""
    if not real:
        return ps.coefficients
    values = []
    for degree, value in enumerate(ps.coefficients, start=1):
        try:
            values.append(float(value))
        except OverflowError:
            raise ValueError(f"result: coefficient of x^{degree} lies past the double range") from None
    return values


def _recurrence(args):
    coeffs = list_fields(args.coeffs, "--coeffs", float)
    init = list_fields(args.init, "--init", float)
    return recurrence.Recurrence(tuple(coeffs), tuple(init))


def _term(args):
    """a_n from the closed form; for n inside the initial terms, the stated term itself.

    The closed form is solved and evaluated at every n, so a recurrence it
    cannot take, or a negative n, is a domain error inside the initial terms too.
    """
    rec = _recurrence(args)
    value = recurrence.eval_closed_form(recurrence.solve_recurrence(rec), args.n)
    return rec.initial_terms[args.n] if args.n < rec.order else value


def _ellipse(args):
    return conics.Ellipse(args.a, args.b)


def _model(args, suffix=""):
    maty, law, table = (getattr(args, flag + suffix) for flag in ("maty", "law", "table"))
    if maty + (law is not None) + (table is not None) != 1:
        raise ValueError("choose exactly one of --maty / --law OMEGA / --table FILE" + (" (-b variant)" if suffix else ""))
    if maty:
        return lifeannuity.reconstruct_maty_table()
    if law is not None:
        return lifeannuity.DeMoivreLaw(law)
    try:
        return lifeannuity.load_table(table)
    except OSError as exc:
        raise ValueError(f"cannot read table {table!r}: {exc}") from None


def _life_table(args, message):
    model = _model(args)
    if not isinstance(model, lifeannuity.LifeTable):
        raise ValueError(message)
    return model


class Noted(NamedTuple):
    """A call's value with a suffix for its provenance."""

    value: object
    suffix: str


def _noted(value, *models):
    """value, noted when a model's survivor tail is extrapolated."""
    for model in models:
        if isinstance(model, lifeannuity.LifeTable) and model.extrapolated_from is not None:
            return Noted(value, TAIL_NOTE.format(model.extrapolated_from))
    return Noted(value, "")


def _survival(args):
    model = _model(args)
    return _noted(lifeannuity.survival_probability(model, args.age, args.t), model)


def _annuity(args):
    model = _model(args)
    return _noted(lifeannuity.annuity_value(model, args.age, lifeannuity.RateSpec(args.rate)), model)


def _joint(args):
    model_a = _model(args)
    has_b = args.maty_b or args.law_b is not None or args.table_b is not None
    model_b = _model(args, "_b") if has_b else model_a
    value = lifeannuity.joint_annuity_value(model_a, args.age_a, model_b, args.age_b, lifeannuity.RateSpec(args.rate))
    return _noted(value, model_a, model_b)


def _error_table(args):
    model = _life_table(args, "error table compares the law against a table; use --maty or --table")
    ages = list_fields(args.ages, "--ages", int)
    rates = list_fields(args.rates, "--rates", float)
    grid = lifeannuity.approximation_error_table(model, ages, rates)
    return _noted({"ages": ages, "rates": rates, "percent": grid}, model)


def _table(args):
    table = _life_table(args, "annuity table needs --maty or --table FILE")
    return {"start_age": table.start_age, "rows": list(table.rows())}


def _unity(args):
    factors = recurrence.factor_unity(args.n, args.sign)
    return {"linear_roots": factors.linear_factors, "quadratic_cosines": factors.quadratic_factors}


def _verdict(args):
    squares = [games.algebraic_to_square(field) for field in list_fields(args.squares, "--squares")]
    verdict = games.validate_tour(squares)
    if verdict.valid:
        return {"valid": True}
    return {"valid": False, "index": verdict.index, "reason": verdict.reason}


# ------------------------------------------------------------ command table

# Argument kinds: argparse keyword arguments, one per flag.
INT = dict(type=int, required=True)
FLOAT = dict(type=float, required=True)
FRACTION = dict(type=parse_fraction, required=True)
TEXT = dict(required=True)
REAL = dict(action="store_true")
P_HALF = dict(type=parse_fraction, default=Fraction(1, 2))


def _model_flags(suffix=""):
    return {
        "maty" + suffix: dict(action="store_true", help="built-in Breslau-style table"),
        "law" + suffix: dict(type=int, metavar="OMEGA", help="linear mortality with terminal age OMEGA"),
        "table" + suffix: dict(metavar="FILE", help="life-table CSV (age,lx)"),
    }


MODEL, MODEL_B = _model_flags(), _model_flags("_b")
ELLIPSE = dict(a=FLOAT, b=FLOAT)
CONIC = dict(ELLIPSE, theta=FLOAT)
RECURRENCE = dict(coeffs=TEXT, init=TEXT)
DURATION = dict(b=INT, p=FLOAT, n=INT)


class Command(NamedTuple):
    """One subcommand: library op, argv path, flags (dest -> argparse kwargs), call, provenance.

    `COMMANDS` is the one list of operations.  The call maps parsed args
    to the library value, or to a `Noted` (value, provenance suffix) pair.
    `inputs` echoes, in canonical form, every flag whose value is neither None nor False.
    """

    op: str
    path: tuple
    args: dict
    call: Callable
    provenance: str


COMMANDS = tuple(Command(op, tuple(path.split()), args, call, provenance) for op, path, args, call, provenance in (
    ("exactnum.factorial", "num factorial", dict(n=INT), lambda a: exactnum.factorial(a.n),
     "piquet-deck permutation counts (Doctrine of Chances, 1718 preface)"),
    ("exactnum.binomial_coefficient", "num binom", dict(n=INT, k=INT),
     lambda a: exactnum.binomial_coefficient(a.n, a.k),
     "binomial coefficients behind the 1733 central-band sums"),
    ("exactnum.odds_from_probability", "num odds", dict(p=FRACTION),
     lambda a: exactnum.odds_from_probability(a.p),
     "odds rendering of band probabilities (Approximatio, 1733 corollaries)"),
    ("exactnum.probability_from_odds", "num prob", dict(odds=dict(type=parse_odds, required=True)),
     lambda a: exactnum.probability_from_odds(_parsed(a.odds)),
     "odds rendering of band probabilities (Approximatio, 1733 corollaries)"),
    ("series.raise_series", "series raise", dict(coeffs=TEXT, power=INT, order=INT, real=REAL),
     lambda a: _coefficients(series.raise_series(_series(a), a.power, a.order), a.real),
     "multinomial raising of ax + bxx + cx^3 + ... (Philosophical Transactions, 1697)"),
    ("series.multinomial_coefficient_terms", "series multinomial", dict(degree=INT, power=INT),
     lambda a: [{"exponents": e, "count": n} for e, n in series.multinomial_coefficient_terms(a.degree, a.power)],
     "literary and numerical parts of multinomial coefficients (1697 method)"),
    ("series.revert_series", "series revert", dict(coeffs=TEXT, order=INT, real=REAL),
     lambda a: _coefficients(series.revert_series(_series(a), a.order), a.real),
     "series reversion built on the multinomial method (1698)"),
    ("series.compose_series", "series compose", dict(f=TEXT, g=TEXT, order=INT, real=REAL),
     lambda a: _coefficients(series.compose_series(_series(a, "f"), _series(a, "g"), a.order), a.real),
     "composition identity that defines series reversion"),
    ("binomlimit.exact_central_probability", "binom exact", dict(n=INT, c=FLOAT, p=P_HALF),
     lambda a: binomlimit.exact_central_probability(binomlimit.TrialSpec(a.n, a.p), a.c),
     "exact symmetric-binomial band mass, the 1733 approximation's target"),
    ("binomlimit.demoivre_term", "binom term", dict(n=INT, l=INT), lambda a: binomlimit.demoivre_term(a.n, a.l),
     "central-term density 2/sqrt(2 pi n) exp(-2 l^2/n) (Approximatio, 1733)"),
    ("binomlimit.limit_central_probability", "binom limit", dict(c=FLOAT),
     lambda a: binomlimit.limit_central_probability(a.c),
     "limiting band probability (Approximatio, 1733); De Moivre's printed values "
     "0.682688 (c=1), 0.95428 (c=2), 0.99874 (c=3)"),
    ("binomlimit.remark1_fraction", "binom remark1", dict(n=INT), lambda a: binomlimit.remark1_fraction(a.n),
     "Remark I band fraction 1/(2 sqrt(n)) (Doctrine of Chances, 3rd ed.)"),
    ("binomlimit.sample_size", "binom sample-size", dict(p=FRACTION, c=FRACTION, alpha=FRACTION),
     lambda a: binomlimit.sample_size(a.p, a.c, a.alpha),
     "trial-count problem of Ars Conjectandi Part IV (Bernoulli, 1713)"),
    ("binomlimit.simulate_band", "binom simulate", dict(n=INT, c=FLOAT, reps=INT, seed=INT, p=P_HALF),
     lambda a: binomlimit.simulate_band(binomlimit.TrialSpec(a.n, a.p), a.c, a.reps, a.seed),
     "empirical confirmation of the central-band rule by repeated trials"),
    ("recurrence.duration_exceeds_exact", "duration exact", DURATION,
     lambda a: recurrence.duration_exceeds_exact(recurrence.DurationSpec(a.b, a.p, a.n)),
     "duration of play, absorbing-walk computation (Doctrine of Chances, 1718)"),
    ("recurrence.duration_exceeds_closed", "duration closed", DURATION,
     lambda a: recurrence.duration_exceeds_closed(recurrence.DurationSpec(a.b, a.p, a.n)),
     "duration of play, trigonometric closed form (Doctrine of Chances, 1718)"),
    ("recurrence.solve_recurrence", "recur solve", RECURRENCE,
     lambda a: {"terms": [{"coefficient": c, "root": r}
                          for c, r in recurrence.solve_recurrence(_recurrence(a)).terms]},
     "recurrent series split into geometric progressions (Miscellanea Analytica, 1730)"),
    ("recurrence.eval_closed_form", "recur eval", dict(RECURRENCE, n=INT), _term,
     "term evaluation of a recurrent series' geometric decomposition"),
    ("recurrence.partial_sum", "recur sum", dict(RECURRENCE, upto=INT),
     lambda a: recurrence.partial_sum(_recurrence(a), a.upto),
     "summation of recurrent series by per-root geometric sums"),
    ("recurrence.factor_unity", "factor unity", dict(n=INT, sign=dict(INT, choices=(1, -1))), _unity,
     "circle-division factorization (Cotes, Harmonia Mensurarum 1722; Miscellanea Analytica, 1730)"),
    ("recurrence.demoivre_power", "factor power", dict(theta=FLOAT, n=INT),
     lambda a: dict(zip(("cos", "sin"), recurrence.demoivre_power(a.theta, a.n))),
     "(cos t + i sin t)^n = cos nt + i sin nt, De Moivre's identity"),
    ("lifeannuity.reconstruct_maty_table", "annuity table", MODEL, _table,
     "Breslau survivors from the narrative death schedule (Halley 1693 data)"),
    ("lifeannuity.survival_probability", "annuity survival", dict(age=INT, t=INT, **MODEL), _survival,
     "life-expectancy series terms (Annuities upon Lives, 1725)"),
    ("lifeannuity.annuity_value", "annuity value", dict(age=INT, rate=FLOAT, **MODEL), _annuity,
     "curtate annuity pricing under the complement of life (Annuities upon Lives, 1725)"),
    ("lifeannuity.joint_annuity_value", "annuity joint",
     dict(age_a=INT, age_b=INT, rate=FLOAT, **MODEL, **MODEL_B), _joint,
     "joint-life pricing by the same rules (Annuities upon Lives, 1725)"),
    ("lifeannuity.approximation_error_table", "annuity error-table", dict(ages=TEXT, rates=TEXT, **MODEL),
     _error_table, "linear-mortality price against tabular price, percentage comparison"),
    ("conics.focal_product", "conic focal-product", CONIC,
     lambda a: dict(zip(("focal_product", "halfdiam_sq"), conics.focal_product(_ellipse(a), a.theta))),
     "focal product equals squared parallel half-diameter (Philosophical Transactions, 1717)"),
    ("conics.radius_of_curvature", "conic curvature", CONIC,
     lambda a: conics.radius_of_curvature(_ellipse(a), a.theta),
     "diameter of the evolute read as the curvature radius"),
    ("conics.centripetal_force", "conic force", CONIC, lambda a: conics.centripetal_force(_ellipse(a), a.theta),
     "central force FM/(R FP^3) (Philosophical Transactions, 1717)"),
    ("conics.inverse_square_constant", "conic inverse-square", dict(ELLIPSE, samples=INT),
     lambda a: dict(zip(("constant", "max_relative_deviation"),
                        conics.inverse_square_constant(_ellipse(a), a.samples))),
     "inverse-square consequence: force times FM^2 constant along the orbit"),
    ("games.deck_match_odds", "games deck-odds", dict(size=INT), lambda a: games.deck_match_odds(a.size),
     "chance against design for matched piquet decks (Doctrine of Chances, 1718 preface)"),
    ("games.find_tour", "games tour", dict(start=TEXT),
     lambda a: games.tour_to_text(games.find_tour(games.algebraic_to_square(a.start))),
     "knight's tour construction (Ozanam's Recreations, 1725 edition)"),
    ("games.validate_tour", "games validate", dict(squares=TEXT), _verdict,
     "knight's tour verification (Ozanam's Recreations, 1725 edition)"),
))


def execute(command, args):
    """(result, inputs, provenance suffix) of one parsed call, all in canonical form."""
    value = command.call(args)
    value, suffix = value if type(value) is Noted else (value, "")
    inputs = {}
    for dest in command.args:
        given = getattr(args, dest)
        if given is not None and given is not False:
            inputs[dest] = canonical(given)
    return canonical(value), inputs, suffix


# Views of the table by op name.
PROVENANCE = {command.op: command.provenance for command in COMMANDS}
REGISTRY = {command.op: (command.path, functools.partial(execute, command)) for command in COMMANDS}


@functools.cache
def build_parser():
    """The whole argparse tree, built once per process (parsing leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = argparse.ArgumentParser(prog="demoivre", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command in COMMANDS:
        group, name = command.path
        if group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(dest="command", required=True)
        leaf = groups[group].add_parser(name, parents=[common])
        for dest, kwargs in command.args.items():
            leaf.add_argument("--" + dest.replace("_", "-"), **kwargs)
        leaf.set_defaults(op=command.op, leaf=leaf)
    return parser


@dataclass(frozen=True)
class CommandResult:
    """One invocation's record: a single JSON object on success."""

    op: str
    inputs: dict
    result: object
    provenance: str

    def render(self, fmt: str) -> str:
        payload = {
            "op": self.op,
            "inputs": self.inputs,
            "result": self.result,
            "provenance": self.provenance,
        }
        if fmt == "json":
            return json.dumps(payload, sort_keys=True)
        lines = [f"op: {self.op}"]
        for key in sorted(self.inputs):
            lines.append(f"input {key}: {json.dumps(self.inputs[key], sort_keys=True)}")
        lines.append(f"result: {json.dumps(self.result, sort_keys=True)}")
        lines.append(f"provenance: {self.provenance}")
        return "\n".join(lines)


def dispatch(argv):
    """Run one command; returns (exit status, stdout text, stderr text).

    Arguments left over once a leaf is parsed are reported with that
    leaf's usage, as argparse's parse_args would report them with the root's.
    """
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.leaf.error("unrecognized arguments: " + " ".join(extra))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return (0 if code == 0 else 2), "", ""
    try:
        result, inputs, suffix = REGISTRY[args.op][1](args)
    except (ValueError, ArithmeticError) as exc:
        return 3, "", f"error: {exc}\n"
    record = CommandResult(args.op, inputs, result, PROVENANCE[args.op] + suffix)
    return 0, record.render(args.format) + "\n", ""


def main(argv=None):
    code, out, err = dispatch(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
