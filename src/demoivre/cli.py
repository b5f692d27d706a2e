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
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import binomlimit, conics, exactnum, games, lifeannuity, recurrence, series
from .exactnum import Odds

PROVENANCE = {
    "exactnum.factorial": "piquet-deck permutation counts (Doctrine of Chances, 1718 preface)",
    "exactnum.binomial_coefficient": "binomial coefficients behind the 1733 central-band sums",
    "exactnum.odds_from_probability": "odds rendering of band probabilities (Approximatio, 1733 corollaries)",
    "exactnum.probability_from_odds": "odds rendering of band probabilities (Approximatio, 1733 corollaries)",
    "series.raise_series": "multinomial raising of ax + bxx + cx^3 + ... (Philosophical Transactions, 1697)",
    "series.multinomial_coefficient_terms": "literary and numerical parts of multinomial coefficients (1697 method)",
    "series.revert_series": "series reversion built on the multinomial method (1698)",
    "series.compose_series": "composition identity that defines series reversion",
    "binomlimit.exact_central_probability": "exact symmetric-binomial band mass, the 1733 approximation's target",
    "binomlimit.demoivre_term": "central-term density 2/sqrt(2 pi n) exp(-2 l^2/n) (Approximatio, 1733)",
    "binomlimit.limit_central_probability": (
        "limiting band probability (Approximatio, 1733); De Moivre's printed values "
        "0.682688 (c=1), 0.95428 (c=2), 0.99874 (c=3)"
    ),
    "binomlimit.remark1_fraction": "Remark I band fraction 1/(2 sqrt(n)) (Doctrine of Chances, 3rd ed.)",
    "binomlimit.sample_size": "trial-count problem of Ars Conjectandi Part IV (Bernoulli, 1713)",
    "binomlimit.simulate_band": "empirical confirmation of the central-band rule by repeated trials",
    "recurrence.solve_recurrence": "recurrent series split into geometric progressions (Miscellanea Analytica, 1730)",
    "recurrence.eval_closed_form": "term evaluation of a recurrent series' geometric decomposition",
    "recurrence.partial_sum": "summation of recurrent series by per-root geometric sums",
    "recurrence.duration_exceeds_exact": "duration of play, absorbing-walk computation (Doctrine of Chances, 1718)",
    "recurrence.duration_exceeds_closed": "duration of play, trigonometric closed form (Doctrine of Chances, 1718)",
    "recurrence.factor_unity": "circle-division factorization (Cotes, Harmonia Mensurarum 1722; Miscellanea Analytica, 1730)",
    "recurrence.demoivre_power": "(cos t + i sin t)^n = cos nt + i sin nt, De Moivre's identity",
    "lifeannuity.reconstruct_maty_table": "Breslau survivors from the narrative death schedule (Halley 1693 data)",
    "lifeannuity.survival_probability": "life-expectancy series terms (Annuities upon Lives, 1725)",
    "lifeannuity.annuity_value": "curtate annuity pricing under the complement of life (Annuities upon Lives, 1725)",
    "lifeannuity.joint_annuity_value": "joint-life pricing by the same rules (Annuities upon Lives, 1725)",
    "lifeannuity.approximation_error_table": "linear-mortality price against tabular price, percentage comparison",
    "conics.focal_product": "focal product equals squared parallel half-diameter (Philosophical Transactions, 1717)",
    "conics.radius_of_curvature": "diameter of the evolute read as the curvature radius",
    "conics.centripetal_force": "central force FM/(R FP^3) (Philosophical Transactions, 1717)",
    "conics.inverse_square_constant": "inverse-square consequence: force times FM^2 constant along the orbit",
    "games.deck_match_odds": "chance against design for matched piquet decks (Doctrine of Chances, 1718 preface)",
    "games.validate_tour": "knight's tour verification (Ozanam's Recreations, 1725 edition)",
    "games.find_tour": "knight's tour construction (Ozanam's Recreations, 1725 edition)",
}

TAIL_NOTE = "; survivor tail past age 86 extrapolated"


class DomainFailure(Exception):
    """Wraps library domain errors for exit-code 3 handling."""


def canonical(value):
    """Render result values deterministically: exact strings, 17g reals."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Odds):
        return f"{value.favor}:{value.against}"
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


def parse_coefficients(text: str, real: bool):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise DomainFailure("empty coefficient list")
    try:
        if real:
            return [float(p) for p in parts]
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainFailure(f"bad coefficient list: {exc}") from None


def parse_odds(text: str) -> Odds:
    try:
        favor, against = text.split(":")
        return Odds(int(favor), int(against))
    except (ValueError, TypeError) as exc:
        raise DomainFailure(f"bad odds {text!r}: {exc}") from None


def _finite(ps, where):
    """ps itself; in real mode a NaN or infinite coefficient is a domain error.

    The library propagates non-finite floats as IEEE arithmetic does; the
    CLI does not print them with exit 0.
    """
    for degree, value in enumerate(ps.coefficients, start=1):
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainFailure(f"{where}: coefficient of x^{degree} is not finite: {value!r}")
    return ps


def _series_from(args, flag="coeffs"):
    coeffs = parse_coefficients(getattr(args, flag), args.real)
    return _finite(series.PowerSeries(tuple(coeffs)), f"--{flag}")


def _series_result(ps):
    return [canonical(c) for c in _finite(ps, "result").coefficients]


# ---------------------------------------------------------------- handlers


def run_num_factorial(args):
    return canonical(exactnum.factorial(args.n)), {"n": str(args.n)}


def run_num_binom(args):
    return canonical(exactnum.binomial_coefficient(args.n, args.k)), {
        "n": str(args.n),
        "k": str(args.k),
    }


def run_num_odds(args):
    return canonical(exactnum.odds_from_probability(args.p)), {"p": canonical(args.p)}


def run_num_prob(args):
    odds = parse_odds(args.odds)
    return canonical(exactnum.probability_from_odds(odds)), {"odds": canonical(odds)}


def run_series_raise(args):
    ps = _series_from(args)
    out = series.raise_series(ps, args.power, args.order)
    inputs = {"coeffs": args.coeffs, "power": str(args.power), "order": str(args.order)}
    if args.real:
        inputs["real"] = True
    return _series_result(out), inputs


def run_series_multinomial(args):
    terms = series.multinomial_coefficient_terms(args.degree, args.power)
    result = [
        {"exponents": [str(e) for e in exponents], "count": str(count)}
        for exponents, count in terms
    ]
    return result, {"degree": str(args.degree), "power": str(args.power)}


def run_series_revert(args):
    ps = _series_from(args)
    out = series.revert_series(ps, args.order)
    inputs = {"coeffs": args.coeffs, "order": str(args.order)}
    if args.real:
        inputs["real"] = True
    return _series_result(out), inputs


def run_series_compose(args):
    outer = _series_from(args, "f")
    inner = _series_from(args, "g")
    out = series.compose_series(outer, inner, args.order)
    inputs = {"f": args.f, "g": args.g, "order": str(args.order)}
    if args.real:
        inputs["real"] = True
    return _series_result(out), inputs


def run_binom_exact(args):
    spec = binomlimit.TrialSpec(args.n, args.p)
    value = binomlimit.exact_central_probability(spec, args.c)
    return canonical(value), {"n": str(args.n), "c": canonical(args.c), "p": canonical(args.p)}


def run_binom_term(args):
    value = binomlimit.demoivre_term(args.n, args.l)
    return canonical(value), {"n": str(args.n), "l": str(args.l)}


def run_binom_limit(args):
    value = binomlimit.limit_central_probability(args.c)
    return canonical(value), {"c": canonical(args.c)}


def run_binom_remark1(args):
    return canonical(binomlimit.remark1_fraction(args.n)), {"n": str(args.n)}


def run_binom_sample_size(args):
    value = binomlimit.sample_size(args.p, args.c, args.alpha)
    return canonical(value), {
        "p": canonical(args.p),
        "c": canonical(args.c),
        "alpha": canonical(args.alpha),
    }


def run_binom_simulate(args):
    spec = binomlimit.TrialSpec(args.n, args.p)
    value = binomlimit.simulate_band(spec, args.c, args.reps, args.seed, args.workers)
    inputs = {
        "n": str(args.n),
        "c": canonical(args.c),
        "p": canonical(args.p),
        "reps": str(args.reps),
        "seed": str(args.seed),
    }
    if args.workers:
        inputs["workers"] = str(args.workers)
    return canonical(value), inputs


def _duration_spec(args):
    return recurrence.DurationSpec(args.b, args.p, args.n)


def run_duration_exact(args):
    value = recurrence.duration_exceeds_exact(_duration_spec(args))
    return canonical(value), {"b": str(args.b), "p": canonical(args.p), "n": str(args.n)}


def run_duration_closed(args):
    value = recurrence.duration_exceeds_closed(_duration_spec(args))
    return canonical(value), {"b": str(args.b), "p": canonical(args.p), "n": str(args.n)}


def _recurrence_from(args):
    coeffs = parse_coefficients(args.coeffs, real=True)
    init = parse_coefficients(args.init, real=True)
    return recurrence.Recurrence(tuple(coeffs), tuple(init))


def run_recur_solve(args):
    cf = recurrence.solve_recurrence(_recurrence_from(args))
    terms = [{"coefficient": canonical(c), "root": canonical(r)} for c, r in cf.terms]
    return {"terms": terms}, {"coeffs": args.coeffs, "init": args.init}


def run_recur_eval(args):
    cf = recurrence.solve_recurrence(_recurrence_from(args))
    value = recurrence.eval_closed_form(cf, args.n)
    return canonical(value), {"coeffs": args.coeffs, "init": args.init, "n": str(args.n)}


def run_recur_sum(args):
    value = recurrence.partial_sum(_recurrence_from(args), args.upto)
    return canonical(value), {"coeffs": args.coeffs, "init": args.init, "upto": str(args.upto)}


def run_factor_unity(args):
    fac = recurrence.factor_unity(args.n, args.sign)
    result = {
        "linear_roots": canonical(list(fac.linear_factors)),
        "quadratic_cosines": canonical(list(fac.quadratic_factors)),
    }
    return result, {"n": str(args.n), "sign": str(args.sign)}


def run_factor_power(args):
    cos_n, sin_n = recurrence.demoivre_power(args.theta, args.n)
    return {"cos": canonical(cos_n), "sin": canonical(sin_n)}, {
        "theta": canonical(args.theta),
        "n": str(args.n),
    }


def _model_from(args, suffix=""):
    maty = getattr(args, "maty" + suffix, False)
    law = getattr(args, "law" + suffix, None)
    table = getattr(args, "table" + suffix, None)
    chosen = [name for name, given in (("maty", maty), ("law", law is not None), ("table", table is not None)) if given]
    if len(chosen) != 1:
        raise DomainFailure("choose exactly one of --maty / --law OMEGA / --table FILE" + (" (-b variant)" if suffix else ""))
    if maty:
        model = lifeannuity.reconstruct_maty_table()
        echo = {"maty": True}
    elif law is not None:
        model = lifeannuity.DeMoivreLaw(law)
        echo = {"law": str(law)}
    else:
        try:
            model = lifeannuity.load_table(table)
        except OSError as exc:
            raise DomainFailure(f"cannot read table {table!r}: {exc}") from None
        echo = {"table": table}
    if suffix:
        echo = {key + suffix: value for key, value in echo.items()}
    return model, echo


def _tail_marker(*models):
    for model in models:
        if isinstance(model, lifeannuity.LifeTable) and model.extrapolated_from is not None:
            return TAIL_NOTE
    return ""


def run_annuity_table(args):
    model, echo = _model_from(args)
    if not isinstance(model, lifeannuity.LifeTable):
        raise DomainFailure("annuity table needs --maty or --table FILE")
    rows = [[str(age), canonical(value)] for age, value in model.rows()]
    return {"start_age": str(model.start_age), "rows": rows}, echo


def run_annuity_survival(args):
    model, echo = _model_from(args)
    value = lifeannuity.survival_probability(model, args.age, args.t)
    echo.update({"age": str(args.age), "t": str(args.t)})
    return canonical(value), echo, _tail_marker(model)


def run_annuity_value(args):
    model, echo = _model_from(args)
    value = lifeannuity.annuity_value(model, args.age, lifeannuity.RateSpec(args.rate))
    echo.update({"age": str(args.age), "rate": canonical(args.rate)})
    return canonical(value), echo, _tail_marker(model)


def run_annuity_joint(args):
    model_a, echo = _model_from(args)
    if args.maty_b or args.law_b is not None or args.table_b is not None:
        model_b, echo_b = _model_from(args, suffix="_b")
        echo.update(echo_b)
    else:
        model_b = model_a
    value = lifeannuity.joint_annuity_value(
        model_a, args.age_a, model_b, args.age_b, lifeannuity.RateSpec(args.rate)
    )
    echo.update({"age_a": str(args.age_a), "age_b": str(args.age_b), "rate": canonical(args.rate)})
    return canonical(value), echo, _tail_marker(model_a, model_b)


def run_annuity_error_table(args):
    model, echo = _model_from(args)
    if not isinstance(model, lifeannuity.LifeTable):
        raise DomainFailure("error table compares the law against a table; use --maty or --table")
    ages = [int(a) for a in args.ages.split(",") if a.strip()]
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    grid = lifeannuity.approximation_error_table(model, ages, rates)
    echo.update({"ages": args.ages, "rates": args.rates})
    result = {
        "ages": [str(a) for a in ages],
        "rates": [canonical(r) for r in rates],
        "percent": [[canonical(cell) for cell in row] for row in grid],
    }
    return result, echo, _tail_marker(model)


def _ellipse_from(args):
    return conics.Ellipse(args.a, args.b)


def run_conic_focal(args):
    product, halfdiam_sq = conics.focal_product(_ellipse_from(args), args.theta)
    result = {"focal_product": canonical(product), "halfdiam_sq": canonical(halfdiam_sq)}
    return result, {"a": canonical(args.a), "b": canonical(args.b), "theta": canonical(args.theta)}


def run_conic_curvature(args):
    value = conics.radius_of_curvature(_ellipse_from(args), args.theta)
    return canonical(value), {"a": canonical(args.a), "b": canonical(args.b), "theta": canonical(args.theta)}


def run_conic_force(args):
    value = conics.centripetal_force(_ellipse_from(args), args.theta)
    return canonical(value), {"a": canonical(args.a), "b": canonical(args.b), "theta": canonical(args.theta)}


def run_conic_inverse_square(args):
    constant, deviation = conics.inverse_square_constant(_ellipse_from(args), args.samples)
    result = {"constant": canonical(constant), "max_relative_deviation": canonical(deviation)}
    return result, {"a": canonical(args.a), "b": canonical(args.b), "samples": str(args.samples)}


def run_games_deck_odds(args):
    return canonical(games.deck_match_odds(args.size)), {"size": str(args.size)}


def run_games_tour(args):
    start = games.algebraic_to_square(args.start)
    tour = games.find_tour(start)
    return games.tour_to_text(tour), {"start": args.start}


def run_games_validate(args):
    squares = games.tour_from_text(args.squares)
    verdict = games.validate_tour(squares)
    if verdict.valid:
        result = {"valid": True}
    else:
        result = {"valid": False, "index": str(verdict.index), "reason": verdict.reason}
    return result, {"squares": args.squares}


# ------------------------------------------------------------ registration

# op name -> (subcommand path, handler)
REGISTRY = {
    "exactnum.factorial": (("num", "factorial"), run_num_factorial),
    "exactnum.binomial_coefficient": (("num", "binom"), run_num_binom),
    "exactnum.odds_from_probability": (("num", "odds"), run_num_odds),
    "exactnum.probability_from_odds": (("num", "prob"), run_num_prob),
    "series.raise_series": (("series", "raise"), run_series_raise),
    "series.multinomial_coefficient_terms": (("series", "multinomial"), run_series_multinomial),
    "series.revert_series": (("series", "revert"), run_series_revert),
    "series.compose_series": (("series", "compose"), run_series_compose),
    "binomlimit.exact_central_probability": (("binom", "exact"), run_binom_exact),
    "binomlimit.demoivre_term": (("binom", "term"), run_binom_term),
    "binomlimit.limit_central_probability": (("binom", "limit"), run_binom_limit),
    "binomlimit.remark1_fraction": (("binom", "remark1"), run_binom_remark1),
    "binomlimit.sample_size": (("binom", "sample-size"), run_binom_sample_size),
    "binomlimit.simulate_band": (("binom", "simulate"), run_binom_simulate),
    "recurrence.solve_recurrence": (("recur", "solve"), run_recur_solve),
    "recurrence.eval_closed_form": (("recur", "eval"), run_recur_eval),
    "recurrence.partial_sum": (("recur", "sum"), run_recur_sum),
    "recurrence.duration_exceeds_exact": (("duration", "exact"), run_duration_exact),
    "recurrence.duration_exceeds_closed": (("duration", "closed"), run_duration_closed),
    "recurrence.factor_unity": (("factor", "unity"), run_factor_unity),
    "recurrence.demoivre_power": (("factor", "power"), run_factor_power),
    "lifeannuity.reconstruct_maty_table": (("annuity", "table"), run_annuity_table),
    "lifeannuity.survival_probability": (("annuity", "survival"), run_annuity_survival),
    "lifeannuity.annuity_value": (("annuity", "value"), run_annuity_value),
    "lifeannuity.joint_annuity_value": (("annuity", "joint"), run_annuity_joint),
    "lifeannuity.approximation_error_table": (("annuity", "error-table"), run_annuity_error_table),
    "conics.focal_product": (("conic", "focal-product"), run_conic_focal),
    "conics.radius_of_curvature": (("conic", "curvature"), run_conic_curvature),
    "conics.centripetal_force": (("conic", "force"), run_conic_force),
    "conics.inverse_square_constant": (("conic", "inverse-square"), run_conic_inverse_square),
    "games.deck_match_odds": (("games", "deck-odds"), run_games_deck_odds),
    "games.find_tour": (("games", "tour"), run_games_tour),
    "games.validate_tour": (("games", "validate"), run_games_validate),
}


def _add_model_flags(parser, suffix=""):
    dash = suffix.replace("_", "-")
    parser.add_argument(f"--maty{dash}", action="store_true", help="built-in Breslau-style table")
    parser.add_argument(f"--law{dash}", type=int, metavar="OMEGA", help="linear mortality with terminal age OMEGA")
    parser.add_argument(f"--table{dash}", metavar="FILE", help="life-table CSV (age,lx)")


@functools.cache
def build_parser():
    """The whole argparse tree, built once per process (parsing leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = argparse.ArgumentParser(prog="demoivre", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}

    def group_for(name):
        if name not in groups:
            groups[name] = top.add_parser(name).add_subparsers(dest="command", required=True)
        return groups[name]

    def leaf(group, name, op, **arguments):
        sub = group_for(group).add_parser(name, parents=[common])
        for flag, kwargs in arguments.items():
            sub.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        sub.set_defaults(op=op)
        return sub

    leaf("num", "factorial", "exactnum.factorial", n=dict(type=int, required=True))
    leaf("num", "binom", "exactnum.binomial_coefficient",
         n=dict(type=int, required=True), k=dict(type=int, required=True))
    leaf("num", "odds", "exactnum.odds_from_probability", p=dict(type=parse_fraction, required=True))
    leaf("num", "prob", "exactnum.probability_from_odds", odds=dict(required=True))

    leaf("series", "raise", "series.raise_series",
         coeffs=dict(required=True), power=dict(type=int, required=True),
         order=dict(type=int, required=True), real=dict(action="store_true"))
    leaf("series", "multinomial", "series.multinomial_coefficient_terms",
         degree=dict(type=int, required=True), power=dict(type=int, required=True))
    leaf("series", "revert", "series.revert_series",
         coeffs=dict(required=True), order=dict(type=int, required=True), real=dict(action="store_true"))
    leaf("series", "compose", "series.compose_series",
         f=dict(required=True), g=dict(required=True),
         order=dict(type=int, required=True), real=dict(action="store_true"))

    leaf("binom", "exact", "binomlimit.exact_central_probability",
         n=dict(type=int, required=True), c=dict(type=float, required=True),
         p=dict(type=parse_fraction, default=Fraction(1, 2)))
    leaf("binom", "term", "binomlimit.demoivre_term",
         n=dict(type=int, required=True), l=dict(type=int, required=True))
    leaf("binom", "limit", "binomlimit.limit_central_probability", c=dict(type=float, required=True))
    leaf("binom", "remark1", "binomlimit.remark1_fraction", n=dict(type=int, required=True))
    leaf("binom", "sample-size", "binomlimit.sample_size",
         p=dict(type=parse_fraction, required=True), c=dict(type=parse_fraction, required=True),
         alpha=dict(type=parse_fraction, required=True))
    leaf("binom", "simulate", "binomlimit.simulate_band",
         n=dict(type=int, required=True), c=dict(type=float, required=True),
         reps=dict(type=int, required=True), seed=dict(type=int, required=True),
         p=dict(type=parse_fraction, default=Fraction(1, 2)), workers=dict(type=int))

    for name, op in (("exact", "recurrence.duration_exceeds_exact"),
                     ("closed", "recurrence.duration_exceeds_closed")):
        leaf("duration", name, op,
             b=dict(type=int, required=True), p=dict(type=float, required=True),
             n=dict(type=int, required=True))

    leaf("recur", "solve", "recurrence.solve_recurrence",
         coeffs=dict(required=True), init=dict(required=True))
    leaf("recur", "eval", "recurrence.eval_closed_form",
         coeffs=dict(required=True), init=dict(required=True), n=dict(type=int, required=True))
    leaf("recur", "sum", "recurrence.partial_sum",
         coeffs=dict(required=True), init=dict(required=True), upto=dict(type=int, required=True))

    leaf("factor", "unity", "recurrence.factor_unity",
         n=dict(type=int, required=True), sign=dict(type=int, required=True, choices=(1, -1)))
    leaf("factor", "power", "recurrence.demoivre_power",
         theta=dict(type=float, required=True), n=dict(type=int, required=True))

    _add_model_flags(leaf("annuity", "table", "lifeannuity.reconstruct_maty_table"))
    _add_model_flags(leaf("annuity", "survival", "lifeannuity.survival_probability",
                          age=dict(type=int, required=True), t=dict(type=int, required=True)))
    _add_model_flags(leaf("annuity", "value", "lifeannuity.annuity_value",
                          age=dict(type=int, required=True), rate=dict(type=float, required=True)))
    joint_cmd = leaf("annuity", "joint", "lifeannuity.joint_annuity_value",
                     age_a=dict(type=int, required=True), age_b=dict(type=int, required=True),
                     rate=dict(type=float, required=True))
    _add_model_flags(joint_cmd)
    _add_model_flags(joint_cmd, suffix="_b")
    _add_model_flags(leaf("annuity", "error-table", "lifeannuity.approximation_error_table",
                          ages=dict(required=True), rates=dict(required=True)))

    for name, op in (("focal-product", "conics.focal_product"),
                     ("curvature", "conics.radius_of_curvature"),
                     ("force", "conics.centripetal_force")):
        leaf("conic", name, op,
             a=dict(type=float, required=True), b=dict(type=float, required=True),
             theta=dict(type=float, required=True))
    leaf("conic", "inverse-square", "conics.inverse_square_constant",
         a=dict(type=float, required=True), b=dict(type=float, required=True),
         samples=dict(type=int, required=True))

    leaf("games", "deck-odds", "games.deck_match_odds", size=dict(type=int, required=True))
    leaf("games", "tour", "games.find_tour", start=dict(required=True))
    leaf("games", "validate", "games.validate_tour", squares=dict(required=True))

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
    """Run one command; returns (exit status, stdout text, stderr text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return (0 if code == 0 else 2), "", ""
    handler = REGISTRY[args.op][1]
    try:
        out = handler(args)
    except DomainFailure as exc:
        return 3, "", f"error: {exc}\n"
    except (ValueError, ArithmeticError) as exc:
        return 3, "", f"error: {exc}\n"
    if len(out) == 3:
        result, inputs, marker = out
    else:
        result, inputs = out
        marker = ""
    record = CommandResult(args.op, inputs, result, PROVENANCE[args.op] + marker)
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
