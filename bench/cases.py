"""Input grids, output canonical form and oracles of the benchmark workloads.

Every workload is a list of cases; every case is a fixed grid of variants
of one call (or of a short group of calls that must run in order).  One
pass over a workload calls one variant of every case, picked by the
seeded generator, so the program only ever receives
generated arguments.  Variants of one case cost the same work (mirror
images p <-> 1-p, sign-alternated series, permuted orders, other rng
seeds), so the seed changes the inputs but not the cost of a pass.
Every call is short (at most about 60 ms), so one run times each case
many times.

All inputs stay in-domain and well conditioned: no NaN, rational p on the
exact path, small b on the duration closed form, n > 2, no `workers`.

This module imports `demoivre` only inside the kernel grid functions, so
bench.py stays free of it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")
DIGEST_OVER = 200  # canonical strings longer than this are stored as sha256

WORKLOADS = ("cli_warm", "exact_rational", "float_numeric")


@dataclasses.dataclass(frozen=True)
class Call:
    """One call into a layer's public function, with how to check it."""

    key: str  # expected-output key; also names the inputs
    span: str  # "<layer>.<span>", the per-layer bucket of the call
    fn: Callable[[], object]
    # oracle on (result, results of the pass by key) -> error text or None
    check: Callable[[object, dict], str | None] | None = None
    # work counters computed from the inputs and the result
    counts: Callable[[object], dict] | None = None

    @property
    def layer(self) -> str:
        return self.span.split(".", 1)[0]


# ------------------------------------------------------------ canonical form


def canon(value) -> str:
    """Exact text of a result: rationals as n/d, floats by repr (all bits)."""
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        # decimal up to Python's default int-to-str digit limit, hex past it
        return str(value) if value.bit_length() < 10_000 else hex(value)
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, F):
        return f"{canon(value.numerator)}/{canon(value.denominator)}"
    if isinstance(value, complex):
        return f"({value.real!r},{value.imag!r})"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{canon(v)}" for k, v in value.items()) + "}"
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + canon({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    raise TypeError(f"no canonical form for {type(value).__name__}")


def stored(text: str) -> str:
    """What expected.json keeps for an output: the text, or its digest when long."""
    if len(text) <= DIGEST_OVER:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def compare(expected: dict, key: str, text: str) -> str | None:
    if key not in expected:
        return f"{key}: no expected output recorded"
    if stored(text) != expected[key]:
        return f"{key}: output differs from the recorded one"
    return None


# ---------------------------------------------------------------- CLI mix

# The a1 tour as the CLI prints it, and a copy with two squares swapped.
TOUR_A1 = (
    "a1,b3,a5,b7,d8,f7,h8,g6,f8,h7,g5,h3,g1,e2,c1,a2,b4,a6,b8,c6,a7,c8,e7,g8,h6,g4,"
    "h2,f1,d2,b1,a3,c2,e1,f3,h4,g2,e3,d1,b2,a4,c3,b5,d4,f5,d6,c4,e5,d3,f2,h1,g3,e4,"
    "c5,d7,b6,a8,c7,d5,f4,e6,g7,e8,f6,h5"
)
TOUR_SWAPPED = TOUR_A1.replace("b3,a5", "a5,b3")


def _args(text: str) -> list[str]:
    return text.split()


# One entry per subcommand (all 33), each a grid of cheap argv variants.
CLI_MIX = [
    [_args("num factorial --n 12"), _args("num factorial --n 52"), _args("num factorial --n 20 --format text")],
    [_args("num binom --n 20 --k 7"), _args("num binom --n 52 --k 5")],
    [_args("num odds --p 28/41"), _args("num odds --p 1/3")],
    [_args("num prob --odds 28:13"), _args("num prob --odds 5:3")],
    [_args("series raise --coeffs 1,1 --power 2 --order 4"), _args("series raise --coeffs 1,2,3 --power 3 --order 6")],
    [_args("series multinomial --degree 4 --power 2"), _args("series multinomial --degree 6 --power 3")],
    [_args("series revert --coeffs 1,1 --order 5"), _args("series revert --coeffs 1,-1 --order 6")],
    [_args("series compose --f 0,1 --g 1,1 --order 4"), _args("series compose --f 1,1 --g 1,-1 --order 5")],
    [_args("binom exact --n 100 --c 1"), _args("binom exact --n 64 --c 2 --p 1/3")],
    [_args("binom term --n 100 --l 3"), _args("binom term --n 400 --l 10")],
    [_args("binom limit --c 1"), _args("binom limit --c 2"), _args("binom limit --c 3")],
    [_args("binom remark1 --n 3600"), _args("binom remark1 --n 400")],
    [_args("binom sample-size --p 1/2 --c 1/5 --alpha 1/10"), _args("binom sample-size --p 1/3 --c 1/5 --alpha 1/10")],
    [_args("binom simulate --n 100 --c 1 --reps 500 --seed 11"), _args("binom simulate --n 100 --c 1 --reps 500 --seed 12")],
    [_args("duration exact --b 4 --p 0.45 --n 10"), _args("duration exact --b 6 --p 0.5 --n 20")],
    [_args("duration closed --b 4 --p 0.45 --n 10"), _args("duration closed --b 6 --p 0.5 --n 20")],
    [_args("recur solve --coeffs 1,1 --init 0,1"), _args("recur solve --coeffs 1,1 --init 2,1")],
    [_args("recur eval --coeffs 1,1 --init 0,1 --n 10"), _args("recur eval --coeffs 1,1 --init 2,1 --n 20")],
    [_args("recur sum --coeffs 2 --init 1 --upto 5"), _args("recur sum --coeffs 1,1 --init 0,1 --upto 10")],
    [_args("factor unity --n 6 --sign -1"), _args("factor unity --n 7 --sign 1"), _args("factor unity --n 8 --sign 1")],
    [_args("factor power --theta 0.37 --n 17"), _args("factor power --theta 1.1 --n 5")],
    [_args("annuity table --maty"), _args("annuity table --maty --format text")],
    [_args("annuity survival --law 86 --age 50 --t 18"), _args("annuity survival --maty --age 40 --t 10")],
    [_args("annuity value --maty --age 50 --rate 0.05"), _args("annuity value --law 86 --age 30 --rate 0.04")],
    [
        _args("annuity joint --law 86 --age-a 50 --age-b 60 --rate 0.05"),
        _args("annuity joint --maty --age-a 40 --age-b 45 --rate 0.05"),
    ],
    [
        _args("annuity error-table --maty --ages 20,50 --rates 0.03,0.05"),
        _args("annuity error-table --maty --ages 30,60 --rates 0.04"),
    ],
    [_args("conic focal-product --a 2 --b 1 --theta 0.5"), _args("conic focal-product --a 3 --b 2 --theta 1.2")],
    [_args("conic curvature --a 2 --b 1 --theta 0.5"), _args("conic curvature --a 3 --b 2 --theta 1.2")],
    [_args("conic force --a 2 --b 1 --theta 0.5"), _args("conic force --a 3 --b 2 --theta 1.2")],
    [_args("conic inverse-square --a 2 --b 1 --samples 90"), _args("conic inverse-square --a 3 --b 2 --samples 120")],
    [_args("games deck-odds --size 32"), _args("games deck-odds --size 52")],
    # starts whose search needs little backtracking (d4 alone takes ~0.7 s)
    [_args("games tour --start a1"), _args("games tour --start b1"), _args("games tour --start c8")],
    [["games", "validate", "--squares", TOUR_A1], ["games", "validate", "--squares", TOUR_SWAPPED]],
]


def cli_key(argv) -> str:
    return "cli " + " ".join(argv)


def cli_pass(rng) -> list[tuple[int, list[str]]]:
    """One pass over the CLI mix: (subcommand index, argv), one variant per subcommand, shuffled."""
    chosen = [(case, rng.choice(variants)) for case, variants in enumerate(CLI_MIX)]
    rng.shuffle(chosen)
    return chosen


# ------------------------------------------------------------ kernel grids


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _alternate(coeffs):
    """Coefficients of -s(-x): same magnitudes, so the same work."""
    return [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]


def _band_bounds(n: int, p: F, c: float):
    """Inclusive range of counts k with |k - np| <= c sqrt(n)/2."""
    half = float(c) * math.sqrt(n) / 2
    mu = n * float(p)
    return max(0, math.ceil(mu - half)), min(n, math.floor(mu + half))


def _band_terms(n: int, p: F, c: float) -> int:
    lo, hi = _band_bounds(n, p, c)
    return max(0, hi - lo + 1)


def _partitions(m: int, parts: int) -> int:
    """Number of ways to write m as a sum of `parts` positive parts, unordered."""

    def count(total, k, largest):
        if k == 0:
            return 1 if total == 0 else 0
        return sum(count(total - first, k - 1, first) for first in range(1, min(total, largest) + 1))

    return count(m, parts, m)


def exact_rational(small: bool) -> list[list]:
    """Big-integer and Fraction kernels: exact band, sample size, series, annuities."""
    from demoivre import binomlimit, lifeannuity, series

    cases = []

    def band(n, p, c):
        spec = binomlimit.TrialSpec(n, p)
        float_band = getattr(binomlimit, "_band_probability_float", None)

        def check(result, _):
            # the module's float band sum, reached directly: an internal, so
            # the oracle is skipped once it is gone
            if float_band is None:
                return None
            oracle = float_band(n, float(p), *_band_bounds(n, p, c))
            # the float sum is anchored by exp(lgamma(...)); lgamma(4097) ~ 3e4,
            # so its relative error is a few 1e-12 at the largest n here
            if not _rel_close(float(result), oracle, 1e-10):
                return f"rational band {float(result)!r} disagrees with float band {oracle!r}"
            return None

        return Call(
            f"band n={n} p={p} c={c}",
            "binomlimit.exact_band",
            lambda: binomlimit.exact_central_probability(spec, c),
            check,
            lambda r: {"binomlimit.exact_band_terms": _band_terms(n, p, c), "binomlimit.exact_band_den_bits": r.denominator.bit_length()},
        )

    if small:
        cases.append([band(100, F(1, 3), 1.0), band(100, F(2, 3), 1.0)])
        cases.append([band(64, F(1, 2), 1.0)])
    else:
        cases.append([band(3600, F(1, 3), 1.0), band(3600, F(2, 3), 1.0)])
        cases.append([band(4096, F(2, 5), 1.0), band(4096, F(3, 5), 1.0)])
        cases.append([band(4096, F(1, 2), 1.0)])

    p, c, alpha = (F(1, 2), F(1, 5), F(1, 10)) if small else (F(1, 2), F(1, 20), F(1, 20))
    cases.append([
        Call(
            f"sample_size p={p} c={c} alpha={alpha}",
            "binomlimit.sample_size",
            lambda: binomlimit.sample_size(p, c, alpha),
            counts=lambda r: {"binomlimit.sample_size_n_scanned": r},
        )
    ])

    def revert(coeffs, order):
        s = series.series_from_rationals(coeffs)

        def check(result, _):
            back = series.compose_series(s, result, order)
            if list(back.coefficients) != [1] + [0] * (order - 1):
                return "reverted series does not compose back to x"
            return None

        return Call(f"revert {coeffs} order={order}", "series.revert", lambda: series.revert_series(s, order), check)

    def raise_(coeffs, power, order):
        s = series.series_from_rationals(coeffs)
        monomial = series.series_from_rationals([0] * (power - 1) + [1])

        def check(result, _):
            if series.compose_series(monomial, s, order) != result:
                return "multinomial power disagrees with x^p composed with s"
            return None

        return Call(
            f"raise {coeffs} p={power} order={order}",
            "series.raise",
            lambda: series.raise_series(s, power, order),
            check,
            lambda r: {"series.multinomial_terms": sum(_partitions(m, power) for m in range(power, order + 1))},
        )

    def compose(f, g, order):
        fs, gs = series.series_from_rationals(f), series.series_from_rationals(g)
        return Call(f"compose {f} {g} order={order}", "series.compose", lambda: series.compose_series(fs, gs, order))

    base = [1, 1, 2, -1, 3]
    inner = [1, -1, 1, 2]
    raised = [1, 2, 3, 1, 1]
    r_order, p_order, c_order = (6, 8, 6) if small else (15, 20, 25)
    cases.append([revert(base, r_order), revert(_alternate(base), r_order)])
    cases.append([raise_(raised, 5, p_order), raise_(_alternate(raised), 5, p_order)])
    cases.append([compose(base, inner, c_order), compose(_alternate(base), _alternate(inner), c_order)])

    table = lifeannuity.reconstruct_maty_table()
    ages = [20, 50] if small else list(range(15, 86, 10))
    rates = [0.03, 0.05] if small else [0.04, 0.06]

    def error_table(ages, rates):
        return Call(
            f"error_table ages={ages[0]}..{ages[-1]}x{len(ages)} rates={rates}",
            "lifeannuity.error_table",
            lambda: lifeannuity.approximation_error_table(table, ages, rates),
            counts=lambda r: {"lifeannuity.error_table_cells": len(ages) * len(rates)},
        )

    cases.append([
        error_table(ages, rates),
        error_table(ages[::-1], rates),
        error_table(ages, rates[::-1]),
        error_table(ages[::-1], rates[::-1]),
    ])

    def value(age, rate):
        spec = lifeannuity.RateSpec(rate)
        return Call(f"annuity maty age={age} rate={rate}", "lifeannuity.annuity_value",
                    lambda: lifeannuity.annuity_value(table, age, spec))

    def joint(x, y, rate):
        spec = lifeannuity.RateSpec(rate)
        return Call(f"joint maty ages={x},{y} rate={rate}", "lifeannuity.joint",
                    lambda: lifeannuity.joint_annuity_value(table, x, table, y, spec))

    cases.append([value(30, 0.05), value(40, 0.04), value(25, 0.06)])
    cases.append([joint(30, 40, 0.05), joint(40, 30, 0.05), joint(35, 45, 0.04)])
    return cases


def float_numeric(small: bool) -> list[list]:
    """Float and numpy kernels: simulation, duration, float band, tours, conics."""
    from demoivre import binomlimit, conics, exactnum, games, recurrence

    cases = []
    sim_n, sim_c = 3600, 1.0
    sim_spec = binomlimit.TrialSpec(sim_n)
    exact_sim_band = []  # computed once, on first check

    def simulate(reps, seed):
        def check(result, _):
            if not exact_sim_band:
                exact_sim_band.append(float(binomlimit.exact_central_probability(sim_spec, sim_c)))
            if abs(result - exact_sim_band[0]) > 6 * math.sqrt(0.25 / reps):
                return f"simulated band {result!r} is more than 6 sigma from the exact {exact_sim_band[0]!r}"
            return None

        return Call(f"simulate n={sim_n} c={sim_c} reps={reps} seed={seed}", "binomlimit.simulate",
                    lambda: binomlimit.simulate_band(sim_spec, sim_c, reps, seed), check,
                    lambda r: {"binomlimit.simulate_reps": reps})

    reps = 10_000 if small else 500_000
    cases.append([simulate(reps, seed) for seed in (1733, 1718, 1738, 1756)])

    def duration(b, p, n):
        spec = recurrence.DurationSpec(b, p, n)
        walk_key = f"duration walk b={b} p={p} n={n}"

        def check(result, results):
            walk = results.get(walk_key)
            if walk is None:
                return "no walk result to check the closed form against"
            if not _rel_close(result, walk, 1e-9):
                return f"closed form {result!r} disagrees with the walk {walk!r}"
            return None

        return [
            Call(walk_key, "recurrence.duration_walk", lambda: recurrence.duration_exceeds_exact(spec),
                 counts=lambda r: {"recurrence.duration_walk_state_steps": n * (2 * b - 1)}),
            Call(f"duration closed b={b} p={p} n={n}", "recurrence.duration_closed",
                 lambda: recurrence.duration_exceeds_closed(spec), check),
        ]

    b, n = (50, 100) if small else (50, 3000)
    # walk and closed form ride together: the walk is the closed form's oracle
    cases.append([duration(b, p, n) for p in (0.49, 0.51)])

    def float_band(n, c):
        spec = binomlimit.TrialSpec(n)

        def check(result, _):
            limit = math.erf(c / math.sqrt(2))
            if abs(result - limit) > 2 / math.sqrt(n):
                return f"float band {result!r} is further than 2/sqrt(n) from its limit {limit!r}"
            return None

        return Call(f"float_band n={n} c={c}", "binomlimit.float_band",
                    lambda: binomlimit.exact_central_probability(spec, c), check)

    band_n = 5000 if small else 1_000_000
    cases.append([float_band(band_n, c) for c in (1.0, 2.0, 3.0)])

    def limit(c):
        def check(result, _):
            if abs(result - math.erf(c / math.sqrt(2))) > 1e-12:
                return f"limit {result!r} disagrees with erf"
            return None

        return Call(f"limit c={c}", "binomlimit.limit", lambda: binomlimit.limit_central_probability(c), check)

    cases.append([limit(c) for c in (1.0, 2.0, 3.0)])

    def tour(start):
        def check(result, _):
            verdict = games.validate_tour(result.squares)
            if not verdict.valid:
                return f"tour from {start} fails validation: {verdict.reason} at {verdict.index}"
            return None

        return Call(f"tour start={start}", "games.find_tour", lambda: games.find_tour(start), check)

    # d4 = (3, 3) is left out: its search backtracks for 0.5-0.7 s, longer than the rest of the pass
    starts = [(0, 0), (0, 7)] if small else [(f, r) for f in range(8) for r in range(8) if (f, r) != (3, 3)]
    cases.extend([tour(start)] for start in starts)

    def inverse_square(a, b, samples):
        ellipse = conics.Ellipse(a, b)

        def check(result, _):
            if result[1] > 1e-9:
                return f"force * FM^2 deviates by {result[1]!r} along the orbit"
            return None

        return Call(f"inverse_square a={a} b={b} samples={samples}", "conics.inverse_square",
                    lambda: conics.inverse_square_constant(ellipse, samples), check)

    samples = 90 if small else 720
    cases.append([inverse_square(a, b, samples) for a, b in ((2.0, 1.0), (3.0, 2.0), (5.0, 4.0))])

    def solve(coeffs, init, n):
        rec = recurrence.Recurrence(coeffs, init)
        solved = []

        def run():
            solved.clear()
            solved.append(recurrence.solve_recurrence(rec))
            return solved[0]

        def evaluate():
            return recurrence.eval_closed_form(solved[0], n)

        def check(result, _):
            terms = list(init)
            while len(terms) <= n:
                terms.append(sum(b * terms[-i - 1] for i, b in enumerate(coeffs)))
            if not _rel_close(result, terms[n], 1e-9):
                return f"closed form term {result!r} disagrees with iteration {terms[n]!r}"
            return None

        key = f"recurrence {coeffs} {init}"
        return [Call(key, "recurrence.solve", run), Call(f"{key} n={n}", "recurrence.eval", evaluate, check)]

    recurrences = (((1.0, 1.0), (0.0, 1.0)), ((1.0, 1.0), (2.0, 1.0)), ((0.0, 1.0, 1.0), (3.0, 0.0, 2.0)))
    # solve and eval ride together: eval reads the closed form solve just made
    cases.append([solve(coeffs, init, 40 if small else 60) for coeffs, init in recurrences])

    power_n = 100 if small else 200_000
    cases.append([
        Call(f"power theta={theta} n={power_n}", "recurrence.power",
             lambda theta=theta: recurrence.demoivre_power(theta, power_n))
        for theta in (0.37, 1.1, 2.5)
    ])

    comb_n = 100 if small else 20_000
    cases.append([
        Call(f"binomial n={comb_n} k={k}", "exactnum.binomial",
             lambda k=k: exactnum.binomial_coefficient(comb_n, k))
        for k in (comb_n // 2, comb_n // 2 - comb_n // 20)
    ])
    return cases


KERNELS = {"exact_rational": exact_rational, "float_numeric": float_numeric}


def kernel_pass(cases: list[list], rng) -> list[tuple[int, list[Call]]]:
    """One pass: (case index, calls) for a variant of every case, shuffled (grouped calls stay in order)."""
    chosen = [(case, rng.choice(variants)) for case, variants in enumerate(cases)]
    rng.shuffle(chosen)
    return [(case, item if isinstance(item, list) else [item]) for case, item in chosen]


def all_calls(cases: list[list]):
    for variants in cases:
        for item in variants:
            yield from (item if isinstance(item, list) else [item])
