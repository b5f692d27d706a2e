"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Criterion 3 compares the inclusive exact band with the continuity-corrected
limit, the limit integral over the band widened by half a count at each
end.  Against the uncorrected limit 0.682688 an inclusive band is off by
the continuity correction, about 2*phi(1)/sqrt(n) (0.0236 at n = 400,
0.0080 at n = 3600); no fixed bound below that gap can hold for the
documented band, and any bound above it cannot see a missing endpoint.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

from demoivre import binomlimit, cli, conics, exactnum, games, lifeannuity, recurrence, series
from demoivre.binomlimit import TrialSpec
from demoivre.lifeannuity import DeMoivreLaw, RateSpec
from demoivre.recurrence import DurationSpec, Recurrence

from cli_cases import SAMPLE_INVOCATIONS, rebuild_argv

HALF = Fraction(1, 2)


def report(number, description, checks):
    try:
        checks()
    except AssertionError as exc:
        detail = str(exc).splitlines()[0] if str(exc) else "assertion failed"
        print(f"[FAIL] criterion {number:2d}: {description} -- {detail}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def test_criterion_01_limit_band_probability():
    def checks():
        limit = binomlimit.limit_central_probability(1.0)
        assert abs(limit - 0.682688) <= 1e-5, f"limit(1) = {limit}"
        converted = float(exactnum.probability_from_odds(exactnum.Odds(28, 13)))
        assert abs(converted - 0.68293) < 5e-6, f"28:13 -> {converted}"
        assert abs(converted - limit) <= 5e-3, f"|{converted} - {limit}|"

    report(1, "limiting band probability and the 28:13 odds conversion", checks)


def test_criterion_02_remark1_fractions():
    def checks():
        assert binomlimit.remark1_fraction(3600) == Fraction(1, 120)
        # the 1756 printing reads "the 260th part" for n = 14,400; the
        # arithmetic gives 240 and that misprint is why 240 is asserted
        assert binomlimit.remark1_fraction(14_400) == Fraction(1, 240)
        assert binomlimit.remark1_fraction(1_000_000) == Fraction(1, 2000)

    report(2, "band fractions 1/120, 1/240 (printed as 260), 1/2000", checks)


def test_criterion_03_exact_vs_limit_convergence():
    def checks():
        start = time.perf_counter()
        exact = {
            n: float(binomlimit.exact_central_probability(TrialSpec(n, HALF), 1))
            for n in (100, 400, 1600, 3600)
        }
        errors = {n: abs(exact[n] - 0.682688) for n in exact}
        ordered = [errors[n] for n in (100, 400, 1600, 3600)]
        assert all(a > b for a, b in zip(ordered, ordered[1:])), f"not decreasing: {ordered}"
        assert time.perf_counter() - start < 10, "runtime over 10 s"
        # For these n the half-width sqrt(n)/2 is a whole number, so the
        # inclusive band widened by half a count at each end has half-width
        # (sqrt(n) + 1)/2, i.e. multiplier c' = 1 + 1/sqrt(n) exactly.
        # Uspensky (1937), Introduction to Mathematical Probability, ch. VII:
        # for npq >= 25 the continuity-corrected normal approximation has
        # remainder |Omega| < (0.13 + 0.18|p - q|)/(npq) + exp(-(3/2)sqrt(npq)),
        # and the skewness term vanishes at p = q.  With npq = n/4 that is
        # 0.52/n + exp(-0.75 sqrt(n)) < 1/n for every n >= 100, while one
        # boundary term, about 2*phi(1)/sqrt(n), exceeds 1/n there.
        violations = []
        for n, value in exact.items():
            gap = abs(value - binomlimit.limit_central_probability(1 + 1 / math.sqrt(n)))
            if gap > 1 / n:
                violations.append(f"|exact({n}) - limit(1 + 1/sqrt({n}))| = {gap:.3g} > 1/{n}")
        assert not violations, "; ".join(violations)

    report(3, "exact-vs-limit convergence bounds at n = 400 and 3600", checks)


def test_criterion_04_central_term_approximation():
    def checks():
        # error normalized by the approximate density: the Stirling-order
        # remainder gives exact/approx = 1 - 1/(4n) + O(n^-2)
        for n in (100, 1000, 10_000):
            exact = math.comb(n, n // 2) / 2**n
            approx = binomlimit.demoivre_term(n, 0)
            rel = abs(approx - exact) / approx
            assert rel <= 1 / (4 * n), f"n={n}: {rel} > {1/(4*n)}"

    report(4, "central-term approximation within the 1/(4n) Stirling bound", checks)


def test_criterion_05_duration_of_play():
    def checks():
        start = time.perf_counter()
        for b in (2, 4, 6, 8, 10):
            for p in (0.27, 0.5, 0.73):
                weights = recurrence.duration_weights(b, p)
                assert abs(math.fsum(c for _, c in weights) - 1.0) <= 1e-12, (b, p)
                for n in range(0, 201, 2):
                    spec = DurationSpec(b, p, n)
                    closed = recurrence.duration_exceeds_closed(spec)
                    exact = recurrence.duration_exceeds_exact(spec)
                    assert abs(closed - exact) <= 1e-10, (b, p, n, closed - exact)
        for n in range(0, 60, 2):
            assert recurrence.duration_exceeds_closed(DurationSpec(2, 0.5, n)) == 0.5 ** (n // 2)
        assert time.perf_counter() - start < 5, "runtime over 5 s"

    report(5, "duration closed form vs absorbing-walk oracle on the full grid", checks)


def test_criterion_06_recurrent_series():
    def checks():
        rng = random.Random(1730)
        built = 0
        while built < 50:
            order = rng.randrange(1, 5)
            roots = []
            while len(roots) < order:
                r = rng.uniform(-1.5, 1.5)
                if all(abs(r - other) > 0.12 for other in roots):
                    roots.append(r)
            poly = [1.0]
            for r in roots:
                poly = [a - r * b for a, b in zip(poly + [0.0], [0.0] + poly)]
            coeffs = tuple(-c for c in poly[1:])
            if coeffs[-1] == 0:
                continue
            rec = Recurrence(coeffs, tuple(rng.uniform(-2, 2) for _ in range(order)))
            cf = recurrence.solve_recurrence(rec)
            expected = recurrence.iterate_terms(rec, 51)
            for n in range(51):
                tol = 1e-9 * max(1.0, abs(expected[n]))
                assert abs(recurrence.eval_closed_form(cf, n) - expected[n]) <= tol
            direct = math.fsum(expected[:41])
            assert abs(recurrence.partial_sum(rec, 40) - direct) <= 1e-9 * max(1.0, abs(direct))
            built += 1
        theta = math.pi / 7
        cos_rec = Recurrence((2 * math.cos(theta), -1.0), (1.0, math.cos(theta)))
        cos_cf = recurrence.solve_recurrence(cos_rec)
        for n in range(21):
            assert abs(recurrence.eval_closed_form(cos_cf, n) - math.cos(n * theta)) <= 1e-10

    report(6, "closed forms, partial sums and the multiple-angle recurrence", checks)


def test_criterion_07_factorization_and_power_identity():
    def checks():
        for n in range(1, 25):
            for sign in (1, -1):
                fac = recurrence.factor_unity(n, sign)
                coeffs = fac.expand()
                target = [0.0] * (n + 1)
                target[0] = 1.0 if sign == 1 else -1.0
                target[-1] = 1.0
                worst = max(abs(c - t) for c, t in zip(coeffs, target))
                assert worst <= 1e-9, (n, sign, worst)
        rng = random.Random(1722)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi)
            n = rng.randrange(0, 31)
            cos_n, sin_n = recurrence.demoivre_power(theta, n)
            acc = complex(1, 0)
            base = complex(math.cos(theta), math.sin(theta))
            for _ in range(n):
                acc *= base
            assert abs(acc - complex(cos_n, sin_n)) <= 1e-10

    report(7, "unity factorizations to degree 24 and the power identity", checks)


def test_criterion_08_series_algebra():
    def checks():
        rng = random.Random(1697)
        for _ in range(25):
            coeffs = []
            for i in range(8):
                num = rng.randrange(-5, 6)
                if i == 0:
                    while num == 0:
                        num = rng.randrange(-5, 6)
                coeffs.append(Fraction(num, rng.randrange(1, 4)))
            s = series.series_from_rationals(coeffs)
            t = series.revert_series(s, 8)
            a1, a2 = s.coefficient(1), s.coefficient(2)
            assert t.coefficient(1) == 1 / a1
            assert t.coefficient(2) == -a2 / a1**3
            back = series.compose_series(s, t, 8)
            assert back.coefficient(1) == 1
            for d in range(2, 9):
                assert back.coefficient(d) == 0  # exactly zero, rational mode
        terms = series.multinomial_coefficient_terms(4, 2)
        assert terms == [((1, 3), 2), ((2, 2), 1)]  # ac twice, bb once

    report(8, "reversion coefficients, exact round-trips, multinomial parts", checks)


def test_criterion_09_annuities():
    def checks():
        table = lifeannuity.reconstruct_maty_table()
        grid = lifeannuity.approximation_error_table(table, [50], [0.05])
        assert 2.5 <= grid[0][0] <= 5.5, f"age-50/5% entry = {grid[0][0]:.3f}"
        ages = list(range(20, 71, 5))
        full = lifeannuity.approximation_error_table(table, ages, [0.03, 0.05, 0.07])
        for row in full:
            for age, cell in zip(ages, row):
                if age <= 30:
                    assert cell < 0, f"age {age}: {cell:.3f} not negative"
                else:
                    assert cell > 0, f"age {age}: {cell:.3f} not positive"
        law = DeMoivreLaw(86)
        for age in range(20, 81):
            n = 86 - age
            assert lifeannuity.annuity_value(law, age, RateSpec(0.0)) == (n - 1) / 2
        # summation-definition agreement on the full grid
        for age in ages:
            for rate in (0.03, 0.05, 0.07):
                v = Fraction(1) / (1 + Fraction(rate))
                total = Fraction(0)
                for t in range(1, 86 - age):
                    total += v**t * lifeannuity.survival_probability(law, age, t)
                assert abs(lifeannuity.annuity_value(law, age, RateSpec(rate)) - float(total)) <= 1e-12

    report(9, "error-table band and signs, zero-interest arithmetic series", checks)


def test_criterion_10_exact_combinatorics():
    def checks():
        assert exactnum.factorial(32) // 10**28 == 26_313_083
        for n in range(1, 65):
            assert exactnum.factorial(n) == n * exactnum.factorial(n - 1)
            assert sum(exactnum.binomial_coefficient(n, k) for k in range(n + 1)) == 2**n
            for k in range(0, n + 1, max(1, n // 7)):
                assert exactnum.binomial_coefficient(n, k) == exactnum.binomial_coefficient(n, n - k)

    report(10, "32! magnitude and factorial/binomial identities to n = 64", checks)


def test_criterion_11_conics():
    def checks():
        rng = random.Random(1705)
        for _ in range(10):
            b = rng.uniform(1.0, 10.0)
            a = rng.uniform(b, 10.0)
            e = conics.Ellipse(a, b)
            for i in range(720):
                theta = 2 * math.pi * i / 720
                product, halfdiam_sq = conics.focal_product(e, theta)
                assert abs(product - halfdiam_sq) <= 1e-12 * halfdiam_sq
            _, deviation = conics.inverse_square_constant(e, 360)
            assert deviation <= 1e-9
        constant, deviation = conics.inverse_square_constant(conics.Ellipse(2.0, 1.0), 360)
        assert abs(constant - 2.0) <= 1e-9 and deviation <= 1e-9

    report(11, "focal-product identity and force * FM^2 constancy", checks)


def test_criterion_12_monte_carlo(monkeypatch):
    def checks():
        spec = TrialSpec(3600, HALF)
        first = binomlimit.simulate_band(spec, 1.0, 10_000, seed=1733)
        assert 0.67 <= first <= 0.695, f"empirical band {first}"
        assert binomlimit.simulate_band(spec, 1.0, 10_000, seed=1733) == first
        # 10,000 reps are 3 chunks: the thread count is min(os.cpu_count(), 3)
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert binomlimit.simulate_band(spec, 1.0, 10_000, seed=1733) == first

    report(12, "seeded Monte Carlo band, bit-identical across reruns/threads", checks)


def test_criterion_13_games():
    def checks():
        start = time.perf_counter()
        for f in range(8):
            for r in range(8):
                tour = games.find_tour((f, r))
                assert tour.squares[0] == (f, r)
                assert games.validate_tour(tour.squares).valid
        assert time.perf_counter() - start < 64, "tours over 64 s total"
        base = list(games.find_tour((0, 0)).squares)
        for i in range(64):
            for file in range(8):
                for rank in range(8):
                    if (file, rank) == base[i]:
                        continue
                    mutated = list(base)
                    mutated[i] = (file, rank)
                    assert not games.validate_tour(mutated).valid, (i, file, rank)

    report(13, "all 64 tour starts and exhaustive single-square mutations", checks)


def test_criterion_14_cli():
    def checks():
        code, out, _ = cli.dispatch(["binom", "remark1", "--n", "3600", "--format", "json"])
        assert code == 0 and json.loads(out)["result"] == "1/120"
        code, out, _ = cli.dispatch(["duration", "closed", "--b", "2", "--p", "0.5", "--n", "4"])
        assert code == 0 and float(json.loads(out)["result"]) == 0.25
        code, out, _ = cli.dispatch(
            ["annuity", "error-table", "--maty", "--ages", "50", "--rates", "0.05"]
        )
        cell = float(json.loads(out)["result"]["percent"][0][0])
        assert code == 0 and 2.5 <= cell <= 5.5
        for argv in SAMPLE_INVOCATIONS:
            full = argv + ["--format", "json"]
            code1, out1, _ = cli.dispatch(full)
            code2, out2, _ = cli.dispatch(full)
            assert code1 == code2 == 0 and out1 == out2, argv
            payload = json.loads(out1)
            replay = json.loads(cli.dispatch(rebuild_argv(payload))[1])
            assert replay["result"] == payload["result"], argv
        tour_payload = json.loads(cli.dispatch(["games", "tour", "--start", "e4"])[1])
        verdict = json.loads(
            cli.dispatch(["games", "validate", "--squares", tour_payload["result"]])[1]
        )
        assert verdict["result"]["valid"] is True

    report(14, "CLI example invocations, JSON round-trips, byte determinism", checks)
