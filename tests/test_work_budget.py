"""One work budget: each budgeted leaf accepts the largest input its cost fits and refuses one more,
checked at the charge, before any work."""

import math
import time
from fractions import Fraction

import pytest

from demoivre import binomlimit, cli, conics, exactnum, games, lifeannuity, recurrence, series
from demoivre.binomlimit import TrialSpec
from demoivre.exactnum import charge

from cli_cases import refusal


class Accepted(Exception):
    """Raised in place of the work once charge has accepted its cost."""


@pytest.fixture
def stop_at_charge(monkeypatch):
    """Make module's charge raise Accepted where the real one accepts, so no work runs."""

    def patch(module, at=None):
        """Stop at the first accepted charge, or at the first of the given name."""

        def checked(cost, name, value):
            charge(cost, name, value)
            if at in (None, name):
                raise Accepted(cost)

        monkeypatch.setattr(module, "charge", checked)

    return patch


def annuity_law(rate):
    return lambda omega: lifeannuity.annuity_value(lifeannuity.DeMoivreLaw(omega), 0, lifeannuity.RateSpec(rate))


# (leaf, module whose charge it calls, call of the value, the most it accepts)
BOUNDARIES = [
    ("num factorial --n", exactnum, exactnum.factorial, 100_000),
    ("num binom --n at k = n // 2", exactnum, lambda n: exactnum.binomial_coefficient(n, n // 2), 1538943),
    ("num binom --k at n = 10^18", exactnum, lambda k: exactnum.binomial_coefficient(10**18, k), 41331),
    ("games deck-odds --size", games, games.deck_match_odds, 100_000),
    ("binom simulate --reps", binomlimit, lambda reps: binomlimit.simulate_band(TrialSpec(100), 1.0, reps, 1), 10**7),
    # a c past every count makes the band 0..n, of width n + 1
    ("binom exact band width", binomlimit,
     lambda width: binomlimit.exact_central_probability(TrialSpec(width - 1), 1e308), 2 * 10**7),
    ("conic inverse-square --samples", conics,
     lambda samples: conics.inverse_square_constant(conics.Ellipse(2.0, 1.0), samples), 4 * 10**6),
    ("factor unity --n", recurrence, lambda n: recurrence.factor_unity(n, 1), 5 * 10**6),
    ("duration exact --b 4 --n", recurrence,
     lambda n: recurrence.duration_exceeds_exact(recurrence.DurationSpec(4, 0.5, n)), 3370786),
    ("annuity value --law at age 0, rate 0.05", lifeannuity, annuity_law(0.05), 24182),
    ("annuity value --law at age 0, rate 5e-324", lifeannuity, annuity_law(5e-324), 1585),
    ("series raise --coeffs 1,1 --power 2 --order", series,
     lambda order: series.raise_series(series.PowerSeries((1, 1)), 2, order), 995024),
    # x^p stays one term, so it is charged the order Fractions it prints, and 1/2's their den^p
    ("series raise --coeffs 1 --power = --order", series,
     lambda order: series.raise_series(series.PowerSeries((1,)), order, order), 995022),
    ("series raise --coeffs 1/2 --power = --order", series,
     lambda order: series.raise_series(series.PowerSeries((Fraction(1, 2),)), order, order), 106544),
    ("series revert --coeffs 1,1 --order", series,
     lambda order: series.revert_series(series.PowerSeries((1, 1)), order), 1727),
    ("series compose --f 1,1 --g 1,1 --order", series,
     lambda order: series.compose_series(series.PowerSeries((1, 1)), series.PowerSeries((1, 1)), order), 2468),
]


@pytest.mark.parametrize("leaf, module, call, most", BOUNDARIES, ids=[row[0] for row in BOUNDARIES])
def test_each_leaf_accepts_the_most_its_cost_fits_and_refuses_one_more(stop_at_charge, leaf, module, call, most):
    stop_at_charge(module)
    with pytest.raises(Accepted) as accepted:
        call(most)
    assert accepted.value.args[0] <= exactnum.WORK_BUDGET
    with pytest.raises(ValueError, match="is past the work budget"):
        call(most + 1)


def test_series_multinomial_is_charged_its_table_then_its_rows(stop_at_charge):
    # at power 2 the rows are the (degree - 2) // 2 + 1 pairs: 352941 of them, 17 * 50000 units each
    stop_at_charge(series, "rows")
    with pytest.raises(Accepted) as accepted:
        series.multinomial_coefficient_terms(705883, 2)
    assert accepted.value.args[0] == 50000 * 352941 * 17
    with pytest.raises(ValueError, match=refusal(50000 * 352942 * 17, "rows", 352942)):
        series.multinomial_coefficient_terms(705884, 2)
    # the counting table costs 8000 units a cell, (degree - power) min(power, degree - power) cells
    stop_at_charge(series, "degree")
    with pytest.raises(Accepted):
        series.multinomial_coefficient_terms(12247, 6123)
    with pytest.raises(ValueError, match=refusal(8000 * 6124 * 6124, "degree", 12248)):
        series.multinomial_coefficient_terms(12248, 6124)


@pytest.mark.parametrize("argv", [
    ["series", "revert", "--coeffs", "1,1", "--order", "100000"],
    ["series", "compose", "--f", "1,1", "--g", "1,1", "--order", "100000"],
    ["series", "raise", "--coeffs", "1,1", "--power", "2", "--order", "100000000"],
    ["series", "multinomial", "--degree", "400", "--power", "40"],
], ids=" ".join)
def test_series_past_the_budget_exit_before_any_product(argv):
    cli.build_parser()
    start = time.perf_counter()
    code, out, err = cli.dispatch(argv)
    assert time.perf_counter() - start < 0.05
    assert (code, out) == (3, "") and "is past the work budget" in err


def test_num_binom_past_the_budget_exits_before_the_sieve():
    start = time.perf_counter()
    code, out, err = cli.dispatch(["num", "binom", "--n", "10000000", "--k", "5000000"])
    assert time.perf_counter() - start < 0.05
    assert (code, out) == (3, "") and "n = 10000000 is past the work budget" in err


def test_sample_size_is_charged_its_predicted_n_past_an_uncharged_stretch(stop_at_charge):
    half, twentieth = Fraction(1, 2), Fraction(1, 20)
    # the normal approximation predicts n = pq (z/c)^2, 60 n^2 bits(d) units, d = 2 here:
    # 153659 at c = 1/400 is refused within a second, after the uncharged stretch to n = 5000
    start = time.perf_counter()
    with pytest.raises(ValueError, match=refusal(120 * 153659**2, "predicted n", 153659)):
        binomlimit.sample_size(half, Fraction(1, 400), twentieth)
    assert time.perf_counter() - start < 1
    # alpha/2 past the least double: z^2 is bounded by 2 ln(2/alpha)
    predicted = -(-Fraction(2 * math.log(2 * 10**400)) / 4 * 400 // 1)
    with pytest.raises(ValueError, match=refusal(120 * predicted**2, "predicted n", predicted)):
        binomlimit.sample_size(half, twentieth, Fraction(1, 10**400))
    # a large alpha can stop the scan long before its prediction, 113735 here: the stretch is not charged
    assert binomlimit.sample_size(half, Fraction(1, 1000), half) == 2
    # the scan's 38301 at c = 1/200 (1.6 s) is predicted as 38415, within the budget
    stop_at_charge(binomlimit)
    with pytest.raises(Accepted) as accepted:
        binomlimit.sample_size(half, Fraction(1, 200), twentieth)
    assert accepted.value.args[0] == 120 * 38415**2
