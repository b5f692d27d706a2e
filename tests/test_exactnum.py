import math
import random
from fractions import Fraction

import pytest

from demoivre import exactnum
from demoivre.exactnum import (
    Odds,
    _by_primes,
    _primes_upto,
    binomial_coefficient,
    charge,
    exact_input,
    factorial,
    odds_from_probability,
    probability_from_odds,
)


def pascal_row(n):
    """Row-by-row addition oracle, independent of math.comb."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def test_exact_input_takes_a_float_as_the_decimal_it_prints_as():
    assert exact_input(0.3, "p") == Fraction(3, 10) != Fraction(0.3)
    assert exact_input(5e-324, "p") == Fraction(5, 10**324)
    assert float(exact_input(0.1 + 0.2, "p")) == 0.1 + 0.2
    assert exact_input(7, "p") == 7 and exact_input(Fraction(2, 3), "p") == Fraction(2, 3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^alpha must be finite, got {bad!r}$"):
            exact_input(bad, "alpha")


def test_charge_names_value_and_cost_past_sys_maxsize_by_their_bits(monkeypatch):
    monkeypatch.setattr(exactnum, "WORK_BUDGET", 10)
    charge(10, "n", 10**5000)
    with pytest.raises(ValueError, match="^n = 11 is past the work budget: it costs 11 units, the budget is 10$"):
        charge(11, "n", 11)
    with pytest.raises(ValueError, match="^n = 9223372036854775807 is past the work budget: "
                                         "it costs 9223372036854775807 units, the budget is 10$"):
        charge(9223372036854775807, "n", 9223372036854775807)
    with pytest.raises(ValueError, match=r"^n of 64 bits is past the work budget: it costs at least 2\^63 units, the budget is 10$"):
        charge(9223372036854775808, "n", 9223372036854775808)
    with pytest.raises(ValueError, match=r"^n of 16610 bits is past the work budget: "
                                         r"it costs at least 2\^33219 units, the budget is 10$"):
        charge(10**10000, "n", 10**5000)


def test_factorial_is_charged_30_n_squared():
    assert exactnum.WORK_BUDGET == 30 * 100_000**2
    with pytest.raises(ValueError, match="^n = 100001 is past the work budget: it costs 300006000030 units, "):
        factorial(100_001)


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(5) == 120
    # printed as 26,313,083 x 10^28 in the 1718 preface discussion
    assert factorial(32) // 10**28 == 26313083


def test_factorial_recursion():
    for n in range(1, 40):
        assert factorial(n) == n * factorial(n - 1)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_examples():
    assert binomial_coefficient(4, 2) == 6
    for n in (0, 1, 7, 64):
        assert binomial_coefficient(n, 0) == 1
    assert binomial_coefficient(10, -1) == 0
    assert binomial_coefficient(10, 11) == 0


def test_binomial_against_pascal_oracle():
    row = pascal_row(100)
    assert binomial_coefficient(100, 50) == row[50]
    assert [binomial_coefficient(100, k) for k in range(101)] == row


def test_binomial_symmetry_and_row_sums():
    for n in range(65):
        assert sum(binomial_coefficient(n, k) for k in range(n + 1)) == 2**n
        for k in range(n + 1):
            assert binomial_coefficient(n, k) == binomial_coefficient(n, n - k)


def edge_and_random_ks(n, rng, count=6):
    return [-1, 0, 1, n // 2, n - 1, n, n + 1, *(rng.randrange(n + 1) for _ in range(count))]


def comb_or_zero(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


@pytest.mark.parametrize("n", [20, 52, 1000, 3000, 4096, 20000])
def test_binomial_matches_comb_on_both_routes(n):
    rng = random.Random(n)
    ks = edge_and_random_ks(n, rng)
    assert _by_primes(n, n // 2) == (n >= 3000)  # the central term takes the prime route from here
    for k in ks:
        assert binomial_coefficient(n, k) == comb_or_zero(n, k), (n, k)


def test_binomial_route_switch_points():
    # each side of the switch at n = 20000, where it lies at 12 * 141 + 300 = 1992
    assert not _by_primes(20000, 1991) and _by_primes(20000, 1992)
    for k in (1991, 1992, 20000 - 1992):
        assert binomial_coefficient(20000, k) == math.comb(20000, k)
    assert not _by_primes(20, 7) and not _by_primes(52, 5)  # the CLI's samples stay on math.comb


def test_prime_route_matches_comb_at_every_size(monkeypatch):
    monkeypatch.setattr(exactnum, "_by_primes", lambda n, j: True)
    for n in range(0, 130):
        for k in range(-1, n + 2):
            assert binomial_coefficient(n, k) == comb_or_zero(n, k), (n, k)
    rng = random.Random(5)
    for n in (997, 1024, 2**12 + 1, 7919):  # primes, a power of two and a neighbour of one
        for k in edge_and_random_ks(n, rng, 3):
            assert binomial_coefficient(n, k) == comb_or_zero(n, k), (n, k)


def test_sieve_against_trial_division():
    primes = [p for p in range(2, 3000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for n in (0, 1, 2, 3, 4, 8, 9, 24, 25, 26, 120, 121, 2999):
        assert _primes_upto(n) == [p for p in primes if p <= n]


def test_odds_examples():
    assert odds_from_probability(Fraction(1, 2)) == Odds(1, 1)
    assert odds_from_probability(Fraction(28, 41)) == Odds(28, 13)
    assert odds_from_probability(Fraction(369, 370)) == Odds(369, 1)


def test_odds_edge_probabilities():
    assert odds_from_probability(Fraction(0)) == Odds(0, 1)
    assert odds_from_probability(Fraction(1)) == Odds(1, 0)


def test_odds_reduction_and_validation():
    assert Odds(28, 14) == Odds(2, 1)
    with pytest.raises(ValueError):
        Odds(0, 0)
    with pytest.raises(ValueError):
        Odds(-1, 2)
    with pytest.raises(ValueError):
        odds_from_probability(Fraction(3, 2))


def test_probability_odds_roundtrip():
    rng = random.Random(17)
    for _ in range(200):
        den = rng.randrange(1, 10_000)
        num = rng.randrange(0, den + 1)
        p = Fraction(num, den)
        assert probability_from_odds(odds_from_probability(p)) == p
