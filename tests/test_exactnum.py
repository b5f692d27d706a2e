import math
import random
from array import array
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    over_power,
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


def test_binomial_is_charged_its_bits_squared_and_its_sieve():
    # 10^18 choose 3 takes math.comb: no sieve, 179 bits
    assert binomial_coefficient(10**18, 3) == math.comb(10**18, 3)
    # j log2(e n / j) bits, the log rounded up to 1/64: 5 10^6 * 157 // 64 here
    bits = 12265625
    with pytest.raises(ValueError, match=f"^n = 10000000 is past the work budget: it costs {bits**2 // 12 + 2 * 10**10} units, "):
        binomial_coefficient(10**7, 5 * 10**6)
    with pytest.raises(ValueError, match="^n of 1329 bits is past the work budget: it costs at least 2"):
        binomial_coefficient(10**400, 10**200)


def test_over_power_rejects_a_base_below_one_and_a_negative_exponent():
    for base, exponent in [(0, 3), (-2, 3), (2, -1)]:
        with pytest.raises(ValueError, match="over_power requires base >= 1 and exponent >= 0"):
            over_power(6, base, exponent)


@st.composite
def over_powers(draw):
    base = draw(st.one_of(st.sampled_from([1, 2, 12, 10**16, 2**61 - 1]), st.integers(1, 10**20)))
    exponent = draw(st.integers(0, 80))
    # a shared factor base^t times a cofactor that may share part of the base again
    t = draw(st.integers(0, exponent + 3))
    numerator = draw(st.integers(-(10**30), 10**30)) * base**t
    return numerator, base, exponent


@settings(max_examples=300, deadline=None)
@given(over_powers())
@example((5, 12, 0))  # exponent 0
@example((0, 12, 7))  # numerator 0
@example((12**7, 12, 7))  # numerator = base^exponent
@example((-(12**9), 12, 7))  # a negative multiple of the denominator
@example((3**5 * 2**40 * 7, 12, 30))  # the base's primes at different depths
@example((10**16 * 10**5, 10**16, 4))
@example(((2**61 - 1) ** 3 * 5, 2**61 - 1, 64))
def test_over_power_matches_fraction(case):
    numerator, base, exponent = case
    value, expected = over_power(numerator, base, exponent), Fraction(numerator, base**exponent)
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    assert hash(value) == hash(expected) and value == expected
    step, expected_step = value * Fraction(base, 3) + 1, expected * Fraction(base, 3) + 1
    assert (step.numerator, step.denominator) == (expected_step.numerator, expected_step.denominator)


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


def test_sieve_against_trial_division(monkeypatch):
    # each order starts from an empty table: ascending calls grow it at every n,
    # descending ones slice the first call's table, shuffled ones do both
    primes = [p for p in range(2, 3001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    ascending = list(range(3001))
    shuffled = ascending[:]
    random.Random(3).shuffle(shuffled)
    for order in (ascending, ascending[::-1], shuffled):
        monkeypatch.setattr(exactnum, "_prime_table", (1, array("I")))
        for n in order:
            assert list(_primes_upto(n)) == primes[: bisect_right(primes, n)], n


def test_prime_table_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(exactnum, "_prime_table", (1, array("I")))
    for n in (100, exactnum.PRIME_TABLE_CAP, 70001, 3000):
        assert _primes_upto(n)[-1] <= n
        upto, table = exactnum._prime_table
        assert upto <= exactnum.PRIME_TABLE_CAP and table.itemsize * len(table) <= 32 * 1024
    assert exactnum._prime_table[0] == exactnum.PRIME_TABLE_CAP  # n = 70001 kept nothing


def test_binomial_from_a_shared_prime_table_matches_comb(monkeypatch):
    monkeypatch.setattr(exactnum, "_prime_table", (1, array("I")))
    calls = [(n, k) for n in (2999, 3000, 3600, 4096, 20000, 65537, 70001) for k in (n // 3, n // 2)]
    random.Random(7).shuffle(calls)
    for n, k in calls:
        assert _by_primes(n, min(k, n - k))
        assert binomial_coefficient(n, k) == math.comb(n, k), (n, k)


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
