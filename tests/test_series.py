import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demoivre.series import (
    PowerSeries,
    compose_series,
    identity_series,
    multinomial_coefficient_terms,
    multiply_series,
    raise_series,
    revert_series,
    series_from_rationals,
)


def zero_like(sample):
    return 0.0 if isinstance(sample, float) else Fraction(0)


# The series kernels as they were before the integer kernels: every product
# and sum on the coefficients themselves, Fractions included.  Kept as the
# oracles that the integer kernels (same Fractions) are checked against.


def multiply_oracle(f, g, order):
    zero = zero_like(f.coefficients[0])
    out = [zero] * order
    for i, a in enumerate(f.coefficients, start=1):
        if i >= order:
            break
        for j, b in enumerate(g.coefficients, start=1):
            d = i + j
            if d > order:
                break
            out[d - 1] += a * b
    return PowerSeries(tuple(out))


def multinomial_oracle(m, p):
    if p < 1:
        raise ValueError("power must be >= 1")
    if m < p:
        return []
    out = []

    def descend(remaining, parts_left, max_part, acc):
        if parts_left == 0:
            if remaining == 0:
                out.append(tuple(reversed(acc)))
            return
        lo = max(1, remaining - max_part * (parts_left - 1))
        hi = min(max_part, remaining - (parts_left - 1))
        for part in range(hi, lo - 1, -1):
            descend(remaining - part, parts_left - 1, part, acc + [part])

    descend(m, p, m, [])
    results = []
    for exponents in sorted(out):
        count = math.factorial(p)
        mult = {}
        for v in exponents:
            mult[v] = mult.get(v, 0) + 1
        for k in mult.values():
            count //= math.factorial(k)
        results.append((exponents, count))
    return results


def raise_oracle(s, p, order):
    if p < 1:
        raise ValueError("power must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    zero = zero_like(s.coefficients[0])
    out = [zero] * order
    for m in range(p, order + 1):
        total = zero
        for exponents, count in multinomial_oracle(m, p):
            prod = count
            for e in exponents:
                prod = prod * s.coefficient(e)
            total += prod
        out[m - 1] = total
    return PowerSeries(tuple(out))


def compose_oracle(f, g, order):
    zero = zero_like(f.coefficients[0])
    out = [zero] * order
    g_pow = g.truncate(order)
    for j in range(1, order + 1):
        fj = f.coefficient(j)
        if fj != 0:
            for d in range(1, order + 1):
                out[d - 1] += fj * g_pow.coefficient(d)
        if j < order:
            g_pow = multiply_oracle(g_pow, g, order)
    return PowerSeries(tuple(out))


def revert_oracle(s, order):
    a1 = s.coefficient(1)
    if a1 == 0:
        raise ValueError("series with zero linear coefficient is not invertible")
    one = 1.0 if isinstance(a1, float) else Fraction(1)
    zero = zero_like(a1)
    b = [one / a1]
    powers = [b]
    for m in range(2, order + 1):
        powers.append([])
        residual = zero + a1 * zero
        for j in range(2, m + 1):
            row, lower = powers[j - 1], powers[j - 2]
            while len(row) < m:
                d = len(row) + 1
                entry = zero
                for i in range(1, d):
                    entry += lower[i - 1] * b[d - i - 1]
                row.append(entry)
            aj = s.coefficient(j)
            if aj != 0:
                residual += aj * row[m - 1]
        b.append(-residual / a1)
    return PowerSeries(tuple(b))


def repeated_multiplication(s, p, order):
    """Oracle: s^p by plain truncated polynomial products."""
    out = s.truncate(order)
    for _ in range(p - 1):
        out = multiply_series(out, s, order)
    return out


def revert_by_composition(s, order):
    """The reversion revert_series ran before it kept the powers of t.

    At every order m the partial inverse b_1..b_{m-1} is composed with s
    afresh and b_m is read off the degree-m residual: O(order^4) products.
    """
    a1 = s.coefficient(1)
    if a1 == 0:
        raise ValueError("series with zero linear coefficient is not invertible")
    one = 1.0 if isinstance(a1, float) else Fraction(1)
    zero = 0.0 if isinstance(a1, float) else Fraction(0)
    b = [one / a1]
    for m in range(2, order + 1):
        partial = PowerSeries(tuple(b + [zero]))
        residual = compose_series(s.truncate(m), partial, m).coefficient(m)
        b.append(-residual / a1)
    return PowerSeries(tuple(b))


def random_rational_series(rng, order, nonzero_linear=False):
    coeffs = []
    for i in range(order):
        num = rng.randrange(-6, 7)
        if i == 0 and nonzero_linear:
            while num == 0:
                num = rng.randrange(-6, 7)
        coeffs.append(Fraction(num, rng.randrange(1, 5)))
    return series_from_rationals(coeffs)


def test_raise_monomial():
    s = series_from_rationals([1])
    assert raise_series(s, 3, 5).coefficients == tuple(Fraction(v) for v in (0, 0, 1, 0, 0))


def test_raise_quadratic_degree4_coefficient():
    # (ax + bx^2 + cx^3 + dx^4)^2: the x^4 coefficient collects ac twice and bb once
    a, b, c, d = Fraction(3), Fraction(5), Fraction(7), Fraction(11)
    s = series_from_rationals([a, b, c, d])
    sq = raise_series(s, 2, 4)
    assert sq.coefficient(4) == 2 * a * c + b * b
    assert sq.coefficient(2) == a * a
    assert sq.coefficient(3) == 2 * a * b


def test_raise_matches_repeated_multiplication():
    rng = random.Random(32)
    for _ in range(12):
        s = random_rational_series(rng, 8)
        assert raise_series(s, 3, 8).coefficients == repeated_multiplication(s, 3, 8).coefficients


def test_raise_matches_multiplication_all_small_powers():
    rng = random.Random(46)
    for p in range(1, 6):
        s = random_rational_series(rng, 10)
        assert raise_series(s, p, 10).coefficients == repeated_multiplication(s, p, 10).coefficients


def test_multinomial_terms_examples():
    assert multinomial_coefficient_terms(4, 2) == [((1, 3), 2), ((2, 2), 1)]
    assert multinomial_coefficient_terms(2, 2) == [((1, 1), 1)]
    assert multinomial_coefficient_terms(1, 2) == []


def test_multinomial_terms_match_the_oracle_in_order():
    for m in range(13):
        for p in range(1, 9):
            assert multinomial_coefficient_terms(m, p) == multinomial_oracle(m, p), (m, p)


def test_multinomial_terms_past_the_recursion_limit():
    # the enumeration recursed once per part: p = 1000 was a raw RecursionError
    assert multinomial_coefficient_terms(5000, 5000) == [((1,) * 5000, 1)]
    assert multinomial_coefficient_terms(5001, 5000) == [((1,) * 4999 + (2,), 5000)]


def test_multinomial_counts_sum_to_all_ones_expansion():
    # setting every letter to 1 turns the multiset counts into the x^m
    # coefficient of (x + x^2 + ... )^p
    for m, p in ((6, 3), (8, 4), (5, 2)):
        ones = series_from_rationals([1] * m)
        expanded = raise_series(ones, p, m)
        total = sum(count for _, count in multinomial_coefficient_terms(m, p))
        assert total == expanded.coefficient(m)


def test_revert_identity():
    s = series_from_rationals([1])
    assert revert_series(s, 4).coefficients == identity_series(4).coefficients


def test_revert_leading_coefficients():
    rng = random.Random(98)
    for _ in range(10):
        s = random_rational_series(rng, 5, nonzero_linear=True)
        t = revert_series(s, 5)
        a1, a2 = s.coefficient(1), s.coefficient(2)
        assert t.coefficient(1) == 1 / a1
        assert t.coefficient(2) == -a2 / a1**3


def test_revert_x_plus_x_squared():
    s = series_from_rationals([1, 1])
    t = revert_series(s, 6)
    assert compose_series(s, t, 6).coefficients == identity_series(6).coefficients


def test_compose_examples():
    g = series_from_rationals([1, 1])
    f = series_from_rationals([1])
    assert compose_series(f, g, 4).coefficients == g.truncate(4).coefficients
    f2 = series_from_rationals([0, 1])  # x^2
    assert compose_series(f2, g, 4).coefficients == tuple(Fraction(v) for v in (0, 1, 2, 1))


def test_reversion_roundtrip_exact_rationals():
    rng = random.Random(1730)
    for _ in range(25):
        s = random_rational_series(rng, 8, nonzero_linear=True)
        t = revert_series(s, 8)
        assert compose_series(s, t, 8).coefficients == identity_series(8).coefficients
    for order in (9, 10):
        s = random_rational_series(rng, order, nonzero_linear=True)
        t = revert_series(s, order)
        assert compose_series(s, t, order).coefficients == identity_series(order).coefficients


def test_double_reversion_is_identity_when_monic():
    rng = random.Random(5)
    for _ in range(10):
        s = random_rational_series(rng, 7)
        s = PowerSeries((Fraction(1),) + s.coefficients[1:])
        assert revert_series(revert_series(s, 7), 7).coefficients == s.coefficients


def test_revert_rejects_zero_linear_term():
    s = series_from_rationals([0, 1])
    with pytest.raises(ValueError):
        revert_series(s, 4)


@pytest.mark.parametrize("order", [0, -1, -2])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda s, order: raise_series(s, 2, order),
        revert_series,
        lambda s, order: compose_series(s, s, order),
        lambda s, order: multiply_series(s, s, order),
        PowerSeries.truncate,
    ],
    ids=["raise", "revert", "compose", "multiply", "truncate"],
)
def test_series_operations_refuse_order_below_one(kernel, order):
    with pytest.raises(ValueError, match="order must be >= 1"):
        kernel(series_from_rationals([0, 1, 2]), order)


small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def assert_revert_matches_composition_route(s, order):
    try:
        expected = revert_by_composition(s, order).coefficients
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            revert_series(s, order)
        return
    assert revert_series(s, order).coefficients == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=10).map(series_from_rationals), st.integers(1, 12))
@example(series_from_rationals([1]), 1)  # order 1
@example(series_from_rationals([-3, 0, 0, 2]), 9)  # negative a_1, zeros, order above the input length
@example(series_from_rationals([0, 1]), 4)  # not invertible
def test_revert_matches_composition_route_bit_for_bit(s, order):
    assert_revert_matches_composition_route(s, order)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda size: st.tuples(
    st.lists(small_rationals, min_size=size, max_size=size).map(series_from_rationals), st.integers(size + 1, 15))))
@example((series_from_rationals([2, 0, 0, 0, 0]), 15))  # zeros after a_1: their rows are still built
def test_revert_of_a_short_series_to_a_high_order_matches_composition_route(case):
    s, order = case
    assert s.order < order
    assert_revert_matches_composition_route(s, order)


def outcome(kernel, *args):
    """The result with each coefficient's type; or the error."""
    try:
        result = kernel(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return tuple((type(c), c) for c in result.coefficients)


exact_coefficients = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
exact_series = st.lists(exact_coefficients, min_size=1, max_size=10).map(PowerSeries)


@settings(max_examples=200, deadline=None)
@given(exact_series, exact_series, st.integers(1, 12))
@example(PowerSeries((3, Fraction(1, 2))), PowerSeries((Fraction(-2, 7), 0, 5)), 12)  # order past both lengths
@example(PowerSeries((0, 1)), PowerSeries((0, 0, 1)), 6)  # zero linear terms
def test_multiply_and_compose_match_the_oracles(f, g, order):
    assert outcome(multiply_series, f, g, order) == outcome(multiply_oracle, f, g, order)
    assert outcome(compose_series, f, g, order) == outcome(compose_oracle, f, g, order)


# raise_series squares and multiplies by _products; the oracle assembles every
# coefficient by De Moivre's multinomial rule instead.
@settings(max_examples=200, deadline=None)
@given(exact_series, st.integers(1, 9), st.integers(1, 20))
@example(PowerSeries((Fraction(5, 12), 0, Fraction(-7, 11))), 5, 12)
@example(PowerSeries((Fraction(1, 3), -2, 0, Fraction(5, 7))), 4, 20)  # pure squarings
@example(PowerSeries((1, Fraction(-1, 2), 3)), 8, 20)
@example(PowerSeries((2, Fraction(1, 5), -1)), 7, 20)  # every bit of p set
@example(PowerSeries((Fraction(3, 4), 1, 0, 0, 0)), 3, 12)  # trailing zero coefficients
@example(PowerSeries((0, Fraction(2, 3), 0, -1)), 6, 20)  # leading zeros: s = x^2 u
@example(PowerSeries((0, 0, 5)), 6, 18)  # a monomial, its power at the order
@example(PowerSeries((2, 3)), 3, 2)  # order below the power: all zero
@example(PowerSeries((Fraction(1, 3), 2)), 21, 20)  # a fractional series, p past the order
def test_raise_matches_the_oracle(s, p, order):
    assert outcome(raise_series, s, p, order) == outcome(raise_oracle, s, p, order)


def test_a_monomial_or_a_power_past_the_order_answers_at_once():
    # s^p starts at degree p: 2^(10^12) is never formed, and x^p stays one term
    start = time.perf_counter()
    assert outcome(raise_series, PowerSeries((Fraction(1, 2),)), 10**12, 3) == ((Fraction, 0),) * 3
    assert outcome(raise_series, PowerSeries((1,)), 10**4, 10**4) == ((Fraction, 0),) * 9999 + ((Fraction, 1),)
    assert time.perf_counter() - start < 0.05


@settings(max_examples=200, deadline=None)
@given(exact_series, st.integers(1, 14))
@example(PowerSeries((Fraction(-3, 4), Fraction(5, 6), 0, 2)), 14)  # negative a_1, order above the length
@example(PowerSeries((0, Fraction(1, 2))), 4)  # not invertible: the same ValueError
@example(PowerSeries((Fraction(0), 1)), 4)
@example(PowerSeries((7,)), 1)
def test_revert_matches_the_oracle(s, order):
    assert outcome(revert_series, s, order) == outcome(revert_oracle, s, order)


def test_multinomial_terms_match_the_oracle():
    for p in range(0, 8):
        for m in range(0, 21):
            try:
                expected = multinomial_oracle(m, p)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    multinomial_coefficient_terms(m, p)
                continue
            assert multinomial_coefficient_terms(m, p) == expected


def test_exact_route_at_the_benchmark_sizes():
    base, inner = (1, 1, 2, -1, 3), (Fraction(1, 2), -1, Fraction(1, 3), 2)
    s, g = series_from_rationals(base), PowerSeries(inner)
    assert outcome(revert_series, s, 15) == outcome(revert_oracle, s, 15)
    assert outcome(raise_series, g, 5, 20) == outcome(raise_oracle, g, 5, 20)
    assert outcome(compose_series, s, g, 20) == outcome(compose_oracle, s, g, 20)


# A float coefficient is the decimal it prints as: the kernels give the
# Fractions of the series of Fraction(repr(x)), whatever the float's exponent.
float_coefficients = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.3, 1e300, -1e-300, 5e-324]),
    st.floats(min_value=-1e3, max_value=1e3),
)
float_series = st.lists(float_coefficients, min_size=1, max_size=6).map(PowerSeries)


def printed_decimals(s):
    return PowerSeries(tuple(Fraction(repr(x)) for x in s.coefficients))


@settings(max_examples=100, deadline=None)
@given(float_series, float_series, st.integers(1, 4), st.integers(1, 8))
@example(PowerSeries((0.3, 0.7, -1.1)), PowerSeries((0.1,)), 6, 8)
@example(PowerSeries((-0.0, 1.0)), PowerSeries((1e300, 5e-324)), 2, 4)  # -0.0 == 0: not invertible
def test_a_float_series_is_the_series_of_its_printed_decimals(f, g, p, order):
    exact_f, exact_g = printed_decimals(f), printed_decimals(g)
    assert outcome(raise_series, f, p, order) == outcome(raise_series, exact_f, p, order)
    assert outcome(revert_series, f, order) == outcome(revert_series, exact_f, order)
    assert outcome(compose_series, f, g, order) == outcome(compose_series, exact_f, exact_g, order)
    assert outcome(multiply_series, f, g, order) == outcome(multiply_series, exact_f, exact_g, order)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda s: raise_series(s, 2, 4),
        lambda s: revert_series(s, 4),
        lambda s: compose_series(s, s, 4),
        lambda s: multiply_series(s, s, 4),
    ],
    ids=["raise", "revert", "compose", "multiply"],
)
def test_a_non_finite_coefficient_is_a_value_error_naming_its_degree(kernel, bad):
    with pytest.raises(ValueError, match=rf"^coefficient of x\^2 must be finite, got {bad!r}$"):
        kernel(PowerSeries((1.0, bad, 2.0)))
