import math
import os
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demoivre import binomlimit, exactnum
from demoivre.binomlimit import (
    _QUAD_LIMIT,
    GAUSS_CUTOFF,
    TrialSpec,
    _band_mass,
    _gauss_kernel,
    _qags,
    band_bounds,
    demoivre_term,
    exact_central_probability,
    limit_central_probability,
    remark1_fraction,
    sample_size,
    simulate_band,
)

from cli_cases import refusal

HALF = Fraction(1, 2)


def pascal_mass(n, p, counts):
    """Oracle: binomial mass of the given counts, with Pascal-row coefficients."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    total = Fraction(0)
    p = Fraction(p)
    for k in counts:
        total += row[k] * p**k * (1 - p) ** (n - k)
    return total


def enumerate_band_probability(n, p, c):
    """Oracle: walk every outcome count with Pascal-row coefficients."""
    half_width = c * math.sqrt(n) / 2
    return pascal_mass(n, p, [k for k in range(n + 1) if abs(k - n * Fraction(p)) <= half_width])


def termwise_band_mass(n, p, lo, hi):
    """Oracle: the band summed term by term, a fresh comb and two powers each."""
    if lo > hi:
        return Fraction(0)
    num = sum(
        math.comb(n, k) * p.numerator**k * (p.denominator - p.numerator) ** (n - k)
        for k in range(lo, hi + 1)
    )
    return Fraction(num, p.denominator**n)


def frequency_band_mass(n, p, c):
    """Oracle: P(|X/n - p| <= c) as a normalised Fraction, its band edges taken in Fractions."""
    lo = max(0, math.ceil(n * (p - c)))
    hi = min(n, math.floor(n * (p + c)))
    return _band_mass(n, p, lo, hi)


def fraction_scan(p, c, alpha, limit=10_000):
    """Oracle: the sample-size scan with a Fraction band mass per n, as sample_size ran before its integer scan."""
    p, c, alpha = Fraction(p), Fraction(c), Fraction(alpha)
    for n in range(1, limit + 1):
        if frequency_band_mass(n, p, c) >= 1 - alpha:
            return n
    raise AssertionError("scan limit reached")


rational_p = st.integers(2, 60).flatmap(lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d)))
# a float p enters the exact path through its binary value
binary_p = st.floats(1e-3, 1 - 1e-3).map(Fraction)
any_p = st.one_of(rational_p, binary_p)


@st.composite
def bands(draw):
    n = draw(st.integers(1, 120))
    return n, draw(any_p), draw(st.integers(0, n)), draw(st.integers(0, n))


@settings(max_examples=300, deadline=None)
@given(bands())
@example((12, Fraction(1, 3), 0, 5))  # lo = 0
@example((12, Fraction(1, 3), 4, 12))  # hi = n
@example((12, Fraction(1, 3), 0, 12))  # the whole row: mass 1
@example((12, Fraction(1, 3), 7, 6))  # empty band
@example((30, Fraction(7, 9), 20, 27))  # p > 1/2
@example((30, Fraction(0.3), 5, 14))  # float p via its binary value
@example((140, Fraction(2, 5), 10, 72))  # 63 terms: one block short of full
@example((140, Fraction(2, 5), 10, 73))  # 64 terms: one full block
@example((140, Fraction(1, 3), 5, 69))  # 65 terms: a block and one term
@example((140, Fraction(7, 9), 3, 131))  # 129 terms: two blocks and one term
def test_band_mass_matches_termwise_and_pascal_oracles(band):
    n, p, lo, hi = band
    value = _band_mass(n, p, lo, hi)
    assert value == termwise_band_mass(n, p, lo, hi)
    assert value == pascal_mass(n, p, range(lo, hi + 1))
    if lo == 0 and hi == n:
        assert value == 1


@pytest.mark.parametrize("p", [HALF, Fraction(2, 5)])
def test_band_mass_of_a_full_row_of_4096_is_one(p):
    value = _band_mass(4096, p, 0, 4096)
    assert (value.numerator, value.denominator) == (1, 1)


def test_band_mass_with_a_61_bit_denominator_matches_termwise_oracle():
    p = Fraction(1, 2**61 - 1)
    lo, hi = band_bounds(TrialSpec(4096, p), 1)
    assert hi - lo + 1 == 33
    value = _band_mass(4096, p, lo, hi)
    expected = termwise_band_mass(4096, p, lo, hi)
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def test_band_mass_with_a_binary_p_matches_termwise_and_pascal_oracles():
    p = Fraction(0x9E37_79B9_7F4A_7C1, 2**60)  # odd numerator: d = 2^60, p ~ 0.618
    lo, hi = band_bounds(TrialSpec(600, p), 1)
    value = _band_mass(600, p, lo, hi)
    assert value == termwise_band_mass(600, p, lo, hi) == pascal_mass(600, p, range(lo, hi + 1))
    assert value.denominator.bit_length() > 600 * 59


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), any_p, st.integers(1, 400))
def test_band_entry_points_match_termwise_oracle(n, p, c_hundredths):
    spec = TrialSpec(n, p)
    c = c_hundredths / 100
    assert exact_central_probability(spec, c) == termwise_band_mass(n, p, *band_bounds(spec, c))
    tol = Fraction(c_hundredths, 1000)
    lo, hi = max(0, math.ceil(n * (p - tol))), min(n, math.floor(n * (p + tol)))
    assert frequency_band_mass(n, p, tol) == termwise_band_mass(n, p, lo, hi)


def test_two_coin_band():
    assert exact_central_probability(TrialSpec(2, HALF), 1) == HALF


def test_four_coin_band_enumeration():
    # all 16 outcomes: k in {1,2,3} stays within half-width 1
    assert exact_central_probability(TrialSpec(4, HALF), 1) == Fraction(14, 16)
    assert exact_central_probability(TrialSpec(4, HALF), 1) == enumerate_band_probability(4, HALF, 1)


def test_band_matches_enumeration_oracle():
    for n in (3, 7, 12, 30):
        for c in (0.5, 1.0, 2.0):
            spec = TrialSpec(n, Fraction(2, 5))
            assert exact_central_probability(spec, c) == enumerate_band_probability(n, Fraction(2, 5), c)


def test_float_p_is_taken_as_its_decimal():
    # the binary value of 0.3 puts k = 25 in the band at c = 1 (|25 - 100 p| = 5.0000000000000011 > 5)
    assert TrialSpec(100, 0.3).p == Fraction(3, 10)
    value = exact_central_probability(TrialSpec(100, 0.3), 1)
    assert value == exact_central_probability(TrialSpec(100, Fraction(3, 10)), 1)
    assert value == enumerate_band_probability(100, Fraction(3, 10), 1)
    for p in (0.1, 0.3, 1 / 3, 2**-60, 1 - 2**-53):
        assert float(TrialSpec(10, p).p) == p
    for p in (math.nan, math.inf, -math.inf, 0.0, 1.0):
        with pytest.raises(ValueError, match="success probability"):
            TrialSpec(10, p)


def test_band_keeps_an_endpoint_on_the_edge_for_rational_p():
    # n*p = 825 and c*sqrt(n)/2 = 55 exactly; the float mean 824.99999999999989 dropped k = 880
    spec = TrialSpec(3025, Fraction(3, 11))
    assert band_bounds(spec, 2) == (770, 880)
    assert exact_central_probability(spec, 2) == termwise_band_mass(3025, Fraction(3, 11), 770, 880)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 39).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))),
    st.integers(1, 64),
    st.integers(1, 8),
)
@example((3, 11), 55, 4)
@example((13, 24), 60, 2)  # these three lost an endpoint to the float mean
@example((14, 25), 25, 4)
@example((11, 18), 54, 4)
def test_band_bounds_are_the_exact_ceil_and_floor(p, root, halves):
    a, d = p
    n = root * root
    # c = halves/2, so |k - n*a/d| <= c*root/2 reads |4*d*k - 4*n*a| <= halves*root*d in integers
    lo = max(0, -((halves * root * d - 4 * n * a) // (4 * d)))
    hi = min(n, (4 * n * a + halves * root * d) // (4 * d))
    assert band_bounds(TrialSpec(n, Fraction(a, d)), halves / 2) == (lo, hi)


def test_band_with_overflowing_half_width_takes_every_count():
    # c*sqrt(n)/2 is inf for a finite c: the band is every count, not a float-to-int error
    spec = TrialSpec(100, HALF)
    assert band_bounds(spec, 1e308) == (0, 100)
    assert exact_central_probability(spec, 1e308) == 1
    assert band_bounds(TrialSpec(5000, HALF), 1e308) == (0, 5000)


def test_float_band_stays_at_most_one():
    # the whole row at n = 5000 sums to 1.000000000001398 uncapped: 6296 eps
    # above 1, the anchor's error, well inside the float band's stated bound
    for c in (1000, 1e308):
        assert exact_central_probability(TrialSpec(5000, HALF), c) == 1.0


def test_float_band_width_stops_at_its_work_ceiling(monkeypatch):
    # charged once band_bounds has run and before any term is summed
    spec = TrialSpec(10_000, HALF)
    lo, hi = band_bounds(spec, 1.0)
    expected = exact_central_probability(spec, 1.0)
    monkeypatch.setattr(exactnum, "WORK_BUDGET", 15000 * (hi - lo + 1))
    assert exact_central_probability(spec, 1.0) == expected
    monkeypatch.setattr(exactnum, "WORK_BUDGET", 15000 * (hi - lo + 1) - 1)
    with pytest.raises(ValueError, match=refusal(15000 * (hi - lo + 1), "band width", hi - lo + 1)):
        exact_central_probability(spec, 1.0)
    assert exact_central_probability(TrialSpec(10_000, Fraction(1, 3)), 1e-9) == 0.0  # an empty band sums no term


def test_large_band_near_limit():
    value = float(exact_central_probability(TrialSpec(3600, HALF), 1))
    assert abs(value - 0.6827) < 0.01


def test_band_monotone_in_c_and_saturates():
    spec = TrialSpec(50, HALF)
    values = [exact_central_probability(spec, c) for c in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert values == sorted(values)
    for n in (4, 16, 64, 100):  # perfect squares: c = sqrt(n) is exact
        assert exact_central_probability(TrialSpec(n, HALF), math.sqrt(n)) == 1


def test_band_convergence_decreasing():
    limit = 0.682688
    errors = [
        abs(float(exact_central_probability(TrialSpec(n, HALF), 1)) - limit)
        for n in (100, 400, 1600, 6400)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4097, 30_000),
    st.integers(2, 1000).flatmap(lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d))),
    st.floats(0.05, 10),
)
@example(100_000, HALF, 1.0)
@example(100_000, Fraction(1, 4), 1.0)
def test_float_band_is_within_its_stated_error_bound(n, p, c):
    # the test of record for n > 4096: the float route against the exact mass
    # of the same band, within twice the bound _band_probability_float states,
    # eps (S + 2 (hi - lo + 1)) relatively; eps n ln n alone is too tight
    # (the error reached 1.47 times it at n = 28341, p = 181/223, c = 0.34)
    spec = TrialSpec(n, p)
    value = exact_central_probability(spec, c)
    assert isinstance(value, float)
    lo, hi = band_bounds(spec, c)
    exact = float(_band_mass(n, p, lo, hi))
    p = float(p)
    km = min(max(lo, int(n * p)), hi)
    anchor_parts = (
        math.lgamma(n + 1),
        math.lgamma(km + 1),
        math.lgamma(n - km + 1),
        km * math.log(p),
        (n - km) * math.log(1.0 - p),
    )
    bound = sys.float_info.epsilon * (sum(map(abs, anchor_parts)) + 2 * (hi - lo + 1))
    assert abs(value - exact) <= 2 * bound * exact


def test_demoivre_term_center():
    assert demoivre_term(100, 0) == pytest.approx(2 / math.sqrt(200 * math.pi), rel=1e-15)
    assert demoivre_term(100, 0) == pytest.approx(0.079788, abs=1e-6)


def test_demoivre_term_against_exact_center():
    for n, bound in ((100, 0.01), (10_000, 0.001)):
        exact = math.comb(n, n // 2) / 2**n
        approx = demoivre_term(n, 0)
        assert abs(approx - exact) / exact < bound


def test_demoivre_term_riemann_sum_consistency():
    c = 1.0
    previous = None
    for n in (400, 1600, 6400):
        half = int(c * math.sqrt(n) / 2)
        total = demoivre_term(n, 0) + 2 * sum(demoivre_term(n, l) for l in range(1, half + 1))
        err = abs(total - limit_central_probability(c))
        assert err <= 2 / math.sqrt(n)
        if previous is not None:
            assert err < previous
        previous = err


def test_limit_values_against_erf_oracle():
    for c in (0.5, 1.0, 2.0, 3.0):
        oracle = math.erf(c / math.sqrt(2))  # P(|Z| <= c) for standard normal
        assert limit_central_probability(c) == pytest.approx(oracle, abs=1e-10)
    assert limit_central_probability(1.0) == pytest.approx(0.682688, abs=1e-5)
    assert limit_central_probability(2.0) == pytest.approx(0.954500, abs=1e-5)
    assert limit_central_probability(1e-8) < 1e-7


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=5e-324, max_value=2 * GAUSS_CUTOFF))
@example(1.0)
@example(2.0)
@example(3.0)
@example(5e-324)
@example(1e-8)
@example(8.19282125)  # QUADPACK gives 1.0000000000000002 here
@example(2 * GAUSS_CUTOFF)
def test_limit_matches_quadpack_bit_for_bit(c):
    """The QAGS port against scipy's QUADPACK, the integral the CLI printed before the port."""
    integrate = pytest.importorskip("scipy.integrate")
    value, _ = integrate.quad(_gauss_kernel, -c / 2, c / 2, epsabs=1e-13, epsrel=1e-13)
    assert limit_central_probability(c) == min(value, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=8.0, max_value=1e300))
@example(8.3)
@example(60.0)
@example(5000.0)
@example(1e4)
def test_limit_stays_in_unit_interval_at_large_c(c):
    value = limit_central_probability(c)
    assert value <= 1.0
    assert abs(value - math.erf(c / math.sqrt(2))) <= 1e-15
    if c >= 2 * GAUSS_CUTOFF:
        assert value == 1.0


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=5e-324, max_value=2 * GAUSS_CUTOFF))
@example(1.0)
@example(2.0)
@example(3.0)
@example(7.38649845916739)  # QUADPACK stops a bisection early: 126 ulp, 1.4e-14
def test_limit_against_mpmath_erf(c):
    """The test of record without scipy: within 5 ulp of erf(c/sqrt(2)) at 40 digits, or within 1e-13.

    1e-13 is the absolute tolerance QAGS integrates to.  Near 1 it is the
    looser bound, and it is needed: over c in about [7.386490, 7.386499]
    QAGS (the port and scipy's QUADPACK alike) stops after two
    bisections, 126 to 256 ulp off, and elsewhere above c = 5 a value is
    up to 5.7 ulp off.
    """
    with mpmath.workdps(40):
        exact = mpmath.erf(mpmath.mpf(c) / mpmath.sqrt(2))
        error = abs(mpmath.mpf(limit_central_probability(c)) - exact)
    assert error <= max(5 * math.ulp(float(exact)), 1e-13)


def dqpsrt(order, errors, maxerr, last):
    """QUADPACK's dqpsrt, transcribed: put the two new estimates into the descending `order`; return its head.

    Slot maxerr (the head) was just halved and slot `last` appended.  Only
    the first limit + 1 - last positions stay sorted once that is fewer
    than last, as no more subintervals than that can still be bisected.
    """
    order.append(last)
    if last == 1:
        return order[0]
    errmax, errmin = errors[maxerr], errors[last]
    top = last if last <= _QUAD_LIMIT // 2 + 1 else _QUAD_LIMIT + 1 - last
    for i in range(1, top):
        if errmax >= errors[order[i]]:
            break
        order[i - 1] = order[i]
    else:
        order[top - 1], order[top] = maxerr, last
        return order[0]
    order[i - 1] = maxerr
    k = top - 1
    while k >= i and errmin >= errors[order[k]]:
        order[k + 1] = order[k]
        k -= 1
    order[k + 1] = last
    return order[0]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=_QUAD_LIMIT // 2 + 1))
def test_dqpsrt_head_is_the_largest_error_and_rank(bisections):
    """Up to 26 bisections dqpsrt picks what _qags picks: the largest (error, rank).

    Errors are drawn from four values, so ties are the rule; the half that
    keeps its parent's slot (rank 2*last + 1) never has the smaller error,
    as in _qags, and the appended half ranks 2*last.
    """
    errors, ranks = [0], [0]
    order, maxerr = [0], 0
    for last, halves in enumerate(bisections, start=1):
        errors[maxerr], ranks[maxerr] = max(halves), 2 * last + 1
        errors.append(min(halves))
        ranks.append(2 * last)
        maxerr = dqpsrt(order, errors, maxerr, last)
        assert maxerr == max(range(last + 1), key=lambda i: (errors[i], ranks[i]))


def test_gauss_integrals_stay_within_the_sorted_bisections(monkeypatch):
    """The precondition of the (error, rank) pick: the band integral never passes 26 bisections.

    A 21-point rule evaluates the kernel 21 times, and each bisection
    applies it twice, so a call that evaluates it 21 * (1 + 2m) times has
    made m bisections.
    """
    evaluations = 0

    def counted(t):
        nonlocal evaluations
        evaluations += 1
        return _gauss_kernel(t)

    monkeypatch.setattr(binomlimit, "_gauss_kernel", counted)
    grid = [k / 16 for k in range(1, 16 * 60)] + [10.0 ** (e / 4) for e in range(-4 * 320, 4 * 3)]
    for c in grid:
        evaluations = 0
        limit_central_probability(c)
        rules, rest = divmod(evaluations, 21)
        assert rest == 0 and rules % 2 == 1
        assert (rules - 1) // 2 <= _QUAD_LIMIT // 2 + 1, c


def test_quadrature_gives_up_after_fifty_subintervals():
    with pytest.raises(ArithmeticError, match="50 subintervals"):
        _qags(lambda t: math.sin(200 * t), 0.0, 100.0)


def test_remark1_fractions():
    assert remark1_fraction(3600) == Fraction(1, 120)
    # historical printings give "the 260th part" for 14,400; the arithmetic
    # says 240, and that is what is asserted
    assert remark1_fraction(14_400) == Fraction(1, 240)
    assert remark1_fraction(1_000_000) == Fraction(1, 2000)


def test_remark1_rejects_non_square():
    with pytest.raises(ValueError):
        remark1_fraction(3601)


def scan_smallest_sample_size(p, c, alpha, limit=10_000):
    """Oracle: exhaustive scan with the Pascal-row band enumerator."""
    p, c, alpha = Fraction(p), Fraction(c), Fraction(alpha)
    row = [1]
    for n in range(1, limit + 1):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        total = Fraction(0)
        for k, ways in enumerate(row):
            if abs(Fraction(k, n) - p) <= c:
                total += ways * p**k * (1 - p) ** (n - k)
        if total >= 1 - alpha:
            return n
    raise AssertionError("scan limit reached")


def test_sample_size_trivial_single_trial():
    assert sample_size(HALF, HALF, Fraction(1, 2)) == 1
    # c >= max(p, 1 - p) puts every count in the band; c is never made a float
    assert sample_size(Fraction(1, 3), Fraction("1e400"), Fraction(1, 3)) == 1


def test_sample_size_matches_scan_oracle():
    result = sample_size(HALF, Fraction(1, 20), Fraction(1, 20))
    assert result == scan_smallest_sample_size(HALF, Fraction(1, 20), Fraction(1, 20))
    assert result == 371  # frozen from the oracle


def test_sample_size_asymmetric_case():
    p, c, alpha = Fraction(3, 10), Fraction(1, 10), Fraction(1, 10)
    assert sample_size(p, c, alpha) == scan_smallest_sample_size(p, c, alpha)


def test_sample_size_halving_c_increases_n():
    for p in (HALF, Fraction(3, 10)):
        for alpha in (Fraction(1, 10), Fraction(1, 4)):
            wide = sample_size(p, Fraction(1, 5), alpha)
            narrow = sample_size(p, Fraction(1, 10), alpha)
            assert narrow > wide


def test_sample_size_pinned_at_c_one_fortieth():
    # the per-term band sum that the kernel replaced, and the per-n band sum
    # that the recurrence in n replaced, return the same n
    assert sample_size(HALF, Fraction(1, 40), Fraction(1, 20)) == 1501
    assert sample_size(Fraction(2, 5), Fraction(1, 40), Fraction(1, 100)) == 2520


def test_sample_size_crossing_property():
    for p, c, alpha in ((HALF, Fraction(1, 20), Fraction(1, 20)),
                        (Fraction(3, 10), Fraction(1, 10), Fraction(1, 10))):
        n = sample_size(p, c, alpha)
        assert frequency_band_mass(n, p, c) >= 1 - alpha
        if n > 1:
            assert frequency_band_mass(n - 1, p, c) < 1 - alpha


@st.composite
def sample_size_cases(draw):
    d = draw(st.integers(2, 40))
    p = Fraction(draw(st.integers(1, d - 1)), d)
    c = draw(st.one_of(
        st.builds(Fraction, st.integers(16, 60), st.just(240)),  # 1/240 steps over [1/15, 1/4]
        st.floats(1 / 15, 1 / 4).map(Fraction),  # binary values: power-of-two denominators near 2^56
        st.builds(lambda extra: max(p, 1 - p) + Fraction(extra, 8), st.integers(0, 8)),  # every count: n = 1
    ))
    alpha = draw(st.builds(Fraction, st.integers(2, 30), st.just(60)))  # [1/30, 1/2]
    return p, c, alpha


@settings(max_examples=150, deadline=None)
@given(sample_size_cases())
@example((Fraction(1, 40), Fraction(1, 15), Fraction(1, 30)))
@example((Fraction(39, 40), Fraction(1, 15), Fraction(1, 30)))
@example((Fraction(15, 34), Fraction(1, 15), Fraction(1, 30)))  # n = 253, the largest the strategy reaches
@example((Fraction(2, 3), Fraction(2, 3), Fraction(1, 2)))  # c = max(p, 1 - p)
def test_sample_size_matches_fraction_scan(case):
    p, c, alpha = case
    n = sample_size(p, c, alpha)
    assert n == fraction_scan(p, c, alpha, limit=400)
    if c >= max(p, 1 - p):
        assert n == 1


@st.composite
def recurrence_cases(draw):
    """Cases for each path of the recurrence in n, with p = k/d and d up to 30; n stays below 600."""
    d = draw(st.integers(2, 30))
    k = draw(st.integers(1, d - 1))
    alpha = Fraction(draw(st.integers(1, 30)), 60)
    path = draw(st.sampled_from(["lo stays 0", "hi = n", "empty and refilled", "central"]))
    if path == "lo stays 0":  # p - c <= 0
        p = Fraction(min(k, d - k), d)
        return p, p + Fraction(draw(st.integers(0, 4)), 40), alpha
    if path == "hi = n":  # p + c >= 1; below n = 1/(2q) the band is the single count n, so lo passes the old hi
        p = Fraction(max(k, d - k), d)
        return p, 1 - p + Fraction(draw(st.integers(0, 4)), 40), alpha
    p = Fraction(k, d)
    if path == "empty and refilled":
        # a band narrower than one count empties and refills; at n0 = m d it holds the count
        # n0 p, and 1 - alpha at most that count's mass stops the scan by n0
        n0 = d * draw(st.integers(1, 4))
        mass = termwise_band_mass(n0, p, n0 * k // d, n0 * k // d)
        return p, Fraction(1, draw(st.integers(200, 1000))), 1 - mass * Fraction(draw(st.integers(1, 4)), 4)
    return p, Fraction(1, draw(st.integers(3, 12))), alpha


@settings(max_examples=150, deadline=None)
@given(recurrence_cases())
@example((Fraction(1, 30), Fraction(1, 30), Fraction(1, 60)))  # lo stays 0 from n = 1
@example((Fraction(1, 7), Fraction(1, 50), Fraction(9, 10)))  # empty for n = 1..6
@example((Fraction(29, 30), Fraction(1, 30), Fraction(1, 60)))  # [n - 1, n - 1] at n - 1 to [n, n] at n
@example((Fraction(1, 2), Fraction(1, 20), Fraction(1, 20)))  # n = 371, the benchmark's case
def test_sample_size_recurrence_matches_fraction_scan(case):
    p, c, alpha = case
    assert sample_size(p, c, alpha) == fraction_scan(p, c, alpha, limit=600)


def test_sample_size_counts_a_band_holding_exactly_one_minus_alpha():
    # n = 1: the band [1/4, 3/4] holds no count; n = 2: it holds k = 1, mass exactly 1/2
    assert frequency_band_mass(1, HALF, Fraction(1, 4)) == 0
    assert frequency_band_mass(2, HALF, Fraction(1, 4)) == HALF
    assert sample_size(1 / 2, 1 / 4, 1 / 2) == 2
    assert sample_size(HALF, Fraction(1, 4), HALF) == 2


def test_sample_size_steps_over_empty_bands():
    # n/7 +- n/50 holds no integer for n = 1..6; at n = 7 it holds k = 1, mass 7 (1/7) (6/7)^6 > 1/10
    p, c, alpha = Fraction(1, 7), Fraction(1, 50), Fraction(9, 10)
    assert all(frequency_band_mass(n, p, c) == 0 for n in range(1, 7))
    assert sample_size(p, c, alpha) == 7 == fraction_scan(p, c, alpha)


def test_sample_size_takes_a_float_as_its_decimal():
    # 0.3's binary value moves the band edges n(p -+ c) off the integers that 3/10 - 1/10 puts them on
    tenth = Fraction(1, 10)
    assert sample_size(0.3, 0.1, 0.1) == sample_size(Fraction(3, 10), tenth, tenth) == 50
    assert sample_size(Fraction(0.3), Fraction(0.1), Fraction(0.1)) == 53
    assert sample_size(0.3, 0.05, 0.05) == sample_size(Fraction(3, 10), Fraction(1, 20), Fraction(1, 20))
    assert sample_size(0.5, Fraction(1, 20), 0.05) == 371


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["p", "c", "alpha"])
def test_sample_size_rejects_a_non_finite_float_by_name(name, bad):
    args = dict(p=HALF, c=Fraction(1, 10), alpha=Fraction(1, 10))
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        sample_size(**args)


def test_simulate_band_trivial_cover():
    assert simulate_band(TrialSpec(1, HALF), 2.0, 50, seed=9) == 1.0


def test_simulate_band_concentration_and_determinism():
    spec = TrialSpec(3600, HALF)
    first = simulate_band(spec, 1.0, 10_000, seed=1733)
    assert 0.67 <= first <= 0.695
    assert simulate_band(spec, 1.0, 10_000, seed=1733) == first


def test_simulate_band_worker_invariance(monkeypatch):
    # the pool takes min(os.cpu_count(), chunks) threads; 9999 reps are 3 chunks
    spec = TrialSpec(900, HALF)
    baseline = simulate_band(spec, 1.0, 9999, seed=42)
    for cpus in (1, 2, 4, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert simulate_band(spec, 1.0, 9999, seed=42) == baseline


@pytest.mark.parametrize("n, reps, seed, p, bits", [
    (3600, 500_000, 1733, HALF, "0x1.6141e9af5ba2cp-1"),
    (100, 500, 11, HALF, "0x1.8f5c28f5c28f6p-1"),
    (100, 4097, 7, Fraction(1, 3), "0x1.69496b69496b7p-1"),
    (50, 12288, 3, Fraction(2, 5), "0x1.5e40000000000p-1"),
    (1, 1, 0, HALF, "0x1.0000000000000p+0"),
])
def test_simulate_band_chunk_plan_keeps_its_bits(n, reps, seed, p, bits):
    # a partial last chunk (4097), whole chunks (12288), one chunk and one rep
    assert simulate_band(TrialSpec(n, p), 1.0, reps, seed).hex() == bits


def test_simulate_band_refuses_reps_past_sys_maxsize_by_name():
    with pytest.raises(ValueError, match="^reps of 74 bits is past the work budget: "):
        simulate_band(TrialSpec(100, HALF), 1.0, 10**22, seed=1)


def test_trial_spec_and_band_validation():
    with pytest.raises(ValueError):
        TrialSpec(0, HALF)
    with pytest.raises(ValueError):
        TrialSpec(10, Fraction(1))
    with pytest.raises(ValueError, match="band multiplier"):
        band_bounds(TrialSpec(100), 0)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_band_multiplier_is_rejected(c):
    with pytest.raises(ValueError, match="band multiplier c"):
        band_bounds(TrialSpec(100), c)
    with pytest.raises(ValueError, match="band multiplier c"):
        exact_central_probability(TrialSpec(100, HALF), c)
    with pytest.raises(ValueError, match="band multiplier c"):
        limit_central_probability(c)
