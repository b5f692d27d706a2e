"""Truncated formal power series without constant term.

Coefficients are indexed from degree 1 and are exact rationals by default;
a real (float) mode exists for interoperability with the recurrence module.
Raising to a power goes through the multinomial rule -- each output
coefficient is assembled from exponent multisets and their permutation
counts -- and is required to agree with plain repeated multiplication,
which the tests exercise as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients a_1 ... a_N of a series with no constant term."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) == 0:
            raise ValueError("a power series needs at least one coefficient")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def coefficient(self, degree: int):
        """a_degree, 0 beyond the truncation order."""
        if degree < 1:
            return 0
        if degree > self.order:
            return 0
        return self.coefficients[degree - 1]

    def truncate(self, order: int) -> "PowerSeries":
        coeffs = list(self.coefficients[:order])
        while len(coeffs) < order:
            coeffs.append(_zero_like(self.coefficients[0]))
        return PowerSeries(tuple(coeffs))


def _zero_like(sample):
    return 0.0 if isinstance(sample, float) else Fraction(0)


def series_from_rationals(values) -> PowerSeries:
    return PowerSeries(tuple(Fraction(v) for v in values))


def series_from_reals(values) -> PowerSeries:
    return PowerSeries(tuple(float(v) for v in values))


def multiply_series(f: PowerSeries, g: PowerSeries, order: int) -> PowerSeries:
    """Product f*g truncated at the given degree."""
    zero = _zero_like(f.coefficients[0])
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


def multinomial_coefficient_terms(m: int, p: int):
    """Decompositions of degree m into p factors, with permutation counts.

    Returns a list of (exponents, count) pairs where exponents is a sorted
    tuple of p positive integers summing to m, and count is the number of
    distinct orderings p!/(prod of multiplicity factorials).  Empty when
    m < p (no decomposition: every factor contributes degree >= 1).
    """
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
        # each remaining part is at least 1 and at most max_part
        lo = max(1, remaining - max_part * (parts_left - 1))
        hi = min(max_part, remaining - (parts_left - 1))
        for part in range(hi, lo - 1, -1):
            descend(remaining - part, parts_left - 1, part, acc + [part])

    descend(m, p, m, [])
    results = []
    for exponents in sorted(out):
        count = math.factorial(p)
        for mult in _multiplicities(exponents).values():
            count //= math.factorial(mult)
        results.append((exponents, count))
    return results


def _multiplicities(values):
    mult = {}
    for v in values:
        mult[v] = mult.get(v, 0) + 1
    return mult


def raise_series(s: PowerSeries, p: int, order: int) -> PowerSeries:
    """s**p truncated at the given degree, via the multinomial rule.

    The degree-m coefficient is the sum over exponent multisets
    {e_1 <= ... <= e_p, sum e_i = m} of (permutation count) * prod a_{e_i}.
    """
    if p < 1:
        raise ValueError("power must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    zero = _zero_like(s.coefficients[0])
    out = [zero] * order
    for m in range(p, order + 1):
        total = zero
        for exponents, count in multinomial_coefficient_terms(m, p):
            prod = count
            for e in exponents:
                prod = prod * s.coefficient(e)
            total += prod
        out[m - 1] = total
    return PowerSeries(tuple(out))


def compose_series(f: PowerSeries, g: PowerSeries, order: int) -> PowerSeries:
    """f(g(x)) truncated at the given degree.

    g has no constant term by construction, so powers of g start at ever
    higher degrees and the sum below is finite.
    """
    zero = _zero_like(f.coefficients[0])
    out = [zero] * order
    g_pow = g.truncate(order)
    for j in range(1, order + 1):
        fj = f.coefficient(j)
        if fj != 0:
            for d in range(1, order + 1):
                out[d - 1] += fj * g_pow.coefficient(d)
        if j < order:
            g_pow = multiply_series(g_pow, g, order)
    return PowerSeries(tuple(out))


def revert_series(s: PowerSeries, order: int) -> PowerSeries:
    """Compositional inverse: t with s(t(x)) = x through the given degree.

    Solved order by order from the composition identity.  The degree-m
    equation is a_1*b_m + (terms in b_1..b_{m-1}) = 0, which is triangular
    because higher powers of t contribute to degree m only through lower
    reversion coefficients.  Requires a_1 != 0.

    The powers of t are kept as rows [x^d] t^j; order m adds only their
    degree-m entries (and the new row t^m), so s is never recomposed with
    the partial inverse and the work is O(order^3) products, not O(order^4).
    Each entry sums the same products in the same ascending order as
    multiply_series and compose_series, zero terms included, so float
    results keep every bit.  (Lagrange inversion would need fewer products
    but rounds differently.)
    """
    a1 = s.coefficient(1)
    if a1 == 0:
        raise ValueError("series with zero linear coefficient is not invertible")
    one = 1.0 if isinstance(a1, float) else Fraction(1)
    zero = _zero_like(a1)
    b = [one / a1]
    powers = [b]  # powers[j - 1][d - 1] = [x^d] t^j; row 1 is b itself
    for m in range(2, order + 1):
        powers.append([])  # t^m
        # t's degree-m term is the unknown b_m, taken as zero while solving for it
        residual = zero + a1 * zero
        for j in range(2, m + 1):
            row, lower = powers[j - 1], powers[j - 2]
            while len(row) < m:  # [x^d] t^j = sum over i of [x^i] t^(j-1) * b_(d-i)
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


def identity_series(order: int, real: bool = False) -> PowerSeries:
    one = 1.0 if real else Fraction(1)
    zero = 0.0 if real else Fraction(0)
    return PowerSeries((one,) + (zero,) * (order - 1))
