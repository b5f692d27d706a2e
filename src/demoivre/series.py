"""Truncated formal power series without constant term.

Coefficients are indexed from degree 1 and are exact rationals.  Raising
to a power goes through the multinomial rule -- each output coefficient is
assembled from exponent multisets and their permutation counts -- and is
required to agree with plain repeated multiplication, which the tests
exercise as an independent oracle.

Every kernel clears denominators once (integer numerators over one
common denominator), runs its loops on Python ints and builds one Fraction
per output coefficient, so no gcd is taken inside a loop.  Its Fractions
equal those the same loops give on Fractions.  A float coefficient is
taken as the decimal it prints as (0.3 is 3/10), and a NaN or infinite one
is a ValueError naming its degree.  Whoever wants floats rounds the exact
result once: float() of a Fraction is correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import exact_input


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
        _check_order(order)
        return PowerSeries((*self.coefficients[:order], *[Fraction(0)] * (order - self.order)))


def series_from_rationals(values) -> PowerSeries:
    return PowerSeries(tuple(Fraction(v) for v in values))


def _clear_denominators(coefficients):
    """Integer numerators over one common denominator D, and D; a float is its printed decimal."""
    exact = [exact_input(c, f"coefficient of x^{degree}") for degree, c in enumerate(coefficients, start=1)]
    den = math.lcm(*(c.denominator for c in exact))
    return [c.numerator * (den // c.denominator) for c in exact], den


def _over(numerators, den) -> PowerSeries:
    """The series of numerators / den: one Fraction per coefficient."""
    return PowerSeries(tuple(Fraction(n, den) for n in numerators))


def _products(f, g, order: int) -> list:
    """Coefficients of f*g through degree `order`."""
    out = [0] * order
    for i, a in enumerate(f, start=1):
        if i >= order:
            break
        for j, b in enumerate(g, start=1):
            d = i + j
            if d > order:
                break
            out[d - 1] += a * b
    return out


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be >= 1")


def multiply_series(f: PowerSeries, g: PowerSeries, order: int) -> PowerSeries:
    """Product f*g truncated at the given degree."""
    _check_order(order)
    (fn, fd), (gn, gd) = _clear_denominators(f.coefficients), _clear_denominators(g.coefficients)
    return _over(_products(fn, gn, order), fd * gd)


def multinomial_coefficient_terms(m: int, p: int):
    """Decompositions of degree m into p factors, with permutation counts.

    Returns a list of (exponents, count) pairs where exponents is a sorted
    tuple of p positive integers summing to m, and count is the number of
    distinct orderings p!/(prod of multiplicity factorials).  Empty when
    m < p (no decomposition: every factor contributes degree >= 1).

    The tuples are generated in ascending lexicographic order, each part
    at least the one before it, and the count is carried along: placing
    the k-th part, which makes a run of r equal parts, multiplies the
    count of the first k - 1 parts by k / r, and every such prefix count
    is itself a multinomial coefficient, so the division is exact.  The
    enumeration is a loop, not a recursion, so p may pass the interpreter's
    recursion limit: the last two parts are placed together, and the next
    prefix raises its rightmost part that can grow by one and sets every
    part after it to that value.
    """
    if p < 1:
        raise ValueError("power must be >= 1")
    if m < p:
        return []
    pair = p - 2  # parts[pair] and parts[pair + 1] are placed together
    if pair < 0:
        return [((m,), 1)]
    out = []
    parts = [1] * pair
    counts = [1] * (p - 1)  # counts[k]: the count of parts[:k]
    runs = [0] * (p - 1)  # runs[k]: how many of parts[:k] equal parts[k - 1]
    rests = [m] * (p - 1)  # rests[k]: m - sum(parts[:k])
    k, least = 0, 1
    while True:
        for j in range(k, pair):
            parts[j] = least
            runs[j + 1] = r = runs[j] + 1 if j and least == parts[j - 1] else 1
            counts[j + 1] = counts[j] * (j + 1) // r
            rests[j + 1] = rests[j] - least
        head, count, run, rest = tuple(parts), counts[pair], runs[pair], rests[pair]
        for a in range(least, rest // 2 + 1):  # parts[pair - 1] is least
            r = run + 1 if pair and a == least else 1
            b = rest - a
            c = count * (p - 1) // r * p
            out.append((head + (a, b), c // (r + 1) if a == b else c))
        k = pair - 1
        while k >= 0 and (parts[k] + 1) * (p - k) > rests[k]:
            k -= 1
        if k < 0:
            return out
        least = parts[k] + 1


def _multinomial_sums(c, p: int, order: int) -> list:
    """Degree-m coefficients of s^p by the multinomial rule; c[e] = a_e."""
    out = [0] * order
    for m in range(p, order + 1):
        total = 0
        for exponents, count in multinomial_coefficient_terms(m, p):
            prod = count
            for e in exponents:
                prod = prod * c[e]
            total += prod
        out[m - 1] = total
    return out


def raise_series(s: PowerSeries, p: int, order: int) -> PowerSeries:
    """s**p truncated at the given degree, via the multinomial rule.

    The degree-m coefficient is the sum over exponent multisets
    {e_1 <= ... <= e_p, sum e_i = m} of (permutation count) * prod a_{e_i}.
    """
    if p < 1:
        raise ValueError("power must be >= 1")
    _check_order(order)
    numerators, den = _clear_denominators(s.coefficients[:order])
    # c[e] = a_e, and 0 past the truncation order, as s.coefficient(e) gives
    c = [0, *numerators, *[0] * (order - s.order)]
    return _over(_multinomial_sums(c, p, order), den**p)


def _composition(f, g, order: int) -> list:
    """Coefficients of f(g) through degree `order`: sum of f_j times g^j.

    Each g^j is the product of g^(j-1) and g, taken by _products.
    """
    out = [0] * order
    g_pow = [*g[:order], *[0] * (order - len(g))]
    for j in range(1, order + 1):
        fj = f[j - 1] if j <= len(f) else 0
        if fj != 0:
            for d in range(order):
                out[d] += fj * g_pow[d]
        if j < order:
            g_pow = _products(g_pow, g, order)
    return out


def compose_series(f: PowerSeries, g: PowerSeries, order: int) -> PowerSeries:
    """f(g(x)) truncated at the given degree.

    g has no constant term by construction, so powers of g start at ever
    higher degrees and the sum below is finite.  With f = F/D and g = G/E
    over integers, E^j g^j = G^j is integral, so f_j g^j is
    F_j E^(order - j) G^j over the one denominator D E^order.
    """
    _check_order(order)
    fn, fd = _clear_denominators(f.coefficients[:order])
    gn, gd = _clear_denominators(g.coefficients[:order])
    scaled = [fj * gd ** (order - j) for j, fj in enumerate(fn, start=1)]
    return _over(_composition(scaled, gn, order), fd * gd**order)


def revert_series(s: PowerSeries, order: int) -> PowerSeries:
    """Compositional inverse: t with s(t(x)) = x through the given degree.

    Solved order by order from the composition identity.  The degree-m
    equation is a_1*b_m + (terms in b_1..b_{m-1}) = 0, which is triangular
    because higher powers of t contribute to degree m only through lower
    reversion coefficients.  Requires a_1 != 0.

    The powers of t are kept as rows [x^d] t^j; order m adds only their
    degree-m entries (and the new row t^m), so s is never recomposed with
    the partial inverse and the work is O(order^2 N) products for N
    coefficients of s, at most O(order^3), not O(order^4).
    The rows are taken in integers, see _revert_integers.
    """
    _check_order(order)
    numerators, den = _clear_denominators(s.coefficients[:order])
    a = numerators[0]
    if a == 0:
        raise ValueError("series with zero linear coefficient is not invertible")
    scaled = _revert_integers(numerators, order)
    return PowerSeries(tuple(Fraction(bm * den**m, a ** (2 * m - 1)) for m, bm in enumerate(scaled, 1)))


def _revert_integers(S, order: int) -> list:
    """B_m = T_m * A^(2m - 1), m = 1..order, for the reversion T of S.

    S = S_1 x + S_2 x^2 + ... has integer coefficients and A = S_1 != 0.
    The scaled powers R_j[d] = [x^d] T^j * A^(2d - j) are integers and obey
    the reversion's own row recurrence, R_j[d] = sum_i R_(j-1)[i] B_(d-i)
    (the powers of A add up: (2i - j + 1) + (2(d - i) - 1) = 2d - j), and
    the degree-m equation S_1 T_m + sum_(j >= 2) S_j [x^m] T^j = 0, times
    A^(2m - 2), reads B_m = -sum_(j >= 2) S_j R_j[m] A^(j - 2).  So no
    division is made until the end: for s = S/D the reversion is
    t(x) = T(D x), whose b_m = B_m D^m / A^(2m - 1).  That sum reads only
    the rows j <= len(S), and row j needs only row j - 1, so no row past
    len(S) is built: the work is O(order^2 len(S)) products.
    """
    a = S[0]
    B = [1]  # B_1 = T_1 * A = 1
    rows = [B]  # rows[j - 1][d - 1] = R_j[d]; R_1 = B, and R_j[d] = 0 for d < j
    a_pow = [1]  # a_pow[j - 2] = A^(j - 2)
    for m in range(2, order + 1):
        if m <= len(S):
            rows.append([0] * (m - 1))
            a_pow.append(a_pow[-1] * a)
        total = 0
        for j in range(2, min(m, len(S)) + 1):
            lower = rows[j - 2]  # R_(j-1), already extended to degree m unless it is B
            rows[j - 1].append(sum(lower[i - 1] * B[m - i - 1] for i in range(j - 1, m)))
            if S[j - 1]:
                total += S[j - 1] * rows[j - 1][m - 1] * a_pow[j - 2]
        B.append(-total)
    return B


def identity_series(order: int) -> PowerSeries:
    return series_from_rationals([1, *[0] * (order - 1)])
