"""Truncated formal power series without constant term.

Coefficients are indexed from degree 1 and are exact rationals.  Every
product of two series goes through one kernel, _products: multiplying,
composing, and raising to a power by binary powering.  De Moivre's
multinomial rule lists the exponent multisets of a power with their
permutation counts (`multinomial_coefficient_terms`); the tests assemble
each coefficient of s^p from it, as the oracle that raising is checked
against.

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

from .exactnum import charge, exact_input


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


def _log2(x: int) -> int:
    """ceil(log2 x) for x >= 1: the bits a factor x adds to a product."""
    return (x - 1).bit_length()


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

    Less one from each part, a row is a partition of m - p into at most p
    parts.  Before any row is listed the rows are counted by the
    O(p (m - p)) table of such partitions, charged 8000 units a cell, and
    then charged 50000 (p + 15) units each, listed and printed.
    """
    if p < 1:
        raise ValueError("power must be >= 1")
    if m < p:
        return []
    pair = p - 2  # parts[pair] and parts[pair + 1] are placed together
    if pair < 0:
        return [((m,), 1)]
    charge(8000 * (m - p) * min(p, m - p), "degree", m)
    rows = _partition_count(m - p, p)
    charge(50000 * rows * (p + 15), "rows", rows)
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


def _partition_count(n: int, k: int) -> int:
    """The partitions of n into at most k parts, which are those into parts of at most k."""
    counts = [1] + [0] * n
    for part in range(1, min(k, n) + 1):
        for i in range(part, n + 1):
            counts[i] += counts[i - part]
    return counts[n]


def _power(x, p: int, times):
    """x^p by binary powering (Knuth, TAOCP 2, 4.6.3): at most 2 floor(log2 p) calls of times."""
    out = None
    while True:
        if p & 1:
            out = x if out is None else times(out, x)
        p >>= 1
        if not p:
            return out
        x = times(x, x)


def raise_series(s: PowerSeries, p: int, order: int) -> PowerSeries:
    """s**p truncated at the given degree, by binary powering over _products.

    With v leading zeros among the numerators, s = x^(v + 1) u for a
    polynomial u with u(0) != 0, so s^p = x^(p (v + 1)) u^p and only the
    first n = order - p (v + 1) + 1 coefficients of u^p reach the order:
    none when p (v + 1) > order: the zero series, charged only its order
    Fractions, with den^p never formed.  u^p is taken by _power, each
    product stopping at the fewer of n and the terms its factors reach,
    so a monomial stays one term at any p.

    Charged before any product: _power is first run on (length, power)
    pairs alone, which sums the pairs of terms each product will take,
    20000 units each plus 100 a word of one factor's integers times a word
    of the other's, u^j's having at most j log2(u's sum) bits; each of the
    order Fractions costs 300000 units plus 1500 a word of den^p, and each
    of the at most n that are not zero 700 a squared word of the result.
    """
    if p < 1:
        raise ValueError("power must be >= 1")
    _check_order(order)
    numerators, den = _clear_denominators(s.coefficients[:order])
    nonzero = [i for i, a in enumerate(numerators) if a]
    v = nonzero[0] if nonzero else order
    n = order - p * (v + 1) + 1
    if n < 1:  # s^p starts past the order
        charge(order * 300000, "order", order)
        return _over([0] * order, 1)
    u = numerators[v : nonzero[-1] + 1][:n]
    bits, cost = _log2(sum(map(abs, u))), 0

    def count(f, g):
        nonlocal cost
        (lf, jf), (lg, jg) = f, g
        cost += lf * lg * (20000 + 100 * (1 + jf * bits // 64) * (1 + jg * bits // 64))
        return min(n, lf + lg - 1), jf + jg

    k = _power((len(u), 1), p, count)[0]
    w, d = 1 + p * (bits + _log2(den)) // 64, 1 + p * _log2(den) // 64
    charge(cost + order * (300000 + 1500 * d) + k * 700 * w * w, "order", order)
    # x f times x g by _products is x (x f g): its first term is zero
    up = _power(u, p, lambda f, g: _products(f, g, min(n, len(f) + len(g) - 1) + 1)[1:])
    return _over([0] * (p * (v + 1) - 1) + up + [0] * (n - len(up)), den**p)


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

    Charged before any product: each of the order powers G^j takes
    order len(G) pairs, 20000 units each plus 100 a word of G^j times a
    word of G; each F_j takes order more, 20000 units each plus 700 a
    squared word of the result; and each of the order Fractions costs
    300000 units plus 700 a squared word.  G^j has at most j log2(sum |G|)
    bits, the result order (log2(sum |G|) + log2 E) + log2(sum |F|) + log2 D.
    """
    _check_order(order)
    fn, fd = _clear_denominators(f.coefficients[:order])
    gn, gd = _clear_denominators(g.coefficients[:order])
    grows = _log2(sum(map(abs, gn)))
    w, u = 1 + order * grows // 64, 1 + max(map(abs, gn)).bit_length() // 64
    v = 1 + (order * (grows + _log2(gd)) + _log2(sum(map(abs, fn))) + _log2(fd)) // 64
    products = len(gn) * order * order * (20000 + 100 * w * u) + len(fn) * order * (20000 + 700 * v * v)
    charge(products + order * (300000 + 700 * v * v), "order", order)
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

    Charged before any product: each of the (len(S) - 1) order^2 / 2
    products of the rows 20000 units plus 60 a squared word of their
    largest integers, which grow by about b = log2 max |S| + log2 len(S)
    + 1 bits a degree; and each of the order Fractions 300000 units plus
    700 a squared word of b + log2 D + 2 log2 |A| bits a degree.
    """
    _check_order(order)
    numerators, den = _clear_denominators(s.coefficients[:order])
    a = numerators[0]
    if a == 0:
        raise ValueError("series with zero linear coefficient is not invertible")
    b = _log2(max(map(abs, numerators))) + _log2(len(numerators)) + 1
    w, v = 1 + order * b // 64, 1 + order * (b + _log2(den) + 2 * _log2(abs(a))) // 64
    products = (len(numerators) - 1) * order * order * (10000 + 30 * w * w)
    charge(products + order * (300000 + 700 * v * v), "order", order)
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
