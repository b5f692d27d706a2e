"""Linearly recurring series, duration of play, and circle-division factors.

A recurrence a_n = b_1 a_{n-1} + ... + b_k a_{n-k} with distinct
characteristic roots decomposes into k geometric progressions; partial sums
then reduce to per-root geometric sums.  Repeated roots, and the clusters
np.roots returns for them (about eps^(1/m) apart for an m-fold root),
are rejected outright rather than extended to polynomial-in-n terms.

Duration of play: for two players holding b stakes each, the probability
that play lasts beyond n games has the closed form

    sum_{j=1..b/2} c_j * t_j^(n/2),
    t_j = 2pq(1 + cos((2j-1)pi/b)),
    c_j = prod_{i!=j}(1 - t_i) / prod_{i!=j}(t_j - t_i),

stated for even b.  An absorbing random-walk iteration serves as the exact
oracle and also covers odd b and odd n.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass, field

from .exactnum import charge, check_double, check_finite

RESIDUE_TOLERANCE = 1e-12
UNDERFLOW_STAKES = 1086  # the least even b whose closed form underflows at p = 1/2


class DegenerateSpectrumError(ValueError):
    """Characteristic roots repeated or too close to separate."""


@dataclass(frozen=True)
class Recurrence:
    """a_n = sum b_i * a_{n-i}, with initial terms a_0 ... a_{k-1}."""

    coefficients: tuple
    initial_terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(b) for b in self.coefficients))
        object.__setattr__(self, "initial_terms", tuple(float(a) for a in self.initial_terms))
        k = len(self.coefficients)
        if k < 1:
            raise ValueError("recurrence needs at least one coefficient")
        if len(self.initial_terms) != k:
            raise ValueError("need exactly as many initial terms as coefficients")
        if self.coefficients[-1] == 0:
            raise ValueError("trailing coefficient b_k must be nonzero (true order)")
        named = (("coefficient b", self.coefficients, 1), ("initial term a", self.initial_terms, 0))
        for name, values, first in named:
            for i, x in enumerate(values, start=first):
                check_finite(x, f"{name}_{i}")

    @property
    def order(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class ClosedForm:
    """Sum of coefficient * root^n terms, one per distinct root; realness is always True: sums are real."""

    terms: tuple
    realness: bool = field(default=True, init=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((complex(c), complex(r)) for c, r in self.terms))
        roots = {root for _, root in self.terms}
        if not roots or len(roots) < len(self.terms):
            raise ValueError("closed form needs at least one term, each with its own root")


def iterate_terms(r: Recurrence, count: int):
    """First count terms by direct iteration (the oracle route)."""
    out = list(r.initial_terms)
    while len(out) < count:
        nxt = sum(b * out[-i - 1] for i, b in enumerate(r.coefficients))
        out.append(nxt)
    return out[:count]


def solve_recurrence(r: Recurrence) -> ClosedForm:
    """Decompose into geometric terms via the characteristic roots.

    Roots come from the companion matrix and the coefficients from a
    Vandermonde solve; a root power past the double range is refused.  When
    eps * cond of that matrix, columns scaled to unit max, exceeds
    RESIDUE_TOLERANCE, the roots are repeated or clustered ((x-1)^3 gives
    roots 1.1e-5 apart) and DegenerateSpectrumError names the closest pair.
    """
    import numpy as np

    roots = np.roots([1.0] + [-b for b in r.coefficients])
    vander, scale = _vandermonde(roots)
    if np.linalg.cond(vander / scale) * sys.float_info.epsilon > RESIDUE_TOLERANCE:
        a, b = min(itertools.combinations(roots, 2), key=lambda pair: abs(pair[0] - pair[1]))
        raise DegenerateSpectrumError(f"characteristic roots {a:.6g} and {b:.6g} are not separated")
    coeffs = np.linalg.solve(vander, np.array(r.initial_terms, dtype=complex))
    return ClosedForm(tuple(zip(coeffs, roots)))


def _vandermonde(roots):
    """The matrix V of root_j^n for n < k (k roots), and its column maxima.

    V scaled to unit column maxima gives solve_recurrence its conditioning
    test and _real_sum its error bound.  A root power past the double range
    is an ArithmeticError naming the root.
    """
    import numpy as np

    k = len(roots)
    roots = np.asarray(roots)
    with np.errstate(over="ignore"):  # an overflowed power is refused just below
        vander = np.array([[roots[j] ** n for j in range(k)] for n in range(k)], dtype=complex)
    if not np.isfinite(vander).all():
        raise ArithmeticError(f"characteristic root {max(roots, key=abs):.6g} to the power {k - 1} overflows a double")
    return vander, abs(vander).max(axis=0)


def _real_sum(cf: ClosedForm, piece, what: str, n: int) -> float:
    """Real part of the sum of the closed form's pieces, each formed here as piece(c, root).

    piece returns the value c*f and the factor f that multiplies c (root^n
    for a term).  An overflow or a non-finite sum is an ArithmeticError:
    `what` leaves the double range at n.  An imaginary part above
    RESIDUE_TOLERANCE * max(1, max |piece|) is refused.

    The solved c carries the rounding of its Vandermonde solve into the sum,
    even where the exact c is 0 (roots 1.5 and 1, every term 2: the solved c
    of 1.5^n is 5.9e-16, and 1.5^100 grows it to 242).  With V = S*D scaled
    to unit column maxima D, a backward-stable solve gives (S + E)*(D*c) = a
    with |E| <= eps*|S|, so f.c is off by at most about
    eps * |S| * |D*c| * |w| (2-norms; |S| is taken as the Frobenius norm,
    which is no smaller and needs no SVD), where S^T w = f/D: w is a_n's
    weights on the initial terms, scaled.  A sum whose bound exceeds
    RESIDUE_TOLERANCE * max(1, |sum|) is refused, naming n.  Up to the
    norm of S this is at most eps * cond(S) * |D*c| * |f/D|, and sharper
    where f lies along S's large singular directions.
    """
    try:
        pairs = [piece(c, root) for c, root in cf.terms]
        total = sum(value for value, _ in pairs)
        if not cmath.isfinite(total):
            raise OverflowError
    except OverflowError:
        raise ArithmeticError(f"{what} leaves the double range at n={n}") from None
    if abs(total.imag) > RESIDUE_TOLERANCE * max([1.0, *(abs(value) for value, _ in pairs)]):
        raise ArithmeticError(f"imaginary residue {total.imag:g} exceeds tolerance at n={n}")
    import numpy as np

    vander, scale = _vandermonde([root for _, root in cf.terms])
    scaled = vander / scale
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite or nan bound is refused
        weights = np.linalg.solve(scaled.T, np.array([f for _, f in pairs], dtype=complex) / scale)
        coeffs = scale * np.array([c for c, _ in cf.terms])
    # hypot takes a 2-norm without squaring past the double range (w is 2^1023 at n = 1023)
    norms = float(np.linalg.norm(scaled)) * math.hypot(*abs(coeffs)) * math.hypot(*abs(weights))
    bound = sys.float_info.epsilon * norms
    if not bound <= RESIDUE_TOLERANCE * max(1.0, abs(total.real)):
        raise ArithmeticError(f"{what} at n={n} is past the closed form's accuracy: its error bound is {bound:.3g}")
    return total.real


def eval_closed_form(cf: ClosedForm, n: int) -> float:
    """Sum of coefficient * root^n; _real_sum refuses an overflow, a residue or an inaccurate sum, naming n."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return _real_sum(cf, lambda c, root: (c * root**n, root**n), "a_n", n)


def partial_sum(r: Recurrence, upto: int) -> float:
    """Sum of a_0 .. a_upto from per-root geometric sums.

    Each root contributes coefficient * (root^(upto+1) - 1)/(root - 1).  For
    a real positive root with |z| < 1/16, z = (upto+1) * log1p(root - 1),
    that difference cancels, so the factor is formed as expm1(z)/(root - 1),
    or upto + 1 at root 1.  A complex root that close to 1 has its conjugate
    as close, and solve_recurrence refuses the pair.  _real_sum refuses an
    overflow, a residue or an inaccurate sum, naming n = upto.
    """
    if upto < 0:
        raise ValueError("index must be non-negative")

    def geometric(c, root):
        if root.imag == 0 and root.real > 0:
            z = (upto + 1) * math.log1p(root.real - 1.0)
            if abs(z) < 1 / 16:
                factor = upto + 1 if root.real == 1.0 else math.expm1(z) / (root.real - 1.0)
                return c * factor, factor
        rise = root ** (upto + 1) - 1.0
        return c * rise / (root - 1.0), rise / (root - 1.0)

    return _real_sum(solve_recurrence(r), geometric, "a_0 + ... + a_n", upto)


@dataclass(frozen=True)
class DurationSpec:
    """b stakes per player, per-game win probability p, horizon n games.

    The closed form needs b even; the random-walk oracle takes any b >= 1.
    """

    b: int
    p: float
    n: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("stakes b must be a positive integer")
        if not 0 < self.p < 1:
            raise ValueError("win probability must lie strictly in (0, 1)")
        if self.n < 0:
            raise ValueError("number of games must be non-negative")


def duration_exceeds_exact(spec: DurationSpec) -> float:
    """P(no ruin within n games): iterate the mass over interior states.

    Random walk from 0 with absorbing barriers at +-b; interior states are
    the 2b-1 positions strictly between the barriers.  A float64 buffer v
    holds them between two walls of 0.0, and each game is three numpy
    ufuncs over preallocated buffers of one shape: p*v[j-1], q*v[j+1] and
    their sum, written back into the interior.  (One multiply of [[p], [q]]
    into a two-row buffer is one call fewer, but numpy's broadcasting path
    made a game 10-25 % dearer at b = 50.  p and q stay stride-0 views:
    filled contiguous copies read two more arrays a game, and with numpy
    2.4 timed 2 % slower at b = 50 and 44 % slower at b = 1000, n = 3000.)
    The two ufuncs are bound to locals before the loop, which saves a global
    and an attribute lookup per ufunc call: at b = 50, p = 0.51, n = 3000 a walk took
    3.35-3.50 ms with np.multiply and np.add looked up each game and
    2.76-3.03 ms with them bound (best of 200, four interleaved runs,
    2-CPU Xeon VM), the same float.
    A loop over all 2b-1 states (the tests' oracle) forms (0.0 + p*a) + q*c
    in the same order, where a zero term only adds +0.0, so every value is
    the same double.  The sum
    is clamped to at most 1, which rounding can pass (1.0000000000000056
    at b = 100, p = 0.45, n = 100).

    n games reach only the n states on each side of the start, so the
    buffer keeps h = min(b, n + 1) positions each way: where n + 1 < b its
    walls stand at distance n + 1 and hold 0.0, as the unreachable states
    there do.  A game costs ~1-2.5 us plus ~1-2.5 ns a state, and up to
    ~25-30 ns a state while the masses are subnormal (2-CPU Xeon VM), so
    the walk is charged 1000 n (2h + 81) before any buffer is allocated:
    each game counts its 2h + 1 buffered states and 80 more, all at the
    subnormal rate.  That also caps h, and so the buffers, at 12227 states
    each way.
    """
    charge(1000 * spec.n * (2 * min(spec.b, spec.n + 1) + 81), "n", spec.n)
    import numpy as np

    half = min(spec.b, spec.n + 1)
    v = np.zeros(2 * half + 1)
    v[half] = 1.0
    inner, below, above = v[1:-1], v[:-2], v[2:]
    p, q = (np.broadcast_to(x, 2 * half - 1) for x in (spec.p, 1.0 - spec.p))
    left, right = np.empty(2 * half - 1), np.empty(2 * half - 1)
    multiply, add = np.multiply, np.add
    for _ in range(spec.n):
        multiply(p, below, left)
        multiply(q, above, right)
        add(left, right, inner)
    return min(math.fsum(v.tolist()), 1.0)


def duration_weights(b: int, p: float):
    """(t_j, c_j) pairs of the closed form, j = 1 .. b/2, for even b.

    A product of differences t_j - t_i that underflows to 0 (b = 1200,
    p = 0.3) leaves no weight to form, so it is refused, naming the walk.
    At p = 1/2 one does from b = UNDERFLOW_STAKES on, and any other p
    scales every difference by 4pq < 1, so such a b is refused before its
    b/2 values of t are formed.
    """
    if b % 2 != 0:
        raise ValueError("closed form is stated for even b only")
    check_double(b, "b")
    if b >= UNDERFLOW_STAKES:
        raise _underflow(b, p)
    q = 1.0 - p
    half = b // 2
    t = [2 * p * q * (1 + math.cos((2 * j - 1) * math.pi / b)) for j in range(1, half + 1)]
    weights = []
    for j in range(half):
        num = 1.0
        den = 1.0
        for i in range(half):
            if i == j:
                continue
            num *= 1 - t[i]
            den *= t[j] - t[i]
        if den == 0.0:
            raise _underflow(b, p)
        weights.append((t[j], num / den))
    return weights


def _underflow(b: int, p: float) -> ValueError:
    return ValueError(f"closed form underflows at b = {b}, p = {p}; use duration exact")


def duration_exceeds_closed(spec: DurationSpec) -> float:
    """Closed-form P(duration > n) for even b.

    With b even, absorption can only happen at steps of b's parity, so for
    odd n the value equals the one at n-1; the reduction is applied here
    and is validated against the random-walk oracle in the tests.  The sum
    is clamped to [0, 1], which rounding can leave (1.0000000000000013 at
    b = 200, n = 2); the clamp does not cure the cancellation between the
    weights at large b with p away from 1/2.
    """
    n = spec.n if spec.n % 2 == 0 else spec.n - 1
    if n <= 0:
        return 1.0
    check_double(n, "n")
    total = math.fsum(c * t ** (n // 2) for t, c in duration_weights(spec.b, spec.p))
    return min(max(total, 0.0), 1.0)


@dataclass(frozen=True)
class UnityFactorization:
    """Real factors of x^n + 1 (sign +1) or x^n - 1 (sign -1).

    quadratic_factors holds the cos(theta) of each factor
    x^2 - 2x*cos(theta) + 1; linear_factors holds the real roots.
    """

    degree: int
    sign: int
    linear_factors: tuple
    quadratic_factors: tuple

    def expand(self):
        """Coefficients (ascending) of the expanded product, for checking."""
        poly = [1.0]
        for root in self.linear_factors:
            poly = _polymul(poly, [-root, 1.0])
        for cos_t in self.quadratic_factors:
            poly = _polymul(poly, [1.0, -2.0 * cos_t, 1.0])
        return poly


def _polymul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def factor_unity(n: int, sign: int) -> UnityFactorization:
    """Split x^n + 1 or x^n - 1 into real linear and quadratic factors.

    The roots sit on the unit circle at angles m*pi/n, m odd for x^n + 1
    and even for x^n - 1; conjugate pairs (0 < m < n) collapse to
    x^2 - 2x*cos(theta) + 1 and the real roots +-1 (m = 0 or n) stay linear.
    A degree is charged 60000: the CLI takes ~0.44-0.57 us a degree,
    printing the cosines.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 (x^n + 1) or -1 (x^n - 1)")
    charge(60000 * n, "n", n)
    start = 1 if sign == 1 else 2
    linear = tuple(-1.0 if m else 1.0 for m in (0, n) if m % 2 == start % 2)
    cosines = tuple(math.cos(m * math.pi / n) for m in range(start, n, 2))
    return UnityFactorization(n, sign, linear, cosines)


def demoivre_power(theta: float, n: int):
    """(cos n*theta, sin n*theta), cross-checked against (cos theta + i sin theta)^n.

    The power is taken by binary powering of cmath.exp(1j*theta), conjugated
    for negative n, in at most 2*log2|n| complex products.  The two routes
    must agree within `_power_tolerance` or an internal-consistency error is
    raised.  theta and n*theta must be finite, and the tolerance below 1:
    from |n*theta| ~ 2.2e15 the rounded angle may be off by a radian, and
    from |n| ~ 1.5e15 the powered route may be, so the check could no
    longer object and a ValueError naming n*theta is raised instead of an
    unchecked value.
    """
    check_finite(theta, "angle theta")
    try:
        angle = n * theta
    except OverflowError:  # n itself has no float value
        raise ValueError(f"angle n*theta must be finite, got n of {n.bit_length()} bits") from None
    check_finite(angle, "angle n*theta")
    tolerance = _power_tolerance(angle, n)
    if tolerance >= 1:
        raise ValueError(
            f"n*theta = {angle!r} with n = {float(n):.3g} is past what double precision can check: "
            f"the error bound of the two routes is {tolerance:.3g}, not below 1"
        )
    direct = (math.cos(angle), math.sin(angle))
    square = cmath.exp(1j * theta)
    if n < 0:
        square = square.conjugate()
    power = 1 + 0j
    k = abs(n)
    while k:
        if k & 1:
            power *= square
        k >>= 1
        if k:
            square *= square
    if abs(power.real - direct[0]) > tolerance or abs(power.imag - direct[1]) > tolerance:
        raise ArithmeticError("multiple-angle and binary-power routes disagree")
    return direct


def _power_tolerance(angle: float, n: int) -> float:
    """Bound on |each route's component - its exact value|, summed over both routes.

    With eps the machine epsilon and u = eps/2 the unit roundoff:

    * Direct route.  float(n)*theta is rounded twice, so the argument is off
      by at most (2u + u^2)|n*theta|; cos and sin are Lipschitz-1 and round
      their results once more, within one ulp <= eps.  Doubling these
      first-order terms covers the second-order ones: 2*eps*(|n*theta| + 1).
    * Powered route.  cmath.exp(1j*theta) is e^(i theta)(1 + beta) with
      |beta| <= eps, as cos and sin are each within one ulp.  Each complex
      product rounds by a factor (1 + mu) with |mu| <= sqrt(5)*u (Brent,
      Percival and Zimmermann, Math. Comp. 76, 2007).  The product that forms
      base^(2^j) enters the result raised to floor(|n|/2^j), so the exponents
      of all roundings sum to at most |n| - 1, as for |n| - 1 repeated
      products.  Hence the power is off by at most
      (1 + eps)^|n| (1 + sqrt(5)*u)^(|n|-1) - 1 <= expm1((1 + sqrt(5)/2)|n| eps).
      This term grows like |n|*eps however small theta is, because |base|
      differs from 1 by up to eps; only ~2*log2|n| of the roundings are made,
      but the early squarings' errors are raised to high powers.

    The bound reaches 1 at |n| ~ 1.47e15 (the powered term alone) or
    |n*theta| ~ 2.25e15 (the direct term alone), and demoivre_power refuses
    from there: past |n| ~ 2.3e15 the bound exceeds 2 and would constrain
    nothing, and the direct route's argument error eps*|n*theta| may pass
    2*pi.  Past |n| ~ 1.5e18, where expm1 would overflow, the bound is
    infinite.
    """
    eps = sys.float_info.epsilon
    drift = (1 + math.sqrt(5) / 2) * abs(n) * eps
    return 2 * eps * (abs(angle) + 1) + (math.expm1(drift) if drift < 700 else math.inf)
