"""The 1733 approximation to the symmetric binomial and its exact checks.

Central-band masses P(|X - np| <= c*sqrt(n)/2) are summed exactly in
rational arithmetic up to n = 4096 (2^n denominators stay affordable
there) and above as floats: an lgamma-anchored term, ratio walks out
from it, and one math.fsum.  One kernel, `_band_mass`, takes every exact
band sum at one n: it sums d^n times the mass of p = a/d as an integer
by Horner's rule, a block of terms at a time.  Inside a block the terms'
ratios to its first one are small integers, summed by a recurrence on
them; each block then takes one big multiply and exact divide for its sum
and one for the next block's first coefficient, so a band takes one
binomial coefficient and two big powers in all, and two big steps per
block, not five per term.  The sum is reduced over d^n through powers of
d, by exactnum.over_power.  The sample-size
scan does not take a fresh band per n: it carries d^n times the band's
mass and the band's two edge terms from n to n + 1 by De Moivre's
recurrence in n (Pascal's rule), O(1) big-integer steps per n, and
compares the mass with d^n (1 - alpha) in integers.
The limiting band probability, the one integral here, integrates the
kernel (2/sqrt(2*pi))*exp(-2 t^2) over |t| <= c/2 by a port of QUADPACK's
QAGS, with scipy.integrate.quad's bits (21-point Gauss-Kronrod rule; the
largest (error, rank) is bisected next, dqpsrt's pick up to 26
bisections); the closed-form erf route is left to the test suite as an
independent oracle.  Band endpoints are inclusive throughout.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import mul

from . import exactnum
from .exactnum import binomial_coefficient, charge, check_double, check_finite, check_index, exact_input

RATIONAL_LIMIT = 4096

# Terms per block of the exact band sum: its small products reach about
# 64 (12 + bits(d)) bits, a few limbs against the big integers' hundreds.
# Best of 40 in-process calls at n = 4096 (Python 3.11, 2-CPU Xeon VM):
# blocks of 32 and 128 terms time within 5 % of 64 on bands of 64 and 513
# terms, and 128 is 7-15 % slower on full rows.
BAND_BLOCK = 64
_SIM_CHUNK = 4096

# The kernel's mass past |t| = 67/16 is erfc(67/16 * sqrt(2)) < 2^-54, half
# an ulp of 1 from below, so the band integral stops there: the integral
# over |t| <= GAUSS_CUTOFF rounds to the same double as over the whole line.
GAUSS_CUTOFF = 4.1875


@dataclass(frozen=True)
class TrialSpec:
    """n independent trials with success probability p (default 1/2).

    p is kept as a Fraction, a float p as the decimal it prints as (0.3 is
    3/10, not its binary value, whose 2^54 denominator would pass into every
    exact band sum), as sample_size takes it.  Its float is p again.
    """

    n: int
    p: object = Fraction(1, 2)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one trial")
        if not 0 < self.p < 1:
            raise ValueError("success probability must lie strictly in (0, 1)")
        object.__setattr__(self, "p", exact_input(self.p, "p"))


def _check_multiplier(c) -> None:
    check_finite(c, "band multiplier c")
    if c <= 0:
        raise ValueError("band multiplier must be positive")


def band_bounds(spec: TrialSpec, c: float):
    """Inclusive integer range of counts k with |k - n*p| <= c*sqrt(n)/2.

    The mean n*p and the float half-width are compared exactly, as
    Fractions: a rounded mean can drop an endpoint that lies exactly on the
    band's edge (n = 3025, p = 3/11, c = 2: n*p = 825, half-width 55).
    A finite c whose half-width overflows to inf takes every count.
    """
    c = float(c)
    _check_multiplier(c)
    check_double(spec.n, "n")
    half_width = c * math.sqrt(spec.n) / 2
    if math.isinf(half_width):
        return 0, spec.n
    mu = spec.n * spec.p
    half_width = Fraction(half_width)
    lo = max(0, math.ceil(mu - half_width))
    hi = min(spec.n, math.floor(mu + half_width))
    return lo, hi


def exact_central_probability(spec: TrialSpec, c: float):
    """Sum of binomial masses over the inclusive central band.

    Returns an exact Fraction for n <= 4096 (p is used exactly, a float p
    as the decimal TrialSpec makes of it); above, an lgamma-anchored float
    sum capped at 1, within about eps n ln n of the mass, relatively, whose
    terms are charged 15000 each once the band is known.
    """
    lo, hi = band_bounds(spec, c)
    if spec.n <= RATIONAL_LIMIT:
        return _band_mass(spec.n, spec.p, lo, hi)
    if lo > hi:
        return 0.0
    charge(15000 * (hi - lo + 1), "band width", hi - lo + 1)
    return _band_probability_float(spec.n, float(spec.p), lo, hi)


def _band_mass(n: int, p: Fraction, lo: int, hi: int) -> Fraction:
    """Exact binomial mass of the counts lo..hi: d^n times it summed in integers, for p = a/d and q = d - a.

    The one exact band sum: a^lo q^(n-hi) sum_k u_k q^(hi-k), with
    u_k = C(n, k) a^(k-lo), over d^n.  The sum is taken by Horner's rule in
    q, BAND_BLOCK terms at a time.  Within a block from s, u_(s+i) is u_s
    times the small ratio prod_(j<i) (n-s-j) a / (s+j+1), so the block's
    sum, scaled by the last ratio's denominator, is a small integer built
    by a recurrence on products of at most BAND_BLOCK factors; one big
    multiply and exact divide by u_s gives the block's sum, and one more
    the next block's u.  The first coefficient C(n, lo) comes from
    exactnum.binomial_coefficient, which builds a large one from prime
    powers, and exactnum.over_power reduces the result through powers of
    d, not by a gcd against d^n.  An empty band (lo > hi) has mass 0.
    """
    if lo > hi:
        return Fraction(0)
    a, d = p.numerator, p.denominator
    q = d - a
    u = binomial_coefficient(n, lo)  # u_s, s the block's first count
    total = 0
    for s in range(lo, hi + 1, BAND_BLOCK):
        end = min(s + BAND_BLOCK, hi + 1)
        # after step k: rise/fall = u_(k+1) / u_s, part/fall = sum_(s<=j<=k+1) u_j q^(k+1-j) / u_s
        rise = fall = part = 1
        for k in range(s, end - 1):
            rise *= (n - k) * a
            fall *= k + 1
            part = part * (k + 1) * q + rise
        total = total * q ** (end - s) + u * part // fall
        if end <= hi:
            u = u * (rise * (n - end + 1) * a) // (fall * end)
    return exactnum.over_power(total * a**lo * q ** (n - hi), d, n)


def _band_probability_float(n, p, lo, hi):
    # exp(lgamma) anchors the in-band mode km, ratio walks step out from it,
    # and math.fsum rounds the sum of the terms once.  The anchor's log is off
    # by about eps * S absolute, S the sum of the magnitudes of its five parts
    # (three lgammas, km |ln p|, (n - km) |ln q|), and exp makes that the
    # relative error of every term; each walk step adds about 2 eps.  So the
    # relative error is about eps * (S + 2 (hi - lo + 1)), which grows like
    # eps n ln n (8.6e3 ulp at n = 5000, 3.2e5 ulp at n = 10^5, c = 1, p = 1/2).
    # It can lift a band near the whole row past 1 (n = 5000, every count:
    # 1.000000000001398), so the sum is capped at 1.
    q = 1.0 - p
    km = min(max(lo, int(n * p)), hi)
    anchor = math.exp(math.lgamma(n + 1) - math.lgamma(km + 1) - math.lgamma(n - km + 1)
                      + km * math.log(p) + (n - km) * math.log(q))
    up = ((n - k + 1) / k * (p / q) for k in range(km + 1, hi + 1))
    down = ((k + 1) / (n - k) * (q / p) for k in range(km - 1, lo - 1, -1))
    terms = chain(accumulate(up, mul, initial=anchor), islice(accumulate(down, mul, initial=anchor), 1, None))
    return min(1.0, math.fsum(terms))


def demoivre_term(n: int, l: int) -> float:
    """Density approximation 2/sqrt(2*pi*n) * exp(-2*l^2/n) at offset l.

    This is the fully reduced large-n form of C(n, n/2 +- l)/2^n; the
    prefactor is what the Stirling expansion of the central term leaves
    after cancellation.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if l < 0:
        raise ValueError("offset l must be non-negative")
    check_double(n, "n")
    check_double(l, "l")
    return 2.0 / math.sqrt(2 * math.pi * n) * math.exp(-2.0 * l * l / n)


def _gauss_kernel(t: float) -> float:
    return 2.0 / math.sqrt(2 * math.pi) * math.exp(-2.0 * t * t)


def limit_central_probability(c: float) -> float:
    """Limiting band probability: integral of (2/sqrt(2*pi))*exp(-2t^2) over |t| <= c/2.

    The range is cut at |t| <= GAUSS_CUTOFF, where the rest of the mass is
    below half an ulp of 1, the result is clamped to at most 1, and an
    error estimate above 1e-10 is refused.
    """
    _check_multiplier(c)
    half = min(c / 2.0, GAUSS_CUTOFF)
    value, estimate = _qags(_gauss_kernel, -half, half)
    if estimate > 1e-10:
        raise ArithmeticError(f"quadrature error estimate {estimate:g} above 1e-10")
    return min(value, 1.0)


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al. 1983, dqk21):
# Kronrod abscissae (the odd-indexed ones carry the 10-point Gauss rule,
# the last is the centre), Kronrod weights, and the Gauss weights.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_QUAD_TOLERANCE = 1e-13  # dqagse's absolute and relative tolerance alike
_QUAD_LIMIT = 50


def _kronrod21(f, a, b):
    """dqk21: (integral, error estimate, integral of |f|, integral of |f - mean|) over [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # Gauss nodes first, as dqk21 sums them
        absc = hlgth * _XGK[j]
        fv1[j] = fval1 = f(centr - absc)
        fv2[j] = fval2 = f(centr + absc)
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs = resabs * abs(hlgth)
    resasc = resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > sys.float_info.min / (50.0 * _EPS):
        abserr = max((_EPS * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qags(f, a, b):
    """(integral, error estimate) of f over [a, b] by QUADPACK's dqagse.

    This is the path a smooth integrand takes through dqagse: bisect the
    subinterval with the largest (error, rank) until the summed estimate
    is at most max(_QUAD_TOLERANCE, _QUAD_TOLERANCE * |integral|), the
    stop of dqagse with both tolerances 1e-13, then add the subinterval
    results in list order, with dqagse's operations in dqagse's order.
    The half left in its parent's slot by bisection `last` ranks
    2*last + 1, the appended half 2*last: the tie order of QUADPACK's dqpsrt list,
    which stays wholly sorted for 26 bisections, so up to there both pick
    alike.  Left out are dqagse's epsilon-algorithm extrapolation (with
    the bisection order it can impose) and its roundoff exits; over
    |t| <= GAUSS_CUTOFF the Gauss kernel never reaches them, and the tests
    check the result against QUADPACK's bit for bit.
    """
    result, abserr, _, resasc = _kronrod21(f, a, b)
    errbnd = max(_QUAD_TOLERANCE, _QUAD_TOLERANCE * abs(result))
    if (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr
    parts = [(abserr, 0, a, b, result)]  # (error, rank, lower, upper, integral) per subinterval
    area, errsum = result, abserr
    for last in range(1, _QUAD_LIMIT):
        maxerr = parts.index(max(parts))
        errmax, _, a1, b2, area0 = parts[maxerr]
        b1 = 0.5 * (a1 + b2)
        area1, error1, _, _ = _kronrod21(f, a1, b1)
        area2, error2, _, _ = _kronrod21(f, b1, b2)
        errsum = errsum + (error1 + error2) - errmax
        area = area + (area1 + area2) - area0
        errbnd = max(_QUAD_TOLERANCE, _QUAD_TOLERANCE * abs(area))
        # the half with the larger error keeps slot maxerr, the other is appended
        if error2 > error1:
            parts[maxerr] = (error2, 2 * last + 1, b1, b2, area2)
            parts.append((error1, 2 * last, a1, b1, area1))
        else:
            parts[maxerr] = (error1, 2 * last + 1, a1, b1, area1)
            parts.append((error2, 2 * last, b1, b2, area2))
        if errsum <= errbnd:
            total = 0.0
            for part in parts:
                total += part[4]
            return total, errsum
    raise ArithmeticError(f"quadrature did not converge within {_QUAD_LIMIT} subintervals")


def remark1_fraction(n: int) -> Fraction:
    """The exact band fraction 1/(2*sqrt(n)) for a perfect-square n."""
    if n < 1:
        raise ValueError("n must be positive")
    root = math.isqrt(n)
    if root * root != n:
        raise ValueError(f"{n} is not a perfect square; use 0.5*n**-0.5 for reals")
    return Fraction(1, 2 * root)


def sample_size(p, c, alpha) -> int:
    """Smallest n with P(|X_1+...+X_n)/n - p| <= c) >= 1 - alpha, exactly.

    The exact band probability saws back and forth in n (e.g. at p = 1/2,
    c = 0.05, alpha = 0.05 the satisfying set has holes up to n = 398), so
    the scan walks upward from n = 1 until the band holds 1 - alpha.  It
    always stops: by Bernoulli's theorem the band probability tends to 1
    as n grows, and once c >= max(p, 1 - p) every count is in the band,
    so n = 1.  A float p, c or alpha is taken as the decimal it prints as,
    as TrialSpec takes p: 0.3 is 3/10.

    The scan runs on integers and builds no Fraction per n.  With p = a/d,
    q = d - a, p - c = ln/ld and p + c = hn/hd, the band of n is
    lo..hi = ceil(n ln / ld)..floor(n hn / hd) clamped to 0..n.  Each edge
    rises by at most one count per n, and lo <= hi + 1, so an empty band is
    lo = hi + 1 with sum 0.  The scan carries M = d^n P_n[lo, hi] and the
    edge terms N_n(lo) and N_n(hi), N_n(k) = C(n, k) a^k q^(n-k), from
    n = 0 (all three 1) upward by De Moivre's recurrence in n, Pascal's
    rule N_{n+1}(k) = a N_n(k-1) + q N_n(k) summed over the band:
    M <- d M + a (N_n(lo - 1) - N_n(hi)) is the mass of lo..hi at n + 1.
    Each edge term steps by an exact integer ratio, N_{n+1}(k) =
    N_n(k) (n+1) q / (n+1-k), and N_n(k -+ 1) comes from N_n(k) alike; a
    rising edge adds or drops one term.  So each n costs O(1) big-integer
    steps, where a fresh band (_band_mass) costs a binomial coefficient,
    two big powers and a walk over the band.  With 1 - alpha = tn/td the
    band holds 1 - alpha when M td >= tn d^n.

    Its integers grow by bits(d) a step, so a scan to n costs about
    60 n^2 bits(d) units.  Past the stretch that costs a hundredth of the
    budget, the scan is charged that for the n the normal approximation
    predicts (_charge_scan).  The stretch runs uncharged because the band
    can hold 1 - alpha far sooner than predicted where alpha is large
    (p = 1/2, c = 1/1000 and alpha = 1/2 stop at n = 2, where 113,735 is
    predicted).
    """
    p = exact_input(p, "p")
    c = exact_input(c, "c")
    alpha = exact_input(alpha, "alpha")
    if not 0 < p < 1:
        raise ValueError("p must lie strictly in (0, 1)")
    if c <= 0:
        raise ValueError("tolerance c must be positive")
    if not 0 < alpha < 1:
        raise ValueError("risk alpha must lie strictly in (0, 1)")
    a, d = p.numerator, p.denominator
    q = d - a
    low, high, target = p - c, p + c, 1 - alpha
    ln, ld = low.numerator, low.denominator
    hn, hd = high.numerator, high.denominator
    tn, td = target.numerator, target.denominator
    charged_at = math.isqrt(exactnum.WORK_BUDGET // (100 * 60 * d.bit_length())) + 1
    n = lo = hi = 0
    mass = bottom = top = scale = 1  # M, N_n(lo), N_n(hi) and d^n at n = 0
    while True:
        n += 1
        if n == charged_at:
            _charge_scan(p, c, alpha)
        below = bottom * lo * q // ((n - lo) * a)  # N_{n-1}(lo - 1), 0 at lo = 0
        mass = d * mass + a * (below - top)  # the band lo..hi of n - 1, at n
        scale *= d
        bottom = bottom * n * q // (n - lo)
        top = top * n * q // (n - hi)
        if hi < n * hn // hd:  # hi stays at most n: it rises by at most one per n
            top = top * (n - hi) * a // ((hi + 1) * q)
            hi += 1
            mass += top
        if lo < -(-n * ln // ld):
            mass -= bottom
            bottom = bottom * (n - lo) * a // ((lo + 1) * q)
            lo += 1
        if mass * td >= tn * scale:
            return n


def _charge_scan(p: Fraction, c: Fraction, alpha: Fraction) -> None:
    """Charge sample_size's scan 60 n^2 bits(d), p = a/d, for the n of the normal approximation, pq (z/c)^2.

    z is the normal quantile of 1 - alpha/2: 1537 is predicted where the
    scan stops at 1501 (p = 1/2, c = 1/40, alpha = 1/20).  Where alpha/2
    underflows a double, z^2 is bounded by 2 ln(2/alpha), the Gaussian
    tail bound.
    """
    from statistics import NormalDist

    tail = float(alpha / 2)
    if tail:
        z2 = NormalDist().inv_cdf(tail) ** 2
    else:
        z2 = 2 * (math.log(2 * alpha.denominator) - math.log(alpha.numerator))
    n = math.ceil(Fraction(z2) * p * (1 - p) / (c * c))
    charge(60 * n * n * p.denominator.bit_length(), "predicted n", n)


def simulate_band(spec: TrialSpec, c: float, reps: int, seed: int) -> float:
    """Empirical band frequency over seeded replications, charged 30000 a rep.

    Replications are split into 4096-rep chunks; the chunk that starts at
    rep s has index s // 4096 and draws from a PCG64 generator seeded by
    SeedSequence([seed, index]).  The in-band counts are integers, so their
    sum, and the output, is bit-identical for a given (spec, c, reps, seed)
    whatever the thread count.  That count is min(os.cpu_count(), chunks):
    each thread counts every threads-th chunk, and a single chunk (or CPU)
    runs in this thread with no pool.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    check_index(spec.n, "n")
    charge(30000 * reps, "reps", reps)
    import numpy as np

    lo, hi = band_bounds(spec, c)
    p = float(spec.p)
    starts = range(0, reps, _SIM_CHUNK)
    threads = min(os.cpu_count() or 1, len(starts))

    def count(first: int) -> int:
        inside = 0
        for start in starts[first::threads]:
            rng = np.random.default_rng([seed, start // _SIM_CHUNK])
            draws = rng.binomial(spec.n, p, size=min(_SIM_CHUNK, reps - start))
            inside += int(np.count_nonzero((draws >= lo) & (draws <= hi)))
        return inside

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            return sum(pool.map(count, range(threads))) / reps
    return count(0) / reps
