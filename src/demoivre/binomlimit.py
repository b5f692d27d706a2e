"""The 1733 approximation to the symmetric binomial and its exact checks.

Central-band masses P(|X - np| <= c*sqrt(n)/2) are summed exactly in
rational arithmetic up to n = 4096 (2^n denominators stay affordable
there) and in compensated floating point above.  One kernel, `_band_mass`,
takes every exact band sum, for the central band and for the sample-size
scan alike: an integer recurrence steps each binomial coefficient from the
last and accumulates the terms by Horner's rule, so a band takes one
math.comb and three big powers in all, not a comb and two powers per term.
The limiting band probability integrates the kernel
(2/sqrt(2*pi))*exp(-2 t^2) numerically; the closed-form erf route is
deliberately left to the test suite as an independent oracle.  Band
endpoints are inclusive throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtri

RATIONAL_LIMIT = 4096
MAX_WORKERS = 32
_SIM_CHUNK = 4096


@dataclass(frozen=True)
class TrialSpec:
    """n independent trials with success probability p (default 1/2)."""

    n: int
    p: object = Fraction(1, 2)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one trial")
        if not 0 < self.p < 1:
            raise ValueError("success probability must lie strictly in (0, 1)")


@dataclass(frozen=True)
class CentralBand:
    """Half-width multiplier c and the implied band half-width c*sqrt(n)/2."""

    c: float
    half_width: float

    def __post_init__(self):
        _check_multiplier(self.c)

    @classmethod
    def for_trials(cls, c: float, n: int) -> "CentralBand":
        return cls(c=float(c), half_width=float(c) * math.sqrt(n) / 2)


def _check_multiplier(c) -> None:
    if not math.isfinite(c):
        raise ValueError(f"band multiplier c must be finite, got {c!r}")
    if c <= 0:
        raise ValueError("band multiplier must be positive")


def band_bounds(spec: TrialSpec, c: float):
    """Inclusive integer range of counts k with |k - n*p| <= c*sqrt(n)/2."""
    band = CentralBand.for_trials(c, spec.n)
    mu = spec.n * float(spec.p)
    lo = max(0, math.ceil(mu - band.half_width))
    hi = min(spec.n, math.floor(mu + band.half_width))
    return lo, hi


def exact_central_probability(spec: TrialSpec, c: float):
    """Sum of binomial masses over the inclusive central band.

    Returns an exact Fraction for n <= 4096 (p is used exactly, floats
    included via their binary value), a compensated float above.
    """
    lo, hi = band_bounds(spec, c)
    if spec.n <= RATIONAL_LIMIT:
        return _band_mass(spec.n, Fraction(spec.p), lo, hi)
    if lo > hi:
        return 0.0
    return _band_probability_float(spec.n, float(spec.p), lo, hi)


def _band_mass(n: int, p: Fraction, lo: int, hi: int) -> Fraction:
    """Exact binomial mass of the counts lo..hi, the one exact band sum.

    With p = a/d and q = d - a the mass is
    a^lo q^(n-hi) / d^n * sum_k C(n, k) a^(k-lo) q^(hi-k), and the sum is
    taken by Horner's rule in q while u = C(n, k) a^(k-lo) steps by the
    exact ratio (n-k) a / (k+1).  Every step multiplies a big integer by a
    small one; the big powers are taken once, outside the loop.
    """
    if lo > hi:
        return Fraction(0)
    a = p.numerator
    q = p.denominator - a
    u = math.comb(n, lo)
    total = u
    for k in range(lo, hi):
        u = u * (n - k) // (k + 1) * a
        total = total * q + u
    return Fraction(total * a**lo * q ** (n - hi), p.denominator**n)


def _band_probability_float(n, p, lo, hi):
    # terms by two-sided recursion from the in-band mode, anchored by lgamma;
    # Neumaier summation keeps the accumulated error near one ulp
    q = 1.0 - p

    def logpmf(k):
        return (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * math.log(p)
            + (n - k) * math.log(q)
        )

    km = min(max(lo, int(n * p)), hi)
    total = 0.0
    comp = 0.0

    def add(x):
        nonlocal total, comp
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t

    anchor = math.exp(logpmf(km))
    add(anchor)
    term = anchor
    for k in range(km + 1, hi + 1):
        term *= (n - k + 1) / k * (p / q)
        add(term)
    term = anchor
    for k in range(km - 1, lo - 1, -1):
        term *= (k + 1) / (n - k) * (q / p)
        add(term)
    return total + comp


def stirling_log_factorial(x: float) -> float:
    """ln x! by the two-term Stirling form x*ln(x) - x + ln(2*pi*x)/2.

    Reference implementation of the approximation behind the central-term
    density; the exact paths never use it.
    """
    if x <= 0:
        raise ValueError("stirling form needs x > 0")
    return x * math.log(x) - x + 0.5 * math.log(2 * math.pi * x)


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
    return 2.0 / math.sqrt(2 * math.pi * n) * math.exp(-2.0 * l * l / n)


def _gauss_kernel(t: float) -> float:
    return 2.0 / math.sqrt(2 * math.pi) * math.exp(-2.0 * t * t)


def limit_central_probability(c: float) -> float:
    """Limiting band probability: integral of (2/sqrt(2*pi))*exp(-2t^2) over |t| <= c/2."""
    _check_multiplier(c)
    value, estimate = quad(_gauss_kernel, -c / 2.0, c / 2.0, epsabs=1e-13, epsrel=1e-13)
    if estimate > 1e-10:
        raise ArithmeticError(f"quadrature error estimate {estimate:g} above 1e-10")
    return value


def limit_tail_probability(c: float) -> float:
    """Complementary integral over |t| > c/2 (two equal tails)."""
    _check_multiplier(c)
    value, estimate = quad(_gauss_kernel, c / 2.0, math.inf, epsabs=1e-13, epsrel=1e-13)
    if estimate > 1e-10:
        raise ArithmeticError(f"quadrature error estimate {estimate:g} above 1e-10")
    return 2.0 * value


def remark1_fraction(n: int) -> Fraction:
    """The exact band fraction 1/(2*sqrt(n)) for a perfect-square n."""
    if n < 1:
        raise ValueError("n must be positive")
    root = math.isqrt(n)
    if root * root != n:
        raise ValueError(f"{n} is not a perfect square; use 0.5*n**-0.5 for reals")
    return Fraction(1, 2 * root)


def _band_probability_exact_frequency(n: int, p: Fraction, c: Fraction) -> Fraction:
    """P(|X/n - p| <= c) exactly, for the sample-size search."""
    lo = max(0, math.ceil(n * (p - c)))
    hi = min(n, math.floor(n * (p + c)))
    return _band_mass(n, p, lo, hi)


def sample_size(p, c, alpha) -> int:
    """Smallest n with P(|X_1+...+X_n)/n - p| <= c) >= 1 - alpha, exactly.

    The exact band probability saws back and forth in n (e.g. at p = 1/2,
    c = 0.05, alpha = 0.05 the satisfying set has holes up to n = 398), so
    the scan walks upward from n = 1; the Gaussian-limit estimate
    (z_{1-alpha/2} / (2c))^2-style seed only scales the progress ceiling.
    Each n costs one exact band sum by the shared recurrence kernel
    (one math.comb, then big-by-small integer steps over the band).
    """
    p = Fraction(p)
    c = Fraction(c)
    alpha = Fraction(alpha)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly in (0, 1)")
    if c <= 0:
        raise ValueError("tolerance c must be positive")
    if not 0 < alpha < 1:
        raise ValueError("risk alpha must lie strictly in (0, 1)")
    target = 1 - alpha
    guard = 100 * gaussian_sample_size_estimate(p, c, alpha) + 1_000_000
    n = 1
    while True:
        if _band_probability_exact_frequency(n, p, c) >= target:
            return n
        n += 1
        if n > guard:
            raise ArithmeticError("scan ran far past the Gaussian-limit scale; inputs inconsistent")


def gaussian_sample_size_estimate(p, c, alpha) -> float:
    """Normal-limit seed (z_{1-alpha/2})^2 p(1-p)/c^2 for the exact scan's scale."""
    z = float(ndtri(1 - float(alpha) / 2))
    return z * z * float(p) * (1 - float(p)) / float(c) ** 2


def simulate_band(spec: TrialSpec, c: float, reps: int, seed: int, workers: int | None = None) -> float:
    """Empirical band frequency over seeded replications.

    Replications are split into fixed 4096-rep chunks; chunk i draws from
    a PCG64 generator seeded by SeedSequence([seed, i]) and results are
    combined in chunk order, so the output is bit-identical for a given
    (seed, reps, n) regardless of the worker count, which may be None or
    0..MAX_WORKERS.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    if workers is not None and not 0 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in 0..{MAX_WORKERS}, got {workers}")
    lo, hi = band_bounds(spec, c)
    p = float(spec.p)

    def run_chunk(index: int, size: int) -> int:
        rng = np.random.default_rng([seed, index])
        counts = rng.binomial(spec.n, p, size=size)
        return int(np.count_nonzero((counts >= lo) & (counts <= hi)))

    sizes = []
    left = reps
    while left > 0:
        sizes.append(min(_SIM_CHUNK, left))
        left -= sizes[-1]

    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            inside = sum(pool.map(run_chunk, range(len(sizes)), sizes))
    else:
        inside = sum(run_chunk(i, m) for i, m in enumerate(sizes))
    return inside / reps
