"""Exact integer/rational arithmetic and odds-probability conversions.

Python integers are arbitrary precision, so 32! and friends are exact by
construction; rationals ride on fractions.Fraction, which normalizes to
lowest terms with a positive denominator on every construction.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, zip_longest

# The work budget of one call, in units of ~10 ps on a 2-CPU Xeon VM: ~3 s.
# Each call whose work grows with its input predicts its cost in these units
# and charges it before the work starts; the README tabulates every cost.
WORK_BUDGET = 3 * 10**11

# The primes kept for binomial_coefficient run to the largest n asked for so
# far, but never past this cap: 6542 primes in an array('I') of 26 KB.
PRIME_TABLE_CAP = 1 << 16
_prime_table = (1, array("I"))  # (n, the primes <= n); rebound whole, never changed in place


def check_double(n: int, name: str) -> None:
    """Refuse, naming the parameter, an int n that float() cannot take."""
    try:
        float(n)
    except OverflowError:
        raise ValueError(f"{name} must lie in the double range, got {name} of {n.bit_length()} bits") from None


def check_index(n: int, name: str) -> None:
    """Refuse, naming the parameter, an int n past sys.maxsize: numpy's int64 cannot take it."""
    if n > sys.maxsize:
        raise ValueError(f"{name} must be at most sys.maxsize = {sys.maxsize}, got {name} of {n.bit_length()} bits")


def charge(cost: int, name: str, value: int) -> None:
    """Refuse, naming the parameter, its value, the cost and the budget, work that costs past WORK_BUDGET.

    A value or cost past sys.maxsize is named by its bits, so any int is
    refused in a message of bounded size.
    """
    if cost > WORK_BUDGET:
        got = f"= {value}" if value <= sys.maxsize else f"of {value.bit_length()} bits"
        costs = cost if cost <= sys.maxsize else f"at least 2^{cost.bit_length() - 1}"
        raise ValueError(f"{name} {got} is past the work budget: it costs {costs} units, the budget is {WORK_BUDGET}")


def check_finite(x, name: str) -> None:
    """Refuse, naming the parameter, an x that is infinite or NaN."""
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def exact_input(x, name: str) -> Fraction:
    """x as a Fraction; a float as the decimal it prints as, refused by name unless finite.

    0.3 is 3/10, not its binary value, whose 2^54 denominator would pass into
    every exact sum; float() of the result is x again.
    """
    if isinstance(x, float):
        check_finite(x, name)
        return Fraction(repr(float(x)))
    return Fraction(x)


def factorial(n: int) -> int:
    """Exact n!, n >= 0, charged 30 n^2: printing grows as the square of its digits."""
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    charge(30 * n * n, "n", n)
    return math.factorial(n)


def binomial_coefficient(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k < 0 or k > n.

    For a small side j = min(k, n - k) this is math.comb.  For a large one,
    C(n, k) is the product of p^e over the primes p <= n, where
    e = sum_i (n // p^i - j // p^i - (n - j) // p^i) (Legendre's formula),
    multiplied in a balanced tree: no big division is made, where
    math.comb divides big integers.  For p > sqrt(n) only i = 1 counts,
    primes in (n - j, n] have e = 1 and primes in (n/2, n - j] have e = 0.

    The sieve makes the prime route cost about linearly in n however small
    j is, so the route switches on j.  On Python 3.11 (2-CPU Xeon VM), with
    a sieve in every call, the two routes cost the same at j ~ 650 for
    n <= 3000, at j ~ 1210 for n = 10^4, 1720 for 2*10^4 and 4300 for 10^5,
    which 12*isqrt(n) + 300 follows within a quarter.  The primes now come
    from the table _primes_upto keeps, so up to PRIME_TABLE_CAP only the
    first call at a new largest n sieves, and at n = 20000, k = 10000 the
    prime route takes ~0.4 ms against ~9 ms for math.comb; the switch, and
    the sieve charge with it, stays where the sieve put it.

    Charged, before the sieve, bits^2 / 12 for the bound bits of
    j log2(e n / j) on C(n, k)'s bits (its product, and its printing, grow
    as their square), plus 2000 n for the sieve when the prime route takes
    it, kept or not.
    """
    if n < 0:
        raise ValueError("binomial_coefficient requires n >= 0")
    if k < 0 or k > n:
        return 0
    j = min(k, n - k)
    by_primes = _by_primes(n, j)
    bits = j * math.ceil(64 * (math.log2(n) + math.log2(math.e) - math.log2(j))) // 64 if j else 0
    charge(bits * bits // 12 + (2000 * n if by_primes else 0), "n", n)
    if not by_primes:
        return math.comb(n, k)
    m = n - j
    primes = _primes_upto(n)
    root, half, top = (bisect_right(primes, x) for x in (math.isqrt(n), n // 2, m))
    factors = primes[top:].tolist()
    for p in primes[:root]:
        e, power = 0, p
        while power <= n:
            e += n // power - j // power - m // power
            power *= p
        if e:
            factors.append(p**e)
    factors += [p for p in primes[root:half] if n // p - j // p - m // p]
    return balanced(operator.mul, factors)


def _by_primes(n: int, j: int) -> bool:
    """Whether C(n, j), j <= n/2, is built from prime powers rather than by math.comb."""
    return j >= 12 * math.isqrt(n) + 300


def _primes_upto(n: int) -> array:
    """The primes <= n as an array('I'): a slice of the kept table, or a sieve over the odd numbers.

    A larger n than the table holds, up to PRIME_TABLE_CAP, is sieved once
    and its primes replace the table; past the cap each call sieves and
    keeps nothing.  The table is replaced by rebinding one (n, primes)
    pair, so a thread reads either the old pair or the new one, whole.
    """
    global _prime_table
    upto, primes = _prime_table
    if n <= upto:
        return primes[: bisect_right(primes, n)]
    sieve = bytearray([1]) * ((n + 1) // 2)  # entry i stands for 2i + 1
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            start = 2 * i * (i + 1)  # the entry of (2i + 1)^2
            sieve[start :: 2 * i + 1] = bytes(len(range(start, len(sieve), 2 * i + 1)))
    primes = array("I", [2])
    primes.extend(compress(range(1, n + 1, 2), sieve))
    if n <= PRIME_TABLE_CAP:
        _prime_table = n, primes
    return primes


def over_power(numerator: int, base: int, exponent: int) -> Fraction:
    """numerator / base^exponent in lowest terms, base >= 1 and exponent >= 0, with one gcd against a small power.

    The common factor is gcd(numerator, base^k) for the least k it stops
    growing at, k = 1, 2, 4, ... capped at the exponent: once doubling k
    leaves it unchanged, every prime of the base divides the numerator
    fewer times than base^k holds it, so larger powers add nothing.  Each
    gcd sets a big numerator against a power no larger than needed, where
    Fraction(numerator, base**exponent) takes the gcd of two big integers.
    The result is built on its two slots, so Fraction takes no second gcd:
    its own way to skip the gcd differs between Python 3.10 and 3.13, the
    slots do not.
    """
    if base < 1 or exponent < 0:
        raise ValueError("over_power requires base >= 1 and exponent >= 0")
    common, k = 1, 0
    while k < exponent:
        k = min(2 * k, exponent) if k else 1
        wider = math.gcd(numerator, base**k)
        if wider == common:
            break
        common = wider
    out = object.__new__(Fraction)
    out._numerator = numerator // common
    out._denominator = base**exponent // common
    return out


def balanced(op, items: list) -> int:
    """op, mul or lcm (both have unit 1), over the items in a balanced tree, so big operands meet big ones."""
    while len(items) > 1:
        pairs = iter(items)
        items = [op(a, b) for a, b in zip_longest(pairs, pairs, fillvalue=1)]
    return items[0] if items else 1


@dataclass(frozen=True)
class Odds:
    """A reduced for:against pair. Not both zero; stored coprime."""

    favor: int
    against: int

    def __post_init__(self):
        if self.favor < 0 or self.against < 0:
            raise ValueError("odds components must be non-negative")
        if self.favor == 0 and self.against == 0:
            raise ValueError("odds 0:0 are undefined")
        g = math.gcd(self.favor, self.against)
        if g > 1:
            object.__setattr__(self, "favor", self.favor // g)
            object.__setattr__(self, "against", self.against // g)


def odds_from_probability(p: Fraction) -> Odds:
    """Reduced odds for an event of rational probability p in [0, 1].

    p = 0 and p = 1 yield 0:1 and 1:0 respectively.
    """
    p = Fraction(p)
    if p < 0 or p > 1:
        raise ValueError("probability must lie in [0, 1]")
    q = 1 - p
    return Odds(p.numerator * q.denominator, q.numerator * p.denominator)


def probability_from_odds(odds: Odds) -> Fraction:
    """Exact inverse of odds_from_probability: for/(for+against)."""
    return Fraction(odds.favor, odds.favor + odds.against)
