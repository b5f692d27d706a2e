"""Focal and central-force properties of the ellipse, checked numerically.

Points are parametrized by the eccentric angle: M = (a cos t, b sin t).
The focal-product identity says (distance to focus 1)*(distance to focus 2)
equals the squared half-diameter parallel to the tangent at M.  The
central-force law evaluated here is FM/(R * FP^3) with the force centre at
the focus (+c, 0): FM the focal radius, FP the perpendicular from the
focus to the tangent, R the radius of curvature ("diameter of the
evolute" read as the curvature radius).  Along one orbit, force * FM^2 is
constant -- the inverse-square consequence in its directly testable form.

The four public operations raise a ValueError naming a and b for an
ellipse whose figures leave the double range (a^3 past 1e308, say, or a
focal product below the least normal double, 2.2e-308).  Every figure
that geometry makes positive -- both focal-product values, the curvature
radius, the force and the inverse-square constant -- comes back as a
normal double, never as an underflowed 0 or a subnormal; the relative
deviation, which may be 0, comes back finite.  Only the result is
checked, so accepted results keep every bit.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .exactnum import charge, check_finite

_NORMAL, _LARGEST = sys.float_info.min, sys.float_info.max


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float

    def __post_init__(self):
        for name, value in (("semi-major axis a", self.a), ("semi-minor axis b", self.b)):
            check_finite(value, name)
        if not self.b > 0:
            raise ValueError("semi-minor axis must be positive")
        if self.a < self.b:
            raise ValueError("semi-major axis must be at least the semi-minor axis")

    @property
    def focal_distance(self) -> float:
        return math.sqrt(self.a * self.a - self.b * self.b)


def _in_double_range(positive: int):
    """op(e, arg), refused with a ValueError naming a and b unless its first
    `positive` values are normal doubles and the values after them finite."""

    def wrap(op):
        @functools.wraps(op)
        def checked(e: Ellipse, arg):
            try:
                result = op(e, arg)
            except (OverflowError, ZeroDivisionError):
                pass
            else:
                values = result if isinstance(result, tuple) else (result,)
                normal, rest = values[:positive], values[positive:]
                if all(_NORMAL <= v <= _LARGEST for v in normal) and all(map(math.isfinite, rest)):
                    return result
            raise ValueError(f"ellipse a = {e.a!r}, b = {e.b!r} is out of double range for {op.__name__}")

        return checked

    return wrap


@_in_double_range(2)
def focal_product(e: Ellipse, theta: float):
    """(product of the two focal radii, squared parallel half-diameter).

    The half-diameter parallel to the tangent at angle t ends at the
    ellipse point with angle t + pi/2.  The two numbers agree to within
    1e-12 * a^2; a violation would mean a broken evaluation, not geometry.
    """
    check_finite(theta, "angle theta")
    c = e.focal_distance
    x, y = e.a * math.cos(theta), e.b * math.sin(theta)
    d1 = math.hypot(x - c, y)
    d2 = math.hypot(x + c, y)
    product = d1 * d2
    px, py = -e.a * math.sin(theta), e.b * math.cos(theta)
    halfdiam_sq = px * px + py * py
    if abs(product - halfdiam_sq) > 1e-12 * e.a * e.a:
        raise ArithmeticError("focal product and parallel half-diameter disagree")
    return product, halfdiam_sq


def _curvature(a: float, b: float, ct: float, st: float) -> float:
    return (a * a * st * st + b * b * ct * ct) ** 1.5 / (a * b)


def _force(a: float, b: float, c: float, ct: float, st: float):
    """(force, focal radius FM) at the angle t, given the axes a and b, c = the focal distance, cos t and sin t."""
    fm = a - c * ct
    # tangent line at M: (x cos t)/a + (y sin t)/b = 1
    fp = abs(c * ct / a - 1.0) / math.hypot(ct / a, st / b)
    return fm / (_curvature(a, b, ct, st) * fp**3), fm


@_in_double_range(1)
def radius_of_curvature(e: Ellipse, theta: float) -> float:
    """(a^2 sin^2 t + b^2 cos^2 t)^(3/2) / (a*b)."""
    check_finite(theta, "angle theta")
    return _curvature(e.a, e.b, math.cos(theta), math.sin(theta))


@_in_double_range(1)
def centripetal_force(e: Ellipse, theta: float) -> float:
    """FM / (R * FP^3), force centre at the focus (+c, 0)."""
    check_finite(theta, "angle theta")
    return _force(e.a, e.b, e.focal_distance, math.cos(theta), math.sin(theta))[0]


@_in_double_range(1)
def inverse_square_constant(e: Ellipse, samples: int):
    """(mean of force*FM^2 on a uniform angle grid, max relative deviation), charged 75000 a sample.

    The values stream into math.fsum, which keeps only their least and
    greatest: float subtraction is monotone, so the largest |v - mean| is
    vmax - mean or mean - vmin, and memory stays O(1) in samples.
    """
    if samples < 3:
        raise ValueError("need at least three sample angles")
    charge(75000 * samples, "samples", samples)
    a, b, c, turn = e.a, e.b, e.focal_distance, 2 * math.pi
    low, high = math.inf, -math.inf

    def values():
        nonlocal low, high
        for i in range(samples):
            theta = turn * i / samples
            force, fm = _force(a, b, c, math.cos(theta), math.sin(theta))
            v = force * fm * fm
            if v < low:
                low = v
            if v > high:
                high = v
            yield v

    mean = math.fsum(values()) / samples
    deviation = max(high - mean, mean - low) / abs(mean)
    return mean, deviation
