import math
import random

import pytest

from demoivre import conics, exactnum
from demoivre.conics import (
    Ellipse,
    centripetal_force,
    focal_product,
    inverse_square_constant,
    radius_of_curvature,
)

from cli_cases import refusal

SQRT3 = math.sqrt(3)


def two_evaluation_force(e, theta):
    """Oracle: (force, FM) as the force and inverse-square routes formed them from theta.

    The focal radius and pedal are evaluated once for FM and once more for
    the force, and the curvature radius takes its own sin and cos.
    """

    def focal_radius_and_pedal():
        c = e.focal_distance
        fm = e.a - c * math.cos(theta)
        ct, st = math.cos(theta), math.sin(theta)
        return fm, abs(c * ct / e.a - 1.0) / math.hypot(ct / e.a, st / e.b)

    s, c = math.sin(theta), math.cos(theta)
    curvature = (e.a * e.a * s * s + e.b * e.b * c * c) ** 1.5 / (e.a * e.b)
    fm, fp = focal_radius_and_pedal()
    force = fm / (curvature * fp**3)
    fm, _ = focal_radius_and_pedal()
    return force, fm


def two_evaluation_inverse_square(e, samples):
    """Oracle: inverse_square_constant by the two-evaluation route."""
    values = []
    for i in range(samples):
        force, fm = two_evaluation_force(e, 2 * math.pi * i / samples)
        values.append(force * fm * fm)
    mean = math.fsum(values) / samples
    return mean, max(abs(v - mean) for v in values) / abs(mean)


GRID_ELLIPSES = [
    Ellipse(ratio * b, b) for b in (0.3, 1.0, 2.5, 7.0) for ratio in (1.0, 1.01, 1.7, 4.0, 30.0)
]


@pytest.mark.parametrize("e", GRID_ELLIPSES)
def test_force_and_inverse_square_equal_the_two_evaluation_route(e):
    for samples in (3, 7, 90, 360):
        assert inverse_square_constant(e, samples) == two_evaluation_inverse_square(e, samples)
    for i in range(64):
        theta = -7.0 + 0.23 * i
        assert centripetal_force(e, theta) == two_evaluation_force(e, theta)[0]


def test_focal_product_circle():
    product, halfdiam_sq = focal_product(Ellipse(2.0, 2.0), 1.234)
    assert product == pytest.approx(4.0)
    assert halfdiam_sq == pytest.approx(4.0)


def test_focal_product_vertices():
    e = Ellipse(2.0, 1.0)
    product, halfdiam_sq = focal_product(e, 0.0)
    assert product == pytest.approx((2 - SQRT3) * (2 + SQRT3))
    assert halfdiam_sq == pytest.approx(1.0)
    product, halfdiam_sq = focal_product(e, math.pi / 2)
    assert product == pytest.approx(4.0)
    assert halfdiam_sq == pytest.approx(4.0)


def test_focal_product_identity_on_grid():
    rng = random.Random(1717)
    for _ in range(10):
        b = rng.uniform(1.0, 10.0)
        a = rng.uniform(b, 10.0)
        e = Ellipse(a, b)
        for i in range(720):
            theta = 2 * math.pi * i / 720
            product, halfdiam_sq = focal_product(e, theta)
            assert abs(product - halfdiam_sq) <= 1e-12 * halfdiam_sq


def test_radius_of_curvature_reference_points():
    for r in (0.5, 1.0, 3.7):
        circle = Ellipse(r, r)
        for theta in (0.0, 1.0, 2.5):
            assert radius_of_curvature(circle, theta) == pytest.approx(r)
    e = Ellipse(2.0, 1.0)
    assert radius_of_curvature(e, 0.0) == pytest.approx(0.5)  # b^2/a
    assert radius_of_curvature(e, math.pi / 2) == pytest.approx(4.0)  # a^2/b


def test_radius_of_curvature_symmetries():
    e = Ellipse(3.0, 2.0)
    for theta in (0.3, 1.1, 2.0):
        assert radius_of_curvature(e, -theta) == pytest.approx(radius_of_curvature(e, theta))
        assert radius_of_curvature(e, math.pi - theta) == pytest.approx(radius_of_curvature(e, theta))


def test_force_constant_on_circle():
    for r in (1.0, 2.0, 5.0):
        circle = Ellipse(r, r)
        values = [centripetal_force(circle, 2 * math.pi * i / 16) for i in range(16)]
        for v in values:
            assert v == pytest.approx(1 / r**3, rel=1e-12)


def test_force_times_fm_squared_at_vertices():
    e = Ellipse(2.0, 1.0)
    fm0 = 2 - SQRT3
    assert centripetal_force(e, 0.0) * fm0**2 == pytest.approx(2.0, rel=1e-12)
    assert centripetal_force(e, math.pi / 2) * 4.0 == pytest.approx(2.0, rel=1e-12)


def test_inverse_square_constants():
    constant, deviation = inverse_square_constant(Ellipse(2.0, 1.0), 360)
    assert constant == pytest.approx(2.0, rel=1e-12)
    assert deviation <= 1e-9
    constant, deviation = inverse_square_constant(Ellipse(3.0, 2.0), 360)
    assert constant == pytest.approx(0.75, rel=1e-12)
    assert deviation <= 1e-9
    constant, deviation = inverse_square_constant(Ellipse(2.5, 2.5), 90)
    assert constant == pytest.approx(1 / 2.5, rel=1e-12)
    assert deviation <= 1e-12


def test_inverse_square_constant_random_ellipses():
    rng = random.Random(7)
    for _ in range(8):
        b = rng.uniform(0.5, 4.0)
        a = rng.uniform(b, 4.5)
        constant, deviation = inverse_square_constant(Ellipse(a, b), 257)
        assert constant == pytest.approx(a / b**2, rel=1e-10)
        assert deviation <= 1e-9


def test_ellipse_validation():
    with pytest.raises(ValueError):
        Ellipse(1.0, 2.0)
    with pytest.raises(ValueError):
        Ellipse(1.0, 0.0)
    with pytest.raises(ValueError):
        inverse_square_constant(Ellipse(2.0, 1.0), 2)


def test_inverse_square_samples_stop_at_their_work_ceiling(monkeypatch):
    # a sample is charged 75000
    e = Ellipse(2.0, 1.0)
    expected = inverse_square_constant(e, 10)
    monkeypatch.setattr(exactnum, "WORK_BUDGET", 750_000)
    assert inverse_square_constant(e, 10) == expected
    with pytest.raises(ValueError, match=refusal(825_000, "samples", 11)):
        inverse_square_constant(e, 11)
    with pytest.raises(ValueError, match="^samples of 1329 bits is past the work budget: "):
        inverse_square_constant(e, 10**400)


def test_inverse_square_streams_its_samples_bit_for_bit():
    # the deviation from the least and greatest sample is max |v - mean| over a list of them
    for a, b, samples in ((2.0, 1.0, 90), (3.0, 2.0, 120), (5.0, 4.0, 1000), (1.5, 1.0, 7), (1e3, 1e-3, 333)):
        e = Ellipse(a, b)
        values = [force * fm * fm for force, fm in (
            conics._force(e, e.focal_distance, math.cos(t), math.sin(t))
            for t in (2 * math.pi * i / samples for i in range(samples)))]
        mean = math.fsum(values) / samples
        listed = (mean, max(abs(v - mean) for v in values) / abs(mean))
        assert [x.hex() for x in inverse_square_constant(e, samples)] == [x.hex() for x in listed]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_ellipse_rejects_non_finite_axes(value):
    with pytest.raises(ValueError, match="semi-major axis a must be finite"):
        Ellipse(value, 1.0)
    with pytest.raises(ValueError, match="semi-minor axis b must be finite"):
        Ellipse(2.0, value)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("function", [focal_product, radius_of_curvature, centripetal_force])
def test_angle_functions_reject_non_finite_theta(function, theta):
    with pytest.raises(ValueError, match="angle theta must be finite"):
        function(Ellipse(2.0, 1.0), theta)
