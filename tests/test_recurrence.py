import cmath
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demoivre import cli, exactnum
from demoivre.exactnum import WORK_BUDGET
from demoivre.recurrence import (
    UNDERFLOW_STAKES,
    ClosedForm,
    DegenerateSpectrumError,
    DurationSpec,
    Recurrence,
    _power_tolerance,
    demoivre_power,
    duration_exceeds_closed,
    duration_exceeds_exact,
    duration_weights,
    eval_closed_form,
    factor_unity,
    iterate_terms,
    partial_sum,
    solve_recurrence,
)

from cli_cases import refusal


def polynomial_from_roots(roots):
    """Coefficients b_1 .. b_k of the recurrence whose characteristic roots are `roots`."""
    poly = [1.0]
    for r in roots:
        poly = [a - r * b for a, b in zip(poly + [0.0], [0.0] + poly)]
    return tuple(-c for c in poly[1:])


def test_geometric_recurrence():
    r = Recurrence((2.0,), (1.0,))
    cf = solve_recurrence(r)
    assert len(cf.terms) == 1
    coef, root = cf.terms[0]
    assert coef == pytest.approx(1.0)
    assert root == pytest.approx(2.0)
    assert eval_closed_form(cf, 5) == pytest.approx(32.0)


def test_fibonacci_closed_form():
    r = Recurrence((1.0, 1.0), (0.0, 1.0))
    cf = solve_recurrence(r)
    expected = iterate_terms(r, 13)
    assert eval_closed_form(cf, 10) == pytest.approx(expected[10], abs=1e-9)  # 55
    assert eval_closed_form(cf, 12) == pytest.approx(144.0, abs=1e-9)


def test_cosine_recurrence_multiple_angles():
    theta = math.pi / 7
    r = Recurrence((2 * math.cos(theta), -1.0), (1.0, math.cos(theta)))
    cf = solve_recurrence(r)
    for n in range(21):
        assert abs(eval_closed_form(cf, n) - math.cos(n * theta)) < 1e-10


def test_eval_single_unit_root():
    cf = ClosedForm(((3.0, 1.0),))
    assert eval_closed_form(cf, 7) == pytest.approx(3.0)


def test_eval_conjugate_pair():
    theta = math.pi / 7
    # cos(n theta) = (e^{i n theta} + e^{-i n theta}) / 2
    cf = ClosedForm(((0.5, cmath.exp(1j * theta)), (0.5, cmath.exp(-1j * theta))))
    assert abs(eval_closed_form(cf, 5) - math.cos(5 * theta)) < 1e-12


def test_eval_rejects_unpaired_imaginary():
    cf = ClosedForm(((1j, 2.0),))
    with pytest.raises(ArithmeticError):
        eval_closed_form(cf, 3)


def test_random_recurrences_match_iteration():
    rng = random.Random(63)
    built = 0
    while built < 50:
        order = rng.randrange(1, 5)
        roots = []
        while len(roots) < order:
            candidate = rng.uniform(-1.6, 1.6)
            if all(abs(candidate - r) > 0.15 for r in roots):
                roots.append(candidate)
        coeffs = polynomial_from_roots(roots)
        if coeffs[-1] == 0:
            continue
        init = tuple(rng.uniform(-3, 3) for _ in range(order))
        rec = Recurrence(coeffs, init)
        cf = solve_recurrence(rec)
        terms = iterate_terms(rec, 61)
        for n in range(61):
            tol = 1e-9 * max(1.0, abs(terms[n]))
            assert abs(eval_closed_form(cf, n) - terms[n]) <= tol
        built += 1


def test_partial_sum_examples():
    assert partial_sum(Recurrence((2.0,), (1.0,)), 5) == pytest.approx(63.0)
    fib = Recurrence((1.0, 1.0), (0.0, 1.0))
    assert partial_sum(fib, 10) == pytest.approx(143.0, abs=1e-9)
    constant = Recurrence((1.0,), (4.0,))
    assert partial_sum(constant, 9) == pytest.approx(40.0)


def test_partial_sum_matches_accumulation():
    rng = random.Random(9)
    for _ in range(20):
        roots = []
        order = rng.randrange(1, 4)
        while len(roots) < order:
            candidate = rng.uniform(-1.4, 1.4)
            if all(abs(candidate - r) > 0.2 for r in roots):
                roots.append(candidate)
        coeffs = polynomial_from_roots(roots)
        if coeffs[-1] == 0:
            continue
        rec = Recurrence(coeffs, tuple(rng.uniform(-2, 2) for _ in range(order)))
        direct = math.fsum(iterate_terms(rec, 41))
        assert abs(partial_sum(rec, 40) - direct) <= 1e-9 * max(1.0, abs(direct))


def test_partial_sum_near_a_unit_root_matches_the_exact_sum():
    # root^(upto+1) - 1 cancels for a real root near 1, and summing upto + 1
    # terms of 1 drops the ones in upto^2 * |root - 1|
    for k in range(2, 13):
        for root in (1 + 10.0**-k, 1 - 10.0**-k):
            exact_root = Fraction(root)
            for upto in (0, 1, 3, 10, 100, 1000):
                exact = (exact_root ** (upto + 1) - 1) / (exact_root - 1)
                value = partial_sum(Recurrence((root,), (1.0,)), upto)
                assert abs(Fraction(value) - exact) <= Fraction(1e-14) * exact, (root, upto)


@pytest.mark.parametrize("imag", [1e-4, 1e-5, 1e-6, 1e-7])
def test_a_complex_pair_near_one_is_refused_before_summing(imag):
    # roots 1 +- imag*i: the pair is as close to each other as to 1, so the
    # conditioning test refuses it and no complex root meets the near-1 rule
    rec = Recurrence((2.0, -(1 + imag * imag)), (1.0, 1.0))
    with pytest.raises(DegenerateSpectrumError, match=r"j and 1-"):
        partial_sum(rec, 10)


@pytest.mark.parametrize(
    "argv, n",
    [
        (["recur", "eval", "--coeffs", "1e300", "--init", "1", "--n", "5"], 5),  # was "nan", exit 0
        (["recur", "sum", "--coeffs", "1e300", "--init", "1", "--upto", "5"], 5),
        (["recur", "eval", "--coeffs", "2", "--init", "1", "--n", "1100"], 1100),  # was a raw OverflowError
        (["recur", "sum", "--coeffs", "2", "--init", "1", "--upto", "1023"], 1023),
    ],
)
def test_recurrence_out_of_double_range_exits_3_naming_n(argv, n):
    code, out, err = cli.dispatch(argv)
    assert (code, out) == (3, "")
    assert f"n={n}" in err
    assert "nan" not in err


def test_recurrence_at_the_edge_of_double_range_keeps_its_bits():
    for argv in (
        ["recur", "eval", "--coeffs", "2", "--init", "1", "--n", "1023"],
        ["recur", "sum", "--coeffs", "2", "--init", "1", "--upto", "1022"],
    ):
        code, out, _ = cli.dispatch(argv)
        assert code == 0
        assert float(json.loads(out)["result"]) == 2.0**1023


@pytest.mark.parametrize(
    "argv",
    [  # exited 0 with 9999.9857416152954, 338331.29992675781 and 124999.80337524414
        ["recur", "eval", "--coeffs", "3,-3,1", "--init", "0,1,4", "--n", "100"],  # a_n = n^2
        ["recur", "sum", "--coeffs", "3,-3,1", "--init", "0,1,4", "--upto", "100"],
        ["recur", "eval", "--coeffs", "4,-6,4,-1", "--init", "0,1,8,27", "--n", "50"],  # a_n = n^3
    ],
)
def test_clustered_roots_exit_3(argv):
    code, out, err = cli.dispatch(argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: characteristic roots ") and err.endswith(" are not separated\n")


@pytest.mark.parametrize(
    "argv, n",
    [  # every term is 2; these exited 0 with 242.73257611643842, 9.7872519616985711e+19,
        # 924.19772834930927 (true 202) and -1.56e193
        (["recur", "eval", "--coeffs", "2.5,-1.5", "--init", "2,2", "--n", "100"], 100),
        (["recur", "eval", "--coeffs", "2.5,-1.5", "--init", "2,2", "--n", "200"], 200),
        (["recur", "sum", "--coeffs", "2.5,-1.5", "--init", "2,2", "--upto", "100"], 100),
        (["recur", "eval", "--coeffs", "2.1,-1.1", "--init", "2,2", "--n", "5000"], 5000),
    ],
)
def test_a_vanishing_dominant_root_exits_3_naming_n(argv, n):
    code, out, err = cli.dispatch(argv)
    assert (code, out) == (3, "")
    assert f" at n={n} is past the closed form's accuracy: its error bound is " in err, err


def exact_terms(rec, count):
    """The first count terms in rational arithmetic (the floats of rec are taken exactly)."""
    coeffs = [Fraction(b) for b in rec.coefficients]
    out = [Fraction(a) for a in rec.initial_terms]
    while len(out) < count:
        out.append(sum(b * out[-i - 1] for i, b in enumerate(coeffs)))
    return out


# The dominant root's coefficient is exactly 0: the initial terms come from the
# other roots alone, so the solved coefficient of the dominant root is rounding,
# which its powers grow.  Every value the bound lets through must still be close.
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([-2.0, -1.75, -1.5, -1.25, 1.25, 1.5, 1.75, 2.0]),
    st.lists(st.tuples(st.integers(-4, 4).filter(bool), st.integers(-3, 3)), min_size=1, max_size=3,
             unique_by=lambda t: t[0]),
)
@example(1.5, [(4, 2)])  # coefficients 2.5, -1.5 and every term 2
def test_accepted_values_are_close_when_the_dominant_root_vanishes(dominant, others):
    roots = [dominant] + [k / 4 for k, _ in others]
    init = [float(sum(c * Fraction(k, 4) ** n for k, c in others)) for n in range(len(roots))]
    rec = Recurrence(polynomial_from_roots(roots), tuple(init))
    cf = solve_recurrence(rec)
    terms = exact_terms(rec, 201)
    for n in range(0, 201, 5):
        for route, exact in ((lambda: eval_closed_form(cf, n), terms[n]), (lambda: partial_sum(rec, n), sum(terms[: n + 1]))):
            try:
                value = route()
            except ArithmeticError as exc:
                assert f"n={n} " in str(exc)
                continue
            assert abs(value - exact) <= 1e-9 * max(1, abs(exact)), (n, value, float(exact))


def test_closed_form_needs_a_term_per_root():
    # the accuracy bound solves with the roots' Vandermonde matrix, singular for a repeated root
    for terms in ((), ((1.0, 2.0), (1.0, 2.0))):
        with pytest.raises(ValueError, match="at least one term, each with its own root"):
            ClosedForm(terms)


# np.roots splits an m-fold root by about eps^(1/m): a triple root at 1 came
# back 1.1e-5 apart, past the old pairwise test, and a_n = n^2 printed
# 9999.9857416152954 at n = 100.  Roots k/4 keep the coefficients exact, and
# |root| <= 1 keeps a root whose coefficient should be 0 from growing its
# rounding past the tolerance.
@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4).filter(bool), st.integers(1, 3)), min_size=1, max_size=3, unique_by=lambda t: t[0]
    ),
    st.lists(st.integers(-3, 3), min_size=9, max_size=9),
)
@example([(4, 3)], [0, 1, 4, 0, 0, 0, 0, 0, 0])  # (x-1)^3
@example([(4, 4)], [0, 1, 8, 27, 0, 0, 0, 0, 0])  # (x-1)^4
@example([(-2, 2), (3, 1)], [1, -1, 2, 0, 0, 0, 0, 0, 0])
def test_repeated_roots_are_refused_or_exact(roots, init):
    coeffs = polynomial_from_roots([k / 4 for k, m in roots for _ in range(m)])
    rec = Recurrence(coeffs, tuple(init[: len(coeffs)]))
    try:
        cf = solve_recurrence(rec)
    except DegenerateSpectrumError:
        return
    terms = iterate_terms(rec, 41)
    for n in range(41):
        assert abs(eval_closed_form(cf, n) - terms[n]) <= 1e-9 * max(1.0, abs(terms[n]))


def test_root_powers_past_the_double_range_are_refused():
    # roots ~1e200, 3 and 0: the Vandermonde row of squares overflows, and the
    # solve printed a closed form that missed a_2 = 1, with exit 0
    code, out, err = cli.dispatch(["recur", "solve", "--coeffs", "1e200,-3e200,2e200", "--init", "1,1,1"])
    assert (code, out) == (3, "")
    assert err == "error: characteristic root 1e+200 to the power 2 overflows a double\n"


def test_recurrence_validation():
    with pytest.raises(ValueError):
        Recurrence((1.0, 0.0), (1.0, 2.0))  # b_k = 0
    with pytest.raises(ValueError):
        Recurrence((1.0,), (1.0, 2.0))
    with pytest.raises(DegenerateSpectrumError):
        solve_recurrence(Recurrence((2.0, -1.0), (1.0, 1.0)))  # (x-1)^2


# ----------------------------------------------------------- duration of play


def test_duration_survives_zero_games():
    for b in (2, 3, 4, 9):
        assert duration_exceeds_exact(DurationSpec(b, 0.4, 0)) == 1.0


def test_duration_two_stakes_enumeration():
    assert duration_exceeds_exact(DurationSpec(2, 0.5, 4)) == pytest.approx(0.25)
    # WW/WL/LW/LL: only the mixed pairs keep playing
    assert duration_exceeds_exact(DurationSpec(2, 0.3, 2)) == pytest.approx(0.42)


def test_duration_closed_two_stakes_exact_powers():
    for n in range(0, 40, 2):
        assert duration_exceeds_closed(DurationSpec(2, 0.5, n)) == 0.5 ** (n // 2)


def test_duration_closed_matches_markov_grid():
    for b in (2, 4, 6, 8, 10):
        for p in (0.27, 0.5, 0.73):
            for n in range(0, 201, 2):
                spec = DurationSpec(b, p, n)
                assert abs(duration_exceeds_closed(spec) - duration_exceeds_exact(spec)) < 1e-10


def test_duration_stays_in_unit_interval():
    # unclamped, the closed form gave 1.0000000000000013 here and the walk
    # 1.0000000000000056 at b = 100, p = 0.45, n = 100
    assert duration_exceeds_closed(DurationSpec(200, 0.5, 2)) == 1.0
    assert duration_exceeds_exact(DurationSpec(100, 0.45, 100)) == 1.0
    for b in (2, 10, 50, 100, 200):
        for p in (0.3, 0.45, 0.5, 0.51):
            for n in (1, 2, 4, 100):
                spec = DurationSpec(b, p, n)
                assert 0.0 <= duration_exceeds_closed(spec) <= 1.0
                assert 0.0 <= duration_exceeds_exact(spec) <= 1.0
    # a value inside [0, 1] keeps its bits: the benchmark's case, b = 50, n = 3000
    for p in (0.49, 0.51):
        weights = duration_weights(50, p)
        assert duration_exceeds_closed(DurationSpec(50, p, 3000)) == math.fsum(c * t**1500 for t, c in weights)


def test_duration_parity_reduction_for_odd_n():
    for b in (4, 6):
        for p in (0.5, 0.27):
            for n in (1, 7, 33):
                odd = duration_exceeds_closed(DurationSpec(b, p, n))
                assert odd == duration_exceeds_closed(DurationSpec(b, p, n - 1))
                assert abs(odd - duration_exceeds_exact(DurationSpec(b, p, n))) < 1e-10


def test_duration_exact_monotone_and_symmetric():
    values = [duration_exceeds_exact(DurationSpec(6, 0.35, n)) for n in range(0, 60, 2)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    for n in (10, 25, 74):
        assert duration_exceeds_exact(DurationSpec(6, 0.35, n)) == pytest.approx(
            duration_exceeds_exact(DurationSpec(6, 0.65, n)), abs=1e-14
        )


def test_duration_walk_refuses_sizes_it_cannot_list_or_loop_by_name():
    with pytest.raises(ValueError, match="^n of 1329 bits is past the work budget: "):
        duration_exceeds_exact(DurationSpec(4, 0.5, 10**400))
    # n games over h = min(b, n + 1) states each way are charged 1000 n (2h + 81), before any buffer is allocated
    for b, games in ((4, 3370786), (2**62, 12226)):
        assert 1000 * games * (2 * min(b, games + 1) + 81) <= WORK_BUDGET < 1000 * (games + 1) * (2 * min(b, games + 2) + 81)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=refusal(1000 * sys.maxsize * (2 * min(b, sys.maxsize + 1) + 81), "n", sys.maxsize)):
            duration_exceeds_exact(DurationSpec(b, 0.5, sys.maxsize))
        with pytest.raises(ValueError, match=refusal(1000 * (games + 1) * (2 * min(b, games + 2) + 81), "n", games + 1)):
            duration_exceeds_exact(DurationSpec(b, 0.5, games + 1))
        assert time.perf_counter() - start < 1.0
    # 4 games reach 4 states each way, so stakes of 2^62, 2^60 + 1 or 2^70 walk as b = 5 does
    for b in (2**62, 2**60 + 1, 2**70):
        assert duration_exceeds_exact(DurationSpec(b, 0.5, 4)).hex() == loop_walk_oracle(DurationSpec(5, 0.5, 4)).hex()


def test_duration_closed_refuses_a_huge_even_b_at_once():
    # the refusal comes before b/2 values of t are formed
    argv = ["duration", "closed", "--b", "100000000000000000000", "--p", "0.5", "--n", "10"]
    start = time.perf_counter()
    code, out, err = cli.dispatch(argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: closed form underflows at b = 100000000000000000000, p = 0.5; use duration exact\n"


def test_underflow_stakes_is_the_least_b_whose_product_of_differences_underflows():
    def underflows(b):  # duration_weights' products at p = 1/2, where 2pq = 0.5
        t = [0.5 * (1 + math.cos((2 * j - 1) * math.pi / b)) for j in range(1, b // 2 + 1)]
        return any(math.prod(t[j] - t[i] for i in range(len(t)) if i != j) == 0.0 for j in range(len(t)))

    assert underflows(UNDERFLOW_STAKES) and not underflows(UNDERFLOW_STAKES - 2)
    duration_weights(UNDERFLOW_STAKES - 2, 0.5)
    for b in (UNDERFLOW_STAKES, UNDERFLOW_STAKES + 2, 2000):
        with pytest.raises(ValueError, match=f"^closed form underflows at b = {b}, p = 0.5; "):
            duration_weights(b, 0.5)


def test_duration_weights_sum_to_one():
    for b in (2, 4, 6, 8, 10):
        for p in (0.27, 0.5, 0.73):
            weights = duration_weights(b, p)
            assert abs(math.fsum(c for _, c in weights) - 1.0) < 1e-12


def test_duration_ten_stakes_sine_line_lengths():
    # the b = 10 construction hangs the t_j on the odd-multiple sine lengths
    # sin((2j-1) pi/10): with p = 1/2, sin^2 = 4 t (1 - t)
    weights = duration_weights(10, 0.5)
    for j, (t_j, _) in enumerate(weights, start=1):
        angle = (2 * j - 1) * math.pi / 10
        assert t_j == pytest.approx(2 * 0.25 * (1 + math.cos(angle)), abs=1e-15)
        sine_length = math.sin(angle)
        assert sine_length**2 == pytest.approx(4 * t_j * (1 - t_j), abs=1e-12)


def test_duration_closed_rejects_odd_stakes():
    with pytest.raises(ValueError):
        duration_exceeds_closed(DurationSpec(3, 0.5, 4))


def test_duration_spec_validation():
    with pytest.raises(ValueError):
        DurationSpec(0, 0.5, 4)
    with pytest.raises(ValueError):
        DurationSpec(4, 1.0, 4)
    with pytest.raises(ValueError):
        DurationSpec(4, 0.5, -1)


def loop_walk_oracle(spec):
    """The walk over all 2b-1 interior states, one state at a time, skipping empty ones."""
    size = 2 * spec.b - 1
    p, q = spec.p, 1.0 - spec.p
    mass = [0.0] * size
    mass[spec.b - 1] = 1.0
    for _ in range(spec.n):
        new = [0.0] * size
        for i, m in enumerate(mass):
            if m == 0.0:
                continue
            if i + 1 < size:
                new[i + 1] += p * m
            if i - 1 >= 0:
                new[i - 1] += q * m
        mass = new
    return min(math.fsum(mass), 1.0)


def integer_walk(b, p, n):
    """Exact P(no ruin within n games) for rational p = a/d, by counting weighted paths.

    De Moivre's own count: each game maps the integer weights m_j to
    a*m_(j-1) + (d-a)*m_(j+1), and the probability is sum(m) / d^n.
    """
    a, d = p.numerator, p.denominator
    mass = [0] * (2 * b + 1)  # the absorbing barriers at each end stay 0
    mass[b] = 1
    for _ in range(n):
        mass = [0, *(a * mass[j - 1] + (d - a) * mass[j + 1] for j in range(1, 2 * b)), 0]
    return Fraction(sum(mass), d**n)


walk_p = st.one_of(
    st.sampled_from([5e-324, 1 - 2**-53, 0.5, 0.5 - 2**-53, 0.5 + 2**-53]),
    st.floats(0.5 - 1e-6, 0.5 + 1e-6),
    st.floats(5e-324, 1 - 2**-53),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 120), walk_p, st.integers(0, 500))
@example(1, 0.3, 5)
@example(2, 5e-324, 11)
@example(5, 1 - 2**-53, 11)
@example(50, 0.49, 500)
@example(50, 0.51, 3001)  # odd n from the odd class (b even)
@example(7, 0.3, 13)  # odd n from the even class (b odd)
@example(200, 0.45, 1000)  # long vectors: the kernel's real work
@example(401, 0.5, 801)
@example(120, 0.3, 50)  # n games reach fewer states than the barriers hold
def test_parity_walk_is_bit_identical_to_the_loop(b, p, n):
    spec = DurationSpec(b, p, n)
    assert duration_exceeds_exact(spec).hex() == loop_walk_oracle(spec).hex()


def test_parity_walk_small_stakes_grid():
    for b in range(1, 6):
        for p in (5e-324, 1 - 2**-53, 0.3, 0.5, 0.5 + 2**-53):
            for n in range(12):
                spec = DurationSpec(b, p, n)
                assert duration_exceeds_exact(spec).hex() == loop_walk_oracle(spec).hex(), spec


def test_integer_walk_counts_paths():
    # b = 2: only the mixed pairs WL and LW keep playing, each pair of games
    assert integer_walk(2, Fraction(3, 10), 2) == Fraction(42, 100)
    assert integer_walk(2, Fraction(1, 2), 4) == Fraction(1, 4)
    assert integer_walk(1, Fraction(1, 3), 1) == 0


def walk_relative_tolerance(n):
    """Bound on |walk - exact| / exact for a rational p <= 1/2 rounded to a float.

    With u = 2^-53, float(p) and q = 1 - float(p) are each within 2u of p
    and 1 - p in relative terms (for p <= 1/2, q/p >= 1 keeps the rounding
    of p relative in q).  Every surviving path is a product of n factors p
    or q, and each game rounds its product and its sum once, so each path's
    float weight is off by a factor within (1 + 2u)^n (1 + u)^(2n); fsum
    rounds once more.  All terms are positive, so the bound on a term is a
    bound on the sum: expm1((4n + 1) u), 1.3e-12 at n = 3000.
    """
    return math.expm1((4 * n + 1) * 2**-53)


# The walk is 5.3e-15 relative off the exact count at (100, 3/10, 100) and
# 8.5e-16 at (50, 49/100, 3000).
@pytest.mark.parametrize("b, p, n", [(100, Fraction(3, 10), 100), (50, Fraction(49, 100), 3000)])
def test_walk_against_exact_integer_walk(b, p, n):
    exact = integer_walk(b, p, n)
    walk = duration_exceeds_exact(DurationSpec(b, float(p), n))
    assert abs(Fraction(walk) - exact) <= walk_relative_tolerance(n) * exact


# ------------------------------------------------------- unity factorization


def expand_with_sign(fac):
    coeffs = fac.expand()
    target = [0.0] * (fac.degree + 1)
    target[0] = 1.0 if fac.sign == 1 else -1.0
    target[-1] = 1.0
    return coeffs, target


def test_factor_unity_square_plus_one():
    fac = factor_unity(2, 1)
    assert fac.linear_factors == ()
    assert len(fac.quadratic_factors) == 1
    assert abs(fac.quadratic_factors[0]) < 1e-12  # x^2 + 1 itself


def test_factor_unity_fourth_power_plus_one():
    fac = factor_unity(4, 1)
    cosines = sorted(fac.quadratic_factors)
    assert cosines[0] == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)
    assert cosines[1] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    coeffs, target = expand_with_sign(fac)
    assert coeffs == pytest.approx(target, abs=1e-12)


def test_factor_unity_cube_minus_one():
    fac = factor_unity(3, -1)
    assert fac.linear_factors == (1.0,)
    assert len(fac.quadratic_factors) == 1
    assert fac.quadratic_factors[0] == pytest.approx(-0.5, abs=1e-12)


def test_factor_unity_degree_stops_at_its_work_ceiling(monkeypatch):
    # a degree is charged 60000
    expected = factor_unity(24, -1)
    monkeypatch.setattr(exactnum, "WORK_BUDGET", 24 * 60000)
    assert factor_unity(24, -1) == expected
    with pytest.raises(ValueError, match=refusal(25 * 60000, "n", 25)):
        factor_unity(25, 1)
    with pytest.raises(ValueError, match="^n of 1329 bits is past the work budget: "):
        factor_unity(10**400, 1)


def test_factor_unity_counts_and_expansion_all_degrees():
    for n in range(1, 25):
        for sign in (1, -1):
            fac = factor_unity(n, sign)
            assert 2 * len(fac.quadratic_factors) + len(fac.linear_factors) == n
            coeffs, target = expand_with_sign(fac)
            assert max(abs(c - t) for c, t in zip(coeffs, target)) <= 1e-9


# ------------------------------------------------------------ power identity


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_demoivre_power_rejects_non_finite_angle(theta):
    with pytest.raises(ValueError, match="angle theta must be finite"):
        demoivre_power(theta, 3)


@pytest.mark.parametrize("theta, n", [(1.0, 10**310), (-1.0, 10**310), (0.0, -(10**310))])
def test_demoivre_power_rejects_n_beyond_float_range(theta, n):
    with pytest.raises(ValueError, match=r"angle n\*theta must be finite, got n of 1030 bits"):
        demoivre_power(theta, n)


def test_demoivre_power_past_the_tolerance_range():
    # (1 + sqrt(5)/2)|n| eps overflows expm1 here; the bound is then infinite, not an
    # OverflowError, and the call is refused as past what the check can see
    for theta, n in ((1e-300, 10**300), (1e-10, 10**19), (0.0, 10**308)):
        assert _power_tolerance(n * theta, n) == math.inf
        with pytest.raises(ValueError, match=r"n\*theta = .* is past what double precision can check"):
            demoivre_power(theta, n)


@pytest.mark.parametrize(
    "theta, n",
    [
        (1e300, 100),  # cos and sin of the rounded 1e302 say nothing of cos(100 theta)
        (1e6, 2_252_000_000),  # the direct term alone reaches 1
        (1e-20, 1_474_000_000_000_000),  # the powered term alone reaches 1
        (-1.0, -(10**16)),
    ],
)
def test_demoivre_power_refuses_once_the_bound_reaches_one(theta, n):
    assert _power_tolerance(n * theta, n) >= 1
    with pytest.raises(ValueError, match=r"n\*theta = .* not below 1"):
        demoivre_power(theta, n)


@pytest.mark.parametrize("theta, n", [(1e6, 2_251_000_000), (1e-20, 1_473_000_000_000_000)])
def test_demoivre_power_still_answers_just_below_the_bound(theta, n):
    angle = n * theta
    assert _power_tolerance(angle, n) < 1
    assert demoivre_power(theta, n) == (math.cos(angle), math.sin(angle))


def test_demoivre_power_examples():
    cos_n, sin_n = demoivre_power(math.pi / 6, 3)
    assert cos_n == pytest.approx(0.0, abs=1e-15)
    assert sin_n == pytest.approx(1.0)
    theta = 1.2345
    assert demoivre_power(theta, 1) == (math.cos(theta), math.sin(theta))


def test_demoivre_power_random_against_products():
    rng = random.Random(46)
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi)
        n = rng.randrange(-30, 31)
        cos_n, sin_n = demoivre_power(theta, n)
        acc = complex(1, 0)
        base = cmath.exp(1j * theta) if n >= 0 else cmath.exp(-1j * theta)
        for _ in range(abs(n)):
            acc *= base
        assert abs(acc.real - cos_n) < 1e-10
        assert abs(acc.imag - sin_n) < 1e-10


def test_demoivre_power_addition_law():
    rng = random.Random(17)
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi)
        m, n = rng.randrange(0, 15), rng.randrange(0, 15)
        cm = complex(*demoivre_power(theta, m))
        cn = complex(*demoivre_power(theta, n))
        combined = complex(*demoivre_power(theta, m + n))
        assert abs(cm * cn - combined) < 1e-10


def binary_power(theta, n):
    """Oracle: (cos theta + i sin theta)^n by binary powering, written out here."""
    square = cmath.exp(1j * theta) if n >= 0 else cmath.exp(-1j * theta)
    power = complex(1, 0)
    for bit in reversed(bin(abs(n))[2:]):
        if bit == "1":
            power *= square
        square *= square
    return power


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0), st.integers(min_value=-(10**18), max_value=10**18))
@example(1.1, 10**7)  # exited 3 with "routes disagree" under the n-fold product
@example(0.37, -(10**7))
@example(2.5, 200_000)
@example(1.1, 10**18)
@example(-1.1, -(10**18))
@example(5e-324, 10**18)
@example(0.0, 0)
@example(1.1, 5 * 10**14)  # still checked: the bound is ~0.51
@example(-3.0, -(4 * 10**14))
def test_demoivre_power_returns_direct_route_up_to_huge_n(theta, n):
    angle = n * theta
    if _power_tolerance(angle, n) >= 1:  # |n| past ~1.5e15 or |n*theta| past ~2.2e15
        with pytest.raises(ValueError, match=r"n\*theta = "):
            demoivre_power(theta, n)
        return
    assert demoivre_power(theta, n) == (math.cos(angle), math.sin(angle))
    power = binary_power(theta, n)
    tolerance = _power_tolerance(angle, n)
    assert abs(power.real - math.cos(angle)) <= tolerance
    assert abs(power.imag - math.sin(angle)) <= tolerance


def test_power_tolerance_is_tight_where_it_can_be():
    for theta in (0.37, 1.1, 2.5):  # the benchmark's angles
        assert _power_tolerance(200_000 * theta, 200_000) < 4e-10
        # observed up to 1.12e-11 on x86-64 glibc; well inside the bound above
        assert abs(binary_power(theta, 200_000) - complex(*demoivre_power(theta, 200_000))) < 2e-11
    assert _power_tolerance(1.1 * 10**7, 10**7) < 1e-8
    assert _power_tolerance(0.0, 0) == 2 * sys.float_info.epsilon


def test_power_tolerance_covers_the_n_fold_product():
    rng = random.Random(2024)
    for _ in range(20):
        theta = rng.uniform(-math.pi, math.pi)
        n = rng.choice((-1, 1)) * rng.randrange(1, 20_000)
        base = cmath.exp(1j * theta) if n >= 0 else cmath.exp(-1j * theta)
        acc = complex(1, 0)
        for _ in range(abs(n)):
            acc *= base
        cos_n, sin_n = demoivre_power(theta, n)
        assert max(abs(acc.real - cos_n), abs(acc.imag - sin_n)) <= _power_tolerance(n * theta, n)


def test_demoivre_power_rejects_infinite_multiple_angle():
    with pytest.raises(ValueError, match="angle n\\*theta must be finite"):
        demoivre_power(1e300, 10**10)


@pytest.mark.parametrize("n", ["10000000", "-10000000", "1000000000000000000"])
def test_factor_power_cli_at_large_n(n):
    code, out, err = cli.dispatch(["factor", "power", "--theta", "1.1", "--n", n])
    if abs(int(n)) > 10**15:  # 10^18: the error bound is far past 1, so the call exits 3
        assert (code, out) == (3, "")
        assert err.startswith("error: n*theta = 1.1000000000000001e+18 with n = 1e+18 is past what")
        return
    assert (code, err) == (0, "")
    record = json.loads(out)
    angle = int(n) * 1.1
    assert record["result"] == {"cos": format(math.cos(angle), ".17g"), "sin": format(math.sin(angle), ".17g")}


def test_factor_power_cli_refuses_an_unresolvable_angle():
    # cos and sin of the rounded 1e302 would be an unchecked value
    code, out, err = cli.dispatch(["factor", "power", "--theta", "1e300", "--n", "100"])
    assert (code, out) == (3, "")
    assert err.startswith("error: n*theta = 1e+302 with n = 100 is past what double precision can check")
