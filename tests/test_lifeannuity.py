import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demoivre import exactnum
from demoivre.exactnum import WORK_BUDGET
from demoivre.lifeannuity import (
    DeMoivreLaw,
    LifeTable,
    MortalityDomainError,
    RateSpec,
    annuity_value,
    approximation_error_table,
    joint_annuity_value,
    load_table,
    reconstruct_maty_table,
    survival_probability,
)

from cli_cases import refusal

CHECKPOINTS = {
    12: 646, 25: 568, 29: 540, 34: 500, 42: 428, 49: 358,
    54: 303, 70: 143, 74: 99, 78: 59, 82: 29, 86: 20,
}


class DuckModel:
    """Survival and horizon methods, but neither a LifeTable nor a DeMoivreLaw."""

    def survival_probability(self, x, t):
        return Fraction(1)

    def horizon(self, x):
        return 10


def survivor_run(model, x):
    """l_x, l_{x+1}, ... down to the last survivor, read once from the model's own fields."""
    survival_probability(model, x, 0)  # age validation
    if isinstance(model, LifeTable):
        return model.survivors[x - model.start_age:]
    return range(model.omega - x, 0, -1)


def forward_sum(later, rate):
    """sum over t >= 1 of v^t later[t - 1], forward in t, reduced once.

    With v = P/Q the sum is taken over the one denominator Q^T (T the last
    t) by Horner's rule in Q.  A Fraction sum reduces at every year, and
    with a subnormal rate's 2^1074 in v that gcd took nearly all the time.
    """
    p, q = rate.v.numerator, rate.v.denominator
    total, power = 0, 1
    for survivors in later:
        power *= p
        total = total * q + power * survivors
    return Fraction(total) / q ** len(later)


def forward_annuity_oracle(model, x, rate):
    """Oracle: sum over t >= 1 of v^t l_{x+t} / l_x, forward in t, where the kernel walks backwards."""
    run = survivor_run(model, x)
    return float(forward_sum(run[1:], rate) / Fraction(run[0]))


def forward_joint_oracle(model_a, x, model_b, y, rate):
    """Oracle: the joint sum forward in t, where the kernel walks backwards; the shorter run ends the product."""
    run_a, run_b = survivor_run(model_a, x), survivor_run(model_b, y)
    later = [Fraction(a) * b for a, b in zip(run_a[1:], run_b[1:])]
    return float(forward_sum(later, rate) / (Fraction(run_a[0]) * run_b[0]))


FRACTIONAL_CSV = "age,lx\n30,100\n31,197/2\n32,96.25\n33,280/3\n34,90\n35,85.5\n36,80\n37,299/4\n38,70\n39,1/3\n"

# the ages each test model is priced at
MODEL_AGES = {
    "maty": (12, 95),
    "csv": (30, 39),
    "law": (-5, 85),
    "short law": (0, 2),
    "geometric": (0, 30),
    "flat": (0, 199),
}

interest_rates = st.one_of(
    st.sampled_from([0, 0.0, 0.05, 0.03, 0.07, -0.5, -0.1, 0.25, 1.0, Fraction(1, 20)]),
    st.floats(min_value=-0.95, max_value=3.0),
)


@st.composite
def lives(draw):
    name = draw(st.sampled_from(tuple(MODEL_AGES)))
    return name, draw(st.integers(*MODEL_AGES[name]))


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "fractional.csv"
    path.write_text(FRACTIONAL_CSV)
    return {
        "maty": reconstruct_maty_table(),
        "csv": load_table(path),
        "law": DeMoivreLaw(86),
        "short law": DeMoivreLaw(3),
        "geometric": LifeTable(0, tuple(Fraction(9, 10) ** t for t in range(31))),
        "flat": LifeTable(0, (1,) * 200),
    }


@settings(max_examples=300, deadline=None)
@given(lives(), interest_rates)
@example(("maty", 12), 0.05)
@example(("maty", 95), 0.05)  # terminal age: price 0
@example(("law", 50), 0)
@example(("csv", 30), -0.5)
@example(("short law", 2), 0.05)  # one survivor: price 0
def test_annuity_value_equals_forward_oracle(models, life, i):
    name, x = life
    rate = RateSpec(i)
    assert annuity_value(models[name], x, rate) == forward_annuity_oracle(models[name], x, rate)


@settings(max_examples=300, deadline=None)
@given(lives(), lives(), interest_rates)
@example(("flat", 30), ("law", 50), 0.05)  # a run of 170 against one of 36
@example(("flat", 30), ("short law", 0), 0.05)  # the shorter run ends the product
@example(("maty", 40), ("csv", 35), 0.05)
@example(("law", 85), ("maty", 40), 0.04)
def test_joint_annuity_value_equals_forward_oracle(models, life_a, life_b, i):
    (name_a, x), (name_b, y) = life_a, life_b
    model_a, model_b = models[name_a], models[name_b]
    rate = RateSpec(i)
    assert joint_annuity_value(model_a, x, model_b, y, rate) == forward_joint_oracle(model_a, x, model_b, y, rate)
    assert joint_annuity_value(model_b, y, model_a, x, rate) == forward_joint_oracle(model_b, y, model_a, x, rate)


def direct_annuity_oracle(model, x, i, horizon=200):
    """Independent summation with fresh discounting, exact rationals."""
    v = Fraction(1) / (1 + Fraction(i))
    total = Fraction(0)
    for t in range(1, horizon):
        s = survival_probability(model, x, t)
        if s == 0:
            break
        total += v**t * s
    return float(total)


def test_reconstruction_checkpoints():
    table = reconstruct_maty_table()
    for age, expected in CHECKPOINTS.items():
        assert table.lookup(age) == expected
    assert table.start_age == 12
    assert table.extrapolated_from == 86
    assert table.terminal_age == 95
    assert table.lookup(95) == 2


def test_reconstruction_closing_run():
    table = reconstruct_maty_table()
    assert [table.lookup(a) for a in range(79, 87)] == [50, 42, 35, 29, 26, 24, 22, 20]
    # extrapolated tail: two deaths a year down to nothing by age 96
    assert [table.lookup(a) for a in range(87, 96)] == [18, 16, 14, 12, 10, 8, 6, 4, 2]


def test_load_table_error_line_numbers(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("age;lx\n")
    with pytest.raises(ValueError, match="line 1"):
        load_table(bad_header)

    gap = tmp_path / "b.csv"
    gap.write_text("age,lx\n30,100\n32,90\n")
    with pytest.raises(ValueError, match="line 3"):
        load_table(gap)

    rising = tmp_path / "c.csv"
    rising.write_text("age,lx\n30,100\n31,110\n")
    with pytest.raises(ValueError, match="line 3"):
        load_table(rising)

    negative = tmp_path / "d.csv"
    negative.write_text("age,lx\n30,100\n31,0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_table(negative)

    garbage = tmp_path / "e.csv"
    garbage.write_text("age,lx\n30,many\n")
    with pytest.raises(ValueError, match="line 2"):
        load_table(garbage)

    three_fields = tmp_path / "f.csv"
    three_fields.write_text("age,lx\n30,100\n31,90,1\n")
    with pytest.raises(ValueError, match="line 3: expected two fields, got 3"):
        load_table(three_fields)

    fractional_age = tmp_path / "g.csv"
    fractional_age.write_text("age,lx\n30.5,100\n")
    with pytest.raises(ValueError, match="line 2: age '30.5' is not an integer"):
        load_table(fractional_age)

    header_only = tmp_path / "h.csv"
    header_only.write_text("age,lx\n")
    with pytest.raises(ValueError, match="line 2: table has no rows"):
        load_table(header_only)


def test_life_table_validation():
    with pytest.raises(ValueError):
        LifeTable(30, (100, 110))
    with pytest.raises(ValueError):
        LifeTable(30, (100, 0))
    with pytest.raises(ValueError):
        LifeTable(30, ())


def test_law_survival_values():
    law = DeMoivreLaw(86)
    assert survival_probability(law, 50, 18) == Fraction(1, 2)
    assert survival_probability(law, 50, 36) == 0
    assert survival_probability(law, 50, 100) == 0
    with pytest.raises(MortalityDomainError):
        survival_probability(law, 86, 1)
    # the law's run is a range, read without building it: omega past any list size
    huge = DeMoivreLaw(10**400)
    assert survival_probability(huge, 0, 5) == Fraction(10**400 - 5, 10**400)
    assert survival_probability(huge, 10**400 - 3, 3) == 0


def test_a_law_run_past_every_list_size_is_refused_before_pricing():
    # at 5 % (57-bit P and Q) a walk of N years over e-bit entries costs 3 N^2 57 (2 + ceil(e/64)):
    # the law's entries have 1329 bits, the joint run's 2658; no entry is listed
    huge, rate = DeMoivreLaw(10**400), RateSpec(0.05)
    for price, named, years, bits in ((lambda: annuity_value(huge, 0, rate), "0", 10**400, 1329),
                                      (lambda: joint_annuity_value(huge, 0, huge, 3, rate), "0 and 3", 10**400 - 3, 2658),
                                      (lambda: annuity_value(DeMoivreLaw(86), -(10**400), rate), f"-{10**400}",
                                       10**400 + 86, 1329)):
        cost = 3 * years**2 * 57 * (2 + -(-bits // 64))
        with pytest.raises(ValueError, match=refusal(cost, f"years (annuity price at age {named})", years)):
            price()
    # a joint run ends with the shorter life's, here the table's
    table = reconstruct_maty_table()
    joint = joint_annuity_value(huge, 0, table, 30, rate)
    assert math.isclose(joint, annuity_value(table, 30, rate), rel_tol=1e-15)


def test_a_joint_run_of_huge_entries_is_refused_before_any_entry_is_listed():
    # at rate 0 the budget allows 223606 years of small entries, but 48224 of these:
    # the product 10^400 (10^400 - 3) has 2658 bits, ceil(2658/64) = 42 of the one-digit
    # multiplies a year counts.  Listing the run first took 0.56 s and 116 MB of RSS.
    huge = DeMoivreLaw(10**400)
    assert 3 * 48224**2 * 43 <= WORK_BUDGET < 3 * 48225**2 * 43
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^years \(annuity price at age 0 and 3\) of 1329 bits is past the work budget: "):
            joint_annuity_value(huge, 0, huge, 3, RateSpec(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# v = 1/(1 + 0.05) is P/Q with 57-bit P and Q, two 30-bit digits each: a walk
# of n years over entries up to 64 bits costs 3 n^2 * 57 * 3, so a budget of
# 3 * FORTY_YEARS allows 40 years and no more
FORTY_YEARS = 40**2 * 57 * 3


def walk_refusal(years, named, bits=64):
    """The refusal of a walk of `years` years at 5 %, entries of `bits` bits, pricing ages `named`."""
    return refusal(3 * years**2 * 57 * (2 + -(-bits // 64)), f"years (annuity price at age {named})", years)


@pytest.mark.parametrize("limit, years", [(FORTY_YEARS, 40), (FORTY_YEARS + 170, 40), (FORTY_YEARS - 1, 39)])
def test_a_walk_at_the_work_ceiling_prices_and_one_year_past_it_is_refused(monkeypatch, limit, years):
    rate, table = RateSpec(0.05), reconstruct_maty_table()
    law_table = LifeTable(12, tuple(86 - x for x in range(12, 86)))  # the law's own counts
    expected = {age: annuity_value(DeMoivreLaw(86), age, rate) for age in range(12, 86)}
    joint = joint_annuity_value(DeMoivreLaw(86), 86 - years, table, 12, rate)
    grid = approximation_error_table(law_table, [60, 86 - years], [0.05])
    monkeypatch.setattr(exactnum, "WORK_BUDGET", 3 * limit)
    at, past = 86 - years, 85 - years
    # single life: the law's run at age x has 86 - x years
    assert annuity_value(DeMoivreLaw(86), at, rate) == expected[at]
    with pytest.raises(ValueError, match=walk_refusal(years + 1, past)):
        annuity_value(DeMoivreLaw(86), past, rate)
    # joint life: the Maty table's 84 years at 12 outlast the law's
    assert joint_annuity_value(DeMoivreLaw(86), at, table, 12, rate) == joint
    with pytest.raises(ValueError, match=walk_refusal(years + 1, f"{past} and 12")):
        joint_annuity_value(DeMoivreLaw(86), past, table, 12, rate)
    # error table: each model's walk starts at the youngest age asked
    assert approximation_error_table(law_table, [60, at], [0.05]) == grid
    with pytest.raises(ValueError, match=walk_refusal(years + 1, past)):
        approximation_error_table(law_table, [60, past], [0.05])
    # ... and the table's walk is bounded alike
    with pytest.raises(ValueError, match=walk_refusal(200 - at, at)):
        approximation_error_table(LifeTable(0, (1,) * 200), [at], [0.05])


def test_entry_bits_past_64_count_in_the_walk_ceiling(monkeypatch):
    # at 5 % a 64-bit entry costs as a small one does; a 65-bit one counts two one-digit multiplies
    rate = RateSpec(0.05)
    expected = annuity_value(LifeTable(0, (2**64 - 1,) * 40), 0, rate)
    monkeypatch.setattr(exactnum, "WORK_BUDGET", 3 * FORTY_YEARS)
    assert annuity_value(LifeTable(0, (2**64 - 1,) * 40), 0, rate) == expected
    for top, years, bits in ((2**64 - 1, 41, 64), (2**64, 40, 65)):
        with pytest.raises(ValueError, match=walk_refusal(years, 0, bits)):
            annuity_value(LifeTable(0, (top,) * years), 0, rate)


def test_a_fraction_tables_walk_counts_the_bits_its_lcm_scales_to():
    # 1, 1/2, ..., 1/n is walked scaled by lcm(1..n), whose bits the first entry, 1, does not show:
    # n = 8000 took 10.5 s at 5 % before it was charged for them.  At n = 50 the same walk prices
    rate = RateSpec(0.05)
    harmonic = [Fraction(1, k) for k in range(1, 8001)]
    small = annuity_value(LifeTable(0, harmonic[:50]), 0, rate)
    assert small == float(sum(rate.v**t * harmonic[t] for t in range(1, 50)))
    bits = math.lcm(*range(1, 8001)).bit_length()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=walk_refusal(8000, 0, bits)):
        annuity_value(LifeTable(0, harmonic), 0, rate)
    assert time.perf_counter() - start < 0.5


def test_table_survival_values():
    table = reconstruct_maty_table()
    assert survival_probability(table, 12, 13) == Fraction(568, 646)
    assert survival_probability(table, 12, 200) == 0
    with pytest.raises(MortalityDomainError):
        survival_probability(table, 11, 1)
    with pytest.raises(MortalityDomainError):
        survival_probability(table, 12, -1)


def test_survival_monotone_and_multiplicative():
    table = reconstruct_maty_table()
    law = DeMoivreLaw(86)
    for model in (table, law):
        previous = Fraction(1)
        for t in range(0, 40):
            s = survival_probability(model, 30, t)
            assert s <= previous
            previous = s
        for x, t, u in ((20, 5, 7), (40, 10, 3), (60, 2, 11)):
            joint = survival_probability(model, x, t + u)
            split = survival_probability(model, x, t) * survival_probability(model, x + t, u)
            assert joint == split


def test_annuity_terminal_year_is_zero():
    law = DeMoivreLaw(86)
    for i in (0.0, 0.03, 0.08):
        assert annuity_value(law, 85, RateSpec(i)) == 0.0


def test_annuity_zero_interest_arithmetic_series():
    law = DeMoivreLaw(86)
    assert annuity_value(law, 50, RateSpec(0.0)) == 17.5
    for age in range(20, 81):
        n = 86 - age
        assert annuity_value(law, age, RateSpec(0.0)) == (n - 1) / 2


def test_annuity_matches_direct_summation():
    law = DeMoivreLaw(86)
    table = reconstruct_maty_table()
    for model in (law, table):
        for age in (20, 50, 70):
            for i in (0.03, 0.05, 0.07):
                assert annuity_value(model, age, RateSpec(i)) == direct_annuity_oracle(model, age, i)


def test_annuity_decreasing_in_rate():
    table = reconstruct_maty_table()
    values = [annuity_value(table, 40, RateSpec(i)) for i in (0.01, 0.03, 0.05, 0.07, 0.10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_joint_examples_and_dominance():
    law = DeMoivreLaw(86)
    rate = RateSpec(0.04)
    assert joint_annuity_value(law, 85, law, 40, rate) == 0.0
    # identical lives at zero interest: sum of squared survival
    expected = math.fsum(((36 - t) / 36) ** 2 for t in range(1, 36))
    assert joint_annuity_value(law, 50, law, 50, RateSpec(0.0)) == pytest.approx(expected, abs=1e-12)
    table = reconstruct_maty_table()
    for x, y in ((30, 50), (50, 30), (45, 45)):
        joint = joint_annuity_value(table, x, law, y, rate)
        assert joint <= min(annuity_value(table, x, rate), annuity_value(law, y, rate)) + 1e-12


def test_joint_with_immortal_partner_collapses_to_single_life():
    # a flat table outlives the law's 36-year run, so only the law's life counts
    law = DeMoivreLaw(86)
    rate = RateSpec(0.05)
    immortal = LifeTable(0, (1,) * 200)
    assert joint_annuity_value(immortal, 30, law, 50, rate) == annuity_value(law, 50, rate)
    assert joint_annuity_value(law, 50, immortal, 30, rate) == annuity_value(law, 50, rate)


def test_models_are_a_life_table_or_the_law():
    duck, law, rate = DuckModel(), DeMoivreLaw(86), RateSpec(0.05)
    with pytest.raises(TypeError, match="unsupported mortality model DuckModel"):
        survival_probability(duck, 30, 1)
    with pytest.raises(TypeError, match="unsupported mortality model DuckModel"):
        annuity_value(duck, 30, rate)
    with pytest.raises(TypeError, match="unsupported mortality model DuckModel"):
        joint_annuity_value(duck, 30, law, 50, rate)
    with pytest.raises(TypeError, match="unsupported mortality model DuckModel"):
        joint_annuity_value(law, 50, duck, 30, rate)


def test_error_table_age50_rate5_band():
    table = reconstruct_maty_table()
    grid = approximation_error_table(table, [50], [0.05])
    assert 2.5 <= grid[0][0] <= 5.5


def test_error_table_sign_pattern():
    table = reconstruct_maty_table()
    ages = list(range(20, 71, 5))
    grid = approximation_error_table(table, ages, [0.03, 0.05, 0.07])
    for row in grid:
        for age, cell in zip(ages, row):
            if age <= 30:
                assert cell < 0, (age, cell)
            else:
                assert cell > 0, (age, cell)


def test_error_table_self_comparison_is_zero():
    # a table generated by the law itself prices identically to the law
    law_survivors = tuple(86 - x for x in range(12, 86))
    law_table = LifeTable(12, law_survivors)
    grid = approximation_error_table(law_table, [20, 40, 60, 80], [0.03, 0.07])
    for row in grid:
        for cell in row:
            assert abs(cell) < 1e-12


def test_rate_spec_validation():
    with pytest.raises(ValueError):
        RateSpec(-1.0)
    for i in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="interest rate i must be finite"):
            RateSpec(i)
    assert RateSpec(10**400).v == Fraction(1, 10**400 + 1)
    assert RateSpec(0.05).v == Fraction(1) / (1 + Fraction(0.05))


def test_error_table_empty_ages_and_rates():
    table = reconstruct_maty_table()
    assert approximation_error_table(table, [], [0.03, 0.05]) == [[], []]
    assert approximation_error_table(table, [20, 50], []) == []


def test_error_table_error_precedence():
    table = reconstruct_maty_table()
    # the rate is checked before any age of its row
    with pytest.raises(ValueError, match="interest rate must exceed -1"):
        approximation_error_table(table, [5], [-1.0])
    # an age both models reject fails on the law first
    with pytest.raises(MortalityDomainError, match="terminal age 86"):
        approximation_error_table(table, [200], [0.05])
    # cells run rate by rate, age by age: a bad age of the first row wins
    # over a bad rate of the second
    with pytest.raises(MortalityDomainError, match="outside table range 12..95"):
        approximation_error_table(table, [50, 5], [0.05, -2.0])


def test_error_table_needs_a_life_table():
    with pytest.raises(TypeError, match="needs a LifeTable"):
        approximation_error_table(DeMoivreLaw(90), [50], [0.05])


def test_error_table_zero_tabular_annuity():
    # the table ends at 61, well inside the law's omega = 86
    table = LifeTable(60, (10, 5))
    with pytest.raises(MortalityDomainError, match="tabular annuity at age 61 is zero"):
        approximation_error_table(table, [61], [0.05])
    # ... and fails before a later bad age is looked at
    with pytest.raises(MortalityDomainError, match="tabular annuity at age 61 is zero"):
        approximation_error_table(table, [61, 200], [0.05])


def test_error_table_prices_only_requested_ages():
    # at i = -0.9999 (v ~ 10^4) the price at age 12 overflows a float, the
    # price at age 80 does not: a cell fails only for its own age
    table = reconstruct_maty_table()
    rate = RateSpec(-0.9999)
    with pytest.raises(OverflowError):
        annuity_value(table, 12, rate)
    assert annuity_value(table, 80, rate) > 1e58
    assert approximation_error_table(table, [80], [-0.9999]) == [[-100.0]]
    with pytest.raises(OverflowError):
        approximation_error_table(table, [80, 12], [-0.9999])


def test_annuity_memory_stays_linear_in_the_run():
    # each (R, D) pair of the backward walk has O(n) digits, so a pair kept
    # for every age costs O(n^2) memory: ~65 MiB here, against < 1 MiB for one
    tracemalloc.start()
    try:
        value = annuity_value(DeMoivreLaw(3000), 0, RateSpec(0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 19 < value < 20
    assert peak < 4 * 2**20, peak
