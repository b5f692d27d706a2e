"""Life tables, the linear-mortality hypothesis, and curtate annuity pricing.

Payments fall due at year end and the payment for the year of death is
forfeited (curtate annuity-immediate).  A mortality model is either a
LifeTable or a DeMoivreLaw, the linear law over the complement of life:
the two models De Moivre priced with.  Either gives a run of positive
survivor counts down to the last survivor.  Single-life, joint-life and
error-table prices share one kernel, _present_values: it walks a run of
survivors l_x, l_{x+1}, ... backwards in exact integers -- survivor counts
and the discount factor convert exactly -- keeping the price only at each
age asked for, so memory stays linear in the run's length.  Each price is
one correctly rounded integer division, the same float as the exact
rational sum, so prices are deterministic to the last bit for a given
table, age and rate; a price past the double range is an OverflowError
naming its age, and a walk past the work budget is refused before it starts.

The built-in Breslau-style table, reconstruct_maty_table(), starts from
646 survivors at age 12 and follows the narrative death schedule (6 a
year to 25, 7 to 29, 8 to 34, 9 to 42, 10 to 49, 11 to 54, back to 10 up
to 70, 11 to 74, 10 to 78, then 9, 8, 7, 6, and 3, 2, 2, 2 down to 20
alive at 86).  Past 86 the survivors run linearly down to 0 at 96 (2
deaths a year); that extrapolated tail is marked on the table so
downstream output can flag it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import balanced, charge, check_finite

# (age span, deaths per year) runs of the narrative schedule, from age 12
NARRATIVE_DEATHS = (
    (12, 25, 6),
    (25, 29, 7),
    (29, 34, 8),
    (34, 42, 9),
    (42, 49, 10),
    (49, 54, 11),
    (54, 70, 10),
    (70, 74, 11),
    (74, 78, 10),
)
CLOSING_DEATHS = (9, 8, 7, 6, 3, 2, 2, 2)  # ages 78..85
TAIL_START = 86
TAIL_DEATHS = 2  # per year until nobody is left (age 96)


class MortalityDomainError(ValueError):
    """Age or horizon outside the mortality model's domain."""


@dataclass(frozen=True)
class LifeTable:
    """Survivor counts l_x for consecutive integer ages.

    Entries must be positive and non-increasing; survival past the last
    tabulated age is zero.  extrapolated_from is the last observed age when
    the entries past it were filled in rather than observed (None when all
    are data).
    """

    start_age: int
    survivors: tuple
    extrapolated_from: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "survivors", tuple(self.survivors))
        if not self.survivors:
            raise ValueError("life table needs at least one age")
        prev = None
        for offset, value in enumerate(self.survivors):
            if value <= 0:
                raise ValueError(f"l_{self.start_age + offset} = {value} is not positive")
            if prev is not None and value > prev:
                raise ValueError(f"survivors increase at age {self.start_age + offset}")
            prev = value

    @property
    def terminal_age(self) -> int:
        return self.start_age + len(self.survivors) - 1

    def lookup(self, age: int):
        if age < self.start_age or age > self.terminal_age:
            return None
        return self.survivors[age - self.start_age]

    def rows(self):
        for offset, value in enumerate(self.survivors):
            yield self.start_age + offset, value


@dataclass(frozen=True)
class DeMoivreLaw:
    """Uniform deaths over the complement of life: survival (n-t)/n, n = omega - x."""

    omega: int = 86

    def __post_init__(self):
        if self.omega < 1:
            raise ValueError("terminal age must be positive")


@dataclass(frozen=True)
class RateSpec:
    """Effective annual interest rate i; discount factor v = 1/(1+i)."""

    i: float

    def __post_init__(self):
        # exact rates are finite, and a huge one need not fit in a float
        if isinstance(self.i, float):
            check_finite(self.i, "interest rate i")
        if self.i <= -1:
            raise ValueError("interest rate must exceed -1")

    @property
    def v(self) -> Fraction:
        return 1 / (1 + Fraction(self.i))


def reconstruct_maty_table() -> LifeTable:
    """The Breslau-style table implied by the narrative death schedule."""
    survivors = [646]
    for start, end, per_year in NARRATIVE_DEATHS:
        for _ in range(start, end):
            survivors.append(survivors[-1] - per_year)
    for per_year in CLOSING_DEATHS:
        survivors.append(survivors[-1] - per_year)
    assert survivors[TAIL_START - 12] == 20
    while survivors[-1] > TAIL_DEATHS:
        survivors.append(survivors[-1] - TAIL_DEATHS)
    return LifeTable(12, tuple(survivors), extrapolated_from=TAIL_START)


def load_table(path) -> LifeTable:
    """Read an `age,lx` CSV; violations raise with the offending line number."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows or [cell.strip() for cell in rows[0]] != ["age", "lx"]:
        raise ValueError("line 1: expected header 'age,lx'")
    ages = []
    survivors = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"line {lineno}: expected two fields, got {len(row)}")
        try:
            age = int(row[0])
        except ValueError:
            raise ValueError(f"line {lineno}: age {row[0]!r} is not an integer") from None
        try:
            lx = Fraction(row[1])
        except ValueError:
            raise ValueError(f"line {lineno}: lx {row[1]!r} is not a number") from None
        if ages and age != ages[-1] + 1:
            raise ValueError(f"line {lineno}: age {age} breaks the contiguous run")
        if lx <= 0:
            raise ValueError(f"line {lineno}: lx must be positive")
        if survivors and lx > survivors[-1]:
            raise ValueError(f"line {lineno}: survivors increase")
        ages.append(age)
        survivors.append(int(lx) if lx.denominator == 1 else lx)
    if not ages:
        raise ValueError("line 2: table has no rows")
    return LifeTable(ages[0], tuple(survivors))


def survival_probability(model, x: int, t: int) -> Fraction:
    """P(a life aged x survives t more years): l_{x+t} / l_x from the model's run, 0 past its end."""
    if t < 0:
        raise MortalityDomainError("horizon t must be non-negative")
    run = _survival_run(model, x)
    later = run[t:t + 1]  # empty past the end of the run
    return Fraction(later[0]) / Fraction(run[0]) if later else Fraction(0)


def _survival_run(model, x: int):
    """l_x, l_{x+1}, ... down to the last survivor, up to a common factor.

    Every entry is positive: the table's own counts from age x, or the
    law's n, n - 1, ..., 1 (a range) with n = omega - x.  One run serves
    every age it covers.  An age the model lacks, or another model, is refused.
    """
    if isinstance(model, LifeTable):
        if model.lookup(x) is None:
            raise MortalityDomainError(f"age {x} outside table range {model.start_age}..{model.terminal_age}")
        return model.survivors[x - model.start_age:]
    if isinstance(model, DeMoivreLaw):
        if x >= model.omega:
            raise MortalityDomainError(f"age {x} is at or past the terminal age {model.omega}")
        return range(model.omega - x, 0, -1)
    raise TypeError(f"unsupported mortality model {type(model).__name__}")


def _present_values(runs, v: Fraction, ages, offsets=(0,)):
    """Exact curtate annuity prices at the given offsets of a survival run.

    runs holds one survival run, or the two whose entrywise product is the
    joint run (it ends with the shorter): l_x, l_{x+1}, ..., l_{x+n} (ints
    and Fractions, none zero).
    The result maps each offset k to a pair of ints (R, D) with
    R / D = sum over t >= 1 of v^t * l_{x+k+t} / l_{x+k}.  One lcm clears
    the run's denominators and v = P/Q, so the walk runs backwards in
    integers: R_k = P * (R_{k+1} + D_{k+1}), D_k = Q^(n-k) * l_{x+k}.
    No Fraction is built and no gcd is taken; R / D is an int/int true
    division, correctly rounded like float(Fraction), so it gives the same
    bits as the rational sum.  Each pair has O(n) digits and only the pairs
    at offsets are kept, so memory stays linear in n.

    A walk of N years at m-bit P and Q over e-bit scaled entries is charged
    3 N^2 m (ceil(m/30) + ceil(e/64)) before it starts, naming ages (those
    of the run's first entry).  The scaled entries never grow along the
    run, so the first one's bits e bound every later one's.  A law's run
    is a range of ints, so its lcm is 1 and it is not listed before the
    charge; a table's run is a tuple in memory, and its lcm is taken first.
    """
    p, q = v.as_integer_ratio()
    m = max(p.bit_length(), q.bit_length())
    if all(isinstance(run, range) for run in runs):
        ratios, scale = None, 1
        years = min(-((run.start - run.stop) // run.step) for run in runs)
        first = math.prod(run[0] for run in runs)
    else:  # the product run is as long as the shortest, here a tuple's
        ratios = [math.prod(entries).as_integer_ratio() for entries in zip(*runs)]
        scale = balanced(math.lcm, list({den for _, den in ratios}))
        years = len(ratios)
        first = ratios[0][0] * (scale // ratios[0][1])
    named = " and ".join(map(str, ages))
    cost = 3 * years**2 * m * (-(-m // 30) - (-first.bit_length() // 64))
    charge(cost, f"years (annuity price at age {named})", years)
    if ratios is None:
        ratios = [(math.prod(entries), 1) for entries in zip(*runs)]
    out = dict.fromkeys(offsets)
    r, q_pow = 0, 1
    for k in reversed(range(len(ratios))):
        num, den = ratios[k]
        d = q_pow * num * (scale // den)
        if k in out:
            out[k] = (r, d)
        r = p * (r + d)
        q_pow *= q
    return out


def _price(entry, *ages: int) -> float:
    """R / D of one _present_values entry; a price past the double range names its ages."""
    r, d = entry
    try:
        return r / d
    except OverflowError:
        named = " and ".join(map(str, ages))
        raise OverflowError(f"annuity price at age {named} leaves the double range") from None


def annuity_value(model, x: int, rate: RateSpec) -> float:
    """Curtate annuity-immediate price: sum over t >= 1 of v^t * survival(x, t)."""
    return _price(_present_values((_survival_run(model, x),), rate.v, (x,))[0], x)


def joint_annuity_value(model_a, x: int, model_b, y: int, rate: RateSpec) -> float:
    """Joint-life price: pays while both lives survive, independence assumed."""
    both = (_survival_run(model_a, x), _survival_run(model_b, y))
    return _price(_present_values(both, rate.v, (x, y))[0], x, y)


def approximation_error_table(table: LifeTable, ages, rates):
    """Percentage by which the linear-law price exceeds the tabular price.

    Entries are 100*(law/table - 1) for each (age, rate); the law keeps
    omega = 86 at every age.  Each rate prices every age with one backward
    walk per model, from the youngest age asked or the model's nearest age
    to it; cells are then read in row order, each age validated (law first)
    and divided out in turn, so errors surface as a cell-by-cell pass would
    raise them.  table must be a LifeTable: its survivor counts are what
    one walk serves every age from.
    """
    if not isinstance(table, LifeTable):
        raise TypeError(f"the error table needs a LifeTable, not {type(table).__name__}")
    law = DeMoivreLaw()
    ages = tuple(ages)
    law_from = min((*ages, law.omega - 1))
    table_from = min(max(law_from, table.start_age), table.terminal_age)
    law_run, table_run = _survival_run(law, law_from), _survival_run(table, table_from)
    grid = []
    for rate in rates:
        v = RateSpec(rate).v
        law_prices = _present_values((law_run,), v, (law_from,), [age - law_from for age in ages])
        table_prices = _present_values((table_run,), v, (table_from,), [age - table_from for age in ages])
        row = []
        for age in ages:
            _survival_run(law, age)
            approx = _price(law_prices[age - law_from], age)
            _survival_run(table, age)
            true = _price(table_prices[age - table_from], age)
            if true == 0:
                raise MortalityDomainError(f"tabular annuity at age {age} is zero")
            row.append(100.0 * (approx / true - 1.0))
        grid.append(row)
    return grid
