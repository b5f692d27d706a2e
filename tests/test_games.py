import math
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoivre.exactnum import Odds
from demoivre.games import (
    _NEIGHBOURS,
    BOARD,
    KNIGHT_MOVES,
    Tour,
    TourVerdict,
    algebraic_to_square,
    deck_match_odds,
    find_tour,
    square_to_algebraic,
    tour_to_text,
    validate_tour,
)


def _on_board(square) -> bool:
    f, r = square
    return 0 <= f < BOARD and 0 <= r < BOARD


def _is_knight_move(a, b) -> bool:
    df, dr = abs(a[0] - b[0]), abs(a[1] - b[1])
    return (df, dr) in ((1, 2), (2, 1))


def loop_validate_tour(squares):
    """Oracle: the square-by-square check validate_tour ran before its knight-graph sets."""
    squares = [tuple(s) for s in squares]
    if len(squares) != BOARD * BOARD:
        return TourVerdict(False, len(squares), "length")
    seen = set()
    for i, sq in enumerate(squares):
        if not _on_board(sq):
            return TourVerdict(False, i, "off board")
        if sq in seen:
            return TourVerdict(False, i, "repeat")
        if i > 0 and not _is_knight_move(squares[i - 1], sq):
            return TourVerdict(False, i, "illegal move")
        seen.add(sq)
    return TourVerdict(True)


def recursive_find_tour(start):
    """Oracle: the recursive solver find_tour ran before its neighbour table.

    It rebuilds the neighbour list of every candidate at every node and
    recounts each onward degree from scratch.
    """

    def neighbours(square):
        f, r = square
        return [t for t in ((f + df, r + dr) for df, dr in KNIGHT_MOVES) if _on_board(t)]

    visited = {start}
    path = [start]

    def degree(sq):
        return sum(1 for t in neighbours(sq) if t not in visited)

    def extend():
        if len(path) == BOARD * BOARD:
            return True
        options = sorted(
            (t for t in neighbours(path[-1]) if t not in visited),
            key=lambda t: (degree(t), t),
        )
        for t in options:
            visited.add(t)
            path.append(t)
            if extend():
                return True
            visited.remove(t)
            path.pop()
        return False

    assert extend()
    return Tour(tuple(path))


def test_deck_match_odds_examples():
    assert deck_match_odds(1) == Odds(0, 1)
    assert deck_match_odds(3) == Odds(5, 1)
    assert deck_match_odds(32).favor // 10**28 == 26313083
    assert deck_match_odds(32).against == 1


def test_deck_match_odds_factorial_relation():
    for k in range(1, 41):
        assert deck_match_odds(k).favor + 1 == math.factorial(k)


def test_validate_short_list():
    verdict = validate_tour([(0, 0)] * 63)
    assert not verdict.valid
    assert verdict.reason == "length"


def test_validate_illegal_move():
    tour = [sq for sq in find_tour((0, 0)).squares]
    tour[1] = (1, 1)  # diagonal step, not a knight move; (1,1) is not square 0 or 1
    verdict = validate_tour(tour)
    assert not verdict.valid
    assert verdict.reason in ("illegal move", "repeat")


def test_validate_off_board():
    tour = [sq for sq in find_tour((0, 0)).squares]
    tour[5] = (8, 3)
    verdict = validate_tour(tour)
    assert not verdict.valid
    assert verdict.index == 5
    assert verdict.reason == "off board"


def test_validate_refuses_half_squares():
    tour = find_tour((0, 0)).squares
    shifted = [(f + 0.5, r + 0.5) for f, r in tour]  # every step is still a knight's step
    assert validate_tour(shifted) == TourVerdict(False, 0, "off board")
    assert validate_tour([(0.5, 0.5)] + list(tour[1:])) == TourVerdict(False, 0, "off board")


SOLVED = [find_tour(start).squares for start in ((0, 0), (2, 2), (7, 7))]
cell = st.tuples(st.integers(-2, 9), st.integers(-2, 9))


@st.composite
def corrupted_tours(draw):
    """A solver tour with squares replaced, swapped, dropped or appended."""
    squares = list(draw(st.sampled_from(SOLVED)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["replace", "swap", "drop", "append"]))
        i, j = draw(st.integers(0, len(squares) - 1)), draw(st.integers(0, len(squares) - 1))
        if kind == "replace":
            squares[i] = draw(cell)
        elif kind == "swap":
            squares[i], squares[j] = squares[j], squares[i]
        elif kind == "drop":
            del squares[i]
        else:
            squares.append(draw(cell))
    return squares


@settings(max_examples=300, deadline=None)
@given(corrupted_tours())
def test_validate_gives_the_loop_oracles_verdict(squares):
    assert validate_tour(squares) == loop_validate_tour(squares)


def test_validate_accepts_solver_output():
    verdict = validate_tour(find_tour((3, 4)).squares)
    assert verdict.valid
    assert verdict.index is None


def test_single_square_corruptions_rejected():
    base = list(find_tour((2, 2)).squares)
    rng = random.Random(64)
    positions = rng.sample(range(64), 12)
    for i in positions:
        for replacement in [(f, r) for f in range(8) for r in range(8)]:
            if replacement == base[i]:
                continue
            mutated = list(base)
            mutated[i] = replacement
            assert not validate_tour(mutated).valid, (i, replacement)


def test_find_tour_contract():
    tour = find_tour((7, 7))
    assert tour.squares[0] == (7, 7)
    assert len(set(tour.squares)) == 64
    assert find_tour((7, 7)).squares == tour.squares  # deterministic


def test_find_tour_several_starts_validate():
    for start in ((0, 0), (4, 3), (6, 1)):
        assert validate_tour(find_tour(start).squares).valid


def test_find_tour_matches_recursive_solver_from_every_square():
    # The oracle recurses up to 64 frames deep, and its cost grows with the
    # depth of the stack it starts on: under pytest's deep stack it takes
    # about twice as long as from a fresh thread's, so it runs on one.
    starts = [(f, r) for f in range(8) for r in range(8)]  # d4, the slowest, included
    oracle = {}
    solver = threading.Thread(target=lambda: oracle.update((s, recursive_find_tour(s).squares) for s in starts))
    solver.start()
    solver.join(timeout=120)
    assert not solver.is_alive() and len(oracle) == len(starts)
    for start in starts:
        assert find_tour(start).squares == oracle[start], start


def test_neighbour_table_is_the_knight_graph():
    for a in range(64):
        for b in range(64):
            knight = _is_knight_move(divmod(a, 8), divmod(b, 8))
            assert (b in _NEIGHBOURS[a]) == knight, (a, b)
            assert (a in _NEIGHBOURS[b]) == (b in _NEIGHBOURS[a]), (a, b)


def test_find_tour_rejects_off_board_start():
    with pytest.raises(ValueError):
        find_tour((8, 0))


def test_find_tour_checks_its_start_as_given_as_tour_checks_its_squares():
    # int() after the check: half a square or a string is no cell, as in Tour
    for start in ((0.5, 0.5), ("0", "0"), (0, 0.5)):
        with pytest.raises(ValueError, match=r"^square \(.*\) is off the board$"):
            find_tour(start)
    from_floats = find_tour((0.0, 0.0)).squares  # whole floats name the cells
    assert from_floats == find_tour((0, 0)).squares and all(type(x) is int for x in from_floats[0])


def test_tour_type_enforces_invariants():
    with pytest.raises(ValueError):
        Tour(((0, 0), (1, 1)) + tuple((i % 8, i // 8) for i in range(62)))


def test_tour_validates_its_squares_before_it_converts_them():
    tour = find_tour((0, 0)).squares
    for squares in ([(f + 0.5, r + 0.5) for f, r in tour], [(str(f), str(r)) for f, r in tour]):
        with pytest.raises(ValueError, match="off board at index 0"):
            Tour(tuple(squares))
    as_floats = Tour(tuple((float(f), float(r)) for f, r in tour)).squares  # whole floats name the cells
    assert as_floats == tour and all(type(x) is int for square in as_floats for x in square)


def test_algebraic_serialization():
    assert square_to_algebraic((0, 0)) == "a1"
    assert square_to_algebraic((7, 7)) == "h8"
    assert algebraic_to_square("e4") == (4, 3)
    tour = find_tour((0, 0))
    text = tour_to_text(tour)
    assert text.startswith("a1,")
    assert [algebraic_to_square(field) for field in text.split(",")] == list(tour.squares)
    with pytest.raises(ValueError):
        algebraic_to_square("j9")
