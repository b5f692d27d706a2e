"""Deck-matching odds and the knight's tour on the standard board.

A tour is an ordered cover of all 64 squares by knight moves (open: the
last square need not attack the first).  The solver runs a depth-first
search ordered by Warnsdorff's degree heuristic (1823) with lowest-(file,
rank) tie-breaking, so results are deterministic and the search is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactnum import Odds

BOARD = 8
SQUARES = BOARD * BOARD
KNIGHT_MOVES = ((-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1))


def deck_match_odds(deck_size: int) -> Odds:
    """Odds against two freshly shuffled identical decks matching exactly."""
    if deck_size < 1:
        raise ValueError("deck must have at least one card")
    return Odds(math.factorial(deck_size) - 1, 1)


@dataclass(frozen=True)
class Tour:
    squares: tuple

    def __post_init__(self):
        object.__setattr__(self, "squares", tuple((int(f), int(r)) for f, r in self.squares))
        verdict = validate_tour(self.squares)
        if not verdict.valid:
            raise ValueError(f"not a tour: {verdict.reason} at index {verdict.index}")


@dataclass(frozen=True)
class TourVerdict:
    valid: bool
    index: int | None = None
    reason: str | None = None


def _on_board(square) -> bool:
    f, r = square
    return 0 <= f < BOARD and 0 <= r < BOARD


def _is_knight_move(a, b) -> bool:
    df, dr = abs(a[0] - b[0]), abs(a[1] - b[1])
    return (df, dr) in ((1, 2), (2, 1))


def validate_tour(squares) -> TourVerdict:
    """Accept exactly the 64-square knight covers; report the first violation."""
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


def _neighbour_table():
    """Knight neighbours of every square, squares numbered 8*file + rank."""
    table = []
    for square in range(SQUARES):
        f, r = divmod(square, BOARD)
        targets = ((f + df, r + dr) for df, dr in KNIGHT_MOVES)
        table.append(tuple(t[0] * BOARD + t[1] for t in targets if _on_board(t)))
    return tuple(table)


_NEIGHBOURS = _neighbour_table()


def find_tour(start) -> Tour:
    """A deterministic open tour from the given square.

    Candidates are tried in (onward degree, file, rank) order; backtracking
    guarantees completion since open tours exist from every square.  With
    squares numbered 8*file + rank, that order is the order of the packed
    key degree*64 + square.  Onward degrees are kept in an array, lowered
    for a square's neighbours when it is visited and raised when it is left,
    and the depth-first search keeps one iterator of sorted keys per square
    of the path instead of recursing.
    """
    start = (int(start[0]), int(start[1]))
    if not _on_board(start):
        raise ValueError(f"square {start} is off the board")
    degree = [len(targets) for targets in _NEIGHBOURS]
    visited = [False] * SQUARES
    square = start[0] * BOARD + start[1]
    path = [square]
    moves = []  # moves[i]: keys of the untried candidates from path[i]
    while True:
        visited[square] = True
        targets = _NEIGHBOURS[square]
        for t in targets:
            degree[t] -= 1
        if len(path) == SQUARES:
            break
        moves.append(iter(sorted([degree[t] * SQUARES + t for t in targets if not visited[t]])))
        key = next(moves[-1], None)
        while key is None:  # dead end: leave squares until one has a candidate left
            moves.pop()
            if not moves:
                raise RuntimeError(f"no tour from {start}")  # unreachable on the 8x8 board
            square = path.pop()
            visited[square] = False
            for t in _NEIGHBOURS[square]:
                degree[t] += 1
            key = next(moves[-1], None)
        square = key % SQUARES
        path.append(square)
    return Tour(tuple(divmod(square, BOARD) for square in path))


def square_to_algebraic(square) -> str:
    f, r = square
    return f"{chr(ord('a') + f)}{r + 1}"


def algebraic_to_square(text: str):
    text = text.strip().lower()
    if len(text) < 2 or not ("a" <= text[0] <= "h"):
        raise ValueError(f"bad square {text!r}")
    f = ord(text[0]) - ord("a")
    try:
        r = int(text[1:]) - 1
    except ValueError:
        raise ValueError(f"bad square {text!r}") from None
    if not 0 <= r < BOARD:
        raise ValueError(f"bad square {text!r}")
    return (f, r)


def tour_to_text(tour: Tour) -> str:
    return ",".join(square_to_algebraic(sq) for sq in tour.squares)


def tour_from_text(text: str):
    return [algebraic_to_square(part) for part in text.split(",") if part.strip()]
