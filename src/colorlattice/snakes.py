"""Snake moves on a square board, and the staircase-Catalan lattice they hide.

Positions are tilings of an n x n board that are closed to the upper left
(so each is a partition drawn from the top-left corner) and balanced on the
main diagonal: wherever a diagonal square (i, i) is tiled, the tiled squares
below it in its column may not outnumber the tiled squares to its right in
its row.  Writing row lengths as a partition and conjugating, the balance
rule is simply conj(t)_i <= t_i across the Durfee range.

A move adds or removes tiles along a "centered southwesterly snake": a
sequence of squares walking South or West one step at a time whose
floor((m+1)/2)-th square sits on the main diagonal.  Moves are legal when
the result is again a valid tiling.  A snake whose addition or removal
leaves a partition is a border strip, or rim hook, of the larger shape
(Macdonald, Symmetric Functions and Hall Polynomials, I.1): one square per
content j - i, each the outermost tiled (or innermost bare) square of its
diagonal.  A snake's length fixes the contents it covers, so each tiling
has at most one candidate removal and one candidate addition per length,
and the move graph is built from those alone.

Orienting additions of even-length snakes and removals of odd-length
snakes (the length is the edge color) turns the move graph into the
diagram of ``c_lattice(n)``: tuples with n+1-q >= x_q >= x_{q+1} >= 0,
where raising coordinate q onto v wears color n+q-v.  The correspondence
has a closed form.  Let d_c count the tiled squares of content c, and
p = floor((m+1)/2).  A color-m snake covers the contents C(m) = {p-1, ...,
p-m}, which adds c(m) = (m-1)/2 (m odd) or -m/2 (m even) to C(m-1), and a
color-m step up changes d_c by (-1)^m on C(m).  The empty tiling is the
top (n, ..., 1): an even-length snake added to the empty board is a hook
whose leg is one longer than its arm, which breaks the diagonal rule, so
it has no out-edge.  Climbing from x to the top adds the M_k color-k
irreducibles not below x and ends with every d_c at 0, so
d_{c(m)} = -sum_{k >= m} (-1)^k M_k, with d_{c(2n)} := 0.  The color-m
irreducibles raise coordinate q onto n+q-m for max(1, m-n+1) <= q <= p;
those below x have x_q >= n+q-m, a prefix in q since x_q - q strictly
decreases.  So r_m = p + (-1)^m (d_{c(m)} - d_{c(m+1)}) = p - M_m counts
the q <= p with x_q >= n+q-m (trivially so for q <= m-n), r_m >= q exactly
when m >= n+q-x_q (which is >= 2q-1), and

    x_q = n + q - min{m : r_m >= q},  or 0 when no r_m >= q.

``solve_snakes`` builds neither graph: it pulls both ends back, walks a
geodesic on tuple coordinates and pushes each step forward on the
diagonal lengths.  This module holds what a solve runs: the tiling check,
one O(1) test on the rows per diagonal index (`_diagonal_ok`), and its
local form (`_still_tiling`, which tests a move's result at the rows and
columns it touched, and which the replay and the move graph share), the
least-member rule (`_catalan_lattice`), the rim geometry, the pull-back, the solver and its replay, whose snake test (`_is_snake`) is
one pass over the squares.  The snakes, the move graph
(`legal_snake_moves`, `ming_digraph`), ``c_lattice`` and
``cached_isomorphism``, which checks the pull-back edge by edge on the
boards small enough to build, live in :mod:`colorlattice.explicit`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb

from .core import NotIsomorphicError, TupleLattice, _int_sizes   # the error's former home keeps it
from .dominoes import (_board, _box_lattice, _move, _rows_fit, enumerate_box_partitions,
                       is_box_partition)

__all__ = [
    "NotIsomorphicError",
    "catalan_tuples",
    "is_tiling",
    "enumerate_tilings",
    "render_tiling",
    "SnakeSolution",
    "solve_snakes",
    "replay_snakes",
]


# --------------------------------------------------------------------------
# the lattice side

def catalan_tuples(n: int):
    """Weakly decreasing n-tuples with 0 <= s_i <= n+1-i, sorted."""
    return list(filter(_catalan_lattice(n).member, enumerate_box_partitions(n, n)))


@lru_cache(maxsize=None)
def _catalan_lattice(n: int) -> TupleLattice:
    """The lattice of ``c_lattice(n)`` by rules, with nothing enumerated.

    The down-set of ``a_lattice(n, n)`` below the staircase (n, ..., 1): the
    box's rules under that top.  Built once per size, with its color list.
    """
    box = _box_lattice(n, n)
    return TupleLattice(range(n, 0, -1), box.color, box.least)


# --------------------------------------------------------------------------
# tilings

def is_tiling(rows, n: int) -> bool:
    """Upper-left-closed tiling of the n x n board obeying the diagonal rule.

    ``rows`` is the n-tuple of row lengths.  The diagonal rule: for each i
    with rows_i >= i (square (i,i) tiled), the i-th column height must not
    exceed rows_i; `_diagonal_ok` tests it at one index in O(1).
    """
    rows = tuple(rows)
    return (is_box_partition(rows, n, n)
            and all(_diagonal_ok(rows, n, i) for i in range(1, n + 1)))


def _diagonal_ok(rows, n: int, i: int) -> bool:
    """The diagonal rule at index i of a partition ``rows`` of the n x n board.

    With r = rows_i, it holds when (i, i) is bare (r < i), and otherwise
    when column i is at most r long.  In a partition, column i is at most
    r long exactly when r >= n or row r + 1 is shorter than i (the
    conjugate partition: Macdonald, Symmetric Functions and Hall
    Polynomials, I.1).
    """
    r = rows[i - 1]
    return r < i or r >= n or rows[r] < i


def _still_tiling(rows, n: int, squares) -> bool:
    """``is_tiling(rows, n)`` for the result of laying or lifting the
    ``squares`` of a snake on the board with ``_move``, from a tiling.

    The n x n board is the full board at k = n, so the touched rows are
    tested as a board move's are (`_rows_fit`): each must lie between its
    neighbours.  The diagonal rule at index i reads row i and the length
    of column i, so it can break only at a touched row or column: a snake
    touches each row from its head's to its tail's, and each column from
    its tail's to its head's.  The move graph and `replay_snakes` test
    each move this way, in O(squares moved).
    """
    (head_i, head_j), (tail_i, tail_j) = squares[0], squares[-1]
    touched = range(head_i, tail_i + 1)
    return (_rows_fit(_board("full", n, n), rows, touched)
            and all(_diagonal_ok(rows, n, i)
                    for i in chain(touched, range(tail_j, head_j + 1))))


def enumerate_tilings(n: int):
    """All valid tilings of the n x n board, as sorted row-length tuples."""
    return [rows for rows in enumerate_box_partitions(n, n) if is_tiling(rows, n)]


def render_tiling(rows, n: int) -> str:
    """An ASCII picture, '#' for tiled squares and '.' for bare ones."""
    return "\n".join(
        "".join("#" if j <= rows[i - 1] else "." for j in range(1, n + 1))
        for i in range(1, n + 1))


# --------------------------------------------------------------------------
# snakes

def _is_snake(snake, n: int) -> bool:
    """Whether ``snake`` is a centered southwesterly snake on the n x n board.

    That is: a tuple of 1 to 2n-1 board squares, each a South or West step
    from the one before, whose floor((m+1)/2)-th square is on the main
    diagonal.  Accepts exactly the members of ``all_snakes(n)``.

    One pass over the squares tests each one's type and its step from the
    one before.  Rows never fall and columns never rise along such a walk,
    so it stays on the board exactly when its head lies at a row >= 1 and
    a column <= n, and its tail at a row <= n and a column >= 1.
    """
    if not isinstance(snake, tuple) or not 1 <= len(snake) <= 2 * n - 1:
        return False
    i = j = None
    for sq in snake:
        if not (isinstance(sq, tuple) and len(sq) == 2
                and type(sq[0]) is int and type(sq[1]) is int):
            return False
        a, b = sq
        if i is not None and not (a == i + 1 and b == j or a == i and b == j - 1):
            return False
        i, j = a, b
    (head_i, head_j), mid = snake[0], snake[(len(snake) + 1) // 2 - 1]
    return 1 <= head_i and head_j <= n and i <= n and 1 <= j and mid[0] == mid[1]


def _contents(m: int):
    """The contents j - i of a length-m snake, head to tail: one step down
    per square, and content 0 on its floor((m+1)/2)-th square."""
    p = (m + 1) // 2
    return range(p - 1, p - m - 1, -1)


def _diagonal_lengths(rows, n):
    """Per content c = j - i, from -n to n-1, the number of tiled squares.

    Tiled squares fill a prefix of each diagonal of the board, so the last
    tiled square of content c is ``_on_diagonal(c, d_c - 1)`` and the first
    bare one ``_on_diagonal(c, d_c)``.  Content -n lies off the board: 0.
    """
    d = {}
    for c in range(-n, n):
        first, last = max(1, 1 - c), min(n, n - c)
        i = first
        while i <= last and rows[i - 1] >= i + c:
            i += 1
        d[c] = i - first
    return d


def _on_diagonal(c: int, k: int):
    """Square k (from 0) of the diagonal of content c, possibly off the board."""
    i = max(1, 1 - c) + k
    return (i, i + c)


# --------------------------------------------------------------------------
# the correspondence

def _pull_back(rows, n: int):
    """The tuple of a tiling, by the closed form in the module docstring."""
    return _pull_back_lengths(_diagonal_lengths(rows, n), n)


def _pull_back_lengths(d, n: int):
    """`_pull_back` of the tiling whose diagonal lengths are ``d``."""
    # d_{c(m)} for m = 1 ... 2n, where c(m) is the content C(m) adds
    dc = [d[m // 2 if m % 2 else -(m // 2)] for m in range(1, 2 * n + 1)]
    r = [(m + 1) // 2 + (-1) ** m * (dc[m - 1] - dc[m]) for m in range(1, 2 * n)]
    return tuple(next((n + q - m for m, r_m in enumerate(r, 1) if r_m >= q), 0)
                 for q in range(1, n + 1))


# The largest boards, in tilings, whose move graph and tuple lattice are
# built; the cap bounds the cost of those builds.  Solving builds neither.
_TILINGS_CAP = 2000


def _tilings(n: int) -> int:
    """How many tilings the n x n board has: the Catalan number C(n+1)."""
    return comb(2 * n + 2, n + 1) // (n + 2)


# --------------------------------------------------------------------------
# solving

class SnakeSolution:
    """An optimal play: tilings visited plus the snake of every move."""

    __slots__ = ("n", "states", "actions", "distance", "color_counts",
                 "certificate")

    def __init__(self, n, states, actions, color_counts, certificate):
        self.n = n
        self.states = tuple(states)
        self.actions = tuple(actions)   # (verb, snake) per step
        self.distance = len(actions)
        self.color_counts = dict(color_counts)
        self.certificate = certificate

    @property
    def start(self):
        return self.states[0]

    @property
    def target(self):
        return self.states[-1]

    def serialize(self) -> str:
        def fmt(rows):
            return ",".join(str(p) for p in rows)

        lines = [f"distance={self.distance}"]
        for (a, (verb, snake), b) in zip(self.states, self.actions,
                                         self.states[1:]):
            path = " ".join(f"({i},{j})" for (i, j) in snake)
            lines.append(f"{fmt(a)} --{len(snake)}--> {fmt(b)}  [{verb} {path}]")
        return "\n".join(lines)

    def __repr__(self):
        return (f"SnakeSolution(n={self.n}, {self.start} -> {self.target}, "
                f"{self.distance} moves)")


def solve_snakes(n: int, s, t, via: str = "join") -> SnakeSolution:
    """Optimal play between two tilings of the n x n board.

    Both endpoints are pulled back by the closed form, and a mountain or
    valley geodesic is built on tuple coordinates: the one ``shortest_path``
    builds on ``c_lattice(n)``, with nothing enumerated.  A step of color m
    adds tiles exactly when (m is even) == (the step goes up), one square at
    the end of each content's diagonal.  The play must reach t, and is
    replayed under the raw rules.
    """
    _int_sizes(n=n)
    if n < 1:
        raise ValueError("n must be positive")
    s, t = tuple(s), tuple(t)
    for rows in (s, t):
        if not is_tiling(rows, n):
            raise ValueError(f"not a tiling of the {n} x {n} board: {rows}")
    lat = _catalan_lattice(n)
    d = _diagonal_lengths(s, n)
    xs, xt = _pull_back_lengths(d, n), _pull_back(t, n)
    cert = lat.geodesic(xs, xt, via=via)
    rows = list(s)
    states, actions = [s], []
    for color, direction in cert.steps:
        adds = (color % 2 == 0) == (direction == +1)
        shift = 1 if adds else -1
        snake = []
        for c in _contents(color):
            i, j = _on_diagonal(c, d[c] if adds else d[c] - 1)
            if not (1 <= i <= n and 1 <= j <= n):
                raise AssertionError(f"no color-{color} snake fits at {tuple(rows)}")
            snake.append((i, j))
            d[c] += shift
            rows[i - 1] += shift
        states.append(tuple(rows))
        actions.append(("add" if adds else "remove", tuple(snake)))
    if states[-1] != t:
        raise AssertionError("the pushed-forward play does not reach the target")
    sol = SnakeSolution(n, states, actions, lat.color_counts(xs, xt), cert)
    replay_snakes(sol)
    return sol


def replay_snakes(sol: SnakeSolution) -> None:
    """Re-run a solution under the raw snake rules; raise if any move cheats.

    The play must hold one more state than actions and start on a tiling.

    Each result is tested at the rows and columns its snake touched
    (`_still_tiling`), as the move graph tests it.  By induction on the
    moves, the state a move starts from is a tiling, so that test is the
    whole ``is_tiling``: the start is checked whole, and each later state
    equals a result that passed.
    """
    if len(sol.states) != len(sol.actions) + 1:
        raise AssertionError(f"{len(sol.states)} states for {len(sol.actions)} moves")
    n = sol.n
    cur = sol.start
    if not is_tiling(cur, n):
        raise AssertionError(f"play starts at {cur}, not a tiling")
    for step, ((verb, snake), nxt) in enumerate(zip(sol.actions,
                                                    sol.states[1:])):
        if not _is_snake(snake, n):
            raise AssertionError(f"move {step}: not a centered snake: {snake}")
        if verb not in ("add", "remove"):
            raise AssertionError(f"move {step}: unknown verb {verb!r}")
        after = _move(cur, snake, verb == "add")
        if after is None or not _still_tiling(after, n, snake) or after != nxt:
            raise AssertionError(f"move {step}: illegal or mismatched result")
        cur = nxt
    if cur != sol.target:
        raise AssertionError("replay did not reach the target tiling")
