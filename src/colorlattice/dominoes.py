"""Domino puzzles on checkered boards and the symplectic lattices behind them.

The playing pieces are partitions drawn in a k x (2n-k) grid.  Three board
shapes appear:

* ``ballot``    - the grid minus a southeastern staircase of base/height k-1;
                  row r keeps columns 1 .. (2n-k)-r+1, and the partitions that
                  fit are the "ballot" ones (row r at most (2n-k)-r+1 long);
* ``staircase`` - the 180-degree rotation; row r keeps columns k+1-r .. 2n-k,
                  and the partitions in play always contain the forced
                  northwestern staircase (row r at least k-r long);
* ``full``      - the whole grid, all box partitions.

A move adds or removes one domino (two adjacent squares) or the single
northeastern corner square, provided the result is again a partition of the
board's kind.  A checkerboard coloring anchored red at the northeastern
corner orients each move into a directed, colored edge; the resulting
digraphs turn out to be diagrams of distributive lattices, which is what
makes optimal play computable by rank arithmetic.

Alongside the boards lives the board coding ``l_map``, which reorders a
tableau's values into places 1..2n: odd v goes to place (v+1)/2 and even v
to place 2n+1-v/2, so the odd values fill the first n places in order and
the even values the last n in reverse.

This module holds what a solve runs: the board checks, the coding
(`l_map` and `l_inv` check their input; the solver runs the unchecked
`_encode` on its two ends), the least-member rules (`_box_lattice`,
`_board_lattice`), the move rule (`_move`, `_wears`, and `_rows_fit`,
which tests a move's result at the rows it touched and, given every row,
is `Board.valid`), the solver and its replay.  A solve plays on one
`Board` per kind and size (`_board`) and pushes each lattice step onto it
as one tile action, read off the place the step moves.  The replay reads
`_wears` through one tile table per kind and size (`_tiles`, filled a
tile at a time) and tests each new tile once.  The replay and the move
graph share the move rule and its table; the solver never runs it.  The
move graph (`legal_moves`, `domino_digraph`) and the explicit lattices
(`a_lattice`, `kn_lattice`, `dec_lattice`) are built in
:mod:`colorlattice.explicit` from the same rules.  The columnar tableaux,
their 0/1 tally sequences and the two admissibility conditions that carve
the symplectic sublattices out of the full box lattice, which ``verify
symplectic`` holds `_board_lattice` to, live in :mod:`colorlattice.tableaux`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .core import TupleLattice

__all__ = [
    "is_box_partition",
    "is_ballot",
    "is_staircase",
    "enumerate_box_partitions",
    "l_map",
    "l_inv",
    "Board",
    "sigma",
    "DominoSolution",
    "solve_domino",
    "replay_domino",
]


# --------------------------------------------------------------------------
# partitions and their validity per board kind

def _is_parts(tau) -> bool:
    return (all(isinstance(p, int) and not isinstance(p, bool) for p in tau)
            and all(a >= b for a, b in zip(tau, tau[1:]))
            and (not tau or tau[-1] >= 0))


def is_box_partition(tau, k: int, m: int) -> bool:
    """Weakly decreasing, k parts, each between 0 and m."""
    tau = tuple(tau)
    return len(tau) == k and _is_parts(tau) and (not tau or tau[0] <= m)


def is_ballot(tau, k: int, n: int) -> bool:
    """Box partition with row i at most (2n-k)-i+1 long."""
    tau = tuple(tau)
    return (is_box_partition(tau, k, 2 * n - k)
            and all(tau[i] <= 2 * n - k - i for i in range(k)))


def is_staircase(tau, k: int, n: int) -> bool:
    """Box partition with row i at least k-i long."""
    tau = tuple(tau)
    return (is_box_partition(tau, k, 2 * n - k)
            and all(tau[i] >= k - i - 1 for i in range(k)))


def enumerate_box_partitions(k: int, m: int):
    """All weakly decreasing k-tuples with entries in 0..m, sorted."""
    return sorted(combinations_with_replacement(range(m, -1, -1), k))


def _rows_fit(board: Board, tau, rows) -> bool:
    """``board.valid(tau)`` for a tuple that is a partition of the board's
    kind but for the given rows (1-based): each of them must lie within its
    row's bounds (`Board._bounds`) and between its neighbours.

    A move changes only the rows its squares lie in, and a row bound or an
    order between two rows that it leaves alone still holds.  So the move
    graph and `replay_domino` test a move's result at its touched rows
    alone, from a partition of the kind.  Given every row, it is the whole
    test of k ints that `Board.valid` runs.  A result that passes keeps on
    the board each square `_move` laid or lifted in rows 1..k: its column
    lies between the row's old and new lengths, both within (lo, hi].
    """
    k, bounds = board.k, board._bounds
    for r in rows:
        p = tau[r - 1]
        lo, hi = bounds[r - 1]
        if not lo <= p <= hi or (r > 1 and tau[r - 2] < p) or (r < k and p < tau[r]):
            return False
    return True


def _move(rows, squares, add: bool):
    """The row lengths after laying (add) or lifting the squares, or None.

    Taken in column order (right to left when lifting), each square must be
    the next bare square of its row (add) or its last tiled one, so a
    square listed twice is refused.  On distinct squares this is the rule
    on sets of squares: disjoint from the tiled ones (add) or among them,
    leaving every row left-justified.  The squares must lie on the board.
    """
    out = list(rows)
    for r, c in sorted(squares, reverse=not add):
        if c != (out[r - 1] + 1 if add else out[r - 1]):
            return None
        out[r - 1] += 1 if add else -1
    return tuple(out)


# --------------------------------------------------------------------------
# the board coding

def l_map(tau, k: int, n: int):
    """The five-stage rewriting of one box partition into another.

    By definition: partition -> tableau (``part_to_tab``, T_j = j +
    tau_{k+1-j}) -> tally (``to_tally``) -> reordered tally (t'_i =
    t_{perm(i)}, perm(i) = 2i-1 for i <= n and 4n+2-2i above) -> tableau
    (the places of the ones) -> partition (the complementary coding
    x_j = m+j-T_j, m = 2n-k).  A bijection on k x m box partitions; it
    carries staircase partitions onto the first admissible family and
    ballot partitions onto the second.

    In one step: the reordering moves value v to the place z(v) with
    perm(z(v)) = v, which is (v+1)/2 for odd v and 2n+1-v/2 for even v.
    So the ones of t' sit at the places of the values j + tau_{k+1-j};
    sorted, p_1 < ... < p_k, they give x_j = m + j - p_j.

    Refuses anything but a nonempty k x m box partition (ValueError), then
    runs `_encode`, which checks nothing.
    """
    return _encode(_box_checked(tau, k, n), k, n)


def l_inv(tau, k: int, n: int):
    """Invert l_map in one step.

    The places m + j - x_j hold the values 2p-1 (place p <= n) and 4n+2-2p
    (above); sorted, T_1 < ... < T_k, they give tau_{k+1-i} = T_i - i.
    Refuses as `l_map` does, then runs `_decode`.
    """
    return _decode(_box_checked(tau, k, n), k, n)


def _box_checked(tau, k: int, n: int):
    """``tau`` as a tuple, or ValueError unless it is a nonempty k x (2n-k)
    box partition."""
    tau = tuple(tau)
    if not tau or not is_box_partition(tau, k, 2 * n - k):
        raise ValueError(f"not a partition in a {k} x {2 * n - k} box: {tau}")
    return tau


def _encode(tau, k: int, n: int):
    """`l_map` of a tuple already known to be a k x (2n-k) box partition."""
    m = 2 * n - k
    places = sorted((v + 1) // 2 if v % 2 else 2 * n + 1 - v // 2
                    for v in (j + p for j, p in enumerate(reversed(tau), 1)))
    return tuple(m + j - p for j, p in enumerate(places, 1))


def _decode(x, k: int, n: int):
    """`l_inv` of a tuple already known to be a k x (2n-k) box partition:
    coordinate j sits at place m + j - x_j, which holds the value 2p-1
    (place p <= n) or 4n+2-2p (above).  Sorted downward, the values
    T_k > ... > T_1 give the parts T_i - i in order."""
    m = 2 * n - k
    values = sorted((2 * p - 1 if p <= n else 4 * n + 2 - 2 * p
                     for p in (m + j - e for j, e in enumerate(x, 1))), reverse=True)
    return tuple(v - i for v, i in zip(values, range(k, 0, -1)))


# --------------------------------------------------------------------------
# boards

class Board:
    """A checkered puzzle board of one of the three kinds.

    Checker colors are anchored at the northeastern corner square, which is
    red; red squares lie on "removing" diagonals indexed 1..n by
    col - row = 2i - k - 1, white squares on "adding" diagonals indexed
    1..n-1 by col - row = 2i - k.  On the full board the adding diagonals
    are displayed and colored under the relabeling i -> 2n - i.
    """

    __slots__ = ("kind", "k", "n", "width", "_bounds")

    def __init__(self, kind: str, k: int, n: int):
        if kind not in ("ballot", "staircase", "full"):
            raise ValueError(f"unknown board kind {kind!r}")
        if type(k) is not int or type(n) is not int:
            raise ValueError(f"board sizes must be ints, got k={k!r}, n={n!r}")
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        self.kind = kind
        self.k = k
        self.n = n
        self.width = 2 * n - k
        # per row r, at r - 1, its bounds (lo, hi): row r of the board holds
        # columns lo+1 .. hi, and a partition of the board's kind has row r
        # between lo and hi long.  lo is k - r on staircase boards and hi is
        # width + 1 - r on ballot boards; otherwise they are 0 and the width.
        self._bounds = tuple((k - r if kind == "staircase" else 0,
                              self.width + 1 - r if kind == "ballot" else self.width)
                             for r in range(1, k + 1))

    def has_square(self, r: int, c: int) -> bool:
        if not 1 <= r <= self.k:
            return False
        lo, hi = self._bounds[r - 1]
        return lo < c <= hi

    @property
    def singleton(self):
        return (1, self.width)

    def is_red(self, r: int, c: int) -> bool:
        return (r + c) % 2 == (1 + self.width) % 2

    # The width 2n - k has the parity of k, so a square is red exactly when
    # c - r + k + 1 is even: the remainders below test the checker color.

    def removing_index(self, r: int, c: int) -> int:
        i, rem = divmod(c - r + self.k + 1, 2)
        if rem or not 1 <= i <= self.n:
            raise ValueError(f"square {(r, c)} is on no removing diagonal")
        return i

    def adding_index(self, r: int, c: int) -> int:
        i, rem = divmod(c - r + self.k, 2)
        if rem or not 1 <= i <= self.n - 1:
            raise ValueError(f"square {(r, c)} is on no adding diagonal")
        return i

    def adding_label(self, r: int, c: int) -> int:
        """Edge color contributed by a white square: relabeled on full boards."""
        i = self.adding_index(r, c)
        return 2 * self.n - i if self.kind == "full" else i

    def valid(self, tau) -> bool:
        """Whether ``tau`` is a partition of the board's kind: k ints (not
        bools), each row within its bounds and the rows weakly decreasing.
        That is `is_ballot`, `is_staircase` or `is_box_partition`, by kind:
        decreasing rows within the bounds lie between 0 and the width, and
        the kind's bound on each row is the one those tests add."""
        tau = tuple(tau)
        return (len(tau) == self.k
                and all(isinstance(p, int) and not isinstance(p, bool) for p in tau)
                and _rows_fit(self, tau, range(1, self.k + 1)))

    def partitions(self):
        return [tau for tau in enumerate_box_partitions(self.k, self.width)
                if self.valid(tau)]

    def render_ascii(self) -> str:
        """The board, one cell per square: R/W checkering plus diagonal label."""
        lines = []
        for r in range(1, self.k + 1):
            cells = []
            for c in range(1, self.width + 1):
                if not self.has_square(r, c):
                    cells.append("    ")
                elif self.is_red(r, c):
                    cells.append(f"R{self.removing_index(r, c):<3}")
                else:
                    cells.append(f"W{self.adding_label(r, c):<3}")
            lines.append(" ".join(cells).rstrip())
        return "\n".join(lines)


def _wears(board: Board, squares):
    """The board's one move rule: the (verb, color) a tile's move wears.

    Played forward, a tile is removed exactly when it is the corner
    singleton or its red square has the smaller content c - r of the two;
    that move wears ``removing_index`` of the red square.  Otherwise it
    adds the tile and wears ``adding_label`` of the white square.  The
    squares must lie on the board, a domino having one of each color.
    """
    if len(squares) == 1:
        return "remove", board.removing_index(*squares[0])
    red, white = squares if board.is_red(*squares[0]) else squares[::-1]
    if red[1] - red[0] < white[1] - white[0]:
        return "remove", board.removing_index(*red)
    return "add", board.adding_label(*white)


class _TileTable(dict):
    """The board's move rule as a table: per sorted tile on the board, the
    rows it touches and the (verb, color) `_wears` gives it.  A tile's entry
    is found on its first read (``table[tile]``) and kept, so a play pays
    only for the tiles it moves; ``table.get(tile)`` reads without filling."""

    __slots__ = ("board",)

    def __init__(self, board: Board):
        super().__init__()
        self.board = board

    def __missing__(self, tile):
        (r1, _), (r2, _) = tile[0], tile[-1]
        entry = self[tile] = ((r1,) if r1 == r2 else (r1, r2), *_wears(self.board, tile))
        return entry


@lru_cache(maxsize=None)
def _tiles(kind: str, k: int, n: int) -> _TileTable:
    """The one tile table per kind and size, which `replay_domino` and the
    move graph read whatever `Board` they are handed."""
    return _TileTable(_board(kind, k, n))


# --------------------------------------------------------------------------
# lattice rules

def sigma(i: int, n: int) -> int:
    """Fold the color range 1..2n-1 onto 1..n: identity below n, 2n-i above."""
    if not 1 <= i <= 2 * n - 1:
        raise ValueError(f"color {i} outside 1..{2 * n - 1}")
    return i if i <= n else 2 * n - i


def _box_lattice(k: int, m: int) -> TupleLattice:
    """``a_lattice(k, m)`` by rules: least(q, v) is (v, ..., v, 0, ..., 0), q parts v."""
    return TupleLattice((m,) * k, lambda q, t: q - t + m,
                        lambda q, v: (v,) * q + (0,) * (k - q))


@lru_cache(maxsize=None)
def _board_lattice(kind: str, k: int, n: int) -> TupleLattice:
    """The lattice ``solve_domino`` walks for a board kind, by rules.

    Full boards walk ``a_lattice(k, m)``, m = 2n-k, ballot boards
    ``dec_lattice(k, n)`` and staircase boards ``kn_lattice(k, n)``, built
    from these rules.  Each least member with part q >= v has a closed form.
    Write e = n-k (so m = k+2e), B(q, v) = (v, ..., v, 0, ..., 0) with q
    parts v, and tau' for the conjugate.  B(q, v) lies below every partition
    with part q >= v, so it is the least one whenever it is a member; on
    full boards it always is.

    * Staircase (kn: tau_i - tau'_i <= 2e for i up to the Durfee size).
      Put r = v-2e.  When r <= q, B(q, v) is admissible: on its Durfee
      square tau_i - tau'_i = v-q <= 2e.  Otherwise v > q, so an admissible
      tau with tau_q >= v has Durfee size >= q and tau'_q >= tau_q-2e >= r:
      its first r parts are >= q (and r <= k, since v <= m).  So tau lies
      above (v, ..., v, q, ..., q, 0, ..., 0), q parts v and r-q parts q,
      which is admissible with tau_i - tau'_i = v-r = 2e for i <= q.
    * Ballot (dec: the clipped conjugate c = (tau'_{e+1}, ..., tau'_{e+k})
      has c_i <= c'_i for i up to its Durfee size).  Put r = v-e.  B(q, v)
      clips to c = (q, ..., q, 0, ..., 0) with max(0, min(r, k)) parts q,
      admissible when r <= 0 or r >= q.  Otherwise 0 < r < q, and an
      admissible tau with tau_q >= v has c_i >= q > r for i <= r, so
      c'_i >= c_i >= q there: c_q >= r, which is tau_i >= q+e for i <= r.
      So tau lies above (q+e, ..., q+e, v, ..., v, 0, ..., 0), r parts q+e
      and q-r parts v, whose clipped conjugate (q, ..., q, r, ..., r, 0,
      ..., 0) passes with Durfee size r.

    So least(q, v) is B(q, v) with its first r parts raised to h, where
    (r, h) is (v-2e, q) or (v-e, q+e) in the two cases the box form fails
    and (0, 0) elsewhere.  ``check_lattice`` runs in ``verify symplectic``.
    Built once per kind and size: its color list is kept with it.
    """
    box = _box_lattice(k, 2 * n - k)
    if kind == "full":
        return box
    e = n - k

    def least(q, v):
        r, h = ((v - 2 * e, q) if kind == "staircase" and v - 2 * e > q else
                (v - e, q + e) if kind == "ballot" and 0 < v - e < q else (0, 0))
        if r > q:
            return (v,) * q + (h,) * (r - q) + (0,) * (k - r)
        return (h,) * r + (v,) * (q - r) + (0,) * (k - q)

    return TupleLattice(box.top, lambda q, t: sigma(box.color(q, t), n), least)


# --------------------------------------------------------------------------
# solving

class DominoSolution:
    """An optimal play: partitions visited and the physical tile actions."""

    __slots__ = ("kind", "k", "n", "start", "target", "states", "actions",
                 "distance", "color_counts", "certificate")

    def __init__(self, kind, k, n, states, actions, color_counts, certificate):
        self.kind = kind
        self.k = k
        self.n = n
        self.states = tuple(states)
        self.start = self.states[0]
        self.target = self.states[-1]
        self.actions = tuple(actions)   # (verb, squares, color) per step
        self.distance = len(actions)
        self.color_counts = dict(color_counts)
        self.certificate = certificate

    def __repr__(self):
        return (f"DominoSolution({self.kind} {self.k},{self.n}: "
                f"{self.start} -> {self.target}, {self.distance} moves)")

    def serialize(self) -> str:
        def fmt(tau):
            return ",".join(str(p) for p in tau)

        lines = [f"distance={self.distance}"]
        for (a, (verb, squares, color), b) in zip(
                self.states, self.actions, self.states[1:]):
            at = " ".join(f"({r},{c})" for (r, c) in squares)
            lines.append(f"{fmt(a)} --{color}--> {fmt(b)}  [{verb} {at}]")
        return "\n".join(lines)


def solve_domino(kind: str, k: int, n: int, start, target,
                 via: str = "join") -> DominoSolution:
    """Optimal play between two partitions of a board's kind.

    Both endpoints are rewritten into the matching sublattice of the box
    lattice, and a mountain or valley geodesic is built there on tuple
    coordinates: the one ``shortest_path`` builds on ``dec_lattice``,
    ``kn_lattice`` or ``a_lattice``, with nothing enumerated.  Nothing but
    the two ends is coded: each lattice step is pushed forward onto the
    board as one tile action, which wears its step's color, and the play
    must reach ``target``.  The replay checks it under the tile rules,
    colors included.

    The push reads the coding of `l_map` (m = 2n-k).  Coordinate j of x
    sits at place m + j - x_j, place p holds the value 2p-1 (p <= n) or
    4n+2-2p (above), and row r of the partition is w_r - (k+1-r), where
    w_1 > ... > w_k are the values held: each row holds one value, in
    descending order.  Places and values correspond one to one, so the
    values stay distinct.  Raising x_j moves its place p down by one, and
    the value there changes by -2 when p <= n, by -1 at p = n+1 (2n, which
    only row 1 at its full length m can hold: the corner square) and by +2
    above.  Lowering x_j is the mirror image: p moves up by one, and the
    value changes by +2, +1 or -2 as the new place is <= n, n+1 or above.
    A change by 2s (s = +-1) of the value w held by row r passes over
    w+s.  If no row holds w+s, row r keeps its rank and its length changes
    by 2s: a horizontal domino at its end.  Otherwise the row holding w+s
    is its neighbour (r+1 below for s = -1, r-1 above for s = +1), and the
    two rows, of equal length w - (k+1-r), swap ranks and both change by s:
    a vertical domino at their common end.  The coordinate a step moves is
    the one its two vertices differ in, so each action comes off the rows
    it touches, with no state decoded and no two states compared.

    The endpoints are checked once, on entry: a partition of the board's
    kind is a box partition, so the coding runs unchecked (`_encode`).  A
    step whose value is not held, or whose new place is off the range or
    taken, cannot be played; it and a play that ends off ``target`` raise
    AssertionError, as a failed replay does.
    """
    board = _board(kind, k, n)
    start, target = tuple(start), tuple(target)
    for tau in (start, target):
        if not board.valid(tau):
            raise ValueError(f"{tau} is not a {kind} partition for "
                             f"k={k}, n={n}")
    lat = _board_lattice(kind, k, n)
    enc_s, enc_t = _encode(start, k, n), _encode(target, k, n)
    cert = lat.geodesic(enc_s, enc_t, via=via)
    m = 2 * n - k
    rows = list(start)
    held = [0] * (2 * n + 2)    # per value, the row holding it (0: none)
    for r, p in enumerate(start, 1):
        held[p + k + 1 - r] = r
    states, actions = [start], []
    verts = cert.vertices
    for step, (a, b, (color, d)) in enumerate(zip(verts, verts[1:], cert.steps)):
        j = 0
        while a[j] == b[j]:
            j += 1
        p = m + j + 1 - a[j]    # coordinate j + 1's place, which moves to p - d
        w = 2 * p - 1 if p <= n else 4 * n + 2 - 2 * p
        p -= d
        w2 = 2 * p - 1 if p <= n else 4 * n + 2 - 2 * p
        r = held[w]
        if not r or w2 < 1 or held[w2]:
            raise AssertionError(f"step {step}: coordinate {j + 1} cannot move "
                                 f"from {a} on {tuple(rows)}")
        s = 1 if w2 > w else -1
        length = rows[r - 1]
        held[w] = 0
        if w2 - w == s:                 # the corner square
            squares = ((r, length + (s > 0)),)
            held[w2] = r
        elif held[w + s]:               # a vertical domino
            r2 = held[w + s]
            c = length + (s > 0)
            squares = ((r, c), (r2, c)) if r < r2 else ((r2, c), (r, c))
            held[w + s], held[w2] = r, r2
            rows[r2 - 1] += s
        else:                           # a horizontal domino
            squares = ((r, length + s), (r, length + s + 1))
            held[w2] = r
            s *= 2
        rows[r - 1] += s
        states.append(tuple(rows))
        actions.append(("add" if s > 0 else "remove", squares, color))
    if states[-1] != target:
        raise AssertionError("the pushed-forward play does not reach the target")
    sol = DominoSolution(kind, k, n, states, actions,
                         lat.color_counts(enc_s, enc_t), cert)
    replay_domino(board, sol)
    return sol


@lru_cache(maxsize=None, typed=True)
def _board(kind: str, k: int, n: int) -> Board:
    """The board ``solve_domino`` plays on, built once per kind and size
    (typed, so that a bool size is refused and not served the int's board)."""
    return Board(kind, k, n)


def replay_domino(board: Board, sol: DominoSolution) -> None:
    """Re-run a solution under the raw tile rules; raise if any step cheats.

    The play must hold one more state than actions and start on a
    partition of the board's kind.  Each square must be a pair of ints, and
    each action must wear its tile's color: the one ``_wears`` gives the
    move ``legal_moves`` lists through that tile, played either way.

    Each tile is read from the board's tile table (`_tiles`, one per kind
    and size), which holds the rows it touches and its color.  A tile the
    table lacks, or one listed out of order, is tested once: its squares
    sorted once, which shows its shape (the corner singleton, or a domino
    lying in one row or down one column), and each square on the board;
    then it is read from the table, which keeps it.  The refusals come in a
    fixed order: squares that are not pairs of ints, a tile of the wrong
    shape, a square off the board, an unknown verb, squares not at their
    rows' ends, a wrong result, a wrong color.

    Each result is tested at the rows its tile touched (`_rows_fit`), as
    the move graph tests it.  By induction on the steps, the state a step
    starts from is a partition of the kind, so that test is the whole
    ``board.valid``: the start is checked whole, and each later state
    equals a result that passed.
    """
    if len(sol.states) != len(sol.actions) + 1:
        raise AssertionError(f"{len(sol.states)} states for {len(sol.actions)} moves")
    cur = sol.start
    if not board.valid(cur):
        raise AssertionError(f"play starts at {cur}, not a {board.kind} partition")
    table = _tiles(board.kind, board.k, board.n)
    corner = (board.singleton,)
    for step, ((verb, squares, color), nxt) in enumerate(
            zip(sol.actions, sol.states[1:])):
        for sq in squares:
            if not (type(sq) is tuple and len(sq) == 2
                    and type(sq[0]) is int and type(sq[1]) is int):
                raise AssertionError(f"step {step}: squares {squares!r} are not "
                                     f"pairs of ints")
        entry = table.get(squares) if type(squares) is tuple else None
        if entry is None:
            if len(squares) == 2:
                tile = tuple(sorted(squares))
                (r1, c1), (r2, c2) = tile
                if not (r1 == r2 and c2 == c1 + 1 or c1 == c2 and r2 == r1 + 1):
                    raise AssertionError(f"step {step}: tiles are not a domino")
            elif len(squares) == 1:
                if squares != corner:
                    raise AssertionError(f"step {step}: singleton is not the corner")
                tile = corner
            else:
                raise AssertionError(f"step {step}: bad tile count")
            for r, c in tile:
                if not board.has_square(r, c):
                    raise AssertionError(f"step {step}: tile leaves the board")
            entry = table[tile]
        else:
            tile = squares
        rows, _, wears = entry
        if verb not in ("add", "remove"):
            raise AssertionError(f"step {step}: unknown verb {verb!r}")
        after = _move(cur, tile, verb == "add")
        if after is None:
            raise AssertionError(f"step {step}: squares are not at their "
                                 f"rows' ends; result is not left-justified")
        if not _rows_fit(board, after, rows) or after != nxt:
            raise AssertionError(f"step {step}: illegal or mismatched result")
        if wears != color:
            raise AssertionError(f"step {step}: edge color disagrees between "
                                 f"board and lattice at squares {squares}")
        cur = nxt
    if cur != sol.target:
        raise AssertionError("replay did not reach the target")
