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
diagram of a distributive lattice of bounded weakly decreasing tuples -
but the identification of the two graphs is not written down anywhere as
a formula.  No tuple has two up-covers of one color, so once the bottom
tiling is placed the colors force every other vertex: this module walks
out from there and verifies the result edge by edge.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import (CapExceededError, ColoredDigraph, DiamondLattice,
                   attach_birkhoff_coords, tuple_lattice)
from .dominoes import (_cells, _shape, enumerate_box_partitions,
                       is_box_partition)
from .paths import color_counts, shortest_path

__all__ = [
    "NotIsomorphicError",
    "catalan_tuples",
    "c_lattice",
    "is_tiling",
    "enumerate_tilings",
    "all_snakes",
    "legal_snake_moves",
    "ming_digraph",
    "snake_moves_table",
    "find_isomorphism",
    "verify_isomorphism",
    "cached_isomorphism",
    "render_tiling",
    "SnakeSolution",
    "solve_snakes",
    "replay_snakes",
]


class NotIsomorphicError(Exception):
    """The two colored digraphs admit no color-preserving isomorphism."""


# --------------------------------------------------------------------------
# the lattice side

def catalan_tuples(n: int):
    """Weakly decreasing n-tuples with 0 <= s_i <= n+1-i, sorted."""
    return [s for s in enumerate_box_partitions(n, n)
            if all(v <= n - i for i, v in enumerate(s))]


@lru_cache(maxsize=None)
def c_lattice(n: int) -> DiamondLattice:
    """The distributive lattice of staircase-bounded tuples.

    Component-wise order; a cover raises coordinate q by one, onto the new
    value t_q, and wears color n + q - t_q.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return attach_birkhoff_coords(
        tuple_lattice(catalan_tuples(n), lambda q, t: n + q - t))


# --------------------------------------------------------------------------
# tilings

def is_tiling(rows, n: int) -> bool:
    """Upper-left-closed tiling of the n x n board obeying the diagonal rule.

    ``rows`` is the n-tuple of row lengths.  The diagonal rule: for each i
    with rows_i >= i (square (i,i) tiled), the i-th column height must not
    exceed rows_i.
    """
    rows = tuple(rows)
    if not is_box_partition(rows, n, n):
        return False
    for i in range(1, n + 1):
        if rows[i - 1] >= i:
            col = sum(1 for p in rows if p >= i)
            if col > rows[i - 1]:
                return False
    return True


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

@lru_cache(maxsize=None)
def all_snakes(n: int):
    """Every centered southwesterly snake on the n x n board.

    A snake of length m steps South or West and its floor((m+1)/2)-th
    square lies on the main diagonal; snakes are generated outward from
    that diagonal square (North/East for the head, South/West for the
    tail), so each is produced exactly once.
    """
    snakes = []
    for m in range(1, 2 * n):
        p = (m + 1) // 2
        for d in range(1, n + 1):
            heads = [[(d, d)]]
            for _ in range(p - 1):
                grown = []
                for walk in heads:
                    i, j = walk[-1]
                    for (ni, nj) in ((i - 1, j), (i, j + 1)):
                        if 1 <= ni <= n and 1 <= nj <= n:
                            grown.append(walk + [(ni, nj)])
                heads = grown
            tails = [[]]
            for _ in range(m - p):
                grown = []
                for walk in tails:
                    i, j = walk[-1] if walk else (d, d)
                    for (ni, nj) in ((i + 1, j), (i, j - 1)):
                        if 1 <= ni <= n and 1 <= nj <= n:
                            grown.append(walk + [(ni, nj)])
                tails = grown
            for head in heads:
                for tail in tails:
                    snakes.append(tuple(reversed(head)) + tuple(tail))
    return tuple(snakes)


def _is_snake(snake, n: int) -> bool:
    """Whether ``snake`` is a centered southwesterly snake on the n x n board.

    That is: a tuple of 1 to 2n-1 board squares, each a South or West step
    from the one before, whose floor((m+1)/2)-th square is on the main
    diagonal.  Accepts exactly the members of ``all_snakes(n)``.
    """
    if not isinstance(snake, tuple) or not 1 <= len(snake) <= 2 * n - 1:
        return False
    for sq in snake:
        if not (isinstance(sq, tuple) and len(sq) == 2
                and all(type(x) is int and 1 <= x <= n for x in sq)):
            return False
    for (a, b), (c, d) in zip(snake, snake[1:]):
        if (c - a, d - b) not in ((1, 0), (0, -1)):
            return False
    i, j = snake[(len(snake) + 1) // 2 - 1]
    return i == j


def _diagonal_ends(rows, n):
    """Per content c = j - i, the last tiled and the first bare square.

    Tiled squares fill a prefix of each diagonal of the board, so these are
    the squares of the inner and the outer rim; either is None where the
    diagonal holds no such square.
    """
    inner, outer = {}, {}
    for c in range(1 - n, n):
        first, last = max(1, 1 - c), min(n, n - c)
        i = first
        while i <= last and rows[i - 1] >= i + c:
            i += 1
        inner[c] = (i - 1, i - 1 + c) if i > first else None
        outer[c] = (i, i + c) if i <= last else None
    return inner, outer


def legal_snake_moves(n: int, rows):
    """All legal moves at a tiling: (snake, "add"|"remove", resulting tiling).

    Additions lay tiles on a fully untiled snake, removals clear a fully
    tiled one; either is legal only when the result is again a tiling.
    Whatever a legal move adds or removes is a border strip (rim hook) of
    the larger of the two shapes, so only segments of the inner rim
    (removals) and of the outer rim inside the board (additions) are tried:
    one of each per snake length, on the contents the centering fixes.
    Deterministically ordered.
    """
    rows = tuple(rows)
    if not is_tiling(rows, n):
        raise ValueError(f"not a tiling of the {n} x {n} board: {rows}")
    tiled = _cells(rows)
    inner, outer = _diagonal_ends(rows, n)
    moves = []
    for m in range(1, 2 * n):
        # a snake's squares step down in content one at a time, and the
        # centering puts content 0 on its floor((m+1)/2)-th square
        p = (m + 1) // 2
        contents = range(p - 1, p - m - 1, -1)
        for rim, verb in ((inner, "remove"), (outer, "add")):
            snake = tuple(rim[c] for c in contents)
            if not _is_snake(snake, n):
                continue
            sq = set(snake)
            result = _shape(tiled - sq if verb == "remove" else tiled | sq, n)
            if result is not None and is_tiling(result, n):
                moves.append((snake, verb, result))
    moves.sort(key=lambda mv: (len(mv[0]), mv[0], mv[1]))
    return moves


@lru_cache(maxsize=None)
def _ming_digraph_and_moves(n: int):
    verts = enumerate_tilings(n)
    edges = []
    table = {}
    for rows in verts:
        for snake, verb, result in legal_snake_moves(n, rows):
            m = len(snake)
            # orientation rule: even-length additions and odd-length
            # removals point forward; their mirrors are the same moves
            # seen from the other endpoint
            if (verb == "add") == (m % 2 == 0):
                edges.append((rows, result, m))
                table[(rows, result)] = (snake, verb)
    return ColoredDigraph(verts, edges), table


def ming_digraph(n: int) -> ColoredDigraph:
    """The directed snake-move graph on all tilings of the n x n board."""
    if n < 1:
        raise ValueError("n must be positive")
    return _ming_digraph_and_moves(n)[0]


def snake_moves_table(n: int) -> dict:
    """Map (source, result) -> (snake, verb) for every edge of ming_digraph."""
    return _ming_digraph_and_moves(n)[1]


# --------------------------------------------------------------------------
# the correspondence

def find_isomorphism(A: ColoredDigraph, B: ColoredDigraph):
    """A color- and direction-preserving vertex bijection A -> B, by a walk.

    A's unique source goes to B's unique source; every out-edge of a placed
    vertex then places its target on the out-neighbour of the image that has
    the same color.  When no vertex of A has two out-edges of one color, the
    colors force every step, so the walk finds the only isomorphism there is
    or none; the result is checked edge by edge before it is returned.
    Raises NotIsomorphicError when B does not match, and ValueError when A
    is outside the walk's domain: no single source, two out-edges of one
    color at a vertex, or a vertex the walk never reaches.
    """
    if len(A.vertices) != len(B.vertices) or len(A.edges) != len(B.edges):
        raise NotIsomorphicError("vertex or edge counts differ")
    sources_a, sources_b = A.sources(), B.sources()
    if len(sources_a) != 1:
        raise ValueError("the walk needs a digraph with a single source")
    if len(sources_b) != 1:
        raise NotIsomorphicError("the target has no single source")
    fwd = {sources_a[0]: sources_b[0]}
    walk = [sources_a[0]]
    for v in walk:
        outs = A.out_edges(v)
        if len({c for (_, c) in outs}) != len(outs):
            raise ValueError(f"{v!r} has two out-edges of one color")
        image_of = {c: w for (w, c) in B.out_edges(fwd[v])}
        for (u, c) in outs:
            if c not in image_of:
                raise NotIsomorphicError(
                    f"{fwd[v]!r} has no out-edge of color {c}")
            if u not in fwd:
                fwd[u] = image_of[c]
                walk.append(u)
            elif fwd[u] != image_of[c]:
                raise NotIsomorphicError(f"{u!r} would get two images")
    if len(fwd) != len(A.vertices):
        raise ValueError("the walk does not reach every vertex")
    verify_isomorphism(A, B, fwd)
    return fwd


def verify_isomorphism(A: ColoredDigraph, B: ColoredDigraph, mapping) -> None:
    """Check a claimed isomorphism completely; raise NotIsomorphicError if bad."""
    values = list(mapping.values())
    if set(mapping) != set(A.vertices) or set(values) != set(B.vertices) \
            or len(set(values)) != len(values):
        raise NotIsomorphicError("mapping is not a vertex bijection")
    if len(A.edges) != len(B.edges):
        raise NotIsomorphicError("edge counts differ")
    for (u, v, c) in A.edges:
        if B.edge_color(mapping[u], mapping[v]) != c:
            raise NotIsomorphicError(
                f"edge {u} -> {v} (color {c}) is not preserved")


# The largest boards, in tilings, whose move graph and tuple lattice are
# built; the cap bounds the cost of those builds, not of the walk.
_TILINGS_CAP = 2000


@lru_cache(maxsize=None)
def cached_isomorphism(n: int) -> dict:
    """The lattice-to-tilings correspondence, found by the color walk.

    Every color class of the join-irreducible poset of ``c_lattice(n)`` is a
    chain (checked for n <= 8), so no tuple has two up-covers of one color:
    ``find_isomorphism`` applies, and the correspondence it returns is the
    only one.  Boards whose Catalan number of tilings exceeds the cap raise
    CapExceededError before either graph is built.
    """
    size = comb(2 * n + 2, n + 1) // (n + 2)
    if size > _TILINGS_CAP:
        raise CapExceededError(
            f"snake boards capped at {_TILINGS_CAP} tilings; "
            f"the {n} x {n} board has {size} tilings")
    return find_isomorphism(c_lattice(n).diagram, ming_digraph(n))


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

    Endpoints are pulled back through the (walked) correspondence into
    the tuple lattice, a mountain or valley geodesic is built there, and
    each step is pushed forward again as a snake addition or removal.
    """
    s, t = tuple(s), tuple(t)
    for rows in (s, t):
        if not is_tiling(rows, n):
            raise ValueError(f"not a tiling of the {n} x {n} board: {rows}")
    iso = cached_isomorphism(n)
    inv = {rows: v for v, rows in iso.items()}
    lat = c_lattice(n)
    cert = shortest_path(lat, inv[s], inv[t], via=via)
    states = [iso[v] for v in cert.vertices]
    table = snake_moves_table(n)
    actions = []
    for (a, b), (color, direction) in zip(zip(states, states[1:]), cert.steps):
        # the correspondence keeps edge directions: a step down the lattice
        # is a move graph edge played backwards
        move = table.get((a, b) if direction == +1 else (b, a))
        if move is None:
            raise AssertionError(f"no snake move joins {a} and {b}")
        snake, verb = move
        if direction == -1:
            verb = "add" if verb == "remove" else "remove"
        if len(snake) != color:
            raise AssertionError("snake length disagrees with the edge color")
        actions.append((verb, snake))
    sol = SnakeSolution(n, states, actions,
                        color_counts(lat, inv[s], inv[t]), cert)
    replay_snakes(sol)
    return sol


def replay_snakes(sol: SnakeSolution) -> None:
    """Re-run a solution under the raw snake rules; raise if any move cheats."""
    n = sol.n
    cur = sol.start
    for step, ((verb, snake), nxt) in enumerate(zip(sol.actions,
                                                    sol.states[1:])):
        if not _is_snake(snake, n):
            raise AssertionError(f"move {step}: not a centered snake: {snake}")
        tiled = _cells(cur)
        sq = set(snake)
        if verb == "remove":
            if not sq <= tiled:
                raise AssertionError(f"move {step}: removing untiled squares")
            after = tiled - sq
        else:
            if sq & tiled:
                raise AssertionError(f"move {step}: tiling occupied squares")
            after = tiled | sq
        shape = _shape(after, n)
        if shape is None or not is_tiling(shape, n) or shape != nxt:
            raise AssertionError(f"move {step}: illegal or mismatched result")
        cur = nxt
    if cur != sol.target:
        raise AssertionError("replay did not reach the target tiling")
