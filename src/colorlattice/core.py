"""The solve kernel: integer-tuple lattices given by rules, and their walks.

Every solve reads only what is defined here:

* :class:`TupleLattice` — a distributive lattice of integer tuples given by
  its least members instead of a diagram, which builds optimal walks
  without enumerating its vertices and reads its two rules through one
  table, so that no rule is evaluated twice;
* :class:`PathCertificate` — a replayable walk in a lattice;
* :func:`render_vertex` — the text form of a vertex payload;
* the error classes every module raises.

The explicit oracle (colored digraphs, vertex-colored posets, the
materialized :class:`~colorlattice.explicit.DiamondLattice` and the family
diagram builders) lives in :mod:`colorlattice.explicit`, which no solve
imports.

All values are immutable after construction, but for the table a
`TupleLattice` fills as it first reads each rule; every function here is
pure.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from operator import le

__all__ = [
    "NotRankedError",
    "UnreachableError",
    "LatticeError",
    "NotIsomorphicError",
    "CapExceededError",
    "PathCertificate",
    "TupleLattice",
    "render_vertex",
]


class NotRankedError(ValueError):
    """The digraph admits no rank function raising every edge by exactly 1."""


class UnreachableError(ValueError):
    """Two vertices lie in different weak components."""


class LatticeError(ValueError):
    """A structure that was promised to be a lattice is not one."""


class NotIsomorphicError(Exception):
    """The two colored digraphs admit no color-preserving isomorphism."""


class CapExceededError(RuntimeError):
    """An enumeration or closure grew past its configured size cap."""


def _int_sizes(**sizes) -> None:
    """Refuse with ValueError any size that is not an int, a bool included."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


def render_vertex(v) -> str:
    """Compact, stable text form of a vertex payload (used by DOT and the CLI)."""
    if isinstance(v, (set, frozenset)):
        from .explicit import canonical_key    # only ideal lattices hold sets
        inner = ",".join(render_vertex(x) for x in sorted(v, key=canonical_key))
        return "{" + inner + "}"
    if isinstance(v, tuple):
        return ",".join(render_vertex(x) for x in v)
    return str(v)


class PathCertificate:
    """A replayable walk in a lattice diagram.

    ``steps`` is a tuple of (color, direction) pairs, direction +1 when the
    step follows a diagram edge upward and -1 when it traverses one downward.
    ``orientation`` is "mountain" (rise then fall, apex = join of the ends),
    "valley" (fall then rise, nadir = meet), or "mixed" for a geodesic that
    is neither; ``turning_point`` holds the apex or nadir when applicable.
    """

    __slots__ = ("vertices", "orientation", "turning_point", "steps")

    def __init__(self, vertices, orientation, turning_point, steps):
        self.vertices = tuple(vertices)
        self.orientation = orientation
        self.turning_point = turning_point
        self.steps = tuple(steps)
        if orientation not in ("mountain", "valley", "mixed"):
            raise ValueError(f"bad orientation {orientation!r}")
        if len(self.steps) != len(self.vertices) - 1:
            raise ValueError("step count does not match vertex count")

    @property
    def distance(self) -> int:
        return len(self.steps)

    def color_multiset(self) -> Counter:
        return Counter(c for (c, _) in self.steps)

    def validate(self, lat: DiamondLattice) -> None:
        """Check every step is a diagram edge and the profile matches the
        declared orientation, and that a "mixed" walk is as long as the
        rank-formula distance between its ends; raises LatticeError on any
        defect."""
        g = lat.diagram
        for i in range(len(self.steps)):
            u, v = self.vertices[i], self.vertices[i + 1]
            color, direction = self.steps[i]
            if direction == +1:
                c = g.edge_color(u, v)
            else:
                c = g.edge_color(v, u)
            if c is None or c != color:
                raise LatticeError(
                    f"step {i}: {render_vertex(u)} to {render_vertex(v)} "
                    f"is not a color-{color} edge")
        ranks = [lat.rank[v] for v in self.vertices]
        if self.orientation == "mountain":
            peak = max(ranks)
            k = ranks.index(peak)
            if ranks[:k + 1] != sorted(ranks[:k + 1]) or \
               ranks[k:] != sorted(ranks[k:], reverse=True):
                raise LatticeError("mountain certificate does not rise then fall")
            if self.vertices[k] != self.turning_point:
                raise LatticeError("apex is not the declared turning point")
            if self.turning_point != lat.join(self.vertices[0], self.vertices[-1]):
                raise LatticeError("apex differs from the join of the endpoints")
        elif self.orientation == "valley":
            low = min(ranks)
            k = ranks.index(low)
            if ranks[:k + 1] != sorted(ranks[:k + 1], reverse=True) or \
               ranks[k:] != sorted(ranks[k:]):
                raise LatticeError("valley certificate does not fall then rise")
            if self.vertices[k] != self.turning_point:
                raise LatticeError("nadir is not the declared turning point")
            if self.turning_point != lat.meet(self.vertices[0], self.vertices[-1]):
                raise LatticeError("nadir differs from the meet of the endpoints")
        else:
            a, b = self.vertices[0], self.vertices[-1]
            d = 2 * lat.rank[lat.join(a, b)] - lat.rank[a] - lat.rank[b]
            if self.distance != d:
                raise LatticeError(
                    f"mixed certificate has {self.distance} steps, distance is {d}")

    def serialize(self) -> str:
        """Line-oriented text form: a header, then one step per line."""
        head = f"distance={self.distance} orientation={self.orientation}"
        if self.turning_point is not None:
            word = "apex" if self.orientation == "mountain" else "nadir"
            head += f" {word}={render_vertex(self.turning_point)}"
        lines = [head]
        for i, (color, direction) in enumerate(self.steps):
            u = render_vertex(self.vertices[i])
            v = render_vertex(self.vertices[i + 1])
            arrow = f"--{color}-->" if direction == +1 else f"<--{color}--"
            lines.append(f"{u} {arrow} {v}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"PathCertificate({self.orientation}, distance {self.distance}, "
                f"{render_vertex(self.vertices[0])} to {render_vertex(self.vertices[-1])})")


class TupleLattice:
    """A distributive lattice of integer tuples, given by rules, not enumerated.

    The members are tuples x with 0 <= x_q <= top_q: the zero tuple is the
    minimum and ``top`` the maximum.  Covers raise one coordinate by 1,
    join and meet are component-wise max and min, and the raise of
    coordinate q (1-based) onto the value v wears color ``color(q, v)``.
    A family supplies two rules:

    * ``color(q, v)``: the edge color;
    * ``least(q, v)``: for 1 <= v <= top_q, the least member whose
      coordinate q is >= v.

    The least members decide membership (Birkhoff: a distributive lattice
    is fixed by its join irreducibles).  A tuple x with 0 <= x <= top is a
    member exactly when it lies part-wise above least(q, x_q) for each q
    with x_q > 0.  :meth:`certify` checks three claims on ``least``: (a)
    least(q, v) is a member with part q equal to v, (b) least(q, v) lies
    part-wise below least(q, v+1), and (c) no two are equal.  The rest follows.

    * The members are closed under max and min.  Let z be the max or the
      min of members x and y, and say z_q = x_q > 0.  For the max, z lies above
      x, so above least(q, z_q).  For the min, y_q >= x_q, so y lies above
      least(q, y_q) and by (b) above least(q, x_q), as x does; so does z.
    * least(q, v) is the least member with part q >= v: it is one by (a),
      and a member x with x_q >= v lies above least(q, x_q), so by (b)
      above least(q, v).  Each least(q, top_q) is a member, so lies below
      ``top``, and ``top`` is the maximum member.
    * The members with x_q >= v therefore form the interval
      [least(q, v), top], so least(q, v) is the join irreducible that every
      edge raising coordinate q onto v adds.  The irreducibles below x are
      the pairs (q, v) with 0 < v <= x_q: the rank is the coordinate sum,
      and color counts are tallies over coordinate gaps.
    * Each nonzero member x has a member lower cover, so a climb from the
      zero tuple meets every member: a raise x + e_q of a member is one
      exactly when it lies in the box and above least(q, x_q + 1).  Take
      least(q, x_q) maximal among the irreducibles below x: the join of the
      others is x - e_q, as a larger part q would put one above it, by (c).
    * A member x with x_q > 0 may lower coordinate q (x - e_q is a member)
      exactly when no other coordinate's current least member,
      least(r, x_r) with r != q and x_r > 0, has part q >= x_q.  Coordinate
      q itself passes: if x_q > 1, least(q, x_q - 1) lies below
      least(q, x_q), so below x, and its part q is x_q - 1.  Every other r passes exactly when
      least(r, x_r), which lies below x, has part q below x_q.  On a fall
      to a member goal below x, a coordinate r already at goal never
      blocks one above it: least(r, goal_r) lies below goal, so its part q
      is at most goal_q < x_q.

    Geodesics break ties as :func:`~colorlattice.paths.shortest_path` does
    on the explicit lattice, whose irreducibles sort as tuples: a climb adds
    the least missing irreducible at each step, and a fall removes the least
    one that can go.  Each leg sorts once.  By (a) and (b) each
    coordinate's irreducibles increase strictly in tuple order, so the least
    of the coordinates' next ones is the least of all that are left: a
    climb adds every missing irreducible in one sorted pass.  An irreducible
    below another sorts before it, so the least missing one is minimal
    among the missing ones and each raise lands on a member untested.  A
    fall keeps the current least members (least(q, x_q), q) of the
    coordinates above goal sorted, lowers the first that no other one
    blocks, and re-inserts only the one that changed.  A blocker of
    least(q, x_q) is a member with part q >= x_q, so it lies above
    least(q, x_q) and sorts after it: the test looks from the end.

    Every read of a rule goes through one table per lattice, so no rule is
    evaluated twice.  Its least members, least(q, v) at
    ``[q - 1][v - 1]``, are filled cell by cell on their first read, so a
    short walk pays only for the cells it reads; its colors are filled
    whole on the first read of any, which costs one rule call per
    irreducible.  `member`, the geodesic legs and `color_counts` read it,
    `certify` fills and returns it, and ``explicit.tuple_lattice`` climbs
    over it.
    """

    __slots__ = ("top", "color", "least", "_least_rows", "_color_rows", "_colors")

    def __init__(self, top, color, least):
        self.top = tuple(top)
        self.color = color
        self.least = least
        self._least_rows = [[None] * hi for hi in self.top]
        self._color_rows = None
        self._colors = None

    def __repr__(self):
        return f"TupleLattice(top {render_vertex(self.top)})"

    def _least_of(self, q, v):
        """least(q, v) from the table, read off the rule on its first read."""
        row = self._least_rows[q - 1]
        x = row[v - 1]
        if x is None:
            x = row[v - 1] = self.least(q, v)
        return x

    def _color_table(self):
        """The colors, color(q, v) at ``[q - 1][v - 1]``, found on the first
        call and kept: the rules never change."""
        if self._color_rows is None:
            self._color_rows = [[self.color(q, v) for v in range(1, hi + 1)]
                                for q, hi in enumerate(self.top, 1)]
        return self._color_rows

    def certify(self) -> list:
        """Check claims (a)-(c) on the least members; LatticeError if one fails.

        Returns the lattice's own table of least members, least(q, v) at
        ``[q - 1][v - 1]``, with every cell filled, which the checks read
        too.  Callers read it and do not change it.
        """
        seen = {}
        for q, hi in enumerate(self.top, 1):
            below = ()
            for v in range(1, hi + 1):
                x = self._least_of(q, v)
                if not self.member(x):
                    why = "is not a member"
                elif x[q - 1] != v:
                    why = f"has part {q} equal to {x[q - 1]}, not {v}"
                elif not all(map(le, below, x)):
                    why = f"does not lie above least({q}, {v - 1}) = {render_vertex(below)}"
                elif x in seen:
                    why = f"repeats least{seen[x]}"
                else:
                    seen[x], below = (q, v), x
                    continue
                raise LatticeError(f"least({q}, {v}) = {render_vertex(x)} {why}")
        return self._least_rows

    def member(self, x) -> bool:
        """Whether ``x`` lies in the box and above least(q, x_q) wherever x_q > 0."""
        return (len(x) == len(self.top)
                and all(0 <= a <= b for a, b in zip(x, self.top))
                and all(all(map(le, self._least_of(q, v), x))
                        for q, v in enumerate(x, 1) if v))

    def rank(self, x) -> int:
        return sum(x)

    def join(self, s, t):
        return tuple(map(max, s, t))

    def meet(self, s, t):
        return tuple(map(min, s, t))

    def _lengths(self, *xs):
        if any(len(x) != len(self.top) for x in xs):   # zip would drop a trailing part
            raise ValueError(f"tuples of {len(self.top)} parts expected, got {xs}")

    def distance(self, s, t) -> int:
        """The rank formula through the join, 2*rank(s v t) - rank(s) - rank(t).

        The form through the meet is the same number: part by part
        max + min = s + t, so rank(s v t) + rank(s ^ t) = rank(s) + rank(t).
        """
        self._lengths(s, t)
        return 2 * self.rank(self.join(s, t)) - self.rank(s) - self.rank(t)

    def colors(self):
        """Every edge color, sorted: a new list each call."""
        return list(self._sorted_colors())

    def _sorted_colors(self):
        """The sorted edge colors as a tuple, found on the first call and kept."""
        if self._colors is None:
            self._colors = tuple(sorted({c for row in self._color_table() for c in row}))
        return self._colors

    def color_counts(self, s, t) -> dict:
        """Per-color step counts of every geodesic from s to t, for every color.

        Counted over the gaps from s and t up to their join: the colors of
        the irreducibles (q, v) with min(s_q, t_q) < v <= max(s_q, t_q).
        Per coordinate max(a, b) - a = b - min(a, b), so the gaps down to
        the meet hold the same irreducibles, and one tally serves both.
        A gap outside the box, where no member lies, reads the rule.
        """
        self._lengths(s, t)
        gaps = []
        for q, (row, a, b) in enumerate(zip(self._color_table(), s, t), 1):
            lo, hi = (a, b) if a < b else (b, a)
            if 0 <= lo and hi <= len(row):
                gaps += row[lo:hi]
            else:
                gaps += [self.color(q, v) for v in range(lo + 1, hi + 1)]
        steps = Counter(gaps)
        return {c: steps[c] for c in self._sorted_colors()}

    def geodesic(self, s, t, via: str = "join") -> PathCertificate:
        """An optimal mountain (via="join") or valley (via="meet") certificate.

        As long as `distance` by construction: a climb from x to goal takes
        sum(goal - x) steps and a fall sum(x - goal) or raises LatticeError.
        """
        if via not in ("join", "meet"):
            raise ValueError("via must be 'join' or 'meet'")
        for x in (s, t):
            if not self.member(x):
                raise LatticeError(f"{x!r} is not a member of the lattice")
        vertices, steps = [s], []
        if via == "join":
            turn = self.join(s, t)
            self._ascend(turn, vertices, steps)
            self._descend(t, vertices, steps)
        else:
            turn = self.meet(s, t)
            self._descend(turn, vertices, steps)
            self._ascend(t, vertices, steps)
        return PathCertificate(vertices, "mountain" if via == "join" else "valley",
                               turn, steps)

    def _ascend(self, goal, vertices, steps):
        """Climb from the last vertex to ``goal`` (see the class docstring)."""
        x = list(vertices[-1])
        least, colors = self._least_of, self._color_table()
        missing = sorted((least(q, v), q - 1) for q, (a, b) in enumerate(zip(x, goal), 1)
                         for v in range(a + 1, b + 1))
        for _, q in missing:
            x[q] += 1
            vertices.append(tuple(x))
            steps.append((colors[q][x[q] - 1], +1))

    def _descend(self, goal, vertices, steps):
        """Fall from the last vertex to ``goal`` (see the class docstring)."""
        x = list(vertices[-1])
        least, colors = self._least_of, self._color_table()
        tops = sorted((least(q, a), q - 1)
                      for q, (a, b) in enumerate(zip(x, goal), 1) if a > b)
        while tops:
            for i, (_, q) in enumerate(tops):
                v = x[q]
                if not any(lo[q] >= v for lo, r in reversed(tops) if r != q):
                    break
            else:
                raise LatticeError(f"no lower cover of {render_vertex(tuple(x))} "
                                   f"leads to {render_vertex(tuple(goal))}")
            del tops[i]
            x[q] -= 1
            if x[q] > goal[q]:
                insort(tops, (least(q + 1, x[q]), q))
            vertices.append(tuple(x))
            steps.append((colors[q][x[q]], -1))
