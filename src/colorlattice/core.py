"""Edge-colored digraphs, vertex-colored posets, and their order-ideal lattices.

Everything downstream (puzzle solvers, weight machinery, the concrete lattice
families) is built on three carriers defined here:

* :class:`ColoredDigraph` — a finite simple directed graph whose edges carry
  positive integer colors.  Order diagrams of all lattice families are stored
  in this form.
* :class:`VertexColoredPoset` — a finite poset given by its covering pairs,
  with a color attached to every element.
* :class:`DiamondLattice` — a ranked lattice wrapped around a colored order
  diagram, optionally equipped with order-ideal coordinates so that joins,
  meets and explicit geodesics can be computed set-theoretically.

Two more live beside them: :class:`PathCertificate`, a replayable walk in a
lattice, and :class:`TupleLattice`, a lattice of integer tuples given by
its least members instead of a diagram, which builds such walks without
enumerating its vertices.

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import copy
from bisect import insort
from collections import Counter, deque
from operator import le

__all__ = [
    "NotRankedError",
    "UnreachableError",
    "LatticeError",
    "NotIsomorphicError",
    "CapExceededError",
    "ColoredDigraph",
    "VertexColoredPoset",
    "DiamondLattice",
    "PathCertificate",
    "TupleLattice",
    "canonical_key",
    "render_vertex",
    "rank_function",
    "is_diamond_colored",
    "is_topographically_balanced",
    "bfs_distance",
    "ideals_lattice",
    "tuple_lattice",
    "join_irreducibles",
    "attach_birkhoff_coords",
    "to_dot",
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


def canonical_key(v):
    """Total order on vertex payloads, used for every deterministic ordering.

    Handles the payload shapes that actually occur — integers, strings,
    tuples, and frozensets (order ideals) — recursively, tagging each value
    with a type marker so mixed payloads sort without raising.
    """
    # tuples and ints first: they are almost every call
    if isinstance(v, tuple):
        return ("tup", tuple(map(canonical_key, v)))
    if isinstance(v, bool):
        return ("int", int(v))
    if isinstance(v, int):
        return ("int", v)
    if isinstance(v, (set, frozenset)):
        return ("set", tuple(sorted(map(canonical_key, v))))
    return (type(v).__name__, str(v))


def render_vertex(v) -> str:
    """Compact, stable text form of a vertex payload (used by DOT and the CLI)."""
    if isinstance(v, (set, frozenset)):
        inner = ",".join(render_vertex(x) for x in sorted(v, key=canonical_key))
        return "{" + inner + "}"
    if isinstance(v, tuple):
        return ",".join(render_vertex(x) for x in v)
    return str(v)


class ColoredDigraph:
    """A finite simple digraph with positive-integer edge colors.

    Vertices are arbitrary hashable payloads (tuples of coordinates,
    frozensets of poset elements, ...).  Vertex and edge sequences are kept
    sorted under :func:`canonical_key`, so two structurally equal graphs
    compare equal and print identically.
    """

    __slots__ = ("_vertices", "_edges", "_out", "_in")

    def __init__(self, vertices, edges):
        vs = sorted(vertices, key=canonical_key)
        index = {v: i for i, v in enumerate(vs)}
        if len(index) != len(vs):
            raise ValueError("duplicate vertices")
        out = {v: [] for v in vs}
        inc = {v: [] for v in vs}
        seen_pairs = set()
        es = []
        for (u, v, c) in edges:
            if u not in index or v not in index:
                raise ValueError(f"edge endpoint not a vertex: {(u, v)}")
            if u == v:
                raise ValueError(f"loop at {u!r}")
            if (u, v) in seen_pairs:
                raise ValueError(f"parallel edge {u!r} -> {v!r}")
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"edge color must be a positive integer, got {c!r}")
            seen_pairs.add((u, v))
            es.append((u, v, c))
        # the vertex order is canonical, so positions in it order the edges
        es.sort(key=lambda e: (index[e[0]], index[e[1]]))
        for (u, v, c) in es:
            out[u].append((v, c))
            inc[v].append((u, c))
        self._vertices = tuple(vs)
        self._edges = tuple(es)
        self._out = {v: tuple(nbrs) for v, nbrs in out.items()}
        self._in = {v: tuple(nbrs) for v, nbrs in inc.items()}

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        return self._edges

    def __len__(self):
        return len(self._vertices)

    def __contains__(self, v):
        return v in self._out

    def __eq__(self, other):
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self._vertices, self._edges))

    def __repr__(self):
        return f"ColoredDigraph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    def out_edges(self, v):
        """Pairs (target, color) of edges leaving ``v``."""
        return self._out[v]

    def in_edges(self, v):
        """Pairs (source, color) of edges entering ``v``."""
        return self._in[v]

    def edge_color(self, u, v):
        """Color of the edge u -> v, or None if absent."""
        for (w, c) in self._out[u]:
            if w == v:
                return c
        return None

    def colors(self):
        return sorted({c for (_, _, c) in self._edges})

    def sources(self):
        return [v for v in self._vertices if not self._in[v]]

    def sinks(self):
        return [v for v in self._vertices if not self._out[v]]

    def undirected_neighbors(self, v):
        """Neighbors along edges in either direction, with (neighbor, color, direction)."""
        res = [(w, c, +1) for (w, c) in self._out[v]]
        res += [(w, c, -1) for (w, c) in self._in[v]]
        return res

    def weak_components(self):
        """Vertex sets of the weak components, in order of their first vertex."""
        comps, seen = [], set()
        for root in self._vertices:
            if root in seen:
                continue
            comp, stack = {root}, [root]
            while stack:
                for (w, _, _) in self.undirected_neighbors(stack.pop()):
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def color_subgraph(self, color) -> "ColoredDigraph":
        """Subgraph on all vertices keeping only edges of the given color."""
        # filtering keeps the canonical orders, so nothing is sorted again
        sub = object.__new__(ColoredDigraph)
        sub._vertices = self._vertices
        sub._edges = tuple(e for e in self._edges if e[2] == color)
        sub._out = {v: tuple(p for p in nbrs if p[1] == color)
                    for v, nbrs in self._out.items()}
        sub._in = {v: tuple(p for p in nbrs if p[1] == color)
                   for v, nbrs in self._in.items()}
        return sub


def rank_function(g: ColoredDigraph) -> dict:
    """Longest-path layering of an acyclic digraph.

    Sources sit at rank 0, so every weak component is ranked from its own
    sources; afterwards every edge is checked to raise rank by exactly one.
    Raises :class:`NotRankedError` when the check fails (e.g. on an N-shaped
    diagram with chains of different lengths meeting), and ValueError on
    cyclic input.
    """
    indeg = {v: len(g.in_edges(v)) for v in g.vertices}
    queue = deque(v for v in g.vertices if indeg[v] == 0)
    rank = {v: 0 for v in queue}
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for (w, _) in g.out_edges(v):
            rank[w] = max(rank.get(w, 0), rank[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != len(g):
        raise ValueError("digraph contains a directed cycle")
    for (u, v, _) in g.edges:
        if rank[v] != rank[u] + 1:
            raise NotRankedError(
                f"edge {u!r} -> {v!r} spans ranks {rank[u]} -> {rank[v]}"
            )
    return rank


def is_diamond_colored(g: ColoredDigraph) -> bool:
    """Whether opposite edges of every cover-diamond agree in color.

    A diamond is a configuration v -> s, v -> t, s -> u, t -> u with s != t;
    the condition asks color(v->s) == color(t->u) and color(v->t) == color(s->u).
    """
    for v in g.vertices:
        outs = g.out_edges(v)
        for a in range(len(outs)):
            s, ks = outs[a]
            for b in range(len(outs)):
                if a == b:
                    continue
                t, kt = outs[b]
                for (u, cs) in g.out_edges(s):
                    ct = g.edge_color(t, u)
                    if ct is None:
                        continue
                    # opposite side of v->t is s->u; opposite of v->s is t->u
                    if cs != kt or ct != ks:
                        return False
    return True


def is_topographically_balanced(g: ColoredDigraph) -> bool:
    """Both diamond-completion conditions, each with a unique completion.

    Upward: whenever s and t both cover v, exactly one u covers both s and t.
    Downward: whenever u covers both s and t, exactly one v is covered by both.
    """
    for v in g.vertices:
        ups = [w for (w, _) in g.out_edges(v)]
        for a in range(len(ups)):
            for b in range(a + 1, len(ups)):
                s, t = ups[a], ups[b]
                common = {w for (w, _) in g.out_edges(s)} & {
                    w for (w, _) in g.out_edges(t)
                }
                if len(common) != 1:
                    return False
    for u in g.vertices:
        downs = [w for (w, _) in g.in_edges(u)]
        for a in range(len(downs)):
            for b in range(a + 1, len(downs)):
                s, t = downs[a], downs[b]
                common = {w for (w, _) in g.in_edges(s)} & {
                    w for (w, _) in g.in_edges(t)
                }
                if len(common) != 1:
                    return False
    return True


def bfs_distance(g: ColoredDigraph, s, t) -> int:
    """Shortest path length between s and t ignoring edge direction.

    This is the independent oracle against which the rank-formula distances
    are checked; it never consults ranks, joins or meets.
    """
    if s not in g or t not in g:
        raise ValueError("endpoint is not a vertex")
    if s == t:
        return 0
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for (w, _, _) in g.undirected_neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                if w == t:
                    return dist[w]
                queue.append(w)
    raise UnreachableError(f"{t!r} is not reachable from {s!r}")


class VertexColoredPoset:
    """A finite poset presented by its order diagram, with colored elements.

    ``covers`` are (lower, upper) pairs; they must be acyclic and transitively
    reduced (no cover pair may also be joined by a longer chain).
    """

    __slots__ = ("_elements", "_covers", "_color", "_index", "_up", "_down")

    def __init__(self, elements, covers, color):
        els = sorted(elements, key=canonical_key)
        index = {e: i for i, e in enumerate(els)}
        if len(index) != len(els):
            raise ValueError("duplicate elements")
        covs = set((a, b) for (a, b) in covers)
        upcov = [[] for _ in els]
        indeg = [0] * len(els)
        for (a, b) in covs:
            if a not in index or b not in index:
                raise ValueError(f"cover endpoint not an element: {(a, b)}")
            if a == b:
                raise ValueError("reflexive cover")
            upcov[index[a]].append(index[b])
            indeg[index[b]] += 1
        col = {}
        for e in els:
            if e not in color:
                raise ValueError(f"element {e!r} has no color")
            c = color[e]
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"color of {e!r} must be a positive integer")
            col[e] = c
        # strict up- and down-sets as bitmasks over positions, one pass each
        # way along a topological order (no recursion, so long chains build)
        order = [i for i in range(len(els)) if not indeg[i]]
        for i in order:
            for j in upcov[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) != len(els):
            raise ValueError("covers contain a cycle")
        up = [0] * len(els)
        for i in reversed(order):
            for j in upcov[i]:
                up[i] |= up[j] | 1 << j
        down = [0] * len(els)
        for i in order:
            for j in upcov[i]:
                down[j] |= down[i] | 1 << i
        # the element order is canonical, so positions in it order the covers
        covs = sorted(covs, key=lambda p: (index[p[0]], index[p[1]]))
        for (a, b) in covs:
            # transitive reduction: b must not be reachable from a in two or more steps
            i, j = index[a], index[b]
            if any(m != j and up[m] >> j & 1 for m in upcov[i]):
                raise ValueError(f"cover {(a, b)} is implied by a longer chain")
        self._elements = tuple(els)
        self._covers = tuple(covs)
        self._color = col
        self._index = index
        self._up = up
        self._down = down

    @property
    def elements(self):
        return self._elements

    @property
    def covers(self):
        return self._covers

    def color(self, e) -> int:
        return self._color[e]

    def __len__(self):
        return len(self._elements)

    def __eq__(self, other):
        if not isinstance(other, VertexColoredPoset):
            return NotImplemented
        return (self._elements == other._elements and self._covers == other._covers
                and self._color == other._color)

    def __repr__(self):
        return f"VertexColoredPoset({len(self._elements)} elements, {len(self._covers)} covers)"

    def strict_downset(self, e):
        m = self._down[self._index[e]]
        return frozenset(f for i, f in enumerate(self._elements) if m >> i & 1)

    def minimal_of(self, subset):
        """The minimal elements of ``subset``, in canonical order."""
        return self._extremes(subset, self._down)

    def maximal_of(self, subset):
        """The maximal elements of ``subset``, in canonical order."""
        return self._extremes(subset, self._up)

    def _extremes(self, subset, beyond):
        # members of subset none of whose strict down- (or up-) set meets it
        sub = 0
        for e in subset:
            sub |= 1 << self._index[e]
        return [e for i, e in enumerate(self._elements)
                if sub >> i & 1 and not beyond[i] & sub]

    def peel(self, subset, maximal=False):
        """The elements of ``subset`` in the order that removes, one at a
        time, its canonical-first minimal (``maximal``: maximal) element.

        Removing an element can free only members of its strict up-set
        (down-set), so each removal tests just those: one pass over the
        subset, where calling :meth:`minimal_of` per element costs O(len(self))
        each time.  The free members are a bitmask over positions, whose
        lowest bit is the canonical-first one.
        """
        beyond, freed = (self._up, self._down) if maximal else (self._down, self._up)
        places = [self._index[e] for e in subset]
        rest = 0
        for i in places:
            rest |= 1 << i
        ready = 0
        for i in places:
            if not beyond[i] & rest:
                ready |= 1 << i
        order = []
        while ready:
            low = ready & -ready
            ready ^= low
            rest ^= low
            i = low.bit_length() - 1
            order.append(self._elements[i])
            near = freed[i] & rest
            while near:
                bit = near & -near
                near ^= bit
                if not beyond[bit.bit_length() - 1] & rest:
                    ready |= bit
        return order

    def ideals(self):
        """All order ideals (downward closed subsets), as frozensets.

        Listed in breadth-first discovery order from the empty ideal;
        ``ideals_lattice`` sorts them once, in its diagram.
        """
        found = [frozenset()]
        seen = set(found)
        for x in found:
            for m in self.minimal_of(set(self._elements) - x):
                y = x | {m}
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        return found


class DiamondLattice:
    """A ranked lattice carried by a colored order diagram.

    The constructor checks that the diagram has a unique minimum and maximum
    and admits a rank function, and stores every up-set and down-set as a
    bitmask.  `check_lattice` additionally certifies, by equality of those
    masks, that `join` and `meet` give every pair of vertices its least upper
    and greatest lower bound.

    ``ideal_coords`` (optional) maps each vertex to a frozenset — its order
    ideal of join irreducibles — and ``poset`` is the vertex-colored poset
    those ideals live in.  When present, joins and meets are set union and
    intersection, and explicit geodesics can be constructed element by
    element.  ``coord_join`` / ``coord_meet`` allow families with tuple
    coordinates (component-wise max/min) to shortcut the order-theoretic
    search as well.
    """

    __slots__ = ("diagram", "rank", "length", "kind", "ideal_coords", "poset",
                 "coord_join", "coord_meet", "_order", "_index", "_upmask",
                 "_downmask", "_by_ideal")

    def __init__(self, diagram: ColoredDigraph, kind: str,
                 ideal_coords=None, poset=None,
                 coord_join=None, coord_meet=None):
        if kind not in ("modular", "distributive"):
            raise ValueError("kind must be 'modular' or 'distributive'")
        if len(diagram) == 0:
            raise LatticeError("empty diagram")
        self.diagram = diagram
        self.kind = kind
        self.rank = rank_function(diagram)
        self.length = max(self.rank.values())
        srcs, snks = diagram.sources(), diagram.sinks()
        if len(srcs) != 1 or len(snks) != 1:
            raise LatticeError(
                f"expected unique min and max, found {len(srcs)} sources, {len(snks)} sinks")
        self.ideal_coords = dict(ideal_coords) if ideal_coords is not None else None
        self.poset = poset
        self.coord_join = coord_join
        self.coord_meet = coord_meet
        if (self.ideal_coords is None) != (poset is None):
            raise ValueError("ideal_coords and poset must be supplied together")
        if self.ideal_coords is not None and kind != "distributive":
            raise ValueError("ideal coordinates require a distributive lattice")
        # Reachability bitmasks, with bits indexed by a linear extension:
        # vertices by rank, equal ranks in canonical order.  The lowest bit
        # of a set of common upper bounds is then one of least rank, and the
        # highest bit of a set of common lower bounds one of greatest rank.
        order = sorted(diagram.vertices, key=self.rank.__getitem__)
        self._order = tuple(order)
        self._index = {v: i for i, v in enumerate(order)}
        n = len(order)
        up = [1 << i for i in range(n)]
        for i in range(n - 1, -1, -1):
            for (w, _) in diagram.out_edges(order[i]):
                up[i] |= up[self._index[w]]
        down = [1 << i for i in range(n)]
        for i in range(n):
            for (w, _) in diagram.in_edges(order[i]):
                down[i] |= down[self._index[w]]
        self._upmask = up
        self._downmask = down
        self._by_ideal = (
            {ideal: v for v, ideal in self.ideal_coords.items()}
            if self.ideal_coords is not None else None)

    @property
    def vertices(self):
        return self.diagram.vertices

    def __len__(self):
        return len(self.diagram)

    def __repr__(self):
        return (f"DiamondLattice({len(self.diagram)} vertices, "
                f"length {self.length}, {self.kind})")

    @property
    def minimum(self):
        return self.diagram.sources()[0]

    @property
    def maximum(self):
        return self.diagram.sinks()[0]

    def le(self, s, t) -> bool:
        return bool(self._upmask[self._index[s]] & (1 << self._index[t]))

    def vertex_of_ideal(self, ideal):
        return self._by_ideal[ideal]

    def _bound(self, s, t, masks, least):
        common = masks[self._index[s]] & masks[self._index[t]]
        if not common:
            raise LatticeError(f"no common bound for {s!r}, {t!r}")
        best = ((common & -common) if least else common).bit_length() - 1
        # least/greatest bound must dominate every other common bound
        if masks[best] & common != common:
            raise LatticeError(f"bounds of {s!r}, {t!r} have no unique extremum")
        return self._order[best]

    def join(self, s, t):
        """Least upper bound (ideal union / coordinate rule / order search)."""
        if s == t:
            return s
        if self.ideal_coords is not None:
            try:
                return self._by_ideal[self.ideal_coords[s] | self.ideal_coords[t]]
            except KeyError:
                raise LatticeError(
                    f"ideal join of {s!r}, {t!r} left the lattice") from None
        if self.coord_join is not None:
            v = self.coord_join(s, t)
            if v not in self._index:
                raise LatticeError(f"coordinate join of {s!r}, {t!r} left the lattice")
            return v
        return self._bound(s, t, self._upmask, True)

    def meet(self, s, t):
        """Greatest lower bound."""
        if s == t:
            return s
        if self.ideal_coords is not None:
            try:
                return self._by_ideal[self.ideal_coords[s] & self.ideal_coords[t]]
            except KeyError:
                raise LatticeError(
                    f"ideal meet of {s!r}, {t!r} left the lattice") from None
        if self.coord_meet is not None:
            v = self.coord_meet(s, t)
            if v not in self._index:
                raise LatticeError(f"coordinate meet of {s!r}, {t!r} left the lattice")
            return v
        return self._bound(s, t, self._downmask, False)

    def order_join(self, s, t):
        """Join computed purely from the order, ignoring any coordinate rule."""
        return self._bound(s, t, self._upmask, True)

    def order_meet(self, s, t):
        return self._bound(s, t, self._downmask, False)

    def check_lattice(self) -> None:
        """Certify that `join` and `meet` are the order's, on every vertex pair.

        j is the least upper bound of s and t exactly when its up-set is
        their common up-set: ``up[j] == up[s] & up[t]`` (j is then a common
        upper bound, and every common upper bound lies above it).  The meet
        is checked dually with the down-sets.  So a coordinate rule is
        checked against the order, and a lattice without one raises the
        order search's own LatticeError when a pair has no least bound.
        """
        verts = self.diagram.vertices
        index, up, down = self._index, self._upmask, self._downmask
        join, meet = self.join, self.meet
        for a, s in enumerate(verts):
            us, ds = up[index[s]], down[index[s]]
            for t in verts[a + 1:]:
                i = index[t]
                j = join(s, t)
                if up[index[j]] != us & up[i]:
                    raise LatticeError(
                        f"join {j!r} of {s!r}, {t!r} is not their least upper bound")
                m = meet(s, t)
                if down[index[m]] != ds & down[i]:
                    raise LatticeError(
                        f"meet {m!r} of {s!r}, {t!r} is not their greatest lower bound")


def ideals_lattice(p: VertexColoredPoset) -> DiamondLattice:
    """The distributive lattice of order ideals of a vertex-colored poset.

    Vertices are the ideals themselves (frozensets); there is an edge
    x -> y of color c exactly when y \\ x is a single element of color c
    (necessarily maximal in y).
    """
    ideals = p.ideals()
    edges = []
    for x in ideals:
        for m in p.minimal_of(set(p.elements) - x):
            edges.append((x, x | {m}, p.color(m)))
    diagram = ColoredDigraph(ideals, edges)
    coords = {x: x for x in ideals}
    return DiamondLattice(diagram, "distributive", ideal_coords=coords, poset=p)


def tuple_lattice(rules: TupleLattice) -> DiamondLattice:
    """Certify ``rules``, then climb from the zero tuple to its explicit lattice
    (see :class:`TupleLattice`), reading each coordinate's least members and
    colors from a table; Birkhoff coordinates are attached."""
    rules.certify()
    tables = [[(rules.least(q, v), rules.color(q, v)) for v in range(1, hi + 1)]
              for q, hi in enumerate(rules.top, 1)]
    top, zero = rules.top, (0,) * len(rules.top)
    members, edges, seen = [zero], [], {zero: zero}
    for x in members:
        for q, (a, hi) in enumerate(zip(x, top)):
            if a < hi:
                lo, c = tables[q][a]
                y = x[:q] + (a + 1,) + x[q + 1:]
                if all(map(le, lo, y)):
                    if y not in seen:
                        seen[y] = y
                        members.append(y)
                    edges.append((x, seen[y], c))   # one tuple per member
    return attach_birkhoff_coords(DiamondLattice(
        ColoredDigraph(members, edges), "distributive",
        coord_join=rules.join, coord_meet=rules.meet))


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
    """

    __slots__ = ("top", "color", "least")

    def __init__(self, top, color, least):
        self.top = tuple(top)
        self.color = color
        self.least = least

    def __repr__(self):
        return f"TupleLattice(top {render_vertex(self.top)})"

    def certify(self) -> None:
        """Check claims (a)-(c) on the least members; LatticeError if one fails."""
        seen = {}
        for q, hi in enumerate(self.top, 1):
            below = ()
            for v in range(1, hi + 1):
                x = self.least(q, v)
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

    def member(self, x) -> bool:
        """Whether ``x`` lies in the box and above least(q, x_q) wherever x_q > 0."""
        return (len(x) == len(self.top)
                and all(0 <= a <= b for a, b in zip(x, self.top))
                and all(all(map(le, self.least(q, v), x))
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
        """The rank formula through the join and through the meet, which must agree."""
        self._lengths(s, t)
        rs, rt = self.rank(s), self.rank(t)
        via_join = 2 * self.rank(self.join(s, t)) - rs - rt
        via_meet = rs + rt - 2 * self.rank(self.meet(s, t))
        if via_join != via_meet:
            raise LatticeError(
                f"rank formulas disagree on ({render_vertex(s)}, {render_vertex(t)}): "
                f"{via_join} via join, {via_meet} via meet")
        return via_join

    def colors(self):
        """Every edge color, sorted."""
        return sorted({self.color(q, v) for q, hi in enumerate(self.top, 1)
                       for v in range(1, hi + 1)})

    def _gaps(self, *pairs) -> Counter:
        # colors of the irreducibles below upper and not below lower, summed
        # over the (lower, upper) pairs
        return Counter(self.color(q, v) for lower, upper in pairs
                       for q, (a, b) in enumerate(zip(lower, upper), 1)
                       for v in range(a + 1, b + 1))

    def color_counts(self, s, t) -> dict:
        """Per-color step counts of every geodesic from s to t, for every color.

        Counted over the gaps from s and t up to their join and, as a check,
        down to their meet.
        """
        self._lengths(s, t)
        hi, lo = self.join(s, t), self.meet(s, t)
        up = self._gaps((s, hi), (t, hi))
        if up != self._gaps((lo, s), (lo, t)):
            raise LatticeError("join-based and meet-based color counts disagree")
        return {c: up[c] for c in self.colors()}

    def geodesic(self, s, t, via: str = "join") -> PathCertificate:
        """An optimal mountain (via="join") or valley (via="meet") certificate."""
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
        cert = PathCertificate(vertices, "mountain" if via == "join" else "valley",
                               turn, steps)
        expected = self.distance(s, t)
        if cert.distance != expected:
            raise LatticeError(
                f"constructed path has {cert.distance} steps, distance is {expected}")
        return cert

    def _ascend(self, goal, vertices, steps):
        """Climb from the last vertex to ``goal`` (see the class docstring)."""
        x = list(vertices[-1])
        for _, q in sorted((self.least(q, v), q)
                           for q, (a, b) in enumerate(zip(x, goal), 1)
                           for v in range(a + 1, b + 1)):
            x[q - 1] += 1
            vertices.append(tuple(x))
            steps.append((self.color(q, x[q - 1]), +1))

    def _descend(self, goal, vertices, steps):
        """Fall from the last vertex to ``goal`` (see the class docstring)."""
        x = list(vertices[-1])
        tops = sorted((self.least(q, a), q)
                      for q, (a, b) in enumerate(zip(x, goal), 1) if a > b)
        while tops:
            for i, (_, q) in enumerate(tops):
                v = x[q - 1]
                if not any(lo[q - 1] >= v for lo, r in reversed(tops) if r != q):
                    break
            else:
                raise LatticeError(f"no lower cover of {render_vertex(tuple(x))} "
                                   f"leads to {render_vertex(tuple(goal))}")
            del tops[i]
            x[q - 1] -= 1
            if x[q - 1] > goal[q - 1]:
                insort(tops, (self.least(q, x[q - 1]), q))
            vertices.append(tuple(x))
            steps.append((self.color(q, x[q - 1] + 1), -1))


def join_irreducibles(lat: DiamondLattice) -> VertexColoredPoset:
    """The vertex-colored poset of join irreducibles of a distributive lattice.

    A join irreducible covers exactly one vertex; its color is the color of
    that unique incoming diagram edge.  The order is inherited from the
    lattice and transitively reduced, read off the reachability masks: with
    ``below`` the irreducibles strictly below a, a covers b exactly when b
    is in ``below`` and is the only one of them above b,
    ``up[b] & below == bit(b)``.
    """
    if lat.kind != "distributive":
        raise ValueError("join irreducibles of the colored kind require a distributive lattice")
    g, index, up, down = lat.diagram, lat._index, lat._upmask, lat._downmask
    irr = [v for v in g.vertices if len(g.in_edges(v)) == 1]
    color = {v: g.in_edges(v)[0][1] for v in irr}
    places = [(v, index[v], 1 << index[v]) for v in irr]
    irr_mask = sum(bit for _, _, bit in places)
    covers = []
    for a, i, abit in places:
        below = down[i] & irr_mask & ~abit
        covers += [(b, a) for b, k, bbit in places
                   if below & bbit and up[k] & below == bbit]
    return VertexColoredPoset(irr, covers, color)


def attach_birkhoff_coords(lat: DiamondLattice) -> DiamondLattice:
    """Equip a distributive lattice with order-ideal coordinates.

    Each vertex is mapped to the set of join irreducibles below it; the
    resulting ideals are exactly the order ideals of `join_irreducibles(lat)`,
    so the returned lattice supports set-theoretic joins, meets and explicit
    path construction while keeping the original vertex payloads.  The
    result is a copy that shares the argument's diagram, ranks and
    reachability masks; the argument itself is left without coordinates.

    The coordinates are read off the down-set masks, by rank: a vertex v
    with a lower cover u gets those of u plus the one irreducible it adds,
    the single set bit of ``(down[v] ^ down[u]) & irr``.  In a ranked
    lattice every cover adds at least one join irreducible to the set below
    and removes at least one meet irreducible (a vertex with one upper
    cover) from the set above, so both sets have at least as many members
    as the lattice is long.  The lattice is distributive exactly when both
    counts equal the length: the rank is then modular and the coordinates
    of a join are the union of theirs.  So a cover that adds no irreducible
    or more than one, or a count of meet irreducibles other than the
    length, raises LatticeError: the argument, a lattice (`check_lattice`
    certifies that), is not distributive.
    """
    if lat.ideal_coords is not None:
        return lat
    p = join_irreducibles(lat)
    g, order, index, down = lat.diagram, lat._order, lat._index, lat._downmask
    irr_mask = sum(1 << index[e] for e in p.elements)
    coords = {order[0]: frozenset()}
    for i in range(1, len(order)):
        v = order[i]
        u = g.in_edges(v)[0][0]
        added = (down[i] ^ down[index[u]]) & irr_mask
        if not added or added & (added - 1):
            raise LatticeError(
                f"the cover {u!r} -> {v!r} adds {bin(added).count('1')} join "
                "irreducibles, not one; lattice not distributive")
        coords[v] = coords[u] | {order[added.bit_length() - 1]}
    meet_irreducibles = sum(len(g.out_edges(v)) == 1 for v in order)
    if meet_irreducibles != lat.length:
        raise LatticeError(
            f"{meet_irreducibles} meet irreducibles in a lattice of length "
            f"{lat.length}; lattice not distributive")
    by_ideal = {ideal: v for v, ideal in coords.items()}
    if len(by_ideal) != len(lat.vertices):
        raise LatticeError("irreducible coordinates are not injective; lattice not distributive?")
    out = copy.copy(lat)
    out.ideal_coords, out.poset, out._by_ideal = coords, p, by_ideal
    return out


def to_dot(g: ColoredDigraph, name: str = "G", label=render_vertex) -> str:
    """Deterministic DOT rendering: one node per vertex labeled with
    ``label(vertex)`` (its canonical coordinates by default), edges labeled
    with their color."""
    lines = [f"digraph {name} {{"]
    lines.append('  rankdir=BT;')
    ids = {}
    for i, v in enumerate(g.vertices):
        ids[v] = f"n{i}"
        lines.append(f'  n{i} [label="{label(v)}"];')
    for (u, v, c) in g.edges:
        lines.append(f'  {ids[u]} -> {ids[v]} [label="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
