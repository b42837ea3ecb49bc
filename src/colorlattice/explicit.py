"""The explicit oracle: materialized diagrams, posets and lattices, and every
family's move graph and lattice built from them.

A solve walks :class:`~colorlattice.core.TupleLattice` and builds nothing
here.  What is here serves ``verify``, ``export`` and the tests, which hold
the solve path to an independent picture of each position space:

* :class:`ColoredDigraph` — a finite simple directed graph whose edges carry
  positive integer colors.  Order diagrams of all lattice families are stored
  in this form.
* :class:`VertexColoredPoset` — a finite poset given by its covering pairs,
  with a color attached to every element.
* :class:`DiamondLattice` — a ranked distributive lattice wrapped around a
  colored order diagram.  On the first order query each vertex gets its
  Birkhoff coordinates as an int, one bit per join irreducible, certified
  in linear time; the order, joins and meets, the explicit geodesics and
  color tallies of `paths`, the ideal coordinates and the poset of
  irreducibles are read off those ints, and `check_lattice` compares any
  join and meet rules handed in.
* the family builders: the move graphs (`mixedmiddleswitch_digraph`,
  `domino_digraph`, `ming_digraph`) from each game's move rule, and the
  lattices (`z_lattice`, `a_lattice`, `kn_lattice`, `dec_lattice`,
  `c_lattice`) from each family's least-member rule, through
  `tuple_lattice`.  Each game keeps its one move rule, the local test of
  a move's result (`_rows_fit`, and `_still_tiling`, which runs it on the
  n x n board as the full board at k = n) and its one least rule in its
  own module, where its replay shares them; this one imports them.

All values are immutable after construction (what a lattice builds on
first read is kept, never changed); every function here is pure.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain

from .core import (CapExceededError, LatticeError, NotIsomorphicError, NotRankedError,
                   TupleLattice, UnreachableError, _int_sizes, render_vertex)
from .dominoes import Board, _board_lattice, _box_lattice, _move, _rows_fit, _tiles
from .snakes import (_TILINGS_CAP, _catalan_lattice, _diagonal_lengths, _pull_back,
                     _still_tiling, _strip, _tilings, enumerate_tilings, is_tiling)
from .switchgame import _bits, _cushioned_lattice, _may_toggle, int_to_bits

__all__ = [
    "ColoredDigraph",
    "VertexColoredPoset",
    "DiamondLattice",
    "canonical_key",
    "rank_function",
    "is_diamond_colored",
    "is_topographically_balanced",
    "bfs_distance",
    "ideals_lattice",
    "tuple_lattice",
    "join_irreducibles",
    "attach_birkhoff_coords",
    "to_dot",
    "z_lattice",
    "switch_moves",
    "mixedmiddleswitch_digraph",
    "legal_moves",
    "domino_digraph",
    "a_lattice",
    "kn_lattice",
    "dec_lattice",
    "c_lattice",
    "all_snakes",
    "legal_snake_moves",
    "ming_digraph",
    "verify_isomorphism",
    "cached_isomorphism",
]


# --------------------------------------------------------------------------
# diagrams, posets and their lattices

def canonical_key(v):
    """Total order on vertex payloads, used for every deterministic ordering.

    Handles the payload shapes that actually occur — integers, strings,
    tuples, and frozensets (order ideals) — recursively, tagging each value
    with a type marker so mixed payloads sort without raising.  On tuples
    of ints the order is the plain one: ``("tup", (("int", a), ...))``
    compares exactly as ``(a, ...)`` does, so `_canonical_sorted` sorts them
    without the key.
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


def _canonical_sorted(items) -> list:
    """``sorted(items, key=canonical_key)``, with the key only where it is needed.

    Tuples of ints sort plainly, and frozensets of them by their sorted
    members, since `canonical_key` orders both as the plain tuples;
    anything else sorts by `canonical_key`.
    """
    items = list(items)
    if all(type(v) is tuple for v in items):
        if _ints(chain.from_iterable(items)):
            return sorted(items)
    elif all(type(v) is frozenset for v in items):
        members = set(chain.from_iterable(items))
        if all(type(v) is tuple for v in members) and _ints(chain.from_iterable(members)):
            return sorted(items, key=lambda v: tuple(sorted(v)))
    return sorted(items, key=canonical_key)


def _ints(values) -> bool:
    return set(map(type, values)) <= {int, bool}


class ColoredDigraph:
    """A finite simple digraph with positive-integer edge colors.

    Vertices are arbitrary hashable payloads (tuples of coordinates,
    frozensets of poset elements, ...).  Vertex and edge sequences are kept
    sorted under :func:`canonical_key` (by `_canonical_sorted`, which skips
    the key on int tuples and on frozensets of them), so two structurally
    equal graphs compare equal and print identically.  Each edge is kept once:
    its (target, color) pair in ``_out``, its target's position in ``_succ``.
    """

    __slots__ = ("_vertices", "_out", "_inc", "_succ", "_indeg", "_colors")

    def __init__(self, vertices, edges):
        vs = _canonical_sorted(vertices)
        index = {v: i for i, v in enumerate(vs)}
        if len(index) != len(vs):
            raise ValueError("duplicate vertices")
        # each edge is keyed by the positions i, j of its ends, as the one
        # int i * len(vs) + j, which the checks and the sort read in place
        # of the (possibly long) payloads
        keyed = {}
        for (u, v, c) in edges:
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                raise ValueError(f"edge endpoint not a vertex: {(u, v)}")
            if i == j:
                raise ValueError(f"loop at {u!r}")
            key = i * len(vs) + j
            if key in keyed:
                raise ValueError(f"parallel edge {u!r} -> {v!r}")
            if type(c) is not int or c < 1:
                raise ValueError(f"edge color must be a positive integer, got {c!r}")
            keyed[key] = c
        # the vertex order is canonical, so positions in it order the edges;
        # _succ keeps each vertex's out-neighbours as positions, beside _out,
        # for the passes that rank and certify without hashing payloads, and
        # _indeg the in-degrees, which is all a build reads of the in-edges,
        # and _colors the sorted edge colors, which never change.
        # Each temporary structure goes once it is read, which keeps the peak down
        del index
        self._colors = tuple(sorted(set(keyed.values())))
        out = [[] for _ in vs]
        succ = [[] for _ in vs]
        indeg = [0] * len(vs)
        for key in sorted(keyed):
            i, j = divmod(key, len(vs))
            out[i].append((vs[j], keyed[key]))
            succ[i].append(j)
            indeg[j] += 1
        del keyed
        self._vertices = tuple(vs)
        self._out = {v: tuple(nbrs) for v, nbrs in zip(vs, out)}
        del out
        self._inc = None
        self._succ = tuple(map(tuple, succ))
        self._indeg = tuple(indeg)

    @property
    def _in(self):
        """Per vertex, the pairs (source, color) of the edges into it, sources
        in vertex order: built from the out-edges on the first read and kept.
        Most explicit builds read only the in-degrees (`_indeg`), so this
        adjacency, as large as the out-edges, waits for its first reader."""
        if self._inc is None:
            vs = self._vertices
            inc = [[] for _ in vs]
            for u, js, pairs in zip(vs, self._succ, self._out.values()):
                for j, (_, c) in zip(js, pairs):
                    inc[j].append((u, c))
            self._inc = {v: tuple(nbrs) for v, nbrs in zip(vs, inc)}
        return self._inc

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        """The (source, target, color) triples in position order, read off ``_out``."""
        return tuple((u, v, c) for u, pairs in self._out.items() for (v, c) in pairs)

    def __len__(self):
        return len(self._vertices)

    def __contains__(self, v):
        return v in self._out

    def __eq__(self, other):
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._out == other._out

    def __hash__(self):
        return hash((self._vertices, tuple(self._out.values())))

    def __repr__(self):
        return f"ColoredDigraph({len(self._vertices)} vertices, {sum(self._indeg)} edges)"

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
        """Every edge color, sorted: a new list each call."""
        return list(self._colors)

    def sources(self):
        return [v for v, d in zip(self._vertices, self._indeg) if not d]

    def sinks(self):
        return [v for v, nbrs in self._out.items() if not nbrs]

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
        sub._out = {v: tuple(p for p in nbrs if p[1] == color)
                    for v, nbrs in self._out.items()}
        sub._inc = None     # built on the sub's own first read, as for any digraph
        sub._succ = tuple(tuple(j for j, (_, c) in zip(js, nbrs) if c == color)
                          for js, nbrs in zip(self._succ, self._out.values()))
        indeg = [0] * len(self._vertices)
        for js in sub._succ:
            for j in js:
                indeg[j] += 1
        sub._indeg = tuple(indeg)
        sub._colors = (color,) if any(indeg) else ()
        return sub


def rank_function(g: ColoredDigraph) -> dict:
    """Longest-path layering of an acyclic digraph, keyed in vertex order.

    Sources sit at rank 0, so every weak component is ranked from its own
    sources; afterwards every edge is checked to raise rank by exactly one.
    Raises :class:`NotRankedError` when the check fails (e.g. on an N-shaped
    diagram with chains of different lengths meeting), and ValueError on
    cyclic input.  The pass runs over vertex positions; only the returned
    dict is keyed by the payloads.
    """
    vs, succ = g._vertices, g._succ
    indeg = list(g._indeg)
    queue = [i for i, d in enumerate(indeg) if not d]
    rank = [0] * len(vs)
    for i in queue:     # grows as it is read: a breadth-first topological order
        r = rank[i] + 1
        for j in succ[i]:
            if rank[j] < r:
                rank[j] = r
            indeg[j] -= 1
            if not indeg[j]:
                queue.append(j)
    if len(queue) != len(vs):
        raise ValueError("digraph contains a directed cycle")
    for i, js in enumerate(succ):
        for j in js:
            if rank[j] != rank[i] + 1:
                raise NotRankedError(
                    f"edge {vs[i]!r} -> {vs[j]!r} spans ranks {rank[i]} -> {rank[j]}")
    return dict(zip(vs, rank))


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
    for edges in (g.out_edges, g.in_edges):
        for v in g.vertices:
            near = [w for (w, _) in edges(v)]
            for a in range(len(near)):
                for b in range(a + 1, len(near)):
                    common = ({w for (w, _) in edges(near[a])}
                              & {w for (w, _) in edges(near[b])})
                    if len(common) != 1:
                        return False
    return True


def distances_from(g: ColoredDigraph, s) -> dict:
    """Breadth-first distances from s to every vertex it reaches, ignoring
    edge direction; the keys come in order of distance."""
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for (w, _, _) in g.undirected_neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def bfs_distance(g: ColoredDigraph, s, t) -> int:
    """Shortest path length between s and t ignoring edge direction.

    This is the independent oracle against which the rank-formula distances
    are checked; it never consults ranks, joins or meets.
    """
    if s not in g or t not in g:
        raise ValueError("endpoint is not a vertex")
    dist = distances_from(g, s)
    if t not in dist:
        raise UnreachableError(f"{t!r} is not reachable from {s!r}")
    return dist[t]


class VertexColoredPoset:
    """A finite poset presented by its order diagram, with colored elements.

    ``covers`` are (lower, upper) pairs; they must be acyclic and transitively
    reduced (no cover pair may also be joined by a longer chain).
    """

    __slots__ = ("_elements", "_covers", "_color", "_index", "_up", "_down")

    def __init__(self, elements, covers, color):
        els = _canonical_sorted(elements)
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
            if type(c) is not int or c < 1:
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
    """A ranked distributive lattice carried by a colored order diagram.

    The constructor checks that the diagram has a unique minimum and maximum
    and admits a rank function.  The first order query (`le`, `join`,
    `meet`, `check_lattice`, `join_irreducibles`, ``ideal_coords``,
    ``poset``) gives each vertex its Birkhoff coordinates as an int, one bit
    per join irreducible, certified in linear time (`_birkhoff_ints`, which
    refuses a diagram that is not a distributive lattice) and kept.  These
    ints are the lattice's one set of coordinates: `le` is a subset test,
    `join` and `meet` the vertices of the OR and AND, and the geodesics and
    color tallies of `paths` walk their bits.  ``ideal_coords`` decodes
    each int into its set of irreducibles on first read, and the poset is
    `join_irreducibles`.  ``coord_join`` / ``coord_meet`` (a family's rule
    for the same bounds) are claims, which `check_lattice` compares with
    the ints.  ``kind`` must be ``"distributive"``.
    """

    __slots__ = ("diagram", "rank", "length", "kind", "coord_join", "coord_meet",
                 "_coords", "_poset", "_birk")

    def __init__(self, diagram: ColoredDigraph, kind: str,
                 coord_join=None, coord_meet=None):
        if kind != "distributive":
            raise ValueError("kind must be 'distributive'")
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
        self.coord_join = coord_join
        self.coord_meet = coord_meet
        self._coords = self._poset = self._birk = None

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

    @property
    def ideal_coords(self):
        if self._coords is None:
            code, _, irr, _, _ = self._birkhoff()
            self._coords = {v: frozenset(e for e, bit in irr.items() if x & bit)
                            for v, x in code.items()}
        return self._coords

    @property
    def poset(self):
        if self._poset is None:
            self._poset = join_irreducibles(self)
        return self._poset

    def _birkhoff(self):
        """``(code, vertex, irr, covers, colors)`` of `_birkhoff_ints`, built and
        certified on the first call and kept; a refusal is not kept."""
        if self._birk is None:
            self._birk = _birkhoff_ints(self)
        return self._birk

    def _codes(self, s, t):
        code = self._birkhoff()[0]
        try:
            return code[s], code[t]
        except KeyError:
            raise LatticeError(f"{s!r}, {t!r}: not both vertices of the lattice") from None

    def le(self, s, t) -> bool:
        code = self._birkhoff()[0]
        return not code[s] & ~code[t]

    def join(self, s, t):
        """Least upper bound: the vertex whose ideal is the union of theirs."""
        a, b = self._codes(s, t)
        return self._birk[1][a | b]

    def meet(self, s, t):
        """Greatest lower bound: the vertex whose ideal is the intersection."""
        a, b = self._codes(s, t)
        return self._birk[1][a & b]

    def check_lattice(self) -> None:
        """Certify that the diagram is a distributive lattice (`_birkhoff_ints`,
        in linear time), and that ``coord_join`` / ``coord_meet``, where
        given, name its joins and meets: each is compared pair by pair with
        the vertex of the OR or AND of the ints.  A lattice with neither, as
        every tuple lattice, has no claims.
        """
        code, vertex, _, _, _ = self._birkhoff()
        if not (self.coord_join or self.coord_meet):
            return
        join, meet = self.coord_join or self.join, self.coord_meet or self.meet
        verts = self.diagram.vertices
        for a, s in enumerate(verts):
            for t in verts[a + 1:]:
                for rule, want, what, bound in (
                        (join, vertex[code[s] | code[t]], "join", "least upper"),
                        (meet, vertex[code[s] & code[t]], "meet", "greatest lower")):
                    got = rule(s, t)
                    if got not in code:
                        raise LatticeError(f"coordinate {what} of {s!r}, {t!r} left the lattice")
                    if got != want:
                        raise LatticeError(
                            f"{what} {got!r} of {s!r}, {t!r} is not their {bound} bound")


def ideals_lattice(p: VertexColoredPoset) -> DiamondLattice:
    """The distributive lattice of order ideals of a vertex-colored poset.

    Vertices are the ideals themselves (frozensets); there is an edge
    x -> y of color c exactly when y \\ x is a single element of color c
    (necessarily maximal in y).  Like every lattice, it reads its order off
    its Birkhoff ints; its ``poset`` is `join_irreducibles`, the principal
    ideals, which is isomorphic to p, colors included.
    """
    ideals = p.ideals()
    edges = []
    for x in ideals:
        for m in p.minimal_of(set(p.elements) - x):
            edges.append((x, x | {m}, p.color(m)))
    return DiamondLattice(ColoredDigraph(ideals, edges), "distributive")


def tuple_lattice(rules: TupleLattice) -> DiamondLattice:
    """Certify ``rules``, then climb from the zero tuple to its explicit lattice
    (see :class:`TupleLattice`), which builds its Birkhoff ints on first use.

    A raise x + e_q of a member is one exactly when it lies in the box and
    above least(q, x_q + 1).  That least member has part q equal to x_q + 1
    by claim (a), and every part is at least 0, so the test reads only its
    nonzero parts p != q: x_p >= least(q, x_q + 1)_p.  Those (p, part)
    pairs are tabled once, from the least members `certify` returns, and
    the colors are read off the same table of the rules, so no rule is
    evaluated twice; the raised tuple is built only for a raise that
    passes.  The irreducible counts of `_count_irreducibles` are checked
    here, at build time.
    """
    least = rules.certify()
    needs = [[[(p, b) for p, b in enumerate(lo) if b and p != q] for lo in row]
             for q, row in enumerate(least)]
    colors = rules._color_table()
    top, zero = rules.top, (0,) * len(rules.top)
    members, edges, seen = [zero], [], {zero: zero}
    for x in members:
        for q, (a, hi) in enumerate(zip(x, top)):
            if a == hi:
                continue
            for p, b in needs[q][a]:
                if x[p] < b:
                    break
            else:
                y = x[:q] + (a + 1,) + x[q + 1:]
                if y not in seen:
                    seen[y] = y
                    members.append(y)
                edges.append((x, seen[y], colors[q][a]))   # one tuple per member
    lat = DiamondLattice(ColoredDigraph(members, edges), "distributive")
    _count_irreducibles(lat)
    return lat


def join_irreducibles(lat: DiamondLattice) -> VertexColoredPoset:
    """The vertex-colored poset of join irreducibles of a distributive lattice.

    A join irreducible covers exactly one vertex; its color is the color of
    that unique incoming diagram edge.  Its colors and covers are read off
    the Birkhoff ints (`_birkhoff_ints`): an irreducible a covers the
    irreducibles that the edges into a's lower cover add.
    """
    _, _, irr, covers, colors = lat._birkhoff()
    return VertexColoredPoset(irr, covers, dict(zip(irr, colors)))


def _count_irreducibles(lat: DiamondLattice) -> None:
    """Refuse a lattice whose join irreducibles (vertices with one lower
    cover) or meet irreducibles (one upper cover) do not number exactly its
    length: it is not distributive (in a distributive lattice both equal the
    length; Stanley, *EC1* §3.4).  O(V), on the diagram alone.
    """
    g = lat.diagram
    for name, degrees in (("join", g._indeg), ("meet", map(len, g._out.values()))):
        count = sum(d == 1 for d in degrees)
        if count != lat.length:
            raise LatticeError(
                f"{count} {name} irreducibles in a lattice of length "
                f"{lat.length}; lattice not distributive")


def _birkhoff_ints(lat: DiamondLattice):
    """The Birkhoff coordinates of a lattice as ints, certified.

    Returns ``(code, vertex, irr, covers, colors)``: ``irr`` maps each join
    irreducible (one lower cover), in vertex order, to its bit, ``code``
    each vertex to the OR of the bits of the irreducibles below it, given
    in rank order (an irreducible gets its lower cover's int plus its bit,
    any other vertex the OR of two lower covers' ints), ``vertex`` is its
    inverse, ``covers`` lists the covering pairs (b, a) of irreducibles,
    and ``colors`` the irreducibles' colors in bit order, each read once
    off its one in-edge.

    With j <= k in P, the irreducibles, when bit j is in k's int, each int
    is closed downward in P, and four tests make the diagram that of J(P),
    the order ideals of P (Birkhoff; Stanley, *EC1* §3.4), so that the
    order is inclusion, join OR and meet AND: (1) the counts of
    `_count_irreducibles`; (2) no two vertices share an int, so P is
    antisymmetric; (3) every edge adds one bit, so it is a cover of J(P);
    (4) a vertex's out-edges add exactly the irreducibles addable there
    (outside its int, their lower cover's int inside), so every cover of
    J(P) is an edge, and every ideal, climbed to from the empty one, an int.

    Tests 3 and 4 run vertex by vertex in rank order, carrying the addable
    set from one lower cover u: drop the bit j that u -> v adds, and add
    the upper covers k of j in P whose lower cover's int lies in v's.  The
    edges into k's lower cover name those covers (each removes a maximal
    element of an ideal, and by the tests below that rank, every maximal
    element is removed by one).  That is O(E + V·c) int operations, c the
    most upper covers in P.  A failed test raises LatticeError.

    Test 4 is needed: the subsets of {a, ..., e} without the cover ab -> abc
    pass tests 1-3, and only test 4 refuses them, at ab.
    """
    _count_irreducibles(lat)
    vs, succ = lat.diagram._vertices, lat.diagram._succ
    pred = [[] for _ in vs]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    places = [i for i, ps in enumerate(pred) if len(ps) == 1]
    bit = {i: 1 << k for k, i in enumerate(places)}
    rank = list(lat.rank.values())      # in vertex order
    order = sorted(range(len(vs)), key=rank.__getitem__)
    code = [0] * len(vs)
    for i in order[1:]:     # order[0] is the minimum, whose int is 0
        ps = pred[i]
        code[i] = code[ps[0]] | (bit[i] if len(ps) == 1 else code[ps[1]])
    vertex = dict(zip(code, vs))
    if len(vertex) != len(vs):
        v, w = next((v, vertex[x]) for v, x in zip(vs, code) if vertex[x] != v)
        raise LatticeError(f"{v!r} and {w!r} have the same join irreducibles "
                           "below them; lattice not distributive")
    lower = [code[pred[i][0]] for i in places]
    ups = [[] for _ in places]
    for k, i in enumerate(places):
        u = pred[i][0]
        for w in pred[u]:
            ups[(code[u] ^ code[w]).bit_length() - 1].append(k)
    addable = [0] * len(vs)
    for i in order:
        if pred[i]:
            u = pred[i][0]
            added = code[i] ^ code[u]
            have = addable[u] & ~added
            for k in ups[added.bit_length() - 1]:
                if not lower[k] & ~code[i]:
                    have |= 1 << k
        else:
            have = sum(1 << k for k, low in enumerate(lower) if not low)
        out = 0
        for j in succ[i]:
            added = code[j] ^ code[i]
            if code[i] & added or added & (added - 1):
                raise LatticeError(
                    f"the cover {vs[i]!r} -> {vs[j]!r} does not add exactly one "
                    "join irreducible; lattice not distributive")
            out |= added
        if out != have:
            raise LatticeError(
                f"the covers above {vs[i]!r} do not add exactly the join "
                "irreducibles addable there; lattice not distributive")
        addable[i] = have
    covers = [(vs[places[j]], vs[places[k]]) for j, ks in enumerate(ups) for k in ks]
    colors = [lat.diagram.edge_color(vs[pred[i][0]], vs[i]) for i in places]
    return dict(zip(vs, code)), vertex, {vs[i]: b for i, b in bit.items()}, covers, colors


def attach_birkhoff_coords(lat: DiamondLattice) -> DiamondLattice:
    """Build and certify a lattice's Birkhoff ints (`_birkhoff_ints`) now,
    not on its first order query, and return the lattice."""
    lat._birkhoff()
    return lat


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


# --------------------------------------------------------------------------
# switch rows

@lru_cache(maxsize=None, typed=True)
def z_lattice(n: int) -> DiamondLattice:
    """The distributive lattice of cushioned tuples under component-wise order.

    Covers raise exactly one coordinate by 1; the edge raising coordinate k
    to the new value t_k wears color n + 1 - t_k.  Joins and meets are
    component-wise max and min, and the Birkhoff coordinates, derived on
    first read, build explicit optimal paths.
    """
    _int_sizes(n=n)
    if n < 2:
        raise ValueError("the game is played at n >= 2")
    return tuple_lattice(_cushioned_lattice(n))


def switch_moves(s):
    """The legal flips from position s, as (index, result) pairs, 1-indexed.

    Each toggle `_may_toggle` allows appears once, pointing up the lattice:
    from the side where bit i equals its left neighbour (a virtual 0 before
    bit 1).  The reversals are the same toggles played backwards.
    """
    s = tuple(s)
    n = len(s)
    if not _bits(s):
        raise ValueError("positions are 0/1 tuples of length >= 2")
    z = (0,) + s   # z[i] is bit i, z[0] the virtual 0
    return [(i, s[:i - 1] + (1 - s[i - 1],) + s[i:]) for i in range(1, n + 1)
            if _may_toggle(s, i) and z[i] == z[i - 1]]


def mixedmiddleswitch_digraph(n: int) -> ColoredDigraph:
    """The full game graph on all 2^n positions, edges colored by flip index."""
    _int_sizes(n=n)
    if n < 2:
        raise ValueError("the game is played at n >= 2")
    verts = [int_to_bits(v, n) for v in range(2 ** n)]
    return ColoredDigraph(verts, [(s, t, i) for s in verts for i, t in switch_moves(s)])


# --------------------------------------------------------------------------
# domino boards

def legal_moves(board: Board, tau):
    """All directed moves out of a partition, in a fixed deterministic order.

    Each move is ``(verb, squares, color, result)``: a `DominoSolution`
    action, verb ``"add"`` or ``"remove"`` and the tile's squares in sorted
    order, followed by the partition it leads to.

    Only tiles at the row ends can move: per row, the horizontal domino at
    its end (lifted) and just past it (laid); per pair of adjacent rows of
    equal length, the vertical domino at their common end and just past it;
    and the corner singleton (lifted).  A tile is kept when ``_move`` plays
    it, the result is again a partition of the board's kind, which only the
    rows it touched can break and which keeps its squares on the board
    (`_rows_fit`), and ``_wears`` names the verb played, read through the
    board's tile table (`_tiles`), which the replay reads too.  The
    reversals of these moves appear as forward moves of the partner
    partition instead.
    """
    tau = tuple(tau)
    if not board.valid(tau):
        raise ValueError(f"{tau} is not a {board.kind} partition here")
    return _legal_moves(board, tau)


def _legal_moves(board: Board, tau):
    """`legal_moves` at a tuple ``tau`` already known to be a partition of
    the board's kind."""
    tiles = []
    for r, cur in enumerate(tau, 1):
        tiles += [(False, ((r, cur - 1), (r, cur))),
                  (True, ((r, cur + 1), (r, cur + 2)))]
        if r < board.k and tau[r] == cur:
            tiles += [(False, ((r, cur), (r + 1, cur))),
                      (True, ((r, cur + 1), (r + 1, cur + 1)))]
    tiles.append((False, (board.singleton,)))
    table = _tiles(board.kind, board.k, board.n)
    moves = []
    for add, tile in tiles:
        result = _move(tau, tile, add)
        if result is None or not _rows_fit(board, result, {r for r, _ in tile}):
            continue
        _, verb, color = table[tile]
        if (verb == "add") == add:
            moves.append((verb, tile, color, result))
    return moves


@lru_cache(maxsize=None, typed=True)
def domino_digraph(kind: str, k: int, n: int) -> ColoredDigraph:
    """The directed move graph on all partitions of the board's kind.

    The partitions come from ``board.partitions()``, which keeps only valid
    ones, so their moves are found without checking them again.
    """
    board = Board(kind, k, n)
    verts = board.partitions()
    edges = [(tau, result, color)
             for tau in verts for (_, _, color, result) in _legal_moves(board, tau)]
    return ColoredDigraph(verts, edges)


@lru_cache(maxsize=None, typed=True)
def a_lattice(k: int, m: int) -> DiamondLattice:
    """The distributive lattice of partitions in a k x m box.

    Covers add one box; the cover adding a box in row q, column t, wears
    color q - t + m.  Note the second parameter is the box width m (which
    equals 2n-k when the lattice is paired with a (k, n) board family).
    """
    _int_sizes(k=k, m=m)
    if k < 1 or m < 1:
        raise ValueError("box dimensions must be positive")
    return tuple_lattice(_box_lattice(k, m))


@lru_cache(maxsize=None, typed=True)
def kn_lattice(k: int, n: int) -> DiamondLattice:
    """The sublattice of the folded box lattice on the first admissible family."""
    _int_sizes(k=k, n=n)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return tuple_lattice(_board_lattice("staircase", k, n))


@lru_cache(maxsize=None, typed=True)
def dec_lattice(k: int, n: int) -> DiamondLattice:
    """The sublattice of the folded box lattice on the second admissible family."""
    _int_sizes(k=k, n=n)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return tuple_lattice(_board_lattice("ballot", k, n))


# --------------------------------------------------------------------------
# snake tilings

def _snake_size(n) -> None:
    """Refuse a snake board size that is not an int of at least 1, as every
    snake builder does."""
    _int_sizes(n=n)
    if n < 1:
        raise ValueError("n must be positive")


@lru_cache(maxsize=None, typed=True)
def c_lattice(n: int) -> DiamondLattice:
    """The distributive lattice of staircase-bounded tuples.

    Component-wise order; a cover raises coordinate q by one, onto the new
    value t_q, and wears color n + q - t_q.
    """
    _snake_size(n)
    return tuple_lattice(_catalan_lattice(n))


@lru_cache(maxsize=None, typed=True)
def all_snakes(n: int):
    """Every centered southwesterly snake on the n x n board.

    A snake of length m steps South or West and its floor((m+1)/2)-th
    square lies on the main diagonal; snakes are generated outward from
    that diagonal square (North/East for the head, South/West for the
    tail), so each is produced exactly once.
    """
    _snake_size(n)
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


def legal_snake_moves(n: int, rows):
    """All legal moves at a tiling: (snake, "add"|"remove", resulting tiling).

    Additions lay tiles on a fully untiled snake, removals clear a fully
    tiled one; either is legal only when the result is again a tiling.
    The candidates are the rim segments of `_rim_moves`, one of each verb
    per snake length.  Deterministically ordered.
    """
    rows = tuple(rows)
    if not is_tiling(rows, n):
        raise ValueError(f"not a tiling of the {n} x {n} board: {rows}")
    moves = _rim_moves(n, rows, forward=False)
    moves.sort(key=lambda mv: (len(mv[0]), mv[0], mv[1]))
    return moves


def _rim_moves(n: int, rows, forward: bool):
    """The legal snake moves at ``rows``, a tiling not checked again, in no
    set order: (snake, verb, result) triples, only those that point forward
    in the move graph (``(verb == "add") == (len(snake) is even)``) when
    ``forward``.

    Whatever a legal move adds or removes is a border strip (rim hook) of
    the larger of the two shapes, so only segments of the inner rim
    (removals) and of the outer rim inside the board (additions) are tried:
    one of each per snake length m, on the contents the centering fixes,
    with the last tiled (or first bare) square of each content's diagonal
    (`_rim`, `_rim_segment`).

    Such a segment is a snake on the board exactly when its two end squares
    are on the board.  Its centre square has content 0, so lies on the main
    diagonal.  Its steps are all South or West.  Count row 0 and column 0
    as tiled, where `_strip` puts the last tiled square of an empty
    diagonal; the tiled squares stay closed to the upper left.  If (i, j)
    is the last tiled square of content c, then (i, j - 1), West of it, is
    tiled, and the last tiled square of content c - 1 is that one or
    (i + 1, j), South of it: a tiled (i + 2, j + 1) would put a tiled
    (i + 1, j + 1) further along the diagonal of (i, j).  The first bare
    squares, one step further along each diagonal, step alike.  So the row
    index grows and the column index shrinks from head to tail, and every
    square lies between the two ends.  `_move` and `_still_tiling` decide
    each segment that passes.
    """
    d = _diagonal_lengths(rows, n)
    moves = []
    for verb, shift in (("remove", -1), ("add", 0)):
        rim = _rim(n, d, shift)
        for m in range(1, 2 * n):
            if forward and (verb == "add") != (m % 2 == 0):
                continue
            snake = _rim_segment(n, rim, m)
            if snake is None:
                continue
            result = _move(rows, snake, verb == "add")
            if result is not None and _still_tiling(result, n, snake):
                moves.append((snake, verb, result))
    return moves


def _rim(n: int, d, shift: int):
    """The squares of the inner (shift -1) or outer (shift 0) rim of the
    tiling with diagonal lengths ``d``: the last tiled or first bare square
    of each content's diagonal, contents n-1 down to 1-n, possibly off the
    board: the strip of a length-(2n-1) snake, which covers them all."""
    return _strip(d, 2 * n - 1, shift)


def _rim_segment(n: int, rim, m: int):
    """The length-m snake candidate on a rim (`_rim`), or None when it leaves
    the board, which its two ends decide (see `_rim_moves`).

    It covers the contents p-1 down to p-m, p = floor((m+1)/2): a slice of
    the rim, whose place n-1-c holds content c.
    """
    head = n - (m + 1) // 2
    for i, j in (rim[head], rim[head + m - 1]):
        if not (1 <= i <= n and 1 <= j <= n):
            return None
    return tuple(rim[head:head + m])


@lru_cache(maxsize=None, typed=True)
def ming_digraph(n: int) -> ColoredDigraph:
    """The directed snake-move graph on all tilings of the n x n board.

    Even-length additions and odd-length removals point forward; their
    mirrors are the same moves seen from the other endpoint, so only the
    forward ones are tried (`_rim_moves`), on tilings the enumeration
    already checked.
    """
    _snake_size(n)
    verts = enumerate_tilings(n)
    edges = [(rows, result, len(snake)) for rows in verts
             for snake, _, result in _rim_moves(n, rows, forward=True)]
    return ColoredDigraph(verts, edges)


def verify_isomorphism(A: ColoredDigraph, B: ColoredDigraph, mapping) -> None:
    """Check a claimed isomorphism completely; raise NotIsomorphicError if bad."""
    values = list(mapping.values())
    if set(mapping) != set(A.vertices) or set(values) != set(B.vertices) \
            or len(set(values)) != len(values):
        raise NotIsomorphicError("mapping is not a vertex bijection")
    if sum(A._indeg) != sum(B._indeg):
        raise NotIsomorphicError("edge counts differ")
    for (u, v, c) in A.edges:
        if B.edge_color(mapping[u], mapping[v]) != c:
            raise NotIsomorphicError(
                f"edge {u} -> {v} (color {c}) is not preserved")


@lru_cache(maxsize=None, typed=True)
def cached_isomorphism(n: int) -> dict:
    """The lattice-to-tilings correspondence, from the closed-form pull-back.

    The map is checked edge by edge against ``c_lattice(n)`` and
    ``ming_digraph(n)`` (NotIsomorphicError if it fails).  Boards whose
    Catalan number of tilings exceeds the cap raise CapExceededError before
    either graph is built.
    """
    _snake_size(n)
    size = _tilings(n)
    if size > _TILINGS_CAP:
        raise CapExceededError(
            f"snake boards capped at {_TILINGS_CAP} tilings; "
            f"the {n} x {n} board has {size} tilings")
    iso = {_pull_back(rows, n): rows for rows in enumerate_tilings(n)}
    verify_isomorphism(c_lattice(n).diagram, ming_digraph(n), iso)
    return iso
