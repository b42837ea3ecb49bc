"""Optimal move counts and explicit shortest paths on diamond-colored lattices.

The distance between two vertices of a topographically balanced lattice is
determined by ranks alone:

    dist(s, t) = 2*rank(s v t) - rank(s) - rank(t)
               = rank(s) + rank(t) - 2*rank(s ^ t)

The two are one number on every modular lattice, so on every distributive
one (Stanley, *EC1* §3.3), and `lattice_distance` evaluates the first.  On
a distributive lattice the per-color step counts of *every* geodesic
coincide, and mountain/valley certificates are constructed one join
irreducible at a time from the Birkhoff ints (`DiamondLattice._birkhoff`):
each step flips the lowest bit left that lands on a vertex.
"""

from __future__ import annotations

from collections import Counter

from .core import LatticeError, PathCertificate
from .explicit import ColoredDigraph, DiamondLattice, distances_from

__all__ = [
    "PathCertificate",
    "lattice_distance",
    "color_counts",
    "shortest_path",
    "gods_number",
]


def lattice_distance(lat: DiamondLattice, s, t) -> int:
    """Minimal number of moves between s and t, by the rank formula.

    Evaluated through the join only.  The ranks are the bit counts of the
    certified Birkhoff ints, join and meet their OR and AND, and
    popcount(a | b) + popcount(a & b) = popcount(a) + popcount(b), so the
    form through the meet is the same number.
    """
    return 2 * lat.rank[lat.join(s, t)] - lat.rank[s] - lat.rank[t]


def color_counts(lat: DiamondLattice, s, t) -> dict:
    """Per-color step counts of every geodesic from s to t, for every color.

    Tallies the colors of the join irreducibles whose bits differ between
    the Birkhoff ints of s and t.  The steps up to the join add the bits of
    t missing from s and those down from it drop the bits of s missing from
    t; the steps down to the meet and up from it are the same bits, so one
    tally over the symmetric difference serves both.
    """
    code, _, _, _, colors = lat._birkhoff()
    gap = code[s] ^ code[t]
    steps = Counter(c for k, c in enumerate(colors) if gap >> k & 1)
    return {c: steps[c] for c in lat.diagram.colors()}


def _leg(lat, x, gap, sign, vertices, steps):
    """Walk from the int x over the bits of ``gap``, setting them (``sign``
    +1) or clearing them (-1), each step the lowest bit that lands on a
    vertex: for ideals x and goal g, the irreducible e that `minimal_of`
    (`maximal_of`) puts first in the gap left.  Climbing, e is minimal there
    iff x + {e} is an ideal (all below e lies in g, and g's part taken so
    far in x); falling, maximal iff x - {e} is one (an f above e in x but
    not left would lie in g, and so would e); bits run in canonical order."""
    _, vertex, _, _, colors = lat._birkhoff()
    while gap:
        rest = gap
        while x ^ (bit := rest & -rest) not in vertex:
            rest ^= bit
        x ^= bit
        gap ^= bit
        vertices.append(vertex[x])
        steps.append((colors[bit.bit_length() - 1], sign))


def shortest_path(lat: DiamondLattice, s, t, via: str = "join") -> PathCertificate:
    """An optimal mountain (via="join") or valley (via="meet") certificate.

    Mountain paths add, one at a time, a minimal missing irreducible of
    s v t until the apex is reached, then remove maximal irreducibles not
    lying below t.  Each leg (`_leg`) takes the canonical-first minimal (on
    the way down, maximal) irreducible still to go at every step, so the
    certificate is reproducible, and the legs take each bit of the XOR of
    the Birkhoff ints of s and t once: the rank-formula distance.
    """
    if via not in ("join", "meet"):
        raise ValueError("via must be 'join' or 'meet'")
    code, vertex, _, _, _ = lat._birkhoff()
    cs, ct = code[s], code[t]
    up, down = ct & ~cs, cs & ~ct
    vertices, steps = [s], []
    if via == "join":
        _leg(lat, cs, up, +1, vertices, steps)
        _leg(lat, cs | ct, down, -1, vertices, steps)
        return PathCertificate(vertices, "mountain", vertex[cs | ct], steps)
    _leg(lat, cs, down, -1, vertices, steps)
    _leg(lat, cs & ct, up, +1, vertices, steps)
    return PathCertificate(vertices, "valley", vertex[cs & ct], steps)


# The largest lattice, in vertices, whose diameter is re-checked pair by pair.
_SWEEP_LIMIT = 200


def gods_number(lat: DiamondLattice) -> int:
    """The maximum optimal move count over all vertex pairs: the length of L.

    On lattices with at most ``_SWEEP_LIMIT`` vertices the claim is re-checked
    by an exhaustive pairwise sweep before being returned.
    """
    value = lat.length
    if len(lat) <= _SWEEP_LIMIT:
        worst = 0
        verts = lat.vertices
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                worst = max(worst, lattice_distance(lat, verts[i], verts[j]))
        if worst != value and len(lat) > 1:
            raise LatticeError(
                f"pairwise sweep found diameter {worst}, length is {value}")
    return value


def geodesic_multisets(g: ColoredDigraph, s) -> dict:
    """For every vertex t that s reaches, the per-color step multisets of
    all geodesics from s to t in the undirected diagram.

    One layered pass, reading no ranks: a geodesic to w ends with an edge
    from a neighbor v one layer nearer s, so the multisets of w are those of
    each such v plus that edge's color.  A multiset is a sorted tuple of
    (color, count) pairs.
    """
    colors = g.colors()
    slot = {c: i for i, c in enumerate(colors)}
    dist = distances_from(g, s)
    counts = {s: {(0,) * len(colors)}}
    for w, d in dist.items():
        if w == s:
            continue
        got = set()
        for (v, c, _) in g.undirected_neighbors(w):
            if dist[v] == d - 1:
                i = slot[c]
                got.update(m[:i] + (m[i] + 1,) + m[i + 1:] for m in counts[v])
        counts[w] = got
    return {t: {tuple((c, k) for c, k in zip(colors, m) if k) for m in got}
            for t, got in counts.items()}
