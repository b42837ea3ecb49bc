"""Optimal move counts and explicit shortest paths on diamond-colored lattices.

The distance between two vertices of a topographically balanced lattice is
determined by ranks alone:

    dist(s, t) = 2*rank(s v t) - rank(s) - rank(t)
               = rank(s) + rank(t) - 2*rank(s ^ t)

Both evaluations are always computed and compared.  On a distributive
lattice the per-color step counts of *every* geodesic coincide, and
mountain/valley certificates are constructed element by element from the
order-ideal coordinates.
"""

from __future__ import annotations

from collections import Counter

from .core import LatticeError, PathCertificate, render_vertex
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

    Evaluated through the join and through the meet; the two numbers are
    required to agree (they do on every topographically balanced lattice).
    """
    rs, rt = lat.rank[s], lat.rank[t]
    via_join = 2 * lat.rank[lat.join(s, t)] - rs - rt
    via_meet = rs + rt - 2 * lat.rank[lat.meet(s, t)]
    if via_join != via_meet:
        raise LatticeError(
            f"rank formulas disagree on ({render_vertex(s)}, {render_vertex(t)}): "
            f"{via_join} via join, {via_meet} via meet")
    return via_join


def color_counts(lat: DiamondLattice, s, t) -> dict:
    """Per-color step counts of every geodesic from s to t, for every color.

    Tallies the colors of the ideal-coordinate elements in
    (s u t) \\ s and in (s u t) \\ t, the steps up to the join and down
    from it.  As sets, (s u t) \\ s = t \\ (s n t) = t \\ s, so the steps
    down to the meet and up from it are the same elements: one tally over
    the symmetric difference serves both.
    """
    steps = Counter(map(lat.poset.color, lat.ideal_coords[s] ^ lat.ideal_coords[t]))
    return {c: steps[c] for c in lat.diagram.colors()}


def _ascend(lat, x_ideal, target_ideal, vertices, steps):
    """Extend a path upward from ideal x to a target ideal one element at a time."""
    p = lat.poset
    for u in p.peel(target_ideal - x_ideal):
        x_ideal = x_ideal | {u}
        vertices.append(lat.vertex_of_ideal(x_ideal))
        steps.append((p.color(u), +1))
    return x_ideal


def _descend(lat, x_ideal, target_ideal, vertices, steps):
    p = lat.poset
    for u in p.peel(x_ideal - target_ideal, maximal=True):
        x_ideal = x_ideal - {u}
        vertices.append(lat.vertex_of_ideal(x_ideal))
        steps.append((p.color(u), -1))
    return x_ideal


def shortest_path(lat: DiamondLattice, s, t, via: str = "join") -> PathCertificate:
    """An optimal mountain (via="join") or valley (via="meet") certificate.

    Mountain paths add, one at a time, a minimal missing element of the
    ideal of s v t until the apex is reached, then remove maximal elements
    not lying in t.  Each leg is one :meth:`VertexColoredPoset.peel` of the
    gap between its two ideals: every step takes the canonical-first minimal
    (on the way down, maximal) element still missing, so the certificate is
    reproducible.
    """
    if via not in ("join", "meet"):
        raise ValueError("via must be 'join' or 'meet'")
    cs, ct = lat.ideal_coords[s], lat.ideal_coords[t]
    vertices = [s]
    steps = []
    if via == "join":
        apex = cs | ct
        x = _ascend(lat, cs, apex, vertices, steps)
        _descend(lat, x, ct, vertices, steps)
        cert = PathCertificate(vertices, "mountain", lat.vertex_of_ideal(apex), steps)
    else:
        nadir = cs & ct
        x = _descend(lat, cs, nadir, vertices, steps)
        _ascend(lat, x, ct, vertices, steps)
        cert = PathCertificate(vertices, "valley", lat.vertex_of_ideal(nadir), steps)
    expected = lattice_distance(lat, s, t)
    if cert.distance != expected:
        raise LatticeError(
            f"constructed path has {cert.distance} steps, distance is {expected}")
    return cert


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
