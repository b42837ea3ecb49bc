"""Seeded random posets shared by the structural and property suites, the
enumeration of every geodesic that the path suites hold the one-pass
searches to, and the environment of a fresh interpreter for the subprocess
tests."""

import os
import random

import colorlattice
from colorlattice import (
    CapExceededError,
    ColoredDigraph,
    DiamondLattice,
    PathCertificate,
    VertexColoredPoset,
    ideals_lattice,
)
from colorlattice.explicit import canonical_key, distances_from


def module_env(**extra):
    """``os.environ`` with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(colorlattice.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def random_poset(rng, size=8, colors=3, edge_p=0.3):
    """A random vertex-colored poset on ``size`` labeled elements.

    Draws a random relation on the labels, closes it transitively, and keeps
    only the covering pairs, so the constructor's reduction check is happy.
    """
    order = {(i, j) for i in range(size) for j in range(i + 1, size)
             if rng.random() < edge_p}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(order):
            for c in range(size):
                if (b, c) in order and (a, c) not in order:
                    order.add((a, c))
                    changed = True
    covers = [(a, b) for (a, b) in order
              if not any((a, m) in order and (m, b) in order for m in range(size))]
    color = {e: rng.randint(1, colors) for e in range(size)}
    return VertexColoredPoset(range(size), covers, color)


def random_lattice(seed, size=8):
    """The ideal lattice of a seeded random poset (deterministic per seed)."""
    return ideals_lattice(random_poset(random.Random(seed), size=size))


def two_colored_square():
    """A ranked square lattice whose sides each wear one color, so its two
    geodesics from bottom "0" to top "1" differ in color: not
    diamond-colored."""
    g = ColoredDigraph(["0", "a", "b", "1"],
                       [("0", "a", 1), ("a", "1", 1), ("0", "b", 2), ("b", "1", 2)])
    return DiamondLattice(g, "distributive")


def _classify(lat, vertices, steps):
    ranks = [lat.rank[v] for v in vertices]
    k_hi = ranks.index(max(ranks))
    if ranks[:k_hi + 1] == sorted(ranks[:k_hi + 1]) and \
       ranks[k_hi:] == sorted(ranks[k_hi:], reverse=True) and \
       vertices[k_hi] == lat.join(vertices[0], vertices[-1]):
        return PathCertificate(vertices, "mountain", vertices[k_hi], steps)
    k_lo = ranks.index(min(ranks))
    if ranks[:k_lo + 1] == sorted(ranks[:k_lo + 1], reverse=True) and \
       ranks[k_lo:] == sorted(ranks[k_lo:]) and \
       vertices[k_lo] == lat.meet(vertices[0], vertices[-1]):
        return PathCertificate(vertices, "valley", vertices[k_lo], steps)
    return PathCertificate(vertices, "mixed", None, steps)


def all_shortest_paths(lat, s, t, cap=12):
    """Reference: every geodesic between s and t in the undirected diagram.

    Purely graph-theoretic (no rank formulas), and one path at a time, so
    it is the oracle for `paths.geodesic_multisets`, which reads the color
    multisets in one layered pass.  Refuses distances above ``cap`` to keep
    the enumeration finite in practice.
    """
    g = lat.diagram
    ds, dt = distances_from(g, s), distances_from(g, t)
    dist = dt[s]
    if dist > cap:
        raise CapExceededError(f"distance {dist} exceeds enumeration cap {cap}")
    paths = []

    def walk(v, vertices, steps):
        if v == t:
            paths.append(_classify(lat, list(vertices), list(steps)))
            return
        for (w, c, direction) in g.undirected_neighbors(v):
            if ds.get(w) == ds[v] + 1 and dt.get(w) == dt[v] - 1:
                vertices.append(w)
                steps.append((c, direction))
                walk(w, vertices, steps)
                vertices.pop()
                steps.pop()

    walk(s, [s], [])
    paths.sort(key=lambda p: tuple(canonical_key(v) for v in p.vertices))
    return paths
