"""Seeded random posets shared by the structural and property suites, and
the environment of a fresh interpreter for the subprocess tests."""

import os
import random

import colorlattice
from colorlattice import ColoredDigraph, DiamondLattice, VertexColoredPoset, ideals_lattice


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
    return DiamondLattice(g, "modular")
