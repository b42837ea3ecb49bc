"""Diamond-colored distributive lattices, move-minimizing puzzles, and
reflection-group certificates.

The package is organized by reader.  :mod:`colorlattice.core` is the solve
kernel: :class:`~colorlattice.core.TupleLattice`, a lattice of integer
tuples given by its least members, which walks optimal geodesics without
enumerating anything, and the replayable
:class:`~colorlattice.core.PathCertificate`.  Three puzzle families are
built on it -- :mod:`colorlattice.switchgame` (rows of switches),
:mod:`colorlattice.dominoes` (checkered boards tiled by dominoes),
:mod:`colorlattice.snakes` (square boards tiled by snake-shaped paths) --
each holding a game's input checks, coding, least-member rule, move rule,
solver and replay validator.  :mod:`colorlattice.explicit` is the oracle
that no solve loads: colored digraphs, vertex-colored posets, materialized
lattices whose order is read off certified Birkhoff coordinates, and every
family's move graph and lattice, built from the families' own rules.
:mod:`colorlattice.tableaux` holds the tableau and tally codings of the
boards and the admissibility filters.  :mod:`colorlattice.paths` reads
optimal play off an explicit lattice: exact distances, mountain/valley
geodesics, per-color move counts, God's number.
:mod:`colorlattice.polynomials` and :mod:`colorlattice.characters` supply
the exact polynomial arithmetic and reflection-group apparatus used to
certify the lattices as splitting posets.  ``colorlattice.cli`` wires
everything to a command line, and :mod:`colorlattice.verify` holds its
sweeps of cross-checks.

Names load on first use (PEP 562): ``import colorlattice`` imports no
submodule, and ``colorlattice.X`` or ``from colorlattice import X`` imports
the one submodule that defines ``X``.  A one-shot command therefore compiles
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "characters": (
        "RootData", "UnrankedComponentError", "alternant", "bialternant_check",
        "closed_card_c", "closed_rgf_b", "closed_rgf_c", "is_structured",
        "is_symmetric_unimodal", "orbit", "poset_weights", "product_rgf",
        "rgf", "root_data", "w_invariant", "weyl_group", "wgf"),
    "core": (
        "CapExceededError", "LatticeError", "NotIsomorphicError",
        "NotRankedError", "PathCertificate", "TupleLattice",
        "UnreachableError"),
    "dominoes": (
        "Board", "DominoSolution", "enumerate_box_partitions", "is_ballot",
        "is_box_partition", "is_staircase", "l_inv", "l_map", "replay_domino",
        "sigma", "solve_domino"),
    "explicit": (
        "ColoredDigraph", "DiamondLattice", "VertexColoredPoset", "a_lattice",
        "all_snakes", "attach_birkhoff_coords", "bfs_distance", "c_lattice",
        "cached_isomorphism", "dec_lattice", "domino_digraph",
        "ideals_lattice", "is_diamond_colored", "is_topographically_balanced",
        "join_irreducibles", "kn_lattice", "legal_moves", "legal_snake_moves",
        "ming_digraph", "mixedmiddleswitch_digraph", "rank_function",
        "switch_moves", "to_dot", "tuple_lattice", "verify_isomorphism",
        "z_lattice"),
    "paths": (
        "color_counts", "gods_number", "lattice_distance", "shortest_path"),
    "polynomials": (
        "InexactDivisionError", "LaurentPoly", "QPolynomial", "qbinomial"),
    "snakes": (
        "SnakeSolution", "catalan_tuples", "enumerate_tilings", "is_tiling",
        "render_tiling", "replay_snakes", "solve_snakes"),
    "switchgame": (
        "SwitchSolution", "b_inv", "b_map", "replay_switches",
        "solve_mixedmiddleswitch"),
    "tableaux": (
        "dec_admissible", "enumerate_tableaux", "kn_admissible",
        "part_to_tab", "tab_to_part", "wt_c"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:    # a submodule: colorlattice.core works after import
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value    # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
