"""Diamond-colored distributive lattices, move-minimizing puzzles, and
reflection-group certificates.

The package is organized in layers.  :mod:`colorlattice.core` holds the
graph/poset/lattice machinery (colored digraphs, rank functions, the order
ideal correspondence).  :mod:`colorlattice.paths` turns lattice structure
into optimal play: exact distances, mountain/valley geodesics, per-color
move counts, God's number.  Three puzzle families are built on top --
:mod:`colorlattice.switchgame` (rows of switches), :mod:`colorlattice.dominoes`
(checkered boards tiled by dominoes), :mod:`colorlattice.snakes` (square
boards tiled by snake-shaped paths) -- each pairing a physical move rule
with a lattice model and a replay validator.  :mod:`colorlattice.polynomials`
and :mod:`colorlattice.characters` supply the exact polynomial arithmetic
and reflection-group apparatus used to certify the lattices as splitting
posets.  ``colorlattice.cli`` wires everything to a command line, and
:mod:`colorlattice.verify` holds its sweeps of cross-checks.

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
        "GroupElement", "RootData", "UnrankedComponentError", "alternant",
        "bialternant_check", "closed_card_c", "closed_rgf_b", "closed_rgf_c",
        "generators", "is_structured", "is_symmetric_unimodal", "orbit",
        "poset_weights", "product_rgf", "rgf", "root_data", "w_invariant",
        "weyl_group", "wgf"),
    "core": (
        "CapExceededError", "ColoredDigraph", "DiamondLattice", "LatticeError",
        "NotIsomorphicError", "NotRankedError", "PathCertificate",
        "TupleLattice", "UnreachableError", "VertexColoredPoset",
        "attach_birkhoff_coords", "bfs_distance", "ideals_lattice",
        "is_diamond_colored", "is_topographically_balanced",
        "join_irreducibles", "rank_function", "to_dot", "tuple_lattice"),
    "dominoes": (
        "Board", "DominoSolution", "Move", "a_lattice", "dec_admissible",
        "dec_lattice", "domino_digraph", "enumerate_box_partitions",
        "enumerate_tableaux", "is_ballot", "is_box_partition", "is_staircase",
        "kn_admissible", "kn_lattice", "l_inv", "l_map", "legal_moves",
        "part_to_tab", "replay_domino", "sigma", "solve_domino",
        "tab_to_part", "wt_c"),
    "paths": (
        "all_shortest_paths", "color_count_min", "color_counts",
        "gods_number", "lattice_distance", "shortest_path"),
    "polynomials": (
        "InexactDivisionError", "LaurentPoly", "QPolynomial", "qbinomial"),
    "snakes": (
        "SnakeSolution", "all_snakes", "c_lattice", "cached_isomorphism",
        "catalan_tuples", "enumerate_tilings", "is_tiling",
        "legal_snake_moves", "ming_digraph", "render_tiling", "replay_snakes",
        "solve_snakes", "verify_isomorphism"),
    "switchgame": (
        "SwitchSolution", "b_inv", "b_map", "mixedmiddleswitch_digraph",
        "replay_switches", "solve_mixedmiddleswitch", "switch_moves",
        "z_lattice"),
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
