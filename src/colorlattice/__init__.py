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
posets.  ``colorlattice.cli`` wires everything to a command line.
"""

from .characters import (
    GroupElement,
    RootData,
    UnrankedComponentError,
    alternant,
    bialternant_check,
    closed_card_c,
    closed_rgf_b,
    closed_rgf_c,
    generators,
    is_structured,
    is_symmetric_unimodal,
    orbit,
    poset_weights,
    product_rgf,
    rgf,
    root_data,
    w_invariant,
    weyl_group,
    wgf,
)
from .core import (
    CapExceededError,
    ColoredDigraph,
    DiamondLattice,
    LatticeError,
    NotRankedError,
    TupleLattice,
    UnreachableError,
    VertexColoredPoset,
    attach_birkhoff_coords,
    bfs_distance,
    ideals_lattice,
    is_diamond_colored,
    is_topographically_balanced,
    join_irreducibles,
    rank_function,
    to_dot,
    tuple_lattice,
)
from .dominoes import (
    Board,
    DominoSolution,
    Move,
    StructureViolationError,
    a_lattice,
    dec_admissible,
    dec_lattice,
    domino_digraph,
    enumerate_box_partitions,
    enumerate_tableaux,
    is_ballot,
    is_box_partition,
    is_staircase,
    kn_admissible,
    kn_lattice,
    l_inv,
    l_map,
    legal_moves,
    part_to_tab,
    replay_domino,
    sigma,
    solve_domino,
    tab_to_part,
    wt_c,
)
from .paths import (
    PathCertificate,
    all_shortest_paths,
    color_count_min,
    color_counts,
    gods_number,
    lattice_distance,
    shortest_path,
)
from .polynomials import InexactDivisionError, LaurentPoly, QPolynomial, qbinomial
from .snakes import (
    NotIsomorphicError,
    SnakeSolution,
    all_snakes,
    c_lattice,
    cached_isomorphism,
    catalan_tuples,
    enumerate_tilings,
    is_tiling,
    legal_snake_moves,
    ming_digraph,
    render_tiling,
    replay_snakes,
    solve_snakes,
    verify_isomorphism,
)
from .switchgame import (
    SwitchSolution,
    b_inv,
    b_map,
    mixedmiddleswitch_digraph,
    replay_switches,
    solve_mixedmiddleswitch,
    switch_moves,
    z_lattice,
)

__version__ = "0.1.0"
