"""The package namespace, and what each command imports.

``colorlattice`` binds its public names lazily (PEP 562), and the CLI loads a
family's modules only when a command reaches that family.  These tests pin
the public names and check, in fresh interpreters that compile every module
from source, which modules each kind of command loads.
"""

import json
import subprocess
import sys

import pytest

import colorlattice
from helpers import module_env

# The public names, in the order of the submodules that the package once
# imported eagerly.
EXPORTS = [
    "RootData", "UnrankedComponentError", "alternant", "bialternant_check",
    "closed_card_c", "closed_rgf_b", "closed_rgf_c", "is_structured",
    "is_symmetric_unimodal", "orbit", "poset_weights", "product_rgf", "rgf",
    "root_data", "w_invariant", "weyl_group", "wgf", "CapExceededError",
    "ColoredDigraph", "DiamondLattice", "LatticeError", "NotRankedError",
    "TupleLattice",
    "UnreachableError", "VertexColoredPoset", "attach_birkhoff_coords",
    "bfs_distance", "ideals_lattice", "is_diamond_colored",
    "is_topographically_balanced", "join_irreducibles", "rank_function",
    "to_dot", "tuple_lattice", "Board", "DominoSolution", "a_lattice",
    "dec_admissible", "dec_lattice",
    "domino_digraph", "enumerate_box_partitions", "enumerate_tableaux",
    "is_ballot", "is_box_partition", "is_staircase", "kn_admissible",
    "kn_lattice", "l_inv", "l_map", "legal_moves", "part_to_tab",
    "replay_domino", "sigma", "solve_domino", "tab_to_part", "wt_c",
    "PathCertificate", "color_counts", "gods_number", "lattice_distance",
    "shortest_path",
    "InexactDivisionError", "LaurentPoly", "QPolynomial", "qbinomial",
    "NotIsomorphicError", "SnakeSolution", "all_snakes", "c_lattice",
    "cached_isomorphism", "catalan_tuples", "enumerate_tilings", "is_tiling",
    "legal_snake_moves", "ming_digraph", "render_tiling", "replay_snakes",
    "solve_snakes", "verify_isomorphism", "SwitchSolution", "b_inv", "b_map",
    "mixedmiddleswitch_digraph", "replay_switches", "solve_mixedmiddleswitch",
    "switch_moves", "z_lattice",
]
FAMILY_MODULES = ("characters", "dominoes", "paths", "polynomials", "snakes")


def test_all_lists_every_export_once():
    assert len(set(colorlattice.__all__)) == len(colorlattice.__all__) == 87
    assert sorted(colorlattice.__all__) == sorted(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_its_submodule_attribute(name):
    value = getattr(colorlattice, name)
    home = sys.modules[f"colorlattice.{colorlattice._HOME[name]}"]
    assert value is getattr(home, name)
    assert name in dir(colorlattice)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from colorlattice import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(EXPORTS)
    assert all(namespace[name] is getattr(colorlattice, name) for name in EXPORTS)


def test_moved_error_keeps_both_homes():
    from colorlattice import core, snakes
    assert colorlattice.NotIsomorphicError is core.NotIsomorphicError \
        is snakes.NotIsomorphicError


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve_everything'"):
        colorlattice.solve_everything
    with pytest.raises(ImportError):
        exec("from colorlattice import solve_everything", {})


# Each probe runs in a fresh interpreter that writes no bytecode, and prints
# the exit code of its command and the package modules (and ``fractions``)
# it loaded.
PROBE = """
import json, sys
from colorlattice.cli import main
code = main({argv!r}) if {argv!r} else 0
print(json.dumps({{"code": code, "modules": sorted(
    m.partition(".")[2] for m in sys.modules if m.startswith("colorlattice.")
) + ["fractions"] * ("fractions" in sys.modules)}}))
"""


def fresh(code):
    """The last line that ``code`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=module_env(PYTHONDONTWRITEBYTECODE="1"),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded(*argv):
    result = json.loads(fresh(PROBE.format(argv=list(argv))))
    return result["code"], set(result["modules"])


def test_a_bare_import_still_reaches_each_submodule():
    assert fresh("import colorlattice; "
                 "print(colorlattice.snakes.NotIsomorphicError.__module__)") \
        == "colorlattice.core"


# What ``import colorlattice.cli`` loads; a solve adds only its family's
# modules, and never the explicit oracle or the tableau codings.
KERNEL = {"cli", "core", "switchgame"}
ORACLE = {"explicit", "tableaux"}


def test_importing_the_cli_loads_no_family_module():
    code, modules = loaded()
    assert code == 0
    assert modules == KERNEL


def test_a_switch_solve_loads_no_board_or_snake_module():
    code, modules = loaded("solve", "mixedmiddleswitch", "--n", "5",
                           "--from", "00000", "--to", "01010")
    assert code == 0
    assert modules == KERNEL


def test_a_board_solve_loads_no_snake_or_character_module():
    code, modules = loaded("solve", "domino-ballot", "--k", "3", "--n", "3",
                           "--from", "3,2,1", "--to", "0,0,0", "--json")
    assert code == 0
    assert modules == KERNEL | {"dominoes"}


@pytest.mark.parametrize("argv, family_modules", [
    (("mixedmiddleswitch", "--n", "6", "--from", "101010", "--to", "000000",
      "--via", "meet"), set()),
    (("domino-staircase", "--k", "2", "--n", "3", "--from", "4,1",
      "--to", "1,0", "--via", "meet"), {"dominoes"}),
    (("domino-full", "--k", "2", "--n", "3", "--from", "4,4",
      "--to", "0,0", "--json"), {"dominoes"}),
    (("snakes", "--n", "3", "--from", "3,3,0", "--to", "0,0,0"),
     {"dominoes", "snakes"}),
    (("snakes", "--n", "4", "--from", "4,4,1,0", "--to", "2,1,0,0",
      "--via", "meet", "--json"), {"dominoes", "snakes"}),
])
def test_a_solve_compiles_only_the_solve_path(argv, family_modules):
    code, modules = loaded("solve", *argv)
    assert code == 0
    assert modules == KERNEL | family_modules
    assert not modules & ORACLE


def test_listings_and_boards_load_no_oracle():
    for argv in (("enumerate", "snakes", "--n", "3"),
                 ("export", "--family", "domino-ballot", "--k", "2", "--n", "3",
                  "--format", "text-board")):
        code, modules = loaded(*argv)
        assert code == 0
        assert not modules & ORACLE


def test_a_dot_export_loads_the_explicit_oracle_only():
    code, modules = loaded("export", "--family", "snakes", "--n", "3",
                           "--format", "dot")
    assert code == 0
    assert "explicit" in modules
    assert not modules & {"tableaux", "verify", "paths", "characters"}


def test_verify_all_loads_every_module_and_passes():
    code, modules = loaded("verify", "all")
    assert code == 0
    assert modules >= {"cli", "core", "switchgame", "verify", "fractions",
                       *FAMILY_MODULES, *ORACLE}
