"""The package's acceptance gate.

Ten numbered criteria, one test each, every test printing a single
``[criterion N] PASS/FAIL`` line (visible under ``pytest -s`` or in the
captured output of a failing run).  All quantities here are exact integer
or polynomial identities — there are no floating-point tolerances to pin.
"""

import json
import pathlib
import random
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from math import comb

from colorlattice import (
    b_map,
    bfs_distance,
    bialternant_check,
    c_lattice,
    cached_isomorphism,
    catalan_tuples,
    closed_card_c,
    closed_rgf_c,
    closed_rgf_b,
    dec_lattice,
    domino_digraph,
    enumerate_tableaux,
    enumerate_tilings,
    is_diamond_colored,
    is_structured,
    is_symmetric_unimodal,
    is_topographically_balanced,
    kn_lattice,
    l_map,
    lattice_distance,
    mixedmiddleswitch_digraph,
    ming_digraph,
    orbit,
    poset_weights,
    a_lattice,
    qbinomial,
    LaurentPoly,
    QPolynomial,
    rgf,
    root_data,
    shortest_path,
    solve_mixedmiddleswitch,
    solve_snakes,
    tab_to_part,
    verify_isomorphism,
    wgf,
    wt_c,
    z_lattice,
)
from colorlattice.dominoes import is_ballot, is_staircase, enumerate_box_partitions
from helpers import all_shortest_paths, random_lattice

DATA = pathlib.Path(__file__).parent / "data"


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL - {text}")
        raise
    else:
        print(f"[criterion {number:2d}] PASS - {text}")


def test_criterion_01_flagship_instance():
    with criterion(1, "all-off to alternating on five switches takes 10 moves"):
        sol = solve_mixedmiddleswitch(5, (0, 0, 0, 0, 0), (0, 1, 0, 1, 0))
        assert sol.distance == 10
        assert bfs_distance(mixedmiddleswitch_digraph(5),
                            (0, 0, 0, 0, 0), (0, 1, 0, 1, 0)) == 10


def test_criterion_02_switch_encoding_and_distances():
    with criterion(2, "rows of 2..6 switches: encoding is a color bijection, "
                      "every pairwise distance matches search"):
        for n in range(2, 7):
            lat = z_lattice(n)
            game = mixedmiddleswitch_digraph(n)
            assert len(lat) == len(game) == 2 ** n
            mapped = {(b_map(u), b_map(v), c) for (u, v, c) in lat.diagram.edges}
            assert mapped == set(game.edges)
            verts = lat.diagram.vertices
            for s, t in combinations(verts, 2):
                assert lattice_distance(lat, s, t) == \
                    bfs_distance(lat.diagram, s, t)


def test_criterion_03_switch_rank_generating_function():
    with criterion(3, "rank generating function of the switch lattice is "
                      "prod (1+q^i), its degree n(n+1)/2"):
        for n in range(2, 9):
            p = rgf(z_lattice(n))
            assert p == closed_rgf_b(n)
            assert p.degree == n * (n + 1) // 2 == z_lattice(n).length


def test_criterion_04_frozen_reference_graphs():
    with criterion(4, "bundled five-switch and 3x3-ballot graph snapshots "
                      "match vertex for vertex, edge for edge"):
        snap = json.loads((DATA / "switch_graph_n5.json").read_text())
        assert len(snap["vertices"]) == 32
        for row in snap["vertices"]:
            assert b_map(tuple(row["tuple"])) == tuple(int(c) for c in row["bits"])
        want = {(tuple(a), tuple(b), c) for a, b, c in snap["edges"]}
        assert set(z_lattice(5).diagram.edges) == want

        snap = json.loads((DATA / "ballot_graph_k3n3.json").read_text())
        assert len(snap["vertices"]) == 14
        for row in snap["vertices"]:
            T = tuple(row["tableau"])
            assert tab_to_part(T) == tuple(row["partition"])
            assert wt_c(T, 3) == tuple(row["weight"])
        want = {(tuple(a), tuple(b), c) for a, b, c in snap["edges"]}
        assert set(domino_digraph("ballot", 3, 3).edges) == want


def test_criterion_05_domino_lattice_counts_and_rgf():
    with criterion(5, "both tableau families and both induced lattices share "
                      "the closed cardinality; lengths and rank polynomials "
                      "match the closed q-form (k <= n <= 5)"):
        for n in range(1, 6):
            for k in range(1, n + 1):
                count = closed_card_c(n, k)
                assert len(enumerate_tableaux("king", k, n)) == count
                assert len(enumerate_tableaux("seminarii", k, n)) == count
                for lat in (kn_lattice(k, n), dec_lattice(k, n)):
                    assert len(lat) == count
                    assert lat.length == k * (2 * n - k)
                    assert rgf(lat) == closed_rgf_c(n, k)


def test_criterion_06_rewriting_is_a_colored_isomorphism():
    with criterion(6, "the five-stage rewriting carries staircase moves onto "
                      "the first lattice and ballot moves onto the second "
                      "(k <= n <= 4), sending (4,3) to (1,1)"):
        assert l_map((4, 3), 2, 3) == (1, 1)
        pairs = {"staircase": kn_lattice, "ballot": dec_lattice}
        for n in range(1, 5):
            for k in range(1, n + 1):
                for kind, build in pairs.items():
                    image = {(l_map(u, k, n), l_map(v, k, n), c)
                             for (u, v, c) in domino_digraph(kind, k, n).edges}
                    assert image == set(build(k, n).diagram.edges)


def test_criterion_07_weights_and_characters():
    with criterion(7, "all four weight multisets coincide (k <= n <= 4); the "
                      "generating functions pass the bialternant test in "
                      "family C (n <= 3) and family B (n <= 4)"):
        for n in range(2, 5):
            rd = root_data("C", n)
            for k in range(1, n + 1):
                kn, dec = kn_lattice(k, n), dec_lattice(k, n)
                kn_wt = Counter(poset_weights(kn, rd).values())
                dec_wt = Counter(poset_weights(dec, rd).values())
                king = Counter(wt_c(T, n) for T in enumerate_tableaux("king", k, n))
                semi = Counter(wt_c(T, n) for T in enumerate_tableaux("seminarii", k, n))
                assert kn_wt == dec_wt == king == semi
                if n <= 3:
                    lam = tuple(int(i == k - 1) for i in range(n))
                    assert bialternant_check(rd, lam, wgf(kn, rd))
        for n in range(2, 5):
            rd = root_data("B", n)
            spin = tuple([0] * (n - 1) + [1])
            assert bialternant_check(rd, spin, wgf(z_lattice(n), rd))


def test_criterion_08_weyl_structure_and_rank_symmetry():
    with criterion(8, "switch lattices realize the free spin orbit (n <= 4) "
                      "and are B-structured (n <= 6); every Weyl-certified "
                      "bundled lattice has a symmetric unimodal rank "
                      "polynomial"):
        for n in range(2, 5):
            rd = root_data("B", n)
            spin = tuple([0] * (n - 1) + [1])
            assert wgf(z_lattice(n), rd) == \
                LaurentPoly([(mu, 1) for mu in orbit(rd, spin)])
        for n in range(2, 7):
            assert is_structured(z_lattice(n), root_data("B", n))
        for n in range(2, 7):
            assert is_symmetric_unimodal(rgf(z_lattice(n)))
        for n in range(1, 5):
            for k in range(1, n + 1):
                assert is_symmetric_unimodal(rgf(kn_lattice(k, n)))
                assert is_symmetric_unimodal(rgf(dec_lattice(k, n)))
        for k in range(1, 5):
            for m in range(1, 5):
                assert is_symmetric_unimodal(rgf(a_lattice(k, m)))
                assert rgf(a_lattice(k, m)) == qbinomial(k + m, k)


def test_criterion_09_square_board_correspondence():
    with criterion(9, "tilings are counted by the Catalan numbers (n <= 6), "
                      "the closed-form correspondence is a colored "
                      "isomorphism onto the tuple lattice (n <= 5), and "
                      "the pinned 7-move instance matches search"):
        for n in range(1, 7):
            catalan = comb(2 * n + 2, n + 1) // (n + 2)
            assert len(enumerate_tilings(n)) == catalan
            assert len(catalan_tuples(n)) == catalan
        for n in range(1, 6):
            mapping = cached_isomorphism(n)
            verify_isomorphism(c_lattice(n).diagram, ming_digraph(n), mapping)
        sol = solve_snakes(4, (4, 4, 1, 0), (1, 0, 0, 0))
        assert sol.distance == 7
        assert bfs_distance(ming_digraph(4), (4, 4, 1, 0), (1, 0, 0, 0)) == 7


def test_criterion_10_random_lattice_certification():
    with criterion(10, "across 120 random order-ideal lattices: formula "
                       "distance equals search distance on every pair, "
                       "geodesics share color multisets, certificates "
                       "replay and attain the optimum"):
        for seed in range(120):
            lat = random_lattice(seed)
            assert is_diamond_colored(lat.diagram)
            assert is_topographically_balanced(lat.diagram)
            verts = lat.diagram.vertices
            rng = random.Random(seed)
            for s, t in combinations(verts, 2):
                d = lattice_distance(lat, s, t)
                assert d == bfs_distance(lat.diagram, s, t)
            sampled = 0
            for s, t in rng.sample(list(combinations(verts, 2)),
                                   min(4, len(verts) * (len(verts) - 1) // 2)):
                d = lattice_distance(lat, s, t)
                via = rng.choice(["join", "meet"])
                cert = shortest_path(lat, s, t, via=via)
                cert.validate(lat)
                assert cert.distance == d
                if d <= 5:
                    profiles = {frozenset(p.color_multiset().items())
                                for p in all_shortest_paths(lat, s, t, cap=5)}
                    assert len(profiles) == 1
                    sampled += 1
