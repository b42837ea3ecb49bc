"""Checkerboard tiling puzzles: boards, moves, codings, induced lattices."""

import json
import pathlib
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlattice import (
    Board,
    ColoredDigraph,
    DiamondLattice,
    DominoSolution,
    LatticeError,
    a_lattice,
    attach_birkhoff_coords,
    closed_card_c,
    closed_rgf_c,
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
    qbinomial,
    replay_domino,
    rgf,
    sigma,
    solve_domino,
    tab_to_part,
    wt_c,
)
from colorlattice import dominoes, explicit
from colorlattice.dominoes import _decode, _encode, _move, _rows_fit, _wears
from colorlattice.tableaux import _check_tab, box_to_tab, to_tally

DATA = pathlib.Path(__file__).parent / "data"


def test_partition_predicates_police_their_regions():
    assert is_box_partition((3, 1, 0), 3, 4)
    assert not is_box_partition((1, 3, 0), 3, 4)   # not decreasing
    assert not is_box_partition((5, 1, 0), 3, 4)   # too wide
    assert not is_box_partition((3, 1), 3, 4)      # wrong number of rows
    # ballot: row i at most 2n-k-i boxes; staircase: row i at least k-1-i
    assert is_ballot((3, 2, 1), 3, 3) and not is_ballot((3, 3, 0), 3, 3)
    assert is_staircase((2, 1, 0), 3, 3) and not is_staircase((2, 0, 0), 3, 3)


def test_box_partition_listing_is_sorted_and_complete():
    parts = enumerate_box_partitions(2, 2)
    assert parts == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    assert len(enumerate_box_partitions(3, 4)) == 35  # C(7,3)


@pytest.mark.parametrize("variant", ["king", "seminarii"])
@pytest.mark.parametrize("k, n", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_tableau_families_have_the_closed_cardinality(variant, k, n):
    tabs = enumerate_tableaux(variant, k, n)
    assert len(tabs) == closed_card_c(n, k)
    assert len(set(tabs)) == len(tabs)
    for T in tabs:
        assert all(a < b for a, b in zip(T, T[1:]))
        assert 1 <= T[0] and T[-1] <= 2 * n


def test_tableau_and_partition_codings_are_inverse():
    for T in enumerate_tableaux("king", 3, 3):
        assert part_to_tab(tab_to_part(T)) == T
        assert is_ballot(tab_to_part(T), 3, 3)
    for T in enumerate_tableaux("seminarii", 3, 3):
        assert is_staircase(tab_to_part(T), 3, 3)


@pytest.fixture(scope="module")
def ballot_snapshot():
    return json.loads((DATA / "ballot_graph_k3n3.json").read_text())


def test_frozen_ballot_graph_edges(ballot_snapshot):
    want = {(tuple(a), tuple(b), c) for a, b, c in ballot_snapshot["edges"]}
    assert set(domino_digraph("ballot", 3, 3).edges) == want
    assert len(ballot_snapshot["vertices"]) == 14


def test_frozen_ballot_graph_tableaux_and_weights(ballot_snapshot):
    for row in ballot_snapshot["vertices"]:
        T = tuple(row["tableau"])
        assert tab_to_part(T) == tuple(row["partition"])
        assert wt_c(T, 3) == tuple(row["weight"])


class TestRewritingBijection:
    @pytest.mark.parametrize("tau, image", [
        ((3, 2, 1), (0, 0, 0)),
        ((2, 1, 0), (3, 3, 3)),
        ((0, 0, 0), (3, 3, 0)),
    ])
    def test_pinned_images_on_the_three_by_three_board(self, tau, image):
        assert l_map(tau, 3, 3) == image
        assert l_inv(image, 3, 3) == tau

    def test_smallest_interesting_case(self):
        assert l_map((4, 3), 2, 3) == (1, 1)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
           st.randoms(use_true_random=False))
    def test_round_trips_everywhere(self, k, n, rng):
        if k > n:
            k, n = n, k
        tau = sorted((rng.randint(0, 2 * n - k) for _ in range(k)), reverse=True)
        tau = tuple(tau)
        assert l_inv(l_map(tau, k, n), k, n) == tau
        assert l_map(l_inv(tau, k, n), k, n) == tau

    def test_rejects_shapes_outside_the_box(self):
        with pytest.raises(ValueError):
            l_map((5, 0), 2, 3)
        with pytest.raises(ValueError):
            l_inv((2, 3), 2, 3)


def test_admissibility_spot_checks():
    assert not kn_admissible((4, 0), 2, 3)
    assert kn_admissible(l_map((2, 1, 0), 3, 3), 3, 3)      # staircase image
    assert dec_admissible(l_map((0, 0, 0), 3, 3), 3, 3)     # ballot image
    kn = {v for v in enumerate_box_partitions(2, 4) if kn_admissible(v, 2, 3)}
    assert kn == {l_map(tau, 2, 3) for tau in enumerate_box_partitions(2, 4)
                  if is_staircase(tau, 2, 3)}


class TestBoard:
    def test_kind_and_bounds_validation(self):
        with pytest.raises(ValueError):
            Board("round", 2, 3)
        with pytest.raises(ValueError):
            Board("ballot", 3, 2)

    @pytest.mark.parametrize("k, n", [(True, 1), (1, True), (2.0, 3), (2, 3.0)])
    def test_sizes_are_ints_and_never_bools(self, k, n):
        with pytest.raises(ValueError, match=r"^board sizes must be ints, got k=.*, n=.*$"):
            Board("full", k, n)

    def test_geometry_of_the_three_kinds(self):
        ballot, stair, full = (Board(kind, 2, 3)
                               for kind in ("ballot", "staircase", "full"))
        assert all(b.width == 4 for b in (ballot, stair, full))
        assert ballot.has_square(2, 3) and not ballot.has_square(2, 4)
        # the staircase board chops the lower-left stairs away
        assert stair.has_square(1, 2) and not stair.has_square(1, 1)
        assert stair.has_square(2, 1)
        assert Board("staircase", 3, 3).has_square(2, 1) is False
        assert full.has_square(2, 4)

    def test_northeast_corner_is_red(self):
        for kind in ("ballot", "staircase", "full"):
            b = Board(kind, 3, 5)
            assert b.is_red(*b.singleton)

    def test_diagonal_indexing(self):
        b = Board("ballot", 2, 3)
        assert b.removing_index(1, 4) == 3
        assert b.adding_index(1, 3) == 2
        with pytest.raises(ValueError):
            b.removing_index(1, 3)   # white square
        with pytest.raises(ValueError):
            b.adding_index(1, 4)     # red square

    def test_full_board_relabels_its_white_diagonals(self):
        b = Board("full", 2, 3)
        assert b.adding_label(1, 3) == 2 * 3 - b.adding_index(1, 3) == 4

    def test_ascii_rendering_is_frozen(self):
        assert Board("ballot", 2, 3).render_ascii() == (
            "W1   R2   W2   R3\n"
            "R1   W1   R2")


def per_kind_has_square(board, r, c):
    """Reference for ``Board.has_square``: one clause per board kind."""
    if not (1 <= r <= board.k and 1 <= c <= board.width):
        return False
    if board.kind == "ballot":
        return c <= board.width - r + 1
    if board.kind == "staircase":
        return c >= board.k + 1 - r
    return True


def test_has_square_keeps_the_per_kind_clauses():
    # every square of the grid and of a one-square frame around it
    for n in range(1, 7):
        for k in range(1, n + 1):
            for kind in ("ballot", "staircase", "full"):
                board = Board(kind, k, n)
                for r in range(k + 2):
                    for c in range(board.width + 2):
                        assert board.has_square(r, c) \
                            == per_kind_has_square(board, r, c), (kind, k, n, r, c)


def test_diagonal_indices_refuse_exactly_the_squares_of_the_other_color():
    # the indices read the checker color off the parity of c - r + k;
    # the reference tests it by ``is_red`` as well
    def reference(board, r, c, red, offset, top):
        i, rem = divmod(c - r + board.k + offset, 2)
        return None if rem or board.is_red(r, c) != red or not 1 <= i <= top else i

    def index(method, r, c):
        try:
            return method(r, c)
        except ValueError:
            return None

    for n in range(1, 7):
        for k in range(1, n + 1):
            for kind in ("ballot", "staircase", "full"):
                board = Board(kind, k, n)
                for r in range(-1, k + 3):
                    for c in range(-1, board.width + 3):
                        assert index(board.removing_index, r, c) \
                            == reference(board, r, c, True, 1, n)
                        assert index(board.adding_index, r, c) \
                            == reference(board, r, c, False, 0, n - 1)


def test_board_validity_is_the_per_kind_predicate():
    # Board.valid reads the row bounds; the public predicates state each kind
    oddities = [True, False, 1.0, "1", None]
    for n in range(1, 5):
        for k in range(1, n + 1):
            for kind in ("ballot", "staircase", "full"):
                board = Board(kind, k, n)
                want = {"ballot": lambda tau: is_ballot(tau, k, n),
                        "staircase": lambda tau: is_staircase(tau, k, n),
                        "full": lambda tau: is_box_partition(tau, k, board.width)}[kind]
                values = range(-1, board.width + 2)
                cases = [tau for length in (k - 1, k, k + 1) if length <= 3
                         for tau in product(values, repeat=length)]
                cases += list(product(values, repeat=k))
                cases += [tau[:i] + (odd,) + tau[i + 1:] for tau in board.partitions()
                          for i in range(k) for odd in oddities]
                for tau in cases:
                    assert board.valid(tau) == want(tau), (kind, k, n, tau)
                    assert board.valid(list(tau)) == want(tau)


def test_legal_moves_from_the_full_staircase_is_one_singleton():
    board = Board("ballot", 3, 3)
    assert legal_moves(board, (3, 2, 1)) == [("remove", ((1, 3),), 3, (2, 2, 1))]
    # outside callers keep the check the move graph skips on its own vertices
    with pytest.raises(ValueError, match=r"\(3, 3, 3\) is not a ballot partition here"):
        legal_moves(board, (3, 3, 3))


def test_box_lattice_covers_add_single_boxes_with_diagonal_colors():
    lat = a_lattice(2, 4)
    assert len(lat) == 15
    assert lat.diagram.edge_color((1, 1), (2, 1)) == 3
    assert rgf(lat) == qbinomial(6, 2)


def test_color_folding_and_its_guards():
    assert [sigma(i, 3) for i in range(1, 6)] == [1, 2, 3, 2, 1]
    with pytest.raises(ValueError):
        sigma(0, 3)
    with pytest.raises(ValueError):
        sigma(6, 3)


# (4, 8) is past the sizes a build that certified every pair could afford
@pytest.mark.parametrize("k, n", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (4, 8)])
def test_induced_lattices_count_and_rank_correctly(k, n):
    for lat in (kn_lattice(k, n), dec_lattice(k, n)):
        assert len(lat) == closed_card_c(n, k)
        assert lat.length == k * (2 * n - k)
        assert rgf(lat) == closed_rgf_c(n, k)


def folded_box_sublattice(k, n, admissible):
    """The admissible vertices of the box lattice a_lattice(k, 2n-k), the
    edges between them, and every color folded by sigma."""
    box = a_lattice(k, 2 * n - k)
    keep = [v for v in box.vertices if admissible(v, k, n)]
    kept = set(keep)
    edges = [(u, v, sigma(c, n)) for (u, v, c) in box.diagram.edges
             if u in kept and v in kept]
    return attach_birkhoff_coords(
        DiamondLattice(ColoredDigraph(keep, edges), "distributive"))


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 6)
                                  for k in range(1, n + 1)])
def test_symplectic_lattices_are_folded_box_sublattices(k, n):
    for build, admissible in ((kn_lattice, kn_admissible),
                              (dec_lattice, dec_admissible)):
        lat, oracle = build(k, n), folded_box_sublattice(k, n, admissible)
        assert lat.diagram == oracle.diagram
        assert lat.ideal_coords == oracle.ideal_coords


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 5)
                                  for k in range(1, n + 1)])
def test_closure_certificate_agrees_with_the_bound_search(k, n):
    # check_lattice fails unless each pair's ideal union and intersection
    # are vertices' ideals, of the order join and meet
    for lat in (kn_lattice(k, n), dec_lattice(k, n)):
        lat.check_lattice()


def _max(a, b):
    return tuple(map(max, a, b))


def _min(a, b):
    return tuple(map(min, a, b))


def tuple_diagram(tuples, join=_max, meet=_min):
    """Unit-step covers among 0/1 tuples, colored by the raised coordinate."""
    edges = [(u, v, q + 1) for u in tuples for v in tuples
             for q in range(len(u))
             if v == u[:q] + (u[q] + 1,) + u[q + 1:]]
    return DiamondLattice(ColoredDigraph(tuples, edges), "distributive",
                          coord_join=join, coord_meet=meet)


_CUBE = ["000", "100", "010", "001", "110", "101", "011", "111"]


@pytest.mark.parametrize("tuples, join, meet, match", [
    # 1000 and 0100 have two minimal upper bounds, 1110 and 1101: not a
    # lattice, which the certificate refuses before any rule is read
    (["0000", "1000", "0100", "1010", "0110", "1001", "0101",
      "1110", "1101", "1111"], _max, _min,
     "^6 join irreducibles in a lattice of length 4; lattice not distributive$"),
    # 100 and 010 have the join 111 in the order, but not their max 110:
    # a lattice, but not a distributive one
    (["000", "100", "010", "001", "101", "011", "111"], _max, _min,
     "^4 meet irreducibles in a lattice of length 3; lattice not distributive$"),
    # on the whole cube, a join rule naming the top gives a common upper
    # bound of every pair, but not the least one; dually for the meet
    (_CUBE, lambda a, b: (1, 1, 1), _min, "not their least upper bound"),
    (_CUBE, _max, lambda a, b: (0, 0, 0), "not their greatest lower bound"),
    # the rules swapped: the join rule names a common lower bound, which
    # lies below every common upper bound but is not one; dually the meet
    (_CUBE, _min, _min, "not their least upper bound"),
    (_CUBE, _max, _max, "not their greatest lower bound"),
], ids=["two-minimal-bounds", "max-missing", "top-join", "bottom-meet",
        "min-join", "max-meet"])
def test_check_lattice_rejects_doctored_diagrams(tuples, join, meet, match):
    lat = tuple_diagram([tuple(map(int, word)) for word in tuples], join, meet)
    with pytest.raises(LatticeError, match=match):
        lat.check_lattice()


def test_check_lattice_passes_the_cube_with_max_and_min():
    tuple_diagram([tuple(map(int, word)) for word in _CUBE]).check_lattice()


class TestSolving:
    def test_staircase_to_empty_costs_six(self):
        sol = solve_domino("ballot", 3, 3, (3, 2, 1), (0, 0, 0))
        assert sol.distance == 6
        assert sum(sol.color_counts.values()) == 6

    def test_near_miss_costs_nine(self):
        # one diagonal away in shape, yet further apart than from empty
        sol = solve_domino("ballot", 3, 3, (3, 2, 1), (2, 1, 0))
        assert sol.distance == 9

    @pytest.mark.parametrize("via", ["join", "meet"])
    def test_both_turning_rules_replay_cleanly(self, via):
        sol = solve_domino("staircase", 2, 3, (4, 1), (1, 1), via=via)
        replay_domino(Board("staircase", 2, 3), sol)
        assert sol.states[0] == (4, 1) and sol.states[-1] == (1, 1)

    def test_serialization_shows_tile_actions(self):
        sol = solve_domino("ballot", 3, 3, (3, 2, 1), (0, 0, 0))
        first = sol.serialize().splitlines()[1]
        assert first == "3,2,1 --3--> 2,2,1  [remove (1,3)]"

    def test_replay_rejects_forged_actions(self):
        sol = solve_domino("ballot", 3, 3, (3, 2, 1), (0, 0, 0))
        verb, squares, color = sol.actions[0]
        forged = DominoSolution(
            sol.kind, sol.k, sol.n, sol.states,
            (("add", squares, color),) + sol.actions[1:],
            sol.color_counts, sol.certificate)
        with pytest.raises(AssertionError):
            replay_domino(Board("ballot", 3, 3), forged)

    def test_replay_rejects_a_gap_in_a_row(self):
        sol = solve_domino("ballot", 3, 3, (3, 2, 1), (0, 0, 0))
        _verb, _squares, color = sol.actions[0]
        # lifting the first two squares of row 1 strands its third square
        forged = DominoSolution(
            sol.kind, sol.k, sol.n, sol.states,
            (("remove", ((1, 1), (1, 2)), color),) + sol.actions[1:],
            sol.color_counts, sol.certificate)
        with pytest.raises(AssertionError, match="not left-justified"):
            replay_domino(Board("ballot", 3, 3), forged)

    @pytest.mark.parametrize("verb, squares, message", [
        # a replay that counts set(squares) takes this one
        ("remove", ((1, 2), (2, 2), (1, 2)), "bad tile count"),
        ("remove", ((1, 2), (1, 2)), "not a domino"),
        # a domino, but not at the ends of rows 1 and 2
        ("remove", ((1, 1), (2, 1)), "not at their rows' ends"),
        ("lift", ((1, 2), (2, 2)), "unknown verb"),
    ])
    def test_replay_refuses_squares_off_the_row_ends(self, verb, squares, message):
        board = Board("ballot", 3, 3)
        states = [(2, 2, 1), (1, 1, 1)]
        replay_domino(board, DominoSolution(
            "ballot", 3, 3, states, [("remove", ((1, 2), (2, 2)), 2)], {}, None))
        forged = DominoSolution("ballot", 3, 3, states,
                                [(verb, squares, 2)], {}, None)
        with pytest.raises(AssertionError, match=message):
            replay_domino(board, forged)

    def test_non_member_endpoints_are_refused(self):
        with pytest.raises(ValueError, match="not a ballot"):
            solve_domino("ballot", 3, 3, (3, 3, 0), (0, 0, 0))


def four_case_moves(board, tau):
    """Reference for ``legal_moves``: the four tile cases and the singleton.

    Removals go forward when their tiles sit red-west (horizontal),
    red-south (vertical), or are the red corner singleton; additions go
    forward when their tiles sit red-east (horizontal) or red-north
    (vertical).  Records are (verb, squares, color, result).
    """
    k, width = board.k, board.width
    moves = []

    def parts_with(updates):
        out = list(tau)
        for r, delta in updates:
            out[r - 1] += delta
        return tuple(out)

    def record(verb, squares, color, result):
        moves.append((verb, tuple(sorted(squares)), color, result))

    for r in range(1, k + 1):
        cur = tau[r - 1]
        if cur >= 2:
            result = parts_with([(r, -2)])
            if board.valid(result) and board.is_red(r, cur - 1):
                record("remove", [(r, cur - 1), (r, cur)],
                       board.removing_index(r, cur - 1), result)
        result = parts_with([(r, +2)])
        if board.valid(result) and not board.is_red(r, cur + 1):
            record("add", [(r, cur + 1), (r, cur + 2)],
                   board.adding_label(r, cur + 1), result)
        if r < k and tau[r - 1] == tau[r]:
            if cur >= 1:
                result = parts_with([(r, -1), (r + 1, -1)])
                if board.valid(result) and board.is_red(r + 1, cur):
                    record("remove", [(r, cur), (r + 1, cur)],
                           board.removing_index(r + 1, cur), result)
            result = parts_with([(r, +1), (r + 1, +1)])
            if board.valid(result) and board.is_red(r, cur + 1):
                record("add", [(r, cur + 1), (r + 1, cur + 1)],
                       board.adding_label(r + 1, cur + 1), result)
    if tau[0] == width:
        result = parts_with([(1, -1)])
        if board.valid(result):
            record("remove", [board.singleton], board.removing_index(1, width),
                   result)
    assert all(board.has_square(*sq) for mv in moves for sq in mv[1])
    return moves


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 7)
                                  for k in range(1, n + 1)])
def test_legal_moves_equal_the_four_case_generator(k, n):
    for kind in ("ballot", "staircase", "full"):
        board = Board(kind, k, n)
        for tau in board.partitions():
            assert legal_moves(board, tau) == four_case_moves(board, tau)


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 7)
                                  for k in range(1, n + 1)])
def test_touched_rows_decide_a_candidate_as_the_full_check_does(k, n):
    # every tile that ``_move`` plays at a row end, either way, whatever
    # verb ``_wears`` gives it, on the board or off it: a superset of the
    # candidates ``legal_moves`` and ``replay_domino`` test, with results
    # outside the kind
    outside = 0
    for kind in ("ballot", "staircase", "full"):
        board = Board(kind, k, n)
        for tau in board.partitions():
            tiles = [(board.singleton,)]
            for r, cur in enumerate(tau, 1):
                tiles += [((r, cur - 1), (r, cur)), ((r, cur + 1), (r, cur + 2))]
                if r < k:
                    tiles += [((r, c), (r + 1, c)) for c in (cur, cur + 1)]
            for tile in tiles:
                for add in (True, False):
                    result = _move(tau, tile, add)
                    if result is not None:
                        valid = board.valid(result)
                        assert _rows_fit(board, result, {r for r, _ in tile}) \
                            == valid, (kind, tau, tile, add)
                        outside += not valid
    assert outside


def has_square_legal_moves(board, tau):
    """Reference for ``explicit._legal_moves``: each candidate tile tested
    square by square with ``Board.has_square`` before ``_wears`` reads its
    colors, then by the verb and the touched rows."""
    tiles = []
    for r, cur in enumerate(tau, 1):
        tiles += [(False, ((r, cur - 1), (r, cur))),
                  (True, ((r, cur + 1), (r, cur + 2)))]
        if r < board.k and tau[r] == cur:
            tiles += [(False, ((r, cur), (r + 1, cur))),
                      (True, ((r, cur + 1), (r + 1, cur + 1)))]
    tiles.append((False, (board.singleton,)))
    moves = []
    for add, tile in tiles:
        result = _move(tau, tile, add)
        if result is None or not all(board.has_square(*sq) for sq in tile):
            continue
        verb, color = _wears(board, tile)
        if (verb == "add") == add and _rows_fit(board, result, {r for r, _ in tile}):
            moves.append((verb, tile, color, result))
    return moves


@pytest.mark.parametrize("n", range(1, 8))
def test_the_row_test_keeps_every_moved_square_on_the_board(n):
    # every partition of every kind with k <= n: the same moves in the same
    # order as when each square is tested on the board first
    for k in range(1, n + 1):
        for kind in ("ballot", "staircase", "full"):
            board = Board(kind, k, n)
            for tau in board.partitions():
                assert explicit._legal_moves(board, tau) \
                    == has_square_legal_moves(board, tau), (kind, k, n, tau)


def test_the_move_graph_and_the_replay_share_one_row_test():
    assert explicit._rows_fit is _rows_fit


def test_touched_rows_keep_the_row_bound_of_their_kind():
    # the row bounds of the kind, which also keep a move's squares on the
    # board: ``legal_moves`` tests that nowhere else
    assert not _rows_fit(Board("ballot", 2, 2), (2, 2), {2})
    assert _rows_fit(Board("full", 2, 2), (2, 2), {2})
    assert not _rows_fit(Board("staircase", 2, 2), (0, 0), {1})
    assert not _rows_fit(Board("full", 2, 2), (3, 0), {1})
    assert not _rows_fit(Board("full", 2, 2), (1, 2), {2})


@pytest.mark.parametrize("states", [
    # too few states: zip would stop before the one action
    [(2, 2, 1)],
    # too many: zip would drop the last state
    [(2, 2, 1), (1, 1, 1), (1, 1, 1)],
])
def test_replay_refuses_a_state_count_off_the_action_count(states):
    sol = DominoSolution("ballot", 3, 3, states,
                         [("remove", ((1, 2), (2, 2)), 2)], {}, None)
    with pytest.raises(AssertionError, match="states for 1 moves"):
        replay_domino(Board("ballot", 3, 3), sol)


@pytest.mark.parametrize("sol", [
    # (0, 1) is no partition, though laying (1,1),(1,2) lands on (2, 1)
    DominoSolution("ballot", 2, 3, [(0, 1), (2, 1)],
                   [("add", ((1, 1), (1, 2)), 1)], {}, None),
    # a zero-move play checks no later state
    DominoSolution("ballot", 2, 3, [(9, 9)], [], {}, None),
])
def test_replay_refuses_a_play_that_starts_off_the_board(sol):
    with pytest.raises(AssertionError, match="not a ballot partition"):
        replay_domino(Board("ballot", 2, 3), sol)


@pytest.mark.parametrize("sol", [None, (3, 2, 1), [(0, 0), (1, 0)]])
def test_replay_refuses_what_is_not_a_solution(sol):
    # None raised AttributeError on its first attribute read
    with pytest.raises(AssertionError, match=f"^not a DominoSolution: {re.escape(repr(sol))}$"):
        replay_domino(Board("ballot", 2, 3), sol)


@pytest.mark.parametrize("kind, start, end, verb, squares", [
    # row 2, laid on squares of the board, passes the length of row 1
    ("ballot", (0, 0), (1, 1), "add", ((2, 2), (2, 3))),
    # row 1, lifted from squares of the board, sinks under row 2
    ("staircase", (4, 1), (3, 3), "remove", ((1, 2), (1, 3))),
])
def test_replay_refuses_a_step_that_only_its_touched_rows_break(kind, start, end,
                                                                 verb, squares):
    # one step appended to a solved play, on squares of the board and
    # wearing their color, so only the row test can refuse it
    board = Board(kind, 2, 3)
    sol = solve_domino(kind, 2, 3, start, end)
    after = _move(end, squares, verb == "add")
    assert all(board.has_square(*sq) for sq in squares)
    assert after is not None and not board.valid(after)
    forged = DominoSolution(
        kind, 2, 3, sol.states + (after,),
        sol.actions + ((verb, squares, _wears(board, squares)[1]),),
        sol.color_counts, sol.certificate)
    with pytest.raises(AssertionError,
                       match=f"step {sol.distance}: illegal or mismatched result"):
        replay_domino(board, forged)


@pytest.mark.parametrize("kind, states, action", [
    # the ballot bound on row 2 is 3: (2, 4) is off the board
    ("ballot", [(4, 3), (4, 5)], ("add", ((2, 4), (2, 5)), 1)),
    # the staircase keeps row 1 at least 1 long: (1, 1) is off the board
    ("staircase", [(1, 1), (0, 0)], ("remove", ((1, 1), (2, 1)), 1)),
])
def test_a_step_past_a_row_bound_of_the_kind_leaves_the_board(kind, states, action):
    # so the row test never sees it: tiles on the board keep the bounds
    board = Board(kind, 2, 3)
    assert board.valid(states[0]) and not board.valid(states[1])
    with pytest.raises(AssertionError, match="step 0: tile leaves the board"):
        replay_domino(board, DominoSolution(kind, 2, 3, states, [action], {}, None))


@pytest.mark.parametrize("squares", [
    ((1.0, 1), (1.0, 2)),
    ((1, 1, 1), (1, 2)),
    # True == 1, so this tile would replay clean
    ((True, 1), (True, 2)),
])
def test_replay_refuses_a_square_that_is_not_a_pair_of_ints(squares):
    board = Board("ballot", 2, 3)
    replay_domino(board, DominoSolution(
        "ballot", 2, 3, [(0, 0), (2, 0)], [("add", ((1, 1), (1, 2)), 1)], {}, None))
    forged = DominoSolution("ballot", 2, 3, [(0, 0), (2, 0)],
                            [("add", squares, 1)], {}, None)
    with pytest.raises(AssertionError, match="step 0: squares .* are not pairs of ints"):
        replay_domino(board, forged)


@pytest.mark.parametrize("states, action, message", [
    # three squares, one of them (True, 3): the type test comes before the count
    ([(0, 0), (2, 0)], ("add", ((1, 2), (True, 3), (2, 2)), 1), "not pairs of ints"),
    # a float square equal to the corner (1, 4): refused by type, not let through
    ([(4, 0), (3, 0)], ("remove", ((1, 4.0),), 2), "not pairs of ints"),
    # an off-board domino with the wrong color: the board test comes first
    ([(0, 0), (2, 0)], ("add", ((2, 4), (2, 5)), 99), "tile leaves the board"),
    # a singleton off the board and off the corner: the corner test comes first
    ([(4, 0), (3, 0)], ("remove", ((9, 9),), 99), "singleton is not the corner"),
    # not a domino, and an unknown verb
    ([(0, 0), (2, 0)], ("lay", ((1, 1), (2, 2)), 1), "tiles are not a domino"),
    # an unknown verb on squares that are not at their rows' ends
    ([(2, 2), (1, 1)], ("lift", ((1, 1), (2, 1)), 2), "unknown verb"),
    # the wrong verb and the wrong color: the row ends come first
    ([(2, 2), (1, 1)], ("add", ((1, 2), (2, 2)), 99), "not at their rows' ends"),
    # a result other than the next state, and the wrong color
    ([(2, 2), (2, 0)], ("remove", ((1, 2), (2, 2)), 99), "illegal or mismatched result"),
])
def test_the_first_refusal_that_applies_is_the_one_named(states, action, message):
    # each play breaks two rules or more; the replay checks in a fixed order
    with pytest.raises(AssertionError, match=f"step 0: .*{message}"):
        replay_domino(Board("ballot", 2, 3),
                      DominoSolution("ballot", 2, 3, states, [action], {}, None))


def coded_as(monkeypatch, tau, other):
    """Make the solver's coding send ``tau`` where it sends ``other``."""
    real = dominoes._encode
    monkeypatch.setattr(dominoes, "_encode",
                        lambda x, k, n: real(other if x == tau else x, k, n))


def test_a_solve_whose_pushed_play_misses_its_target_is_refused(monkeypatch):
    # the geodesic runs to the code of (1, 1), so the push ends there
    coded_as(monkeypatch, (2, 2), (1, 1))
    with pytest.raises(AssertionError, match="does not reach the target"):
        solve_domino("full", 2, 3, (0, 0), (2, 2))


def test_a_solve_whose_lattice_step_cannot_be_played_is_refused(monkeypatch):
    # the geodesic starts at the code of (1, 0), whose first step moves a
    # value that the rows of (0, 0) do not hold
    coded_as(monkeypatch, (0, 0), (1, 0))
    with pytest.raises(AssertionError, match="step 0: coordinate 2 cannot move"):
        solve_domino("full", 2, 3, (0, 0), (1, 1))


def board_tiles(board):
    """Every tile on the board, its squares sorted: the corner singleton,
    and each domino lying in one row or down one column."""
    squares = [(r, c) for r in range(1, board.k + 1)
               for c in range(1, board.width + 1) if board.has_square(r, c)]
    return [(board.singleton,)] + [
        ((r, c), nb) for r, c in squares for nb in ((r, c + 1), (r + 1, c))
        if board.has_square(*nb)]


@pytest.mark.parametrize("kind", ["ballot", "staircase", "full"])
def test_the_tile_table_is_the_move_rule_on_every_tile(kind):
    for n in range(1, 6):
        for k in range(1, n + 1):
            board = Board(kind, k, n)
            table = dominoes._tiles(kind, k, n)
            for tile in board_tiles(board):
                rows = tuple(sorted({r for r, _ in tile}))
                assert table[tile] == (rows, *_wears(board, tile)), (kind, k, n, tile)
                assert table.get(tile) is table[tile]


def test_replays_on_fresh_boards_share_one_tile_table_per_size():
    # the bench replays each solve on a new Board of the same kind and size
    dominoes._tiles.cache_clear()
    parts = Board("full", 3, 4).partitions()
    for s, t in zip(parts, parts[::-1]):
        sol = solve_domino("full", 3, 4, s, t)
        replay_domino(Board("full", 3, 4), sol)
        replay_domino(Board("full", 3, 4), sol)
    table = dominoes._tiles("full", 3, 4)
    assert dominoes._tiles.cache_info().currsize == 1
    assert 0 < len(table) <= len(board_tiles(Board("full", 3, 4)))


# The board coding as the five stages that define it: partition -> tableau
# -> tally -> reordered tally -> tableau (the ones) -> partition (the
# complementary coding).  ``l_map`` and ``l_inv`` compute it in one step.

def tally_to_tab(t):
    """Positions of the ones, as an increasing tuple."""
    return tuple(i + 1 for i, b in enumerate(t) if b)


def _reorder_perm(n):
    # position i of the reordered sequence reads position perm(i) of the
    # original: odd positions 1,3,...,2n-1 first, then 2n,2n-2,...,2
    return tuple((2 * i - 1 if i <= n else 4 * n + 2 - 2 * i)
                 for i in range(1, 2 * n + 1))


def reorder_tally(t):
    """Rewrite a length-2n tally in the zigzag order t'_i = t_{perm(i)}."""
    t = tuple(t)
    if len(t) % 2 or any(b not in (0, 1) for b in t):
        raise ValueError("expected a 0/1 tuple of even length")
    perm = _reorder_perm(len(t) // 2)
    return tuple(t[p - 1] for p in perm)


def unreorder_tally(tp):
    """Invert reorder_tally."""
    tp = tuple(tp)
    if len(tp) % 2 or any(b not in (0, 1) for b in tp):
        raise ValueError("expected a 0/1 tuple of even length")
    perm = _reorder_perm(len(tp) // 2)
    out = [0] * len(tp)
    for i, p in enumerate(perm):
        out[p - 1] = tp[i]
    return tuple(out)


def tab_to_box(T, m):
    """Invert box_to_tab: tau_j = m + j - T_j."""
    T = _check_tab(T)
    return tuple(m + j + 1 - T[j] for j in range(len(T)))


def pipeline_l_map(tau, k, n):
    tau = tuple(tau)
    if not is_box_partition(tau, k, 2 * n - k):
        raise ValueError(f"not a partition in a {k} x {2 * n - k} box: {tau}")
    T = part_to_tab(tau)
    tp = reorder_tally(to_tally(T, n))
    return tab_to_box(tally_to_tab(tp), 2 * n - k)


def pipeline_l_inv(tau, k, n):
    tau = tuple(tau)
    if not is_box_partition(tau, k, 2 * n - k):
        raise ValueError(f"not a partition in a {k} x {2 * n - k} box: {tau}")
    tp = to_tally(box_to_tab(tau, 2 * n - k), n)
    return tab_to_part(tally_to_tab(unreorder_tally(tp)))


def test_board_coding_equals_the_five_stage_pipeline():
    count = 0
    for n in range(1, 8):
        for k in range(1, 2 * n + 1):
            for tau in enumerate_box_partitions(k, 2 * n - k):
                assert l_map(tau, k, n) == pipeline_l_map(tau, k, n) \
                    == _encode(tau, k, n)
                assert l_inv(tau, k, n) == pipeline_l_inv(tau, k, n) \
                    == _decode(tau, k, n)
                count += 1
    assert count == 21837


@pytest.mark.parametrize("tau, k", [
    ((), 0),              # k = 0: the pipeline finds no tableau
    ((5, 0), 2),          # a part wider than the 2 x 4 box
    ((1, -1), 2),         # a negative part
    ((1, 3), 2),          # an increase
    ((True, 0), 2),
    ((2.0, 1), 2),
    ((2, 1, 0), 2),       # three parts for k = 2
])
@pytest.mark.parametrize("coding", [l_map, l_inv, pipeline_l_map, pipeline_l_inv])
def test_board_coding_refuses_what_the_pipeline_refuses(coding, tau, k):
    with pytest.raises(ValueError) as refusal:
        coding(tau, k, 3)
    if coding in (l_map, l_inv):
        assert str(refusal.value) == f"not a partition in a {k} x {6 - k} box: {tau}"


def test_a_bool_size_does_not_reach_the_cached_board():
    """``True == 1`` and hashes as 1, so an untyped cache would hand a
    bool size the 1 x 1 board it once played on."""
    solve_domino("full", 1, 1, (1,), (0,))
    with pytest.raises(ValueError, match="^board sizes must be ints, got k=True, n=True$"):
        solve_domino("full", True, True, (1,), (0,))
