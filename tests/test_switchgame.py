"""The row-of-switches puzzle and its cushioned-tuple lattice."""

import doctest
import json
import pathlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorlattice import (
    SwitchSolution,
    b_inv,
    b_map,
    gods_number,
    lattice_distance,
    mixedmiddleswitch_digraph,
    replay_switches,
    solve_mixedmiddleswitch,
    switch_moves,
    z_lattice,
)
from colorlattice import explicit
from colorlattice.switchgame import (
    all_cushioned,
    format_bits,
    format_tuple,
    int_to_bits,
    is_cushioned,
    parse_bits,
    parse_tuple,
)

DATA = pathlib.Path(__file__).parent / "data"
README = pathlib.Path(__file__).parent.parent / "README.md"


def test_bit_string_parsing_round_trips_and_rejects_junk():
    assert parse_bits("01010") == (0, 1, 0, 1, 0)
    assert format_bits((0, 1, 0, 1, 0)) == "01010"
    for bad in ("", "012", "1 0", "abc"):
        with pytest.raises(ValueError):
            parse_bits(bad)


def test_tuple_parsing_round_trips_and_rejects_junk():
    assert parse_tuple("4,3,2,1,0") == (4, 3, 2, 1, 0)
    assert format_tuple((4, 3, 2, 1, 0)) == "4,3,2,1,0"
    assert parse_tuple(" 4, 3 ,-1 ") == (4, 3, -1)
    assert parse_tuple(format_tuple((0, -2, 10))) == (0, -2, 10)
    # int() alone reads all of these: 3_0 as 30, +3 and the Arabic-Indic
    # digit three as 3
    for bad in ("4,,1", "", "3_0,0,0", "+3,0", "\u0663,0", "--3", "-", "1.0",
                "1e3", "0x3"):
        with pytest.raises(ValueError, match="not a comma-separated integer tuple"):
            parse_tuple(bad)


@pytest.mark.parametrize("x, ok", [
    ((2, 1), True),
    ((0, 0, 0), True),
    ((3, 1, 0), True),
    ((3, 3, 0), False),      # repeated nonzero entry
    ((0, 1), False),         # zero before a nonzero
    ((4, 1, 0), False),      # entry exceeds the length
    ((1,), False),           # too short
])
def test_cushioned_tuple_predicate(x, ok):
    assert is_cushioned(x) is ok


@pytest.mark.parametrize("n", range(2, 7))
def test_lattice_and_game_graph_both_have_two_to_the_n_positions(n):
    tuples = all_cushioned(n)
    assert len(tuples) == 2 ** n
    assert len(z_lattice(n)) == 2 ** n
    assert len(mixedmiddleswitch_digraph(n)) == 2 ** n
    assert all(is_cushioned(x, n) for x in tuples)


def test_switch_moves_follow_the_five_clauses():
    # only switch 1 fires when its right neighbour is on
    assert switch_moves((0, 1, 0, 1, 0)) == [(1, (1, 1, 0, 1, 0))]
    # the last switch toggles on equal tail bits
    assert switch_moves((0, 0, 0, 0, 0)) == [(5, (0, 0, 0, 0, 1))]
    # interior flips need (0,0,1) or (1,1,0) windows
    assert switch_moves((1, 1, 0, 0, 1)) == [
        (2, (1, 0, 0, 0, 1)),
        (4, (1, 1, 0, 1, 1)),
    ]
    with pytest.raises(ValueError):
        switch_moves((0, 2, 0))


def test_encoding_bijection_pinned_values():
    assert b_map((5, 3, 1, 0, 0)) == (1, 1, 0, 0, 1)
    assert b_inv((0, 1, 1, 0, 0)) == (4, 2, 0, 0, 0)
    assert b_inv((0,) * 6) == (0,) * 6
    assert b_map((0,) * 6) == (0,) * 6


@pytest.mark.parametrize("x", [(1, 2, 0), (3, 3, 0), (4, 0, 0), (1, 0, 1),
                               (-1, 0, 0), (1,), (2.0, 0, 0)])
def test_encoding_refuses_a_tuple_that_is_not_cushioned(x):
    with pytest.raises(ValueError, match="not a cushioned tuple"):
        b_map(x)


@given(st.integers(min_value=2, max_value=9), st.data())
def test_encoding_and_decoding_are_mutually_inverse(n, data):
    parts = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
    x = tuple(sorted(parts, reverse=True)) + (0,) * (n - len(parts))
    assert b_inv(b_map(x)) == x
    bits = tuple(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    assert b_map(b_inv(bits)) == bits


@pytest.fixture(scope="module")
def snapshot():
    return json.loads((DATA / "switch_graph_n5.json").read_text())


class TestFrozenFiveSwitchGraph:
    """The bundled n=5 graph snapshot pins both lattice and game layers."""

    def test_vertices_carry_the_encoding(self, snapshot):
        for row in snapshot["vertices"]:
            assert format_bits(b_map(tuple(row["tuple"]))) == row["bits"]

    def test_lattice_edges_match(self, snapshot):
        want = {(tuple(a), tuple(b), c) for a, b, c in snapshot["edges"]}
        assert set(z_lattice(5).diagram.edges) == want

    def test_game_graph_edges_match_under_the_encoding(self, snapshot):
        want = {(b_map(tuple(a)), b_map(tuple(b)), c)
                for a, b, c in snapshot["edges"]}
        assert set(mixedmiddleswitch_digraph(5).edges) == want


def test_all_off_to_alternating_takes_ten_moves():
    for via in ("join", "meet"):
        sol = solve_mixedmiddleswitch(5, (0, 0, 0, 0, 0), (0, 1, 0, 1, 0), via=via)
        assert sol.distance == 10
        assert len(sol.flips) == 10
        assert sol.positions[0] == (0, 0, 0, 0, 0)
        assert sol.positions[-1] == (0, 1, 0, 1, 0)
        replay_switches(sol)


def test_replay_rejects_a_tampered_solution():
    sol = solve_mixedmiddleswitch(4, (0, 0, 0, 0), (1, 1, 1, 1))
    broken = SwitchSolution(sol.start, sol.target, sol.positions,
                            (sol.flips[0],) + sol.flips[2:], sol.certificate)
    with pytest.raises(AssertionError):
        replay_switches(broken)


@pytest.mark.parametrize("sol", [None, "0011", ((0, 0), (1, 0))])
def test_replay_refuses_what_is_not_a_solution(sol):
    # None raised AttributeError on its first attribute read
    with pytest.raises(AssertionError, match=f"^not a SwitchSolution: {re.escape(repr(sol))}$"):
        replay_switches(sol)


def test_solution_serialization_shows_flip_indices():
    sol = solve_mixedmiddleswitch(3, (0, 0, 0), (0, 0, 1))
    assert sol.serialize().splitlines()[-1] == "000 --3--> 001"


def test_hardest_pair_needs_fifteen_moves():
    assert gods_number(z_lattice(5)) == 15
    top, bottom = (5, 4, 3, 2, 1), (0, 0, 0, 0, 0)
    assert lattice_distance(z_lattice(5), bottom, top) == 15


def test_a_fresh_lattice_build_ranks_its_diagram_once(monkeypatch):
    calls = []
    real = explicit.rank_function
    monkeypatch.setattr(explicit, "rank_function",
                        lambda g: calls.append(g) or real(g))
    z_lattice.__wrapped__(5)
    assert len(calls) == 1


def test_readme_quick_start_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def five_clause_moves(s):
    """Reference for ``switch_moves``: the game's five directed clauses.

    Writing s_i for bit i: an interior i (1 < i < n) flips 0->1 when
    (s_{i-1}, s_i, s_{i+1}) = (0,0,1) and 1->0 when it is (1,1,0); i = 1
    flips 0->1 when (s_1, s_2) = (0,1); i = n flips 0->1 when
    (s_{n-1}, s_n) = (0,0) and 1->0 when it is (1,1).
    """
    n = len(s)

    def flipped(i):
        return s[:i - 1] + (1 - s[i - 1],) + s[i:]

    moves = []
    if (s[0], s[1]) == (0, 1):
        moves.append((1, flipped(1)))
    for i in range(2, n):
        if (s[i - 2], s[i - 1], s[i]) in ((0, 0, 1), (1, 1, 0)):
            moves.append((i, flipped(i)))
    if (s[n - 2], s[n - 1]) in ((0, 0), (1, 1)):
        moves.append((n, flipped(n)))
    return moves


@pytest.mark.parametrize("n", range(2, 11))
def test_switch_moves_equal_the_five_clauses_everywhere(n):
    for v in range(2 ** n):
        s = int_to_bits(v, n)
        assert switch_moves(s) == five_clause_moves(s)


@pytest.mark.parametrize("flip, start, nxt", [
    # negative indexing would read flip -1 as flip 2, which lands on nxt
    (-1, (1, 0, 0), (1, 1, 0)),
    (0, (1, 0, 0), (1, 1, 0)),
    (4, (1, 0, 0), (1, 1, 0)),
    # a bool is no flip index, though True == 1 and flip 1 lands on nxt
    (True, (0, 1, 0), (1, 1, 0)),
])
def test_replay_refuses_a_flip_off_the_row(flip, start, nxt):
    sol = SwitchSolution(start, nxt, [start, nxt], [flip], None)
    with pytest.raises(AssertionError, match=f"flip {flip} illegal"):
        replay_switches(sol)


@pytest.mark.parametrize("target, positions, flips", [
    # too few positions: zip would stop after none of the two flips
    ((0, 0, 0), [(0, 0, 0)], [3, 3]),
    # too many: zip would drop the last position
    ((0, 0, 0), [(0, 0, 0), (0, 0, 1), (0, 0, 0)], [3]),
])
def test_replay_refuses_a_position_count_off_the_flip_count(target, positions, flips):
    sol = SwitchSolution((0, 0, 0), target, positions, flips, None)
    with pytest.raises(AssertionError, match="states for"):
        replay_switches(sol)


def test_replay_refuses_a_play_that_leaves_from_elsewhere():
    sol = SwitchSolution((0, 0, 0), (0, 0, 1), [(1, 1, 1), (0, 0, 1)], [3], None)
    with pytest.raises(AssertionError, match="play starts at 111"):
        replay_switches(sol)


@pytest.mark.parametrize("sol", [
    # flip 3 is allowed and lands on the next position, but 2 is no bit
    SwitchSolution((2, 0, 0), (2, 0, 1), [(2, 0, 0), (2, 0, 1)], [3], None),
    # a zero-move play checks no flip; the game needs n >= 2
    SwitchSolution((5,), (5,), [(5,)], [], None),
    SwitchSolution((1,), (1,), [(1,)], [], None),
    # True == 1, and flip 3 is allowed and lands on the next position, but
    # a bool is no bit
    SwitchSolution((True, 0, 0), (True, 0, 1), [(True, 0, 0), (True, 0, 1)], [3], None),
])
def test_replay_refuses_a_play_that_starts_off_the_positions(sol):
    with pytest.raises(AssertionError, match="not a 0/1 tuple of length >= 2"):
        replay_switches(sol)


@pytest.mark.parametrize("position", [(True, 0, 0), (1.0, 0, 0), (0, 0, False), (True, 0)])
def test_a_bool_or_a_float_is_no_bit(position):
    """``True == 1`` and ``1.0 == 1``, but neither is a bit: the coding, the
    solver and the move graph refuse them, each with its own message (the
    solver once printed ``True00 --2--> True10`` and ``1.000``, and the
    move graph gave ``(True, 0)`` no moves, as it gives ``(1, 0)``)."""
    n, zero = len(position), (0,) * len(position)
    with pytest.raises(ValueError, match="^expected a 0/1 tuple of length >= 2$"):
        b_inv(position)
    for s, t in ((position, zero), (zero, position)):
        with pytest.raises(ValueError, match="^expected a 0/1 tuple of length >= 2$"):
            solve_mixedmiddleswitch(n, s, t)
    with pytest.raises(ValueError, match="^positions are 0/1 tuples of length >= 2$"):
        switch_moves(position)


@pytest.mark.parametrize("n", [True, 2.0, "2"])
def test_the_solver_refuses_a_row_size_that_is_not_an_int(n):
    # 2.0 once reached range() and raised TypeError there
    with pytest.raises(ValueError, match=f"^n must be an int, got {n!r}$"):
        solve_mixedmiddleswitch(n, (0, 0), (1, 0))
