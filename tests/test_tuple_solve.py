"""Solving on tuple coordinates, checked against the explicit lattices."""

import random
from collections import Counter
from itertools import product

import pytest

from colorlattice import (
    Board,
    DominoSolution,
    LatticeError,
    TupleLattice,
    a_lattice,
    b_inv,
    b_map,
    bfs_distance,
    c_lattice,
    cached_isomorphism,
    color_counts,
    dec_admissible,
    dec_lattice,
    domino_digraph,
    enumerate_tilings,
    is_box_partition,
    kn_admissible,
    kn_lattice,
    l_inv,
    l_map,
    lattice_distance,
    legal_moves,
    legal_snake_moves,
    ming_digraph,
    replay_domino,
    shortest_path,
    solve_domino,
    solve_mixedmiddleswitch,
    solve_snakes,
    tuple_lattice,
    z_lattice,
)
from colorlattice.cli import _CAP_DOMINO, _CAP_SNAKES, _CAP_SWITCH, main
from colorlattice.dominoes import _board_lattice
from colorlattice.snakes import _catalan_lattice, _pull_back
from colorlattice.switchgame import (_cushioned_lattice, all_cushioned, int_to_bits,
                                     is_cushioned)

KINDS = ("ballot", "staircase", "full")
BOARD_SIZES = [(k, n) for n in range(1, 5) for k in range(1, n + 1)]


def explicit_lattice(kind, k, n):
    if kind == "ballot":
        return dec_lattice(k, n)
    if kind == "staircase":
        return kn_lattice(k, n)
    return a_lattice(k, 2 * n - k)


def same_certificate(cert, want):
    assert cert.vertices == want.vertices
    assert cert.steps == want.steps
    assert cert.orientation == want.orientation
    assert cert.turning_point == want.turning_point


def legal_move_table(board):
    """The squares and color of every ``legal_moves`` entry, keyed by its
    pair of partitions both ways."""
    table = {}
    for tau in board.partitions():
        for (_, squares, color, result) in legal_moves(board, tau):
            table[tau, result] = table[result, tau] = (squares, color)
    return table


@pytest.mark.parametrize("n", range(2, 7))
def test_switch_solves_match_the_explicit_lattice_on_every_pair(n):
    lat = z_lattice(n)
    for xs in lat.vertices:
        for xt in lat.vertices:
            s, t = b_map(xs), b_map(xt)
            for via in ("join", "meet"):
                sol = solve_mixedmiddleswitch(n, s, t, via=via)
                want = shortest_path(lat, xs, xt, via=via)
                same_certificate(sol.certificate, want)
                sol.certificate.validate(lat)
                assert sol.distance == lattice_distance(lat, xs, xt)
                assert sol.positions == tuple(b_map(v) for v in want.vertices)
                assert sol.flips == tuple(c for (c, _) in want.steps)


@pytest.mark.parametrize("n", range(2, 5))
def test_switch_color_counts_come_from_the_lattice(n):
    rules = _cushioned_lattice(n)
    for xs in all_cushioned(n):
        for xt in all_cushioned(n):
            want = {c: m for c, m in rules.color_counts(xs, xt).items() if m}
            for via in ("join", "meet"):
                sol = solve_mixedmiddleswitch(n, b_map(xs), b_map(xt), via=via)
                assert sol.color_counts == want
                assert sol.states == sol.positions
                assert sol.actions == sol.flips


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k, n", BOARD_SIZES)
def test_board_solves_match_the_explicit_lattice_on_every_pair(kind, k, n):
    lat = explicit_lattice(kind, k, n)
    moves = legal_move_table(Board(kind, k, n))
    decode = {v: l_inv(v, k, n) for v in lat.vertices}
    for xs in lat.vertices:
        for xt in lat.vertices:
            s, t = decode[xs], decode[xt]
            counts = color_counts(lat, xs, xt)
            for via in ("join", "meet"):
                sol = solve_domino(kind, k, n, s, t, via=via)
                want = shortest_path(lat, xs, xt, via=via)
                same_certificate(sol.certificate, want)
                sol.certificate.validate(lat)
                assert sol.distance == lattice_distance(lat, xs, xt)
                assert sol.color_counts == counts   # zero entries included
                assert sol.states == tuple(decode[v] for v in want.vertices)
                for a, b, (verb, squares, color) in zip(
                        sol.states, sol.states[1:], sol.actions):
                    assert (squares, color) == moves[a, b]
                    assert verb == ("remove" if sum(b) < sum(a) else "add")


# The board path as it read before the push: the place values rebuilt for
# every vertex, and every row's squares between two states.  The oracle for
# the actions `solve_domino` pushes onto the board.

def per_vertex_decode(x, k, n):
    m = 2 * n - k
    values = sorted(2 * p - 1 if p <= n else 4 * n + 2 - 2 * p
                    for p in (m + j - e for j, e in enumerate(x, 1)))
    return tuple(v - i for i, v in enumerate(values, 1))[::-1]


def diff_action(a, b, color):
    squares = tuple((r, c) for r, (p, q) in enumerate(zip(a, b), 1)
                    for c in range(min(p, q) + 1, max(p, q) + 1))
    return ("remove" if sum(b) < sum(a) else "add", squares, color)


def rule_color_counts(rules, s, t):
    """`TupleLattice.color_counts` read off the color rule, not the table."""
    steps = Counter(rules.color(q, v) for q, (a, b) in enumerate(zip(s, t), 1)
                    for v in range(min(a, b) + 1, max(a, b) + 1))
    colors = {rules.color(q, v) for q, hi in enumerate(rules.top, 1)
              for v in range(1, hi + 1)}
    return {c: steps[c] for c in sorted(colors)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k, n", BOARD_SIZES)
def test_board_solves_equal_the_per_vertex_oracle_on_every_pair(kind, k, n):
    rules = _board_lattice(kind, k, n)
    parts = Board(kind, k, n).partitions()
    for s in parts:
        for t in parts:
            xs, xt = l_map(s, k, n), l_map(t, k, n)
            counts = rule_color_counts(rules, xs, xt)
            for via in ("join", "meet"):
                sol = solve_domino(kind, k, n, s, t, via=via)
                vertices, steps = stepwise_geodesic(rules, xs, xt, via)
                states = tuple(per_vertex_decode(v, k, n) for v in vertices)
                assert sol.certificate.vertices == vertices
                assert sol.certificate.steps == steps
                assert sol.states == states
                assert sol.actions == tuple(
                    diff_action(a, b, color)
                    for a, b, (color, _) in zip(states, states[1:], steps))
                assert sol.color_counts == counts


@pytest.mark.parametrize("kind", KINDS)
def test_board_actions_are_the_legal_moves_at_the_largest_sizes(kind):
    board = Board(kind, 3, 6)
    parts = board.partitions()
    moves = legal_move_table(board)
    for s, t in [(parts[0], parts[-1]), (parts[-1], parts[0]),
                 (parts[len(parts) // 3], parts[2 * len(parts) // 3])]:
        for via in ("join", "meet"):
            sol = solve_domino(kind, 3, 6, s, t, via=via)
            for a, b, (_verb, squares, color) in zip(
                    sol.states, sol.states[1:], sol.actions):
                assert (squares, color) == moves[a, b]


def test_an_action_whose_squares_disagree_with_the_lattice_color_is_refused():
    # every directed move, played both ways, replays with its own color only
    for kind, (k, n) in product(KINDS, [(k, n) for n in range(1, 6)
                                        for k in range(1, n + 1)]):
        board = Board(kind, k, n)
        for tau in board.partitions():
            for move in legal_moves(board, tau):
                _, squares, color, result = move
                # played forward, the move is the solver's action for it
                assert diff_action(tau, result, color) == move[:3]
                for a, b in ((tau, result), (result, tau)):
                    action = diff_action(a, b, color)
                    assert action[1:] == (squares, color)
                    replay_domino(board, DominoSolution(
                        kind, k, n, [a, b], [action], {}, None))
                    forged = diff_action(a, b, color + 1)
                    with pytest.raises(AssertionError,
                                       match="edge color disagrees"):
                        replay_domino(board, DominoSolution(
                            kind, k, n, [a, b], [forged], {}, None))


def brute_force_least(members, q, v):
    """The least member whose coordinate q is >= v, searched directly."""
    above = [x for x in members if x[q - 1] >= v]
    least = [x for x in above
             if all(a <= b for y in above for a, b in zip(x, y))]
    assert len(least) == 1
    return least[0]


@pytest.mark.parametrize("n", range(2, 9))
def test_cushioned_least_members_match_a_brute_force_search(n):
    lat = _cushioned_lattice(n)
    members = all_cushioned(n)
    for q in range(1, n + 1):
        for v in range(1, lat.top[q - 1] + 1):
            assert lat.least(q, v) == brute_force_least(members, q, v)


def test_switch_membership_agrees_with_is_cushioned():
    for n in range(2, 7):
        lat = _cushioned_lattice(n)
        for x in product(range(n + 1), repeat=n):
            assert lat.member(x) == is_cushioned(x, n), x
        assert not lat.member((0,) * (n - 1) + (-1,))
        assert not lat.member((0,) * (n + 1))
        assert not lat.member((n + 1,) + (0,) * (n - 1))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 7)
                                  for k in range(1, n + 1)])
def test_board_least_members_match_a_brute_force_search(kind, k, n):
    # the members come from the board partitions under the coding, not from
    # the explicit lattice, which reads the same least rule
    lat = _board_lattice(kind, k, n)
    members = [l_map(tau, k, n) for tau in Board(kind, k, n).partitions()]
    for q in range(1, k + 1):
        for v in range(1, 2 * n - k + 1):
            assert lat.least(q, v) == brute_force_least(members, q, v)


@pytest.mark.parametrize("kind, admissible", [("ballot", dec_admissible),
                                              ("staircase", kn_admissible)])
@pytest.mark.parametrize("n", sorted({10, 20, _CAP_DOMINO}))
def test_board_least_members_are_locally_least_past_the_explicit_sizes(
        kind, admissible, n):
    # the admissible partitions with part q >= v are closed under min and
    # their lower covers lower one part by 1, so an admissible one with no
    # admissible unit-lowered partition keeping part q >= v is the least
    # (the member rule is checked on the same partitions)
    for k in range(1, n + 1):
        m = 2 * n - k
        lat = _board_lattice(kind, k, n)
        for q in range(1, k + 1):
            for v in range(1, m + 1):
                x = lat.least(q, v)
                assert is_box_partition(x, k, m) and admissible(x, k, n)
                assert x[q - 1] >= v and lat.member(x)
                for p in range(k):
                    y = x[:p] + (x[p] - 1,) + x[p + 1:]
                    if is_box_partition(y, k, m) and y[q - 1] >= v:
                        assert not admissible(y, k, n), (k, q, v, x, y)
                        assert not lat.member(y)


def test_the_full_box_form_fails_on_the_symplectic_families():
    # the full-box form (v, ..., v, 0, ..., 0) fails already at n=2
    assert _board_lattice("staircase", 2, 2).least(1, 2) == (2, 1)   # kn(2, 2)
    assert _board_lattice("ballot", 2, 2).least(2, 1) == (2, 1)      # dec(2, 2)
    assert _board_lattice("full", 2, 2).least(1, 2) == (2, 0)
    assert _board_lattice("full", 2, 2).least(2, 1) == (1, 1)
    # the raised parts: r - q parts q after q parts v, and r parts q + e
    assert _board_lattice("staircase", 4, 4).least(2, 4) == (4, 4, 2, 2)   # kn(4, 4)
    assert _board_lattice("ballot", 3, 4).least(3, 2) == (4, 2, 2)         # dec(3, 4)


@pytest.mark.parametrize("kind, admissible", [("ballot", dec_admissible),
                                              ("staircase", kn_admissible),
                                              ("full", lambda x, k, n: True)],
                         ids=["ballot-dec_admissible", "staircase-kn_admissible", "full"])
def test_board_membership_agrees_with_admissibility(kind, admissible):
    for n in range(1, 6):
        for k in range(1, n + 1):
            m = 2 * n - k
            lat = _board_lattice(kind, k, n)
            for x in product(range(m + 2), repeat=k):
                want = is_box_partition(x, k, m) and admissible(x, k, n)
                assert lat.member(x) == want, x
            assert not lat.member((1,) * (k - 1) + (-1,))
            assert not lat.member((0,) * k + (0,))
            if k > 1:
                assert not lat.member((0,) * (k - 1) + (1,))


def test_a_cold_solve_builds_no_lattice():
    builds = (z_lattice, a_lattice, kn_lattice, dec_lattice, domino_digraph)
    for f in builds:
        f.cache_clear()
    solve_mixedmiddleswitch(12, (0,) * 12, (0, 1) * 6)
    for kind in KINDS:
        parts = Board(kind, 3, 6).partitions()
        solve_domino(kind, 3, 6, parts[0], parts[-1])
    assert [f.cache_info().currsize for f in builds] == [0] * len(builds)
    assert [f.cache_info().misses for f in builds] == [0] * len(builds)


def test_solves_run_past_the_exhaustive_sizes():
    n = 30
    top = b_map(tuple(range(n, 0, -1)))
    for via in ("join", "meet"):
        sol = solve_mixedmiddleswitch(n, (0,) * n, top, via=via)
        assert sol.distance == n * (n + 1) // 2
    k, n = 4, 9
    m = 2 * n - k
    for kind in KINDS:
        sol = solve_domino(kind, k, n, l_inv((0,) * k, k, n),
                           l_inv((m,) * k, k, n))
        assert sol.distance == k * m
        assert sum(sol.color_counts.values()) == k * m


def test_geodesics_refuse_non_members_and_unknown_turns():
    lat = _cushioned_lattice(4)
    with pytest.raises(LatticeError, match="not a member"):
        lat.geodesic((0, 0, 0, 0), (2, 2, 0, 0))
    with pytest.raises(ValueError, match="via"):
        lat.geodesic((0, 0, 0, 0), (2, 1, 0, 0), via="around")


def test_descent_reports_rules_that_leave_no_lower_cover():
    # a bogus least rule that puts every irreducible at the top: the top and
    # the bottom are members, but each coordinate blocks every other's fall
    rules = _cushioned_lattice(3)
    lat = TupleLattice(rules.top, rules.color, lambda q, v: rules.top)
    assert lat.member(lat.top) and lat.member((0, 0, 0))
    with pytest.raises(LatticeError, match="no lower cover"):
        lat.geodesic(lat.top, (0, 0, 0))
    # the certificate refuses these rules up front
    with pytest.raises(LatticeError, match="has part 1 equal to 3"):
        lat.certify()


def test_rank_and_color_counts_match_the_explicit_lattice():
    lat, rules = z_lattice(5), _cushioned_lattice(5)
    assert rules.colors() == lat.diagram.colors()
    for x in lat.vertices:
        assert rules.rank(x) == lat.rank[x]
    for s in lat.vertices[::5]:
        for t in lat.vertices[::3]:
            assert rules.color_counts(s, t) == color_counts(lat, s, t)
            assert rules.distance(s, t) == lattice_distance(lat, s, t)
            assert rules.join(s, t) == lat.join(s, t)
            assert rules.meet(s, t) == lat.meet(s, t)


def two_sided_gaps(rules, s, t):
    """The color tallies of the gaps from s and t up to their join and down
    to their meet, which `TupleLattice.color_counts` once computed both of
    and compared."""
    def gaps(*pairs):
        return Counter(rules.color(q, v) for lower, upper in pairs
                       for q, (a, b) in enumerate(zip(lower, upper), 1)
                       for v in range(a + 1, b + 1))
    hi, lo = rules.join(s, t), rules.meet(s, t)
    return gaps((s, hi), (t, hi)), gaps((lo, s), (lo, t))


RULE_LATTICES = pytest.mark.parametrize("rules", [
    _cushioned_lattice(5), _board_lattice("full", 3, 3),
    _board_lattice("staircase", 3, 4), _board_lattice("ballot", 3, 4),
    _catalan_lattice(5),
], ids=["switch", "box", "staircase", "ballot", "catalan"])


def rule_members(rules):
    return [x for x in product(*(range(hi + 1) for hi in rules.top)) if rules.member(x)]


@RULE_LATTICES
def test_rule_tally_equals_the_join_and_meet_tallies_on_every_member_pair(rules):
    members = rule_members(rules)
    colors = rules.colors()
    for s in members:
        for t in members:
            up, down = two_sided_gaps(rules, s, t)
            assert up == down
            assert rules.color_counts(s, t) == {c: up[c] for c in colors}


@RULE_LATTICES
def test_rank_formula_through_the_meet_gives_the_distance_and_geodesic_lengths(rules):
    """`distance` evaluates the rank formula through the join only, and
    `geodesic` no longer checks its length: through the meet the formula
    gives the same number on every member pair, and each geodesic is that
    long."""
    members = rule_members(rules)
    for s in members:
        for t in members:
            d = rules.rank(s) + rules.rank(t) - 2 * rules.rank(rules.meet(s, t))
            assert rules.distance(s, t) == d
            for via in ("join", "meet"):
                assert rules.geodesic(s, t, via).distance == d


# --------------------------------------------------------------------------
# snakes

def bottom_tiling(n):
    """ceil(n/2) full rows: the tiling whose tuple is the lattice minimum."""
    return (n,) * ((n + 1) // 2) + (0,) * (n // 2)


def legal_snake_move_table(n):
    """Every ``legal_snake_moves`` entry as (verb, snake), keyed by its two tilings."""
    return {(rows, result): (verb, snake) for rows in enumerate_tilings(n)
            for snake, verb, result in legal_snake_moves(n, rows)}


@pytest.mark.parametrize("n", range(1, 6))
def test_snake_solves_match_the_explicit_lattice_on_every_pair(n):
    lat = c_lattice(n)
    iso = cached_isomorphism(n)
    inv = {rows: x for x, rows in iso.items()}
    moves = legal_snake_move_table(n)
    tilings = enumerate_tilings(n)
    for s in tilings:
        for t in tilings:
            counts = color_counts(lat, inv[s], inv[t])
            for via in ("join", "meet"):
                sol = solve_snakes(n, s, t, via=via)
                want = shortest_path(lat, inv[s], inv[t], via=via)
                same_certificate(sol.certificate, want)
                sol.certificate.validate(lat)
                assert sol.distance == lattice_distance(lat, inv[s], inv[t])
                assert sol.color_counts == counts   # zero entries included
                assert sol.states == tuple(iso[x] for x in want.vertices)
                for a, b, action in zip(sol.states, sol.states[1:], sol.actions):
                    assert action == moves[a, b]


@pytest.mark.parametrize("n", range(1, 5))
def test_snake_distances_match_breadth_first_search(n):
    g = ming_digraph(n)
    tilings = enumerate_tilings(n)
    for s in tilings:
        for t in tilings:
            assert solve_snakes(n, s, t).distance == bfs_distance(g, s, t)


@pytest.mark.parametrize("n", range(1, 8))
def test_pull_back_pins_the_lattice_ends(n):
    assert _pull_back(bottom_tiling(n), n) == (0,) * n
    assert _pull_back((0,) * n, n) == tuple(range(n, 0, -1))


@pytest.mark.parametrize("n", range(1, 6))
def test_catalan_least_members_match_a_brute_force_search(n):
    # the members come from the tilings under the pull-back, not from
    # catalan_tuples, which filters through the same least rule
    lat = _catalan_lattice(n)
    members = [_pull_back(rows, n) for rows in enumerate_tilings(n)]
    for q in range(1, n + 1):
        for v in range(1, lat.top[q - 1] + 1):
            assert lat.least(q, v) == brute_force_least(members, q, v)


def test_catalan_membership_agrees_with_the_definition():
    # weakly decreasing with 0 <= s_i <= n+1-i, written out here rather
    # than read from catalan_tuples, which filters through lat.member
    for n in range(1, 6):
        lat = _catalan_lattice(n)
        for x in product(range(n + 2), repeat=n):
            want = (all(a >= b for a, b in zip(x, x[1:]))
                    and all(0 <= v <= n - i for i, v in enumerate(x)))
            assert lat.member(x) == want, x
        assert not lat.member((0,) * (n - 1) + (-1,))
        assert not lat.member((0,) * (n + 1))
        assert not lat.member((n + 1,) + (0,) * (n - 1))


def test_a_cold_snake_solve_builds_no_graph():
    # shortest_path and color_counts need c_lattice(n), so no call of theirs
    # escapes these caches either
    builds = (c_lattice, ming_digraph, cached_isomorphism)
    for f in builds:
        f.cache_clear()
    solve_snakes(7, (7, 7, 7, 5, 5, 0, 0), (4, 3, 3, 0, 0, 0, 0))
    solve_snakes(12, bottom_tiling(12), (0,) * 12, via="meet")
    assert [f.cache_info().currsize for f in builds] == [0] * len(builds)
    assert [f.cache_info().misses for f in builds] == [0] * len(builds)


@pytest.mark.parametrize("n", [8, 12])
def test_snake_solves_run_past_the_exhaustive_sizes(n):
    for via in ("join", "meet"):
        sol = solve_snakes(n, bottom_tiling(n), (0,) * n, via=via)
        assert sol.distance == n * (n + 1) // 2
        assert sum(sol.color_counts.values()) == n * (n + 1) // 2
        assert sol.certificate.vertices[-1] == tuple(range(n, 0, -1))


# --------------------------------------------------------------------------
# the one-pass geodesic legs against the per-step walk

def stepwise_climb(lat, goal, vertices, steps):
    """Climb to ``goal``, rebuilding and taking the least of every
    coordinate's next missing irreducible at each step."""
    x = list(vertices[-1])
    while True:
        missing = [(lat.least(q, a + 1), q)
                   for q, (a, b) in enumerate(zip(x, goal), 1) if a < b]
        if not missing:
            return
        q = min(missing)[1]
        x[q - 1] += 1
        vertices.append(tuple(x))
        steps.append((lat.color(q, x[q - 1]), +1))


def stepwise_fall(lat, goal, vertices, steps):
    """Fall to ``goal``, re-sorting every coordinate's top irreducible at
    each step and removing the first whose removal leaves a member."""
    x = list(vertices[-1])
    while True:
        extra = sorted((lat.least(q, a), q)
                       for q, (a, b) in enumerate(zip(x, goal), 1) if a > b)
        if not extra:
            return
        for _, q in extra:
            x[q - 1] -= 1
            if lat.member(tuple(x)):
                break
            x[q - 1] += 1
        else:
            raise LatticeError("no lower cover")
        vertices.append(tuple(x))
        steps.append((lat.color(q, x[q - 1] + 1), -1))


def stepwise_geodesic(lat, s, t, via):
    vertices, steps = [s], []
    if via == "join":
        stepwise_climb(lat, lat.join(s, t), vertices, steps)
        stepwise_fall(lat, t, vertices, steps)
    else:
        stepwise_fall(lat, lat.meet(s, t), vertices, steps)
        stepwise_climb(lat, t, vertices, steps)
    return tuple(vertices), tuple(steps)


def random_join_meet(lat, rng):
    """The meet of two joins of random least members: a member, by closure."""
    def join_of_leasts():
        x = (0,) * len(lat.top)
        for _ in range(rng.randint(0, len(lat.top))):
            q = rng.randint(1, len(lat.top))
            x = lat.join(x, lat.least(q, rng.randint(1, lat.top[q - 1])))
        return x
    return lat.meet(join_of_leasts(), join_of_leasts())


def random_switch_member(lat, rng):
    # uniform over the 2^n positions; joins of least members crowd the top
    n = len(lat.top)
    return b_inv(int_to_bits(rng.getrandbits(n), n))


# 1 753 random pairs in all, and the lattice ends both ways on each lattice
WALK_CASES = (
    [pytest.param(_cushioned_lattice(n), random_switch_member, pairs,
                  id=f"switch n={n}")
     for n, pairs in ((9, 400), (20, 200), (80, 10))]
    + [pytest.param(_board_lattice(kind, k, n), random_join_meet, pairs,
                    id=f"{kind} k={k} n={n}")
       for (k, n), pairs in (((6, 9), 150), ((10, 12), 100), ((32, 32), 6))
       for kind in KINDS]
    + [pytest.param(_catalan_lattice(n), random_join_meet, pairs,
                    id=f"catalan n={n}")
       for n, pairs in ((12, 350), (40, 25))])


@pytest.mark.parametrize("lat, draw, pairs", WALK_CASES)
def test_one_pass_geodesics_match_the_stepwise_walk(lat, draw, pairs):
    rng = random.Random(0)
    bottom = (0,) * len(lat.top)
    cases = [(bottom, lat.top), (lat.top, bottom)]
    cases += [(draw(lat, rng), draw(lat, rng)) for _ in range(pairs)]
    for s, t in cases:
        assert lat.member(s) and lat.member(t)
        for via in ("join", "meet"):
            cert = lat.geodesic(s, t, via=via)
            assert (cert.vertices, cert.steps) == stepwise_geodesic(lat, s, t, via)


@pytest.mark.parametrize("lat", [
    pytest.param(_cushioned_lattice(_CAP_SWITCH), id=f"switch n={_CAP_SWITCH}"),
    pytest.param(_catalan_lattice(_CAP_SNAKES), id=f"catalan n={_CAP_SNAKES}"),
    *[pytest.param(_board_lattice(kind, k, _CAP_DOMINO), id=f"{kind} k={k} n={_CAP_DOMINO}")
      for kind, k in [(kind, _CAP_DOMINO) for kind in KINDS]
      + [("ballot", 20), ("staircase", 20)]]])
def test_least_members_rise_strictly_along_each_coordinate(lat):
    # what the one-pass legs rest on: least(q, v) is a member with part q
    # equal to v, below least(q, v + 1) part-wise, and no two coincide
    seen = set()
    for q, top in enumerate(lat.top, 1):
        chain = [lat.least(q, v) for v in range(1, top + 1)]
        for v, x in enumerate(chain, 1):
            assert lat.member(x) and x[q - 1] == v, (q, v, x)
        for x, y in zip(chain, chain[1:]):
            assert all(a <= b for a, b in zip(x, y)), (q, x, y)
        seen.update(chain)
    assert len(seen) == sum(lat.top)
    # the same three claims, as the lattice checks them
    lat.certify()


# every family at its bench size and at k = n = 4
TABLE_CASES = [
    pytest.param(_cushioned_lattice(n), id=f"switch n={n}") for n in (4, 12)] + [
    pytest.param(_catalan_lattice(n), id=f"catalan n={n}") for n in (4, 6)] + [
    pytest.param(_board_lattice(kind, k, n), id=f"{kind} k={k} n={n}")
    for kind in KINDS for k, n in ((3, 6), (4, 4))]


@pytest.mark.parametrize("lat", TABLE_CASES)
def test_the_lattice_table_equals_the_rules(lat):
    least = lat.certify()
    assert least == [[lat.least(q, v) for v in range(1, hi + 1)]
                     for q, hi in enumerate(lat.top, 1)]
    assert lat._color_table() == [[lat.color(q, v) for v in range(1, hi + 1)]
                                  for q, hi in enumerate(lat.top, 1)]
    assert lat.certify() is least


def test_each_rule_is_read_once_per_lattice():
    # certify, the explicit build and every later walk share one table
    base = _board_lattice("staircase", 3, 5)
    calls = Counter()

    def least(q, v):
        calls["least", q, v] += 1
        return base.least(q, v)

    def color(q, v):
        calls["color", q, v] += 1
        return base.color(q, v)

    rules = TupleLattice(base.top, color, least)
    members = tuple_lattice(rules).vertices
    for s in members[::7]:
        for t in members[::5]:
            for via in ("join", "meet"):
                rules.geodesic(s, t, via=via)
            rules.color_counts(s, t)
    assert set(calls.values()) == {1}
    assert len(calls) == 2 * sum(base.top)


def test_a_short_walk_reads_only_the_cells_it_needs():
    # one step below the top of switch rows at n=80: the two membership
    # tests read one cell per coordinate, of the table's 3 240
    calls = Counter()
    base = _cushioned_lattice(80)
    rules = TupleLattice(base.top, base.color,
                         lambda q, v: calls.update([(q, v)]) or base.least(q, v))
    below = base.top[:-1] + (0,)
    for via in ("join", "meet"):
        assert rules.geodesic(base.top, below, via=via).distance == 1
        assert rules.geodesic(below, base.top, via=via).distance == 1
    assert set(calls) == {(q, v) for q, v in enumerate(base.top, 1)}
    assert set(calls.values()) == {1}


# Each rule lattice is built once per size and shared by every later solve.
RULE_BUILDS = (_cushioned_lattice, _board_lattice, _catalan_lattice)
SOLVE_ARGV = [
    ("solve", "mixedmiddleswitch", "--n", "6", "--from", "101010", "--to", "000111"),
    ("solve", "domino-ballot", "--k", "3", "--n", "5", "--from", "6,5,1", "--to", "2,2,0"),
    ("solve", "domino-staircase", "--k", "3", "--n", "5", "--from", "7,3,0",
     "--to", "2,1,1"),
    ("solve", "domino-full", "--k", "3", "--n", "5", "--from", "7,0,0", "--to", "3,3,3"),
    ("solve", "snakes", "--n", "4", "--from", "4,4,1,0", "--to", "2,1,0,0"),
]


def test_cached_rule_lattices_answer_alike_in_either_order(capsys):
    plays = [(*argv, "--via", via, *fmt) for argv in SOLVE_ARGV
             for via in ("join", "meet") for fmt in ((), ("--json",))]
    runs = []
    for order in (plays, plays[::-1]):
        for build in RULE_BUILDS:
            build.cache_clear()
        for _ in range(2):      # the second time on the cached lattices
            out = {}
            for argv in order:
                assert main(list(argv)) == 0, argv
                out[argv] = capsys.readouterr().out
            runs.append(out)
    assert all(run == runs[0] for run in runs)
    assert _board_lattice("ballot", 3, 5) is _board_lattice("ballot", 3, 5)


@pytest.mark.parametrize("lat", [
    _cushioned_lattice(5), _catalan_lattice(5),
    *[_board_lattice(kind, 3, 5) for kind in KINDS]], ids=["switch", "catalan", *KINDS])
def test_a_changed_color_list_leaves_the_lattice_unchanged(lat):
    zero = (0,) * len(lat.top)
    counts = lat.color_counts(lat.top, zero)
    colors = lat.colors()
    assert colors == sorted(counts) and colors is not lat.colors()
    colors.clear()
    colors.append(0)
    lat.colors().reverse()
    assert lat.color_counts(lat.top, zero) == counts
    assert lat.colors() == sorted(counts)
