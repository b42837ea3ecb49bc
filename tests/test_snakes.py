"""Square-board tilings, snake moves, and the closed-form correspondence."""

import re
from collections import Counter, deque

import pytest

from colorlattice import (
    Board,
    CapExceededError,
    ColoredDigraph,
    NotIsomorphicError,
    SnakeSolution,
    a_lattice,
    all_snakes,
    bfs_distance,
    c_lattice,
    cached_isomorphism,
    catalan_tuples,
    enumerate_box_partitions,
    enumerate_tilings,
    is_box_partition,
    is_tiling,
    legal_snake_moves,
    ming_digraph,
    render_tiling,
    replay_snakes,
    solve_snakes,
    verify_isomorphism,
)
from colorlattice import explicit
from colorlattice.dominoes import _move, _rows_fit
from colorlattice.explicit import _rim, _rim_segment
from colorlattice.snakes import (_contents, _diagonal_lengths, _diagonal_ok, _is_snake,
                                 _on_diagonal, _pull_back_lengths, _still_tiling, _strip)

CATALAN = {1: 2, 2: 5, 3: 14, 4: 42, 5: 132, 6: 429}


@pytest.mark.parametrize("n, count", sorted(CATALAN.items()))
def test_tuples_and_tilings_are_equinumerous(n, count):
    assert len(catalan_tuples(n)) == count
    assert len(enumerate_tilings(n)) == count


def test_staircase_bound_on_tuples():
    assert (3, 1, 1) in catalan_tuples(3)
    assert (3, 3, 1) not in catalan_tuples(3)  # second entry may reach only 2
    assert all(t[-1] <= 1 for t in catalan_tuples(4))


def test_tuple_lattice_length_and_colors():
    lat = c_lattice(3)
    assert lat.length == 6  # n(n+1)/2
    assert lat.diagram.colors() == [1, 2, 3, 4, 5]
    # raising the first coordinate to its ceiling wears color n+q-t = 1
    assert lat.diagram.edge_color((2, 1, 0), (3, 1, 0)) == 1


@pytest.mark.parametrize("rows, ok", [
    ((4, 4, 1, 0), True),
    ((1, 0, 0, 0), True),
    ((0, 0, 0, 0), True),
    ((2, 2, 0, 0), True),
    ((1, 2, 0, 0), False),     # rows must decrease weakly
    ((5, 0, 0, 0), False),     # wider than the board
    ((1, 1, 0, 0), False),     # column 1 too tall for the diagonal rule
    ((1, 1), False),           # wrong length
])
def test_tiling_predicate(rows, ok):
    assert is_tiling(rows, 4) is ok


def column_count_is_tiling(rows, n):
    """Reference for ``is_tiling``: the diagonal rule by counting each
    tiled diagonal square's column over all n rows, O(n^2)."""
    rows = tuple(rows)
    if not is_box_partition(rows, n, n):
        return False
    for i in range(1, n + 1):
        if rows[i - 1] >= i:
            col = sum(1 for p in rows if p >= i)
            if col > rows[i - 1]:
                return False
    return True


def column_heights(rows, n):
    """Per column c from 1 to n, at place c, the number of rows at least c long."""
    return [0] + [sum(p >= c for p in rows) for c in range(1, n + 1)]


def carried_heights_still_tiling(rows, n, squares, heights, step):
    """Reference for ``_still_tiling``: the result of laying (step 1) or
    lifting (step -1) the on-board ``squares`` from a tiling whose column
    heights are ``heights``, tested at each touched row against its
    neighbours and by the diagonal rule at each touched row and column,
    with the touched columns' heights moved by the step."""
    height = {}
    for _, c in squares:
        height[c] = height.get(c, heights[c]) + step
    touched = {r for r, _ in squares}
    for r in touched:
        p = rows[r - 1]
        if (r > 1 and rows[r - 2] < p) or (r < n and p < rows[r]):
            return False
    for i in touched | height.keys():
        if rows[i - 1] >= i and height.get(i, heights[i]) > rows[i - 1]:
            return False
    return True


@pytest.mark.parametrize("n", range(0, 9))
def test_the_row_rule_equals_the_column_count_on_every_box_partition(n):
    for rows in enumerate_box_partitions(n, n):
        assert is_tiling(rows, n) == column_count_is_tiling(rows, n), rows
        heights = column_heights(rows, n)
        for i in range(1, n + 1):
            assert _diagonal_ok(rows, n, i) \
                == (rows[i - 1] < i or heights[i] <= rows[i - 1]), (rows, i)


@pytest.mark.parametrize("rows, n", [
    ((True, False), 2),        # bools are not row lengths
    ((1, True), 2),
    ((1.0, 0), 2),             # nor are floats
    ((1, 0.0), 2),
    ((1, 0, 0), 2),            # wrong length
    ((1,), 2),
    ((), 2),
    ((0, -1), 2),              # a negative part
    ((-1, -1), 2),
    ((3, 0), 2),               # a part longer than the board
    ((2, 2, 3), 3),
    ((), 0),                   # the empty board has one tiling
    ((0,), 0),
    ((), -1),                  # no board
    ((0,), -1),
    ([2, 1], 2),               # any sequence of row lengths
])
def test_the_row_rule_keeps_the_column_count_on_malformed_rows(rows, n):
    assert is_tiling(rows, n) is column_count_is_tiling(rows, n)


def test_rendering_marks_tiled_squares():
    assert render_tiling((4, 4, 1, 0), 4) == "####\n####\n#...\n...."
    assert render_tiling((0, 0), 2) == "..\n.."


def test_snakes_are_centered_on_the_diagonal():
    snakes = all_snakes(2)
    assert len(snakes) == 6
    assert ((1, 2), (1, 1), (2, 1)) in snakes
    for snake in all_snakes(3):
        m = len(snake)
        i, j = snake[(m + 1) // 2 - 1]
        assert i == j  # the central square sits on the main diagonal
        for (a, b), (c, d) in zip(snake, snake[1:]):
            assert (c - a, d - b) in ((1, 0), (0, -1))  # south or west


def test_moves_from_the_empty_board():
    assert legal_snake_moves(2, (0, 0)) == [
        (((1, 1),), "add", (1, 0)),
        (((1, 2), (1, 1), (2, 1)), "add", (2, 1)),
    ]
    # outside callers keep the check the move graph skips on its own vertices
    with pytest.raises(ValueError, match=r"not a tiling of the 2 x 2 board: \(1, 1\)"):
        legal_snake_moves(2, (1, 1))


def cells(rows):
    """The squares (row, column) of a partition drawn from the top-left."""
    return {(i, j) for i, p in enumerate(rows, start=1)
            for j in range(1, p + 1)}


def cell_set_move(rows, squares, add):
    """Reference for ``_move``, on sets of squares.

    Lays a set of squares disjoint from the tiled ones, or lifts a set of
    tiled ones, and reads the row lengths back; None when the squares are
    neither, or the result is not left-justified.
    """
    tiled, sq = cells(rows), set(squares)
    if add and not sq & tiled:
        after = tiled | sq
    elif not add and sq <= tiled:
        after = tiled - sq
    else:
        return None
    count = Counter(i for (i, _) in after)
    shape = tuple(count[r] for r in range(1, len(rows) + 1))
    return shape if cells(shape) == after else None


def scan_catalog_moves(n, rows):
    """Reference: every catalogued snake tried against the tiling."""
    moves = []
    for snake in all_snakes(n):
        for verb in ("remove", "add"):
            result = cell_set_move(rows, snake, verb == "add")
            if result is not None and is_tiling(result, n):
                moves.append((snake, verb, result))
    moves.sort(key=lambda mv: (len(mv[0]), mv[0], mv[1]))
    return moves


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_wise_move_equals_the_cell_set_rule_on_snakes(n):
    for rows in enumerate_tilings(n):
        for snake in all_snakes(n):
            for add in (True, False):
                assert _move(rows, snake, add) == cell_set_move(rows, snake, add)


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 5)
                                  for k in range(1, n + 1)])
def test_row_wise_move_equals_the_cell_set_rule_on_dominoes(k, n):
    board = Board("full", k, n)
    squares = [(r, c) for r in range(1, k + 1) for c in range(1, board.width + 1)]
    tiles = [(board.singleton,)] + [
        ((r, c), nb) for (r, c) in squares for nb in ((r, c + 1), (r + 1, c))
        if board.has_square(*nb)]
    for rows in enumerate_box_partitions(k, board.width):
        for tile in tiles:
            for add in (True, False):
                assert _move(rows, tile, add) == cell_set_move(rows, tile, add)


def test_row_wise_move_refuses_a_repeated_square():
    assert _move((1, 0), ((1, 2), (1, 2)), True) is None
    assert _move((2, 0), ((1, 2), (1, 2)), False) is None
    assert _move((2, 0), ((1, 2), (1, 1)), False) == (0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rim_hook_moves_equal_the_whole_catalog_scan(n):
    for rows in enumerate_tilings(n):
        assert legal_snake_moves(n, rows) == scan_catalog_moves(n, rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_a_rim_segment_is_a_snake_exactly_when_its_ends_are_on_the_board(n):
    # every candidate of every tiling: the whole segment, walked square by
    # square, against the two-end test
    for rows in enumerate_tilings(n):
        d = _diagonal_lengths(rows, n)
        for shift in (-1, 0):
            rim = _rim(n, d, shift)
            for m in range(1, 2 * n):
                whole = tuple(_on_diagonal(c, d[c] + shift) for c in _contents(m))
                want = whole if _snake_shape(whole, n) else None
                assert _rim_segment(n, rim, m) == want, (rows, m, shift)


def scanned_diagonal_lengths(rows, n):
    """Reference for ``_diagonal_lengths``: each content's diagonal walked
    from its first square while the squares are tiled, O(n^2)."""
    d = {}
    for c in range(-n, n):
        first, last = max(1, 1 - c), min(n, n - c)
        i = first
        while i <= last and rows[i - 1] >= i + c:
            i += 1
        d[c] = i - first
    return d


def scanned_pull_back(d, n):
    """Reference for ``_pull_back_lengths``: the closed form with every r_m
    listed, then scanned for each q, O(n^2)."""
    dc = [d[m // 2 if m % 2 else -(m // 2)] for m in range(1, 2 * n + 1)]
    r = [(m + 1) // 2 + (-1) ** m * (dc[m - 1] - dc[m]) for m in range(1, 2 * n)]
    return tuple(next((n + q - m for m, r_m in enumerate(r, 1) if r_m >= q), 0)
                 for q in range(1, n + 1))


@pytest.mark.parametrize("n", range(0, 9))
def test_diagonal_lengths_equal_the_diagonal_scan_on_every_box_partition(n):
    for rows in enumerate_box_partitions(n, n):
        d, want = _diagonal_lengths(rows, n), scanned_diagonal_lengths(rows, n)
        assert len(d) == 2 * n
        assert [d[c] for c in range(-n, n)] == [want[c] for c in range(-n, n)], rows


@pytest.mark.parametrize("n", range(1, 10))
def test_the_pull_back_equals_the_per_q_scan_on_every_tiling(n):
    for rows in enumerate_tilings(n):
        d = scanned_diagonal_lengths(rows, n)
        want = scanned_pull_back(d, n)
        assert _pull_back_lengths(d, n) == want, rows
        assert _pull_back_lengths(_diagonal_lengths(rows, n), n) == want, rows


@pytest.mark.parametrize("n", range(1, 7))
def test_a_strip_is_its_contents_squares_one_by_one(n):
    for rows in enumerate_tilings(n):
        d = _diagonal_lengths(rows, n)
        for shift in (-1, 0):
            for m in range(1, 2 * n):
                assert _strip(d, m, shift) == [_on_diagonal(c, d[c] + shift)
                                               for c in _contents(m)], (rows, m, shift)


@pytest.mark.parametrize("n", range(1, 7))
def test_move_graph_equals_the_oriented_catalog_scan(n):
    # each catalogued snake tried with the verb that points forward only:
    # even-length additions and odd-length removals
    verts = enumerate_tilings(n)
    edges = []
    for rows in verts:
        for snake in all_snakes(n):
            add = len(snake) % 2 == 0
            result = cell_set_move(rows, snake, add)
            if result is not None and is_tiling(result, n):
                edges.append((rows, result, len(snake)))
    assert ming_digraph(n) == ColoredDigraph(verts, edges)


@pytest.mark.parametrize("n", range(1, 7))
def test_touched_rows_and_columns_decide_a_move_as_the_full_check_does(n):
    # every catalogued snake that ``_move`` plays either way: a superset of
    # the rim segments ``legal_snake_moves`` tests
    for rows in enumerate_tilings(n):
        heights = column_heights(rows, n)
        for snake in all_snakes(n):
            for step in (1, -1):
                result = _move(rows, snake, step == 1)
                if result is not None:
                    fits = _still_tiling(result, n, snake)
                    assert fits == is_tiling(result, n), (rows, snake, step)
                    assert fits == carried_heights_still_tiling(
                        result, n, snake, heights, step), (rows, snake, step)


@pytest.mark.parametrize("n", range(1, 9))
def test_carried_heights_decide_every_rim_candidate_as_the_full_check_does(n):
    # every tiling, reached from the empty board by a move that passed,
    # with the column heights carried from move to move as the reference
    # carries them; every rim candidate laid and lifted, decided alike by
    # the row rule, the carried heights and the full check
    empty = (0,) * n
    heights = {empty: column_heights(empty, n)}
    queue = deque([empty])
    while queue:
        rows = queue.popleft()
        carried = heights[rows]
        assert carried == column_heights(rows, n)
        d = _diagonal_lengths(rows, n)
        for shift in (-1, 0):
            rim = _rim(n, d, shift)
            for m in range(1, 2 * n):
                snake = _rim_segment(n, rim, m)
                if snake is None:
                    continue
                for step in (1, -1):
                    result = _move(rows, snake, step == 1)
                    if result is None:
                        continue
                    fits = carried_heights_still_tiling(result, n, snake, carried, step)
                    assert fits == is_tiling(result, n), (rows, snake, step)
                    assert _still_tiling(result, n, snake) == fits, (rows, snake, step)
                    if fits and result not in heights:
                        after = list(carried)
                        for _, c in snake:
                            after[c] += step
                        heights[result] = after
                        queue.append(result)
    assert sorted(heights) == enumerate_tilings(n)


def test_the_move_graph_and_the_replay_share_one_local_test():
    # and its rows are tested as a board move's are, on the full board
    assert explicit._still_tiling is _still_tiling
    assert explicit._rows_fit is _rows_fit
    for n in range(1, 5):
        # the snake down column n and along row n touches every row and
        # column: the whole check, on any box partition
        hook = (tuple((i, n) for i in range(1, n + 1))
                + tuple((n, j) for j in range(n - 1, 0, -1)))
        assert _is_snake(hook, n)
        for rows in enumerate_box_partitions(n, n):
            assert _still_tiling(rows, n, hook) == is_tiling(rows, n), rows


def test_the_diagonal_rule_is_checked_at_touched_rows_and_columns():
    # no snake move needs both at n <= 7, but either alone misses one of
    # these: laying (2, 1) on (1, 0) breaks the rule at index 1 through its
    # column, and lifting (1, 2) from (2, 1) at index 1 through its row
    assert is_tiling((1, 0), 2) and is_tiling((2, 1), 2)
    assert not is_tiling((1, 1), 2)
    assert _move((1, 0), ((2, 1),), True) == (1, 1)
    assert not _still_tiling((1, 1), 2, ((2, 1),))
    assert not carried_heights_still_tiling((1, 1), 2, ((2, 1),),
                                            column_heights((1, 0), 2), 1)
    assert _move((2, 1), ((1, 2),), False) == (1, 1)
    assert not _still_tiling((1, 1), 2, ((1, 2),))
    assert not carried_heights_still_tiling((1, 1), 2, ((1, 2),),
                                            column_heights((2, 1), 2), -1)
    # the rule at index 1 through its column alone: row 1 is untouched
    assert _rows_fit(Board("full", 2, 2), (1, 1), [2])
    assert not _diagonal_ok((1, 1), 2, 1) and _diagonal_ok((1, 1), 2, 2)


def south_west_walks(n):
    """Every walk of South/West steps that stays on the n x n board."""
    walks = [((i, j),) for i in range(1, n + 1) for j in range(1, n + 1)]
    out = list(walks)
    while walks:
        walks = [w + ((i + di, j + dj),) for w in walks
                 for (i, j) in [w[-1]] for (di, dj) in ((1, 0), (0, -1))
                 if i + di <= n and j + dj >= 1]
        out += walks
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_snake_predicate_accepts_exactly_the_catalog(n):
    catalog = set(all_snakes(n))
    walks = south_west_walks(n)
    assert catalog <= set(walks)
    assert {w for w in walks if _is_snake(w, n)} == catalog


def _snake_shape(snake, n):
    """The shape test as three passes: its squares lie on the board, each is
    a South or West step from the one before, and the floor((m+1)/2)-th of
    its m squares is on the main diagonal.  The oracle for the one pass of
    `_is_snake` and for the two-end test of `_rim_segment`."""
    if not all(1 <= i <= n and 1 <= j <= n for i, j in snake):
        return False
    for (a, b), (c, d) in zip(snake, snake[1:]):
        if (c - a, d - b) not in ((1, 0), (0, -1)):
            return False
    i, j = snake[(len(snake) + 1) // 2 - 1]
    return i == j


def three_pass_is_snake(snake, n):
    """`_is_snake` as it read before its one pass: the type tests on every
    square, then `_snake_shape`."""
    if not isinstance(snake, tuple) or not 1 <= len(snake) <= 2 * n - 1:
        return False
    if not all(isinstance(sq, tuple) and len(sq) == 2
               and type(sq[0]) is int and type(sq[1]) is int for sq in snake):
        return False
    return _snake_shape(snake, n)


def shifted_walks(n):
    """Walks of every step kind, some of them partly or wholly off the board."""
    steps = ((1, 0), (0, -1), (0, 1), (-1, 0), (1, -1), (0, 0))
    walks = []
    for i in range(0, n + 2):
        for j in range(0, n + 2):
            for length in range(1, 2 * n + 1):
                for first in steps:
                    walk = [(i, j)]
                    for s in range(length - 1):
                        di, dj = first if s == 0 else steps[s % 2]
                        walk.append((walk[-1][0] + di, walk[-1][1] + dj))
                    walks.append(tuple(walk))
    return walks


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_pass_snake_test_equals_the_three_passes(n):
    walks = south_west_walks(n + 1) + shifted_walks(n)
    for walk in walks:
        assert _is_snake(walk, n) == three_pass_is_snake(walk, n), walk
    malformed = [[(1, 1)], ((1, 1), [1, 2]), ((1, 1.0),), ((True, True),),
                 ((1, 1, 1),), (), ((1, 2), (1, 1), "x")]
    for snake in malformed:
        assert _is_snake(snake, n) is three_pass_is_snake(snake, n) is False, snake


@pytest.mark.parametrize("n, edge_count", [(1, 1), (2, 5), (3, 21), (4, 84), (5, 330)])
def test_move_graph_edge_counts(n, edge_count):
    g = ming_digraph(n)
    assert len(g.edges) == edge_count
    assert len(g) == CATALAN[n]
    assert len(c_lattice(n).diagram.edges) == edge_count


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7])
def test_search_finds_the_correspondence(n):
    mapping = cached_isomorphism(n)
    verify_isomorphism(c_lattice(n).diagram, ming_digraph(n), mapping)


def test_corrupted_mapping_is_caught():
    mapping = dict(cached_isomorphism(2))
    (u, v), *_ = [(u, v) for u in mapping for v in mapping
                  if mapping[u] != mapping[v]]
    mapping[u], mapping[v] = mapping[v], mapping[u]
    with pytest.raises(NotIsomorphicError):
        verify_isomorphism(c_lattice(2).diagram, ming_digraph(2), mapping)


def test_searched_correspondence_covers_every_vertex():
    for n in (2, 3, 4):
        iso = cached_isomorphism(n)
        assert sorted(iso) == catalan_tuples(n)
        assert sorted(iso.values()) == enumerate_tilings(n)


def test_oversize_board_is_refused_before_any_build():
    # 4862 tilings at n=8, past the cap of 2000 tilings
    builds = (c_lattice, ming_digraph)
    before = [f.cache_info() for f in builds]
    with pytest.raises(CapExceededError, match="4862 tilings"):
        cached_isomorphism(8)
    assert [f.cache_info() for f in builds] == before


class TestSolving:
    def test_pinned_seven_move_instance(self):
        sol = solve_snakes(4, (4, 4, 1, 0), (1, 0, 0, 0))
        assert sol.distance == 7
        assert sol.distance == bfs_distance(ming_digraph(4), (4, 4, 1, 0),
                                            (1, 0, 0, 0))
        assert sum(sol.color_counts.values()) == 7
        replay_snakes(sol)

    def test_first_action_is_a_five_snake_removal(self):
        sol = solve_snakes(4, (4, 4, 1, 0), (1, 0, 0, 0))
        line = sol.serialize().splitlines()[1]
        assert line == ("4,4,1,0 --5--> 4,0,0,0  "
                        "[remove (2,4) (2,3) (2,2) (2,1) (3,1)]")

    @pytest.mark.parametrize("via", ["join", "meet"])
    def test_both_turning_rules_agree_on_cost(self, via):
        sol = solve_snakes(3, (3, 3, 1), (1, 0, 0), via=via)
        assert sol.distance == bfs_distance(ming_digraph(3), (3, 3, 1), (1, 0, 0))

    def test_replay_rejects_a_detached_snake(self):
        sol = solve_snakes(2, (0, 0), (2, 1))
        (verb, snake) = sol.actions[0]
        forged = SnakeSolution(sol.n, sol.states,
                               ((verb, ((1, 2), (2, 2), (2, 1))),) + sol.actions[1:],
                               sol.color_counts, sol.certificate)
        with pytest.raises(AssertionError):
            replay_snakes(forged)

    @pytest.mark.parametrize("start, action, nxt", [
        # laid as a set of squares this lands on nxt, but a repeated square
        # is no South/West step
        ((0, 0, 0), ("add", ((1, 1), (1, 1))), (1, 0, 0)),
        # (2, 2) is a centered snake, but row 2 is bare from (2, 1) on
        ((2, 0, 0), ("add", ((2, 2),)), (2, 1, 0)),
        # (2, 2) is tiled, but row 2 ends at (2, 3)
        ((3, 3, 0), ("remove", ((2, 2),)), (3, 2, 0)),
        # the wrong verb, and verbs the replay does not know
        ((0, 0, 0), ("remove", ((1, 1),)), (1, 0, 0)),
        ((0, 0, 0), ("lay", ((1, 1),)), (1, 0, 0)),
        ((1, 0, 0), ("lift", ((1, 1),)), (0, 0, 0)),
    ])
    def test_replay_refuses_squares_off_the_row_ends(self, start, action, nxt):
        assert is_tiling(start, 3) and is_tiling(nxt, 3)
        with pytest.raises(AssertionError):
            replay_snakes(SnakeSolution(3, (start, nxt), (action,), {}, None))
        replay_snakes(SnakeSolution(3, ((0, 0, 0), (1, 0, 0)),
                                    (("add", ((1, 1),)),), {}, None))

    def test_replay_refuses_a_move_that_breaks_the_rule_only_through_a_column(self):
        # the second snake lands on a partition, so every touched row lies
        # between its neighbours; the diagonal rule breaks at index 1,
        # where column 1 holds 3 squares and row 1 only 2: row 3, row 1's
        # length plus one, still reaches column 1.  Column heights taken
        # before the first move, and not carried past it, miss it.
        first, second = ((1, 1),), ((1, 2), (2, 2), (2, 1), (3, 1))
        states = ((0, 0, 0), (1, 0, 0), (2, 2, 1))
        assert _move(states[1], second, True) == states[2]
        assert not is_tiling(states[2], 3)
        assert _rows_fit(Board("full", 3, 3), states[2], (1, 2, 3))
        assert not _diagonal_ok(states[2], 3, 1)
        assert not _still_tiling(states[2], 3, second)
        assert carried_heights_still_tiling(states[2], 3, second,
                                            column_heights(states[0], 3), 1)
        replay_snakes(SnakeSolution(3, states[:2], (("add", first),), {}, None))
        with pytest.raises(AssertionError, match="move 1: illegal or mismatched result"):
            replay_snakes(SnakeSolution(3, states, (("add", first), ("add", second)),
                                        {}, None))

    def test_seven_by_seven_board_matches_breadth_first_search(self):
        # 1430 tilings: deeper than the interpreter's default recursion limit
        s, t = (7, 7, 7, 5, 5, 0, 0), (4, 3, 3, 0, 0, 0, 0)
        sol = solve_snakes(7, s, t)
        assert sol.distance == bfs_distance(ming_digraph(7), s, t)
        replay_snakes(sol)

    def test_non_tilings_are_refused(self):
        with pytest.raises(ValueError, match="not a tiling"):
            solve_snakes(4, (1, 1, 0, 0), (0, 0, 0, 0))


@pytest.mark.parametrize("states", [
    # too few states: zip would stop before the one action
    [(0, 0, 0)],
    # too many: zip would drop the last state
    [(0, 0, 0), (1, 0, 0), (1, 0, 0)],
])
def test_replay_refuses_a_state_count_off_the_action_count(states):
    sol = SnakeSolution(3, states, [("add", ((1, 1),))], {}, None)
    with pytest.raises(AssertionError, match="states for 1 moves"):
        replay_snakes(sol)


@pytest.mark.parametrize("sol", [None, 3, [(0, 0), (1, 0)]])
def test_replay_refuses_what_is_not_a_solution(sol):
    # None raised AttributeError on its first attribute read
    with pytest.raises(AssertionError, match=f"^not a SnakeSolution: {re.escape(repr(sol))}$"):
        replay_snakes(sol)


@pytest.mark.parametrize("sol", [
    # (0, 2) is no tiling, though lifting the snake lands on (0, 0)
    SnakeSolution(2, [(0, 2), (0, 0)], [("remove", ((2, 2), (2, 1)))], {}, None),
    # a zero-move play checks no later state
    SnakeSolution(2, [(3, 3)], [], {}, None),
])
def test_replay_refuses_a_play_that_starts_off_the_tilings(sol):
    with pytest.raises(AssertionError, match="not a tiling"):
        replay_snakes(sol)


@pytest.mark.parametrize("n", [True, 2.0])
def test_the_solver_refuses_a_board_size_that_is_not_an_int(n):
    # True once played on the 1 x 1 board, and 2.0 raised TypeError in range()
    for s, t in (((1,), (0,)), ((0, 0), (2, 2))):
        with pytest.raises(ValueError, match=f"^n must be an int, got {n!r}$"):
            solve_snakes(n, s, t)


@pytest.mark.parametrize("n", range(1, 6))
def test_catalan_lattice_is_the_box_below_the_staircase(n):
    """``c_lattice(n)`` is the down-set of ``a_lattice(n, n)`` below the
    staircase (n, ..., 1): its rules are the box's under that top."""
    box = a_lattice(n, n)
    staircase = tuple(range(n, 0, -1))
    below = {x for x in box.vertices if all(a <= b for a, b in zip(x, staircase))}
    lat = c_lattice(n)
    assert set(lat.vertices) == below
    assert lat.diagram.edges == tuple((u, v, c) for (u, v, c) in box.diagram.edges
                                      if u in below and v in below)
