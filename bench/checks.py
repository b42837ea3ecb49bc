"""Output checks, run outside every timed region.

Each check returns ``None`` for a correct answer and a one-line reason
otherwise; the caller counts every reason as one failed operation.
"""

import json
from collections import Counter

from colorlattice import (
    Board,
    DominoSolution,
    SnakeSolution,
    SwitchSolution,
    bfs_distance,
    domino_digraph,
    ming_digraph,
    mixedmiddleswitch_digraph,
    replay_domino,
    replay_snakes,
    replay_switches,
)
from colorlattice.switchgame import parse_bits, parse_tuple

# The README's pinned instance.
PINNED = {"n": 5, "from": "00000", "to": "01010", "distance": 10,
          "flips": [5, 4, 5, 3, 4, 5, 2, 3, 4, 5]}


def raw_graph(inst, sizes):
    """The family's move graph, built from the game rules alone."""
    if inst == "switch":
        return mixedmiddleswitch_digraph(sizes["switch"])
    if inst == "snakes":
        return ming_digraph(sizes["snakes"])
    return domino_digraph(inst, *sizes["board"])


def json_colors(payload):
    return {int(c): m for c, m in payload["color_counts"].items()}


def solution_from_json(inst, sizes, payload):
    """Rebuild a library solution object from ``solve --json`` output."""
    moves = payload["moves"]
    counts = json_colors(payload)
    if inst == "switch":
        positions = [parse_bits(p) for p in payload["path"]]
        return SwitchSolution(positions[0], positions[-1], positions,
                              [m["flip"] for m in moves], None)
    states = [parse_tuple(p) for p in payload["path"]]
    if inst == "snakes":
        actions = [(m["verb"], tuple(tuple(sq) for sq in m["snake"]))
                   for m in moves]
        return SnakeSolution(sizes["snakes"], states, actions, counts, None)
    k, n = sizes["board"]
    actions = [(m["verb"], tuple(tuple(sq) for sq in m["squares"]), m["color"])
               for m in moves]
    return DominoSolution(inst, k, n, states, actions, counts, None)


def check_solution(inst, sizes, s, t, sol, colors=None, oracle=None):
    """Endpoints, replay, move colors and (when given) the search distance.

    ``colors`` is the color tally the program reported; it must match the
    colors of the moves it printed.  ``oracle`` is ``bfs_distance`` on the
    raw move graph, or ``None`` when this answer is not in the sample.
    """
    if sol.start != s or sol.target != t:
        return "endpoints differ from the request"
    moves = sol.flips if inst == "switch" else sol.actions
    if sol.distance != len(moves):
        return "distance differs from the move count"
    try:
        if inst == "switch":
            replay_switches(sol)
        elif inst == "snakes":
            replay_snakes(sol)
        else:
            replay_domino(Board(inst, *sizes["board"]), sol)
    except AssertionError as err:
        return f"replay failed: {err}"
    if colors is not None:
        if inst == "switch":
            played = Counter(moves)
        elif inst == "snakes":
            played = Counter(len(snake) for (_, snake) in moves)
        else:
            played = Counter(color for (_, _, color) in moves)
        if dict(played) != {c: m for c, m in colors.items() if m}:
            return "color counts differ from the moves played"
    if oracle is not None and sol.distance != oracle:
        return f"distance {sol.distance}, breadth-first search {oracle}"
    return None


def check_cli_solve(inst, sizes, s, t, proc, oracle):
    """Check one ``colorlattice solve --json`` process."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        payload = json.loads(proc.stdout)
        sol = solution_from_json(inst, sizes, payload)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"unreadable output: {err!r}"
    return check_solution(inst, sizes, s, t, sol, json_colors(payload), oracle)


class Oracle:
    """Breadth-first search distances on the raw move graphs, each built once."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.graphs = {}

    def distance(self, inst, s, t):
        if inst not in self.graphs:
            self.graphs[inst] = raw_graph(inst, self.sizes)
        return bfs_distance(self.graphs[inst], s, t)


def check_pinned(distance, flips):
    if distance != PINNED["distance"] or list(flips) != PINNED["flips"]:
        return f"pinned instance gave distance {distance}, flips {list(flips)}"
    return None


def check_verify(proc, expected_checks):
    """Check one ``colorlattice verify all --json`` process."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}"
    try:
        payload = json.loads(proc.stdout)
        failures, ran = payload["failures"], len(payload["checks"])
        all_ok = all(c["ok"] for c in payload["checks"])
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable output: {err!r}"
    if failures or not all_ok:
        return f"{failures} checks failed"
    if expected_checks is not None and ran != expected_checks:
        return f"{ran} checks ran, expected {expected_checks}"
    return None
