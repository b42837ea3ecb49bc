"""Span recorder and the per-layer profile, timed from outside the package.

Every span wraps a call into a public function of ``colorlattice``; nothing
inside ``src/`` is instrumented.  Build-side layers are called in dependency
order, so the lru_caches the package keeps make each call's time its own
share of the cold build.
"""

import statistics
from contextlib import contextmanager
from time import perf_counter

from colorlattice import (
    Board,
    ColoredDigraph,
    DiamondLattice,
    a_lattice,
    all_snakes,
    attach_birkhoff_coords,
    b_inv,
    b_map,
    c_lattice,
    cached_isomorphism,
    color_counts,
    dec_lattice,
    domino_digraph,
    enumerate_tilings,
    kn_lattice,
    l_map,
    lattice_distance,
    ming_digraph,
    replay_domino,
    replay_snakes,
    replay_switches,
    shortest_path,
    solve_domino,
    solve_mixedmiddleswitch,
    solve_snakes,
    z_lattice,
)
from colorlattice.switchgame import all_cushioned

KINDS = ("ballot", "staircase", "full")
INSTANCES = ("switch",) + KINDS + ("snakes",)

# The largest sizes the command line accepts, and the smallest ones the
# self-test runs.
FULL = {"switch": 12, "board": (3, 6), "snakes": 6}
SMALL = {"switch": 5, "board": (2, 3), "snakes": 3}


class Tracer:
    """Spans (id, name, start, end, parent) and counts, kept in memory."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, perf_counter(), None, parent])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][3] = perf_counter()

    def add(self, name, start, end):
        """Record a span measured elsewhere, such as in a child process."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([len(self.spans), name, start, end, parent])

    def durations(self, name):
        return [end - start for (_, n, start, end, _) in self.spans if n == name]

    def total(self, name):
        return sum(self.durations(name))

    def as_json(self):
        return {"spans": [{"id": sid, "name": n, "start": s, "end": e,
                           "parent": p} for (sid, n, s, e, p) in self.spans],
                "counts": self.counts}


def family_lattice(kind, k, n):
    """The lattice ``solve_domino`` walks for a board kind."""
    if kind == "ballot":
        return dec_lattice(k, n)
    if kind == "staircase":
        return kn_lattice(k, n)
    return a_lattice(k, 2 * n - k)


def build_instances(sizes, tr):
    """Build everything the five solvers need, layer by layer."""
    n_sw = sizes["switch"]
    k, n = sizes["board"]
    n_sn = sizes["snakes"]
    with tr.span("switchgame.enumerate"):
        all_cushioned(n_sw)
    with tr.span("switchgame.z_lattice"):
        zl = z_lattice(n_sw)
    for kind in KINDS:
        with tr.span("dominoes.move_graph"):
            domino_digraph(kind, k, n)
    with tr.span("dominoes.a_lattice"):
        a_lattice(k, 2 * n - k)
    with tr.span("dominoes.induced_lattice"):
        kn_lattice(k, n)
        dec_lattice(k, n)
    with tr.span("snakes.all_snakes"):
        snakes = all_snakes(n_sn)
    with tr.span("snakes.tilings"):
        tilings = enumerate_tilings(n_sn)
    with tr.span("snakes.move_graph"):
        ming_digraph(n_sn)
    with tr.span("snakes.c_lattice"):
        c_lattice(n_sn)
    with tr.span("snakes.isomorphism"):
        cached_isomorphism(n_sn)
    tr.counts.update({
        "switchgame.V": len(zl),
        "switchgame.E": len(zl.diagram.edges),
        "dominoes.V": sum(len(domino_digraph(kind, k, n)) for kind in KINDS),
        "snakes.snakes": len(snakes),
        "snakes.tilings": len(tilings),
        "snakes.move_tests": len(snakes) * len(tilings),
    })


def profile_core(sizes, tr):
    """Re-run the core constructors on the diagrams already built."""
    k, n = sizes["board"]
    lattices = [z_lattice(sizes["switch"]), kn_lattice(k, n), dec_lattice(k, n),
                a_lattice(k, 2 * n - k), c_lattice(sizes["snakes"])]
    certified = lattices[1:3]   # the lattices whose build runs check_lattice
    pairs = 0
    for lat in lattices:
        with tr.span("core.digraph"):
            g = ColoredDigraph(lat.vertices, lat.diagram.edges)
        with tr.span("core.rank_masks"):
            bare = DiamondLattice(g, "distributive", coord_join=lat.coord_join,
                                  coord_meet=lat.coord_meet)
        with tr.span("core.birkhoff"):
            attach_birkhoff_coords(bare)
        if lat in certified:
            with tr.span("core.check_lattice"):
                bare.check_lattice()
            pairs += len(bare) * (len(bare) - 1) // 2
    tr.counts["core.check_lattice_pairs"] = pairs


def profile_solves(sizes, pairs, tr):
    """Time one solve per pair, then each public step of it separately.

    ``pairs`` holds (instance, start, target, via).  The step calls repeat
    the work the solver did, so their times are shares of the solve time.
    """
    k, n = sizes["board"]
    n_sw, n_sn = sizes["switch"], sizes["snakes"]
    iso = cached_isomorphism(n_sn)
    inv = {rows: v for v, rows in iso.items()}
    steps = 0
    for inst, s, t, via in pairs:
        with tr.span("profile.pair"):
            if inst == "switch":
                with tr.span("switchgame.solve"):
                    sol = solve_mixedmiddleswitch(n_sw, s, t, via=via)
                lat = z_lattice(n_sw)
                xs, xt = b_inv(s), b_inv(t)
                with tr.span("paths.shortest_path"):
                    cert = shortest_path(lat, xs, xt, via=via)
                with tr.span("switchgame.decode"):
                    b_inv(s), b_inv(t)
                    [b_map(v) for v in cert.vertices]
                with tr.span("paths.lattice_distance"):
                    lattice_distance(lat, xs, xt)
                with tr.span("switchgame.replay"):
                    replay_switches(sol)
            else:
                if inst == "snakes":
                    with tr.span("snakes.solve"):
                        sol = solve_snakes(n_sn, s, t, via=via)
                    lat, xs, xt = c_lattice(n_sn), inv[s], inv[t]
                else:
                    with tr.span("dominoes.solve"):
                        sol = solve_domino(inst, k, n, s, t, via=via)
                    lat = family_lattice(inst, k, n)
                    xs, xt = l_map(s, k, n), l_map(t, k, n)
                with tr.span("paths.shortest_path"):
                    cert = shortest_path(lat, xs, xt, via=via)
                with tr.span("paths.lattice_distance"):
                    lattice_distance(lat, xs, xt)
                with tr.span("paths.color_counts"):
                    color_counts(lat, xs, xt)
                if inst == "snakes":
                    with tr.span("snakes.replay"):
                        replay_snakes(sol)
                else:
                    with tr.span("dominoes.replay"):
                        replay_domino(Board(inst, k, n), sol)
            steps += cert.distance
    tr.counts["paths.steps"] = steps


VERIFY_SUITES = ("birkhoff", "theorem2", "minuscule", "symplectic", "weyl", "catalan")

# name -> (unit, how the spans reduce to one value)
SECONDS_TOTAL = ("s", "total")
MS_MEDIAN = ("ms", "median")
PER_LAYER = {
    "cli.startup_s": ("s", "median"),
    **{f"cli.verify.{suite}_s": ("s", "median") for suite in VERIFY_SUITES},
    "switchgame.enumerate_s": SECONDS_TOTAL,
    "switchgame.z_lattice_s": SECONDS_TOTAL,
    "dominoes.move_graph_s": SECONDS_TOTAL,
    "dominoes.a_lattice_s": SECONDS_TOTAL,
    "dominoes.induced_lattice_s": SECONDS_TOTAL,
    "snakes.all_snakes_s": SECONDS_TOTAL,
    "snakes.tilings_s": SECONDS_TOTAL,
    "snakes.move_graph_s": SECONDS_TOTAL,
    "snakes.c_lattice_s": SECONDS_TOTAL,
    "snakes.isomorphism_s": SECONDS_TOTAL,
    "core.digraph_s": SECONDS_TOTAL,
    "core.rank_masks_s": SECONDS_TOTAL,
    "core.birkhoff_s": SECONDS_TOTAL,
    "core.check_lattice_s": SECONDS_TOTAL,
    "paths.shortest_path_ms": MS_MEDIAN,
    "paths.color_counts_ms": MS_MEDIAN,
    "paths.lattice_distance_ms": MS_MEDIAN,
    "switchgame.decode_ms": MS_MEDIAN,
    "switchgame.replay_ms": MS_MEDIAN,
    "dominoes.replay_ms": MS_MEDIAN,
    "snakes.replay_ms": MS_MEDIAN,
    "switchgame.solve_p50_ms": MS_MEDIAN,
    "dominoes.solve_p50_ms": MS_MEDIAN,
    "snakes.solve_p50_ms": MS_MEDIAN,
}
COUNTS = ("switchgame.V", "switchgame.E", "dominoes.V", "snakes.snakes",
          "snakes.tilings", "snakes.move_tests", "core.check_lattice_pairs",
          "paths.steps")


def span_name(metric):
    """``dominoes.solve_p50_ms`` -> ``dominoes.solve``; ``core.birkhoff_s`` -> ``core.birkhoff``."""
    for suffix in ("_p50_ms", "_ms", "_s"):
        if metric.endswith(suffix):
            return metric[:-len(suffix)]
    raise ValueError(metric)


def layer_metrics(tr):
    """Reduce the recorded spans and counts to the per-layer metrics."""
    out = {}
    for metric, (unit, how) in PER_LAYER.items():
        name = span_name(metric)
        if how == "total":
            value = tr.total(name)
        else:
            value = statistics.median(tr.durations(name))
        if unit == "ms":
            value *= 1000.0
        out[metric] = {"value": value, "unit": unit}
    for metric in COUNTS:
        out[metric] = {"value": tr.counts[metric], "unit": "count"}
    return out
