"""Sweeps of internal cross-checks, behind ``colorlattice verify``.

Each suite builder takes the sweep bound ``max_n`` and returns (label,
thunk) pairs; a thunk passes by returning and fails by raising, with
:class:`_CheckFailed` carrying the counterexample.  The CLI keeps each
suite's name and default bound, for its ``--help``, and hands them to
:func:`run`, which finds the builder ``_suite_<name>`` here.  This module
imports every family, so only ``verify`` loads it, and it never imports
``colorlattice.cli``: under ``python -m colorlattice.cli`` that would load a
second copy of the CLI.
"""

import json
from itertools import combinations, count
from math import factorial

from .characters import (
    bialternant_check,
    closed_card_c,
    closed_rgf_b,
    closed_rgf_c,
    is_structured,
    is_symmetric_unimodal,
    orbit,
    product_rgf,
    rgf,
    root_data,
    weyl_group,
    wgf,
)
from .core import NotIsomorphicError
from .dominoes import enumerate_box_partitions, is_ballot, is_staircase, l_map
from .explicit import (
    a_lattice,
    bfs_distance,
    c_lattice,
    cached_isomorphism,
    dec_lattice,
    distances_from,
    domino_digraph,
    ideals_lattice,
    is_diamond_colored,
    is_topographically_balanced,
    join_irreducibles,
    kn_lattice,
    ming_digraph,
    mixedmiddleswitch_digraph,
    verify_isomorphism,
    z_lattice,
)
from .paths import (
    geodesic_multisets,
    gods_number,
    lattice_distance,
    shortest_path,
)
from .polynomials import LaurentPoly, qbinomial
from .snakes import (
    _TILINGS_CAP,
    _tilings,
    catalan_tuples,
    enumerate_tilings,
    solve_snakes,
)
from .switchgame import (
    b_inv,
    b_map,
    format_bits,
    format_tuple,
    int_to_bits,
    parse_bits,
    solve_mixedmiddleswitch,
)
from .tableaux import (
    dec_admissible,
    dec_admissible_tally,
    enumerate_tableaux,
    is_ballot_tally,
    is_staircase_tally,
    kn_admissible,
    kn_admissible_tally,
    tab_to_part,
    to_tally,
    wt_c,
)


class _CheckFailed(Exception):
    """A verification check found a counterexample; the text carries it."""


class NoCheckError(Exception):
    """A sweep bound under which a wanted suite builds no check."""


def _ck(cond, detail):
    if not cond:
        raise _CheckFailed(detail)


def _check_coords_rebuild(make):
    """The Birkhoff coordinates identify the lattice with the lattice of
    order ideals of its irreducibles, edge colors included."""
    lat = make()
    p = lat.poset
    ideals = ideals_lattice(p)
    verify_isomorphism(lat.diagram, ideals.diagram, lat.ideal_coords)
    again = join_irreducibles(ideals)
    _ck(sorted(p.color(e) for e in p.elements)
        == sorted(again.color(e) for e in again.elements),
        "irreducibles of the rebuilt lattice have different colors")


def _suite_birkhoff(max_n):
    checks = []
    for n in range(2, max_n + 1):
        checks.append((f"switch rows n={n}: ideals of irreducibles rebuild the lattice",
                       lambda n=n: _check_coords_rebuild(lambda: z_lattice(n))))
    for n in range(1, min(max_n, 5) + 1):
        checks.append((f"square board n={n}: ideals of irreducibles rebuild the lattice",
                       lambda n=n: _check_coords_rebuild(lambda: c_lattice(n))))
    for k in range(1, min(max_n, 3) + 1):
        for n in range(k, min(max_n, 3) + 1):
            checks.append((f"boards k={k} n={n}: ideals of irreducibles rebuild both lattices",
                           lambda k=k, n=n: (_check_coords_rebuild(lambda: kn_lattice(k, n)),
                                             _check_coords_rebuild(lambda: dec_lattice(k, n)))))
    return checks


# The pairwise sweeps raise directly rather than through _ck, which would
# format a message for every pair even when all of them pass.

def _check_distance_formula(lat, fmt):
    verts = lat.vertices
    for s in verts:
        dist = distances_from(lat.diagram, s)
        for t in verts:
            d_rank = lattice_distance(lat, s, t)
            if t not in dist:
                raise _CheckFailed(
                    f"{fmt(t)} is not reachable from {fmt(s)} in the diagram")
            if d_rank != dist[t]:
                raise _CheckFailed(
                    f"rank formula gives {d_rank}, breadth-first search {dist[t]} "
                    f"between {fmt(s)} and {fmt(t)}")


def _check_certificates(lat, fmt):
    verts = lat.vertices
    for s in verts:
        for t in verts:
            d = lattice_distance(lat, s, t)
            for via in ("join", "meet"):
                cert = shortest_path(lat, s, t, via=via)
                if cert.distance != d:
                    raise _CheckFailed(
                        f"{via} certificate for {fmt(s)} -> {fmt(t)} has length "
                        f"{cert.distance}, distance is {d}")
                cert.validate(lat)


def _check_color_multisets(lat, fmt):
    verts = lat.vertices
    for s in verts:
        sets = geodesic_multisets(lat.diagram, s)
        for t in verts:
            if len(sets[t]) != 1:
                raise _CheckFailed(
                    f"geodesics {fmt(s)} -> {fmt(t)} use different color multisets: "
                    f"{sorted(sets[t])}")


def _suite_theorem2(max_n):
    checks = []
    for n in range(2, max_n + 1):
        checks.append((
            f"switch rows n={n}: diagram is diamond-colored and balanced",
            lambda n=n: (_ck(is_diamond_colored(z_lattice(n).diagram), "not diamond-colored"),
                         _ck(is_topographically_balanced(z_lattice(n).diagram), "not balanced"),
                         z_lattice(n).check_lattice())))
        checks.append((
            f"switch rows n={n}: rank-formula distance equals breadth-first "
            f"distance on every ordered pair",
            lambda n=n: _check_distance_formula(z_lattice(n), format_bits)))
        checks.append((
            f"switch rows n={n}: join and meet certificates validate "
            f"at the optimal length",
            lambda n=n: _check_certificates(z_lattice(n), format_bits)))
    for n in range(2, max_n + 1):
        checks.append((
            f"switch rows n={n}: all geodesics of a pair share one color multiset",
            lambda n=n: _check_color_multisets(z_lattice(n), format_bits)))
    for n in range(2, min(max_n, 6) + 1):
        checks.append((
            f"switch rows n={n}: optimal-move diameter equals the lattice length",
            lambda n=n: _check_diameter(n)))
    return checks


def _check_diameter(n):
    diameter = gods_number(z_lattice(n))
    _ck(diameter == n * (n + 1) // 2, f"diameter {diameter} != {n * (n + 1) // 2}")


def _check_switch_bijection(n):
    lat = z_lattice(n)
    _ck(len(lat) == 2 ** n, f"{len(lat)} lattice vertices, expected {2 ** n}")
    for x in lat.vertices:
        if b_inv(b_map(x)) != x:
            raise _CheckFailed(f"decode(encode) moved {x}")
    for v in range(2 ** n):
        bits = int_to_bits(v, n)
        if b_map(b_inv(bits)) != bits:
            raise _CheckFailed(f"encode(decode) moved {format_bits(bits)}")


def _check_switch_iso(n):
    lat = z_lattice(n)
    verify_isomorphism(lat.diagram, mixedmiddleswitch_digraph(n),
                       {v: b_map(v) for v in lat.vertices})


def _suite_minuscule(max_n):
    checks = []
    for n in range(2, max_n + 1):
        checks.append((f"switch rows n={n}: encode/decode are mutually inverse",
                       lambda n=n: _check_switch_bijection(n)))
        checks.append((f"switch rows n={n}: game graph matches the lattice "
                       f"diagram edge for edge",
                       lambda n=n: _check_switch_iso(n)))
        checks.append((f"switch rows n={n}: lattice length is n(n+1)/2",
                       lambda n=n: _ck(z_lattice(n).length == n * (n + 1) // 2,
                                       f"length {z_lattice(n).length}")))
    if max_n >= 5:
        def flagship():
            sol = solve_mixedmiddleswitch(5, parse_bits("00000"), parse_bits("01010"))
            _ck(sol.distance == 10, f"solver found {sol.distance} moves, expected 10")
            _ck(bfs_distance(mixedmiddleswitch_digraph(5),
                             parse_bits("00000"), parse_bits("01010")) == 10,
                "breadth-first search disagrees with 10")
        checks.append(("pinned instance 00000 -> 01010 at n=5 takes 10 moves",
                       flagship))
    return checks


def _check_domino_counts(k, n):
    sizes = {
        "kn lattice": len(kn_lattice(k, n)),
        "dec lattice": len(dec_lattice(k, n)),
        "closed form": closed_card_c(n, k),
        "king tableaux": len(enumerate_tableaux("king", k, n)),
        "seminarii tableaux": len(enumerate_tableaux("seminarii", k, n)),
    }
    _ck(len(set(sizes.values())) == 1, f"cardinalities disagree: {sizes}")


def _check_domino_rgf(k, n):
    closed = closed_rgf_c(n, k)
    for label, lat in (("kn", kn_lattice(k, n)), ("dec", dec_lattice(k, n))):
        _ck(lat.length == k * (2 * n - k),
            f"{label} lattice has length {lat.length}, "
            f"expected {k * (2 * n - k)}")
        poly = rgf(lat)
        _ck(poly == closed,
            f"{label} rank polynomial differs from the closed form")
        _ck(is_symmetric_unimodal(poly),
            f"{label} rank polynomial is not symmetric unimodal")


def _check_domino_iso(k, n):
    targets = {"ballot": dec_lattice(k, n), "staircase": kn_lattice(k, n),
               "full": a_lattice(k, 2 * n - k)}
    for kind, lat in targets.items():
        g = domino_digraph(kind, k, n)
        try:
            verify_isomorphism(g, lat.diagram, {v: l_map(v, k, n) for v in g.vertices})
        except NotIsomorphicError as err:
            raise _CheckFailed(f"{kind} board: {err}") from None


def _check_domino_members(k, n):
    for label, lat, admissible in (("kn", kn_lattice(k, n), kn_admissible),
                                   ("dec", dec_lattice(k, n), dec_admissible)):
        odd = sorted({tau for tau in enumerate_box_partitions(k, 2 * n - k)
                      if admissible(tau, k, n)}.symmetric_difference(lat.vertices))
        _ck(not odd, f"{label} lattice and the {label} admissible partitions "
                     f"differ on {format_tuple(odd[0]) if odd else ''}")
        lat.check_lattice()


def _check_domino_tallies(k, n):
    for tau in enumerate_box_partitions(k, 2 * n - k):
        _ck(kn_admissible(tau, k, n) == kn_admissible_tally(tau, k, n),
            f"kn readings disagree on {format_tuple(tau)}")
        _ck(dec_admissible(tau, k, n) == dec_admissible_tally(tau, k, n),
            f"dec readings disagree on {format_tuple(tau)}")
    for T in combinations(range(1, 2 * n + 1), k):
        tau = tab_to_part(T)
        _ck(is_ballot(tau, k, n) == is_ballot_tally(to_tally(T, n)),
            f"ballot tally reading disagrees on column {format_tuple(T)}")
        _ck(is_staircase(tau, k, n) == is_staircase_tally(to_tally(T, n)),
            f"staircase tally reading disagrees on column {format_tuple(T)}")


def _suite_symplectic(max_n):
    checks = []
    pairs = [(k, n) for n in range(1, max_n + 1) for k in range(1, n + 1)]
    for k, n in pairs:
        checks.append((f"columns k={k} n={n}: kn and dec lattices list the "
                       f"admissible partitions and pass the lattice certificate",
                       lambda k=k, n=n: _check_domino_members(k, n)))
        checks.append((f"columns k={k} n={n}: five cardinality countings agree",
                       lambda k=k, n=n: _check_domino_counts(k, n)))
        checks.append((f"columns k={k} n={n}: rank polynomials match the closed form",
                       lambda k=k, n=n: _check_domino_rgf(k, n)))
        checks.append((f"columns k={k} n={n}: tile moves realize the lattices "
                       f"under the coding",
                       lambda k=k, n=n: _check_domino_iso(k, n)))
    for k, n in [(k, n) for (k, n) in pairs if n <= 4]:
        checks.append((f"columns k={k} n={n}: tally and partition readings agree",
                       lambda k=k, n=n: _check_domino_tallies(k, n)))
    if any((k, n) == (2, 3) for k, n in pairs):
        checks.append(("pinned coding image: 4,3 -> 1,1 at k=2, n=3",
                       lambda: _ck(l_map((4, 3), 2, 3) == (1, 1),
                                   f"image is {format_tuple(l_map((4, 3), 2, 3))}")))
    return checks


def _unit(rank, i):
    return tuple(int(j == i - 1) for j in range(rank))


def _check_weight_multisets(k, n):
    rd = root_data("C", n)
    kn_sum = wgf(kn_lattice(k, n), rd)
    dec_sum = wgf(dec_lattice(k, n), rd)
    king_sum = LaurentPoly([(wt_c(T, n), 1)
                            for T in enumerate_tableaux("king", k, n)])
    semi_sum = LaurentPoly([(wt_c(T, n), 1)
                            for T in enumerate_tableaux("seminarii", k, n)])
    _ck(dec_sum == king_sum, "dec lattice weights differ from king tableau weights")
    _ck(kn_sum == semi_sum, "kn lattice weights differ from seminarii tableau weights")
    _ck(kn_sum == dec_sum, "the two lattices carry different weight multisets")


def _suite_weyl(max_n):
    checks = []
    for n in range(2, min(max_n, 5) + 1):
        checks.append((
            f"rank {n}: reflection groups have order 2^n n!",
            lambda n=n: _ck(
                len(weyl_group(root_data("B", n))) == 2 ** n * factorial(n)
                and len(weyl_group(root_data("C", n))) == 2 ** n * factorial(n),
                "group size is off")))
    for n in range(2, min(max_n, 6) + 1):
        checks.append((
            f"switch rows n={n}: every edge moves the weight by its simple root",
            lambda n=n: _ck(is_structured(z_lattice(n), root_data("B", n)),
                            "an edge displaces the weight wrongly")))
    for n in range(2, min(max_n, 5) + 1):
        checks.append((
            f"switch rows n={n}: weight sum is a single group orbit",
            lambda n=n: _ck(
                wgf(z_lattice(n), root_data("B", n))
                == LaurentPoly([(mu, 1)
                                for mu in orbit(root_data("B", n), _unit(n, n))]),
                "weight sum differs from the orbit sum")))
    for n in range(2, min(max_n, 4) + 1):
        checks.append((
            f"switch rows n={n}: weight sum passes the bialternant identity",
            lambda n=n: _ck(
                bialternant_check(root_data("B", n), _unit(n, n),
                                  wgf(z_lattice(n), root_data("B", n))),
                "alternant products disagree")))
    for n in range(2, min(max_n, 8) + 1):
        checks.append((
            f"switch rows n={n}: rank polynomial matches both closed forms",
            lambda n=n: _ck(
                rgf(z_lattice(n)) == closed_rgf_b(n)
                == product_rgf(root_data("B", n), _unit(n, n)),
                "rank polynomial differs from a closed form")))
    for n in range(2, min(max_n, 3) + 1):
        for k in range(1, n + 1):
            checks.append((
                f"columns k={k} n={n}: both lattices are structured",
                lambda k=k, n=n: _ck(
                    is_structured(kn_lattice(k, n), root_data("C", n))
                    and is_structured(dec_lattice(k, n), root_data("C", n)),
                    "an edge displaces the weight wrongly")))
            checks.append((
                f"columns k={k} n={n}: four weight multisets agree",
                lambda k=k, n=n: _check_weight_multisets(k, n)))
            checks.append((
                f"columns k={k} n={n}: weight sum passes the bialternant identity",
                lambda k=k, n=n: _ck(
                    bialternant_check(root_data("C", n), _unit(n, k),
                                      wgf(kn_lattice(k, n), root_data("C", n))),
                    "alternant products disagree")))
            checks.append((
                f"columns k={k} n={n}: rank polynomial matches the root product",
                lambda k=k, n=n: _ck(
                    rgf(kn_lattice(k, n)) == product_rgf(root_data("C", n), _unit(n, k)),
                    "rank polynomial differs from the root product")))
    for k in range(1, min(max_n, 4) + 1):
        for m in range(k, min(max_n, 4) + 1):
            checks.append((
                f"box k={k} m={m}: rank polynomial is the Gaussian binomial",
                lambda k=k, m=m: _ck(rgf(a_lattice(k, m)) == qbinomial(k + m, k),
                                     "rank polynomial differs from the Gaussian binomial")))
    return checks


# The largest square board within the tiling cap, where the catalan counts
# and correspondence stop (the CLI's snakes listing cap is the same board).
_TOP_BOARD = next(n for n in count(1) if _tilings(n + 1) > _TILINGS_CAP)


def _check_catalan_counts(n):
    want = _tilings(n)
    tilings, tuples = enumerate_tilings(n), catalan_tuples(n)
    _ck(len(tilings) == want, f"{len(tilings)} tilings, expected {want}")
    _ck(len(tuples) == want, f"{len(tuples)} tuples, expected {want}")
    lat = c_lattice(n)
    _ck(lat.length == n * (n + 1) // 2, f"lattice length {lat.length}")
    lat.check_lattice()
    g = ming_digraph(n)
    _ck(set(g.colors()) == set(range(1, 2 * n)),
        f"move colors are {sorted(g.colors())}, expected 1..{2 * n - 1}")
    _ck(is_diamond_colored(g), "tiling move graph is not diamond-colored")
    _ck(is_topographically_balanced(g), "tiling move graph is not balanced")


def _suite_catalan(max_n):
    checks = []
    top = min(max_n, _TOP_BOARD)

    def clamp(n):
        return (f"; clamped at n={top}, the largest board within the "
                "tiling cap" if n == top < max_n else "")

    for n in range(1, top + 1):
        checks.append((f"square board n={n}: counts, length, colors, "
                       f"structure{clamp(n)}",
                       lambda n=n: _check_catalan_counts(n)))
    for n in range(1, top + 1):
        checks.append((
            f"square board n={n}: tiling moves realize the lattice "
            f"(closed-form correspondence verified{clamp(n)})",
            lambda n=n: _ck(len(cached_isomorphism(n))
                            == _tilings(n),
                            "correspondence does not cover every vertex")))
    if max_n >= 4:
        def pinned():
            s, t = (4, 4, 1, 0), (1, 0, 0, 0)
            sol = solve_snakes(4, s, t)
            oracle = bfs_distance(ming_digraph(4), s, t)
            _ck(sol.distance == oracle,
                f"solver found {sol.distance} moves, search oracle {oracle}")
        checks.append(("pinned instance 4,4,1,0 -> 1,0,0,0 at n=4 matches "
                       "the search oracle", pinned))
    return checks


def run(suites, suite, max_n, as_json):
    """Build and run one suite, or every one under ``"all"``, and print the
    report; 1 if a check failed, else 0.  ``suites`` holds the (name,
    default bound) pairs; ``max_n`` None means each suite's default."""
    wanted = [name for name, _ in suites] if suite == "all" else [suite]
    built = []
    for name, default in suites:
        if name in wanted:
            builder = globals()[f"_suite_{name}"]
            built.append((name, builder,
                          builder(max_n if max_n is not None else default)))
    empty = [(name, builder) for name, builder, checks in built if not checks]
    if empty:
        # a sweep that checks nothing must not read as a pass
        least = max(next(n for n in count(1) if builder(n)) for _, builder in empty)
        raise NoCheckError(
            f"--max-n {max_n} builds no check in suite "
            f"{', '.join(name for name, _ in empty)}; the smallest that builds "
            f"one in each is {least}")
    rows = []
    for name, _, checks in built:
        for check_name, thunk in checks:
            try:
                thunk()
                rows.append((name, check_name, True, ""))
            except _CheckFailed as err:
                rows.append((name, check_name, False, str(err)))
            except Exception as err:  # a crash is a failure, never a pass
                rows.append((name, check_name, False,
                             f"{type(err).__name__}: {err}"))
    failures = sum(1 for r in rows if not r[2])
    if as_json:
        print(json.dumps({
            "suites": wanted,
            "checks": [{"suite": s, "name": c, "ok": ok, "detail": d}
                       for (s, c, ok, d) in rows],
            "failures": failures,
        }, indent=2))
    else:
        for (s, c, ok, d) in rows:
            print(f"[{'ok' if ok else 'FAIL'}] {s}: {c}")
            if not ok:
                print(f"       counterexample: {d}")
        print(f"checks={len(rows)} failures={failures}")
    return 1 if failures else 0

