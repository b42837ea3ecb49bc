"""Command-line front end: solve instances, sweep invariants, export diagrams.

Four subcommands.  ``solve`` plays one puzzle instance optimally and prints
a certificate a human can replay move by move; ``verify`` runs a named sweep
of internal cross-checks and exits nonzero on the first sign of trouble;
``export`` writes deterministic DOT diagrams or ASCII boards; ``enumerate``
lists a family's objects.  Families are addressed by name:

* ``mixedmiddleswitch`` -- switch rows, positions as bit strings (``01010``),
* ``domino-ballot`` / ``domino-staircase`` / ``domino-full`` -- tiled boards,
  positions as comma-separated partitions (``3,2,1``),
* ``snakes`` -- square-board tilings, positions as comma-separated row
  lengths (``4,4,1,0``).

``solve``, ``export`` and ``enumerate`` read a family only through its
record in ``_FAMILIES``, and every solution through ``states``, ``actions``
and ``color_counts``.  Output is in native encodings, never in lattice
coordinates: DOT vertices are the positions of the move graph, and
``--from`` on ``export`` names the tiling of the snakes text-board only.
Exit codes: 0 success, 1 a verification sweep found a violation, 2 bad
arguments or unparsable positions, 3 a position that parses but is not in
the family, 4 an internal error (a failed lattice certificate, replay or
correspondence check; traceback only under ``--debug``), 141 (128 +
SIGPIPE) the reader closed stdout early, as ``| head`` does.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from itertools import combinations, count
from math import comb, factorial

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
from .core import (
    CapExceededError,
    LatticeError,
    bfs_distance,
    ideals_lattice,
    is_diamond_colored,
    is_topographically_balanced,
    join_irreducibles,
    to_dot,
)
from .dominoes import (
    Board,
    a_lattice,
    dec_admissible,
    dec_admissible_tally,
    dec_lattice,
    domino_digraph,
    enumerate_box_partitions,
    enumerate_tableaux,
    is_ballot,
    is_ballot_tally,
    is_staircase,
    is_staircase_tally,
    kn_admissible,
    kn_admissible_tally,
    kn_lattice,
    l_map,
    solve_domino,
    tab_to_part,
    to_tally,
    wt_c,
)
from .paths import all_shortest_paths, gods_number, lattice_distance, shortest_path
from .polynomials import LaurentPoly, qbinomial
from .snakes import (
    NotIsomorphicError,
    c_lattice,
    cached_isomorphism,
    catalan_tuples,
    enumerate_tilings,
    is_tiling,
    ming_digraph,
    render_tiling,
    solve_snakes,
    verify_isomorphism,
)
from .switchgame import (
    b_inv,
    b_map,
    format_bits,
    format_tuple,
    int_to_bits,
    mixedmiddleswitch_digraph,
    parse_bits,
    parse_tuple,
    solve_mixedmiddleswitch,
    z_lattice,
)

# Sizes are kept honest up front.  ``solve`` walks every family on tuple
# coordinates, enumerating nothing; these caps keep a cold solve from the
# lattice minimum to its maximum under about a second.  For boards that
# holds between either pair of ends, lattice or board, both ways: the worst
# cold board solve took 0.71-0.78 s at n=32 and 0.89-1.0 s at n=33-35
# (python 3.11, shared 2-core host).  ``export`` and ``enumerate`` list every
# position, so they keep the exhaustive caps.
_CAP_SWITCH, _CAP_DOMINO, _CAP_SNAKES = 80, 32, 40
_LIST_CAP_SWITCH, _LIST_CAP_DOMINO, _LIST_CAP_SNAKES = 12, 6, 7
# (n=7 is also the largest square board within ``snakes._TILINGS_CAP``)

# One record per family: the board ``kind`` (None: no --k), the ``least`` n,
# the (solve, listing) ``caps`` and ``sizes`` refusal, ``parse``, ``format``,
# ``member`` and ``want`` (what a member is), ``solve``, one action's JSON
# ``move``, the ``listing``, the move ``graph``, the text-``board`` and what
# --from ``draws`` on it (None: none).  Callables look names up when called.
_Family = namedtuple("_Family", "kind least caps sizes parse format member want "
                                "solve move listing graph board draws")


def _board_family(kind):
    return _Family(
        kind=kind, least=1, caps=(_CAP_DOMINO, _LIST_CAP_DOMINO),
        sizes="board families are supported up to n={}",
        parse=parse_tuple, format=format_tuple,
        member=lambda n, k, tau: Board(kind, k, n).valid(tau),
        want="a {kind} partition at k={k}, n={n}",
        solve=lambda n, k, s, t, via: solve_domino(kind, k, n, s, t, via=via),
        move=lambda a: {"verb": a[0], "squares": [list(sq) for sq in a[1]],
                        "color": a[2]},
        listing=lambda n, k: Board(kind, k, n).partitions(),
        graph=lambda n, k: domino_digraph(kind, k, n),
        board=lambda n, k, _: Board(kind, k, n).render_ascii(), draws=None)


_FAMILIES = {
    "mixedmiddleswitch": _Family(
        kind=None, least=2, caps=(_CAP_SWITCH, _LIST_CAP_SWITCH),
        sizes="switch rows are supported for 2 <= n <= {}",
        parse=parse_bits, format=format_bits,
        member=lambda n, k, bits: len(bits) == n,
        want="a bit string of length {n}",
        solve=lambda n, k, s, t, via: solve_mixedmiddleswitch(n, s, t, via=via),
        move=lambda i: {"flip": i, "color": i},
        listing=lambda n, k: [int_to_bits(v, n) for v in range(2 ** n)],
        graph=lambda n, k: mixedmiddleswitch_digraph(n),
        board=None, draws=None),
    "domino-ballot": _board_family("ballot"),
    "domino-staircase": _board_family("staircase"),
    "domino-full": _board_family("full"),
    "snakes": _Family(
        kind=None, least=1, caps=(_CAP_SNAKES, _LIST_CAP_SNAKES),
        sizes="square boards are supported for 1 <= n <= {}",
        parse=parse_tuple, format=format_tuple,
        member=lambda n, k, rows: is_tiling(rows, n),
        want="a tiling of the {n} x {n} board",
        solve=lambda n, k, s, t, via: solve_snakes(n, s, t, via=via),
        move=lambda a: {"verb": a[0], "snake": [list(sq) for sq in a[1]],
                        "color": len(a[1])},
        listing=lambda n, k: enumerate_tilings(n),
        graph=lambda n, k: ming_digraph(n),
        board=lambda n, k, rows: render_tiling(rows, n),
        draws="ROWS (the tiling to draw)"),
}

# Failures of the program's own certificates and replays, never of the input.
_INTERNAL_ERRORS = (LatticeError, NotIsomorphicError, CapExceededError,
                    AssertionError, RecursionError)


class _UsageError(Exception):
    """Bad flags or unparsable text; mapped to exit code 2."""


class _MemberError(Exception):
    """A well-formed position outside the family; mapped to exit code 3."""


class _CheckFailed(Exception):
    """A verification check found a counterexample; the text carries it."""


def _resolve(args, listing=False):
    """The family's record, n and k (None where --k does not apply), checked
    against the solve caps or, under ``listing``, the listing caps."""
    fam, n, k = _FAMILIES[args.family], args.n, args.k
    if fam.kind is None:
        if k is not None:
            raise _UsageError(f"--k does not apply to family {args.family}")
    elif k is None:
        raise _UsageError(f"family {args.family} needs --k")
    elif not 1 <= k <= n:
        raise _UsageError(f"need 1 <= k <= n, got k={k}, n={n}")
    cap = fam.caps[listing]
    if not fam.least <= n <= cap:
        raise _UsageError(fam.sizes.format(cap))
    return fam, n, k


def _positions(fam, n, k, *flagged):
    """Parse every (flag, text) pair, then check that each is a member."""
    try:
        objs = [fam.parse(text) for _, text in flagged]
    except ValueError as err:
        raise _UsageError(str(err)) from None
    for (flag, _), obj in zip(flagged, objs):
        if not fam.member(n, k, obj):
            want = fam.want.format(n=n, k=k, kind=fam.kind)
            raise _MemberError(f"--{flag} value is not {want}")
    return objs


def _header(family, n, k):
    """The ``params`` of a JSON payload, and the text head's words."""
    params = {"n": n} if k is None else {"n": n, "k": k}
    return params, [f"family={family}"] + [f"{p}={v}" for p, v in params.items()]


# --------------------------------------------------------------------------
# solve

def cmd_solve(args):
    fam, n, k = _resolve(args)
    src, dst = _positions(fam, n, k, ("from", args.src), ("to", args.dst))
    sol = fam.solve(n, k, src, dst, args.via)
    counts = {c: m for c, m in sol.color_counts.items() if m}
    params, head = _header(args.family, n, k)
    if args.json:
        print(json.dumps({
            "family": args.family,
            "params": params,
            "distance": sol.distance,
            "color_counts": {str(c): counts[c] for c in sorted(counts)},
            "path": [fam.format(s) for s in sol.states],
            "moves": [fam.move(a) for a in sol.actions],
            "via": args.via,
            "shape": sol.certificate.orientation,
        }, indent=2))
        return 0
    print(" ".join(head + [f"via={args.via}"]))
    body = sol.serialize().splitlines()
    print(body[0])
    print("color counts: "
          + (" ".join(f"{c}:{counts[c]}" for c in sorted(counts)) or "(none)"))
    print(f"geodesic shape: {sol.certificate.orientation}")
    for line in body[1:]:
        print(line)
    return 0


# --------------------------------------------------------------------------
# export / enumerate

def cmd_export(args):
    fam, n, k = _resolve(args, listing=True)
    board = args.format == "text-board"
    if board and fam.board is None:
        raise _UsageError("text-board applies to the board families only")
    if args.src is not None and not (board and fam.draws):
        names = " and ".join(name for name, f in _FAMILIES.items() if f.draws)
        raise _UsageError(f"--from applies to the {names} text-board only")
    if not board:
        sys.stdout.write(to_dot(fam.graph(n, k), args.family.replace("-", "_"),
                                fam.format))
        return 0
    drawn = None
    if fam.draws:
        if args.src is None:
            raise _UsageError(f"{args.family} text-board needs --from {fam.draws}")
        drawn, = _positions(fam, n, k, ("from", args.src))
    print(fam.board(n, k, drawn))
    return 0


def cmd_enumerate(args):
    fam, n, k = _resolve(args, listing=True)
    objects = [fam.format(p) for p in fam.listing(n, k)]
    params, head = _header(args.family, n, k)
    if args.json:
        print(json.dumps({"family": args.family, "params": params,
                          "count": len(objects), "objects": objects}, indent=2))
        return 0
    print(" ".join(head + [f"count={len(objects)}"]))
    for text in objects:
        print(text)
    return 0


# --------------------------------------------------------------------------
# verify

def _ck(cond, detail):
    if not cond:
        raise _CheckFailed(detail)


def _check_coords_rebuild(make):
    """The attached ideal coordinates identify the lattice with the lattice
    of order ideals of its irreducibles, edge colors included."""
    lat = make()
    p = lat.poset
    _ck(p is not None, "no ideal coordinates attached")
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


def _check_distance_formula(lat, fmt):
    verts = lat.vertices
    for s in verts:
        for t in verts:
            d_rank = lattice_distance(lat, s, t)
            d_bfs = bfs_distance(lat.diagram, s, t)
            _ck(d_rank == d_bfs,
                f"rank formula gives {d_rank}, breadth-first search {d_bfs} "
                f"between {fmt(s)} and {fmt(t)}")


def _check_certificates(lat, fmt):
    verts = lat.vertices
    for s in verts:
        for t in verts:
            d = lattice_distance(lat, s, t)
            for via in ("join", "meet"):
                cert = shortest_path(lat, s, t, via=via)
                cert.validate(lat)
                _ck(cert.distance == d,
                    f"{via} certificate for {fmt(s)} -> {fmt(t)} has length "
                    f"{cert.distance}, distance is {d}")


def _check_color_multisets(lat, fmt, cap):
    verts = lat.vertices
    for s in verts:
        for t in verts:
            paths = all_shortest_paths(lat, s, t, cap=cap)
            seen = {tuple(sorted(p.color_multiset().items())) for p in paths}
            _ck(len(seen) == 1,
                f"geodesics {fmt(s)} -> {fmt(t)} use different color multisets: "
                f"{sorted(seen)}")


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
    for n in range(2, min(max_n, 4) + 1):
        checks.append((
            f"switch rows n={n}: all geodesics of a pair share one color multiset",
            lambda n=n: _check_color_multisets(z_lattice(n), format_bits,
                                               cap=n * (n + 1) // 2)))
    for n in range(2, min(max_n, 6) + 1):
        checks.append((
            f"switch rows n={n}: optimal-move diameter equals the lattice length",
            lambda n=n: _ck(gods_number(z_lattice(n)) == n * (n + 1) // 2,
                            f"diameter {gods_number(z_lattice(n))} != {n * (n + 1) // 2}")))
    return checks


def _check_switch_bijection(n):
    lat = z_lattice(n)
    _ck(len(lat) == 2 ** n, f"{len(lat)} lattice vertices, expected {2 ** n}")
    for x in lat.vertices:
        _ck(b_inv(b_map(x)) == x, f"decode(encode) moved {x}")
    for v in range(2 ** n):
        bits = int_to_bits(v, n)
        _ck(b_map(b_inv(bits)) == bits, f"encode(decode) moved {format_bits(bits)}")


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
        _ck(rgf(lat) == closed,
            f"{label} rank polynomial differs from the closed form")
        _ck(is_symmetric_unimodal(rgf(lat)),
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


def _check_catalan_counts(n):
    want = comb(2 * n + 2, n + 1) // (n + 2)
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
    top = min(max_n, _LIST_CAP_SNAKES)

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
                            == comb(2 * n + 2, n + 1) // (n + 2),
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


_SUITES = (
    ("birkhoff", _suite_birkhoff, 5),
    ("theorem2", _suite_theorem2, 5),
    ("minuscule", _suite_minuscule, 6),
    ("symplectic", _suite_symplectic, 4),
    ("weyl", _suite_weyl, 3),
    ("catalan", _suite_catalan, 5),
)


def cmd_verify(args):
    wanted = [s for (s, _, _) in _SUITES] if args.suite == "all" else [args.suite]
    suites = [(name, builder, builder(args.max_n if args.max_n is not None else default))
              for name, builder, default in _SUITES if name in wanted]
    empty = [(name, builder) for name, builder, checks in suites if not checks]
    if empty:
        # a sweep that checks nothing must not read as a pass
        least = max(next(n for n in count(1) if builder(n)) for _, builder in empty)
        raise _UsageError(
            f"--max-n {args.max_n} builds no check in suite "
            f"{', '.join(name for name, _ in empty)}; the smallest that builds "
            f"one in each is {least}")
    rows = []
    for name, _, checks in suites:
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
    if args.json:
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


# --------------------------------------------------------------------------
# argument plumbing

def _add_family_args(sub, positional):
    if positional:
        sub.add_argument("family", choices=_FAMILIES)
    else:
        sub.add_argument("--family", required=True, choices=_FAMILIES)
    sub.add_argument("--n", type=int, required=True, help="family size parameter")
    sub.add_argument("--k", type=int, help="row count (board families only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorlattice",
        description="Solve, check, list and draw colored-lattice puzzles.",
        epilog="Exit codes: 0 success, 1 verification failure, "
               "2 argument or parse error, 3 position outside the family, "
               "4 internal error (traceback under --debug), "
               "141 stdout closed early by its reader.")
    subs = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error")

    p = subs.add_parser("solve", parents=[common],
                        help="optimal play with a replayable certificate")
    _add_family_args(p, positional=True)
    p.add_argument("--from", dest="src", required=True, metavar="POSITION",
                   help="start, in the family's native encoding")
    p.add_argument("--to", dest="dst", required=True, metavar="POSITION",
                   help="target, in the family's native encoding")
    p.add_argument("--via", choices=("join", "meet"), default="join",
                   help="climb over the join (default) or dip through the meet")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("verify", help="run a named sweep of internal cross-checks")
    p.add_argument("suite", choices=tuple(s for (s, _, _) in _SUITES) + ("all",))
    p.add_argument("--max-n", dest="max_n", type=int, default=None,
                   help="sweep bound; defaults per suite: "
                        + ", ".join(f"{s}={d}" for (s, _, d) in _SUITES)
                        + " (expensive sub-checks clamp themselves lower;"
                        " the catalan counts and correspondence stop at"
                        f" n={_LIST_CAP_SNAKES}, the largest board within"
                        " the tiling cap; a bound under which a suite"
                        " builds no check is refused)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("export", parents=[common],
                        help="deterministic DOT diagrams and ASCII boards")
    _add_family_args(p, positional=False)
    p.add_argument("--format", required=True, choices=("dot", "text-board"))
    p.add_argument("--from", dest="src", metavar="POSITION",
                   help="tiling to draw (snakes text-board only)")
    p.set_defaults(func=cmd_export)

    p = subs.add_parser("enumerate", parents=[common],
                        help="list a family's objects natively")
    _add_family_args(p, positional=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()    # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): nothing is wrong, so no
        # traceback, and stdout goes nowhere so the exit flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141    # 128 + SIGPIPE, as a shell reports a piped command
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _MemberError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except _INTERNAL_ERRORS as err:
        if getattr(args, "debug", False):    # verify has no --debug
            import traceback    # only here: it would slow every startup
            traceback.print_exc()
        detail = str(err).partition("\n")[0]
        print(f"internal error: {type(err).__name__}: {detail}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
