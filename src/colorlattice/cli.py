"""Command-line front end: solve instances, sweep invariants, export diagrams.

Four subcommands.  ``solve`` plays one puzzle instance optimally and prints
a certificate a human can replay move by move; ``verify`` runs a named sweep
of internal cross-checks (from :mod:`colorlattice.verify`) and exits nonzero
on the first sign of trouble; ``export`` writes deterministic DOT diagrams or
ASCII boards; ``enumerate`` lists a family's objects.  Families are addressed
by name:

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

import colorlattice

from .core import CapExceededError, LatticeError, NotIsomorphicError
from .switchgame import format_bits, format_tuple, int_to_bits, parse_bits, parse_tuple

# Sizes are kept honest up front.  ``solve`` walks every family on tuple
# coordinates, enumerating nothing; these caps keep a cold solve from the
# lattice minimum to its maximum under about a second.  For boards that
# holds between either pair of ends, lattice or board, both ways: the worst
# cold board solve took 0.71-0.78 s at n=32 and 0.89-1.0 s at n=33-35
# (python 3.11, shared 2-core host).  ``export`` and ``enumerate`` list every
# position, so they keep the exhaustive caps.
_CAP_SWITCH, _CAP_DOMINO, _CAP_SNAKES = 80, 32, 40
_LIST_CAP_SWITCH, _LIST_CAP_DOMINO, _LIST_CAP_SNAKES = 12, 6, 7
# (n=7 is also the largest square board within ``snakes._TILINGS_CAP``, where
# the catalan suite of ``colorlattice.verify`` stops its counts)

# One record per family: the board ``kind`` (None: no --k), the ``least`` n,
# the (solve, listing) ``caps`` and ``sizes`` refusal, ``parse``, ``format``,
# ``member`` and ``want`` (what a member is), ``solve``, one action's JSON
# ``move``, the ``listing``, the move ``graph``, the text-``board`` and what
# --from ``draws`` on it (None: none).  Callables look names up in the package
# namespace when called, so a command loads only its own family's modules;
# ``export`` reaches ``to_dot`` the same way, so only it loads the explicit
# oracle.
_Family = namedtuple("_Family", "kind least caps sizes parse format member want "
                                "solve move listing graph board draws")


def _board_family(kind):
    return _Family(
        kind=kind, least=1, caps=(_CAP_DOMINO, _LIST_CAP_DOMINO),
        sizes="board families are supported up to n={}",
        parse=parse_tuple, format=format_tuple,
        member=lambda n, k, tau: colorlattice.Board(kind, k, n).valid(tau),
        want="a {kind} partition at k={k}, n={n}",
        solve=lambda n, k, s, t, via: colorlattice.solve_domino(
            kind, k, n, s, t, via=via),
        move=lambda a: {"verb": a[0], "squares": [list(sq) for sq in a[1]],
                        "color": a[2]},
        listing=lambda n, k: colorlattice.Board(kind, k, n).partitions(),
        graph=lambda n, k: colorlattice.domino_digraph(kind, k, n),
        board=lambda n, k, _: colorlattice.Board(kind, k, n).render_ascii(),
        draws=None)


_FAMILIES = {
    "mixedmiddleswitch": _Family(
        kind=None, least=2, caps=(_CAP_SWITCH, _LIST_CAP_SWITCH),
        sizes="switch rows are supported for 2 <= n <= {}",
        parse=parse_bits, format=format_bits,
        member=lambda n, k, bits: len(bits) == n,
        want="a bit string of length {n}",
        solve=lambda n, k, s, t, via: colorlattice.solve_mixedmiddleswitch(
            n, s, t, via=via),
        move=lambda i: {"flip": i, "color": i},
        listing=lambda n, k: [int_to_bits(v, n) for v in range(2 ** n)],
        graph=lambda n, k: colorlattice.mixedmiddleswitch_digraph(n),
        board=None, draws=None),
    "domino-ballot": _board_family("ballot"),
    "domino-staircase": _board_family("staircase"),
    "domino-full": _board_family("full"),
    "snakes": _Family(
        kind=None, least=1, caps=(_CAP_SNAKES, _LIST_CAP_SNAKES),
        sizes="square boards are supported for 1 <= n <= {}",
        parse=parse_tuple, format=format_tuple,
        member=lambda n, k, rows: colorlattice.is_tiling(rows, n),
        want="a tiling of the {n} x {n} board",
        solve=lambda n, k, s, t, via: colorlattice.solve_snakes(n, s, t, via=via),
        move=lambda a: {"verb": a[0], "snake": [list(sq) for sq in a[1]],
                        "color": len(a[1])},
        listing=lambda n, k: colorlattice.enumerate_tilings(n),
        graph=lambda n, k: colorlattice.ming_digraph(n),
        board=lambda n, k, rows: colorlattice.render_tiling(rows, n),
        draws="ROWS (the tiling to draw)"),
}

# Failures of the program's own certificates and replays, never of the input.
_INTERNAL_ERRORS = (LatticeError, NotIsomorphicError, CapExceededError,
                    AssertionError, RecursionError)


class _UsageError(Exception):
    """Bad flags or unparsable text; mapped to exit code 2."""


class _MemberError(Exception):
    """A well-formed position outside the family; mapped to exit code 3."""


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
        sys.stdout.write(colorlattice.to_dot(
            fam.graph(n, k), args.family.replace("-", "_"), fam.format))
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

# The suites, by name, with their default bounds; the builders live in
# ``colorlattice.verify``, which only this subcommand loads.
_SUITES = (("birkhoff", 5), ("theorem2", 5), ("minuscule", 6),
           ("symplectic", 4), ("weyl", 3), ("catalan", 5))


def cmd_verify(args):
    from . import verify
    try:
        return verify.run(_SUITES, args.suite, args.max_n, args.json)
    except verify.NoCheckError as err:
        raise _UsageError(str(err)) from None


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
    p.add_argument("suite", choices=tuple(s for (s, _) in _SUITES) + ("all",))
    p.add_argument("--max-n", dest="max_n", type=int, default=None,
                   help="sweep bound; defaults per suite: "
                        + ", ".join(f"{s}={d}" for (s, d) in _SUITES)
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
