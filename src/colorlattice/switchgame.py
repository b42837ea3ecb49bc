"""The switch game on binary strings and the cushioned-tuple lattice behind it.

Positions of the game are 0/1 sequences of a fixed length n > 1.  With a
virtual 0 read before bit 1, switch i may toggle when it is the last one or
when its two neighbours differ (`_may_toggle`).  Each legal toggle is
directed, up when bit i equals its left neighbour, and carries the index of
the flipped bit as its color, giving a colored digraph on all 2^n positions.

Under a bijection with "zero-cushioned" weakly decreasing integer tuples,
this digraph is revealed to be the order diagram of a distributive lattice,
so the optimal-play machinery of `colorlattice.paths` applies verbatim:
distances come from ranks, and explicit optimal move sequences come from
mountain or valley certificates translated back into bit flips.

This module holds what a solve runs: the input checks, the coding
(`b_map`, `b_inv`), the least-member rule (`_cushioned_lattice`), the move
rule, the solver and its replay, and the parse/format helpers every family
shares.  The move graph (`switch_moves`, `mixedmiddleswitch_digraph`) and
the explicit lattice `z_lattice` are built in :mod:`colorlattice.explicit`
from the same two rules.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations

from .core import TupleLattice, _int_sizes

__all__ = [
    "is_cushioned",
    "all_cushioned",
    "b_map",
    "b_inv",
    "parse_bits",
    "format_bits",
    "parse_tuple",
    "format_tuple",
    "SwitchSolution",
    "solve_mixedmiddleswitch",
    "replay_switches",
]


def is_cushioned(x, n=None) -> bool:
    """Whether ``x`` is a valid cushioned tuple (of length ``n`` if given).

    Valid means: n >= x_1 >= ... >= x_n >= 0, strictly decreasing while the
    entries are nonzero.  Equivalently, the nonzero entries list a subset of
    {1, ..., n} in decreasing order and the zeros pad the tail.
    """
    x = tuple(x)
    if n is None:
        n = len(x)
    if len(x) != n or n < 2:
        return False
    if any(not isinstance(e, int) or isinstance(e, bool) for e in x):
        return False
    # each entry lies in 0..n and below the nonzero entry before it; after a
    # zero only zeros may follow
    bound = n + 1
    for e in x:
        if not 0 <= e < bound:
            return False
        bound = e or 1
    return True


def all_cushioned(n: int):
    """All cushioned tuples of length n, sorted; there are exactly 2^n."""
    _int_sizes(n=n)
    if n < 2:
        raise ValueError("the game is played at n >= 2")
    return sorted(sub[::-1] + (0,) * (n - k)
                  for k in range(n + 1) for sub in combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def _cushioned_lattice(n: int) -> TupleLattice:
    """The lattice of `z_lattice(n)` by rules, with nothing enumerated.

    The least cushioned tuple whose coordinate q is >= v has its first q
    entries strictly decreasing down to v, and zeros after:
    (v+q-1, ..., v+1, v, 0, ..., 0).  Built once per size.
    """
    return TupleLattice(
        range(n, 0, -1), lambda q, t: n + 1 - t,
        lambda q, v: tuple(range(v + q - 1, v - 1, -1)) + (0,) * (n - q))


def _bits(y) -> bool:
    """Whether ``y`` has two or more entries, each the int 0 or 1, never a bool."""
    return len(y) >= 2 and all(type(b) is int and b in (0, 1) for b in y)


def _may_toggle(s, i) -> bool:
    """The game's one rule: may switch i (1-indexed) toggle at position s?

    Yes when i = n, or when its two neighbours differ, reading a virtual 0
    before bit 1.  The rule is symmetric: it holds before and after the
    toggle.  Any i that is not an int in 1..n is refused.
    """
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= len(s):
        return False
    return i == len(s) or (s[i - 2] if i > 1 else 0) != s[i]


def int_to_bits(value: int, n: int):
    """The length-n big-endian bit tuple of a nonnegative integer."""
    return tuple((value >> (n - 1 - j)) & 1 for j in range(n))


def b_map(x):
    """Encode a cushioned tuple as a bit sequence.

    Reading a leading 0, the bits change value exactly at the positions
    n + 1 - x_i of the nonzero entries x_i.  This is one direction of the
    color-preserving isomorphism between the cushioned-tuple lattice and
    the game graph; `b_inv` reads the tuple back off the changes.
    """
    x = tuple(x)
    n = len(x)
    if not is_cushioned(x, n):
        raise ValueError(f"not a cushioned tuple: {x}")
    changes = {n + 1 - v for v in x if v}
    y, bit = [], 0
    for j in range(1, n + 1):
        bit ^= j in changes
        y.append(bit)
    return tuple(y)


def b_inv(y):
    """Decode a bit sequence back into its cushioned tuple.

    The positions where the sequence changes value (reading a leading 0),
    listed increasingly as j_1 < ... < j_k, become x_i = n + 1 - j_i, padded
    with zeros.  Inverse to `b_map`.
    """
    y = tuple(y)
    n = len(y)
    if not _bits(y):
        raise ValueError("expected a 0/1 tuple of length >= 2")
    changes = [j for j in range(1, n + 1) if (y[j - 2] if j > 1 else 0) != y[j - 1]]
    x = tuple(n + 1 - j for j in changes) + (0,) * (n - len(changes))
    return x


def parse_bits(text: str):
    """Parse a compact bit string like ``01010`` into a bit tuple."""
    text = text.strip()
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not a bit string: {text!r}")
    return tuple(int(c) for c in text)


def format_bits(y) -> str:
    return "".join(str(b) for b in y)


def parse_tuple(text: str):
    """Parse comma-separated integers like ``4,3,2,1,0`` into a tuple.

    Each part is an optional ``-`` and ASCII digits, with spaces around it.
    ``int`` alone would also read ``3_0`` as 30, and ``+3`` or ``\u0663``
    (Arabic-Indic three) as 3.
    """
    parts = [part.strip() for part in text.split(",")]
    for part in parts:
        digits = part.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"not a comma-separated integer tuple: {text!r}")
    return tuple(map(int, parts))


def format_tuple(x) -> str:
    return ",".join(str(e) for e in x)


class SwitchSolution:
    """An optimal play: positions visited and the flip indices between them."""

    __slots__ = ("start", "target", "distance", "positions", "flips", "certificate")

    def __init__(self, start, target, positions, flips, certificate):
        self.start = start
        self.target = target
        self.positions = tuple(positions)
        self.flips = tuple(flips)
        self.distance = len(flips)
        self.certificate = certificate

    states = property(lambda self: self.positions)
    actions = property(lambda self: self.flips)
    color_counts = property(lambda self: dict(Counter(self.flips)))

    def __repr__(self):
        return (f"SwitchSolution({format_bits(self.start)} -> "
                f"{format_bits(self.target)}, {self.distance} moves)")

    def serialize(self) -> str:
        lines = [f"distance={self.distance}"]
        for (a, i, b) in zip(self.positions, self.flips, self.positions[1:]):
            lines.append(f"{format_bits(a)} --{i}--> {format_bits(b)}")
        return "\n".join(lines)


def solve_mixedmiddleswitch(n: int, s, t, via: str = "join") -> SwitchSolution:
    """Optimal play from position s to position t, with proof of optimality.

    Decodes both positions into cushioned tuples, builds a mountain (or
    valley) geodesic between them on tuple coordinates, and re-encodes each
    step as a bit flip.  Nothing is enumerated: the steps and the
    certificate are those `shortest_path` builds on `z_lattice(n)`.  The
    reported distance equals the rank formula value; the flip sequence is
    replayed move by move under the game rules.  `b_inv` checks both
    positions, so the walk (`TupleLattice._walk`) does not test the coded
    ends again, and each flip is made in place on one list of bits.
    """
    _int_sizes(n=n)
    try:
        s, t = tuple(s), tuple(t)
    except TypeError:       # a position that is not iterable
        raise ValueError("expected a 0/1 tuple of length >= 2") from None
    if len(s) != n or len(t) != n:
        raise ValueError(f"positions must have length {n}")
    xs, xt = b_inv(s), b_inv(t)
    cert = _cushioned_lattice(n)._walk(xs, xt, via)[0]
    # each step flips the bit its color names; the replay checks every flip
    flips = [color for color, _ in cert.steps]
    bits, positions = list(s), [s]
    for i in flips:
        bits[i - 1] ^= 1
        positions.append(tuple(bits))
    sol = SwitchSolution(s, t, positions, flips, cert)
    replay_switches(sol)
    return sol


def replay_switches(sol: SwitchSolution) -> None:
    """Re-run a solution under the raw game rules; raise if any move is illegal.

    The play must start at the start, a 0/1 tuple of length >= 2, hold one
    more position than flips, and toggle, either way, only what
    `_may_toggle` allows: the rule `switch_moves` orients.  Anything but a
    `SwitchSolution` is refused before any of it is read.
    """
    if not isinstance(sol, SwitchSolution):
        raise AssertionError(f"not a SwitchSolution: {sol!r}")
    if len(sol.positions) != len(sol.flips) + 1:
        raise AssertionError(f"{len(sol.positions)} states for {len(sol.flips)} moves")
    pos = sol.start
    if sol.positions[0] != pos:
        raise AssertionError(f"play starts at {format_bits(sol.positions[0])}, "
                             f"not at the start {format_bits(pos)}")
    if type(pos) is not tuple or not _bits(pos):
        raise AssertionError(f"play starts at {pos}, not a 0/1 tuple of length >= 2")
    bits = list(pos)        # the landed position, each flip made in place
    for step, (i, nxt) in enumerate(zip(sol.flips, sol.positions[1:])):
        if not _may_toggle(pos, i):
            raise AssertionError(f"move {step}: flip {i} illegal at {format_bits(pos)}")
        bits[i - 1] ^= 1
        landed = tuple(bits)
        if landed != nxt:
            raise AssertionError(f"move {step}: flip {i} lands on "
                                 f"{format_bits(landed)}, not {format_bits(nxt)}")
        pos = nxt
    if pos != sol.target:
        raise AssertionError("replay did not reach the target position")
    if sol.distance != len(sol.flips):
        raise AssertionError("reported distance disagrees with move count")
