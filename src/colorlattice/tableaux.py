"""Columnar tableaux, their 0/1 tally sequences, and the two admissibility
conditions of the symplectic board lattices.

These codings describe the same partitions the domino boards play on
(:mod:`colorlattice.dominoes`), in the forms the paper states its families
in.  No solve reads them: ``verify`` holds the board rules and codings to
them, and the tests use them as oracles.
"""

from __future__ import annotations

from itertools import combinations

from .dominoes import _is_parts, is_box_partition

__all__ = [
    "enumerate_tableaux",
    "tab_to_part",
    "part_to_tab",
    "wt_c",
    "to_tally",
    "box_to_tab",
    "conjugate",
    "durfee",
    "kn_admissible",
    "dec_admissible",
    "kn_admissible_tally",
    "dec_admissible_tally",
    "is_staircase_tally",
    "is_ballot_tally",
]


# --------------------------------------------------------------------------
# tableaux codings

def enumerate_tableaux(variant: str, k: int, n: int):
    """All columnar tableaux of the variant, as sorted increasing tuples.

    ``king`` requires T_i <= 2(n-k+i); ``seminarii`` requires T_i >= 2i-1;
    both draw strictly increasing values from 1..2n.
    """
    if variant not in ("king", "seminarii"):
        raise ValueError(f"unknown tableau variant {variant!r}")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    out = []
    for T in combinations(range(1, 2 * n + 1), k):
        if variant == "king":
            if all(T[i] <= 2 * (n - k + i + 1) for i in range(k)):
                out.append(T)
        else:
            if all(T[i] >= 2 * i + 1 for i in range(k)):
                out.append(T)
    return out


def _check_tab(T):
    T = tuple(T)
    if not T or any(not isinstance(v, int) or isinstance(v, bool) for v in T) \
            or any(a >= b for a, b in zip(T, T[1:])) or T[0] < 1:
        raise ValueError(f"not a strictly increasing positive tuple: {T}")
    return T


def tab_to_part(T):
    """Partition from a tableau: tau_i = T_{k+1-i} - (k+1-i).

    Reverses the column and subtracts the staircase; King tableaux land on
    ballot partitions and seminarii tableaux on staircase partitions.
    """
    T = _check_tab(T)
    k = len(T)
    return tuple(T[k - i] - (k + 1 - i) for i in range(1, k + 1))


def part_to_tab(tau):
    """Tableau from a partition: T_j = j + tau_{k+1-j}; inverse of tab_to_part."""
    tau = tuple(tau)
    if not _is_parts(tau) or not tau:
        raise ValueError(f"not a partition: {tau}")
    k = len(tau)
    return tuple(j + tau[k - j] for j in range(1, k + 1))


def wt_c(T, n: int):
    """The weight of a tableau, as n coefficients over fundamental weights.

    Coefficient i < n reads #(2i-1) - #(2i) - #(2i+1) + #(2i+2) off the
    multiplicities of the entry values; coefficient n is #(2n-1) - #(2n).
    """
    T = _check_tab(T)
    if T[-1] > 2 * n:
        raise ValueError(f"entries of {T} exceed 2n = {2 * n}")
    count = [0] * (2 * n + 3)
    for v in T:
        count[v] += 1
    out = []
    for i in range(1, n):
        out.append(count[2 * i - 1] - count[2 * i] - count[2 * i + 1]
                   + count[2 * i + 2])
    out.append(count[2 * n - 1] - count[2 * n])
    return tuple(out)


# --------------------------------------------------------------------------
# tally sequences

def to_tally(T, n: int):
    """Length-2n indicator sequence of a tableau's value set."""
    T = _check_tab(T)
    if T[-1] > 2 * n:
        raise ValueError(f"entries of {T} exceed 2n = {2 * n}")
    bits = [0] * (2 * n)
    for v in T:
        bits[v - 1] = 1
    return tuple(bits)


# --------------------------------------------------------------------------
# the complementary tableau coding

def box_to_tab(tau, m: int):
    """Tableau of a box partition under the complementary coding T_j = m+j-tau_j."""
    tau = tuple(tau)
    if not is_box_partition(tau, len(tau), m):
        raise ValueError(f"not a partition in a {len(tau)} x {m} box: {tau}")
    return tuple(m + j + 1 - tau[j] for j in range(len(tau)))


# --------------------------------------------------------------------------
# admissibility

def conjugate(tau, width: int):
    """The conjugate partition, padded/truncated to ``width`` parts."""
    tau = tuple(tau)
    return tuple(sum(1 for p in tau if p >= c) for c in range(1, width + 1))


def durfee(tau) -> int:
    """Size of the largest i with tau_i >= i."""
    return max([i for i in range(1, len(tau) + 1) if tau[i - 1] >= i],
               default=0)


def kn_admissible(tau, k: int, n: int) -> bool:
    """First admissibility family: tau_i - tau'_i <= 2n-2k on the Durfee range."""
    tau = tuple(tau)
    if not is_box_partition(tau, k, 2 * n - k):
        raise ValueError(f"not a partition in a {k} x {2 * n - k} box: {tau}")
    conj = conjugate(tau, 2 * n - k)
    return all(tau[i - 1] - conj[i - 1] <= 2 * n - 2 * k
               for i in range(1, durfee(tau) + 1))


def dec_admissible(tau, k: int, n: int) -> bool:
    """Second admissibility family, via the clipped conjugate.

    Strip the first n-k and last n-k columns of the conjugate diagram; the
    k remaining column heights must satisfy the self-conjugacy bound
    (clipped_i <= clipped'_i) on their own Durfee range.
    """
    tau = tuple(tau)
    if not is_box_partition(tau, k, 2 * n - k):
        raise ValueError(f"not a partition in a {k} x {2 * n - k} box: {tau}")
    conj = conjugate(tau, 2 * n - k)
    clipped = conj[n - k:n]
    cc = conjugate(clipped, k)
    return all(clipped[i - 1] <= cc[i - 1]
               for i in range(1, durfee(clipped) + 1))


def _prefix_pair_bound(bits, pairs) -> bool:
    # running sum over the given index pairs (1-based) stays <= prefix length
    total = 0
    for p, (a, b) in enumerate(pairs, start=1):
        total += bits[a - 1] + bits[b - 1]
        if total > p:
            return False
    return True


def kn_admissible_tally(tau, k: int, n: int) -> bool:
    """Tally form of the first family: partial sums t'_i + t'_{2n+1-i} <= p."""
    tp = to_tally(box_to_tab(tuple(tau), 2 * n - k), n)
    return _prefix_pair_bound(tp, [(i, 2 * n + 1 - i) for i in range(1, n + 1)])


def dec_admissible_tally(tau, k: int, n: int) -> bool:
    """Tally form of the second family: partial sums t'_{n+1-i} + t'_{n+i} <= p."""
    tp = to_tally(box_to_tab(tuple(tau), 2 * n - k), n)
    return _prefix_pair_bound(tp, [(n + 1 - i, n + i) for i in range(1, n + 1)])


def is_staircase_tally(t) -> bool:
    """Staircase test on the plain tally: partial sums t_{2i-1} + t_{2i} <= p."""
    t = tuple(t)
    n = len(t) // 2
    return _prefix_pair_bound(t, [(2 * i - 1, 2 * i) for i in range(1, n + 1)])


def is_ballot_tally(t) -> bool:
    """Ballot test on the plain tally: partial sums t_{2n+1-2i} + t_{2n+2-2i} <= p."""
    t = tuple(t)
    n = len(t) // 2
    return _prefix_pair_bound(
        t, [(2 * n + 1 - 2 * i, 2 * n + 2 - 2 * i) for i in range(1, n + 1)])
