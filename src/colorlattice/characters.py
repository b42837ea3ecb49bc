"""Root data for the doubled-bond families, weights on colored lattices, and
character certificates.

A colored lattice earns the name "splitting poset" for a dominant weight
when its weight generating function, computed purely combinatorially from
per-color ranks, satisfies the bialternant identity that pins down an
irreducible character.  This module holds both sides of that equation: the
root-system side (simple roots, the simple reflections on weight tuples,
the finite reflection group, alternants) and the lattice side (per-color
rank-minus-depth weights, weight and rank generating functions), plus the
closed product forms the small cases are checked against.

Weights are integer tuples in the fundamental-weight basis.  A group
element w is held as its columns w(omega_1), ..., w(omega_n) with its sign
det(w), so that w mu = sum_j mu_j w(omega_j); no matrix products are taken.

Both infinite families with a doubled bond in their diagram are covered —
"B" (odd orthogonal) and "C" (symplectic) — each realized concretely in
n-dimensional Euclidean space with exact rational coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .core import CapExceededError, NotRankedError
from .explicit import DiamondLattice, rank_function
from .polynomials import LaurentPoly, QPolynomial, qbinomial

__all__ = [
    "UnrankedComponentError",
    "RootData",
    "root_data",
    "weyl_group",
    "orbit",
    "alternant",
    "bialternant_check",
    "w_invariant",
    "poset_weights",
    "is_structured",
    "wgf",
    "rgf",
    "closed_rgf_b",
    "closed_rgf_c",
    "closed_card_c",
    "product_rgf",
    "is_symmetric_unimodal",
]


class UnrankedComponentError(NotRankedError):
    """Some single-color component of the diagram admits no rank function."""


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _as_int(x) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"expected an integer, got {x}")
        return x.numerator
    return int(x)


class RootData:
    """Simple roots, fundamental weights and pairings for family B or C.

    ``cartan`` is the n x n integer matrix whose row i writes the i-th
    simple root in the fundamental-weight basis; reflections and the
    structure condition on colored lattices read weights in that basis.
    The Euclidean realization (exact rationals) supplies inner products,
    coroots and the positive-root list for the product-form checks.
    """

    __slots__ = ("family", "n", "cartan", "rho", "simple_euclid",
                 "omega_euclid", "rho_euclid", "positive_roots")

    def __init__(self, family: str, n: int):
        if family not in ("B", "C"):
            raise ValueError(f"unsupported family {family!r}; expected 'B' or 'C'")
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.family = family
        self.n = n

        def e(i):
            return tuple(Fraction(int(j == i)) for j in range(n))

        def vsum(vecs):
            return tuple(sum(col) for col in zip(*vecs))

        def scale(c, v):
            return tuple(c * x for x in v)

        alphas = [tuple(a - b for a, b in zip(e(i), e(i + 1))) for i in range(n - 1)]
        alphas.append(e(n - 1) if family == "B" else scale(2, e(n - 1)))
        self.simple_euclid = tuple(alphas)

        if family == "B":
            omegas = [vsum([e(j) for j in range(i + 1)]) for i in range(n - 1)]
            omegas.append(scale(Fraction(1, 2), vsum([e(j) for j in range(n)])))
        else:
            omegas = [vsum([e(j) for j in range(i + 1)]) for i in range(n)]
        self.omega_euclid = tuple(omegas)
        self.rho_euclid = vsum(omegas)
        self.rho = (1,) * n

        self.cartan = tuple(
            tuple(_as_int(self.pairing(a, b)) for b in alphas) for a in alphas)
        expected = [[0] * n for _ in range(n)]
        for i in range(n):
            expected[i][i] = 2
        for i in range(n - 1):
            expected[i][i + 1] = expected[i + 1][i] = -1
        if family == "B":
            expected[n - 2][n - 1] = -2
        else:
            expected[n - 1][n - 2] = -2
        if self.cartan != tuple(tuple(r) for r in expected):
            raise AssertionError("Euclidean realization disagrees with the "
                                 f"known {family}_{n} Cartan matrix")
        for i, w in enumerate(omegas):
            for j, a in enumerate(alphas):
                if self.pairing(w, a) != int(i == j):
                    raise AssertionError("fundamental weights fail duality")

        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(tuple(a - b for a, b in zip(e(i), e(j))))
                pos.append(tuple(a + b for a, b in zip(e(i), e(j))))
        for i in range(n):
            pos.append(e(i) if family == "B" else scale(2, e(i)))
        self.positive_roots = tuple(pos)

    @staticmethod
    def coroot(alpha):
        norm = _dot(alpha, alpha)
        return tuple(2 * x / norm for x in alpha)

    @staticmethod
    def pairing(mu, alpha):
        """The evaluation <mu, alpha-check> in the Euclidean realization."""
        return _dot(mu, RootData.coroot(alpha))

    def omega_to_euclid(self, mu):
        """Convert integer fundamental-weight coordinates to Euclidean."""
        return tuple(
            sum(Fraction(m) * w[j] for m, w in zip(mu, self.omega_euclid))
            for j in range(self.n))

    def __repr__(self):
        return f"RootData({self.family}{self.n})"


@lru_cache(maxsize=None)
def root_data(family: str, n: int) -> RootData:
    """Root-system data for family "B" or "C" at rank n >= 2.

    Cached: every caller shares one instance, which holds only tuples.
    """
    return RootData(family, n)


def _reflect(rd: RootData, i: int, mu):
    """The simple reflection s_i on weight coordinates: mu - mu_i alpha_i.

    The i-th coordinate is the pairing with the i-th simple coroot, and
    alpha_i in the fundamental-weight basis is the i-th Cartan row.
    """
    m = mu[i]
    return tuple(a - m * c for a, c in zip(mu, rd.cartan[i]))


# The largest reflection group or orbit that is enumerated (rank <= 5).
_GROUP_CAP = 10_000


def weyl_group(rd: RootData):
    """The full reflection group, by closure under the simple reflections.

    Each element w is the pair (columns, sign): the columns are the images
    w(omega_1), ..., w(omega_n) of the fundamental weights, which fix the
    linear action, and the sign is det(w).  The product s_i w reflects
    each column.  Enumeration stops with :class:`CapExceededError` past
    ``_GROUP_CAP`` elements; the expected order is 2^n n!.
    """
    n = rd.n
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {identity: 1}
    frontier = [identity]
    while frontier:
        nxt = []
        for cols in frontier:
            sign = -seen[cols]
            for i in range(n):
                h = tuple(_reflect(rd, i, col) for col in cols)
                if h not in seen:
                    if len(seen) >= _GROUP_CAP:
                        raise CapExceededError(
                            f"reflection group exceeds cap {_GROUP_CAP}")
                    seen[h] = sign
                    nxt.append(h)
        frontier = nxt
    expected = 2 ** n * factorial(n)
    if len(seen) != expected:
        raise AssertionError(
            f"closure found {len(seen)} elements, expected {expected}")
    return list(seen.items())


def orbit(rd: RootData, lam):
    """The reflection-group orbit of a weight, by saturation."""
    lam = tuple(lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rd.n):
                nu = _reflect(rd, i, mu)
                if nu not in seen:
                    if len(seen) >= _GROUP_CAP:
                        raise CapExceededError(f"orbit exceeds cap {_GROUP_CAP}")
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return seen


def alternant(rd: RootData, mu) -> LaurentPoly:
    """The signed group sum of z^mu: sum over w of det(w) z^(w mu).

    w mu is read off the columns of w as sum_j mu_j w(omega_j).
    """
    return _alternant(rd.n, weyl_group(rd), tuple(mu))


def _alternant(n: int, group, mu) -> LaurentPoly:
    """`alternant` over a rank-n group already listed by `weyl_group`."""
    return LaurentPoly([
        (tuple(sum(m * col[i] for m, col in zip(mu, cols)) for i in range(n)), sign)
        for cols, sign in group])


def bialternant_check(rd: RootData, lam, X: LaurentPoly) -> bool:
    """Does X satisfy the character identity for highest weight lam?

    True exactly when alternant(rho) * X = alternant(lam + rho) as formal
    sums; this characterizes the irreducible character among W-invariants.
    Both alternants are read off one listing of the group.
    """
    lam = tuple(lam)
    top = tuple(l + r for l, r in zip(lam, rd.rho))
    group = weyl_group(rd)
    return _alternant(rd.n, group, rd.rho) * X == _alternant(rd.n, group, top)


def w_invariant(rd: RootData, X: LaurentPoly) -> bool:
    """Whether a formal sum is fixed by every simple reflection."""
    return all(X.map_exponents(lambda mu, i=i: _reflect(rd, i, mu)) == X
               for i in range(rd.n))


def poset_weights(lat: DiamondLattice, rd: RootData) -> dict:
    """The combinatorial weight of each vertex, in fundamental-weight coordinates.

    Coordinate i of a vertex is its rank minus its depth inside its own
    color-i component; vertices isolated in color i contribute zero there.
    Raises :class:`UnrankedComponentError` when some color component is not
    ranked, and ValueError when the diagram uses colors beyond the rank.
    """
    g = lat.diagram
    bad = [c for c in g.colors() if c > rd.n]
    if bad:
        raise ValueError(f"edge colors {bad} exceed rank {rd.n}")
    coeff = {v: [0] * rd.n for v in g.vertices}
    for c in g.colors():
        sub = g.color_subgraph(c)
        try:
            rk = rank_function(sub)
        except NotRankedError as err:
            raise UnrankedComponentError(
                f"color-{c} component is not ranked: {err}") from None
        for comp in sub.weak_components():
            if len(comp) == 1:
                continue
            top = max(rk[v] for v in comp)
            for v in comp:
                coeff[v][c - 1] = 2 * rk[v] - top
    return {v: tuple(cs) for v, cs in coeff.items()}


def is_structured(lat: DiamondLattice, rd: RootData) -> bool:
    """Whether every color-i edge displaces the weight by the i-th simple root."""
    wt = poset_weights(lat, rd)
    for (u, v, c) in lat.diagram.edges:
        alpha = rd.cartan[c - 1]
        if tuple(b - a for a, b in zip(wt[u], wt[v])) != alpha:
            return False
    return True


def wgf(lat: DiamondLattice, rd: RootData) -> LaurentPoly:
    """The weight generating function: one z^wt term per vertex."""
    wt = poset_weights(lat, rd)
    return LaurentPoly([(wt[v], 1) for v in lat.vertices])


def rgf(lat: DiamondLattice) -> QPolynomial:
    """The rank generating function: coefficient of q^r counts rank-r vertices."""
    counts = [0] * (lat.length + 1)
    for v in lat.vertices:
        counts[lat.rank[v]] += 1
    return QPolynomial(counts)


def closed_rgf_b(n: int) -> QPolynomial:
    """Closed form prod_{i=1}^n (1 + q^i) for the cushioned-tuple lattice."""
    p = QPolynomial.one()
    for i in range(1, n + 1):
        p = p * (1 + QPolynomial.q_power(i))
    return p


def closed_rgf_c(n: int, k: int) -> QPolynomial:
    """Closed form for the k-th symplectic fundamental family at rank n.

    (1 - q^(2n+2-2k)) / (1 - q^(2n+2-k)) * [2n+1 choose k]_q, evaluated by
    exact polynomial division; inexactness would flag a transcription bug.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    numer = (1 - QPolynomial.q_power(2 * n + 2 - 2 * k)) * qbinomial(2 * n + 1, k)
    return numer.exact_div(1 - QPolynomial.q_power(2 * n + 2 - k))


def closed_card_c(n: int, k: int) -> int:
    """Vertex count (2n+2-2k)/(2n+2-k) * C(2n+1, k), checked to be integral."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    num = (2 * n + 2 - 2 * k) * comb(2 * n + 1, k)
    den = 2 * n + 2 - k
    if num % den:
        raise ArithmeticError("cardinality formula did not divide evenly")
    return num // den


def product_rgf(rd: RootData, lam) -> QPolynomial:
    """The positive-root product form of the rank generating function.

    prod over positive roots alpha of
    (1 - q^<lam+rho, alpha-check>) / (1 - q^<rho, alpha-check>), with all
    pairings exact integers and all divisions exact.
    """
    lam_e = rd.omega_to_euclid(tuple(lam))
    top = tuple(a + b for a, b in zip(lam_e, rd.rho_euclid))
    numer = QPolynomial.one()
    denoms = []
    for alpha in rd.positive_roots:
        up = _as_int(rd.pairing(top, alpha))
        lo = _as_int(rd.pairing(rd.rho_euclid, alpha))
        numer = numer * (1 - QPolynomial.q_power(up))
        denoms.append(1 - QPolynomial.q_power(lo))
    for d in denoms:
        numer = numer.exact_div(d)
    return numer


def is_symmetric_unimodal(p: QPolynomial) -> bool:
    """Palindromic and unimodal coefficient list."""
    return p.is_palindromic() and p.is_unimodal()
