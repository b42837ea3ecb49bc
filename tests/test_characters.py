"""Reflection groups, weight assignments, and generating-function identities."""

import pytest

from colorlattice import (
    CapExceededError,
    ColoredDigraph,
    DiamondLattice,
    LaurentPoly,
    QPolynomial,
    UnrankedComponentError,
    alternant,
    bialternant_check,
    c_lattice,
    closed_card_c,
    closed_rgf_b,
    closed_rgf_c,
    dec_lattice,
    is_structured,
    is_symmetric_unimodal,
    kn_lattice,
    orbit,
    poset_weights,
    product_rgf,
    qbinomial,
    rank_function,
    rgf,
    root_data,
    w_invariant,
    weyl_group,
    wgf,
    z_lattice,
)
from colorlattice import characters


def test_root_data_rejects_unknown_families_and_tiny_ranks():
    with pytest.raises(ValueError, match="family"):
        root_data("D", 4)
    with pytest.raises(ValueError, match="rank"):
        root_data("B", 1)


def test_root_data_is_built_once_per_family_and_rank():
    rd = root_data("C", 3)
    assert rd is root_data("C", 3)
    assert rd.cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert rd.positive_roots == (
        (1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1), (0, 1, -1), (0, 1, 1),
        (2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert rd.rho_euclid == (3, 2, 1)


def test_cartan_matrices_distinguish_the_two_families():
    b3, c3 = root_data("B", 3), root_data("C", 3)
    assert b3.cartan != c3.cartan
    assert b3.cartan[1][2] == -2 and c3.cartan[2][1] == -2
    assert all(row[i] == 2 for rd in (b3, c3) for i, row in enumerate(rd.cartan))


@pytest.mark.parametrize("family, n, order", [
    ("B", 2, 8),
    ("B", 3, 48),
    ("C", 3, 48),
    ("B", 4, 384),
])
def test_hyperoctahedral_group_orders(family, n, order):
    assert len(weyl_group(root_data(family, n))) == order


class GroupElement:
    """Reference: a reflection-group element as an integer matrix on weight
    coordinates, with its sign."""

    __slots__ = ("matrix", "sign")

    def __init__(self, matrix, sign):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.sign = sign

    def apply(self, mu):
        return tuple(sum(a * b for a, b in zip(row, mu)) for row in self.matrix)

    def __mul__(self, other):
        cols = list(zip(*other.matrix))
        return GroupElement(
            [[sum(a * b for a, b in zip(row, col)) for col in cols]
             for row in self.matrix], self.sign * other.sign)

    def __eq__(self, other):
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


def generators(rd):
    """Reference: the simple reflections as matrices, the identity with
    column i replaced through the i-th Cartan row."""
    gens = []
    for i in range(rd.n):
        rows = []
        for j in range(rd.n):
            row = [int(j == k) for k in range(rd.n)]
            row[i] -= rd.cartan[i][j]
            rows.append(row)
        gens.append(GroupElement(rows, -1))
    return gens


def matrix_group(rd):
    """Reference: the reflection group by matrix products, closed under
    left multiplication by the simple reflections."""
    identity = GroupElement(
        [[int(i == j) for j in range(rd.n)] for i in range(rd.n)], 1)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in generators(rd):
                h = s * g
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def matrix_orbit(rd, lam):
    return {g.apply(tuple(lam)) for g in matrix_group(rd)}


def matrix_alternant(rd, mu):
    return LaurentPoly([(g.apply(tuple(mu)), g.sign) for g in matrix_group(rd)])


def matrix_w_invariant(rd, X):
    return all(X.map_exponents(s.apply) == X for s in generators(rd))


def sample_weights(rd):
    """rho, rho + omega_n, and the weights omega_1 and 2 omega_2, which lie
    on walls of the dominant chamber and so are not regular."""
    n = rd.n
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return [rd.rho,
            tuple(r + u for r, u in zip(rd.rho, unit[n - 1])),
            unit[0],
            tuple(2 * u for u in unit[1])]


GROUPS = [(family, n) for family in "BC" for n in (2, 3, 4)]


@pytest.mark.parametrize("family, n", GROUPS)
def test_group_columns_are_the_matrix_closure(family, n):
    rd = root_data(family, n)
    group = weyl_group(rd)
    as_matrices = {(tuple(zip(*cols)), sign) for cols, sign in group}
    assert len(as_matrices) == len(group)
    assert as_matrices == {(g.matrix, g.sign) for g in matrix_group(rd)}


@pytest.mark.parametrize("family, n", GROUPS)
def test_orbits_alternants_and_invariance_match_the_matrix_action(family, n):
    rd = root_data(family, n)
    for mu in sample_weights(rd):
        assert orbit(rd, mu) == matrix_orbit(rd, mu)
        alt = alternant(rd, mu)
        assert alt == matrix_alternant(rd, mu)
        orbit_sum = LaurentPoly([(nu, 1) for nu in orbit(rd, mu)])
        for X in (orbit_sum, alt, LaurentPoly.monomial(mu)):
            assert w_invariant(rd, X) == matrix_w_invariant(rd, X)
        assert w_invariant(rd, orbit_sum)
        assert not w_invariant(rd, LaurentPoly.monomial(mu))
    # a regular weight's alternant has one term per group element; on a
    # wall a reflection fixes the weight, and the signed terms cancel
    rho, rho_n, wall_1, wall_2 = sample_weights(rd)
    assert len(alternant(rd, rho).terms) == len(alternant(rd, rho_n).terms) \
        == len(weyl_group(rd))
    assert not alternant(rd, wall_1) and not alternant(rd, wall_2)


@pytest.mark.parametrize("family", "BC")
def test_rank_six_exceeds_the_group_cap(family):
    rd = root_data(family, 6)
    with pytest.raises(CapExceededError, match="reflection group exceeds cap"):
        weyl_group(rd)
    with pytest.raises(CapExceededError, match="orbit exceeds cap"):
        orbit(rd, rd.rho)


def test_spin_weight_orbit_is_free():
    rd = root_data("B", 3)
    spin = (0, 0, 1)
    assert len(orbit(rd, spin)) == 8  # 2^3: all sign patterns, no stabilizer
    assert orbit(rd, (0, 0, 0)) == {(0, 0, 0)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cushioned_lattice_carries_the_spin_representation(n):
    rd = root_data("B", n)
    lat = z_lattice(n)
    assert is_structured(lat, rd)
    X = wgf(lat, rd)
    assert w_invariant(rd, X)
    assert len(X.terms) == 2 ** n  # a free orbit: every weight multiplicity one
    assert all(c == 1 for c in X.terms.values())
    spin = tuple([0] * (n - 1) + [1])
    assert X == LaurentPoly([(mu, 1) for mu in orbit(rd, spin)])
    assert bialternant_check(rd, spin, X)


@pytest.mark.parametrize("family", "BC")
def test_bialternant_check_lists_the_group_once(family, monkeypatch):
    calls = []

    def counted(rd):
        calls.append(rd)
        return weyl_group(rd)

    monkeypatch.setattr(characters, "weyl_group", counted)
    rd = root_data(family, 3)
    lam = (0, 0, 1) if family == "B" else (1, 0, 0)
    X = wgf(z_lattice(3) if family == "B" else kn_lattice(1, 3), rd)
    assert bialternant_check(rd, lam, X)
    assert calls == [rd]
    assert not bialternant_check(rd, (1, 1, 0), X)
    assert calls == [rd, rd]


def test_bialternant_rejects_the_wrong_highest_weight():
    rd = root_data("B", 3)
    X = wgf(z_lattice(3), rd)
    assert not bialternant_check(rd, (1, 0, 0), X)
    assert not w_invariant(rd, LaurentPoly.monomial((1, 0, 0)))


def test_structure_condition_reads_the_cartan_rows():
    # the same diagram satisfies the B-rows but not the C-rows
    assert is_structured(z_lattice(2), root_data("B", 2))
    assert not is_structured(z_lattice(2), root_data("C", 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_generating_function_has_three_matching_forms(n):
    rd = root_data("B", n)
    spin = tuple([0] * (n - 1) + [1])
    p = rgf(z_lattice(n))
    assert p == closed_rgf_b(n) == product_rgf(rd, spin)
    assert p(1) == 2 ** n
    assert is_symmetric_unimodal(p)


def test_weights_refuse_colors_beyond_the_rank():
    with pytest.raises(ValueError, match="exceed"):
        poset_weights(c_lattice(2), root_data("B", 2))


def per_component_weights(lat, rd):
    """Reference: rank a fresh digraph built for every color component."""
    g = lat.diagram
    coeff = {v: [0] * rd.n for v in g.vertices}
    for c in g.colors():
        sub = g.color_subgraph(c)
        for comp in sub.weak_components():
            if len(comp) == 1:
                continue
            piece = ColoredDigraph(comp, [e for e in sub.edges if e[0] in comp])
            rk = rank_function(piece)
            top = max(rk.values())
            for v in comp:
                coeff[v][c - 1] = 2 * rk[v] - top
    return {v: tuple(cs) for v, cs in coeff.items()}


@pytest.mark.parametrize("n", range(2, 7))
def test_switch_weights_equal_the_per_component_construction(n):
    lat, rd = z_lattice(n), root_data("B", n)
    assert poset_weights(lat, rd) == per_component_weights(lat, rd)


@pytest.mark.parametrize("build", [kn_lattice, dec_lattice],
                         ids=["kn", "dec"])
@pytest.mark.parametrize("k, n", [(k, n) for n in (2, 3)
                                  for k in range(1, n + 1)])
def test_board_weights_equal_the_per_component_construction(build, k, n):
    lat, rd = build(k, n), root_data("C", n)
    assert poset_weights(lat, rd) == per_component_weights(lat, rd)


def test_weights_refuse_unranked_color_components():
    g = ColoredDigraph(
        ["bot", "m1", "m2", "top"],
        [("bot", "m1", 1), ("bot", "m2", 2), ("m1", "top", 2), ("m2", "top", 2)])
    lat = DiamondLattice(g, "distributive")
    with pytest.raises(UnrankedComponentError, match="color-2"):
        poset_weights(lat, root_data("B", 2))


class TestSymplecticClosedForms:
    @pytest.mark.parametrize("k, want", [(1, 6), (2, 14), (3, 14)])
    def test_cardinalities_at_rank_three(self, k, want):
        assert closed_card_c(3, k) == want

    def test_polynomial_evaluates_to_the_cardinality(self):
        for n in range(2, 6):
            for k in range(1, n + 1):
                p = closed_rgf_c(n, k)
                assert p(1) == closed_card_c(n, k)
                assert p.degree == k * (2 * n - k)
                assert is_symmetric_unimodal(p)

    def test_out_of_range_indices_are_rejected(self):
        with pytest.raises(ValueError):
            closed_rgf_c(3, 0)
        with pytest.raises(ValueError):
            closed_card_c(3, 4)


def test_symmetry_and_unimodality_predicate():
    assert is_symmetric_unimodal(qbinomial(4, 2))
    assert not is_symmetric_unimodal(QPolynomial([1, 1, 2, 1]))   # lopsided
    assert not is_symmetric_unimodal(QPolynomial([2, 1, 2]))      # dips
