"""Reflection groups, weight assignments, and generating-function identities."""

import pytest

from colorlattice import (
    ColoredDigraph,
    DiamondLattice,
    LaurentPoly,
    QPolynomial,
    UnrankedComponentError,
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
    lat = DiamondLattice(g, "modular")
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
