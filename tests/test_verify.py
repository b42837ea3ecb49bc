"""The pairwise sweeps of ``verify theorem2``: each passes on the switch rows
and refuses doctored input with a pinned message."""

from types import SimpleNamespace

import pytest

from colorlattice import (
    ColoredDigraph,
    DiamondLattice,
    LatticeError,
    PathCertificate,
    shortest_path,
    z_lattice,
)
from colorlattice import paths, verify
from colorlattice.core import render_vertex
from colorlattice.switchgame import format_bits
from helpers import two_colored_square

SWEEPS = [verify._check_distance_formula, verify._check_certificates,
          verify._check_color_multisets]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_sweeps_pass_on_the_switch_rows(sweep, n):
    sweep(z_lattice(n), format_bits)


def test_multiset_sweep_refuses_a_square_with_two_colorings():
    lat = two_colored_square()
    verify._check_distance_formula(lat, render_vertex)
    with pytest.raises(verify._CheckFailed) as err:
        verify._check_color_multisets(lat, render_vertex)
    assert str(err.value) == ("geodesics 0 -> 1 use different color multisets: "
                              "[((1, 2),), ((2, 2),)]")


def test_distance_sweep_refuses_a_formula_off_on_one_pair(monkeypatch):
    exact = verify.lattice_distance

    def skewed(lat, s, t):
        return exact(lat, s, t) + ((s, t) == ((1, 0), (2, 1)))

    monkeypatch.setattr(verify, "lattice_distance", skewed)
    with pytest.raises(verify._CheckFailed) as err:
        verify._check_distance_formula(z_lattice(2), format_bits)
    assert str(err.value) == ("rank formula gives 3, breadth-first search 2 "
                              "between 10 and 21")


def test_distance_sweep_refuses_an_unreachable_target(monkeypatch):
    # no lattice diagram is disconnected, so the sweep gets a bare one
    g = ColoredDigraph(["x", "y"], [])
    monkeypatch.setattr(verify, "lattice_distance", lambda lat, s, t: int(s != t))
    with pytest.raises(verify._CheckFailed) as err:
        verify._check_distance_formula(
            SimpleNamespace(vertices=g.vertices, diagram=g), render_vertex)
    assert str(err.value) == "y is not reachable from x in the diagram"


def detoured(lat, s, t, via="join"):
    # out along the first edge and back: a "mixed" walk whose every step is
    # a diagram edge, two steps longer than the distance
    cert = shortest_path(lat, s, t, via=via)
    (w, c), = lat.diagram.out_edges(s)[:1]
    return PathCertificate((s, w) + cert.vertices, "mixed", None,
                           ((c, +1), (c, -1)) + cert.steps)


def test_certificate_sweep_refuses_a_walk_of_the_wrong_length(monkeypatch):
    monkeypatch.setattr(verify, "shortest_path", detoured)
    with pytest.raises(verify._CheckFailed) as err:
        verify._check_certificates(z_lattice(2), format_bits)
    assert str(err.value) == "join certificate for 00 -> 00 has length 2, distance is 0"


def test_certificate_sweep_evaluates_the_rank_formula_once_per_pair(monkeypatch):
    # the sweep's own evaluation is the only one: the certificates are as
    # long as the formula by construction, and check nothing against it
    calls = []
    for module in (verify, paths):
        def counted(lat, s, t, exact=module.lattice_distance):
            calls.append((s, t))
            return exact(lat, s, t)
        monkeypatch.setattr(module, "lattice_distance", counted)
    verify._check_certificates(z_lattice(4), format_bits)
    assert len(calls) == 256 == len(set(calls))


def test_validate_refuses_a_mixed_walk_of_the_wrong_length():
    lat = z_lattice(2)
    s = lat.vertices[0]
    with pytest.raises(LatticeError) as err:
        detoured(lat, s, s).validate(lat)
    assert str(err.value) == "mixed certificate has 2 steps, distance is 0"


def test_member_sweep_passes_on_the_board_lattices():
    for k, n in [(1, 1), (2, 3), (3, 4)]:
        verify._check_domino_members(k, n)


def test_member_sweep_refuses_other_members(monkeypatch):
    # at k=n=2, (1, 1) is kn admissible and (2, 0) dec admissible, and
    # neither is the other
    monkeypatch.setattr(verify, "kn_lattice", verify.dec_lattice)
    with pytest.raises(verify._CheckFailed) as err:
        verify._check_domino_members(2, 2)
    assert str(err.value) == "kn lattice and the kn admissible partitions differ on 1,1"


def test_member_sweep_runs_the_lattice_certificate(monkeypatch):
    # the right vertices, but a join rule that names the top
    lat = verify.dec_lattice(2, 3)
    doctored = DiamondLattice(lat.diagram, "distributive",
                              coord_join=lambda s, t: lat.maximum, coord_meet=lat.meet)
    monkeypatch.setattr(verify, "dec_lattice", lambda k, n: doctored)
    with pytest.raises(LatticeError, match="not their least upper bound"):
        verify._check_domino_members(2, 3)



@pytest.mark.parametrize("suite, name, word, calls", [
    (verify._suite_theorem2(5), "gods_number", "diameter", [4, 4]),
    (verify._suite_symplectic(4), "rgf", "rank polynomials", [10, 20]),
], ids=["diameter", "rank polynomials"])
def test_each_check_evaluates_its_value_once(monkeypatch, suite, name, word, calls):
    # at the suites' default bounds: one diameter sweep per switch size and
    # one rank polynomial per kn and dec lattice, which the check and its
    # failure detail share
    exact, seen = getattr(verify, name), []
    monkeypatch.setattr(verify, name, lambda lat: seen.append(lat) or exact(lat))
    ran = [check() for label, check in suite if word in label]
    assert [len(ran), len(seen)] == calls
