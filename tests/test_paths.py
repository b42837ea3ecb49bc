"""Geodesics: rank-formula distances, certificates, and color tallies."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlattice import (
    CapExceededError,
    LatticeError,
    PathCertificate,
    a_lattice,
    bfs_distance,
    c_lattice,
    color_counts,
    dec_lattice,
    gods_number,
    ideals_lattice,
    kn_lattice,
    lattice_distance,
    shortest_path,
    z_lattice,
)
from colorlattice.explicit import distances_from
from colorlattice.paths import geodesic_multisets
from helpers import all_shortest_paths, random_lattice, random_poset, two_colored_square


@pytest.fixture(scope="module")
def zee4():
    return z_lattice(4)


@pytest.mark.parametrize("s, t, want", [
    ((0, 0, 0, 0), (4, 3, 2, 1), 10),
    ((0, 0, 0, 0), (0, 0, 0, 0), 0),
    ((2, 0, 0, 0), (3, 1, 0, 0), 2),
    ((4, 3, 2, 1), (2, 1, 0, 0), 7),
    ((3, 2, 1, 0), (4, 1, 0, 0), 3),
])
def test_formula_distance_agrees_with_breadth_first_search(zee4, s, t, want):
    assert lattice_distance(zee4, s, t) == want
    assert bfs_distance(zee4.diagram, s, t) == want


def test_join_route_yields_a_valid_mountain(zee4):
    cert = shortest_path(zee4, (2, 1, 0, 0), (4, 3, 0, 0), via="join")
    assert cert.orientation == "mountain"
    assert cert.distance == lattice_distance(zee4, (2, 1, 0, 0), (4, 3, 0, 0))
    assert cert.turning_point == zee4.join((2, 1, 0, 0), (4, 3, 0, 0))
    cert.validate(zee4)


def test_meet_route_yields_a_valid_valley(zee4):
    cert = shortest_path(zee4, (2, 1, 0, 0), (4, 3, 0, 0), via="meet")
    assert cert.orientation == "valley"
    assert cert.turning_point == zee4.meet((2, 1, 0, 0), (4, 3, 0, 0))
    cert.validate(zee4)


def test_via_must_name_a_turning_rule(zee4):
    with pytest.raises(ValueError, match="join.*meet"):
        shortest_path(zee4, (0, 0, 0, 0), (1, 0, 0, 0), via="apex")


def test_color_counts_total_the_distance_and_match_the_certificate(zee4):
    s, t = (2, 1, 0, 0), (4, 3, 0, 0)
    tallies = color_counts(zee4, s, t)
    assert sum(tallies.values()) == lattice_distance(zee4, s, t)
    for via in ("join", "meet"):
        cert = shortest_path(zee4, s, t, via=via)
        observed = cert.color_multiset()
        assert {c: m for c, m in tallies.items() if m} == dict(observed)


def two_sided_counts(lat, s, t):
    """The color tallies of the steps from s and t up to their join and
    down to their meet, which `color_counts` once computed both of and
    compared."""
    cs, ct = lat.ideal_coords[s], lat.ideal_coords[t]
    union, inter = cs | ct, cs & ct
    col = lat.poset.color
    return (Counter(map(col, [*(union - cs), *(union - ct)])),
            Counter(map(col, [*(cs - inter), *(ct - inter)])))


@pytest.mark.parametrize("build, args", [
    *((z_lattice, (n,)) for n in range(2, 6)),
    *((c_lattice, (n,)) for n in range(1, 5)),
    *((f, (k, n)) for f in (kn_lattice, dec_lattice)
      for n in range(1, 4) for k in range(1, n + 1)),
], ids=lambda v: getattr(v, "__name__", None) or ",".join(map(str, v)))
def test_one_tally_equals_the_join_and_meet_tallies_on_every_pair(build, args):
    lat = build(*args)
    colors = lat.diagram.colors()
    for s in lat.vertices:
        for t in lat.vertices:
            up, down = two_sided_counts(lat, s, t)
            assert up == down
            assert color_counts(lat, s, t) == {c: up[c] for c in colors}


@pytest.mark.parametrize("make", [
    pytest.param(lambda: z_lattice(4), id="z n=4"),
    pytest.param(lambda: c_lattice(4), id="c n=4"),
    pytest.param(lambda: kn_lattice(2, 3), id="kn k=2 n=3"),
    pytest.param(lambda: dec_lattice(2, 3), id="dec k=2 n=3"),
    pytest.param(lambda: ideals_lattice(z_lattice(3).poset), id="ideals of z n=3"),
])
def test_rank_formula_through_the_meet_gives_the_distance_and_path_lengths(make):
    """`lattice_distance` evaluates the rank formula through the join only,
    and `shortest_path` no longer checks its length: through the meet the
    formula gives the same number on every pair, and both certificates are
    that long."""
    lat = make()
    rank = lat.rank
    for s in lat.vertices:
        for t in lat.vertices:
            d = rank[s] + rank[t] - 2 * rank[lat.meet(s, t)]
            assert lattice_distance(lat, s, t) == d
            for via in ("join", "meet"):
                assert shortest_path(lat, s, t, via=via).distance == d


def test_every_geodesic_shares_one_color_multiset(zee4):
    s, t = (2, 0, 0, 0), (3, 1, 0, 0)
    paths = all_shortest_paths(zee4, s, t, cap=4)
    assert len(paths) >= 2
    seen = {frozenset(p.color_multiset().items()) for p in paths}
    assert len(seen) == 1
    for p in paths:
        p.validate(zee4)


def test_every_enumerated_geodesic_validates(zee4):
    # the mixed ones too, which validate checks against the rank formula
    verts = zee4.vertices
    orientations = Counter()
    for s in verts:
        for t in verts:
            for p in all_shortest_paths(zee4, s, t, cap=10):
                p.validate(zee4)
                orientations[p.orientation] += 1
    assert orientations["mixed"] > 0


def test_enumeration_refuses_distances_beyond_the_cap(zee4):
    with pytest.raises(CapExceededError):
        all_shortest_paths(zee4, (0, 0, 0, 0), (4, 3, 2, 1), cap=9)


def test_gods_number_is_the_lattice_length(zee4):
    assert gods_number(zee4) == 10 == zee4.length


def test_serialized_certificate_is_line_oriented(zee4):
    text = shortest_path(zee4, (0, 0, 0, 0), (1, 0, 0, 0)).serialize()
    head, step, tail = text.split("\n")
    assert head == "distance=1 orientation=mountain apex=1,0,0,0"
    assert step == "0,0,0,0 --4--> 1,0,0,0"
    assert tail == ""


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_rank_formula_matches_search_on_random_ideal_lattices(seed):
    """The move-count formula is exact on arbitrary distributive lattices."""
    lat = random_lattice(seed)
    verts = lat.diagram.vertices
    for i in range(len(verts)):
        for j in range(i, len(verts)):
            s, t = verts[i], verts[j]
            d = lattice_distance(lat, s, t)
            assert d == bfs_distance(lat.diagram, s, t)
            cert = shortest_path(lat, s, t, via=random.Random(seed + i + j).choice(["join", "meet"]))
            assert cert.distance == d
            cert.validate(lat)


# --------------------------------------------------------------------------
# the one-search-per-source walks against the per-pair and per-step ones

def stepwise_ascend(lat, vertex, x_ideal, target_ideal, vertices, steps):
    """Climb to the target ideal, finding the canonical-first minimal
    missing element afresh at each step; ``vertex`` inverts the ideal
    coordinates."""
    p = lat.poset
    while x_ideal != target_ideal:
        u = p.minimal_of(target_ideal - x_ideal)[0]
        x_ideal = x_ideal | {u}
        vertices.append(vertex[x_ideal])
        steps.append((p.color(u), +1))
    return x_ideal


def stepwise_descend(lat, vertex, x_ideal, target_ideal, vertices, steps):
    p = lat.poset
    while x_ideal != target_ideal:
        u = p.maximal_of(x_ideal - target_ideal)[0]
        x_ideal = x_ideal - {u}
        vertices.append(vertex[x_ideal])
        steps.append((p.color(u), -1))
    return x_ideal


def stepwise_shortest_path(lat, vertex, s, t, via):
    cs, ct = lat.ideal_coords[s], lat.ideal_coords[t]
    vertices, steps = [s], []
    if via == "join":
        x = stepwise_ascend(lat, vertex, cs, cs | ct, vertices, steps)
        stepwise_descend(lat, vertex, x, ct, vertices, steps)
        return PathCertificate(vertices, "mountain", lat.join(s, t), steps)
    x = stepwise_descend(lat, vertex, cs, cs & ct, vertices, steps)
    stepwise_ascend(lat, vertex, x, ct, vertices, steps)
    return PathCertificate(vertices, "valley", lat.meet(s, t), steps)


def fields(cert):
    return cert.vertices, cert.steps, cert.orientation, cert.turning_point


# every pair up to 64 vertices, 300 seeded pairs past that
CERTIFICATE_FAMILIES = (
    [pytest.param(lambda n=n: z_lattice(n), id=f"z n={n}") for n in range(2, 7)]
    + [pytest.param(lambda n=n: c_lattice(n), id=f"c n={n}") for n in range(1, 6)]
    + [pytest.param(lambda k=k, n=n, make=make: make(k, n), id=f"{make.__name__} k={k} n={n}")
       for n in range(1, 5) for k in range(1, n + 1) for make in (kn_lattice, dec_lattice)]
    + [pytest.param(lambda k=k, m=m: a_lattice(k, m), id=f"a k={k} m={m}")
       for k, m in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4))]
    + [pytest.param(lambda seed=seed: random_lattice(seed), id=f"random seed={seed}")
       for seed in range(12)])


@pytest.mark.parametrize("make", CERTIFICATE_FAMILIES)
def test_peeled_legs_give_the_stepwise_certificates(make):
    lat = make()
    verts = lat.vertices
    vertex = {x: v for v, x in lat.ideal_coords.items()}
    if len(verts) <= 64:
        pairs = [(s, t) for s in verts for t in verts]
    else:
        rng = random.Random(len(verts))
        pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(300)]
    for s, t in pairs:
        for via in ("join", "meet"):
            assert fields(shortest_path(lat, s, t, via=via)) == \
                fields(stepwise_shortest_path(lat, vertex, s, t, via))


@pytest.mark.parametrize("seed", range(20))
def test_lowest_landing_bits_match_repeated_extremes(seed):
    """On the ideals of random posets of every density, each leg's steps are
    the canonical-first minimal (maximal) irreducibles found afresh each
    time; sparse posets make climbs skip bits that do not land."""
    rng = random.Random(seed)
    p = random_poset(rng, size=rng.randint(1, 12), colors=2, edge_p=rng.random())
    lat = ideals_lattice(p)
    vertex = {x: v for v, x in lat.ideal_coords.items()}
    for _ in range(20):
        s, t = rng.choice(lat.vertices), rng.choice(lat.vertices)
        for via in ("join", "meet"):
            assert fields(shortest_path(lat, s, t, via=via)) == \
                fields(stepwise_shortest_path(lat, vertex, s, t, via))


def test_paths_and_tallies_build_no_poset():
    """Geodesics and color tallies read the Birkhoff ints and their colors
    alone: neither the poset of irreducibles nor the diagram's in-edges."""
    lat = z_lattice.__wrapped__(8)
    for via in ("join", "meet"):
        shortest_path(lat, lat.minimum, lat.maximum, via=via)
        shortest_path(lat, (3, 1, 0, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0, 0), via=via)
    assert sum(color_counts(lat, lat.minimum, lat.maximum).values()) == lat.length
    assert lat._poset is None
    assert lat.diagram._inc is None


SWEEP_FAMILIES = (
    [pytest.param(lambda n=n: z_lattice(n), id=f"z n={n}") for n in range(2, 5)]
    + [pytest.param(lambda n=n: c_lattice(n), id=f"c n={n}") for n in range(1, 5)]
    + [pytest.param(lambda: kn_lattice(2, 3), id="kn k=2 n=3"),
       pytest.param(lambda: dec_lattice(2, 3), id="dec k=2 n=3"),
       pytest.param(lambda: random_lattice(5), id="random seed=5"),
       pytest.param(two_colored_square, id="two-colored square")])


@pytest.mark.parametrize("make", SWEEP_FAMILIES)
def test_one_search_per_source_matches_the_per_pair_oracles(make):
    lat = make()
    g = lat.diagram
    for s in lat.vertices:
        dist = distances_from(g, s)
        sets = geodesic_multisets(g, s)
        assert list(dist.values()) == sorted(dist.values())
        assert set(dist) == set(sets) == set(lat.vertices)
        for t in lat.vertices:
            assert dist[t] == bfs_distance(g, s, t)
            paths = all_shortest_paths(lat, s, t, cap=lat.length)
            assert sets[t] == {tuple(sorted(p.color_multiset().items())) for p in paths}

