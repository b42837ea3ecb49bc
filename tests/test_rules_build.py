"""Explicit lattices built from the family rules, against the member sets.

``tuple_lattice(rules)`` certifies a :class:`TupleLattice` and climbs from
the zero tuple.  The oracle lists the members from each family's own
definition (cushioned tuples, box partitions, the kn/dec admissibility
filters, staircase-bounded tuples) and finds the unit raises among them
through a set.
"""

import re

import pytest

from colorlattice import (
    ColoredDigraph,
    DiamondLattice,
    LatticeError,
    TupleLattice,
    a_lattice,
    all_snakes,
    attach_birkhoff_coords,
    c_lattice,
    cached_isomorphism,
    catalan_tuples,
    dec_admissible,
    dec_lattice,
    domino_digraph,
    enumerate_box_partitions,
    ideals_lattice,
    join_irreducibles,
    kn_admissible,
    kn_lattice,
    ming_digraph,
    mixedmiddleswitch_digraph,
    root_data,
    sigma,
    tuple_lattice,
    wgf,
    z_lattice,
)
from colorlattice.dominoes import _box_lattice
from colorlattice.switchgame import _cushioned_lattice, all_cushioned


def set_tuple_lattice(tuples, color):
    """Unit raises found among the listed members, with component-wise max
    and min as the coordinate rules that `check_lattice` compares."""
    have = set(tuples)
    edges = []
    for x in tuples:
        for q in range(1, len(x) + 1):
            y = x[:q - 1] + (x[q - 1] + 1,) + x[q:]
            if y in have:
                edges.append((x, y, color(q, y[q - 1])))
    return attach_birkhoff_coords(DiamondLattice(
        ColoredDigraph(tuples, edges), "distributive",
        coord_join=lambda a, b: tuple(map(max, a, b)),
        coord_meet=lambda a, b: tuple(map(min, a, b))))


def staircase_tuples(n):
    """Weakly decreasing n-tuples with 0 <= s_i <= n+1-i, by definition."""
    return [s for s in enumerate_box_partitions(n, n)
            if all(a <= n - i for i, a in enumerate(s))]


def admissible_lattice(k, n, admissible):
    """The admissible box partitions with sigma-folded colors, certified
    pair by pair as the builds once were."""
    m = 2 * n - k
    keep = [tau for tau in enumerate_box_partitions(k, m) if admissible(tau, k, n)]
    lat = set_tuple_lattice(keep, lambda q, t: sigma(q - t + m, n))
    lat.check_lattice()
    assert lat.length == k * m
    return lat


def same_lattice(lat, oracle):
    assert lat.diagram == oracle.diagram
    assert lat.rank == oracle.rank
    assert lat.ideal_coords == oracle.ideal_coords
    assert lat.poset == oracle.poset


@pytest.mark.parametrize("n", range(2, 11))
def test_switch_rows_match_the_cushioned_tuples(n):
    same_lattice(z_lattice(n), set_tuple_lattice(all_cushioned(n), lambda q, t: n + 1 - t))


@pytest.mark.parametrize("k, m", [(k, m) for m in range(1, 5) for k in range(1, m + 1)]
                         + [(3, 9)])
def test_boxes_match_the_box_partitions(k, m):
    same_lattice(a_lattice(k, m), set_tuple_lattice(enumerate_box_partitions(k, m),
                                                    lambda q, t: q - t + m))


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 6) for k in range(1, n + 1)])
def test_symplectic_lattices_match_the_admissible_partitions(k, n):
    same_lattice(kn_lattice(k, n), admissible_lattice(k, n, kn_admissible))
    same_lattice(dec_lattice(k, n), admissible_lattice(k, n, dec_admissible))


@pytest.mark.parametrize("n", range(1, 8))
def test_catalan_lattices_match_the_staircase_tuples(n):
    tuples = staircase_tuples(n)
    assert catalan_tuples(n) == tuples
    same_lattice(c_lattice(n), set_tuple_lattice(tuples, lambda q, t: n + q - t))


ORACLES = {
    z_lattice: lambda n: set_tuple_lattice(all_cushioned(n), lambda q, t: n + 1 - t),
    a_lattice: lambda k, m: set_tuple_lattice(enumerate_box_partitions(k, m),
                                              lambda q, t: q - t + m),
    kn_lattice: lambda k, n: admissible_lattice(k, n, kn_admissible),
    dec_lattice: lambda k, n: admissible_lattice(k, n, dec_admissible),
    c_lattice: lambda n: set_tuple_lattice(staircase_tuples(n), lambda q, t: n + q - t),
}


@pytest.mark.parametrize("build, args", [
    *((z_lattice, (n,)) for n in range(2, 9)),
    *((a_lattice, (k, m)) for m in range(1, 4) for k in range(1, m + 1)),
    *((f, (k, n)) for f in (kn_lattice, dec_lattice)
      for n in range(1, 5) for k in range(1, n + 1)),
    *((c_lattice, (n,)) for n in range(1, 7)),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_coordinates_read_after_the_masks_match_the_oracle(build, args):
    """On a fresh build any order query may come first: the irreducibles
    read first, and the coordinates decoded after them from the same
    Birkhoff ints, agree with the oracle."""
    lat = build.__wrapped__(*args)
    p = join_irreducibles(lat)
    assert lat._birk is not None and lat._poset is None
    oracle = ORACLES[build](*args)
    same_lattice(lat, oracle)
    assert p == lat.poset


def test_a_fresh_build_reads_neither_masks_nor_coordinates():
    """A build holds no order structure: no Birkhoff ints, coordinates or
    poset until an order query reads them."""
    lat = z_lattice.__wrapped__(8)
    assert lat.minimum == (0,) * 8 and lat.maximum == (8, 7, 6, 5, 4, 3, 2, 1)
    assert lat.rank[lat.minimum] == 0 and lat.rank[lat.maximum] == lat.length == 36
    assert lat._birk is None and lat._coords is None and lat._poset is None
    # nor its in-edges: the build and its ends read the in-degrees only
    assert lat.diagram._inc is None


def test_in_edges_built_on_first_read_list_every_edge_by_source():
    for lat in (z_lattice.__wrapped__(6), ideals_lattice(z_lattice(3).poset)):
        g = lat.diagram
        assert g.sources() == [lat.minimum] and g._inc is None
        want = {v: [] for v in g.vertices}
        for (u, v, c) in g.edges:
            want[v].append((u, c))
        assert {v: g.in_edges(v) for v in g.vertices} == \
            {v: tuple(pairs) for v, pairs in want.items()}
        assert g._indeg == tuple(len(g.in_edges(v)) for v in g.vertices)


def test_weights_and_irreducibles_build_no_in_edges():
    """The color subgraphs of the weights count their own in-degrees, and
    the irreducibles read each color off the Birkhoff ints: neither builds
    the diagram's in-edge table."""
    lat = z_lattice.__wrapped__(6)
    wgf(lat, root_data("B", 6))
    join_irreducibles(lat)
    assert lat.diagram._inc is None


# --------------------------------------------------------------------------
# doctored rules

def doctored(rules, changes):
    """``rules`` with some least members replaced: ``changes`` maps (q, v)
    to the tuple it should name instead."""
    return TupleLattice(rules.top, rules.color,
                        lambda q, v: changes.get((q, v)) or rules.least(q, v))


# Switch rows at n=3: least(q, v) = (v+q-1, ..., v, 0, ..., 0).
SWITCH3 = _cushioned_lattice(3)
# The 2 x 2 box: least(q, v) = (v, ..., v, 0, ..., 0), q parts v.
BOX2 = _box_lattice(2, 2)


@pytest.mark.parametrize("rules, match", [
    # (1, 1, 1) has part 3 equal to 1, but its part 2 does not lie above
    # least(2, 1) = (2, 1, 0)
    (doctored(SWITCH3, {(3, 1): (1, 1, 1)}), r"least\(3, 1\) = 1,1,1 is not a member"),
    # a member, but its part 1 is 2
    (doctored(SWITCH3, {(1, 1): (2, 0, 0)}), r"least\(1, 1\) = 2,0,0 has part 1 equal to 2"),
    # (1, 2, 0) is a member of the doctored rules with part 2 equal to 2,
    # but it does not lie above least(2, 1) = (2, 1, 0)
    (doctored(SWITCH3, {(2, 2): (1, 2, 0)}),
     r"least\(2, 2\) = 1,2,0 does not lie above least\(2, 1\) = 2,1,0"),
    # least(1, 1) = least(2, 1) = (1, 1): each passes (a) and (b)
    (doctored(BOX2, {(1, 1): (1, 1), (1, 2): (2, 1)}),
     r"least\(2, 1\) = 1,1 repeats least\(1, 1\)"),
    # every least member is the top (the rules of the descent test)
    (TupleLattice(SWITCH3.top, SWITCH3.color, lambda q, v: SWITCH3.top),
     r"least\(1, 1\) = 3,2,1 has part 1 equal to 3"),
], ids=["not-a-member", "wrong-part", "falls", "repeated", "all-top"])
def test_doctored_rules_are_refused(rules, match):
    with pytest.raises(LatticeError, match=match):
        rules.certify()
    with pytest.raises(LatticeError, match=match):
        tuple_lattice(rules)


def test_distances_and_color_counts_refuse_tuples_of_the_wrong_length():
    lat = _cushioned_lattice(4)
    # zip would drop the fourth part and report 2
    for s, t in [((1, 0, 0, 0), (2, 1, 0)), ((2, 1, 0), (1, 0, 0, 0)),
                 ((1, 0, 0, 0, 0), (1, 0, 0, 0))]:
        with pytest.raises(ValueError, match="tuples of 4 parts expected"):
            lat.distance(s, t)
        with pytest.raises(ValueError, match="tuples of 4 parts expected"):
            lat.color_counts(s, t)
    # a length check only: tuples of the right length that are not members
    # still get the rank formula
    assert lat.distance((0, 0, 0, 0), (0, 0, 0, 1)) == 1


# each explicit builder, the arguments before its sizes, and int sizes it builds
SIZED_BUILDERS = [
    (z_lattice, (), (2,)),
    (a_lattice, (), (1, 2)),
    (kn_lattice, (), (1, 2)),
    (dec_lattice, (), (1, 2)),
    (c_lattice, (), (1,)),
    (mixedmiddleswitch_digraph, (), (2,)),
    (domino_digraph, ("full",), (1, 1)),
    (ming_digraph, (), (1,)),
    (all_snakes, (), (1,)),
    (cached_isomorphism, (), (2,)),
    (all_cushioned, (), (2,)),
]


@pytest.mark.parametrize("build, head, sizes", SIZED_BUILDERS,
                         ids=[b.__name__ for b, _, _ in SIZED_BUILDERS])
def test_builders_refuse_bool_and_float_sizes_cold_and_warm(build, head, sizes):
    """``True == 1`` and ``2.0 == 2``, and both hash as the int, so an untyped
    cache would serve them the lattice of the int once it is built."""
    for i, size in enumerate(sizes):
        for bad in (True, 2.0, float(size)):
            args = head + sizes[:i] + (bad,) + sizes[i + 1:]
            for warm in (False, True):
                if warm:
                    build(*head, *sizes)
                elif hasattr(build, "cache_clear"):
                    build.cache_clear()
                with pytest.raises(ValueError, match=r"must be (an int|ints), got .*"
                                   + re.escape(repr(bad))):
                    build(*args)


@pytest.mark.parametrize("build", [c_lattice, ming_digraph, all_snakes, cached_isomorphism],
                         ids=lambda b: b.__name__)
def test_snake_builders_share_one_lower_bound(build):
    """Every snake builder refuses a board below 1 x 1 alike: ``all_snakes``
    returned () and ``cached_isomorphism(-1)`` failed inside ``math.comb``."""
    for n in (0, -1, -2):
        with pytest.raises(ValueError, match=r"^n must be positive$"):
            build(n)
