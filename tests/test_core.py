"""Colored digraphs, rank functions, and the order-ideal correspondence."""

import random
from itertools import combinations
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlattice import (
    ColoredDigraph,
    DiamondLattice,
    LatticeError,
    NotRankedError,
    UnreachableError,
    VertexColoredPoset,
    a_lattice,
    attach_birkhoff_coords,
    bfs_distance,
    c_lattice,
    color_counts,
    dec_lattice,
    ideals_lattice,
    is_diamond_colored,
    is_topographically_balanced,
    join_irreducibles,
    kn_lattice,
    rank_function,
    shortest_path,
    to_dot,
    tuple_lattice,
    z_lattice,
)
from colorlattice.dominoes import _board_lattice, _box_lattice
from colorlattice import explicit
from colorlattice.explicit import _canonical_sorted, _count_irreducibles, canonical_key
from colorlattice.snakes import _catalan_lattice
from colorlattice.switchgame import _cushioned_lattice
from helpers import random_lattice, random_poset


def diamond():
    return ColoredDigraph(
        ["s", "x", "y", "t"],
        [("s", "x", 1), ("s", "y", 2), ("x", "t", 2), ("y", "t", 1)])


class TestColoredDigraph:
    def test_basic_accessors(self):
        g = diamond()
        assert len(g) == 4
        assert g.colors() == [1, 2]
        assert g.sources() == ["s"]
        assert g.sinks() == ["t"]
        assert ("x", 2) in g.out_edges("s") or ("x", 1) in g.out_edges("s")
        assert {w for (w, _, _) in g.undirected_neighbors("x")} == {"s", "t"}

    def test_color_subgraph_keeps_one_color(self):
        sub = diamond().color_subgraph(1)
        assert set(sub.edges) == {("s", "x", 1), ("y", "t", 1)}

    def test_colors_are_kept_and_each_call_returns_a_new_list(self):
        g = diamond()
        colors = g.colors()
        colors.append(9)
        assert g.colors() == [1, 2] and g.colors() is not g.colors()
        assert g.color_subgraph(2).colors() == [2]
        assert g.color_subgraph(3).colors() == []
        assert ColoredDigraph(["a"], []).colors() == []

    def test_rank_function_on_diamond(self):
        rk = rank_function(diamond())
        assert rk["s"] == 0 and rk["t"] == 2
        assert rk["x"] == rk["y"] == 1

    def test_weak_components(self):
        g = ColoredDigraph(["a", "b", "c", "d", "e"],
                           [("b", "a", 1), ("c", "d", 2), ("e", "d", 1)])
        assert g.weak_components() == [{"a", "b"}, {"c", "d", "e"}]
        empty = ColoredDigraph([], [])
        assert empty.weak_components() == []

    def test_rank_function_ranks_each_component_from_its_source(self):
        g = ColoredDigraph(["a", "b", "c", "x", "y"],
                           [("a", "b", 1), ("b", "c", 2), ("x", "y", 1)])
        assert rank_function(g) == {"a": 0, "b": 1, "c": 2, "x": 0, "y": 1}
        assert rank_function(ColoredDigraph([], [])) == {}
        with pytest.raises(LatticeError, match="2 sources"):
            DiamondLattice(g, "distributive")

    def test_rank_function_rejects_unequal_chain_lengths(self):
        g = ColoredDigraph(["a", "b", "c"],
                           [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        # N5 has chains of length 3 and 2 from bot to top, so it cannot
        # even be declared distributive
        n5 = ColoredDigraph(
            ["bot", "a", "b", "c", "top"],
            [("bot", "a", 1), ("a", "b", 2), ("b", "top", 3),
             ("bot", "c", 3), ("c", "top", 1)])
        for h in (g, n5):
            with pytest.raises(NotRankedError):
                rank_function(h)
        with pytest.raises(NotRankedError):
            DiamondLattice(n5, "distributive")


@pytest.mark.parametrize("make", [
    pytest.param(lambda: z_lattice(5), id="z5"),
    pytest.param(lambda: c_lattice(4), id="c4"),
    pytest.param(lambda: dec_lattice(2, 3), id="dec23"),
])
def test_color_subgraph_equals_the_constructor_build(make):
    g = make().diagram
    for c in g.colors():
        fast = g.color_subgraph(c)
        built = ColoredDigraph(g.vertices, [e for e in g.edges if e[2] == c])
        assert fast == built
        assert fast._indeg == built._indeg
        for v in g.vertices:
            assert fast.out_edges(v) == built.out_edges(v)
            assert fast.in_edges(v) == built.in_edges(v)


def test_diamond_coloring_predicate():
    assert is_diamond_colored(diamond())
    skew = ColoredDigraph(
        ["s", "x", "y", "t"],
        [("s", "x", 1), ("s", "y", 2), ("x", "t", 2), ("y", "t", 3)])
    assert not is_diamond_colored(skew)


def test_balance_needs_both_completions():
    assert is_topographically_balanced(diamond())
    vee = ColoredDigraph(["s", "x", "y"], [("s", "x", 1), ("s", "y", 2)])
    wedge = ColoredDigraph(["x", "y", "t"], [("x", "t", 1), ("y", "t", 2)])
    assert not is_topographically_balanced(vee)
    assert not is_topographically_balanced(wedge)


def test_bfs_distance_ignores_direction_and_detects_gaps():
    g = diamond()
    assert bfs_distance(g, "s", "t") == 2
    assert bfs_distance(g, "x", "y") == 2  # through either s or t
    split = ColoredDigraph(["a", "b"], [])
    with pytest.raises(UnreachableError):
        bfs_distance(split, "a", "b")


class TestVertexColoredPoset:
    def test_rejects_cycles(self):
        with pytest.raises(ValueError, match="cycle"):
            VertexColoredPoset("ab", [("a", "b"), ("b", "a")], {"a": 1, "b": 1})

    def test_rejects_transitive_covers(self):
        with pytest.raises(ValueError, match="longer chain"):
            VertexColoredPoset(
                "abc", [("a", "b"), ("b", "c"), ("a", "c")],
                {"a": 1, "b": 1, "c": 1})

    def test_rejects_missing_or_bad_colors(self):
        with pytest.raises(ValueError):
            VertexColoredPoset("ab", [("a", "b")], {"a": 1})
        with pytest.raises(ValueError):
            VertexColoredPoset("ab", [("a", "b")], {"a": 0, "b": 1})

    def test_a_bool_is_no_color(self):
        with pytest.raises(ValueError, match="^color of 'a' must be a positive integer$"):
            VertexColoredPoset(["a", "b"], [("a", "b")], {"a": True, "b": 2})

    def test_long_chain_builds_without_recursion(self):
        size = 2000
        p = VertexColoredPoset(range(size), [(i, i + 1) for i in range(size - 1)],
                               {i: 1 for i in range(size)})
        assert len(p.strict_downset(size - 1)) == size - 1
        assert p.minimal_of(range(size)) == [0]
        assert p.maximal_of(range(size)) == [size - 1]

    def test_ideals_of_an_antichain(self):
        p = VertexColoredPoset("abc", [], {"a": 1, "b": 2, "c": 3})
        assert len(p.ideals()) == 8

    @pytest.mark.parametrize("seed", range(10))
    def test_ideals_are_listed_once_from_the_empty_ideal(self, seed):
        p = random_poset(random.Random(seed), size=7)
        found = p.ideals()
        assert found[0] == frozenset()
        assert len(set(found)) == len(found)
        # reference: every subset that holds the strict down-set of each member
        els = p.elements
        subsets = (frozenset(e for i, e in enumerate(els) if bits >> i & 1)
                   for bits in range(2 ** len(els)))
        assert set(found) == {x for x in subsets
                              if all(p.strict_downset(e) <= x for e in x)}


def test_ideals_lattice_is_diamond_colored_and_balanced():
    p = VertexColoredPoset(
        "abcd", [("a", "c"), ("b", "c"), ("b", "d")],
        {"a": 1, "b": 2, "c": 1, "d": 3})
    lat = ideals_lattice(p)
    assert is_diamond_colored(lat.diagram)
    assert is_topographically_balanced(lat.diagram)
    lat.check_lattice()


def _skewed_bounds():
    # x and y have incomparable common upper bounds u (rank 2) and w (rank 3)
    return ColoredDigraph(
        ["bot", "x", "y", "u", "p", "q", "v", "w", "top"],
        [("bot", "x", 1), ("bot", "y", 2), ("x", "u", 2), ("y", "u", 1),
         ("x", "p", 3), ("y", "q", 4), ("p", "w", 4), ("q", "w", 3),
         ("u", "v", 5), ("v", "top", 6), ("w", "top", 5)])


def _level_bounds():
    # x and y have incomparable common upper bounds c and d, both at rank 2
    return ColoredDigraph(
        ["bot", "x", "y", "c", "d", "top"],
        [("bot", "x", 1), ("bot", "y", 2), ("x", "c", 2), ("x", "d", 3),
         ("y", "c", 1), ("y", "d", 4), ("c", "top", 5), ("d", "top", 6)])


def test_non_lattice_diagram_is_refused_by_check():
    # two middle layers joined completely: x v y has no least upper bound
    lat = DiamondLattice(_level_bounds(), "distributive")
    with pytest.raises(LatticeError, match="^2 join irreducibles in a lattice of "
                                           "length 3; lattice not distributive$"):
        lat.check_lattice()


def _dual(g):
    return ColoredDigraph(g.vertices, [(v, u, c) for (u, v, c) in g.edges])


@pytest.mark.parametrize("make, count", [(_skewed_bounds, 5), (_level_bounds, 2)],
                         ids=["_skewed_bounds", "_level_bounds"])
@pytest.mark.parametrize("flip", [False, True], ids=["joins", "meets"])
def test_incomparable_minimal_bounds_are_refused(make, count, flip):
    """x and y have two minimal common upper (on the dual, lower) bounds:
    the certificate refuses the diagram, at `check_lattice` and at the
    first join or meet alike."""
    g = _dual(make()) if flip else make()
    lat = DiamondLattice(g, "distributive")
    match = (f"^{count} join irreducibles in a lattice of length {lat.length}; "
             "lattice not distributive$")
    with pytest.raises(LatticeError, match=match):
        lat.check_lattice()
    bound = lat.meet if flip else lat.join
    with pytest.raises(LatticeError, match=match):
        bound("x", "y")


def _above(g):
    """Each vertex's up-set, walked from the diagram alone."""
    above = {}
    for v in g.vertices:
        seen, stack = {v}, [v]
        while stack:
            for (w, _) in g.out_edges(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        above[v] = seen
    return above


def _brute_extremum(bounds, within):
    """The member of ``bounds`` that every member lies within, if unique."""
    found = [u for u in bounds if bounds <= within[u]]
    assert len(found) == 1, f"{len(found)} extremal bounds"
    return found[0]


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda n=n: z_lattice(n), id=f"z{n}") for n in range(2, 6)),
    *(pytest.param(lambda n=n: c_lattice(n), id=f"c{n}") for n in range(1, 5)),
    *(pytest.param(lambda k=k, n=n, f=f: f(k, n), id=f"{f.__name__[:-8]}{k}{n}")
      for f in (kn_lattice, dec_lattice)
      for n in range(1, 4) for k in range(1, n + 1)),
    pytest.param(lambda: a_lattice(2, 3), id="a23"),
    *(pytest.param(lambda seed=seed: random_lattice(seed), id=f"random{seed}")
      for seed in range(20)),
])
def test_order_bounds_match_a_brute_force_search(make):
    """Join and meet are the least common upper and greatest common lower
    bound found by walking the order, on every ordered pair; so are the
    vertices of the ideal union and intersection."""
    lat = make()
    bare = DiamondLattice(lat.diagram, lat.kind)
    ideal = lat.ideal_coords
    vertex = {x: v for v, x in ideal.items()}
    above = _above(lat.diagram)
    below = {v: {u for u in lat.vertices if v in above[u]} for v in lat.vertices}
    for s in lat.vertices:
        assert {t for t in lat.vertices if lat.le(s, t)} == above[s]
        for t in lat.vertices:
            j = _brute_extremum(above[s] & above[t], above)
            m = _brute_extremum(below[s] & below[t], below)
            assert lat.join(s, t) == bare.join(s, t) == j
            assert lat.meet(s, t) == bare.meet(s, t) == m
            assert vertex[ideal[s] | ideal[t]] == j
            assert vertex[ideal[s] & ideal[t]] == m
    lat.check_lattice()
    bare.check_lattice()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_irreducibles_of_ideal_lattice_rebuild_the_poset(seed):
    """Taking ideals and then irreducibles gives back the poset, colors intact."""
    import random

    p = random_poset(random.Random(seed), size=7)
    lat = ideals_lattice(p)
    q = join_irreducibles(lat)
    # the irreducibles of an ideal lattice are exactly the principal ideals
    principal = {e: frozenset(p.strict_downset(e) | {e}) for e in p.elements}
    assert set(principal.values()) == set(q.elements)
    for e in p.elements:
        assert p.color(e) == q.color(principal[e])
    mapped_covers = {(principal[a], principal[b]) for (a, b) in p.covers}
    assert mapped_covers == set(q.covers)


def test_attach_birkhoff_coords_enables_set_joins():
    g = ColoredDigraph(
        [0, 1, 2, 3],
        [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1)])
    bare = DiamondLattice(g, "distributive")
    lat = attach_birkhoff_coords(bare)
    assert lat is bare      # certified in place: no copy
    assert lat.join(1, 2) == 3
    assert lat.meet(1, 2) == 0
    ideal = lat.ideal_coords
    assert ideal == {0: frozenset(), 1: {1}, 2: {2}, 3: {1, 2}}
    vertex = {x: v for v, x in ideal.items()}
    assert vertex[ideal[1] | ideal[2]] == lat.join(1, 2)
    assert vertex[ideal[1] & ideal[2]] == lat.meet(1, 2)


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda seed=seed: random_lattice(seed), id=f"random{seed}")
      for seed in range(20)),
    pytest.param(lambda: ideals_lattice(z_lattice(3).poset), id="ideals of z3"),
])
def test_ideal_lattices_join_by_union_and_meet_by_intersection(make):
    """On a lattice whose vertices are the order ideals of a poset, the join
    is the union and the meet the intersection, and each vertex's
    coordinates are the principal ideals inside it: the least vertex that
    holds an element is that element's principal ideal."""
    lat = make()
    verts = lat.vertices
    for s in verts:
        for t in verts:
            assert lat.join(s, t) == s | t
            assert lat.meet(s, t) == s & t
    principal = {frozenset.intersection(*(v for v in verts if e in v))
                 for e in lat.maximum}
    for v in verts:
        assert lat.ideal_coords[v] == {x for x in principal if x <= v}


@pytest.mark.parametrize("coords", [True, False], ids=["ideal", "bare"])
def test_bounds_of_a_non_vertex_are_refused(coords):
    lat = z_lattice(3)
    if not coords:
        lat = DiamondLattice(lat.diagram, lat.kind)
    s, x = lat.minimum, (9, 9, 9)
    for bound in (lat.join, lat.meet):
        for pair in [(x, s), (s, x), (x, x)]:
            with pytest.raises(LatticeError, match="not both vertices of the lattice"):
                bound(*pair)


def pairwise_join_irreducibles(lat):
    """The irreducible poset by pairwise queries of the order walked on the
    diagram (`_above`): b is covered by a when no third irreducible lies
    between them."""
    g = lat.diagram
    above = _above(g)
    irr = [v for v in g.vertices if len(g.in_edges(v)) == 1]
    color = {v: g.in_edges(v)[0][1] for v in irr}
    covers = []
    for a in irr:
        below = [b for b in irr if b != a and a in above[b]]
        for b in below:
            if not any(m in above[b] and a in above[m] for m in below if m != b):
                covers.append((b, a))
    return VertexColoredPoset(irr, covers, color)


def pairwise_birkhoff_coords(lat):
    """Each vertex's set of irreducibles below it, walked one by one."""
    above = _above(lat.diagram)
    p = pairwise_join_irreducibles(lat)
    return {v: frozenset(e for e in p.elements if v in above[e])
            for v in lat.vertices}


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda n=n: z_lattice(n), id=f"z{n}") for n in range(2, 11)),
    *(pytest.param(lambda k=k, n=n, f=f: f(k, n), id=f"{f.__name__[:-8]}{k}{n}")
      for f in (kn_lattice, dec_lattice)
      for n in range(1, 6) for k in range(1, n + 1)),
    *(pytest.param(lambda n=n: c_lattice(n), id=f"c{n}") for n in range(1, 7)),
    *(pytest.param(lambda k=k, m=m: a_lattice(k, m), id=f"a{k}{m}")
      for k in range(1, 4) for m in range(1, 6)),
    *(pytest.param(lambda seed=seed: random_lattice(seed), id=f"random{seed}")
      for seed in range(20)),
])
def test_mask_birkhoff_coords_match_the_pairwise_walk(make):
    """Irreducibles, their covers and colors, and every vertex's ideal, read
    off the Birkhoff ints, are those the pairwise walk of the order finds."""
    lat = make()
    bare = DiamondLattice(lat.diagram, lat.kind)
    p = pairwise_join_irreducibles(bare)
    assert join_irreducibles(bare) == p
    got = attach_birkhoff_coords(bare)
    assert got.poset == p
    assert got.ideal_coords == pairwise_birkhoff_coords(bare)


def _m3():
    return ColoredDigraph(
        ["bot", "a", "b", "c", "top"],
        [("bot", "a", 1), ("bot", "b", 2), ("bot", "c", 3),
         ("a", "top", 2), ("b", "top", 3), ("c", "top", 1)])


def _hexagon():
    # two chains of length 3 from bot to top: N5 = {bot, a, b, d, top} is a
    # sublattice, and unlike N5 itself the diagram has a rank function
    return ColoredDigraph(
        ["bot", "a", "b", "c", "d", "top"],
        [("bot", "a", 1), ("a", "b", 2), ("b", "top", 3),
         ("bot", "c", 3), ("c", "d", 2), ("d", "top", 1)])


def _intervals():
    # the intervals of the chain 1 < 2 < 3 under inclusion: every cover
    # adds one join irreducible (a singleton), yet {1} v {3} = {1,2,3}
    # while {2} meets both in the empty interval
    sets = ["", "1", "2", "3", "12", "23", "123"]
    return ColoredDigraph(sets, [(u, v, int(*set(v) - set(u)))
                                 for u in sets for v in sets
                                 if len(v) == len(u) + 1 and set(u) < set(v)])


_NOT_DISTRIBUTIVE = [
    (_m3, "^3 join irreducibles in a lattice of length 2; lattice not distributive$"),
    (_hexagon, "^4 join irreducibles in a lattice of length 3; lattice not distributive$"),
    (_intervals, "^4 meet irreducibles in a lattice of length 3; lattice not distributive$"),
    (lambda: _dual(_intervals()),
     "^4 join irreducibles in a lattice of length 3; lattice not distributive$"),
]


@pytest.mark.parametrize("make, match", _NOT_DISTRIBUTIVE,
                         ids=["m3", "hexagon", "intervals", "dual-intervals"])
def test_birkhoff_coords_refuse_a_lattice_that_is_not_distributive(make, match):
    """A lattice declared distributive that is not (each of these is a
    lattice) gets no coordinates, and `check_lattice` refuses it, though the
    pairwise walk gives each vertex a distinct set."""
    lat = DiamondLattice(make(), "distributive")
    coords = pairwise_birkhoff_coords(lat)
    assert len(set(coords.values())) == len(coords)
    for read in (lambda: attach_birkhoff_coords(lat), lat.check_lattice):
        with pytest.raises(LatticeError, match=match):
            read()


@pytest.mark.parametrize("make, match", _NOT_DISTRIBUTIVE,
                         ids=["m3", "hexagon", "intervals", "dual-intervals"])
def test_irreducible_counts_refuse_a_lattice_that_is_not_distributive(make, match):
    """The O(V) counts alone refuse each of these lattices."""
    with pytest.raises(LatticeError, match=match):
        _count_irreducibles(DiamondLattice(make(), "distributive"))


def _layered(spec):
    """A diagram written as chains of layers, every edge of color 1:
    ``"0a→1a,1b; 1a→2a"`` joins each vertex of a layer to each of the next."""
    edges = set()
    for chain in spec.split(";"):
        layers = [layer.strip().split(",") for layer in chain.split("→")]
        edges |= {(u, v, 1) for a, b in zip(layers, layers[1:]) for u in a for v in b}
    return ColoredDigraph({x for (u, v, _) in edges for x in (u, v)}, edges)


def _subsets_but_one_cover():
    """The subsets of {a, b, c, d, e}, ordered by inclusion, without the
    cover ab -> abc: each edge adds one letter and wears its place in the
    alphabet as its color."""
    subsets = ["".join(c) for size in range(6) for c in combinations("abcde", size)]
    return ColoredDigraph(subsets, [(s, "".join(sorted(s + x)), "abcde".index(x) + 1)
                                    for s in subsets for x in "abcde"
                                    if x not in s and (s, x) != ("ab", "c")])


@pytest.mark.parametrize("make, match", [
    (lambda: _layered("0a→1a,1b,1c; 1a,1b,1c→2a; 2a→3a,3b; 3a,3b→4a,4b; 4a,4b→5a"),
     "^'4a' and '5a' have the same join irreducibles below them; "
     "lattice not distributive$"),
    (lambda: _layered("0a→1a,1b,1c; 1a→2b,2c; 1b→2a,2c; 1c→2a,2b,2c; 2a,2b,2c→3a"),
     "^the cover '1c' -> '2c' does not add exactly one join irreducible; "
     "lattice not distributive$"),
    (lambda: _layered("0a→1a,1b,1c; 1a→2a; 1b,1c→2a,2b; 2a,2b→3a→4a→5a"),
     "^the covers above '1a' do not add exactly the join irreducibles "
     "addable there; lattice not distributive$"),
    # the one diagram here that the first three tests pass: its ints are
    # distinct and each of its 79 edges adds one bit, so only the addable
    # test refuses it
    (_subsets_but_one_cover,
     "^the covers above 'ab' do not add exactly the join irreducibles "
     "addable there; lattice not distributive$"),
], ids=["injective", "edge", "addable", "addable-only"])
def test_certificate_refusals_past_the_counts(make, match):
    """Each diagram has as many join and meet irreducibles as it is long,
    and fails one later test of the Birkhoff certificate."""
    lat = DiamondLattice(make(), "distributive")
    _count_irreducibles(lat)
    for read in (lat.check_lattice, lambda: lat.join(lat.minimum, lat.maximum)):
        with pytest.raises(LatticeError, match=match):
            read()


def _random_ranked(rng):
    """A ranked diagram with unique ends, in layers of width 1-3: each
    vertex gets a random nonempty set of lower covers in the layer below,
    and the layer below keeps each of its vertices covered."""
    widths = [1] + [rng.randint(1, 3) for _ in range(rng.randint(1, 5))] + [1]
    edges = []
    for r in range(1, len(widths)):
        low = [(r - 1, i) for i in range(widths[r - 1])]
        while True:
            new = [((r - 1, i), (r, j), 1) for j in range(widths[r])
                   for i in rng.sample(range(widths[r - 1]), rng.randint(1, widths[r - 1]))]
            if {u for (u, _, _) in new} == set(low):
                break
        edges += new
    return ColoredDigraph([(r, i) for r, w in enumerate(widths) for i in range(w)], edges)


def _walked_lattice(g):
    """Join, meet and the order by definition, walked on the diagram, or
    None unless every pair has a unique least upper and greatest lower
    bound and the distributive law holds on every triple."""
    above = _above(g)
    below = {v: {u for u in g.vertices if v in above[u]} for v in g.vertices}
    bounds = {}
    for name, cone in (("join", above), ("meet", below)):
        for s in g.vertices:
            for t in g.vertices:
                found = [u for u in cone[s] & cone[t] if cone[s] & cone[t] <= cone[u]]
                if len(found) != 1:
                    return None
                bounds[name, s, t] = found[0]
    join = lambda s, t: bounds["join", s, t]
    meet = lambda s, t: bounds["meet", s, t]
    if any(meet(x, join(y, z)) != join(meet(x, y), meet(x, z))
           for x in g.vertices for y in g.vertices for z in g.vertices):
        return None
    return join, meet, above


def test_certificate_accepts_exactly_the_distributive_random_diagrams():
    """On seeded random ranked diagrams, the certificate accepts exactly the
    distributive lattices of the definition-level walk, and there `join`,
    `meet` and `le` are the walked ones."""
    rng = random.Random(2026)
    tally = {True: 0, False: 0}
    for _ in range(4000):
        g = _random_ranked(rng)
        lat = DiamondLattice(g, "distributive")
        try:
            _count_irreducibles(lat)
        except LatticeError:
            continue
        walked = _walked_lattice(g)
        try:
            lat.check_lattice()
        except LatticeError:
            assert walked is None, g.edges
            tally[False] += 1
            continue
        assert walked is not None, g.edges
        tally[True] += 1
        join, meet, above = walked
        for s in g.vertices:
            for t in g.vertices:
                assert lat.join(s, t) == join(s, t) and lat.meet(s, t) == meet(s, t)
                assert lat.le(s, t) == (t in above[s])
    assert min(tally.values()) >= 300, tally


def test_both_birkhoff_builds_count_the_irreducibles(monkeypatch):
    """`tuple_lattice` (at build time) and the Birkhoff ints (on the first
    order query, here through `attach_birkhoff_coords`) share one count
    helper."""
    counted = []
    real = explicit._count_irreducibles
    monkeypatch.setattr(explicit, "_count_irreducibles",
                        lambda lat: counted.append(len(lat)) or real(lat))
    lat = tuple_lattice(_cushioned_lattice(3))
    assert counted == [8]
    attach_birkhoff_coords(DiamondLattice(lat.diagram, lat.kind))
    assert counted == [8, 8]


def test_coordinates_left_to_the_first_read_are_refused_on_every_read():
    """Every lattice builds its Birkhoff ints on the first order query: one
    that is not distributive is refused by each reader, and a refusal is
    not kept as done."""
    lat = DiamondLattice(_hexagon(), "distributive")
    for read in (lambda: lat.ideal_coords, lambda: lat.poset,
                 lambda: shortest_path(lat, "a", "b"),
                 lambda: color_counts(lat, "a", "b"), lat.check_lattice,
                 lambda: lat.le("a", "b"), lambda: lat.join("a", "c"),
                 lambda: lat.meet("b", "d"), lambda: join_irreducibles(lat)) * 2:
        with pytest.raises(LatticeError, match="^4 join irreducibles in a lattice "
                                               "of length 3; lattice not distributive$"):
            read()


def test_dot_export_is_deterministic_and_labeled():
    g = diamond()
    out = to_dot(g, "demo")
    assert out == to_dot(g, "demo")
    assert out.startswith("digraph demo {")
    assert 'label="s"' in out and '[label="1"]' in out


def test_lattice_constructor_wants_unique_extremes():
    vee = ColoredDigraph(["bot", "x", "y"], [("bot", "x", 1), ("bot", "y", 2)])
    with pytest.raises(LatticeError, match="sinks"):
        DiamondLattice(vee, "distributive")


def _pair_key(p):
    return (canonical_key(p[0]), canonical_key(p[1]))


@pytest.mark.parametrize("make", [
    lambda: z_lattice(4), lambda: a_lattice(2, 3), lambda: c_lattice(4),
    lambda: kn_lattice(2, 3), lambda: dec_lattice(2, 3),
    lambda: random_lattice(3), lambda: random_lattice(11),
    lambda: random_lattice(29),
])
def test_edges_covers_and_extremes_come_in_canonical_order(make):
    """The constructors sort once; geodesic tie-breaks read that order."""
    import random

    lat = make()
    edges = lat.diagram.edges
    assert list(edges) == sorted(edges, key=_pair_key)
    p = join_irreducibles(lat)
    assert list(p.covers) == sorted(p.covers, key=_pair_key)
    rng = random.Random(len(p))
    for _ in range(20):
        sub = [e for e in p.elements if rng.random() < 0.5]
        minimal = [e for e in sub if not any(f != e and lat.le(f, e) for f in sub)]
        maximal = [e for e in sub if not any(f != e and lat.le(e, f) for f in sub)]
        assert p.minimal_of(sub) == sorted(minimal, key=canonical_key)
        assert p.maximal_of(sub) == sorted(maximal, key=canonical_key)


# --------------------------------------------------------------------------
# the canonical sort and the climb

def _int_tuples(rng, count):
    """Int tuples of mixed lengths, with negatives and bools, repeats likely."""
    pool = [-3, -1, 0, 1, 2, 7, True, False]
    return [tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            for _ in range(count)]


@pytest.mark.parametrize("seed", range(10))
def test_the_canonical_sort_equals_the_keyed_sort(seed):
    rng = random.Random(seed)
    tuples = _int_tuples(rng, 40)
    sets = [frozenset(rng.sample(tuples, rng.randint(0, 5))) for _ in range(30)]
    mixed = [  # each falls back to the key
        tuples + [(1, "a")],
        tuples + [((1, 2), 3)],
        tuples + [7],
        sets + [frozenset({1, 2})],
        sets + [frozenset({(1, "a")})],
        sets + tuples,
        ["s", "t", 3, (1, 2), frozenset({(0,)}), True, -1],
    ]
    for items in [tuples, sets, [], [()], [frozenset()]] + mixed:
        rng.shuffle(items)
        # the same objects in the same order: ties keep their input order
        assert list(map(id, _canonical_sorted(items))) == \
            list(map(id, sorted(items, key=canonical_key)))


@pytest.mark.parametrize("vertices, edges, match", [
    ([(0,), (1,), (0,)], [], "duplicate vertices"),
    ([(0,), (1,)], [((0,), (2,), 1)], r"edge endpoint not a vertex: \(\(0,\), \(2,\)\)"),
    ([(0,), (1,)], [((1,), (1,), 1)], r"loop at \(1,\)"),
    ([(0,), (1,)], [((0,), (1,), 1), ((0,), (1,), 2)], r"parallel edge \(0,\) -> \(1,\)"),
    ([(0,), (1,)], [((0,), (1,), 0)], "positive integer, got 0"),
    (["s", "t"], [("s", "t", 1.0)], "positive integer, got 1.0"),
    # the first bad edge in the given order is the one named
    (["s", "t"], [("s", "s", 1), ("s", "u", 1)], "loop at 's'"),
    # a bool is an int, but no color
    (["a", "b"], [("a", "b", True)], "positive integer, got True"),
])
def test_digraphs_refuse_bad_edges_by_name(vertices, edges, match):
    with pytest.raises(ValueError, match=match):
        ColoredDigraph(vertices, edges)


def full_climb(rules):
    """The climb that builds every raise and compares it part by part with
    its least member: the oracle for the sparse tests of `tuple_lattice`."""
    least = rules.certify()
    top, zero = rules.top, (0,) * len(rules.top)
    members, edges, seen = [zero], [], {zero}
    for x in members:
        for q, (a, hi) in enumerate(zip(x, top)):
            if a < hi:
                y = x[:q] + (a + 1,) + x[q + 1:]
                if all(map(le, least[q][a], y)):
                    if y not in seen:
                        seen.add(y)
                        members.append(y)
                    edges.append((x, y, rules.color(q + 1, a + 1)))
    return ColoredDigraph(members, edges)


# every family rule at the sizes its explicit lattice is tested at
FAMILY_RULES = {
    **{f"switch{n}": _cushioned_lattice(n) for n in range(2, 11)},
    **{f"box{k},{m}": _box_lattice(k, m) for m in range(1, 5) for k in range(1, m + 1)},
    "box3,9": _box_lattice(3, 9),
    **{f"{kind}{k},{n}": _board_lattice(kind, k, n) for kind in ("staircase", "ballot")
       for n in range(1, 6) for k in range(1, n + 1)},
    **{f"catalan{n}": _catalan_lattice(n) for n in range(1, 8)},
}


@pytest.mark.parametrize("name", FAMILY_RULES)
def test_the_sparse_climb_equals_the_full_climb(name):
    rules = FAMILY_RULES[name]
    assert tuple_lattice(rules).diagram == full_climb(rules)
