"""Colored digraphs, rank functions, and the order-ideal correspondence."""

import random

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
    dec_lattice,
    ideals_lattice,
    is_diamond_colored,
    is_topographically_balanced,
    join_irreducibles,
    kn_lattice,
    rank_function,
    to_dot,
    z_lattice,
)
from colorlattice.core import canonical_key
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
        with pytest.raises(NotRankedError):
            rank_function(g)


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


def test_non_lattice_diagram_is_refused_by_check():
    # two middle layers joined completely: x v y has no least upper bound
    g = ColoredDigraph(
        ["bot", "x", "y", "c", "d", "top"],
        [("bot", "x", 1), ("bot", "y", 2), ("x", "c", 2), ("x", "d", 3),
         ("y", "c", 1), ("y", "d", 4), ("c", "top", 5), ("d", "top", 6)])
    lat = DiamondLattice(g, "modular")
    with pytest.raises(LatticeError):
        lat.check_lattice()


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
    assert lat.join(1, 2) == 3
    assert lat.meet(1, 2) == 0
    assert lat.ideal_coords[3] == lat.ideal_coords[1] | lat.ideal_coords[2]
    # a copy: the argument keeps no coordinates, and the order is shared
    assert bare.ideal_coords is None and bare.poset is None
    assert lat.diagram == bare.diagram and lat.rank == bare.rank
    assert all(lat.le(s, t) == bare.le(s, t) for s in g.vertices
               for t in g.vertices)


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
