from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mpisos.graphs import (
    ChordalGraph,
    MonomialGraph,
    approx_smallest_chordal_extension,
    gram_keys,
    maximal_chordal_extension,
    maximal_cliques,
)
from mpisos.poly import GrlexRadix

from mpisos.sparsity import build_chain
from mpisos.systems import lorenz, random_network_model

from oracles import edge_rows, edge_set, is_chordal, later_neighbours_are_cliques, maximal_cliques_pairwise


def line_nodes(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(n))


def graph(n: int, edges: set[tuple[int, int]]) -> MonomialGraph:
    return MonomialGraph.build(line_nodes(n), edges)


# -- construction invariants ---------------------------------------------------

def test_build_normalizes_edges():
    g = MonomialGraph.build(((1,), (0,)), {(1, 0), (0, 0)})
    assert g.nodes == ((0,), (1,))
    assert edge_set(g) == {(0, 1)}


def test_unsorted_nodes_rejected():
    with pytest.raises(ValueError):
        MonomialGraph(((1,), (0,)), edge_rows(()))


def test_bad_edge_rejected():
    with pytest.raises(ValueError):
        MonomialGraph(line_nodes(2), edge_rows({(0, 5)}))


def test_connected_components():
    g = graph(5, {(0, 1), (1, 2), (3, 4)})
    assert g.component_labels().tolist() == [0, 0, 0, 3, 3]


def test_edges_read_only_sorted_and_unique():
    g = graph(4, {(2, 3), (1, 2), (0, 1), (2, 1)})
    assert not g.edges.flags.writeable
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert graph(3, set()).edges.shape == (0, 2)
    # the constructor copies: the caller's array stays writeable
    rows = edge_rows({(0, 1)})
    assert MonomialGraph(line_nodes(2), rows).edges is not rows and rows.flags.writeable
    for ext in (maximal_chordal_extension(g), approx_smallest_chordal_extension(g)):
        assert not ext.edges.flags.writeable
        assert ext.edges.dtype == np.int64
        keys = ext.edges @ [4, 1]
        assert (ext.edges[:, 0] < ext.edges[:, 1]).all() and (np.diff(keys) > 0).all()


def test_graphs_compare_by_value():
    g = graph(3, {(0, 1)})
    assert g == graph(3, {(1, 0), (0, 1)})
    assert g != graph(3, {(0, 2)})
    assert g != graph(4, {(0, 1)})
    full = maximal_chordal_extension(g)
    assert full == ChordalGraph(g.nodes, edge_rows({(0, 1)}), (0, 1, 2))
    assert full != ChordalGraph(g.nodes, edge_rows({(0, 1)}), (1, 0, 2))
    assert full != MonomialGraph(g.nodes, full.edges)


def test_peo_validation_rejects_cycle_order():
    with pytest.raises(ValueError, match="perfect elimination"):
        ChordalGraph(line_nodes(4), edge_rows({(0, 1), (1, 2), (2, 3), (0, 3)}), (0, 1, 2, 3))


# -- build against a set oracle ------------------------------------------------

pair_lists = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30),
        st.permutations(range(n)),
    )
)


@given(pair_lists)
def test_build_matches_set_oracle(case):
    # duplicates, reversed pairs and self loops, on nodes given shuffled;
    # the pairs index the given order
    n, pairs, shuffle = case
    given_nodes = [(k,) for k in shuffle]
    g = MonomialGraph.build(given_nodes, pairs)
    assert g.nodes == line_nodes(n)
    expected = {(min(given_nodes[a][0], given_nodes[b][0]), max(given_nodes[a][0], given_nodes[b][0]))
                for a, b in pairs if a != b}
    assert edge_set(g) == expected
    assert g.edges.tolist() == [list(e) for e in sorted(expected)]


@given(pair_lists.filter(lambda case: len({tuple(sorted(e)) for e in case[1] if e[0] != e[1]}) >= 2))
def test_constructor_rejects_malformed_arrays(case):
    n, pairs, _ = case
    good = edge_rows({tuple(sorted(e)) for e in pairs if e[0] != e[1]})
    MonomialGraph(line_nodes(n), good)
    i, j = good[0]
    malformed = {
        "unsorted": good[::-1],
        "repeat": np.concatenate([good[:1], good]),
        "self loop": np.concatenate([[[i, i]], good[1:]]),
        "reversed": np.concatenate([[[j, i]], good[1:]]),
        "negative": np.concatenate([[[-1, j]], good[1:]]),
        "past the nodes": np.concatenate([good[:-1], [[good[-1, 0], n]]]),
        "shape": good.reshape(-1),
        "float": good.astype(float),
    }
    for kind, edges in malformed.items():
        with pytest.raises(ValueError):
            MonomialGraph(line_nodes(n), edges)
        with pytest.raises(ValueError):
            ChordalGraph(line_nodes(n), edges, tuple(range(n)))


# -- extensions ------------------------------------------------------------------

def test_four_cycle_fill():
    g = graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    small = approx_smallest_chordal_extension(g)
    assert len(small.edges) == 5  # exactly one chord added
    assert edge_set(g) <= edge_set(small)
    full = maximal_chordal_extension(g)
    assert len(full.edges) == 6


def test_tree_unchanged_by_small_extension():
    g = graph(4, {(0, 1), (1, 2), (2, 3)})
    small = approx_smallest_chordal_extension(g)
    assert small == ChordalGraph(g.nodes, g.edges, small.elimination_order)


def test_chordal_graph_with_nonsimplicial_min_degree_vertex_unchanged():
    # two 4-cliques bridged through vertex 8; 8 has minimum degree but is not
    # simplicial, so a pure min-degree sweep would add fill here
    k1 = {(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4)}
    k2 = {(1, 5), (1, 6), (1, 7), (5, 6), (5, 7), (6, 7)}
    bridge = {(0, 8), (1, 8)}
    g = graph(9, k1 | k2 | bridge)
    small = approx_smallest_chordal_extension(g)
    assert np.array_equal(small.edges, g.edges)


def test_maximal_extension_completes_components():
    g = graph(5, {(0, 1), (1, 2), (3, 4)})
    full = maximal_chordal_extension(g)
    assert edge_set(full) == {(0, 1), (0, 2), (1, 2), (3, 4)}
    assert maximal_cliques(full) == ((0, 1, 2), (3, 4))


def test_isolated_nodes_become_their_own_cliques():
    g = graph(3, set())
    assert maximal_cliques(maximal_chordal_extension(g)) == ((0,), (1,), (2,))


# -- maximal cliques ---------------------------------------------------------------

def test_cliques_are_cliques_and_maximal():
    g = graph(6, {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)})
    ext = approx_smallest_chordal_extension(g)
    cliques = maximal_cliques(ext)
    edges = edge_set(ext)
    for c in cliques:
        for a in range(len(c)):
            for b in range(a + 1, len(c)):
                assert (c[a], c[b]) in edges
    for c in cliques:
        for other in cliques:
            if c is not other:
                assert not set(c) <= set(other)
    assert set().union(*(set(c) for c in cliques)) == set(range(6))


# -- random graphs vs the chordality oracle ------------------------------------------

edge_strategy = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=12,
        ),
    )
)


@given(edge_strategy)
def test_extensions_are_chordal_supersets(case):
    n, raw = case
    g = graph(n, {tuple(sorted(e)) for e in raw})
    small = approx_smallest_chordal_extension(g)
    full = maximal_chordal_extension(g)
    assert edge_set(g) <= edge_set(small) <= edge_set(full)
    assert is_chordal(n, edge_set(small))
    assert is_chordal(n, edge_set(full))


@given(edge_strategy)
def test_already_chordal_inputs_unchanged(case):
    n, raw = case
    edges = {tuple(sorted(e)) for e in raw}
    if not is_chordal(n, edges):
        return
    g = graph(n, edges)
    assert np.array_equal(approx_smallest_chordal_extension(g).edges, g.edges)


@given(edge_strategy)
def test_clique_cover_covers_every_edge(case):
    n, raw = case
    g = graph(n, {tuple(sorted(e)) for e in raw})
    ext = approx_smallest_chordal_extension(g)
    cliques = maximal_cliques(ext)
    for i, j in edge_set(ext):
        assert any(i in c and j in c for c in cliques)


# -- maximal cliques vs the pairwise reference ------------------------------------

@pytest.mark.parametrize("extension", ["maximal", "min-degree"])
def test_cliques_match_pairwise_reference_on_chains(extension):
    # every extended graph of the v- and w-chains of three networks and of
    # lorenz, against the pairwise comparison of candidates
    systems = [random_network_model(n, 0).system for n in (8, 10, 12)] + [lorenz().system]
    for system in systems:
        chain = build_chain(system, d=2, s=2, l=2, extension=extension)
        for ext in (g for step in chain.v.extended + chain.w.extended for g in step):
            assert maximal_cliques(ext) == maximal_cliques_pairwise(ext)


@given(edge_strategy)
def test_cliques_match_pairwise_reference(case):
    n, raw = case
    g = graph(n, {tuple(sorted(e)) for e in raw})
    for ext in (approx_smallest_chordal_extension(g), maximal_chordal_extension(g)):
        assert maximal_cliques(ext) == maximal_cliques_pairwise(ext)


# -- elimination orders vs the pairwise reference ---------------------------------

order_strategy = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=40,
        ),
        st.permutations(range(n)),
    )
)


def accepts(n: int, edges, order) -> bool:
    try:
        ChordalGraph(line_nodes(n), edge_rows(edges), tuple(order))
    except ValueError as err:
        assert "perfect elimination" in str(err)
        return False
    return True


@settings(max_examples=300)
@given(order_strategy, st.integers(0, 11))
# node 0's later neighbours 1 and 2 are adjacent to 3, the last one, not to
# each other: only the earliest later neighbour may stand in for the rest
@example((4, {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}, [0, 1, 2, 3]), 0)
def test_elimination_order_check_matches_pairwise_reference(case, swap):
    n, raw, order = case
    edges = {tuple(sorted(e)) for e in raw}
    # a random order, and a perfect one of the min-degree extension with two
    # neighbouring entries swapped, which the check may or may not accept
    ext = approx_smallest_chordal_extension(graph(n, edges))
    near = list(ext.elimination_order)
    k = swap % n
    near[k], near[(k + 1) % n] = near[(k + 1) % n], near[k]
    for e, o in ((edges, order), (edge_set(ext), near)):
        assert accepts(n, e, o) == later_neighbours_are_cliques(n, e, o)


@given(order_strategy)
def test_extension_orders_pass_the_pairwise_reference(case):
    n, raw, _ = case
    g = graph(n, {tuple(sorted(e)) for e in raw})
    for ext in (maximal_chordal_extension(g), approx_smallest_chordal_extension(g)):
        assert later_neighbours_are_cliques(n, edge_set(ext), ext.elimination_order)


def test_elimination_order_must_be_a_permutation():
    with pytest.raises(ValueError, match="permutation"):
        ChordalGraph(line_nodes(3), edge_rows({(0, 1)}), (0, 0, 1))


# -- gram support -----------------------------------------------------------------

def gram_support(g: MonomialGraph) -> set[tuple[int, ...]]:
    """The Gram support of a graph on exponents of degree <= 1, through the
    radix keys the support chain reads."""
    radix = GrlexRadix(2, 2)
    return set(radix.decode(np.unique(gram_keys(g, radix.keys(g.nodes)))))


def test_supp_of_graph_golden():
    g = MonomialGraph.build(((1, 0), (0, 1)), {(0, 1)})
    assert gram_support(g) == {(2, 0), (0, 2), (1, 1)}


def test_supp_of_graph_includes_all_squares():
    g = MonomialGraph.build(((0, 0), (1, 0), (0, 1)), set())
    assert gram_support(g) == {(0, 0), (2, 0), (0, 2)}
