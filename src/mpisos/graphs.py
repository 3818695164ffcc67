"""Graphs on monomial vertex sets, chordal extensions, and maximal cliques.

Vertices are exponent tuples held in graded-lex order; edges are stored as
index pairs (i, j) with i < j into that order, so two graphs over the same
support compare cheaply and dumps are deterministic.

The maximal extension is built from component labels (each node named by the
smallest node of its component) as the pairs that share a label; maximal
cliques and Gram supports work on the edge array.  Graphs the extensions and
the support chain build skip the construction checks; the node order, edge
and elimination-order checks still run on every graph a caller builds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .poly import Exponent, GrlexRadix, SupportSet, grlex_key


@dataclass(frozen=True)
class MonomialGraph:
    """Undirected graph whose vertices are exponents (no self loops)."""

    nodes: tuple[Exponent, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if any(grlex_key(a) >= grlex_key(b) for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly graded-lex sorted")
        n = len(self.nodes)
        for i, j in self.edges:
            if not (0 <= i < j < n):
                raise ValueError(f"bad edge ({i}, {j}) for {n} nodes")

    @staticmethod
    def build(nodes: SupportSet | tuple[Exponent, ...], edges: set[tuple[int, int]]) -> MonomialGraph:
        """Build from nodes in any order; edge indices refer to the given order."""
        given = tuple(nodes)
        node_tuple = tuple(sorted(given, key=grlex_key))
        position = {alpha: k for k, alpha in enumerate(node_tuple)}
        remap = {old: position[alpha] for old, alpha in enumerate(given)}
        norm = frozenset(
            (min(remap[i], remap[j]), max(remap[i], remap[j])) for i, j in edges if i != j
        )
        return MonomialGraph(node_tuple, norm)

    @classmethod
    def _valid(cls, *fields):
        """Wrap fields already known to be valid (built by this package's own
        algorithms) without the checks of construction."""
        graph = object.__new__(cls)
        for f, value in zip(dataclasses.fields(cls), fields):
            object.__setattr__(graph, f.name, value)
        return graph

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (edge_count, 2) int64 array, in set
        order, built once per graph."""
        flat = chain.from_iterable(self.edges)
        array = np.fromiter(flat, np.int64, 2 * len(self.edges)).reshape(-1, 2)
        array.flags.writeable = False
        return array

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.nodes]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def component_labels(self) -> np.ndarray:
        """Each node's connected component, named by its smallest member:
        labels fall to the smaller label across each edge and then to their
        own label's label, until nothing moves."""
        label = np.arange(len(self.nodes))
        i, j = self.edge_array.T
        while True:
            low = np.minimum(label[i], label[j])
            fallen = label.copy()
            np.minimum.at(fallen, i, low)
            np.minimum.at(fallen, j, low)
            fallen = fallen[fallen]
            if np.array_equal(fallen, label):
                return label
            label = fallen

    def connected_components(self) -> list[list[int]]:
        """Components as sorted index lists, ordered by smallest member."""
        comps: dict[int, list[int]] = {}
        for v, smallest in enumerate(self.component_labels().tolist()):
            comps.setdefault(smallest, []).append(v)
        return list(comps.values())


@dataclass(frozen=True)
class ChordalGraph(MonomialGraph):
    """A MonomialGraph with a perfect elimination order certifying chordality.

    elimination_order lists node indices; for each node, its neighbours that
    appear later in the order must form a clique.  The check is linear (Rose,
    Tarjan and Lueker): each later neighbour of v but the earliest, p, must be
    adjacent to p, which by induction from the end makes each a clique.
    """

    elimination_order: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        n = len(self.nodes)
        if sorted(self.elimination_order) != list(range(n)):
            raise ValueError("elimination order must be a permutation of the node indices")
        position = np.empty(n, dtype=np.int64)
        position[list(self.elimination_order)] = np.arange(n)
        edges = self.edge_array
        # (earlier, later) ends sorted by earlier end, then position: each run opens on its p
        forward = position[edges[:, 0]] < position[edges[:, 1]]
        pairs = np.where(forward[:, None], edges, edges[:, ::-1])
        v, w = pairs[np.lexsort((position[pairs[:, 1]], pairs[:, 0]))].T
        opens = np.diff(v, prepend=-1) != 0
        parent = w[opens][np.cumsum(opens) - 1]
        need = np.minimum(parent, w) * n + np.maximum(parent, w)
        bad = np.flatnonzero(~opens & ~np.isin(need, edges @ [n, 1]))
        if len(bad):
            k = bad[0]
            raise ValueError(
                f"order is not a perfect elimination order: "
                f"{parent[k]} and {w[k]} follow {v[k]} but are not adjacent"
            )


def maximal_chordal_extension(graph: MonomialGraph) -> ChordalGraph:
    """Complete every connected component into a clique.

    The result is trivially chordal and any node order is a perfect
    elimination order; the identity order is attached.  The edges are the
    pairs of nodes that share a component label.
    """
    label = graph.component_labels()
    i, j = np.triu_indices(len(label), 1)
    same = label[i] == label[j]
    edges = frozenset(zip(i[same].tolist(), j[same].tolist()))
    return ChordalGraph._valid(graph.nodes, edges, tuple(range(len(graph.nodes))))


def approx_smallest_chordal_extension(graph: MonomialGraph) -> ChordalGraph:
    """Greedy fill-in extension aiming for few added edges.

    Repeatedly eliminates a simplicial vertex when one exists (adding no fill);
    otherwise eliminates a minimum-degree vertex and completes its remaining
    neighbourhood.  Ties break on node index so the result is deterministic.
    Already-chordal graphs come back unchanged.

    The simplicial vertices are kept as a set.  An elimination can change
    only its vertex's neighbours (they lose it, and fill may join them) and
    the common neighbours of each fill edge's ends (two of their neighbours
    become adjacent), so only those are checked again.
    """
    n = len(graph.nodes)
    adj = graph.adjacency()

    def simplicial(v: int) -> bool:  # each neighbour sees all the others
        return all(len(adj[v] - adj[a]) == 1 for a in adj[v])

    simplicial_set = {v for v in range(n) if simplicial(v)}
    alive = set(range(n))
    fill: set[tuple[int, int]] = set()
    order: list[int] = []

    while alive:
        if simplicial_set:  # simplicial first: elimination is fill-free
            chosen = min(simplicial_set)
        else:
            chosen = min(alive, key=lambda v: (len(adj[v]), v))
        order.append(chosen)
        changed = set(adj[chosen])
        for a, b in combinations(sorted(adj[chosen]), 2):
            if b not in adj[a]:
                fill.add((a, b))
                adj[a].add(b)
                adj[b].add(a)
                changed |= adj[a] & adj[b]
        for u in adj[chosen]:
            adj[u].discard(chosen)
        adj[chosen] = set()
        alive.discard(chosen)
        simplicial_set.discard(chosen)
        changed.discard(chosen)
        for v in changed:
            if simplicial(v):
                simplicial_set.add(v)
            else:
                simplicial_set.discard(v)

    return ChordalGraph._valid(graph.nodes, frozenset(graph.edges | fill), tuple(order))


def maximal_cliques(graph: ChordalGraph) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of a chordal graph via its elimination order.

    For each node v the candidate clique C_v is v plus its later neighbours.
    C_v fails to be maximal exactly when some node u has v as its earliest
    later neighbour and one more later neighbour than v, so that C_v < C_u
    (Blair and Peyton 1993); the other candidates are kept.  Cliques come
    back as sorted index tuples, ordered by their smallest member then
    lexicographically.  The later neighbours are runs of the edges oriented
    forward in the order and sorted by their earlier end.
    """
    n = len(graph.nodes)
    position = np.empty(n, dtype=np.int64)
    position[list(graph.elimination_order)] = np.arange(n)
    edges = graph.edge_array
    forward = position[edges[:, 0]] < position[edges[:, 1]]
    pairs = np.where(forward[:, None], edges, edges[:, ::-1])
    v, w = pairs[np.lexsort((position[pairs[:, 1]], pairs[:, 0]))].T
    count = np.bincount(v, minlength=n)
    start = np.cumsum(count) - count
    has_later = np.flatnonzero(count)
    earliest = w[start[has_later]]
    kept = np.ones(n, dtype=bool)
    kept[earliest[count[has_later] == count[earliest] + 1]] = False
    cliques = sorted(
        tuple(sorted([u, *w[start[u] : start[u] + count[u]].tolist()])) for u in np.flatnonzero(kept).tolist()
    )
    covered = np.zeros(n, dtype=bool)
    for c in cliques:
        covered[list(c)] = True
    if not covered.all():
        raise ValueError("clique cover does not cover all nodes; malformed elimination order")
    return tuple(cliques)


@dataclass(frozen=True)
class CliqueSet:
    """Maximal cliques of a chordal extension, index- and exponent-valued."""

    nodes: tuple[Exponent, ...]
    cliques: tuple[tuple[int, ...], ...]

    def exponent_cliques(self) -> tuple[tuple[Exponent, ...], ...]:
        return tuple(tuple(self.nodes[i] for i in c) for c in self.cliques)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cliques)


def clique_set(graph: ChordalGraph) -> CliqueSet:
    return CliqueSet(graph.nodes, maximal_cliques(graph))


def gram_keys(graph: MonomialGraph, keys: np.ndarray) -> np.ndarray:
    """Radix keys, repeats included, of the Gram support of a graph whose
    nodes have the given keys: 2 alpha per node, alpha + gamma per edge."""
    i, j = graph.edge_array.T
    return np.concatenate([2 * keys, keys[i] + keys[j]])


def supp_of_graph(graph: MonomialGraph) -> SupportSet:
    """Exponent support of a Gram matrix patterned on the graph.

    Diagonal entries contribute 2*alpha for every node alpha, off-diagonal
    entries contribute alpha + gamma for every edge {alpha, gamma}.  Each
    distinct sum, told apart by radix key, is decoded once.
    """
    if not graph.nodes:
        return SupportSet(0, frozenset())
    radix = GrlexRadix(len(graph.nodes[0]), 2 * sum(graph.nodes[-1]))
    keys = np.unique(gram_keys(graph, radix.keys(graph.nodes)))
    return SupportSet._valid(radix.dim, frozenset(radix.decode(keys)))
