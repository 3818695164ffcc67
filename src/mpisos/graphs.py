"""Graphs on monomial vertex sets, chordal extensions, and maximal cliques.

Vertices are exponent tuples held in graded-lex order.  A graph's edges have
one format: a read-only (E, 2) int64 array of index pairs (i, j) into that
order, with i < j, rows sorted and unique.  So two graphs over the same
support compare cheaply, dumps are deterministic, and every algorithm here
reads the array as it is.

The maximal extension is built from component labels (each node named by the
smallest node of its component) as the pairs that share a label.  Graphs the
extensions and the support chain build skip the construction checks; the
node order, edge and elimination-order checks still run on every graph a
caller builds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .poly import Exponent, SupportSet, grlex_key


def _edges_of_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The edge array of sorted, unique pair keys i * n + j."""
    return np.stack(np.divmod(keys, n), axis=1)


@dataclass(frozen=True, eq=False)
class MonomialGraph:
    """Undirected graph whose vertices are exponents (no self loops)."""

    nodes: tuple[Exponent, ...]
    edges: np.ndarray

    def __post_init__(self) -> None:
        if any(grlex_key(a) >= grlex_key(b) for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly graded-lex sorted")
        n = len(self.nodes)
        edges = np.asarray(self.edges)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
            raise ValueError(f"edges must be an (E, 2) integer array, got shape {edges.shape} of {edges.dtype}")
        edges = edges.astype(np.int64)  # a copy, so the caller's array stays writeable
        i, j = edges.T
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= n))
        if len(bad):
            raise ValueError(f"bad edge {tuple(edges[bad[0]].tolist())} for {n} nodes")
        if (np.diff(i * n + j) <= 0).any():
            raise ValueError("edges must be sorted by row and unique")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other: object) -> bool:
        """Same class and fields, the edge arrays compared by value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.edges, other.edges) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in dataclasses.fields(self) if f.name != "edges"
        )

    @staticmethod
    def build(nodes: SupportSet | tuple[Exponent, ...], edges) -> MonomialGraph:
        """Build from nodes in any order and any iterable of index pairs into
        that order: pairs are oriented, and self loops and repeats dropped."""
        given = tuple(nodes)
        n = len(given)
        order = sorted(range(n), key=lambda k: grlex_key(given[k]))
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        if pairs.size and not (0 <= pairs.min() and pairs.max() < n):
            raise ValueError(f"edge index out of range for {n} nodes")
        i, j = np.sort(position[pairs], axis=1).T
        keys = np.unique(i[i != j] * n + j[i != j])
        return MonomialGraph(tuple(given[k] for k in order), _edges_of_keys(keys, n))

    @classmethod
    def _valid(cls, nodes, edges, *rest):
        """Wrap fields already known to be valid (built by this package's own
        algorithms, the edges a fresh canonical array, frozen here) without
        the checks of construction."""
        edges.flags.writeable = False
        graph = object.__new__(cls)
        for f, value in zip(dataclasses.fields(cls), (nodes, edges, *rest)):
            object.__setattr__(graph, f.name, value)
        return graph

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.nodes]
        for i, j in self.edges.tolist():
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def component_labels(self) -> np.ndarray:
        """Each node's connected component, named by its smallest member:
        labels fall to the smaller label across each edge and then to their
        own label's label, until nothing moves."""
        label = np.arange(len(self.nodes))
        i, j = self.edges.T
        while True:
            low = np.minimum(label[i], label[j])
            fallen = label.copy()
            np.minimum.at(fallen, i, low)
            np.minimum.at(fallen, j, low)
            fallen = fallen[fallen]
            if np.array_equal(fallen, label):
                return label
            label = fallen


def _later_neighbours(graph: ChordalGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each edge as (v, w) with v before w in the elimination order, sorted
    by v and then by w's position: the later neighbours of each node form
    one run, which opens on the earliest of them."""
    n = len(graph.nodes)
    position = np.empty(n, dtype=np.int64)
    position[list(graph.elimination_order)] = np.arange(n)
    edges = graph.edges
    forward = position[edges[:, 0]] < position[edges[:, 1]]
    pairs = np.where(forward[:, None], edges, edges[:, ::-1])
    v, w = pairs[np.lexsort((position[pairs[:, 1]], pairs[:, 0]))].T
    return v, w


@dataclass(frozen=True, eq=False)
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
        v, w = _later_neighbours(self)
        opens = np.diff(v, prepend=-1) != 0
        parent = w[opens][np.cumsum(opens) - 1]
        need = np.minimum(parent, w) * n + np.maximum(parent, w)
        bad = np.flatnonzero(~opens & ~np.isin(need, self.edges @ [n, 1]))
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
    pairs of nodes that share a component label, in row-major order.
    """
    label = graph.component_labels()
    i, j = np.triu_indices(len(label), 1)
    same = label[i] == label[j]
    edges = np.stack([i[same], j[same]], axis=1).astype(np.int64, copy=False)
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
    fill: list[int] = []  # keys a * n + b of the added edges
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
                fill.append(a * n + b)
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

    keys = np.sort(np.concatenate([graph.edges @ [n, 1], np.array(fill, dtype=np.int64)]))
    return ChordalGraph._valid(graph.nodes, _edges_of_keys(keys, n), tuple(order))


def maximal_cliques(graph: ChordalGraph) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of a chordal graph via its elimination order.

    For each node v the candidate clique C_v is v plus its later neighbours.
    C_v fails to be maximal exactly when some node u has v as its earliest
    later neighbour and one more later neighbour than v, so that C_v < C_u
    (Blair and Peyton 1993); the other candidates are kept.  Cliques come
    back as sorted index tuples, ordered by their smallest member then
    lexicographically.
    """
    n = len(graph.nodes)
    v, w = _later_neighbours(graph)
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


def gram_keys(graph: MonomialGraph, keys: np.ndarray) -> np.ndarray:
    """Radix keys, repeats included, of the Gram support of a graph whose
    nodes have the given keys: 2 alpha per node, alpha + gamma per edge."""
    i, j = graph.edges.T
    return np.concatenate([2 * keys, keys[i] + keys[j]])

