"""Graphs on monomial vertex sets, chordal extensions, and maximal cliques.

Vertices are exponent tuples held in graded-lex order; edges are stored as
index pairs (i, j) with i < j into that order, so two graphs over the same
support compare cheaply and dumps are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .poly import Exponent, SupportSet, exponent_keys, grlex_key, radix_weights


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

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        """The edges as an (edge_count, 2) int64 array, in set order."""
        flat = chain.from_iterable(self.edges)
        return np.fromiter(flat, np.int64, 2 * len(self.edges)).reshape(-1, 2)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.nodes]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def connected_components(self) -> list[list[int]]:
        """Components as sorted index lists, ordered by smallest member."""
        adj = self.adjacency()
        seen = [False] * len(self.nodes)
        comps: list[list[int]] = []
        for start in range(len(self.nodes)):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps


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
        edges = self.edge_array()
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
    elimination order; the identity order is attached.
    """
    edges = set(graph.edges)
    for comp in graph.connected_components():
        edges.update(combinations(comp, 2))
    return ChordalGraph(graph.nodes, frozenset(edges), tuple(range(len(graph.nodes))))


def approx_smallest_chordal_extension(graph: MonomialGraph) -> ChordalGraph:
    """Greedy fill-in extension aiming for few added edges.

    Repeatedly eliminates a simplicial vertex when one exists (adding no fill);
    otherwise eliminates a minimum-degree vertex and completes its remaining
    neighbourhood.  Ties break on node index so the result is deterministic.
    Already-chordal graphs come back unchanged.
    """
    n = len(graph.nodes)
    adj = graph.adjacency()
    alive = set(range(n))
    fill: set[tuple[int, int]] = set()
    order: list[int] = []

    while alive:
        chosen = -1
        for v in sorted(alive):  # simplicial first: elimination is fill-free
            nb = adj[v]
            if all((min(a, b), max(a, b)) in graph.edges or (min(a, b), max(a, b)) in fill
                   for a in nb for b in nb if a < b):
                chosen = v
                break
        if chosen < 0:
            chosen = min(alive, key=lambda v: (len(adj[v]), v))
        order.append(chosen)
        for e in combinations(sorted(adj[chosen]), 2):
            if e not in graph.edges and e not in fill:
                fill.add(e)
                adj[e[0]].add(e[1])
                adj[e[1]].add(e[0])
        for u in adj[chosen]:
            adj[u].discard(chosen)
        adj[chosen] = set()
        alive.discard(chosen)

    return ChordalGraph(graph.nodes, frozenset(graph.edges | fill), tuple(order))


def maximal_cliques(graph: ChordalGraph) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of a chordal graph via its elimination order.

    For each node v the candidate clique C_v is v plus its later neighbours.
    C_v fails to be maximal exactly when some node u has v as its earliest
    later neighbour and one more later neighbour than v, so that C_v < C_u
    (Blair and Peyton 1993); the other candidates are kept.  Cliques come
    back as sorted index tuples, ordered by their smallest member then
    lexicographically.
    """
    position = {v: k for k, v in enumerate(graph.elimination_order)}
    later = [{u for u in nb if position[u] > position[v]} for v, nb in enumerate(graph.adjacency())]
    kept = set(range(len(graph.nodes)))
    for later_u in later:
        if later_u:
            v = min(later_u, key=position.__getitem__)
            if len(later_u) == len(later[v]) + 1:
                kept.discard(v)
    cliques = sorted((tuple(sorted(later[v] | {v})) for v in kept), key=lambda c: (c[0], c))
    covered = set().union(*map(set, cliques)) if cliques else set()
    if covered != set(range(len(graph.nodes))):
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


def supp_of_graph(graph: MonomialGraph) -> SupportSet:
    """Exponent support of a Gram matrix patterned on the graph.

    Diagonal entries contribute 2*alpha for every node alpha, off-diagonal
    entries contribute alpha + gamma for every edge {alpha, gamma}.  Each
    distinct sum, told apart by radix key, is built once.
    """
    if not graph.nodes:
        return SupportSet(0, frozenset())
    nodes = np.array(graph.nodes, dtype=np.int64)
    dim = nodes.shape[1]
    keys = exponent_keys(nodes, radix_weights(dim, 2 * nodes.sum(axis=1).max()))
    diagonal = np.arange(len(nodes)).repeat(2).reshape(-1, 2)
    ends = np.concatenate([diagonal, graph.edge_array()])
    first = np.unique(keys[ends[:, 0]] + keys[ends[:, 1]], return_index=True)[1]
    sums = nodes[ends[first, 0]] + nodes[ends[first, 1]]
    return SupportSet._valid(dim, frozenset(map(tuple, sums.tolist())))
