"""Graphs on monomial vertex sets, chordal extensions, and maximal cliques.

Vertices are exponent tuples held in graded-lex order; edges are stored as
index pairs (i, j) with i < j into that order, so two graphs over the same
support compare cheaply and dumps are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Exponent, SupportSet, exp_add, grlex_key


def _sorted_nodes(nodes: tuple[Exponent, ...]) -> bool:
    return all(grlex_key(nodes[i]) < grlex_key(nodes[i + 1]) for i in range(len(nodes) - 1))


@dataclass(frozen=True)
class MonomialGraph:
    """Undirected graph whose vertices are exponents (no self loops)."""

    nodes: tuple[Exponent, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not _sorted_nodes(self.nodes):
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
        remap = {old: node_tuple.index(alpha) for old, alpha in enumerate(given)}
        norm = frozenset(
            (min(remap[i], remap[j]), max(remap[i], remap[j])) for i, j in edges if i != j
        )
        return MonomialGraph(node_tuple, norm)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
    appear later in the order must form a clique.
    """

    elimination_order: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        n = len(self.nodes)
        if sorted(self.elimination_order) != list(range(n)):
            raise ValueError("elimination order must be a permutation of the node indices")
        position = {v: k for k, v in enumerate(self.elimination_order)}
        adj = self.adjacency()
        for v in self.elimination_order:
            later = [u for u in adj[v] if position[u] > position[v]]
            for a in range(len(later)):
                for b in range(a + 1, len(later)):
                    i, j = min(later[a], later[b]), max(later[a], later[b])
                    if (i, j) not in self.edges:
                        raise ValueError(
                            f"order is not a perfect elimination order: "
                            f"{later[a]} and {later[b]} follow {v} but are not adjacent"
                        )


def maximal_chordal_extension(graph: MonomialGraph) -> ChordalGraph:
    """Complete every connected component into a clique.

    The result is trivially chordal and any node order is a perfect
    elimination order; the identity order is attached.
    """
    edges = set(graph.edges)
    for comp in graph.connected_components():
        for a in range(len(comp)):
            for b in range(a + 1, len(comp)):
                edges.add((comp[a], comp[b]))
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
        nb = sorted(adj[chosen])
        for a in range(len(nb)):
            for b in range(a + 1, len(nb)):
                e = (nb[a], nb[b])
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

    For each node the candidate clique is the node plus its later neighbours;
    inclusion-maximal candidates are kept.  Cliques come back as sorted index
    tuples, ordered by their smallest member then lexicographically.
    """
    position = {v: k for k, v in enumerate(graph.elimination_order)}
    adj = graph.adjacency()
    candidates: list[frozenset[int]] = []
    for v in graph.elimination_order:
        later = {u for u in adj[v] if position[u] > position[v]}
        candidates.append(frozenset({v} | later))
    kept: list[frozenset[int]] = []
    for cand in candidates:
        if any(cand < other for other in candidates if other is not cand):
            continue
        if cand not in kept:
            kept.append(cand)
    cliques = sorted((tuple(sorted(c)) for c in kept), key=lambda c: (c[0], c))
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
    entries contribute alpha + gamma for every edge {alpha, gamma}.
    """
    dim = len(graph.nodes[0]) if graph.nodes else 0
    out: set[Exponent] = {exp_add(a, a) for a in graph.nodes}
    for i, j in graph.edges:
        out.add(exp_add(graph.nodes[i], graph.nodes[j]))
    return SupportSet(dim, frozenset(out))
