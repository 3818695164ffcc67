"""Independent reference implementations used only by the test suite.

Each oracle takes a deliberately different algorithmic route than the library
code it checks: recursive Horner evaluation, simplicial-elimination chordality
testing, pairwise comparison of candidate cliques, exhaustive parity-vector
enumeration, and a projection-splitting SDP solver.  The term-sparsity front
end (graph rules, hit sets, chordal extensions, Gram supports and the next
supports of both chains, the elimination-order check, Lie coefficients, box
moments, the sign-symmetry filter and coefficient matching) and the
residuals of certificate recovery run on arrays in the library; their plain
loop versions are kept here as references, as is the min-degree extension
that rescans every vertex for simpliciality.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import add

import numpy as np

from mpisos.graphs import ChordalGraph, MonomialGraph
from mpisos.poly import Polynomial, SupportSet, lie_polynomial, monomial_basis, support
from mpisos.sparsity import multiplier_basis_degree, v_degree_cap


# -- polynomial evaluation ---------------------------------------------------

def horner_eval(terms: dict[tuple[int, ...], float], point: tuple[float, ...]) -> float:
    """Evaluate a term map at a point by recursive Horner factorization."""
    if not terms:
        return 0.0
    n = len(next(iter(terms)))
    if n == 0:
        return math.fsum(terms.values())
    groups: dict[int, dict[tuple[int, ...], float]] = {}
    for alpha, c in terms.items():
        groups.setdefault(alpha[0], {})[alpha[1:]] = groups.get(alpha[0], {}).get(alpha[1:], 0.0) + c
    rest = point[1:]
    degrees = sorted(groups)
    value = 0.0
    prev_deg = None
    for deg in reversed(degrees):
        if prev_deg is not None:
            value *= point[0] ** (prev_deg - deg)
        value += horner_eval(groups[deg], rest)
        prev_deg = deg
    value *= point[0] ** degrees[0]
    return value


# -- edge sets ---------------------------------------------------------------

def edge_set(graph) -> set[tuple[int, int]]:
    """A graph's edges as a set of (i, j) tuples.  Set tests go through
    this: ``(i, j) in graph.edges`` on the edge array tests elements, not
    rows, and is true whenever i or j is an endpoint of any edge."""
    return set(map(tuple, graph.edges.tolist()))


def edge_rows(pairs) -> np.ndarray:
    """The canonical edge array of a set of (i, j) pairs with i < j."""
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


# -- chordality --------------------------------------------------------------

def is_chordal(n: int, edges: set[tuple[int, int]]) -> bool:
    """Chordality by repeated simplicial elimination (exact for any graph)."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    alive = set(range(n))
    while alive:
        simplicial = None
        for v in alive:
            nb = adj[v]
            if all(b in adj[a] for a in nb for b in nb if a < b):
                simplicial = v
                break
        if simplicial is None:
            return False
        for u in adj[simplicial]:
            adj[u].discard(simplicial)
        del adj[simplicial]
        alive.discard(simplicial)
    return True


def later_neighbours_are_cliques(n: int, edges, order) -> bool:
    """Pairwise perfect-elimination test: for every node, the neighbours that
    come later in the order are pairwise adjacent."""
    pairs = {(min(i, j), max(i, j)) for i, j in edges}
    position = {v: k for k, v in enumerate(order)}
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    for v in order:
        later = [u for u in adj[v] if position[u] > position[v]]
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if (min(later[a], later[b]), max(later[a], later[b])) not in pairs:
                    return False
    return True


def maximal_cliques_pairwise(graph: ChordalGraph) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of a chordal graph: each node plus its later
    neighbours is a candidate, and a candidate inside another is dropped, by
    comparing every pair.  Ordered as ``maximal_cliques`` orders them."""
    position = {v: k for k, v in enumerate(graph.elimination_order)}
    adj = graph.adjacency()
    candidates = [
        frozenset({v} | {u for u in adj[v] if position[u] > position[v]})
        for v in graph.elimination_order
    ]
    kept = {c for c in candidates if not any(c < other for other in candidates)}
    return tuple(sorted((tuple(sorted(c)) for c in kept), key=lambda c: (c[0], c)))


# -- term-sparsity loops -------------------------------------------------------

def graph_from_rule_loop(system, d: int, j: int, hit: SupportSet) -> MonomialGraph:
    """Pairs of basis exponents whose product against some term of multiplier
    j lies in the hit set, one pair at a time."""
    n = system.dim
    deg = multiplier_basis_degree(d, 0 if j == 0 else system.constraint_degrees[j - 1])
    nodes = monomial_basis(n, deg)
    deltas = [(0,) * n] if j == 0 else list(support(system.constraints[j - 1]))
    edges = set()
    for a, beta in enumerate(nodes):
        for b in range(a + 1, len(nodes)):
            base = tuple(map(add, beta, nodes[b]))
            if any(tuple(map(add, base, delta)) in hit for delta in deltas):
                edges.add((a, b))
    return MonomialGraph.build(nodes, edges)


def maximal_extension_loop(graph: MonomialGraph) -> ChordalGraph:
    """Each connected component, found by depth-first search, completed into
    a clique pair by pair; the identity order."""
    adj = graph.adjacency()
    seen: set[int] = set()
    edges = edge_set(graph)
    for start in range(len(graph.nodes)):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u] - seen:
                seen.add(w)
                stack.append(w)
        edges.update(combinations(sorted(comp), 2))
    return ChordalGraph(graph.nodes, edge_rows(edges), tuple(range(len(graph.nodes))))


def min_degree_extension_rescan(graph: MonomialGraph) -> ChordalGraph:
    """The min-degree extension that rescans every live vertex for
    simpliciality before each elimination."""
    n = len(graph.nodes)
    adj = graph.adjacency()
    edges = edge_set(graph)
    alive = set(range(n))
    fill: set[tuple[int, int]] = set()
    order: list[int] = []
    while alive:
        chosen = -1
        for v in sorted(alive):
            nb = adj[v]
            if all((min(a, b), max(a, b)) in edges or (min(a, b), max(a, b)) in fill
                   for a in nb for b in nb if a < b):
                chosen = v
                break
        if chosen < 0:
            chosen = min(alive, key=lambda v: (len(adj[v]), v))
        order.append(chosen)
        for e in combinations(sorted(adj[chosen]), 2):
            if e not in edges and e not in fill:
                fill.add(e)
                adj[e[0]].add(e[1])
                adj[e[1]].add(e[0])
        for u in adj[chosen]:
            adj[u].discard(chosen)
        adj[chosen] = set()
        alive.discard(chosen)
    return ChordalGraph(graph.nodes, edge_rows(edges | fill), tuple(order))


def lie_support_loop(v_support: SupportSet, system) -> SupportSet:
    """(a - e_i) + delta for each a, each i with a_i > 0 and each term delta
    of f_i, one tuple at a time."""
    out = set()
    for alpha in v_support.elements:
        for i, a_i in enumerate(alpha):
            if a_i:
                shifted = alpha[:i] + (a_i - 1,) + alpha[i + 1:]
                out.update(tuple(map(add, shifted, delta)) for delta in system.field[i].terms)
    return SupportSet(system.dim, frozenset(out))


def v_hit_set_loop(system, d: int, a_set: SupportSet) -> SupportSet:
    """The v support and the Lie terms of its part within the degree cap."""
    capped = SupportSet(a_set.dim, frozenset(a for a in a_set.elements if sum(a) <= v_degree_cap(system, d)))
    return a_set.union(lie_support_loop(capped, system))


def minkowski_loop(left: SupportSet, right: SupportSet) -> SupportSet:
    return SupportSet(left.dim, frozenset(tuple(map(add, a, b)) for a in left.elements for b in right.elements))


def w_next_support_loop(system, extended) -> SupportSet:
    """The Gram support of the constant multiplier's graph and the Minkowski
    sum of each constraint's support with its graph's Gram support."""
    out = supp_of_graph_loop(extended[0])
    for p, graph in zip(system.constraints, extended[1:]):
        out = out.union(minkowski_loop(support(p), supp_of_graph_loop(graph)))
    return out


def lie_coefficients_loop(exponents, system, beta: float) -> list[dict]:
    """The terms of beta x^g - grad(x^g) . f per exponent g, by polynomial
    arithmetic."""
    return [dict(lie_polynomial(Polynomial(system.dim, {g: 1.0}), system, beta).terms) for g in exponents]


def box_moment_loop(alpha, box) -> float:
    """Integral of x^alpha over the box, one axis at a time."""
    out = 1.0
    for a, lo, hi in zip(alpha, box.lo, box.hi):
        out *= (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
    return out


def in_r_perp_loop(group, alpha) -> bool:
    """Even dot product of alpha against every basis mask, bit by bit."""
    return all(
        sum(a for i, a in enumerate(alpha) if (mask >> i) & 1) % 2 == 0 for mask in group.basis
    )


def supp_of_graph_loop(graph: MonomialGraph) -> SupportSet:
    """2 alpha for every node alpha and alpha + gamma for every edge."""
    dim = len(graph.nodes[0]) if graph.nodes else 0
    out = {tuple(map(add, a, a)) for a in graph.nodes}
    for i, j in edge_set(graph):
        out.add(tuple(map(add, graph.nodes[i], graph.nodes[j])))
    return SupportSet(dim, frozenset(out))


def gram_rows_loop(blocks, multipliers) -> dict:
    """Gram entries (block, r, c, coef) per identity and matched exponent, in
    the order block, r <= c row-major, term."""
    identity = {"a": "lie", "b": "w", "c": "wv"}
    rows: dict = {name: {} for name in identity.values()}
    for block_id, block in enumerate(blocks):
        target = rows[identity[block.certificate]]
        terms = multipliers[block.multiplier].sorted_terms()
        exps = block.exponents
        for r in range(len(exps)):
            for c in range(r, len(exps)):
                base = tuple(map(add, exps[r], exps[c]))
                for delta, coef in terms:
                    alpha = tuple(map(add, base, delta))
                    target.setdefault(alpha, []).append((block_id, r, c, coef))
    return rows


def recover_residuals_loop(problem, block_values, free_values, tolerance: float = 1e-6):
    """``recover``'s identity residuals and its residual flag, by a loop over
    the entries of each equality record."""
    mats = [0.5 * (np.asarray(m) + np.asarray(m).T) for m in block_values]
    residuals = {"lie": 0.0, "w": 0.0, "wv": 0.0}
    coef_scale = 1.0
    for eq in problem.equalities:
        total = -eq.rhs
        for block_id, r, c, coef in eq.block_entries:
            total += coef * mats[block_id][r, c] * (1.0 if r == c else 2.0)
            coef_scale = max(coef_scale, abs(coef))
        for col, coef in eq.free_entries:
            total += coef * free_values[col]
            coef_scale = max(coef_scale, abs(coef))
        residuals[eq.identity] = max(residuals[eq.identity], abs(total))
    worst = max(residuals.values())
    flags = []
    if worst > tolerance * coef_scale:
        flags.append(f"identity residual {worst:.3e} exceeds tolerance")
    return residuals, flags


# -- sign symmetries -----------------------------------------------------------

def brute_parity_invariants(dim: int, exponents: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """All r in {0,1}^dim with r . alpha even for every alpha, by enumeration."""
    out = set()
    for code in range(2 ** dim):
        r = tuple((code >> i) & 1 for i in range(dim))
        if all(sum(ri * ai for ri, ai in zip(r, alpha)) % 2 == 0 for alpha in exponents):
            out.add(r)
    return out


def brute_system_symmetries(
    dim: int,
    field_supports: list[set[tuple[int, ...]]],
    constraint_supports: list[set[tuple[int, ...]]],
) -> set[tuple[int, ...]]:
    """Sign vectors leaving the vector field equivariant and constraints invariant."""
    out = set()
    for code in range(2 ** dim):
        r = tuple((code >> i) & 1 for i in range(dim))
        ok = True
        for i, supp in enumerate(field_supports):
            for alpha in supp:
                if (sum(ri * ai for ri, ai in zip(r, alpha)) + r[i]) % 2 != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for supp in constraint_supports:
                for alpha in supp:
                    if sum(ri * ai for ri, ai in zip(r, alpha)) % 2 != 0:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.add(r)
    return out


# -- the MPI sets of the random networks -----------------------------------------

def _network_ellipsoid(model) -> np.ndarray:
    """B of a random network, whose MPI set is {x in the box : x^T B x <= 1};
    the ellipsoid must lie inside the box, its largest coordinate
    semi-axis, max_i sqrt((B^-1)_ii), at most 1."""
    b = np.array(model.matrix)
    if np.sqrt(np.diag(np.linalg.inv(b))).max() > 1.0:
        raise ValueError("the ellipsoid x^T B x <= 1 leaves the box")
    return b


def network_mpi_volume(model) -> float:
    """Volume of a random network's MPI set: V_n / sqrt(det B), with V_n
    the volume of the unit ball in n dimensions."""
    b = _network_ellipsoid(model)
    n = len(b)
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) / math.sqrt(np.linalg.det(b))


def network_mpi_samples(model, count: int, seed: int) -> np.ndarray:
    """Rows of ``count`` points uniform in a random network's MPI set, then
    ``count`` points on its boundary x^T B x = 1.  With B = L L^T, x = L^-T u
    maps the unit ball onto the ellipsoid, and a normal direction scaled by
    a radius U^(1/n) (or 1) is uniform in the ball (or on the sphere)."""
    b = _network_ellipsoid(model)
    n = len(b)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * count, n))
    radius = np.concatenate([rng.uniform(size=count) ** (1 / n), np.ones(count)])
    u = g / np.linalg.norm(g, axis=1, keepdims=True) * radius[:, None]
    return np.linalg.solve(np.linalg.cholesky(b).T, u.T).T


# -- small dense SDP solver ----------------------------------------------------

def admm_sdp(
    C: np.ndarray,
    A_list: list[np.ndarray],
    b: np.ndarray,
    rho: float = 1.0,
    iters: int = 20000,
    tol: float = 1e-9,
) -> tuple[float, np.ndarray]:
    """Solve min <C,X> s.t. <A_i,X> = b_i, X psd, by alternating projections.

    Splitting: X-update projects onto the affine constraint set, Z-update
    projects onto the psd cone, with a scaled dual variable U.  Returns the
    objective value and the primal matrix.  Only meant for small well
    conditioned instances generated with strictly feasible pairs.
    """
    n = C.shape[0]
    m = len(A_list)
    A = np.stack([Ai.reshape(-1) for Ai in A_list])  # m x n^2
    gram = A @ A.T
    gram_inv = np.linalg.inv(gram)

    def project_affine(Y: np.ndarray) -> np.ndarray:
        resid = A @ Y.reshape(-1) - b
        corr = (A.T @ (gram_inv @ resid)).reshape(n, n)
        return Y - corr

    def project_psd(Y: np.ndarray) -> np.ndarray:
        Ys = 0.5 * (Y + Y.T)
        w, V = np.linalg.eigh(Ys)
        w = np.clip(w, 0.0, None)
        return (V * w) @ V.T

    Z = np.zeros((n, n))
    U = np.zeros((n, n))
    X = Z
    for _ in range(iters):
        X = project_affine(Z - U - C / rho)
        Znew = project_psd(X + U)
        U = U + X - Znew
        shift = np.linalg.norm(Znew - Z)
        Z = Znew
        if shift < tol and np.linalg.norm(X - Z) < tol:
            break
    Xfinal = project_psd(project_affine(Z))
    return float(np.sum(C * Xfinal)), Xfinal
