"""The array-based term-sparsity front end against its loop references.

Each array path must give exactly what its plain loop in ``oracles.py``
gives, in the same order:

* hit sets and graph rules (``graph_from_rule_loop``, ``v_hit_set_loop``);
* the maximal extension and its cliques (``maximal_extension_loop``,
  ``maximal_cliques_pairwise``), and the min-degree extension against the
  version that rescans every vertex (``min_degree_extension_rescan``);
* the next support of both chains (``supp_of_graph_loop``,
  ``w_next_support_loop``);
* Lie coefficients, box moments and the sign-symmetry filter of the ``ss``
  basis (``lie_coefficients_loop``, ``box_moment_loop``,
  ``in_r_perp_loop``);
* coefficient matching (``gram_rows_loop``).

The rescanning min-degree reference is skipped on the chain of the
12-variable network at d = 3, where it takes over a second; random graphs
and the other chains check the min-degree extension against it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpisos import systems
from mpisos.graphs import (
    ChordalGraph,
    MonomialGraph,
    approx_smallest_chordal_extension,
    gram_keys,
    maximal_chordal_extension,
    maximal_cliques,
)
from mpisos.poly import (
    DynamicalSystem,
    GrlexRadix,
    Polynomial,
    SupportSet,
    exponent_rows,
    lie_coefficients,
    monomial_basis,
    support,
)
from mpisos.relax import IDENTITIES, Box, GramBlock, _gram_rows, assemble, box_moments
from mpisos.sparsity import (
    RelaxationConfig,
    _graph_from_rule,
    _step_radix,
    _v_hit_keys,
    _w_next_keys,
    build_chain,
)
from mpisos.symmetry import r_perp_mask, sign_symmetries

from oracles import (
    box_moment_loop,
    edge_rows,
    graph_from_rule_loop,
    gram_rows_loop,
    in_r_perp_loop,
    lie_coefficients_loop,
    maximal_cliques_pairwise,
    maximal_extension_loop,
    min_degree_extension_rescan,
    minkowski_loop,
    supp_of_graph_loop,
    v_hit_set_loop,
    w_next_support_loop,
)

MODELS = {
    "lorenz": systems.lorenz,
    "extended_lorenz": systems.extended_lorenz,
    "network8": lambda: systems.random_network_model(8, 0),
    "network12": lambda: systems.random_network_model(12, 0),
    "network16": lambda: systems.random_network_model(16, 0),
}
CASES = [
    (name, d, extension)
    for name in MODELS
    if name != "network16"
    for d in (2, 3)
    for extension in ("maximal", "min-degree")
]
# the rescanning min-degree reference takes seconds on these chains
RESCAN_TOO_SLOW = {("network12", 3)}


def extension_reference(graph: MonomialGraph, extension: str) -> ChordalGraph:
    if extension == "maximal":
        return maximal_extension_loop(graph)
    return min_degree_extension_rescan(graph)


@pytest.mark.parametrize("name, d, extension", CASES + [("network16", 2, "maximal")])
def test_chain_matches_loop_references(name, d, extension):
    system = MODELS[name]().system
    chain = build_chain(system, d, extension=extension)
    hits = [v_hit_set_loop(system, d, a) for a in chain.v.supports[: len(chain.v.graphs)]]
    hits += list(chain.w.supports[: len(chain.w.graphs)])
    for hit, graphs in zip(hits, chain.v.graphs + chain.w.graphs):
        for j, graph in enumerate(graphs):
            assert graph == graph_from_rule_loop(system, d, j, hit)
    rescan = extension == "maximal" or (name, d) not in RESCAN_TOO_SLOW
    for raw, ext in zip(chain.v.graphs + chain.w.graphs, chain.v.extended + chain.w.extended):
        for graph, extended in zip(raw, ext):
            # the library's own extensions skip the construction checks
            ChordalGraph(extended.nodes, extended.edges, extended.elimination_order)
            if rescan:
                reference = extension_reference(graph, extension)
                assert extended == reference
                assert extended.elimination_order == reference.elimination_order
            assert maximal_cliques(extended) == maximal_cliques_pairwise(extended)
    for k, ext in enumerate(chain.v.extended):
        assert chain.v.supports[k + 1] == supp_of_graph_loop(ext[0])
    for k, ext in enumerate(chain.w.extended):
        assert chain.w.supports[k + 1] == w_next_support_loop(system, ext)


edge_cases = st.integers(1, 14).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]), max_size=50),
    )
)


@given(edge_cases)
def test_extensions_match_loop_references_on_random_graphs(case):
    n, edges = case
    graph = MonomialGraph.build(tuple((i,) for i in range(n)), edges)
    for extension, build in (("maximal", maximal_chordal_extension), ("min-degree", approx_smallest_chordal_extension)):
        extended, reference = build(graph), extension_reference(graph, extension)
        assert extended == reference
        assert extended.elimination_order == reference.elimination_order
        assert maximal_cliques(extended) == maximal_cliques_pairwise(extended)


@pytest.mark.parametrize("name", list(MODELS))
def test_lie_coefficients_match_loop_reference(name):
    system = MODELS[name]().system
    exponents = monomial_basis(system.dim, 3 if system.dim < 16 else 2)
    row, alpha, coef = lie_coefficients(np.array(exponents), system, 0.75)
    got: list[dict] = [{} for _ in exponents]
    for r, a, c in zip(row.tolist(), alpha.tolist(), coef.tolist()):
        got[r][tuple(a)] = c
    assert got == lie_coefficients_loop(exponents, system, 0.75)


@pytest.mark.parametrize("name", list(MODELS))
def test_box_moments_match_loop_reference(name):
    model = MODELS[name]()
    box = Box.from_bounds(model.bounds)
    exponents = monomial_basis(box.dim, 4)
    assert box_moments(exponents, box).tolist() == [box_moment_loop(a, box) for a in exponents]
    skewed = Box(tuple(-0.5 - 0.1 * i for i in range(box.dim)), tuple(1.5 + 0.2 * i for i in range(box.dim)))
    assert box_moments(exponents, skewed).tolist() == [box_moment_loop(a, skewed) for a in exponents]


@pytest.mark.parametrize("name", list(MODELS))
def test_ss_basis_filter_matches_loop_reference(name):
    system = MODELS[name]().system
    group = sign_symmetries(system, 2)
    exponents = monomial_basis(system.dim, 4)
    assert r_perp_mask(group, exponents).tolist() == [in_r_perp_loop(group, a) for a in exponents]


@pytest.mark.parametrize(
    "name, d, extension, mode",
    [case + ("ts",) for case in CASES]
    + [(name, 3, "maximal", mode) for name in ("lorenz", "extended_lorenz") for mode in ("ss", "fd")]
    + [("network16", 2, "maximal", mode) for mode in ("ts", "ss")],
)
def test_assembled_entries_match_loop_reference(name, d, extension, mode):
    m = MODELS[name]()
    config = RelaxationConfig(d=d, extension=extension, mode=mode)
    box = Box.from_bounds(m.bounds)
    problem = assemble(m.system, box, config)
    rows = gram_rows_loop(problem.blocks, m.system.multipliers())
    for eq in problem.equalities:
        assert eq.block_entries == tuple(rows[eq.identity].get(eq.alpha, ()))
    matched = {(eq.identity, eq.alpha) for eq in problem.equalities}
    assert {(ident, alpha) for ident in rows for alpha in rows[ident]} <= matched
    # the free part: -(lie terms) of each v column, -w and +v, and the moments
    v_cols = [(k, a) for k, (kind, a) in enumerate(problem.free_labels) if kind == "v"]
    lie = lie_coefficients_loop([a for _, a in v_cols], m.system, config.beta)
    want = {("lie", alpha, k): -x for (k, _), terms in zip(v_cols, lie) for alpha, x in terms.items()}
    for k, (kind, alpha) in enumerate(problem.free_labels):
        if kind == "w":
            want[("w", alpha, k)] = want[("wv", alpha, k)] = -1.0
            assert problem.objective_free[k] == box_moment_loop(alpha, box)
        else:
            want[("wv", alpha, k)] = 1.0
            assert problem.objective_free[k] == 0.0
    got = {(eq.identity, eq.alpha, col): x for eq in problem.equalities for col, x in eq.free_entries}
    assert got == want


# -- exponents whose plain radix keys exceed int64 -----------------------------------

DIM = 20


def unit(i: int, power: int = 1) -> tuple[int, ...]:
    return tuple(power if k == i else 0 for k in range(DIM))


def test_radix_weights_switch_to_python_ints_past_int64():
    # a key has DIM + 1 digits, the degree's and one per variable
    assert GrlexRadix(DIM, 7).weights.dtype == np.int64  # 8**21 <= 2**63
    assert GrlexRadix(DIM, 8).weights.dtype == object  # 9**21 > 2**63
    radix = GrlexRadix(DIM, 9)
    alpha = (3,) + (0,) * 9 + (1,) * 6 + (0,) * 4
    key = radix.keys([alpha])
    assert key[0] > 2**63
    assert radix.decode(key) == [alpha]


def test_keys_and_lie_terms_reject_rows_of_another_width():
    # a reshape to (-1, 3) would read the 6-wide row as two lorenz exponents
    wide = [(1, 0, 0, 0, 1, 0)]
    with pytest.raises(ValueError, match="dimension"):
        GrlexRadix(3, 4).keys(wide)
    with pytest.raises(ValueError, match="dimension"):
        lie_coefficients(np.array(wide), systems.lorenz().system)
    assert GrlexRadix(3, 4).keys([]).shape == (0,)
    # a negative entry would key as -150, a fraction would truncate to 1
    with pytest.raises(ValueError, match="nonnegative"):
        GrlexRadix(3, 4).keys([(-1, 0, 0)])
    for rows in ([(1.5, 0, 0)], np.array([[1.5, 0, 0]])):
        with pytest.raises(ValueError, match="integer"):
            exponent_rows(rows, 3)
    with pytest.raises(ValueError, match="integer"):
        lie_coefficients(np.array([[0.5, 1, 0]]), systems.lorenz().system)


def past_int64_case() -> tuple[DynamicalSystem, SupportSet]:
    # p = 1 - x^(7,...,7): at d = 71 its Gram basis is {1, x_i}, so products
    # reach exponent 9 in every variable and the step's keys pass 143**20
    sevens = (7,) * DIM
    field = tuple(Polynomial(DIM, {unit(i): -1.0}) for i in range(DIM))
    p = Polynomial(DIM, {(0,) * DIM: 1.0, sevens: -1.0})
    system = DynamicalSystem(field=field, constraints=(p,))
    rng = np.random.default_rng(3)
    hit = {
        tuple(x + 1 if k in (a, b) else x for k, x in enumerate(sevens))
        for a, b in rng.integers(0, DIM, size=(40, 2))
    }
    hit |= {unit(a) for a in range(0, DIM, 3)}
    hit |= {(9,) * DIM, tuple(range(DIM))}  # above the top degree, or no product
    # above the top degree too, where its digit would spill into the next one
    hit.add(unit(2, 143))
    return system, SupportSet.of(DIM, hit)


def test_graph_rule_with_exponents_past_int64_keys():
    system, hit_set = past_int64_case()
    radix = _step_radix(system, 71)
    assert radix.weights.dtype == object
    table = radix.table(hit_set)
    assert radix.decode(table) == sorted((a for a in hit_set.elements if sum(a) <= 142), key=lambda a: (sum(a), a))
    nodes = monomial_basis(DIM, 1)
    terms = radix.keys(list(system.constraints[0].terms))
    graph = _graph_from_rule(nodes, radix.keys(nodes), terms, table)
    assert graph == graph_from_rule_loop(system, 71, 1, hit_set)
    assert 0 < len(graph.edges) < len(graph.nodes) * (len(graph.nodes) - 1) // 2
    hit = radix.decode(_v_hit_keys(system, 71, table, radix))
    assert set(hit) == {a for a in v_hit_set_loop(system, 71, hit_set).elements if sum(a) <= 142}


def test_gram_support_with_exponents_past_int64_keys():
    nodes = sorted({(4,) * DIM, tuple(range(DIM)), (0,) * DIM, unit(5, 9)}, key=lambda a: (sum(a), a))
    graph = MonomialGraph(tuple(nodes), edge_rows({(0, 1), (1, 3), (2, 3)}))
    # the w-chain's next support as one union of key sums, with the
    # constraint of ``past_int64_case`` on a graph over {1, x_i}
    system, _ = past_int64_case()
    small = MonomialGraph(monomial_basis(DIM, 1), edge_rows({(0, 3), (2, 3), (5, 19)}))
    radix = GrlexRadix(DIM, 2 * 190 + 140)
    gram = [gram_keys(g, radix.keys(g.nodes)) for g in (graph, small)]
    assert set(radix.decode(np.unique(gram[0]))) == supp_of_graph_loop(graph).elements
    terms = [radix.keys([(0,) * DIM]), radix.keys(list(system.constraints[0].terms))]
    got = set(radix.decode(np.unique(_w_next_keys(gram, terms))))
    p_support = support(system.constraints[0])
    assert got == supp_of_graph_loop(graph).union(minkowski_loop(p_support, supp_of_graph_loop(small))).elements


def test_gram_rows_with_exponents_past_int64_keys():
    one = Polynomial.constant(DIM, 1.0)
    p = Polynomial(DIM, {(0,) * DIM: 2.0, (3,) * DIM: -0.5})
    blocks = [
        GramBlock("a", 0, 0, ((0,) * DIM, unit(2), (2,) * DIM)),
        GramBlock("b", 1, 0, (unit(0), unit(1))),
        GramBlock("c", 1, 1, ((0,) * DIM,)),
        GramBlock("b", 0, 0, ((0,) * DIM, unit(2), (2,) * DIM)),
    ]
    # keys pass int64 (141**20 > 2**63): their lead digit, the degree, is
    # up to 2 * 40 for the Gram products and 60 more for p
    radix = GrlexRadix(DIM, 140)
    ident, keys, block, r, c, coef = _gram_rows(blocks, (one, p), radix)
    labels = list(zip(ident.tolist(), keys.tolist()))
    assert labels == sorted(labels)
    rows: dict = {name: {} for name in IDENTITIES}
    alphas = radix.decode(keys)
    entries = zip(block.tolist(), r.tolist(), c.tolist(), coef.tolist())
    for i, alpha, entry in zip(ident.tolist(), alphas, entries):
        rows[IDENTITIES[i]].setdefault(tuple(alpha), []).append(entry)
    assert rows == gram_rows_loop(blocks, (one, p))
