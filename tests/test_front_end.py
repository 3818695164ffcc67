"""The array-based term-sparsity front end against its loop references.

Graph rules, Gram supports, elimination orders and coefficient matching must
give exactly what the plain loops in ``oracles.py`` give: the same graphs,
supports and equality entries, in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

from mpisos import systems
from mpisos.graphs import MonomialGraph, supp_of_graph
from mpisos.poly import DynamicalSystem, Polynomial, SupportSet, exponent_keys, radix_weights
from mpisos.relax import IDENTITIES, Box, GramBlock, _gram_rows, assemble
from mpisos.sparsity import RelaxationConfig, _graph_from_rule, _v_hit_set, build_chain

from oracles import graph_from_rule_loop, gram_rows_loop, supp_of_graph_loop

MODELS = {
    "lorenz": systems.lorenz,
    "extended_lorenz": systems.extended_lorenz,
    "network8": lambda: systems.random_network_model(8, 0),
    "network12": lambda: systems.random_network_model(12, 0),
}
CASES = [
    (name, d, extension)
    for name in MODELS
    for d in (2, 3)
    for extension in ("maximal", "min-degree")
]


@pytest.mark.parametrize("name, d, extension", CASES)
def test_chain_matches_loop_references(name, d, extension):
    system = MODELS[name]().system
    chain = build_chain(system, d, extension=extension)
    hits = [_v_hit_set(system, d, a) for a in chain.v_supports[: len(chain.v_graphs)]]
    hits += list(chain.w_supports[: len(chain.w_graphs)])
    for hit, graphs in zip(hits, chain.v_graphs + chain.w_graphs):
        for j, graph in enumerate(graphs):
            assert graph == graph_from_rule_loop(system, d, j, hit)
    for graph in (g for step in chain.v_extended + chain.w_extended for g in step):
        assert supp_of_graph(graph) == supp_of_graph_loop(graph)


@pytest.mark.parametrize(
    "name, d, extension, mode",
    [case + ("ts",) for case in CASES]
    + [(name, 3, "maximal", mode) for name in ("lorenz", "extended_lorenz") for mode in ("ss", "fd")],
)
def test_assembled_entries_match_loop_reference(name, d, extension, mode):
    m = MODELS[name]()
    config = RelaxationConfig(d=d, extension=extension, mode=mode)
    problem = assemble(m.system, Box.from_bounds(m.bounds), config)
    rows = gram_rows_loop(problem.blocks, m.system.multipliers())
    for eq in problem.equalities:
        assert eq.block_entries == tuple(rows[eq.identity].get(eq.alpha, ()))
    matched = {(eq.identity, eq.alpha) for eq in problem.equalities}
    assert {(ident, alpha) for ident in rows for alpha in rows[ident]} <= matched


# -- exponents whose plain radix keys exceed int64 -----------------------------------

DIM = 20


def unit(i: int, power: int = 1) -> tuple[int, ...]:
    return tuple(power if k == i else 0 for k in range(DIM))


def test_radix_weights_switch_to_python_ints_past_int64():
    assert radix_weights(DIM, 7).dtype == np.int64  # 8**20 < 2**63
    assert radix_weights(DIM, 8).dtype == object  # 9**20 > 2**63
    weights = radix_weights(DIM, 9)
    alpha = (9,) + tuple(range(9)) + tuple(range(10))
    key = exponent_keys([alpha], weights)
    assert key[0] > 2**63
    assert tuple((key[0] // weights % 10).tolist()) == alpha


def test_graph_rule_with_exponents_past_int64_keys():
    # p = 1 - x^(7,...,7): at d = 71 its Gram basis is {1, x_i}, so products
    # reach exponent 9 in every variable and 143**20 keys
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
    # above the top degree too; its key is that of unit(1), which is not hit
    hit.add(unit(2, 143))
    hit_set = SupportSet.of(DIM, hit)
    graph = _graph_from_rule(system, 71, 1, hit_set)
    assert graph == graph_from_rule_loop(system, 71, 1, hit_set)
    assert 0 < graph.edge_count < len(graph.nodes) * (len(graph.nodes) - 1) // 2


def test_gram_support_with_exponents_past_int64_keys():
    nodes = sorted({(4,) * DIM, tuple(range(DIM)), (0,) * DIM, unit(5, 9)}, key=lambda a: (sum(a), a))
    graph = MonomialGraph(tuple(nodes), frozenset({(0, 1), (1, 3), (2, 3)}))
    assert supp_of_graph(graph) == supp_of_graph_loop(graph)


def test_gram_rows_with_exponents_past_int64_keys():
    one = Polynomial.constant(DIM, 1.0)
    p = Polynomial(DIM, {(0,) * DIM: 2.0, (3,) * DIM: -0.5})
    blocks = [
        GramBlock("a", 0, 0, ((0,) * DIM, unit(2), (2,) * DIM)),
        GramBlock("b", 1, 0, (unit(0), unit(1))),
        GramBlock("c", 1, 1, ((0,) * DIM,)),
        GramBlock("b", 0, 0, ((0,) * DIM, unit(2), (2,) * DIM)),
    ]
    # keys reach 141**20: 2 * 40 for the Gram products, 60 for p
    weights = radix_weights(DIM, 140)
    ident, keys, block, r, c, coef = _gram_rows(blocks, (one, p), weights)
    labels = list(zip(ident.tolist(), keys.tolist()))
    assert labels == sorted(labels)
    rows: dict = {name: {} for name in IDENTITIES}
    alphas = (keys[:, None] // weights % 141).tolist()
    entries = zip(block.tolist(), r.tolist(), c.tolist(), coef.tolist())
    for i, alpha, entry in zip(ident.tolist(), alphas, entries):
        rows[IDENTITIES[i]].setdefault(tuple(alpha), []).append(entry)
    assert rows == gram_rows_loop(blocks, (one, p))
