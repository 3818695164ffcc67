"""Support-chain goldens and invariants.

The exact exponent sets and edge lists for the three-variable chaotic
benchmark at d=2 were derived by hand from the edge rules and are pinned
here; the property tests cover ascent, degree bounds, stabilization, and
determinism on small random systems with box constraints.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpisos.graphs import maximal_cliques
from mpisos.poly import (
    DynamicalSystem,
    Polynomial,
    SupportSet,
    default_names,
    monomial_basis,
    parse_polynomial,
    total_degree,
)
from mpisos.sparsity import (
    RelaxationConfig,
    build_chain,
    chain_dump_text,
    extend_graph,
    initial_support,
    multiplier_basis_degree,
    stabilized_chain,
    v_degree_cap,
)
from mpisos.systems import (
    coupled_cubic,
    extended_lorenz,
    lorenz,
    random_network_model,
    semi_coupled_cubic,
)

from oracles import edge_set, supp_of_graph_loop


def golden_text(name: str) -> str:
    """A pinned output, stored under tests/golden."""
    return (Path(__file__).parent / "golden" / name).read_text()


def exponent_edges(graph):
    """The graph's edges as unordered pairs of exponents."""
    return frozenset(frozenset((graph.nodes[i], graph.nodes[j])) for i, j in edge_set(graph))


# exponent shorthands for the three-variable benchmark
ONE = (0, 0, 0)
X1, X2, X3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
X1X2, X1X3, X2X3 = (1, 1, 0), (1, 0, 1), (0, 1, 1)
X1SQ, X2SQ, X3SQ = (2, 0, 0), (0, 2, 0), (0, 0, 2)

INITIAL_12 = frozenset(
    {
        ONE,
        X1SQ,
        X2SQ,
        X3SQ,
        X1X2,
        (1, 1, 1),
        (2, 2, 0),
        (2, 0, 2),
        (0, 2, 2),
        (4, 0, 0),
        (0, 4, 0),
        (0, 0, 4),
    }
)

STABLE_19 = INITIAL_12 | {
    X3,
    (0, 0, 3),
    (1, 1, 2),
    (3, 1, 0),
    (1, 3, 0),
    (2, 0, 1),
    (0, 2, 1),
}

V_STEP1_EDGES = frozenset(
    frozenset(edge)
    for edge in [
        (ONE, X1SQ),
        (ONE, X2SQ),
        (ONE, X3SQ),
        (ONE, X1X2),
        (X3, X1X2),
        (X3, X1SQ),
        (X3, X2SQ),
        (X1, X2),
        (X1, X2X3),
        (X1, X1X3),
        (X2, X1X3),
        (X2, X2X3),
        (X3SQ, X2SQ),
        (X3SQ, X1SQ),
        (X2SQ, X1SQ),
    ]
)

W_STEP1_EDGES = frozenset(
    frozenset(edge)
    for edge in [
        (ONE, X1SQ),
        (ONE, X2SQ),
        (ONE, X3SQ),
        (ONE, X1X2),
        (X3, X1X2),
        (X1, X2),
        (X1, X2X3),
        (X2, X1X3),
        (X3SQ, X2SQ),
        (X3SQ, X1SQ),
        (X2SQ, X1SQ),
    ]
)


@pytest.fixture(scope="module")
def lorenz_chain():
    """Sparse order s=1: the w-chain seeds from the initial support."""
    return build_chain(lorenz().system, d=2, s=1, l=3, extension="maximal")


@pytest.fixture(scope="module")
def lorenz_chain_deep():
    """v-chain run past its fixed point."""
    return build_chain(lorenz().system, d=2, s=3, l=3, extension="maximal")


class TestConfig:
    def test_defaults(self):
        cfg = RelaxationConfig(d=3)
        assert (cfg.s, cfg.l, cfg.beta) == (1, 1, 1.0)
        assert cfg.extension == "maximal" and cfg.mode == "ts"
        assert cfg.relaxation_degree == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 0},
            {"d": 2, "s": 0},
            {"d": 2, "l": -1},
            {"d": 2, "beta": 0.0},
            {"d": 2, "beta": -1.0},
            {"d": 2, "extension": "minimal"},
            {"d": 2, "mode": "dense"},
            {"d": True},
            {"d": 2, "s": True},
            {"d": 2, "l": False},
            {"d": 2.0},
            {"d": "2"},
            {"d": 2, "beta": float("inf")},
            {"d": 2, "beta": float("nan")},
            {"d": 2, "beta": True},
            {"d": 2, "beta": "1"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RelaxationConfig(**kwargs)

    def test_accepts_numpy_integers_and_stores_ints(self):
        cfg = RelaxationConfig(d=np.int64(2), s=np.int32(3), l=np.uint8(1), beta=np.float64(0.5))
        assert (cfg.d, cfg.s, cfg.l) == (2, 3, 1)
        assert all(type(x) is int for x in (cfg.d, cfg.s, cfg.l))
        assert cfg == RelaxationConfig(d=2, s=3, l=1, beta=0.5)

    def test_degree_floor_per_system(self):
        cubic = coupled_cubic().system
        with pytest.raises(ValueError):
            RelaxationConfig(d=1).validate_for(cubic)
        RelaxationConfig(d=2).validate_for(cubic)
        RelaxationConfig(d=1).validate_for(lorenz().system)

    def test_basis_degrees(self):
        assert multiplier_basis_degree(2, 0) == 2
        assert multiplier_basis_degree(2, 2) == 1
        assert multiplier_basis_degree(5, 3) == 3
        assert v_degree_cap(lorenz().system, 2) == 3


class TestLorenzGoldens:
    def test_initial_support(self):
        sup = initial_support(lorenz().system, 2)
        assert set(sup) == INITIAL_12

    def test_step1_graph_edges(self, lorenz_chain):
        graph = lorenz_chain.v.graphs_at(1)[0]
        assert graph.nodes == monomial_basis(3, 2)
        assert exponent_edges(graph) == V_STEP1_EDGES

    def test_step1_clique_sizes(self, lorenz_chain):
        sizes = tuple(map(len, maximal_cliques(lorenz_chain.v.extended_at(1)[0])))
        assert sizes == (6, 4)

    def test_support_growth_and_fixed_point(self, lorenz_chain_deep):
        assert set(lorenz_chain_deep.v.support_at(1)) == INITIAL_12
        assert set(lorenz_chain_deep.v.support_at(2)) == STABLE_19
        assert lorenz_chain_deep.v.support_at(2) == lorenz_chain_deep.v.support_at(3)
        assert lorenz_chain_deep.v.stabilized

    def test_multiplier_graphs_at_step1(self, lorenz_chain):
        pair_only = frozenset({frozenset((X1, X2))})
        with_x3 = frozenset({frozenset((ONE, X3)), frozenset((X1, X2))})
        graphs = lorenz_chain.v.graphs_at(1)
        assert exponent_edges(graphs[1]) == with_x3
        assert exponent_edges(graphs[2]) == with_x3
        assert exponent_edges(graphs[3]) == pair_only

    def test_w_step1_graph_is_strict_subgraph(self, lorenz_chain):
        graph = lorenz_chain.w.graphs_at(1)[0]
        assert graph.nodes == monomial_basis(3, 2)
        assert exponent_edges(graph) == W_STEP1_EDGES
        assert W_STEP1_EDGES < V_STEP1_EDGES

    def test_w_multiplier_graphs_at_step1(self, lorenz_chain):
        pair_only = frozenset({frozenset((X1, X2))})
        for j in (1, 2, 3):
            assert exponent_edges(lorenz_chain.w.graphs_at(1)[j]) == pair_only

    def test_w_chain_reaches_v_fixed_point(self, lorenz_chain):
        assert set(lorenz_chain.w.support_at(1)) == INITIAL_12
        assert set(lorenz_chain.w.support_at(2)) == STABLE_19
        assert lorenz_chain.w.support_at(2) == lorenz_chain.w.support_at(3)
        assert lorenz_chain.w.stabilized
        assert lorenz_chain.w.support_at(2) == lorenz_chain.v.support_at(2)

    def test_w_chain_seeds_from_requested_order(self, lorenz_chain_deep):
        # at s past stabilization the w-chain starts on the fixed-point set
        assert set(lorenz_chain_deep.w.support_at(1)) == STABLE_19

    def test_w_multiplier_graphs_gain_edge_at_step2(self, lorenz_chain):
        with_x3 = frozenset({frozenset((ONE, X3)), frozenset((X1, X2))})
        for j in (1, 2, 3):
            assert exponent_edges(lorenz_chain.w.graphs_at(2)[j]) == with_x3

    def test_stabilized_chain_helper(self):
        chain = stabilized_chain(lorenz().system, 2)
        assert chain.v.stabilized and chain.w.stabilized
        assert set(chain.v.supports[-1]) == STABLE_19

    def test_unreachable_order_raises(self):
        chain = build_chain(lorenz().system, d=2, s=1, l=1, extension="maximal")
        assert not chain.v.stabilized and not chain.w.stabilized
        with pytest.raises(ValueError, match="^v chain was run for 1 step"):
            chain.v.graphs_at(2)
        with pytest.raises(ValueError, match="^w chain was run for 1 step.*order 2 is not"):
            chain.w.extended_at(2)
        with pytest.raises(ValueError, match="^w order must be >= 1, got 0"):
            chain.w.support_at(0)

    def test_dump_text(self, lorenz_chain_deep):
        # the whole dump: both chains' supports and clique sizes, their
        # stabilization and the last v support
        assert chain_dump_text(lorenz_chain_deep) + "\n" == golden_text("chain_dump_lorenz.txt")

    def test_dump_text_n8_min_degree(self):
        # neither chain stabilizes at (s, l) = (2, 2)
        model = random_network_model(8, 0)
        chain = build_chain(model.system, 2, s=2, l=2, extension="min-degree")
        assert chain_dump_text(chain, model.variables) + "\n" == golden_text("chain_dump_n8.txt")


class TestOtherModels:
    @pytest.mark.parametrize(
        "model", [coupled_cubic(), semi_coupled_cubic(), extended_lorenz()]
    )
    def test_chains_stabilize(self, model):
        chain = stabilized_chain(model.system, 2)
        assert chain.v.stabilized and chain.w.stabilized
        fixed = chain.v.supports[-1]
        assert supp_of_graph_loop(chain.v.extended[-1][0]) == fixed

    def test_min_degree_extension_stays_inside_maximal(self):
        chain = build_chain(lorenz().system, d=2, s=2, l=2, extension="min-degree")
        dense = build_chain(lorenz().system, d=2, s=2, l=2, extension="maximal")
        assert edge_set(chain.v.extended[0][0]) <= edge_set(dense.v.extended[0][0])
        assert len(chain.v.extended[0][0].edges) < len(dense.v.extended[0][0].edges)

    def test_greedy_extension_monotone_on_nested_pair(self, lorenz_chain):
        small = lorenz_chain.w.graphs_at(1)[0]
        big = lorenz_chain.v.graphs_at(1)[0]
        assert edge_set(small) <= edge_set(big)
        ext_small = extend_graph(small, "min-degree")
        ext_big = extend_graph(big, "min-degree")
        assert edge_set(ext_small) <= edge_set(ext_big)


def _box_system(draw, n: int) -> DynamicalSystem:
    names = default_names(n)
    field = []
    for _ in range(n):
        count = draw(st.integers(1, 3))
        terms = {}
        for _ in range(count):
            alpha = draw(
                st.tuples(*([st.integers(0, 2)] * n)).filter(lambda a: sum(a) <= 3)
            )
            terms[alpha] = draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0]))
        field.append(Polynomial.from_terms(n, terms))
    constraints = tuple(
        parse_polynomial(f"1 - {name}^2", names) for name in names
    )
    return DynamicalSystem(field=tuple(field), constraints=constraints)


@st.composite
def box_systems(draw) -> DynamicalSystem:
    return _box_system(draw, draw(st.integers(2, 4)))


class TestChainProperties:
    @settings(max_examples=40)
    @given(box_systems())
    def test_v_chain_ascends_within_degree(self, sys):
        chain = build_chain(sys, d=2, s=4, extension="maximal")
        supports, raw = chain.v.supports, chain.v.graphs
        for earlier, later in zip(supports, supports[1:]):
            assert set(earlier) <= set(later)
        for sup in supports[1:]:
            assert all(total_degree(a) <= 4 for a in sup)
        for earlier, later in zip(raw, raw[1:]):
            for g_old, g_new in zip(earlier, later):
                assert edge_set(g_old) <= edge_set(g_new)

    @settings(max_examples=40)
    @given(box_systems())
    def test_w_chain_ascends_within_degree(self, sys):
        chain = build_chain(sys, d=2, s=2, l=4, extension="maximal")
        for earlier, later in zip(chain.w.supports, chain.w.supports[1:]):
            assert set(earlier) <= set(later)
        for sup in chain.w.supports:
            assert all(total_degree(a) <= 4 for a in sup)

    @settings(max_examples=25)
    @given(box_systems())
    def test_deterministic(self, sys):
        first = build_chain(sys, d=2, s=2, l=2, extension="maximal")
        second = build_chain(sys, d=2, s=2, l=2, extension="maximal")
        assert first == second

    @settings(max_examples=25)
    @given(box_systems())
    def test_initial_support_contains_required_pieces(self, sys):
        sup = initial_support(sys, 2)
        assert (0,) * sys.dim in sup
        for p in sys.constraints:
            assert all(alpha in sup for alpha in p.terms)
        for beta in monomial_basis(sys.dim, 2):
            assert tuple(2 * b for b in beta) in sup
