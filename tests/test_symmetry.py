"""Sign-symmetry computation against brute-force enumeration, plus the
block-partition goldens for the three-variable benchmark."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from mpisos.graphs import maximal_cliques
from mpisos.poly import (
    DynamicalSystem,
    Polynomial,
    SupportSet,
    monomial_basis,
    parse_polynomial,
)
from mpisos.relax import multiplier_blocks
from mpisos.sparsity import initial_support, stabilized_chain
from mpisos.symmetry import (
    SignSymmetryGroup,
    parity_mask,
    r_perp_mask,
    sign_symmetries,
    support_symmetries,
    symmetry_blocks,
)
from mpisos.systems import (
    coupled_cubic,
    extended_lorenz,
    lorenz,
    random_network_model,
    semi_coupled_cubic,
)

from oracles import brute_parity_invariants, brute_system_symmetries
from test_sparsity import box_systems


def _supports(system: DynamicalSystem):
    field = [set(p.terms) for p in system.field]
    cons = [set(p.terms) for p in system.constraints]
    return field, cons


class TestGroupComputation:
    def test_lorenz_group(self):
        group = sign_symmetries(lorenz().system, 2)
        assert group.vectors == ((1, 1, 0),)
        assert group.rank == 1
        assert group.elements() == ((0, 0, 0), (1, 1, 0))

    def test_extended_lorenz_group(self):
        group = sign_symmetries(extended_lorenz().system, 2)
        assert group.vectors == ((1, 1, 0, 1, 1),)

    @pytest.mark.parametrize("model", [coupled_cubic(), semi_coupled_cubic()])
    def test_cubic_networks_fully_symmetric(self, model):
        group = sign_symmetries(model.system, 2)
        assert group.rank == 3
        assert len(group.elements()) == 8

    def test_odd_linear_field_fully_symmetric(self):
        names = ("x1", "x2", "x3")
        field = tuple(parse_polynomial(name, names) for name in names)
        cons = tuple(parse_polynomial(f"1 - {n}^2", names) for n in names)
        group = sign_symmetries(DynamicalSystem(field, cons), 1)
        assert group.rank == 3

    def test_affine_field_breaks_symmetry(self):
        field = (parse_polynomial("x1 + 1", ("x1",)),)
        cons = (parse_polynomial("1 - x1^2", ("x1",)),)
        group = sign_symmetries(DynamicalSystem(field, cons), 1)
        assert group.rank == 0
        assert group.elements() == ((0,),)

    @pytest.mark.parametrize(
        "model",
        [lorenz(), coupled_cubic(), semi_coupled_cubic(), extended_lorenz()],
    )
    def test_matches_definitional_brute_force(self, model):
        group = sign_symmetries(model.system, 2)
        field, cons = _supports(model.system)
        assert set(group.elements()) == brute_system_symmetries(
            model.system.dim, field, cons
        )

    @pytest.mark.parametrize("n,seed", [(5, 0), (6, 1), (7, 2), (8, 3), (10, 4)])
    def test_random_networks_match_brute_force(self, n, seed):
        model = random_network_model(n, seed)
        group = sign_symmetries(model.system, 2)
        field, cons = _supports(model.system)
        assert set(group.elements()) == brute_system_symmetries(n, field, cons)
        # interactions only tie variables along edges, so at least the four
        # leftover graph components flip independently
        assert group.rank >= 4

    @settings(max_examples=40)
    @given(box_systems())
    def test_hypothesis_box_systems_match_brute_force(self, sys):
        group = sign_symmetries(sys, 2)
        field, cons = _supports(sys)
        assert set(group.elements()) == brute_system_symmetries(sys.dim, field, cons)

    @settings(max_examples=40)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(
                    st.tuples(*([st.integers(0, 3)] * n)), min_size=0, max_size=8
                ),
            )
        )
    )
    def test_support_group_matches_enumeration(self, args):
        n, exps = args
        group = support_symmetries(n, exps)
        assert set(group.elements()) == brute_parity_invariants(n, exps)

    def test_group_membership_reduction(self):
        group = support_symmetries(4, {(1, 1, 0, 0), (0, 0, 1, 1)})
        assert group.rank == 2
        members = set(group.elements())
        assert (1, 1, 0, 0) in members
        assert (1, 1, 1, 1) in members
        assert (1, 0, 0, 0) not in members
        # exponents of another width than dim have no parity mask in the group
        for exps in ([(1, 0, 0, 1)], [(1, 0)]):
            with pytest.raises(ValueError, match="dimension"):
                support_symmetries(3, exps)


class TestOrthogonality:
    def test_lorenz_membership_goldens(self):
        group = sign_symmetries(lorenz().system, 2)
        assert r_perp_mask(group, [(1, 1, 0), (0, 0, 1), (1, 0, 0)]).tolist() == [True, True, False]
        # a width that a reshape to (-1, 3) would split into two rows
        with pytest.raises(ValueError, match="dimension"):
            r_perp_mask(group, [(1, 1, 0, 0, 0, 1)])
        with pytest.raises(ValueError, match="dimension"):
            symmetry_blocks(group, [(1, 1, 0, 0, 0, 1)])

    def test_trivial_group_accepts_everything(self):
        group = SignSymmetryGroup(3, ())
        assert r_perp_mask(group, [(1, 2, 3)]).tolist() == [True]
        assert symmetry_blocks(group, SupportSet.of(3, monomial_basis(3, 1))) == (
            ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)),
        )

    @settings(max_examples=50)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.sets(st.integers(1, 2**n - 1), max_size=4),
                st.tuples(*([st.integers(0, 3)] * n)),
                st.just(n),
            )
        )
    )
    def test_doubled_exponents_always_orthogonal(self, args):
        masks, alpha, n = args
        group = support_symmetries(
            n, {tuple((m >> i) & 1 for i in range(n)) for m in masks}
        )
        assert r_perp_mask(group, [tuple(2 * a for a in alpha)]).tolist() == [True]

    def test_parity_mask(self):
        assert parity_mask((0, 0, 0)) == 0
        assert parity_mask((1, 2, 3)) == 0b101
        assert parity_mask((4, 1, 0)) == 0b010


def same_sets(graph, blocks) -> bool:
    """True iff the graph's maximal cliques, as exponent sets, equal the blocks."""
    return {frozenset(graph.nodes[i] for i in c) for c in maximal_cliques(graph)} == {
        frozenset(b) for b in blocks
    }


class TestBlocks:
    def test_lorenz_blocks_on_degree_two_basis(self):
        group = sign_symmetries(lorenz().system, 2)
        blocks = symmetry_blocks(group, SupportSet.of(3, monomial_basis(3, 2)))
        assert blocks == (
            (
                (0, 0, 0),
                (0, 0, 1),
                (0, 0, 2),
                (0, 2, 0),
                (1, 1, 0),
                (2, 0, 0),
            ),
            ((0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1)),
        )
        assert tuple(len(b) for b in blocks) == (6, 4)

    def test_multiplier_blocks_once_per_basis_degree(self):
        # lorenz d=2: the constant multiplier on the degree-2 basis, each
        # box quadratic on the degree-1 basis, whose partition is shared
        system = lorenz().system
        group = sign_symmetries(system, 2)
        blocks = multiplier_blocks(system, 2, group)
        assert blocks[0] == symmetry_blocks(group, SupportSet.of(3, monomial_basis(3, 2)))
        assert blocks[1] == symmetry_blocks(group, SupportSet.of(3, monomial_basis(3, 1)))
        assert len(blocks) == 4 and blocks[1] is blocks[2] is blocks[3]

    def test_blocks_partition_basis(self):
        group = sign_symmetries(extended_lorenz().system, 2)
        basis = SupportSet.of(5, monomial_basis(5, 2))
        blocks = symmetry_blocks(group, basis)
        seen = [alpha for block in blocks for alpha in block]
        assert sorted(seen) == sorted(basis)
        assert len(blocks) <= 2**group.rank

    def test_stabilized_cliques_equal_blocks_everywhere(self):
        for model in (
            lorenz(),
            coupled_cubic(),
            semi_coupled_cubic(),
            extended_lorenz(),
            random_network_model(6, 0),
        ):
            sys = model.system
            chain = stabilized_chain(sys, 2)
            group = sign_symmetries(sys, 2)
            s_fix = len(chain.v.graphs)
            l_fix = len(chain.w.graphs)
            for graphs in (chain.v.extended_at(s_fix), chain.w.extended_at(l_fix)):
                for g in graphs:
                    blocks = symmetry_blocks(group, SupportSet.of(sys.dim, g.nodes))
                    assert same_sets(g, blocks), model.name

    def test_first_step_not_yet_converged(self):
        sys = lorenz().system
        chain = stabilized_chain(sys, 2)
        group = sign_symmetries(sys, 2)
        g = chain.v.extended_at(1)[3]
        blocks = symmetry_blocks(group, SupportSet.of(3, g.nodes))
        assert not same_sets(g, blocks)
