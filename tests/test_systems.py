"""Bundled benchmark models: exact coefficients, box data, and the seeded
random-network sampler."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from mpisos.systems import (
    coupled_cubic,
    extended_lorenz,
    fixed_models,
    lorenz,
    random_network_model,
    semi_coupled_cubic,
)


def _components(n: int, edges) -> int:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(v) for v in range(n)})


class TestFixedModels:
    def test_catalogue(self):
        names = [m.name for m in fixed_models()]
        assert names == [
            "lorenz",
            "coupled-cubic",
            "semi-coupled-cubic",
            "extended-lorenz",
        ]

    def test_lorenz_coefficients(self):
        sys = lorenz().system
        assert sys.dim == 3
        assert sys.field_degree == 2
        assert sys.constraint_degrees == (2, 2, 2)
        assert sys.field[0].coefficient((0, 1, 0)) == 10.0
        assert sys.field[1].coefficient((1, 0, 1)) == -1.0
        assert sys.field[2].coefficient((0, 0, 1)) == -float(Fraction(8, 3))

    def test_cubic_models_expand_products(self):
        sys = coupled_cubic().system
        assert sys.field_degree == 3
        assert sys.field[0].coefficient((3, 0, 0)) == 1.0
        assert sys.field[0].coefficient((1, 2, 0)) == 1.0
        assert sys.field[0].coefficient((1, 0, 0)) == -0.25
        assert sys.field[2].coefficient((0, 2, 1)) == 1.0
        semi = semi_coupled_cubic().system
        assert semi.field[1].sorted_terms() == [((0, 1, 0), 1.0)]
        assert semi.field[0] == sys.field[0]
        assert semi.field[2] == sys.field[2]

    def test_extended_lorenz_coefficients(self):
        sys = extended_lorenz().system
        assert sys.dim == 5
        assert sys.field[1].coefficient((1, 0, 0, 0, 0)) == -float(Fraction(70, 3))
        assert sys.field[1].coefficient((1, 0, 1, 0, 0)) == float(Fraction(125, 3))
        assert sys.field[3].coefficient((0, 0, 0, 1, 0)) == 10.0
        assert sys.field[3].coefficient((1, 0, 0, 0, 0)) == -10.0
        assert sys.field[4].coefficient((1, 0, 1, 0, 0)) == -1.0

    def test_boxes_are_unit(self):
        for model in fixed_models():
            assert model.bounds == ((-1.0, 1.0),) * model.system.dim
            for i, p in enumerate(model.system.constraints):
                alpha = tuple(2 if k == i else 0 for k in range(model.system.dim))
                assert p.coefficient(alpha) == -1.0
                assert p.coefficient((0,) * model.system.dim) == 1.0


class TestRandomNetworks:
    def test_edge_count_and_definiteness(self):
        for n in (5, 6, 8, 10):
            model = random_network_model(n, seed=7)
            assert len(model.edges) == n - 4
            b = np.array(model.matrix)
            assert np.allclose(b, b.T)
            assert np.linalg.eigvalsh(b).min() > 0
            assert model.attempts >= 1

    def test_matrix_ranges(self):
        model = random_network_model(10, seed=3)
        b = np.array(model.matrix)
        diag = np.diag(b)
        assert ((diag >= 1.0) & (diag <= 2.0)).all()
        off = b[~np.eye(10, dtype=bool)]
        nonzero = off[off != 0]
        assert len(nonzero) == 2 * len(model.edges)
        assert (np.abs(nonzero) <= 0.5).all()
        for i, j in model.edges:
            assert i < j and b[i, j] != 0

    def test_seeded_determinism(self):
        assert random_network_model(8, 11) == random_network_model(8, 11)
        assert random_network_model(8, 11) != random_network_model(8, 12)

    def test_field_matches_quadratic_form(self):
        model = random_network_model(6, seed=2)
        b = np.array(model.matrix)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=6)
            scale = x @ b @ x - 1.0
            for i, f in enumerate(model.system.field):
                assert f(tuple(x)) == pytest.approx(scale * x[i], rel=1e-12)

    @pytest.mark.parametrize("seed", [-1, 2.0, 0.5, True, "3", None])
    def test_rejects_seeds_that_are_not_nonnegative_integers(self, seed):
        with pytest.raises(ValueError, match="nonnegative integer"):
            random_network_model(6, seed)

    def test_accepts_numpy_integer_seeds(self):
        assert random_network_model(6, np.int64(3)) == random_network_model(6, 3)

    def test_edgeless_at_n4_and_rejects_below(self):
        model = random_network_model(4, seed=0)
        assert model.edges == ()
        with pytest.raises(ValueError):
            random_network_model(3, seed=0)

    def test_component_count_bounds_symmetry_rank(self):
        model = random_network_model(9, seed=5)
        assert _components(9, model.edges) >= 4
