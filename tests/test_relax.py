"""Tests for SDP assembly, certificate recovery, and the grid sampler."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from oracles import recover_residuals_loop

from mpisos.poly import Polynomial, lie_polynomial, monomial_basis
from mpisos.relax import (
    Box,
    CertificateSet,
    SdpProblem,
    assemble,
    box_moment,
    outer_approx_grid,
    recover,
)
from mpisos.sparsity import RelaxationConfig
from mpisos.systems import (
    coupled_cubic,
    extended_lorenz,
    lorenz,
    semi_coupled_cubic,
)

UNIT3 = Box.symmetric(3)


def _assemble(model, **kw):
    cfg = RelaxationConfig(**kw)
    return assemble(model.system, Box.from_bounds(model.bounds), cfg)


def _structure(problem):
    """Block sizes per certificate, equality counts per identity and
    free-variable counts per kind."""
    return (
        sorted((b.certificate, b.dimension) for b in problem.blocks),
        Counter(e.identity for e in problem.equalities),
        Counter(kind for kind, _ in problem.free_labels),
    )


def _feasible_point(problem):
    """The certificate v = 0, w = 1, b_0 = 1, everything else zero."""
    zero = (0,) * problem.system.dim
    mats = [np.zeros((b.dimension, b.dimension)) for b in problem.blocks]
    hit = next(
        i
        for i, b in enumerate(problem.blocks)
        if b.certificate == "b" and b.multiplier == 0 and zero in b.exponents
    )
    pos = problem.blocks[hit].exponents.index(zero)
    mats[hit][pos, pos] = 1.0
    free = np.zeros(problem.free_count)
    free[problem.free_labels.index(("w", zero))] = 1.0
    return mats, free


class TestBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            Box((0.0,), (0.0,))
        with pytest.raises(ValueError):
            Box((1.0,), (-1.0,))
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0,))
        with pytest.raises(ValueError):
            Box((), ())

    def test_constructors(self):
        b = Box.symmetric(3, 2.0)
        assert b.lo == (-2.0, -2.0, -2.0) and b.hi == (2.0, 2.0, 2.0)
        c = Box.from_bounds([(-1, 1), (0, 2)])
        assert c.bounds == ((-1.0, 1.0), (0.0, 2.0))
        assert c.volume() == pytest.approx(4.0)

    def test_moments(self):
        assert box_moment((0, 0, 0), UNIT3) == pytest.approx(8.0)
        assert box_moment((2, 0, 0), UNIT3) == pytest.approx(8.0 / 3.0)
        assert box_moment((1, 0, 0), UNIT3) == pytest.approx(0.0)
        assert box_moment((1, 1, 0), UNIT3) == pytest.approx(0.0)
        asym = Box((0.0,), (2.0,))
        assert box_moment((1,), asym) == pytest.approx(2.0)
        assert box_moment((3,), asym) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            box_moment((1, 0), asym)


class TestAssembly:
    def test_rejects_non_box_domain(self):
        m = lorenz()
        cfg = RelaxationConfig(d=2)
        with pytest.raises(ValueError, match="[Bb]ox"):
            assemble(m.system, None, cfg)
        with pytest.raises(ValueError, match="dimension"):
            assemble(m.system, Box.symmetric(2), cfg)

    def test_rejects_too_small_order(self):
        m = coupled_cubic()
        with pytest.raises(ValueError):
            _assemble(m, d=1)

    def test_dense_block_dimensions(self):
        p = _assemble(extended_lorenz(), d=4, mode="fd")
        assert p.blocks[0].label == ("a", 0, 0)
        assert p.blocks[0].dimension == 126
        for b in p.blocks:
            if b.multiplier > 0:
                assert b.dimension == len(monomial_basis(5, 3))
        # one block per multiplier and certificate family
        assert len(p.blocks) == 3 * 6

    def test_lorenz_sparse_block_sizes(self):
        p = _assemble(lorenz(), d=2, s=2, l=2)
        a0 = sorted(
            b.dimension
            for b in p.blocks
            if b.certificate == "a" and b.multiplier == 0
        )
        assert a0 == [4, 6]
        for cert in ("b", "c"):
            top = sorted(
                b.dimension
                for b in p.blocks
                if b.certificate == cert and b.multiplier == 0
            )
            assert top == [4, 6]

    def test_metadata_and_counts(self):
        p = _assemble(lorenz(), d=2, s=2, l=2)
        assert p.metadata["v_stabilized"] and p.metadata["w_stabilized"]
        assert p.metadata["v_support_size"] == 10
        assert p.metadata["w_support_size"] == 19
        assert p.free_count == 29
        assert p.metadata["block_count"] == len(p.blocks)

    def test_stabilized_ts_matches_ss_structure(self):
        ts = _assemble(lorenz(), d=2, s=2, l=2)
        ss = _assemble(lorenz(), d=2, mode="ss")
        assert _structure(ts) == _structure(ss)
        first = _assemble(lorenz(), d=2, s=1, l=1)
        assert _structure(first) != _structure(ss)

    def test_gram_scalar_counts_shrink(self):
        fd = _assemble(lorenz(), d=2, mode="fd")
        ts1 = _assemble(lorenz(), d=2, s=1, l=1)
        ts2 = _assemble(lorenz(), d=2, s=2, l=2)
        ss = _assemble(lorenz(), d=2, mode="ss")
        assert fd.gram_variable_count() == 255
        assert ts1.gram_variable_count() < fd.gram_variable_count()
        assert ts2.gram_variable_count() <= fd.gram_variable_count()
        assert ss.gram_variable_count() == ts2.gram_variable_count()

    def test_structural_invariants(self):
        for p in (
            _assemble(lorenz(), d=2, s=1, l=2),
            _assemble(coupled_cubic(), d=2, mode="ss"),
            _assemble(semi_coupled_cubic(), d=2, mode="fd"),
        ):
            n_free = p.free_count
            w_cols = {
                k for k, (kind, _) in enumerate(p.free_labels) if kind == "w"
            }
            for eq in p.equalities:
                assert eq.identity in ("lie", "w", "wv")
                for block_id, r, c, coef in eq.block_entries:
                    assert 0 <= block_id < len(p.blocks)
                    assert 0 <= r <= c < p.blocks[block_id].dimension
                    assert coef != 0.0
                for col, coef in eq.free_entries:
                    assert 0 <= col < n_free
                    assert coef != 0.0
            # objective touches only w coefficients
            for k, coef in enumerate(p.objective_free):
                if coef != 0.0:
                    assert k in w_cols
            # free labels are unique and ordered v then w
            assert len(set(p.free_labels)) == n_free
            kinds = [kind for kind, _ in p.free_labels]
            assert kinds == sorted(kinds, key=lambda k: 0 if k == "v" else 1)

    def test_equality_rows_cover_identity_supports(self):
        p = _assemble(lorenz(), d=2, s=1, l=1)
        lie_rows = {e.alpha for e in p.equalities if e.identity == "lie"}
        v_exps = [a for kind, a in p.free_labels if kind == "v"]
        for gamma in v_exps:
            mono = Polynomial(3, {gamma: 1.0})
            for alpha in lie_polynomial(mono, p.system).terms:
                assert alpha in lie_rows
        wv_rows = {e.alpha for e in p.equalities if e.identity == "wv"}
        assert (0, 0, 0) in wv_rows
        rhs = [e.rhs for e in p.equalities if e.identity == "wv"]
        assert sorted(rhs) == [-1.0] + [0.0] * (len(rhs) - 1)

    def test_equalities_encode_polynomial_identities(self):
        """Random assignments: the equality residuals must equal the
        coefficients of the matched polynomial combination."""
        rng = np.random.default_rng(7)
        cases = [
            _assemble(lorenz(), d=2, s=1, l=2),
            _assemble(coupled_cubic(), d=2, mode="ss"),
            _assemble(semi_coupled_cubic(), d=2, mode="fd"),
        ]
        for p in cases:
            n = p.system.dim
            beta = p.config.beta
            mats = []
            for b in p.blocks:
                raw = rng.normal(size=(b.dimension, b.dimension))
                mats.append(0.5 * (raw + raw.T))
            free = rng.normal(size=p.free_count)
            v_terms = {}
            w_terms = {}
            for (kind, alpha), val in zip(p.free_labels, free):
                (v_terms if kind == "v" else w_terms)[alpha] = val
            v = Polynomial.from_terms(n, v_terms)
            w = Polynomial.from_terms(n, w_terms)

            def gram_poly(block, mat):
                terms = {}
                for r, br in enumerate(block.exponents):
                    for c, bc in enumerate(block.exponents):
                        key = tuple(x + y for x, y in zip(br, bc))
                        terms[key] = terms.get(key, 0.0) + mat[r, c]
                return Polynomial.from_terms(n, terms)

            mult = p.system.multipliers()
            sums = {
                "a": Polynomial.zero(n),
                "b": Polynomial.zero(n),
                "c": Polynomial.zero(n),
            }
            for block, mat in zip(p.blocks, mats):
                sums[block.certificate] = sums[block.certificate] + gram_poly(
                    block, mat
                ) * mult[block.multiplier]
            one = Polynomial.constant(n, 1.0)
            expected = {
                "lie": sums["a"] - lie_polynomial(v, p.system, beta),
                "w": sums["b"] - w,
                "wv": sums["c"] - w + v + one,
            }
            for eq in p.equalities:
                total = -eq.rhs
                for block_id, r, c, coef in eq.block_entries:
                    scale = 1.0 if r == c else 2.0
                    total += coef * mats[block_id][r, c] * scale
                for col, coef in eq.free_entries:
                    total += coef * free[col]
                want = expected[eq.identity].terms.get(eq.alpha, 0.0)
                if eq.identity == "wv" and eq.alpha == (0,) * n:
                    pass  # rhs already folds the constant in
                assert total == pytest.approx(want, abs=1e-9), (
                    eq.identity,
                    eq.alpha,
                )
            # and the rows cover every exponent those combinations can touch
            for ident, poly in expected.items():
                rows = {e.alpha for e in p.equalities if e.identity == ident}
                assert set(poly.terms) <= rows


class TestRecovery:
    def test_handbuilt_feasible_point(self):
        for model, volume in ((lorenz(), 8.0), (extended_lorenz(), 32.0)):
            p = _assemble(model, d=2, s=1, l=1)
            mats, free = _feasible_point(p)
            cert = recover(p, mats, free)
            assert cert.ok
            assert max(cert.residuals.values()) == pytest.approx(0.0, abs=1e-12)
            assert cert.objective == pytest.approx(volume)
            assert cert.w.terms == {(0,) * p.system.dim: 1.0}
            assert cert.v.terms == {}
            assert all(e >= -1e-12 for e in cert.min_eigenvalues.values())

    def test_objective_matches_moment_functional(self):
        p = _assemble(lorenz(), d=2, mode="fd")
        rng = np.random.default_rng(3)
        free = rng.normal(size=p.free_count)
        mats = [np.zeros((b.dimension, b.dimension)) for b in p.blocks]
        cert = recover(p, mats, free)
        want = 0.0
        for (kind, alpha), val in zip(p.free_labels, free):
            if kind == "w":
                want += val * box_moment(alpha, p.box)
        assert cert.objective == pytest.approx(want)

    def test_flags_negative_eigenvalue(self):
        p = _assemble(lorenz(), d=2, s=1, l=1)
        mats, free = _feasible_point(p)
        k = next(i for i, b in enumerate(p.blocks) if b.certificate == "a")
        mats[k] = mats[k].copy()
        mats[k][0, 0] = -1.0
        cert = recover(p, mats, free)
        assert not cert.ok
        assert any("eigenvalue" in f for f in cert.flags)
        assert any("residual" in f for f in cert.flags)

    @pytest.mark.parametrize("case", [0, 1, 2, "negative-eigenvalue"])
    def test_residuals_match_loop_reference(self, case):
        # the three problems of test_equalities_encode_polynomial_identities
        # at a random, non-symmetric point, and the perturbed point of
        # test_flags_negative_eigenvalue
        if case == "negative-eigenvalue":
            p = _assemble(lorenz(), d=2, s=1, l=1)
            mats, free = _feasible_point(p)
            k = next(i for i, b in enumerate(p.blocks) if b.certificate == "a")
            mats[k][0, 0] = -1.0
        else:
            model, config = [
                (lorenz(), dict(s=1, l=2)),
                (coupled_cubic(), dict(mode="ss")),
                (semi_coupled_cubic(), dict(mode="fd")),
            ][case]
            p = _assemble(model, d=2, **config)
            rng = np.random.default_rng(7)
            mats = [rng.normal(size=(b.dimension, b.dimension)) for b in p.blocks]
            free = rng.normal(size=p.free_count)
        residuals, flags = recover_residuals_loop(p, mats, free)
        cert = recover(p, mats, free)
        assert cert.residuals == pytest.approx(residuals, rel=1e-12, abs=1e-12)
        assert [f for f in cert.flags if "residual" in f] == flags
        assert flags

    def test_flags_asymmetric_block(self):
        p = _assemble(lorenz(), d=2, s=1, l=1)
        mats, free = _feasible_point(p)
        k = next(i for i, b in enumerate(p.blocks) if b.dimension >= 2)
        mats[k] = mats[k].copy()
        mats[k][0, 1] = 0.5
        cert = recover(p, mats, free)
        assert any("symmetric" in f for f in cert.flags)

    def test_shape_errors(self):
        p = _assemble(lorenz(), d=2, s=1, l=1)
        mats, free = _feasible_point(p)
        with pytest.raises(ValueError):
            recover(p, mats[:-1], free)
        with pytest.raises(ValueError):
            recover(p, mats, free[:-1])
        bad = list(mats)
        bad[0] = np.zeros((1, 1))
        if p.blocks[0].dimension != 1:
            with pytest.raises(ValueError):
                recover(p, bad, free)


class TestGrid:
    def test_constant_levels(self):
        two = Polynomial.constant(2, 2.0)
        pts, vals = outer_approx_grid(two, Box.symmetric(2), 5)
        assert len(pts) == 25
        assert np.all(vals == 2.0)
        # any integral resolution, numpy's among them
        for res in (np.int64(5), np.uint8(5)):
            again, _ = outer_approx_grid(two, Box.symmetric(2), res)
            assert np.array_equal(again, pts)
        zero = Polynomial.constant(2, 0.0)
        pts, vals = outer_approx_grid(zero, Box.symmetric(2), 5)
        assert len(pts) == 0

    def test_quadratic_boundary(self):
        w = Polynomial(2, {(2, 0): 1.0})
        pts, vals = outer_approx_grid(w, Box.symmetric(2), 5)
        assert sorted(set(pts[:, 0])) == [-1.0, 1.0]
        assert len(pts) == 10
        assert np.all(vals == pytest.approx(1.0))

    def test_per_axis_resolution(self):
        w = Polynomial.constant(2, 1.0)
        pts, _ = outer_approx_grid(w, Box.symmetric(2), (2, 7))
        assert len(pts) == 14
        xs = sorted(set(pts[:, 0]))
        assert xs == [-1.0, 1.0]

    def test_rejects_bad_resolution(self):
        w = Polynomial.constant(2, 1.0)
        with pytest.raises(ValueError):
            outer_approx_grid(w, Box.symmetric(2), 1)
        with pytest.raises(ValueError):
            outer_approx_grid(w, Box.symmetric(2), (5,))
        with pytest.raises(ValueError):
            outer_approx_grid(w, Box.symmetric(3), 300)
        with pytest.raises(ValueError):
            outer_approx_grid(w, Box.symmetric(2), np.int64(1))
        with pytest.raises(TypeError):
            outer_approx_grid(w, Box.symmetric(2), True)
        # each count of a sequence obeys the rule for one count
        for resolution in [(2.5, 7), ("3", 4.9), (3.0, 3), 2.5]:
            with pytest.raises(ValueError):
                outer_approx_grid(w, Box.symmetric(2), resolution)
        with pytest.raises(TypeError):
            outer_approx_grid(w, Box.symmetric(2), (True, 3))
