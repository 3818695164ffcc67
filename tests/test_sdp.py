"""Tests for the interior-point solver and the SDPA export."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from oracles import admm_sdp
from sdpa_reader import entry_problem, fold_free_pairs, parse_sdpa

from mpisos import sdp
from mpisos.relax import Box, assemble
from mpisos.sdp import (
    BlockProblem,
    SdpSolution,
    SolverBreakdown,
    SolverTolerances,
    _ExactSchur,
    _chol_lower,
    _equilibrated,
    _factor_solve,
    _max_step,
    _mirror,
    _nt_scaling,
    _sandwich,
    _schur,
    _schur_factor,
    _schur_product,
    _schur_solve,
    _split_w,
    _step_length,
    _with_trace_bound,
    export_sdpa,
    reduce_free_variables,
    solve,
    solve_block_problem,
    standardize,
)
from mpisos.sparsity import RelaxationConfig
from mpisos.systems import extended_lorenz, lorenz, random_network_model


def eigenvalue_problem() -> BlockProblem:
    """minimize t subject to [[t, 1], [1, t]] PSD; optimum t = 1."""
    return entry_problem(
        [2],
        [
            [(0, 0, 0, 1.0)],
            [(0, 1, 1, 1.0)],
            [(0, 0, 1, 0.5)],
        ],
        B=np.array([[-1.0], [-1.0], [0.0]]),
        b=np.array([0.0, 0.0, 1.0]),
        c_free=np.array([1.0]),
    )


def sos_problem() -> BlockProblem:
    """Gram feasibility of x^2 + 1 on the basis (1, x)."""
    return entry_problem(
        [2],
        [
            [(0, 0, 0, 1.0)],
            [(0, 0, 1, 1.0)],
            [(0, 1, 1, 1.0)],
        ],
        B=np.zeros((3, 0)),
        b=np.array([1.0, 0.0, 1.0]),
        c_free=np.zeros(0),
    )


def epigraph_problem(C, A_list, b) -> BlockProblem:
    """min <C, X> s.t. <A_l, X> = b_l as min t with t free."""
    n = C.shape[0]

    def upper(mat):
        return [
            (0, r, c, float(mat[r, c]))
            for r in range(n)
            for c in range(r, n)
            if mat[r, c] != 0.0
        ]

    entries = [upper(C)] + [upper(A) for A in A_list]
    B = np.zeros((1 + len(A_list), 1))
    B[0, 0] = -1.0
    rhs = np.concatenate([[0.0], b])
    return entry_problem([n], entries, B, rhs, np.array([1.0]))


class TestSolver:
    def test_eigenvalue_bound(self):
        sol = solve_block_problem(eigenvalue_problem())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-6)
        assert sol.block_values[0] == pytest.approx(np.ones((2, 2)), abs=1e-6)
        assert max(sol.residuals.values()) <= 1e-7

    def test_sos_gram(self):
        sol = solve_block_problem(sos_problem())
        assert sol.status == "optimal"
        assert sol.objective == 0.0
        assert sol.block_values[0] == pytest.approx(np.eye(2), abs=1e-6)

    def test_matches_first_order_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n = 3
            G = rng.normal(size=(n, n))
            C = G @ G.T + 0.5 * np.eye(n)
            A_list = []
            for _ in range(2):
                raw = rng.normal(size=(n, n))
                A_list.append(0.5 * (raw + raw.T))
            L = rng.normal(size=(n, n))
            Q0 = L @ L.T + 0.5 * np.eye(n)
            b = np.array([float(np.sum(A * Q0)) for A in A_list])
            sol = solve_block_problem(epigraph_problem(C, A_list, b))
            ref_obj, _ = admm_sdp(C, A_list, b)
            assert sol.status == "optimal", f"trial {trial}"
            assert sol.objective == pytest.approx(ref_obj, abs=1e-4), f"trial {trial}"

    def test_weak_duality_along_trace(self):
        m = lorenz()
        p = assemble(
            m.system, Box.from_bounds(m.bounds), RelaxationConfig(d=2, s=1, l=1)
        )
        sol = solve(p)
        assert sol.status == "optimal"
        for rec in sol.trace:
            lhs = rec.primal_objective - rec.dual_objective
            assert lhs >= -rec.duality_slack - 1e-8 * (
                1.0 + abs(rec.primal_objective)
            )

    def test_returned_blocks_are_psd(self):
        sol = solve_block_problem(eigenvalue_problem())
        for mat in sol.block_values:
            norm = np.linalg.norm(mat)
            assert np.linalg.eigvalsh(mat).min() >= -1e-8 * (1.0 + norm)
        m = lorenz()
        p = assemble(
            m.system, Box.from_bounds(m.bounds), RelaxationConfig(d=2, mode="ss")
        )
        sol = solve(p)
        assert sol.status == "optimal"
        for mat in sol.block_values:
            norm = np.linalg.norm(mat)
            assert np.linalg.eigvalsh(mat).min() >= -1e-8 * (1.0 + norm)

    def test_residuals_recomputed_from_iterate(self):
        bp = eigenvalue_problem()
        sol = solve_block_problem(bp)
        r_p = bp.b - bp.apply_A(sol.block_values) - bp.B @ sol.free_values
        want = np.linalg.norm(r_p) / (1.0 + np.linalg.norm(bp.b))
        assert sol.residuals["primal_infeasibility"] == pytest.approx(
            want, abs=1e-14
        )

    def test_deterministic(self):
        a = solve_block_problem(eigenvalue_problem())
        b = solve_block_problem(eigenvalue_problem())
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert np.array_equal(a.free_values, b.free_values)
        assert all(
            np.array_equal(x, y) for x, y in zip(a.block_values, b.block_values)
        )

    def test_phase_timings(self):
        sol = solve(lorenz_problem(2))
        phases = {"presolve", "scaling", "schur", "factor", "solve", "nt_scaling", "step_length"}
        assert set(sol.timings) == phases | {"total"}
        assert all(t >= 0.0 for t in sol.timings.values())
        assert sum(sol.timings[p] for p in phases) <= sol.timings["total"]
        assert sol.timings["schur"] > 0.0

    def test_infeasible_flagged(self):
        bp = entry_problem(
            [1],
            [[(0, 0, 0, 1.0)]],
            B=np.zeros((1, 0)),
            b=np.array([-1.0]),
            c_free=np.zeros(0),
        )
        sol = solve_block_problem(bp)
        assert sol.status == "infeasible_flag"

    def test_iteration_cap(self):
        tol = SolverTolerances(max_iterations=2)
        sol = solve_block_problem(eigenvalue_problem(), tol)
        assert sol.status == "max_iter"
        assert sol.iterations == 2

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            SolverTolerances(gap=0.0)
        with pytest.raises(ValueError):
            SolverTolerances(max_iterations=0)
        # NaN compares false both ways, so no solve could end optimal
        with pytest.raises(ValueError):
            SolverTolerances(gap=float("nan"))
        with pytest.raises(ValueError):
            SolverTolerances(feasibility=float("nan"))
        for count in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError):
                SolverTolerances(max_iterations=count)
        assert SolverTolerances(max_iterations=np.int64(3)).max_iterations == 3

    def test_block_problem_validation(self):
        with pytest.raises(ValueError):
            entry_problem(
                [2],
                [[(1, 0, 0, 1.0)]],
                B=np.zeros((1, 0)),
                b=np.array([1.0]),
                c_free=np.zeros(0),
            )
        with pytest.raises(ValueError):
            entry_problem(
                [2],
                [[(0, 1, 0, 1.0)]],
                B=np.zeros((1, 0)),
                b=np.array([1.0]),
                c_free=np.zeros(0),
            )
        with pytest.raises(ValueError):
            entry_problem(
                [2],
                [[(0, 0, 0, 1.0)]],
                B=np.zeros((1, 1)),
                b=np.array([1.0]),
                c_free=np.zeros(2),
            )
        # A needs one row per equality and n^2 columns per block
        for shape in [(1, 3), (2, 4)]:
            with pytest.raises(ValueError, match="sum"):
                BlockProblem([2], sp.csr_matrix(shape), np.zeros((1, 0)), np.ones(1), np.zeros(0))
        # c needs one entry per column of A, and b is one vector
        for c in [np.zeros(3), np.zeros(5), np.zeros((2, 2))]:
            with pytest.raises(ValueError, match="c must"):
                BlockProblem([2], sp.csr_matrix((1, 4)), np.zeros((1, 0)), np.ones(1), np.zeros(0), c)
        with pytest.raises(ValueError, match="b must"):
            BlockProblem([2], sp.csr_matrix((1, 4)), np.zeros((1, 0)), np.ones((1, 1)), np.zeros(0))


class TestExport:
    def test_eigenvalue_export_golden(self):
        text = export_sdpa(eigenvalue_problem())
        assert text == (
            "3\n"
            "2\n"
            "2 -2\n"
            "0 0 1\n"
            "0 2 1 1 -1\n"
            "0 2 2 2 1\n"
            "1 1 1 1 1\n"
            "1 2 1 1 -1\n"
            "1 2 2 2 1\n"
            "2 1 2 2 1\n"
            "2 2 1 1 -1\n"
            "2 2 2 2 1\n"
            "3 1 1 2 0.5\n"
        )

    def test_export_deterministic(self):
        m = lorenz()
        box = Box.from_bounds(m.bounds)
        cfg = RelaxationConfig(d=2, s=1, l=1)
        a = export_sdpa(assemble(m.system, box, cfg))
        b = export_sdpa(assemble(m.system, box, cfg))
        assert a == b

    def test_round_trip_structure(self):
        bp = eigenvalue_problem()
        text = export_sdpa(bp)
        sizes, equalities, B, b, c_free, C = fold_free_pairs(*parse_sdpa(text))
        assert sizes == [2]
        assert np.array_equal(b, bp.b)
        assert np.array_equal(B, bp.B.toarray())
        assert np.array_equal(c_free, bp.c_free)
        assert C is None
        rebuilt = entry_problem(sizes, equalities, B, b, c_free)
        assert rebuilt.A.shape == bp.A.shape
        assert (rebuilt.A != bp.A).nnz == 0

    def test_round_trip_assembled_objective(self):
        m = lorenz()
        p = assemble(
            m.system, Box.from_bounds(m.bounds), RelaxationConfig(d=2, s=1, l=1)
        )
        direct = solve(p)
        text = export_sdpa(p)
        rebuilt = entry_problem(*fold_free_pairs(*parse_sdpa(text)))
        again = solve_block_problem(rebuilt)
        assert again.status == "optimal"
        assert again.objective == pytest.approx(direct.objective, rel=1e-6)

    def test_round_trip_psd_cost(self):
        # the PSD cost leaves as matrix 0, negated, upper triangle only
        C = [np.array([[2.0, 0.5], [0.5, 0.0]])]
        bp = entry_problem(
            [2], [[(0, 0, 0, 1.0)], [(0, 1, 1, 1.0)]],
            B=np.zeros((2, 0)), b=np.ones(2), c_free=np.zeros(0), C=C,
        )
        text = export_sdpa(bp)
        assert text.splitlines()[4:6] == ["0 1 1 1 -2", "0 1 1 2 -0.5"]
        rebuilt = entry_problem(*fold_free_pairs(*parse_sdpa(text)))
        assert np.array_equal(rebuilt.c, bp.c)
        # min 2 X_00 + X_01 with unit diagonal: X_01 = -1
        assert solve_block_problem(rebuilt).objective == pytest.approx(1.0, rel=1e-6)

    def test_free_block_only_when_needed(self):
        text = export_sdpa(sos_problem())
        lines = text.splitlines()
        assert lines[1] == "1"
        assert lines[2] == "2"


class TestStandardize:
    def test_matches_equalities(self):
        m = lorenz()
        p = assemble(
            m.system, Box.from_bounds(m.bounds), RelaxationConfig(d=2, s=2, l=2)
        )
        bp = standardize(p)
        assert bp.m == len(p.equalities)
        assert bp.n_free == p.free_count
        assert bp.block_sizes == tuple(b.dimension for b in p.blocks)
        assert np.array_equal(
            bp.c_free, np.asarray(p.objective_free, dtype=float)
        )
        # random assignment: <A_i, X> via P agrees with the entry convention
        rng = np.random.default_rng(11)
        X = []
        for n in bp.block_sizes:
            raw = rng.normal(size=(n, n))
            X.append(0.5 * (raw + raw.T))
        ax = bp.apply_A(X)
        for i, eq in enumerate(p.equalities):
            want = 0.0
            for k, r, c, coef in eq.block_entries:
                want += coef * X[k][r, c] * (1.0 if r == c else 2.0)
            assert ax[i] == pytest.approx(want, abs=1e-10)
        # the free columns and right-hand sides, row by row
        u = rng.normal(size=bp.n_free)
        bu = bp.B @ u
        for i, eq in enumerate(p.equalities):
            want = sum(coef * u[col] for col, coef in eq.free_entries)
            assert bu[i] == pytest.approx(want, abs=1e-12)
        assert np.array_equal(bp.b, [eq.rhs for eq in p.equalities])


def lorenz_problem(d: int, mode: str = "ts"):
    m = lorenz()
    return assemble(
        m.system, Box.from_bounds(m.bounds), RelaxationConfig(d=d, mode=mode)
    )


def random_blocks(rng, sizes) -> list[np.ndarray]:
    out = []
    for n in sizes:
        raw = rng.normal(size=(n, n))
        out.append(0.5 * (raw + raw.T))
    return out


def dense_operator(sizes, entries) -> np.ndarray:
    """Reference operator: row i holds <A_i, X> over the row-major blocks,
    with duplicate entries summed and off-diagonal entries mirrored."""
    offsets = np.concatenate([[0], np.cumsum([n * n for n in sizes])])
    dense = np.zeros((len(entries), offsets[-1]))
    for i, row in enumerate(entries):
        for k, r, c, v in row:
            n = sizes[k]
            dense[i, offsets[k] + r * n + c] += v
            if r != c:
                dense[i, offsets[k] + c * n + r] += v
    return dense


def duplicate_entry_problem():
    sizes = [2, 3]
    entries = [
        [(0, 0, 1, 0.5), (0, 0, 1, 0.25), (1, 2, 2, -1.0)],
        [(1, 0, 2, 2.0), (0, 1, 1, 1.0), (1, 0, 2, -3.0), (1, 1, 1, 4.0)],
        [(1, 1, 2, 1.5), (1, 1, 2, 1.5), (0, 0, 0, 1.0), (0, 0, 0, 1.0)],
    ]
    bp = entry_problem(
        sizes, entries, B=np.zeros((3, 0)), b=np.ones(3), c_free=np.zeros(0)
    )
    return bp, sizes, entries


class TestOperator:
    @pytest.mark.parametrize("case", ["lorenz-ts", "duplicates"])
    def test_matches_dense_reference(self, case):
        if case == "duplicates":
            bp, sizes, entries = duplicate_entry_problem()
        else:
            p = lorenz_problem(2)
            bp = standardize(p)
            sizes = [blk.dimension for blk in p.blocks]
            entries = [eq.block_entries for eq in p.equalities]
        dense = dense_operator(sizes, entries)
        rng = np.random.default_rng(5)
        X = random_blocks(rng, sizes)
        flat = np.concatenate([Xk.ravel() for Xk in X])
        assert np.allclose(bp.apply_A(X), dense @ flat, rtol=0, atol=1e-12)
        y = rng.normal(size=bp.m)
        At = bp.apply_At(y)
        want = dense.T @ y
        assert np.allclose(
            np.concatenate([Ak.ravel() for Ak in At]), want, rtol=0, atol=1e-12
        )
        # adjoint: <A X, y> = sum_k <X_k, (A^T y)_k>
        lhs = float(bp.apply_A(X) @ y)
        rhs = sum(float(np.sum(Xk * Ak)) for Xk, Ak in zip(X, At))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def cancelling_problem(rhs_1: float) -> BlockProblem:
    """Row 0 pins u and row 1 is twice row 0, so substituting u cancels row
    1 to nothing, its right-hand side too when rhs_1 = 2.  Row 2 then reads
    X_00 + X_11 = 1, so min u = 1 - X_00 under X_01 = 0.25 is
    (1 - sqrt(3) / 2) / 2."""
    return entry_problem(
        [2],
        [[(0, 0, 0, 1.0)], [(0, 0, 0, 2.0)], [(0, 1, 1, 1.0)], [(0, 0, 1, 0.5)]],
        B=np.array([[1.0], [2.0], [-1.0], [0.0]]),
        b=np.array([1.0, rhs_1, 0.0, 0.25]),
        c_free=np.array([1.0]),
    )


def pivots_only_problem() -> BlockProblem:
    """Every row is a pivot: row 0 pins u, which leaves row 1 pinning v."""
    return entry_problem(
        [2],
        [[(0, 0, 0, 1.0)], [(0, 1, 1, 1.0), (0, 0, 1, 1.0)]],
        B=np.array([[1.0, 0.0], [1.0, -1.0]]),
        b=np.array([1.0, 0.0]),
        c_free=np.array([1.0, 1.0]),
    )


class TestPresolve:
    @pytest.mark.parametrize("case", ["2-ts", "3-fd", "cancelled-row", "pivots-only"])
    def test_reduction_is_exact(self, case):
        if case == "cancelled-row":
            bp = cancelling_problem(2.0)
        elif case == "pivots-only":
            bp = pivots_only_problem()
        else:
            d, mode = case.split("-")
            bp = standardize(lorenz_problem(int(d), mode))
        red_bp, red = reduce_free_variables(bp)
        assert red is not None
        # rows in neither set cancelled under substitution and left
        dropped = np.setdiff1d(np.arange(bp.m), np.r_[red.pivot_rows, red.kept_rows])
        assert dropped.tolist() == ([1] if case == "cancelled-row" else [])
        assert red_bp.m == len(red.kept_rows)
        assert (red_bp.m == 0) == (case == "pivots-only")
        rng = np.random.default_rng(7)
        X = random_blocks(rng, bp.block_sizes)
        y_red = rng.normal(size=red_bp.m)
        x = np.concatenate([Xk.ravel() for Xk in X])
        u, y = red.recover(x, y_red)
        tol = 1e-10

        def worst(v):
            return float(np.abs(v).max(initial=0.0))

        def objective(p, u):
            return float(p.c @ x + p.c_free @ u) + p.objective_offset

        r_full = bp.b - bp.apply_A(X) - bp.B @ u
        r_red = red_bp.b - red_bp.apply_A(X)
        assert worst(r_full[red.pivot_rows]) <= tol
        assert worst(r_full[red.kept_rows] - r_red) <= tol
        assert worst(r_full[dropped]) <= tol
        assert not np.any(y[dropped])
        assert objective(bp, u) == pytest.approx(
            objective(red_bp, np.zeros(0)), rel=0, abs=tol
        )
        r_free = bp.c_free - bp.B.T @ y
        assert worst(r_free[red.elim_cols]) <= tol
        # the dual slack on the blocks is the same in both problems
        for Ck, Ak, Rk, Qk in zip(
            bp._split(bp.c),
            bp.apply_At(y),
            red_bp._split(red_bp.c),
            red_bp.apply_At(y_red),
        ):
            assert worst((Ck - Ak) - (Rk - Qk)) <= tol

    @pytest.mark.parametrize(
        "case", ["lorenz-2-ts", "lorenz-2-ss", "lorenz-2-fd", "lorenz-3-fd", "net6-ts"]
    )
    def test_every_free_variable_is_pinned(self, case):
        # the solver has no path for free variables: the relaxations must
        # pin each one through a chain of pivot rows
        if case == "net6-ts":
            model = random_network_model(6, seed=1)
            p = assemble(
                model.system,
                Box.from_bounds(model.bounds),
                RelaxationConfig(d=2, mode="ts"),
            )
        else:
            _, d, mode = case.split("-")
            p = lorenz_problem(int(d), mode)
        bp = standardize(p)
        assert bp.n_free > 0
        red_bp, _ = reduce_free_variables(bp)
        assert red_bp.n_free == 0

    def test_pivot_rules(self):
        # free columns u, x, w, v; one 1x1 block so every row stays nonempty
        B = np.zeros((6, 4))
        B[0, 0] = 1e-10  # u's only entry here: active but too small to pivot
        B[1, 2], B[1, 3] = 1.0, -1.0  # pins v once w is gone (second scan)
        B[2, 1] = 2.0  # rows 2 and 3 compete for x; the lower row wins
        B[3, 1] = 1.0
        B[4, 0] = 1.0  # pins u in place of row 0
        B[5, 2] = -1.0  # pins w in the first scan
        bp = entry_problem(
            [1],
            [[(0, 0, 0, float(i + 1))] for i in range(6)],
            B=B,
            b=np.ones(6),
            c_free=np.array([1.0, 0.0, 0.0, 1.0]),
        )
        red_bp, red = reduce_free_variables(bp)
        assert red.pivot_rows.tolist() == [2, 4, 5, 1]
        assert red.elim_cols.tolist() == [1, 0, 2, 3]
        assert red.kept_rows.tolist() == [0, 3]
        assert red_bp.m == 2

    def test_cancelled_row(self):
        # a consistent cancelled row leaves the solution as it was; an
        # inconsistent one is refused
        sol = solve_block_problem(cancelling_problem(2.0))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx((1.0 - np.sqrt(3.0) / 2.0) / 2.0, abs=1e-6)
        assert sol.y[1] == 0.0
        with pytest.raises(ValueError, match="inconsistency"):
            reduce_free_variables(cancelling_problem(3.0))

    def test_unpinned_free_variables_rejected(self):
        # both free variables appear in both rows, so no row pins either
        bp = entry_problem(
            [1],
            [[(0, 0, 0, 1.0)], [(0, 0, 0, 2.0)]],
            B=np.array([[1.0, 1.0], [1.0, -1.0]]),
            b=np.array([1.0, 1.0]),
            c_free=np.array([1.0, 0.0]),
        )
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            solve_block_problem(bp)


class TestScaling:
    def test_equilibration_scales_rows(self):
        bp = standardize(lorenz_problem(2))
        scaled, s = _equilibrated(bp)
        X = random_blocks(np.random.default_rng(3), bp.block_sizes)
        assert np.allclose(
            scaled.apply_A(X), bp.apply_A(X) / s, rtol=1e-14, atol=1e-14
        )
        assert np.allclose(scaled.b, bp.b / s, rtol=1e-15, atol=0)
        assert np.allclose(
            scaled.B.toarray(), bp.B.toarray() / s[:, None], rtol=1e-14
        )

    def test_trace_cap_row(self):
        bp = standardize(lorenz_problem(2))
        capped = _with_trace_bound(bp)
        assert capped.block_sizes == bp.block_sizes + (1,)
        assert capped.m == bp.m + 1
        assert capped.b[-1] == sdp._TRACE_CAP
        assert np.array_equal(capped.b[:-1], bp.b)
        assert not np.any(capped.B[-1].toarray())
        X = random_blocks(np.random.default_rng(4), bp.block_sizes)
        slack = np.array([[2.5]])
        ax = capped.apply_A(X + [slack])
        assert ax[-1] == pytest.approx(
            sum(float(np.trace(Xk)) for Xk in X) + 2.5, rel=1e-14
        )
        assert np.allclose(ax[:-1], bp.apply_A(X), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d, mode", [(2, "ts"), (3, "fd")])
    def test_trace_cap_stays_slack(self, d, mode):
        # solve() applies one fixed cap; a solution pressing against it
        # would mean the cap moved the optimum
        sol = solve(lorenz_problem(d, mode))
        assert sol.status == "optimal"
        assert sol.trace_cap_fraction < 0.5


class TestExtendedEndgame:
    @pytest.mark.parametrize("mode", ["fd", "ss"])
    def test_lorenz_d3_reaches_optimal(self, mode):
        # double refinement alone leaves both near_optimal (objective
        # 3.7154 after 45 iterations); GMRES in long double against the
        # exact Schur operator carries both to the tolerances
        sol = solve(lorenz_problem(3, mode))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.71495742203, rel=1e-6)
        assert sol.residuals["primal_infeasibility"] <= 1e-7
        assert sol.residuals["dual_infeasibility"] <= 1e-7
        assert abs(sol.residuals["relative_gap"]) <= 1e-7


def dense_schur(sizes, A, W) -> np.ndarray:
    """Reference Schur matrix sum_k A_k (W_k (x) W_k) A_k^T from the operator
    A, dense or sparse, whose rows hold each A_ik row-major.  For symmetric
    W_k, (W_k (x) W_k) vec(A_ik) = vec(W_k A_ik W_k), which spares forming
    the Kronecker product of a large block."""
    A = sp.csr_matrix(A)
    offsets = np.concatenate([[0], np.cumsum([n * n for n in sizes])])
    M = np.zeros((A.shape[0], A.shape[0]))
    for k, (n, Wk) in enumerate(zip(sizes, W)):
        Ak = A[:, offsets[k] : offsets[k + 1]]
        rows = np.unique(Ak.nonzero()[0])
        WAW = Wk @ Ak[rows].toarray().reshape(-1, n, n) @ Wk
        M[:, rows] += Ak @ WAW.reshape(len(rows), n * n).T
    return M


def presolved(p) -> BlockProblem:
    """An assembled relaxation as the interior-point loop sees it."""
    bp, _ = reduce_free_variables(standardize(p))
    bp, _ = _equilibrated(_with_trace_bound(bp))
    return bp


def extended_lorenz_problem(d: int, mode: str):
    m = extended_lorenz()
    return assemble(
        m.system, Box.from_bounds(m.bounds), RelaxationConfig(d=d, mode=mode)
    )


def network_problem(n: int, seed: int, mode: str, extension: str = "maximal"):
    model = random_network_model(n, seed)
    return assemble(
        model.system,
        Box.from_bounds(model.bounds),
        RelaxationConfig(d=2, mode=mode, extension=extension),
    )


def support_form_entries() -> tuple[list[int], list[list[tuple]]]:
    """Two n=65 blocks whose A_ik hold 1-3 entries, which puts their class on
    the support form, and a 2x2 block on the dense form.  Rows cycle through
    row supports R of sizes 1, 2 and 3, so a chunk's pairs differ in |R| and
    are padded; a row may repeat an entry, touch both large blocks or the
    small one too; block 1 has fewer pairs than block 0, so its slots are
    padded as well."""
    rng = np.random.default_rng(3)
    entries = []
    for i in range(30):
        a, b, c = sorted(rng.choice(65, size=3, replace=False).tolist())
        row = [
            [(0, a, a, 1.0), (0, a, a, 0.5)],
            [(0, a, b, -1.0 - i)],
            [(0, a, b, 2.0), (0, b, c, 0.5), (0, a, b, 0.25)],
        ][i % 3]
        if i % 4 == 0:
            row.append((1, b, c, 1.5))
        if i % 5 == 0:
            row.append((2, 0, 1, 1.0))
        entries.append(row)
    return [65, 65, 2], entries


class TestSchur:
    CASES = [
        "lorenz-ts-presolved", "hand-built", "support-hand-built", "extlorenz-fd-presolved"
    ]
    # the form each class takes: as chosen, or forced dense or support
    # wherever a class has pairs, so that both forms of U feed the one
    # contraction on every case
    FORMS = {
        "chosen": None,
        "all-dense": lambda n, k, r_size: False,
        "all-support": lambda n, k, r_size: len(r_size) > 0,
    }
    CASE_FORMS = [
        pytest.param(case, form, id=case if form == "chosen" else f"{case}-{form}")
        for form, case in product(FORMS, CASES)
    ]

    @pytest.mark.parametrize("case, form", CASE_FORMS)
    def test_matches_dense_reference(self, case, form, monkeypatch):
        if self.FORMS[form] is not None:
            monkeypatch.setattr(sdp, "_support_pays", self.FORMS[form])
        if case == "hand-built":
            # duplicate and off-diagonal entries, a 1x1 block, a row that
            # touches one block only and a block that one row skips; block 3
            # has fewer pairs than block 0 of its size, so its slots are
            # padded; no row touches block 4, of an existing size, or
            # block 5, the only one of its size
            sizes = [3, 1, 2, 3, 2, 4]
            entries = [
                [(0, 0, 1, 0.5), (0, 0, 1, 0.25), (1, 0, 0, 2.0)],
                [(0, 2, 2, -1.0), (2, 0, 1, 3.0), (2, 0, 1, -1.0), (3, 1, 2, 2.0)],
                [(1, 0, 0, 1.5), (1, 0, 0, 1.5)],
                [(0, 0, 2, 1.0), (0, 1, 1, 4.0), (1, 0, 0, -1.0), (2, 1, 1, 2.0)],
                [(3, 0, 0, -2.0), (3, 1, 2, 0.5), (0, 2, 2, 1.0)],
            ]
            bp = entry_problem(
                sizes, entries, B=np.zeros((5, 0)), b=np.ones(5), c_free=np.zeros(0)
            )
            A = dense_operator(sizes, entries)
        elif case == "support-hand-built":
            sizes, entries = support_form_entries()
            bp = entry_problem(
                sizes, entries, B=np.zeros((30, 0)), b=np.ones(30), c_free=np.zeros(0)
            )
            A = dense_operator(sizes, entries)
        else:
            if case == "lorenz-ts-presolved":
                bp = presolved(lorenz_problem(2))
            else:
                # the n=56 and n=21 classes take the support form
                bp = presolved(extended_lorenz_problem(3, "fd"))
            sizes = bp.block_sizes
            A = bp.A
        rng = np.random.default_rng(11)
        W = []
        for n in sizes:
            G = rng.normal(size=(n, n))
            W.append(G @ G.T / n + 0.1 * np.eye(n))
        M = np.ones((bp.m, bp.m))
        _schur(bp, [np.array([W[k] for k in ks]) for _, ks, _ in bp._size_classes], M)
        want = dense_schur(sizes, A, W)
        assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("case, form", CASE_FORMS)
    def test_matches_dense_reference_in_small_chunks(self, case, form, monkeypatch):
        # every class with more than one slot then takes several chunks,
        # whose one-triangle weights cross chunk boundaries, and on the
        # chosen form every class whose flops allow it takes the support form
        monkeypatch.setattr(sdp, "_SCHUR_BUDGET", 8)
        self.test_matches_dense_reference(case, form, monkeypatch)

    @pytest.mark.parametrize("m, dtype", [(46340, np.int32), (46341, np.int64)])
    def test_positions_fit_their_dtype(self, m, dtype):
        # one 1x1 block per row, A = I: the one chunk's positions are M's
        # diagonal, the last at m^2 - 1, which int32 holds up to m = 46340
        eye = sp.identity(m, format="csr")
        bp = BlockProblem([1] * m, eye, sp.csr_matrix((m, 0)), np.ones(m), np.zeros(0))
        ((_, [(_, _, pos, _)]),) = bp._schur_tables
        assert pos.dtype == dtype
        assert pos.max() == m * m - 1

    def test_support_form_choice(self):
        def forms(bp):
            return {
                n: form is sdp._support_u
                for (n, _, _), (form, _) in zip(bp._size_classes, bp._schur_tables)
            }

        assert forms(presolved(extended_lorenz_problem(3, "fd"))) == {
            1: False, 21: True, 56: True
        }
        sizes, entries = support_form_entries()
        bp = entry_problem(sizes, entries, B=np.zeros((30, 0)), b=np.ones(30), c_free=np.zeros(0))
        assert forms(bp) == {2: False, 65: True}
        for mode, extension in [("ts", "maximal"), ("ts", "min-degree"), ("ss", "maximal")]:
            bp = presolved(network_problem(8, 0, mode, extension))
            assert not any(forms(bp).values())


def spectrum_matrix(eigs, rng) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric matrix with eigenvalues eigs under a random rotation, exact
    in long double, and its rounding to double."""
    Q = np.linalg.qr(rng.normal(size=(len(eigs), len(eigs))))[0]
    Q = Q.astype(np.longdouble)
    M_exact = (Q * eigs.astype(np.longdouble)) @ Q.T
    M_exact = 0.5 * (M_exact + M_exact.T)
    return M_exact, M_exact.astype(float)


def few_tiny(m: int) -> np.ndarray:
    """Three eigenvalues of 1e-20 and m - 3 from 1 to 10."""
    return np.r_[np.full(3, 1e-20), np.linspace(1.0, 10.0, m - 3)]


class TestSchurInPlace:
    @pytest.mark.parametrize("m", [1, 255, 256, 257, 673])
    def test_mirror_matches_whole_matrix_symmetrization(self, m):
        M = np.random.default_rng(m).normal(size=(m, m))
        want = np.triu(M) + np.triu(M, 1).T
        _mirror(M)
        assert np.array_equal(M, want)

    def test_mirror_allocates_no_matrix(self):
        M = np.random.default_rng(0).normal(size=(1000, 1000))
        tracemalloc.start()
        try:
            _mirror(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M.nbytes / 4

    @staticmethod
    def check_factor(M0, M, factor, rng):
        """The factor lies in M's buffer; M's strict upper triangle and the
        kept diagonal are M0's; solves are those of M0 + delta diag(M0) for
        _schur_factor's delta, the first that factors; products are M0's."""
        assert np.shares_memory(factor[0], M)
        assert np.array_equal(np.triu(M, 1), np.triu(M0, 1))
        assert np.array_equal(factor[1], np.diag(M0))
        shift = np.abs(np.diag(M0)) + np.finfo(float).tiny
        for delta in [0.0] + [10.0**e for e in range(-14, 0)]:
            try:
                ref = sla.cho_factor(M0 + np.diag(delta * shift))
                break
            except sla.LinAlgError:
                pass
        v = rng.normal(size=len(M0))
        want = sla.cho_solve(ref, v)
        assert np.linalg.norm(_factor_solve(factor, v) - want) <= 1e-12 * np.linalg.norm(want)
        want = M0 @ v
        assert np.linalg.norm(_schur_product(factor, v) - want) <= 1e-15 * np.linalg.norm(want)
        return delta

    def test_factor_in_place(self):
        bp = presolved(extended_lorenz_problem(3, "fd"))
        rng = np.random.default_rng(7)
        W = []
        for n, ks, _ in bp._size_classes:
            G = rng.normal(size=(len(ks), n, n))
            W.append(G @ np.swapaxes(G, -1, -2) / n + 0.1 * np.eye(n))
        M = np.empty((bp.m, bp.m))
        _schur(bp, W, M)
        M0 = M.copy()
        tracemalloc.start()
        try:
            factor = _schur_factor(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bp.m == 673
        assert peak < 0.05 * M.nbytes
        self.check_factor(M0, M, factor, rng)

    def test_shift_retry_restores_the_matrix(self):
        # positive definite in long double, not in double: the first dpotrf
        # fails near the last column, with the lower triangle of both tiles
        # of M overwritten, which the retry restores before shifting
        rng = np.random.default_rng(5)
        _, M = spectrum_matrix(few_tiny(300), rng)
        with pytest.raises(sla.LinAlgError):
            sla.cho_factor(M)
        M0 = M.copy()
        factor = _schur_factor(M)
        assert self.check_factor(M0, M, factor, rng) > 0.0


class TestSchurSolve:
    @pytest.mark.parametrize(
        "eigs",
        [few_tiny(40), np.logspace(0.0, -20.0, 40)],
        ids=["few-tiny", "log-uniform"],
    )
    def test_backward_error_past_double_precision(self, eigs):
        # SPD with cond ~ 1e20, exact in long double; rounded to double it
        # is no longer positive definite
        rng = np.random.default_rng(5)
        M_exact, M = spectrum_matrix(eigs, rng)
        with pytest.raises(sla.LinAlgError):
            sla.cho_factor(M)
        rhs = rng.normal(size=len(eigs))
        x, steps, _ = _schur_solve(_schur_factor(M), lambda v: M_exact @ v, rhs)
        assert steps > 0
        x = np.asarray(x, dtype=np.longdouble)
        backward = np.linalg.norm(rhs - M_exact @ x) / (
            eigs.max() * np.linalg.norm(x) + np.linalg.norm(rhs)
        )
        assert backward <= 1e-18

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63, reason="long double is not 64-bit extended"
    )
    @pytest.mark.parametrize("n", [1, 5, 21, 56])
    def test_split_sandwich_within_long_double_error(self, n):
        # W with cond ~ 1e12 and Z with bits beyond double: on rows of W Z W,
        # the double-product split errs no more than the product formed in
        # long double, both measured against exact rational arithmetic
        rng = np.random.default_rng(n)
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        W = (Q * (rng.uniform(1.0, 2.0) * np.logspace(0.0, -12.0, n))) @ Q.T
        W = 0.5 * (W + W.T)
        Z = rng.normal(size=(n, n)).astype(np.longdouble)
        Z += rng.normal(size=(n, n)).astype(np.longdouble) * np.longdouble(2.0**-60)
        rows = np.arange(n) if n <= 5 else rng.choice(n, size=4, replace=False)

        def exact(a):
            return np.array(
                [Fraction(*v.as_integer_ratio()) for v in a.ravel()], dtype=object
            ).reshape(a.shape)

        want = exact(W[rows]) @ exact(Z) @ exact(W)

        def error(got):
            return max(abs(float(g - w)) for g, w in zip(exact(got[rows]).ravel(), want.ravel()))

        split = _sandwich(W[None], _split_w(W[None]), Z[None])[0]
        assert error(split) <= error(W @ Z @ W)

    def test_exact_operator_matches_long_double(self, monkeypatch):
        # a real iterate of lorenz d=3 fd, whose n=20 class takes the split
        seen = []
        schur = sdp._schur

        def recording(bp, W, M):
            seen.append((bp, W))
            schur(bp, W, M)

        monkeypatch.setattr(sdp, "_schur", recording)
        solve(lorenz_problem(3, "fd"))
        bp, W = seen[-1]
        op = _ExactSchur(bp, W)
        v = np.random.default_rng(2).normal(size=bp.m).astype(np.longdouble)
        got = op(v)
        assert [n for (n, _, _), s in zip(bp._size_classes, op._splits) if s is not None] == [20]
        Z = bp._gather(bp._A_ld_T @ v)
        want = bp._A_ld @ bp._scatter([Wc @ Zc @ Wc for Wc, Zc in zip(W, Z)])
        assert np.linalg.norm(got - want) <= 1e-17 * np.linalg.norm(want)

    def test_non_finite_rhs_raises(self):
        M = np.diag([2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            _schur_solve(_schur_factor(M.copy()), lambda v: M @ v, np.array([1.0, np.nan, 0.0]))

    def test_trace_records_krylov_steps(self):
        sol = solve(lorenz_problem(3, "fd"))
        assert any(rec.krylov_steps > 0 for rec in sol.trace)
        easy = solve_block_problem(eigenvalue_problem())
        assert all(rec.krylov_steps == 0 for rec in easy.trace)
        # double refinement met its target on every solve
        assert all(rec.newton_residual <= 1e-13 for rec in easy.trace)


class TestOriginalSpaceStatus:
    def test_records_measure_the_original_problem(self):
        # every iterate is judged on the original problem inside the loop,
        # so the solve stops at the first record that meets the tolerances
        # and that record is the returned point
        problem = lorenz_problem(2)
        sol = solve(problem)
        assert sol.status == "optimal"
        # the dual objective keeps the trace cap's term, about 1e-9 of it here
        cap_term = sdp._TRACE_CAP * sol.trace_cap_multiplier
        b = standardize(problem).b
        assert sol.dual_objective == pytest.approx(float(b @ sol.y) + cap_term, rel=1e-13)
        last = sol.trace[-1]
        assert last.primal_infeasibility == sol.residuals["primal_infeasibility"]
        assert last.dual_infeasibility == sol.residuals["dual_infeasibility"]
        assert last.relative_gap == sol.residuals["relative_gap"]
        assert last.primal_objective == sol.objective
        assert last.dual_objective == sol.dual_objective
        tol = SolverTolerances()

        def meets(rec):
            feas = max(rec.primal_infeasibility, rec.dual_infeasibility)
            return feas <= tol.feasibility and abs(rec.relative_gap) <= tol.gap

        assert meets(last)
        assert not any(meets(rec) for rec in sol.trace[:-1])

    @pytest.mark.parametrize("cap, status", [(16, "near_optimal"), (4, "max_iter")])
    def test_capped_solve_returns_its_best_point(self, cap, status):
        # lorenz d=2 ts ends optimal at iteration 19; at 16 the relative gap
        # is within 1e3 of its tolerance; of the first 4 records the third
        # is the best, and far from the tolerances
        sol = solve(lorenz_problem(2), SolverTolerances(max_iterations=cap))
        assert sol.status == status
        assert sol.iterations == len(sol.trace) == cap
        best = min(
            sol.trace,
            key=lambda r: max(r.primal_infeasibility, r.dual_infeasibility, abs(r.relative_gap)),
        )
        assert (best is sol.trace[-1]) == (cap == 16)
        assert best.primal_infeasibility == sol.residuals["primal_infeasibility"]
        assert best.relative_gap == sol.residuals["relative_gap"]
        assert best.primal_objective == sol.objective

    @pytest.mark.parametrize("cap", [1, 16])
    def test_capped_solve_takes_no_last_step(self, cap, monkeypatch):
        # the point a step in the last allowed iteration reaches is never
        # judged, so that iteration builds no Schur matrix
        calls = []
        schur = sdp._schur

        def counting(*args):
            calls.append(1)
            schur(*args)

        monkeypatch.setattr(sdp, "_schur", counting)
        sol = solve(lorenz_problem(2), SolverTolerances(max_iterations=cap))
        assert len(sol.trace) == cap
        assert len(calls) == cap - 1
        assert sol.trace[-1].step_primal == sol.trace[-1].step_dual == 0.0

    def test_network_n8_ts_reaches_optimal(self):
        # the loop judges the unscaled, unreduced problem itself, so no cell
        # is left stopping just short of the tolerances
        model = random_network_model(8, 200000)
        p = assemble(
            model.system,
            Box.from_bounds(model.bounds),
            RelaxationConfig(d=2, mode="ts", extension="maximal"),
        )
        sol = solve(p)
        assert sol.status == "optimal"


def spd_stack(rng, k, n) -> np.ndarray:
    G = rng.normal(size=(k, n, n))
    return G @ np.swapaxes(G, -1, -2) + n * np.eye(n)


class TestStackedKernels:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_nt_scaling(self, n):
        rng = np.random.default_rng(n)
        X, S = spd_stack(rng, 4, n), spd_stack(rng, 4, n)
        R, W, lam = _nt_scaling(X, S, [])
        diag = lam[:, :, None] * np.eye(n)
        tol = dict(rtol=1e-10, atol=1e-10 * lam.max())
        Rt = np.swapaxes(R, -1, -2)
        assert np.allclose(Rt @ S @ R, diag, **tol)
        Rinv = np.linalg.inv(R)
        assert np.allclose(Rinv @ X @ np.swapaxes(Rinv, -1, -2), diag, **tol)
        assert np.allclose(W, R @ Rt, rtol=1e-14, atol=0)
        assert np.allclose(W @ S @ W, X, rtol=1e-10, atol=1e-10 * np.abs(X).max())

    def test_max_step_matches_per_block_loop(self):
        rng = np.random.default_rng(2)
        lam = rng.uniform(0.5, 2.0, size=(6, 3))
        D = random_blocks(rng, [3] * 6)
        want = np.inf
        for lk, Dk in zip(lam, D):
            scale = 1.0 / np.sqrt(lk)
            nu = np.linalg.eigvalsh(Dk * np.outer(scale, scale))[0]
            want = min(want, -1.0 / nu if nu < 0 else np.inf)
        assert _max_step(lam, np.array(D)) == pytest.approx(want, rel=1e-12)
        assert _max_step(lam, np.zeros((6, 3, 3))) == np.inf

    def test_chol_lower_jitter_guard(self):
        # the first block is PSD only up to rounding: the jitter retry must
        # factor it and leave the factors of the others where they were
        rng = np.random.default_rng(9)
        healthy = spd_stack(rng, 2, 2)
        mats = np.concatenate([np.diag([1.0, -1e-17])[None], healthy])
        L = _chol_lower(mats, "primal", [])
        assert np.all(np.isfinite(L)) and np.all(np.triu(L[0], 1) == 0.0)
        assert np.allclose(L[0] @ L[0].T, mats[0], rtol=0, atol=1e-12)
        assert np.allclose(L[1:], np.linalg.cholesky(healthy), rtol=0, atol=1e-13)
        mats[0] = np.diag([1.0, -1.0])
        with pytest.raises(SolverBreakdown, match="primal"):
            _chol_lower(mats, "primal", [])


class TestStepRule:
    def test_step_length(self):
        # scaled by lam, block 0's direction is diag(-2, -0.5): it meets the
        # boundary at a = 0.5; the other directions are PSD or reach it later
        lam = [np.array([[1.0, 4.0], [2.0, 3.0]]), np.array([[5.0]])]
        deltas = [np.array([np.diag([-2.0, -2.0]), np.eye(2)]), np.array([[[-1.0]]])]
        for fraction in (1.0, 0.99, 0.9, 0.3):
            assert _step_length(lam, deltas, fraction) == pytest.approx(0.5 * fraction, rel=1e-14)
        # a maximum step of 2: long fractions are capped at a full step
        short = [d / 4 for d in deltas]
        assert _step_length(lam, short, 0.3) == pytest.approx(0.6, rel=1e-14)
        assert _step_length(lam, short, 0.9) == 1.0
        # a direction that never leaves the cone
        inside = [np.abs(d) for d in deltas]
        assert _step_length(lam, inside, 0.9) == 1.0

    def test_corrector_fraction_follows_the_predictor(self):
        # the step rule takes 20 iterations here, a fixed fraction of 0.99
        # of the way to the boundary 30
        sol = solve(network_problem(8, 0, "ts"))
        assert sol.status == "optimal"
        assert sol.iterations <= 22
        assert all(0.9 <= rec.step_fraction <= 0.99 for rec in sol.trace[:-1])
        assert sol.trace[-1].step_fraction == 0.0


class TestBlockOrder:
    def test_shuffled_blocks_give_the_same_solution(self):
        # the solver sorts the blocks into a canonical order and hands them
        # back in the order they came in; a problem with its blocks in
        # another order must give bit for bit the same solution, each block
        # in its own place
        p = lorenz_problem(2)
        bp = standardize(p)
        assert len(bp.block_sizes) == 31 and len(set(bp.block_sizes)) > 2
        a = solve_block_problem(bp)
        assert a.status == "optimal"
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(len(bp.block_sizes))
            new_index = np.argsort(perm)
            shuffled = entry_problem(
                [bp.block_sizes[k] for k in perm],
                [
                    [(int(new_index[k]), r, c, v) for k, r, c, v in eq.block_entries]
                    for eq in p.equalities
                ],
                bp.B,
                bp.b,
                bp.c_free,
            )
            b = solve_block_problem(shuffled)
            assert b.status == "optimal"
            assert b.iterations == a.iterations
            assert b.objective == a.objective
            for j, k in enumerate(perm):
                assert np.array_equal(b.block_values[j], a.block_values[k])


def objective(model, **config) -> float:
    p = assemble(
        model.system, Box.from_bounds(model.bounds), RelaxationConfig(d=2, **config)
    )
    sol = solve(p)
    assert sol.status == "optimal"
    return sol.objective


class TestPaperInvariants:
    def test_lorenz_d2(self):
        # ss equals the dense relaxation, and term sparsity reaches it at
        # (s, l) = (2, 2) from above
        model = lorenz()
        ss = objective(model, mode="ss")
        assert ss == pytest.approx(4.554010, rel=1e-6)
        assert objective(model, mode="fd") == pytest.approx(ss, rel=1e-6)
        assert objective(model, mode="ts", s=2, l=2) == pytest.approx(ss, rel=1e-6)
        ts = objective(model, mode="ts")
        assert ts == pytest.approx(5.567028, rel=1e-6)
        assert ts >= ss

    def test_lorenz_d2_ts_does_not_increase_in_s_l(self):
        # each step up the term-sparsity hierarchy keeps the earlier support
        # and adds to it, so the bound can only tighten; it reaches ss at
        # (2, 2) and stays there
        model = lorenz()
        chain = [
            objective(model, mode="ts", s=s, l=l)
            for s, l in [(1, 1), (1, 2), (2, 2), (3, 3)]
        ]
        assert chain == pytest.approx([5.5670284, 4.5597063, 4.5540104, 4.5540104], rel=1e-6)
        for before, after in zip(chain, chain[1:]):
            assert after <= before * (1 + 1e-9)
        assert chain[-1] == pytest.approx(objective(model, mode="ss"), rel=1e-6)

    def test_network_n8(self):
        # the maximal chordal extension reaches ss at (2, 2); min-degree
        # stays above it
        model = random_network_model(8, 0)
        ss = objective(model, mode="ss")
        assert ss == pytest.approx(43.027454, rel=1e-6)
        assert objective(model, mode="ts", s=2, l=2) == pytest.approx(ss, rel=1e-6)
        ts = objective(model, mode="ts", s=2, l=2, extension="min-degree")
        assert ts == pytest.approx(46.852807, rel=1e-6)
        assert ts >= ss

    @pytest.mark.parametrize("network, bound", [(0, 46.852808), (1, 47.318941)])
    def test_network_n8_min_degree_matches_maximal(self, network, bound):
        # an observation on random n=8 networks 0 and 1, not a theorem: at
        # (s, l) = (1, 1) the min-degree extension gives the bound of the
        # maximal one
        model = random_network_model(8, network)
        maximal = objective(model, mode="ts", s=1, l=1)
        assert maximal == pytest.approx(bound, rel=1e-6)
        min_degree = objective(model, mode="ts", s=1, l=1, extension="min-degree")
        assert min_degree == pytest.approx(maximal, rel=1e-6)
