"""Interior-point solver for block-diagonal SDPs with free variables.

The standard form matches what assembly produces:

    minimize    c . x + c_f . u
    subject to  sum_k <A_ik, X_k> + (B u)_i = b_i,   i = 1..m
                X_k PSD,  u free,

where x stacks the X_k.ravel().  The PSD constraint data is one sparse
operator A with m rows and sum_k n_k^2 columns: block k occupies the
columns offsets[k]:offsets[k+1] and stores the full symmetric A_ik in
row-major order, so A x gives every equality's block part in one product.
The PSD cost c is one flat vector over the same columns, the iterates'
layout.  B is CSR as well.  The presolve, the row equilibration and the
trace cap are row and column operations on A, B and c.

Every free variable is eliminated before the interior-point method: in the
coefficient-matching equalities each one is pinned by a chain of pivot
rows, and the presolve refuses a problem where one is not.  The method is a
primal-dual path follower with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step on the PSD blocks alone.  The predictor's step
lengths are measured all the way to the boundary of the cone, at most 1,
and set the centering; the corrector then steps 0.9 + 0.09 min(predictor
steps) of the way, close to the boundary after long predictor steps and
central after short ones (SDPT3's rule: Toh, Todd & Tutuncu, Optim.
Methods Softw. 11, 1999).  The blocks are solved in a canonical order,
sorted by size and data, so the solution does not depend on the order
they come in.  With no free variables left, the Newton system is the
Schur complement M, positive definite and dense (m x m doubles; an n=20
ts maximal network relaxation has m = 13713 before the presolve).  M is
the only m x m array the method holds: it is symmetrized in place, tile
by tile, and factored once per iteration by a double Cholesky in its own
buffer, the factor over its lower triangle, while its strict upper triangle
and a copy of its diagonal still define M for refinement's products with
it.  Where double refinement on it falls short in the endgame, GMRES-IR
carries the solves to the tolerances against the exact Schur operator: its
products with A run in long double, and its W_k Z W_k accumulate
double-BLAS products in long double through an error-free split, for
blocks of size _SPLIT_MIN and up (``_ExactSchur``).  The iterates and every term of the Newton direction
are one (k, n, n) stack per block size, gathered from a stacked vector by
the blocks' columns of A and scattered back before each product with A,
so Cholesky, SVD, eigvalsh, the sandwich products and the Schur
complement's <A_ik, W_k A_jk W_k> run once per block size, not once per
block; M is formed in bounded chunks of pairs.  A chunk forms W_k A_jk W_k
one of two ways, chosen once per block size: two dense n^3 products, or, for
large blocks whose A_jk are sparse, products with only the rows of W_k in
A_jk's row support.  Each couple of pairs is contracted in one chunk and
added once, to M's upper triangle, which is then copied over the lower one.

Every iterate is mapped back to the original problem, unscaled and
unreduced: the cap's slack and row dropped, the row scaling undone and the
free variables recovered.  The original problem's residuals end the solve
``optimal``, pick the best iterate and fill every ``IterationRecord``; a
solve that stalls or runs out of iterations returns its best point, as
``near_optimal`` within _NEAR_OPTIMAL_FACTOR of the tolerances.
``SdpSolution.timings`` records the wall time of each phase.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .relax import SdpProblem

# scaled-space values below this count as zero when capping step lengths
_STEP_EIG_FLOOR = 1e-13
# the aggregate trace cap every problem is solved under (_with_trace_bound)
_TRACE_CAP = 1e6
_DIVERGENCE_LIMIT = 1e10
# a Schur solve's target relative residual and step limits (_schur_solve)
_SOLVE_TOL = 1e-13
_REFINE_STEPS = 3
_GMRES_RESTARTS = 3
_GMRES_STEPS = 20
_NEAR_OPTIMAL_FACTOR = 1e3
# a size class of blocks this large forms the exact Schur operator's W Z W
# from double products (_ExactSchur)
_SPLIT_MIN = 16
# doubles per temporary of one chunk of pair slots in _schur
_SCHUR_BUDGET = 1 << 16
# the side of the square tiles _mirror copies M's upper triangle in
_TILE = 256
# a class whose dense chunks hold fewer slots may take the support form
_SUPPORT_WIDTH = 16
# the timed phases of solve_block_problem: canonical block order and
# free-variable presolve, trace cap and equilibration, Schur build, its
# factorization, Schur solves, NT scaling and step lengths
_PHASES = ("presolve", "scaling", "schur", "factor", "solve", "nt_scaling", "step_length")


class SolverBreakdown(RuntimeError):
    """Unrecoverable numerical failure; carries the iteration trace."""

    def __init__(self, message: str, trace: list) -> None:
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverTolerances:
    gap: float = 1e-7
    feasibility: float = 1e-7
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not (self.gap > 0 and self.feasibility > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        n = self.max_iterations
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError("max_iterations must be a positive integer")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    # mu is the scaled problem's <X, S> / N; the objectives and residuals
    # are the original problem's, as on ``SdpSolution``
    mu: float
    primal_objective: float
    dual_objective: float
    primal_infeasibility: float
    dual_infeasibility: float
    relative_gap: float
    # the scaled problem's |r_p . y| + sum_k |<X_k, R_dk>|, which bounds how
    # far primal_objective can fall below dual_objective
    duality_slack: float
    step_primal: float = 0.0
    step_dual: float = 0.0
    sigma: float = 0.0
    # the fraction of the way to the boundary the corrector stepped
    step_fraction: float = 0.0
    # this iteration's GMRES steps and largest relative Schur-solve residual
    krylov_steps: int = 0
    newton_residual: float = 0.0


@dataclass
class SdpSolution:
    # the status, objectives and residuals are the original problem's
    status: str
    objective: float
    dual_objective: float
    block_values: list[np.ndarray]
    free_values: np.ndarray
    y: np.ndarray
    residuals: dict[str, float]
    iterations: int
    # the trace cap's fill (sum_k tr X_k over the cap) and its multiplier;
    # a small fill and a near-zero multiplier mean the cap left the optimum
    # where it was
    trace_cap_fraction: float
    trace_cap_multiplier: float
    trace: list[IterationRecord] = field(repr=False, default_factory=list)
    # wall seconds per phase of solve_block_problem (_PHASES) and in total
    timings: dict[str, float] = field(repr=False, default_factory=dict)


def _canonical(mat) -> sp.csr_matrix:
    """CSR with sorted columns in each row and no explicit zeros."""
    mat = sp.csr_matrix(mat, dtype=float)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


class BlockProblem:
    """Standard-form data with one stacked sparse constraint operator.

    ``A`` is an m x sum(n_k^2) matrix, stored as canonical CSR.  Block k owns
    the columns ``offsets[k]:offsets[k+1]`` and holds the full symmetric
    matrix A_ik in row-major order, so ``A @ concat(X_k.ravel())`` gives the
    block part of every equality; ``_upper_operator`` builds it from
    upper-triangle entries.  ``B``, the free-variable columns, is stored as
    m x f CSR; the constructor takes it dense or sparse.

    The objective is c . concat(X_k.ravel()) + c_free . u +
    objective_offset, the PSD cost c flat over A's columns.  It defaults to
    zero, which is what direct assembly produces; eliminating pinned free
    variables moves their weights into c and the offset.
    """

    def __init__(
        self, block_sizes, A, B, b, c_free, c=None, objective_offset: float = 0.0
    ) -> None:
        self.block_sizes = tuple(int(n) for n in block_sizes)
        if any(n < 1 for n in self.block_sizes):
            raise ValueError("block sizes must be positive")
        self.offsets = np.cumsum([0] + [n * n for n in self.block_sizes])
        self.b = np.asarray(b, dtype=float)
        if self.b.ndim != 1:
            raise ValueError("b must be a vector")
        self.m = len(self.b)
        # the presolve and export_sdpa rely on canonical CSR
        self.A = _canonical(A)
        if self.A.shape != (self.m, self.offsets[-1]):
            raise ValueError("A must be m x sum(n_k^2)")
        if not sp.issparse(B):
            B = np.asarray(B, dtype=float).reshape(self.m, -1)
        self.B = _canonical(B)
        self.c_free = np.asarray(c_free, dtype=float)
        self.n_free = self.B.shape[1]
        if self.c_free.shape != (self.n_free,):
            raise ValueError("c_free length does not match B")
        self.c = np.zeros(self.offsets[-1]) if c is None else np.asarray(c, dtype=float)
        if self.c.shape != (self.offsets[-1],):
            raise ValueError("c must have sum(n_k^2) entries")
        self.objective_offset = float(objective_offset)
        self.cost_norm = float(np.linalg.norm(self.c_free)) + float(np.linalg.norm(self.c))
        self.constraint_norms = np.sqrt(
            np.asarray(self.A.multiply(self.A).sum(axis=1)).ravel()
            + np.asarray(self.B.multiply(self.B).sum(axis=1)).ravel()
        )

    @property
    def total_dimension(self) -> int:
        return sum(self.block_sizes)

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The n_k x n_k blocks of a stacked vector, as views into it."""
        o = self.offsets
        return [
            flat[o[k] : o[k + 1]].reshape(n, n)
            for k, n in enumerate(self.block_sizes)
        ]

    def apply_A(self, mats) -> np.ndarray:
        return self.A @ np.concatenate([np.ravel(mat) for mat in mats])

    def apply_At(self, y) -> list[np.ndarray]:
        return self._split(self._A_T @ y)

    @cached_property
    def _size_classes(self) -> list[tuple]:
        """Per block size n: its blocks ks, unpermuted, and their columns of A."""
        sizes = np.array(self.block_sizes)
        classes = [(int(n), np.flatnonzero(sizes == n)) for n in np.unique(sizes)]
        return [
            (n, ks, (self.offsets[ks][:, None] + np.arange(n * n)).ravel()) for n, ks in classes
        ]

    def _gather(self, flat: np.ndarray) -> list[np.ndarray]:
        """The (k, n, n) stacks of ``_size_classes`` of a stacked vector."""
        return [flat[cols].reshape(len(ks), n, n) for n, ks, cols in self._size_classes]

    def _scatter(self, stacks) -> np.ndarray:
        """The stacked vector of one (k, n, n) stack per size class."""
        flat = np.empty(self.offsets[-1], dtype=stacks[0].dtype)
        for (_, _, cols), st in zip(self._size_classes, stacks):
            flat[cols] = st.ravel()
        return flat

    @cached_property
    def _A_T(self) -> sp.csr_matrix:
        """The transpose of ``A``, as CSR: ``A.T`` builds a new CSC object
        on every call."""
        return self.A.T.tocsr()

    @cached_property
    def _B_T(self) -> sp.csr_matrix:
        """The transpose of ``B``, as CSR."""
        return self.B.T.tocsr()

    @cached_property
    def _A_ld(self) -> sp.csr_matrix:
        """``A`` in long double, for GMRES-IR's exact Schur operator."""
        return self.A.astype(np.longdouble)

    @cached_property
    def _A_ld_T(self) -> sp.csr_matrix:
        """The transpose of ``_A_ld``, as CSR."""
        return self._A_ld.T.tocsr()

    @cached_property
    def _schur_tables(self) -> list[tuple]:
        """Per size class, the tables of ``_schur``: the class's form of U,
        ``_support_u`` if ``_support_pays``, else ``_dense_u``, and its chunks."""
        sizes = np.array(self.block_sizes)
        nb = len(sizes)
        coo = self.A.tocoo()
        blk = np.searchsorted(self.offsets, coo.col, side="right") - 1
        # canonical CSR lists entries by row, then column, so an entry's
        # pair (row, block) and its row a inside A_ik never decrease along
        # a pair: runs of equal values give pairs and the rows of R, the
        # row support of A_ik (also its column support, as A_ik is symmetric)
        key = coo.row.astype(np.int64) * nb + blk
        a = (coo.col - self.offsets[blk]) // sizes[blk]
        new_pair = np.ones(len(key), dtype=bool)
        new_pair[1:] = key[1:] != key[:-1]
        new_row = new_pair.copy()
        new_row[1:] |= a[1:] != a[:-1]
        keys = key[new_pair]
        pair = np.cumsum(new_pair) - 1
        p_row, p_blk = np.divmod(keys, nb)
        r_size = np.bincount(pair[new_row], minlength=len(keys))
        on_support = np.zeros(nb, dtype=bool)
        for n, ks, _ in self._size_classes:
            in_class = sizes[p_blk] == n
            on_support[ks] = _support_pays(n, len(ks), r_size[in_class])
        # a block's pairs fill its slots in row order, or by |R| first on the
        # support form, which keeps the padding of a chunk's |R| tight
        by_blk = np.lexsort((p_row, np.where(on_support[p_blk], r_size, 0), p_blk))
        slot = np.empty(len(keys), dtype=np.int64)
        slot[by_blk] = np.arange(len(keys)) - np.searchsorted(p_blk[by_blk], p_blk[by_blk])
        by_slot = np.argsort(slot, kind="stable")
        pairs = sp.csr_matrix((coo.data, (pair, coo.col)), shape=(len(keys), coo.shape[1]))
        out = []
        for n, ks, cols in self._size_classes:
            qs = by_slot[sizes[p_blk[by_slot]] == n]
            place = np.searchsorted(ks, p_blk[qs])
            support = on_support[ks[0]]
            Pg = pairs[qs][:, cols]
            chunks = _schur_chunks(n, len(ks), Pg, slot[qs], place, p_row[qs], self.m, support)
            out.append((_support_u if support else _dense_u, chunks))
        return out


def _upper_operator(block_sizes, m: int, rows, k, r, c, v) -> sp.csr_matrix:
    """A from upper-triangle entries: row, block k, (r, c) in it and value,
    one array each.  Duplicate entries add up; off-diagonal ones are
    mirrored."""
    if np.any((k < 0) | (k >= len(block_sizes))):
        raise ValueError("entry references an unknown block")
    sizes = np.array(block_sizes, dtype=np.int64)
    offsets = np.cumsum(np.append(0, sizes**2))
    n = sizes[k]
    if np.any((r < 0) | (r > c) | (c >= n)):
        raise ValueError("entry outside the upper triangle")
    cols = offsets[k] + r * n + c
    mirror = r != c
    cols_t = (offsets[k] + c * n + r)[mirror]
    return sp.csr_matrix(
        (
            np.append(v, v[mirror]),
            (np.append(rows, rows[mirror]), np.append(cols, cols_t)),
        ),
        shape=(m, offsets[-1]),
    )


def standardize(problem: SdpProblem) -> BlockProblem:
    """Convert assembled equality data into solver-ready standard form."""
    sizes = [blk.dimension for blk in problem.blocks]
    return BlockProblem(
        sizes,
        _upper_operator(sizes, len(problem.rhs), *problem.gram_entries),
        problem.B,
        problem.rhs,
        np.asarray(problem.objective_free, dtype=float),
    )


def _canonical_order(bp: BlockProblem) -> tuple[BlockProblem, np.ndarray]:
    """bp with its blocks sorted by size, then by their CSC columns of A and
    their part of c as bytes, and the order: block j of the result is block
    order[j] of bp.  Where the optimum is not unique, rounding that depends
    on a block's place in its size class picks the point on the optimal face
    the method ends at; solving in this order makes the solution the same
    whatever order the blocks came in."""
    A, o = bp.A.tocsc(), bp.offsets

    def key(k):
        lo, hi = A.indptr[o[k]], A.indptr[o[k + 1]]
        return (
            bp.block_sizes[k],
            (A.indptr[o[k] : o[k + 1] + 1] - lo).tobytes(),
            A.indices[lo:hi].tobytes(),
            A.data[lo:hi].tobytes(),
            bp.c[o[k] : o[k + 1]].tobytes(),
        )

    order = np.array(sorted(range(len(bp.block_sizes)), key=key), dtype=np.int64)
    cols = np.concatenate([np.arange(o[k], o[k + 1]) for k in order])
    sizes = [bp.block_sizes[k] for k in order]
    return BlockProblem(
        sizes, A[:, cols], bp.B, bp.b, bp.c_free, bp.c[cols], bp.objective_offset
    ), order


def _equilibrated(bp: BlockProblem) -> tuple[BlockProblem, np.ndarray]:
    """Rescale rows to unit norm.

    Returns the scaled problem together with the row scales s; a solution
    of the scaled problem maps back through y = y' / s while the PSD blocks
    and free variables are untouched.
    """
    s = np.maximum(bp.constraint_norms, 1e-12)
    scaled = BlockProblem(
        bp.block_sizes,
        sp.diags(1.0 / s) @ bp.A,
        sp.diags(1.0 / s) @ bp.B,
        bp.b / s,
        bp.c_free,
        bp.c,
        objective_offset=bp.objective_offset,
    )
    return scaled, s


class FreeReduction:
    """Maps a solution of the reduced problem back to the original one.

    Pivot rows pin every free variable, so their values follow from the
    block values; the pivot-row multipliers follow from dual feasibility
    of the free columns.  Both are triangular solves on ``lu_pet``, the
    factor of B_PE^T, where B_PE holds the pivot rows' eliminated columns.
    Substituted rows that cancelled to nothing are in neither
    ``pivot_rows`` nor ``kept_rows`` and carry multiplier 0.  ``A_piv`` is
    the presolve's pivot rows of A.
    """

    def __init__(self, original, pivot_rows, elim_cols, kept_rows, lu_pet, A_piv):
        self.original = original
        self.pivot_rows = pivot_rows
        self.elim_cols = elim_cols
        self.kept_rows = kept_rows
        self._lu_pet = lu_pet
        self._A_piv = A_piv
        self._B_ke_T = original.B[kept_rows][:, elim_cols].T.tocsr()

    def recover(self, x: np.ndarray, y_red: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u and y from the stacked blocks x and the kept rows' y_red."""
        bp = self.original
        piv = self.pivot_rows
        u = np.zeros(bp.n_free)
        y = np.zeros(bp.m)
        y[self.kept_rows] = y_red
        u[self.elim_cols] = self._lu_pet.solve(bp.b[piv] - self._A_piv @ x, trans="T")
        c_e = bp.c_free[self.elim_cols]
        y[piv] = self._lu_pet.solve(c_e - self._B_ke_T @ y_red)
        return u, y


def reduce_free_variables(
    bp: BlockProblem,
) -> tuple[BlockProblem, FreeReduction | None]:
    """Eliminate every free variable through the equalities that pin it.

    A row whose free part touches exactly one not-yet-eliminated variable
    acts as a pivot: the variable is substituted everywhere, the row
    leaves the constraint set, and its objective weight becomes an affine
    cost on the blocks.  Scanning repeats until no such row remains, so
    chains resolve (one elimination exposing the next).  A variable left
    without a pivot row raises ``ValueError``, since the solver has no
    path for free variables.  Returns the reduced problem and the recovery
    map, or ``(bp, None)`` when there are no free variables.

    Pivots are found from ``B``'s pattern alone: substituting a pivot row
    changes the other rows only in its own column and in eliminated ones.
    """
    m, f = bp.m, bp.n_free
    if f == 0:
        return bp, None
    coo = bp.B.tocoo()
    col_scale = np.maximum(abs(bp.B).max(axis=0).toarray().ravel(), 1e-30)
    active = np.abs(coo.data) > 1e-12 * col_scale[coo.col]
    rows, cols = coo.row[active], coo.col[active]
    # an entry too small to divide by safely leaves its column to another row
    big = np.abs(coo.data[active]) >= 1e-8 * col_scale[cols]
    live_row = np.ones(m, dtype=bool)
    live_col = np.ones(f, dtype=bool)
    pivot_rows: list[int] = []
    elim_cols: list[int] = []
    while True:
        live = live_row[rows] & live_col[cols]
        single = np.bincount(rows[live], minlength=m) == 1
        # the one live entry of each candidate row, in row order; within a
        # scan the lowest row wins a column
        at = np.flatnonzero(live & single[rows] & big)
        _, first = np.unique(cols[at], return_index=True)
        at = at[np.sort(first)]
        if len(at) == 0:
            break
        live_row[rows[at]] = False
        live_col[cols[at]] = False
        pivot_rows.extend(rows[at].tolist())
        elim_cols.extend(cols[at].tolist())
    if np.any(live_col):
        raise ValueError(
            "no pivot row pins free variables "
            f"{np.flatnonzero(live_col).tolist()}"
        )

    piv = np.array(pivot_rows, dtype=np.int64)
    elim = np.array(elim_cols, dtype=np.int64)
    kept = np.flatnonzero(live_row)
    B_e = bp.B[:, elim]
    # F = B_KE inv(B_PE) and g = inv(B_PE)^T c_E, both from one factor of
    # B_PE^T, which recovery reuses; in elimination order B_PE is lower
    # triangular, so F and the substituted rows keep the sparsity of short
    # chains.  B_KE^T is solved dense, in one call, and untransposed, which
    # SuperLU does about twice as fast on many columns.
    lu_pet = spla.splu(sp.csc_matrix(B_e[piv].T))
    F = sp.csr_matrix(lu_pet.solve(B_e[kept].T.toarray()).T)
    g = lu_pet.solve(bp.c_free[elim])

    A_piv = bp.A[piv]
    A_red = sp.csr_matrix(bp.A[kept] - F @ A_piv)
    A_red.eliminate_zeros()
    b_red = bp.b[kept] - F @ bp.b[piv]
    # a substituted row can cancel to nothing; with a nonzero right-hand
    # side that means the equalities were inconsistent to begin with
    keep = np.diff(A_red.indptr) > 0
    if np.any(np.abs(b_red[~keep]) > 1e-9 * (1.0 + np.abs(bp.b).max())):
        raise ValueError("free-variable elimination exposed an inconsistency")
    reduced = BlockProblem(
        bp.block_sizes,
        A_red[keep],
        sp.csr_matrix((int(keep.sum()), 0)),
        b_red[keep],
        np.zeros(0),
        bp.c - A_piv.T @ g,
        objective_offset=float(g @ bp.b[piv]) + bp.objective_offset,
    )
    return reduced, FreeReduction(bp, piv, elim, kept[keep], lu_pet, A_piv)


def _with_trace_bound(bp: BlockProblem) -> BlockProblem:
    """Append the constraint sum_k tr(X_k) + s = _TRACE_CAP with a slack s >= 0.

    The assembled relaxations have unbounded optimal faces (multiplier
    blocks can grow along zero-objective rays), which leaves the dual
    without a strictly feasible point and the central path undefined.  A
    generous aggregate trace cap restores strict dual feasibility without
    moving the optimum as long as it stays inactive, which ``SdpSolution``
    shows through the cap's fill and multiplier.
    """
    width = bp.offsets[-1]
    # the diagonal positions of every block, then the slack's 1x1 block
    diag = np.concatenate(
        [o + np.arange(n) * (n + 1) for o, n in zip(bp.offsets, bp.block_sizes)]
        + [[width]]
    )
    cap = sp.csr_matrix(
        (np.ones(len(diag)), (np.zeros(len(diag), dtype=np.int64), diag)),
        shape=(1, width + 1),
    )
    A = sp.vstack([sp.hstack([bp.A, sp.csr_matrix((bp.m, 1))]), cap])
    B = sp.vstack([bp.B, sp.csr_matrix((1, bp.n_free))])
    b = np.append(bp.b, _TRACE_CAP)
    return BlockProblem(
        bp.block_sizes + (1,), A, B, b, bp.c_free, np.append(bp.c, 0.0),
        objective_offset=bp.objective_offset,
    )


def _chol_lower(mats: np.ndarray, label: str, trace: list) -> np.ndarray:
    """Lower Cholesky factors of a (k, n, n) stack in one call.  If a block
    fails, the whole stack is retried with a jitter of 1e-14, 1e-12, 1e-10
    times each block's mean diagonal (at least 1)."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(mats.shape[-1])
    base = np.maximum(np.trace(mats, axis1=1, axis2=2) / len(eye), 1.0)
    for jitter in (1e-14, 1e-12, 1e-10):
        try:
            return np.linalg.cholesky(mats + jitter * base[:, None, None] * eye)
        except np.linalg.LinAlgError:
            pass
    raise SolverBreakdown(f"Cholesky failed on {label} iterate", trace)


def _nt_scaling(X: np.ndarray, S: np.ndarray, trace: list) -> tuple:
    """Nesterov-Todd scaling of a (k, n, n) stack of iterates: R with
    R^T S R = R^-1 X R^-T = diag(lam), W = R R^T (so W S W = X), and lam."""
    Lx = _chol_lower(X, "primal", trace)
    Ls = _chol_lower(S, "dual", trace)
    try:
        _, sig, Vt = np.linalg.svd(np.swapaxes(Ls, -1, -2) @ Lx)
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(f"SVD breakdown: {exc}", trace) from exc
    if sig.min() <= 0:
        raise SolverBreakdown("singular scaling point", trace)
    R = Lx @ np.swapaxes(Vt, -1, -2) / np.sqrt(sig)[:, None, :]
    return R, R @ np.swapaxes(R, -1, -2), sig


def _max_step(lam: np.ndarray, delta_hat: np.ndarray) -> float:
    """The largest a keeping each diag(lam_k) + a delta_hat_k of a stack PSD."""
    scale = 1.0 / np.sqrt(lam)
    scaled = delta_hat * scale[:, :, None] * scale[:, None, :]
    nu = float(np.linalg.eigvalsh(scaled)[:, 0].min())
    if nu >= -_STEP_EIG_FLOOR:
        return np.inf
    return -1.0 / nu


def _step_length(lam, deltas, fraction: float) -> float:
    """The step ``fraction`` of the way to the boundary of the cone along
    the scaled block directions, at most 1."""
    return min(1.0, fraction * min(_max_step(lamk, dk) for lamk, dk in zip(lam, deltas)))


def _residuals(bp: BlockProblem, x, u, y, s, dual_shift: float) -> tuple[dict, float, float]:
    """bp's relative residuals at the stacked blocks x and slacks s, free
    values u and multipliers y, and its primal and dual objectives there;
    the dual one adds ``dual_shift``."""
    r_p = bp.b - bp.A @ x - bp.B @ u
    r_d = np.append(bp.c - s - bp._A_T @ y, bp.c_free - bp._B_T @ y)
    pobj = float(bp.c_free @ u) + bp.objective_offset + float(bp.c @ x)
    dobj = float(bp.b @ y) + bp.objective_offset + dual_shift
    return {
        "primal_infeasibility": float(np.linalg.norm(r_p) / (1.0 + np.linalg.norm(bp.b))),
        "dual_infeasibility": float(np.linalg.norm(r_d) / (1.0 + bp.cost_norm)),
        "relative_gap": (pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        "complementarity": float(x @ s) / max(bp.total_dimension, 1),
    }, pobj, dobj


def _chunk_width(k: int, n: int, pairs: int) -> int:
    """Slots per chunk of a class of k blocks of size n with this many pairs:
    each (k, n, n, w) stack and each (pairs, w) product stays within
    _SCHUR_BUDGET doubles, or one slot."""
    return max(1, _SCHUR_BUDGET // max(k * n * n, pairs))


def _support_pays(n: int, k: int, r_size: np.ndarray) -> bool:
    """Whether a class of k blocks of size n, whose pairs' A_ik have row
    supports of sizes r_size, takes the support form (see ``_schur``)."""
    if len(r_size) == 0 or _chunk_width(k, n, len(r_size)) >= _SUPPORT_WIDTH:
        return False
    return 4.0 * float(np.mean(n * n * r_size + n * r_size**2)) <= 2.0 * n**3


def _schur_chunks(n: int, k: int, Pg, p_slot, place, p_row, m: int, support: bool) -> list:
    """The chunks of a size class in ``_schur``, from Pg, the class's columns
    of A in the rows of its pairs, ordered by slot, the pairs' slots, places
    and rows, m and the class's form.  Per chunk of slots: its width w; Ph's
    rows up to the chunk's last pair, as a view, where Ph is Pg's upper
    triangle with off-diagonal entries doubled, so that <A_ik, U> = Ph U for
    symmetric U; the flat positions in M of Q = Ph U, raveled; and the
    form's arguments after w: the places of the chunk's A_jk entries in the
    stack the form pads and their values, and on the support form the rows
    of the class's stacked W that form G, (w, k, r) rows padded with row 0,
    r the chunk's largest |R|.

    Q[p, t] couples pair p with the pair in slot t of p's block.  Where
    slot(p) <= t, which holds for one copy of each couple, it goes to M's
    upper triangle, at (min row, max row); the other copy of a couple inside
    the chunk goes to the mirror position, which ``_mirror`` overwrites, and
    a padding slot (row 0) adds exact zeros wherever it lands."""
    # with each row's columns sorted, a pair's rows of R come in order
    Pg.sort_indices()
    q = np.repeat(np.arange(len(p_slot)), np.diff(Pg.indptr))
    a, b = np.divmod(Pg.indices % (n * n), n)
    up = a <= b
    v = np.where(a == b, Pg.data, 2.0 * Pg.data)[up]
    indptr = np.searchsorted(q[up], np.arange(len(p_slot) + 1))
    Ph = sp.csr_matrix((v, Pg.indices[up], indptr), shape=Pg.shape)
    if support:
        first = np.ones(len(q), dtype=bool)
        first[1:] = (q[1:] != q[:-1]) | (a[1:] != a[:-1])
        skey = q[first] * n + a[first]
        sup_pair, sup_row = np.divmod(skey, n)
        sup_ptr = np.searchsorted(sup_pair, np.arange(len(p_slot) + 1))
        # a row of R, and an entry, sit at (slot * k + place) in the class's slots
        at = p_slot * k + place
        sup_at, sup_pos = at[sup_pair], np.arange(len(skey)) - sup_ptr[sup_pair]
        pa = np.searchsorted(skey, q * n + a) - sup_ptr[q]
        pb = np.searchsorted(skey, q * n + b) - sup_ptr[q]
    e = int(p_slot.max(initial=-1)) + 1
    # the rows of the pairs in each block's slots, 0 in padding
    eqs = np.zeros((k, e), dtype=np.int64)
    eqs[place, p_slot] = p_row
    width = _chunk_width(k, n, len(p_slot))
    chunks = []
    for s0 in range(0, e, width):
        w = min(width, e - s0)
        plo, phi = np.searchsorted(p_slot, [s0, s0 + w])
        row_p, row_t = p_row[:phi, None], eqs[place[:phi], s0 : s0 + w]
        top, bottom = np.minimum(row_p, row_t), np.maximum(row_p, row_t)
        upper = p_slot[:phi, None] <= np.arange(s0, s0 + w)
        pos = np.where(upper, top * m + bottom, bottom * m + top)
        pos = pos.astype(np.int32 if m * m < 2**31 else np.int64).ravel()
        lo, hi = Pg.indptr[plo], Pg.indptr[phi]
        if support:
            r = int(np.diff(sup_ptr[plo : phi + 1]).max())
            j = slice(sup_ptr[plo], sup_ptr[phi])
            g = np.zeros(w * k * r, dtype=np.int32)
            g[(sup_at[j] - s0 * k) * r + sup_pos[j]] = place[sup_pair[j]] * n + sup_row[j]
            # the (w, k, r, r) stack of the chunk's A_jk[R, R]
            cells = (at[q[lo:hi]] - s0 * k) * r * r + pa[lo:hi] * r + pb[lo:hi]
            args = (cells.astype(np.int32), Pg.data[lo:hi], g)
        else:
            # the (k, n, n, w) stack of the chunk's A_jk
            args = (Pg.indices[lo:hi] * w + p_slot[q[lo:hi]] - s0, Pg.data[lo:hi])
        ptr = Ph.indptr[: phi + 1]
        view = sp.csr_matrix((Ph.data[: ptr[-1]], Ph.indices[: ptr[-1]], ptr), (phi, Ph.shape[1]))
        chunks.append((w, view, pos, args))
    return chunks


def _dense_u(Wc, w: int, cells, vals) -> np.ndarray:
    """U = W_k A_jk W_k over a chunk's w slots, as the (k n n, w) array
    that Ph multiplies, by two n^3 products per slot on the zero-padded
    stack of its A_jk (see ``_schur``)."""
    k, n = Wc.shape[:2]
    U = np.zeros((k, n, n, w))
    U.reshape(-1)[cells] = vals
    T = (Wc @ U.reshape(k, n, n * w)).reshape(k, n, n, w)
    # W_k is symmetric: row a of W_k A W_k is W_k times row a of T
    np.matmul(Wc[:, None], T, out=U)
    return U.reshape(-1, w)


def _support_u(Wc, w: int, cells, vals, g) -> np.ndarray:
    """U as in ``_dense_u``, from the gathered rows G = W_k[R, :] of each
    slot's row support R (see ``_schur``)."""
    k, n = Wc.shape[:2]
    # a padding row of G is row 0 of the first block's W, and the zeros of
    # A_RR around it cancel it exactly
    G = Wc.reshape(k * n, n)[g].reshape(w, k, -1, n)
    r = G.shape[2]
    A_RR = np.zeros((w, k, r, r))
    A_RR.reshape(-1)[cells] = vals
    U = np.swapaxes(G, -1, -2) @ (A_RR @ G)
    return np.ascontiguousarray(U.reshape(w, -1).T)


def _schur(bp: BlockProblem, W, M: np.ndarray) -> None:
    """Form M = sum_k A_k (W_k (x) W_k) A_k^T in place, exactly symmetric,
    from the (k, n, n) stacks W of ``bp._size_classes``.

    A pair is one (row i, block k) with A_ik != 0; block k's pairs fill its
    slots j = 0, 1, ...  Per class, chunks of slots keep each temporary
    within _SCHUR_BUDGET doubles (or one slot), bounding the memory of large
    blocks and letting the allocator reuse them rather than fault them in.
    A chunk forms U = W_k A_jk W_k for its slots by the class's form, chosen
    once per problem in ``_schur_tables``:

    - dense (``_dense_u``): slots in row order; two n^3 products per slot on
      the stack of the chunk's A_jk, zero-padded.
    - support (``_support_u``): slots ordered by |R|, R the rows holding
      A_jk's entries (also its columns: A_jk is symmetric);
      U = W_k[:, R] A_jk[R, R] W_k[R, :] from the gathered rows
      G = W_k[R, :], n^2 |R| + n |R|^2 flops per slot.

    Every chunk then contracts one triangle of pairs: as
    <A_ik, W A_jk W> = <A_jk, W A_ik W>, Q = Ph U holds only the pairs up to
    the chunk's last against its slots.  ``np.add.at`` adds each couple of
    pairs once into M's upper triangle, where two blocks' pairs can meet, at
    positions planned once per problem (``_schur_chunks``), and ``_mirror``
    copies it over the lower one, so M is the only m x m array this takes.

    A class takes the support form when its dense chunks are narrow, fewer
    than _SUPPORT_WIDTH slots, so the dense form's n x n by n x w products
    run slowly per flop, and the support form needs at most a quarter of
    the dense flops, mean n^2 |R| + n |R|^2 against 2 n^3 per pair.  Small
    blocks stay dense: numpy's cost per matrix of a stack of tiny products
    there outweighs the flops saved.  The n=21 and n=56 classes of extended
    lorenz d=3 ``fd`` take the support form; every class of the n=8 and
    n=10 network relaxations stays dense."""
    M.fill(0.0)
    flat = M.reshape(-1)
    for Wc, (form, chunks) in zip(W, bp._schur_tables):
        for w, Ph, pos, args in chunks:
            np.add.at(flat, pos, (Ph @ form(Wc, w, *args)).ravel())
    _mirror(M)


def _mirror(M: np.ndarray) -> None:
    """Copy M's strict upper triangle over its strict lower one in place,
    one pair of _TILE x _TILE tiles at a time, so with no m x m temporary."""
    m = len(M)
    for i in range(0, m, _TILE):
        for j in range(i, m, _TILE):
            U = M[i : i + _TILE, j : j + _TILE]
            if i == j:
                np.copyto(U, U.T, where=np.tri(len(U), k=-1, dtype=bool))
            else:
                M[j : j + _TILE, i : i + _TILE] = U.T


def _schur_factor(M: np.ndarray) -> tuple:
    """Cholesky of M + delta diag(M), the diagonally scaled M plus delta I,
    for the first delta of 0, 1e-14, 1e-13, ... that succeeds: the factor
    only preconditions ``_schur_solve``, so it must exist however bad M gets.

    The factor is made in M's own buffer: LAPACK's dpotrf on the Fortran
    view M.T writes it over M's lower triangle and leaves the strict upper
    one, which with the kept d = diag(M) still defines M
    (``_schur_product``).  A failed attempt leaves the lower triangle partly
    overwritten, so a retry first restores it from the upper one.  Returns
    (M.T, d): the factor in dpotrs's upper form, and d."""
    d = M.diagonal().copy()
    if not np.isfinite(d).all():
        raise ValueError("Schur matrix must be finite")
    shift = np.abs(d) + np.finfo(float).tiny
    delta = 0.0
    while True:
        factor, info = sla.lapack.dpotrf(M.T, lower=0, clean=0, overwrite_a=1)
        if info == 0:
            return factor, d
        delta = max(10.0 * delta, 1e-14)
        _mirror(M)
        M.flat[:: len(M) + 1] = d + delta * shift
        # no delta helps an infinite or NaN entry off the diagonal
        if not np.isfinite(M.sum()):
            raise ValueError("Schur matrix must be finite")


def _schur_product(factor: tuple, x: np.ndarray) -> np.ndarray:
    """M x from ``_schur_factor``'s (c, d): dsymv reads the triangle of c
    that still holds M, with the factor's diagonal in place of d."""
    c, d = factor
    return sla.blas.dsymv(1.0, c, x, lower=1) - c.diagonal() * x + d * x


def _factor_solve(factor: tuple, v: np.ndarray) -> np.ndarray:
    """(M + delta diag(M))^-1 v from ``_schur_factor``'s factor."""
    return sla.lapack.dpotrs(factor[0], v, lower=0)[0]


def _head(x: np.ndarray, axis: int) -> np.ndarray:
    """The head of a (k, n, n) stack, in double: each row (axis -1) or column
    (axis -2) of each matrix rounded to a multiple of 2^(e + c - 53), where
    2^e bounds its largest entry and c = ceil((53 + log2 n) / 2).  The
    products of a row head with a column head are integers in one unit, at
    most 2^(106 - 2c) each, so their n-term sum, at most 2^53, is exact in
    double, in any order (Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59,
    2012)."""
    c = math.ceil((53 + math.log2(x.shape[-1])) / 2)
    xd = np.asarray(x, dtype=float)
    # the unit is sigma's ulp, and |x| < 2^e < sigma / 3 keeps x + sigma in
    # sigma's binade, so (x + sigma) - sigma is x rounded to the unit, exactly
    sigma = np.ldexp(0.75, np.frexp(np.abs(xd).max(axis=axis, keepdims=True))[1] + c)
    return (xd + sigma) - sigma


def _split_w(W: np.ndarray) -> tuple:
    """A stack W's row head Wr, W - Wr, its column head Wc and W - Wc."""
    Wr, Wc = _head(W, -1), _head(W, -2)
    return Wr, W - Wr, Wc, W - Wc


def _sandwich(W: np.ndarray, split: tuple, Z: np.ndarray) -> np.ndarray:
    """W Z W in long double from double products, for a double (k, n, n)
    stack W, its ``_split_w`` and a long-double stack Z.

    With Z1 the column head of Z and Z2 = fl(Z - Z1), W Z is Wr Z1, exact,
    plus W Z2 + (W - Wr) Z1, whose terms are 2^(c - 53) times smaller, so
    their rounding in double costs about 2^(c - 106) of |W| |Z|, against
    2^-64 for the product in long double (c = 30 at n = 56); T W likewise,
    from T's row head."""
    Wr, Wr_rest, Wc, Wc_rest = split
    Z1 = _head(Z, -2)
    Z2 = (Z - Z1).astype(float)
    T = (Wr @ Z1).astype(np.longdouble) + (W @ Z2 + Wr_rest @ Z1)
    T1 = _head(T, -1)
    T2 = (T - T1).astype(float)
    return (T1 @ Wc).astype(np.longdouble) + (T2 @ W + T1 @ Wc_rest)


class _ExactSchur:
    """GMRES-IR's exact Schur operator v -> A (W (x) W) A^T v, never rounded
    to a matrix, for the (k, n, n) stacks W of ``bp._size_classes``.

    The sparse products with A run in long double.  A size class of blocks
    of size _SPLIT_MIN and up forms each W_k Z_k W_k from six double-BLAS
    products, summed in long double (``_sandwich``); smaller classes form it
    in long double, where numpy has no BLAS: the split's numpy calls cost a
    fixed 30-60 us per class and call.  Time per class and call, long double
    against split, on one thread of an Intel Xeon: n=12 with 3 blocks
    0.05/0.07 ms; n=16 with 1 block 0.05/0.05 ms and with 3 blocks 0.13/0.10
    ms; n=5 with 36 blocks 0.05/0.18 ms; n=21 with 9 blocks 1.07/0.43 ms;
    n=56 with 3 blocks 4.8/0.8-1.2 ms.  W's split is made on the first call,
    so once per interior-point iteration and only in those that reach GMRES."""

    def __init__(self, bp: BlockProblem, W) -> None:
        self.bp = bp
        self.W = W

    @cached_property
    def _splits(self) -> list:
        return [
            _split_w(Wc) if n >= _SPLIT_MIN else None
            for (n, _, _), Wc in zip(self.bp._size_classes, self.W)
        ]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        bp = self.bp
        WZW = [
            Wc @ Zc @ Wc if split is None else _sandwich(Wc, split, Zc)
            for Wc, split, Zc in zip(self.W, self._splits, bp._gather(bp._A_ld_T @ v))
        ]
        return bp._A_ld @ bp._scatter(WZW)


def _schur_solve(factor, apply_exact, rhs) -> tuple[np.ndarray, int, float]:
    """Solve M x = rhs; return x, the GMRES steps and the relative residual.
    ``factor`` is ``_schur_factor``'s (c, d), which holds both the factor
    and M, so M is not passed.  Double refinement goes first: its solves run
    on the factor (dpotrs) and its products with M on the kept triangle
    (``_schur_product``).  Where it misses _SOLVE_TOL, GMRES-IR (Carson &
    Higham, SIAM J. Sci. Comput. 2017, 2018) goes on: flexible GMRES in long
    double against ``apply_exact``, the Schur operator never rounded to a
    matrix (``_ExactSchur``, which accumulates double-BLAS products in long
    double), right-preconditioned by the factor.  The factor was checked
    finite once, in ``_schur_factor``; a non-finite rhs raises
    ``ValueError`` here, as LAPACK and BLAS do not check."""
    if not np.isfinite(rhs).all():
        raise ValueError("Schur right-hand side must be finite")
    scale = 1.0 + float(np.linalg.norm(rhs))
    target = _SOLVE_TOL * scale
    x = np.zeros_like(rhs)
    resid = rhs
    for _ in range(_REFINE_STEPS + 1):
        x += _factor_solve(factor, resid)
        resid = rhs - _schur_product(factor, x)
        res = float(np.linalg.norm(resid))
        if res <= target:
            return x, 0, res / scale
    x = x.astype(np.longdouble)
    steps = 0
    for restart in range(_GMRES_RESTARTS + 1):
        r = rhs - apply_exact(x)
        beta = np.linalg.norm(r)
        if beta <= target or restart == _GMRES_RESTARTS:
            return x, steps, float(beta) / scale
        V = np.zeros((_GMRES_STEPS + 1, len(x)), dtype=np.longdouble)
        Z = np.zeros_like(V)
        H = np.zeros((_GMRES_STEPS + 1, _GMRES_STEPS))
        V[0] = r / beta
        for j in range(_GMRES_STEPS):
            steps += 1
            # the factor preconditions V[j]'s high and low double parts
            hi = V[j].astype(float)
            Z[j] = _factor_solve(factor, hi)
            Z[j] += _factor_solve(factor, (V[j] - hi).astype(float))
            w = apply_exact(Z[j])
            for _ in range(2):  # classical Gram-Schmidt, twice
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                H[: j + 1, j] += h
            H[j + 1, j] = np.linalg.norm(w)
            coef, res2 = np.linalg.lstsq(H[: j + 2, : j + 1], np.eye(j + 2)[0])[:2]
            if beta * np.sqrt(res2.sum()) <= target or H[j + 1, j] == 0.0:
                break
            V[j + 1] = w / H[j + 1, j]
        x += beta * (coef @ Z[: j + 1])


def solve_block_problem(
    bp: BlockProblem, tol: SolverTolerances | None = None
) -> SdpSolution:
    start = time.perf_counter()
    timings = dict.fromkeys(_PHASES, 0.0)

    def timed(phase, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        timings[phase] += time.perf_counter() - t
        return out

    tol = tol or SolverTolerances()
    bp, order = timed("presolve", _canonical_order, bp)
    original = bp
    # coefficient-matching equalities pin every free variable; eliminating
    # them all leaves the positive definite Schur complement as the whole
    # Newton system, smaller by one row per free variable
    bp, reduction = timed("presolve", reduce_free_variables, bp)
    bp = timed("scaling", _with_trace_bound, bp)
    # assembled identities mix coefficients across several orders of
    # magnitude; unit row norms keep the Schur system solvable all the way
    # to the central-path endgame
    bp, row_scale = timed("scaling", _equilibrated, bp)
    m = bp.m
    N = max(bp.total_dimension, 1)
    classes = bp._size_classes
    gather, scatter = bp._gather, bp._scatter
    C = gather(bp.c)

    # identity-scaled cold start with magnitudes taken from the data rows;
    # the last row is the trace cap, whose right-hand side is a
    # deliberately generous bound, not a magnitude to start from
    m_data = m - 1
    denom = 1.0 + bp.constraint_norms[:m_data]
    tau_p = max(
        10.0,
        np.sqrt(N),
        float(np.max(N * (1.0 + np.abs(bp.b[:m_data])) / denom, initial=10.0)),
    )
    tau_d = max(
        10.0,
        np.sqrt(N),
        (1.0 + bp.cost_norm + float(np.max(bp.constraint_norms[:m_data], initial=0.0))) / np.sqrt(N),
    )
    tau_p = min(tau_p, 1e6)
    tau_d = min(tau_d, 1e6)
    X = [np.tile(tau_p * np.eye(n), (len(ks), 1, 1)) for n, ks, _ in classes]
    S = [np.tile(tau_d * np.eye(n), (len(ks), 1, 1)) for n, ks, _ in classes]
    # the cap's slack, the last 1x1 block, starts on its row: the cap holds
    X[0][-1, 0, 0] = max(_TRACE_CAP - tau_p * (N - 1), tau_p)
    y = np.zeros(m)

    def on_original(x, y, s):
        """Stacked x and s and scaled y mapped back to the original problem:
        x, u, y, the cap's multiplier and the original's ``_residuals``."""
        y = y / row_scale
        x, s, y_cap, y = x[:-1], s[:-1], float(y[-1]), y[:-1]
        u, y = (np.zeros(0), y) if reduction is None else reduction.recover(x, y)
        # the dual objective keeps the cap row's term, inert cap or not
        return (x, u, y, y_cap, *_residuals(original, x, u, y, s, _TRACE_CAP * y_cap))

    trace: list[IterationRecord] = []
    M = np.zeros((m, m))
    best = None
    best_score = np.inf
    best_iteration = 0
    status = "max_iter"
    limits = np.array([tol.feasibility, tol.feasibility, tol.gap])

    for it in range(1, tol.max_iterations + 1):
        x = scatter(X)
        r_p = bp.b - bp.A @ x
        r_d = [Cc - Sc - Ac for Cc, Sc, Ac in zip(C, S, gather(bp._A_T @ y))]
        mu = sum(float(np.sum(Xc * Sc)) for Xc, Sc in zip(X, S)) / N
        slack = abs(float(r_p @ y)) + sum(
            float(np.abs(np.sum(Xc * rdc, axis=(1, 2))).sum()) for Xc, rdc in zip(X, r_d)
        )
        point = on_original(x, y, scatter(S))
        residuals, pobj, dobj = point[-3:]
        pinf, dinf, relgap, _ = residuals.values()
        # the largest residual over its tolerance, NaN if one is NaN
        score = float(np.max(np.abs([pinf, dinf, relgap]) / limits))
        if score < 0.99 * best_score:
            best_iteration = it
        if score < best_score:
            best_score = score
            best = point

        record = IterationRecord(
            iteration=it,
            mu=mu,
            primal_objective=pobj,
            dual_objective=dobj,
            primal_infeasibility=pinf,
            dual_infeasibility=dinf,
            relative_gap=relgap,
            duality_slack=slack,
        )
        trace.append(record)

        if score <= 1.0:
            status = "optimal"
            break
        if it - best_iteration >= 30:
            # no meaningful progress for 30 iterations: the central path has
            # collapsed numerically, keep the best iterate seen so far
            break
        norms = [float(np.abs(Xc).max()) for Xc in X]
        if max(float(np.abs(y).max(initial=0.0)), max(norms)) > _DIVERGENCE_LIMIT:
            status = "infeasible_flag"
            break
        if it == tol.max_iterations:
            # no iteration is left to judge a step's point
            break

        R, W, lam = zip(
            *(timed("nt_scaling", _nt_scaling, Xc, Sc, trace) for Xc, Sc in zip(X, S))
        )

        # M is positive definite (full-rank constraints, PD scaling) and
        # exactly symmetric, so refinement runs against the matrix that was
        # factored, up to _schur_factor's shift; the factor overwrites M's
        # lower triangle, and the next iteration's _schur all of M
        timed("schur", _schur, bp, W, M)
        factor = timed("factor", _schur_factor, M)
        solves = {"krylov_steps": 0, "newton_residual": 0.0}
        apply_exact = _ExactSchur(bp, W)

        def kkt_solve(rhs):
            sol, steps, res = timed("solve", _schur_solve, factor, apply_exact, rhs)
            solves["krylov_steps"] += steps
            solves["newton_residual"] = max(solves["newton_residual"], res)
            return np.asarray(sol, dtype=float)

        A_WrdW = bp.A @ scatter([Wc @ rdc @ Wc for Wc, rdc in zip(W, r_d)])

        def direction(K):
            """Solve for (dy, dX, dS, dXhat, dShat) given the scaled
            complementarity target K, one stack per block size."""
            TK = [2.0 * Kc / (lc[:, :, None] + lc[:, None, :]) for lc, Kc in zip(lam, K)]
            RTKRt = [Rc @ TKc @ np.swapaxes(Rc, -1, -2) for Rc, TKc in zip(R, TK)]
            dy = kkt_solve(r_p - bp.A @ scatter(RTKRt) + A_WrdW)
            dS = [rdc - Ac for rdc, Ac in zip(r_d, gather(bp._A_T @ dy))]
            dShat = [np.swapaxes(Rc, -1, -2) @ dSc @ Rc for Rc, dSc in zip(R, dS)]
            dXhat = [TKc - dsh for TKc, dsh in zip(TK, dShat)]
            dX = [Rc @ dxh @ np.swapaxes(Rc, -1, -2) for Rc, dxh in zip(R, dXhat)]
            # the sandwich products above lose O(eps * cond(W)) digits, which
            # caps how far primal feasibility can fall; push the measured
            # violation of the primal Newton equation back through the same
            # factorization (the (dX, dS) correction pair cancels inside the
            # scaled complementarity equation, so that equation stays intact)
            r_p_norm = 1.0 + float(np.linalg.norm(r_p))
            for _ in range(3):
                r_lin = r_p - bp.A @ scatter(dX)
                if float(np.linalg.norm(r_lin)) <= 1e-12 * r_p_norm:
                    break
                dy2 = kkt_solve(r_lin)
                dy = dy + dy2
                for c, Ac in enumerate(gather(bp._A_T @ dy2)):
                    half = np.swapaxes(R[c], -1, -2) @ Ac @ R[c]
                    dXhat[c] = dXhat[c] + half
                    dShat[c] = dShat[c] - half
                    dX[c] = dX[c] + W[c] @ Ac @ W[c]
                    dS[c] = dS[c] - Ac
            return dy, dX, dS, dXhat, dShat

        # predictor: drive mu to zero, with steps all the way to the boundary
        K_aff = [-(lc**2)[:, :, None] * np.eye(lc.shape[1]) for lc in lam]
        dy_a, dX_a, dS_a, dXh_a, dSh_a = direction(K_aff)
        ap = timed("step_length", _step_length, lam, dXh_a, 1.0)
        ad = timed("step_length", _step_length, lam, dSh_a, 1.0)
        mu_aff = sum(
            float(np.sum((Xc + ap * dXc) * (Sc + ad * dSc)))
            for Xc, dXc, Sc, dSc in zip(X, dX_a, S, dS_a)
        ) / N
        mu_aff = max(mu_aff, 0.0)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # near the end of the path the affine system can turn numerically
        # singular and return enormous directions; folding their product
        # into the corrector would poison it, so fall back to a plain
        # centering step and let the iterate recover
        cross = [dxh @ dsh for dxh, dsh in zip(dXh_a, dSh_a)]
        cross_sq = sum(float(np.sum(c**2)) for c in cross)
        use_cross = min(ap, ad) >= 0.01 and np.sqrt(cross_sq) <= 1e2 * mu * N
        if not use_cross:
            sigma = max(sigma, 0.8)
        # long predictor steps let the corrector go close to the boundary,
        # short ones keep it central
        gamma = 0.9 + 0.09 * min(ap, ad)

        # corrector: recentre and fold in the second-order term
        K_corr = [(sigma * mu - lc**2)[:, :, None] * np.eye(lc.shape[1]) for lc in lam]
        if use_cross:
            K_corr = [Kc - 0.5 * (c + np.swapaxes(c, -1, -2)) for Kc, c in zip(K_corr, cross)]
        dy, dX, dS, dXh, dSh = direction(K_corr)
        ap = timed("step_length", _step_length, lam, dXh, gamma)
        ad = timed("step_length", _step_length, lam, dSh, gamma)

        X = [0.5 * ((Xc + ap * dXc) + np.swapaxes(Xc + ap * dXc, -1, -2)) for Xc, dXc in zip(X, dX)]
        S = [0.5 * ((Sc + ad * dSc) + np.swapaxes(Sc + ad * dSc, -1, -2)) for Sc, dSc in zip(S, dS)]
        y = y + ad * dy
        steps = dict(step_primal=ap, step_dual=ad, sigma=sigma, step_fraction=gamma)
        trace[-1] = replace(record, **steps, **solves)

    if status == "max_iter":
        # stalled or out of iterations: return the best point, all-NaN
        # scores leaving none, and call it near_optimal if it came close
        point = best or point
        if best_score <= _NEAR_OPTIMAL_FACTOR:
            status = "near_optimal"
    x, u, y, y_cap, residuals, pobj, dobj = point
    X = original._split(x)
    return SdpSolution(
        status=status,
        objective=pobj,
        dual_objective=dobj,
        block_values=[X[j].copy() for j in np.argsort(order)],
        free_values=u,
        y=y,
        residuals=residuals,
        iterations=it,
        trace_cap_fraction=sum(float(np.trace(Xk)) for Xk in X) / _TRACE_CAP,
        trace_cap_multiplier=y_cap,
        trace=trace,
        timings={**timings, "total": time.perf_counter() - start},
    )


def solve(problem: SdpProblem, tol: SolverTolerances | None = None) -> SdpSolution:
    """Solve an assembled relaxation under a generous aggregate trace cap.

    The solution reports the cap's fill (``trace_cap_fraction``) and its
    multiplier (``trace_cap_multiplier``), so a caller can see whether the
    cap moved the optimum.
    """
    return solve_block_problem(standardize(problem), tol)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def export_sdpa(problem) -> str:
    """Serialize to SDPA sparse format (.dat-s).

    Free variables become one trailing diagonal block of size 2f (declared
    negative, the standard diagonal-block convention) holding the split
    u = u_plus - u_minus.  Costs, both the free weights and any block cost
    matrices, enter F_0 with a sign flip since SDPA maximizes <F_0, Y> on
    that side.  With this encoding the exporting problem's optimum theta
    corresponds to an SDPA-reported optimum of -theta.
    """
    bp = problem if isinstance(problem, BlockProblem) else standardize(problem)
    if bp.objective_offset != 0.0:
        raise ValueError("SDPA format cannot carry a constant objective offset")
    m, f = bp.m, bp.n_free
    sizes = list(bp.block_sizes)
    if f:
        sizes.append(-2 * f)
    lines = [str(m), str(len(sizes))]
    lines.append(" ".join(str(n) for n in sizes))
    lines.append(" ".join(_fmt(v) for v in bp.b))

    # the fields (matno, block, i, j, value) of every entry, one array per
    # field and source; a lexsort on the first four gives the file order
    fields: list[list[np.ndarray]] = [[], [], [], [], []]

    def add(matno, blk, i, j, value) -> None:
        for col, arr in zip(fields, (matno, blk, i, j, value)):
            col.append(np.broadcast_to(arr, len(value)))

    free_blk = len(bp.block_sizes) + 1
    nz = np.flatnonzero(bp.c_free)
    add(0, free_blk, nz + 1, nz + 1, -bp.c_free[nz])
    add(0, free_blk, f + nz + 1, f + nz + 1, bp.c_free[nz])
    # matrix 0 is the negated PSD cost, matrix i + 1 row i of A
    coo = sp.vstack([sp.csr_matrix(-bp.c), bp.A]).tocoo()
    k = np.searchsorted(bp.offsets, coo.col, side="right") - 1
    r, c = np.divmod(coo.col - bp.offsets[k], np.array(bp.block_sizes)[k])
    keep = r <= c
    add(coo.row[keep], k[keep] + 1, r[keep] + 1, c[keep] + 1, coo.data[keep])
    coo = bp.B.tocoo()
    rows, cols = coo.row + 1, coo.col + 1
    add(rows, free_blk, cols, cols, coo.data)
    add(rows, free_blk, f + cols, f + cols, -coo.data)
    keys = [np.concatenate(col) for col in fields]
    order = np.lexsort(keys[3::-1])
    entries = zip(*(arr[order].tolist() for arr in keys))
    lines.extend(f"{a} {k} {i} {j} {_fmt(v)}" for a, k, i, j, v in entries)
    return "\n".join(lines) + "\n"

