"""Assembly of the invariant-set relaxation into a standard-form block SDP.

The decision variables are Gram matrices (one PSD block per clique, per
multiplier, per certificate family) together with the free coefficients of the
auxiliary polynomial v and the outer-approximation polynomial w.  Three
families of linear equalities match coefficients exponent by exponent:

* ``lie``  sum_j a_j p_j - (beta v - grad v . f) = 0,
* ``w``    sum_j b_j p_j - w = 0,
* ``wv``   sum_j c_j p_j - w + v = -1 (constant exponent only).

Assembly numbers the rows from radix keys of the exponents and hands them
to the solver as arrays (see ``SdpProblem``); recovery reads the same arrays.

The objective integrates w over a box with closed-form Lebesgue moments, so
the constraint set must be a box; anything else is rejected at assembly.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import clique_set
from .poly import (
    DynamicalSystem,
    Exponent,
    Polynomial,
    SupportSet,
    exponent_keys,
    grlex_key,
    lie_polynomial,
    monomial_basis,
    radix_weights,
    support,
)
from .sparsity import (
    RelaxationConfig,
    SupportChain,
    build_chain,
    multiplier_basis_degree,
    v_degree_cap,
)
from .symmetry import SignSymmetryGroup, in_r_perp, sign_symmetries, symmetry_blocks

IDENTITIES = ("lie", "w", "wv")


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of intervals."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be nonempty and of equal length")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError(f"need lo < hi per axis, got [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @staticmethod
    def symmetric(dim: int, halfwidth: float = 1.0) -> Box:
        return Box((-halfwidth,) * dim, (halfwidth,) * dim)

    @staticmethod
    def from_bounds(bounds) -> Box:
        pairs = tuple((float(a), float(b)) for a, b in bounds)
        return Box(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.lo, self.hi))

    def volume(self) -> float:
        out = 1.0
        for a, b in zip(self.lo, self.hi):
            out *= b - a
        return out


def box_moment(alpha: Exponent, box: Box) -> float:
    """Integral of the monomial x^alpha over the box."""
    if len(alpha) != box.dim:
        raise ValueError("exponent dimension does not match the box")
    out = 1.0
    for a, lo, hi in zip(alpha, box.lo, box.hi):
        out *= (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
    return out


@dataclass(frozen=True)
class GramBlock:
    """One PSD variable: the Gram matrix of a multiplier on one clique."""

    certificate: str
    multiplier: int
    clique_index: int
    exponents: tuple[Exponent, ...]

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    @property
    def label(self) -> tuple[str, int, int]:
        return (self.certificate, self.multiplier, self.clique_index)


@dataclass(frozen=True)
class Equality:
    """One coefficient-matching row: sum of Gram entries plus a linear part
    of free coefficients equals rhs.  Entries address the upper triangle."""

    identity: str
    alpha: Exponent
    block_entries: tuple[tuple[int, int, int, float], ...]
    free_entries: tuple[tuple[int, float], ...]
    rhs: float


@dataclass(eq=False)
class SdpProblem:
    """Standard-form data for one relaxation instance.

    Row i of the equalities matches the coefficient of x^alpha in one
    identity, ``row_labels[i] = (identity, alpha)``, ordered by identity, then
    alpha in grlex order.  ``gram_entries`` holds the arrays (row, block, r,
    c, coef) of its upper-triangle Gram entries, sorted by row and otherwise
    in loop order (block, r <= c row-major, multiplier term); ``B`` (CSR,
    rows x free variables) its free part and ``rhs`` its right-hand side.
    ``equalities`` views the same rows as ``Equality`` records, built on
    access.  Problems compare by identity, as arrays have no single truth
    value."""

    system: DynamicalSystem
    box: Box
    config: RelaxationConfig
    blocks: tuple[GramBlock, ...]
    free_labels: tuple[tuple[str, Exponent], ...]
    row_labels: tuple[tuple[str, Exponent], ...]
    gram_entries: tuple[np.ndarray, ...]
    B: sp.csr_matrix
    rhs: np.ndarray
    objective_free: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def free_count(self) -> int:
        return len(self.free_labels)

    @property
    def equalities(self) -> _Equalities:
        return _Equalities(self)

    def gram_variable_count(self) -> int:
        return sum(b.dimension * (b.dimension + 1) // 2 for b in self.blocks)


class _Equalities(Sequence):
    """The rows of an ``SdpProblem`` as ``Equality`` records, each built on
    access: holding them all would cost more than the arrays they view."""

    def __init__(self, problem: SdpProblem) -> None:
        self._problem = problem

    def __len__(self) -> int:
        return len(self._problem.rhs)

    def __getitem__(self, i: int) -> Equality:
        p, i = self._problem, range(len(self))[i]
        row, *entry = p.gram_entries
        lo, hi = np.searchsorted(row, [i, i + 1])
        free = slice(p.B.indptr[i], p.B.indptr[i + 1])
        return Equality(
            *p.row_labels[i],
            block_entries=tuple(zip(*(x[lo:hi].tolist() for x in entry))),
            free_entries=tuple(zip(p.B.indices[free].tolist(), p.B.data[free].tolist())),
            rhs=float(p.rhs[i]),
        )


def _clique_exponents(graphs) -> list[tuple[tuple[Exponent, ...], ...]]:
    return [clique_set(g).exponent_cliques() for g in graphs]


def _structure(
    system: DynamicalSystem, config: RelaxationConfig
) -> tuple[
    SupportSet,
    SupportSet,
    list[tuple[tuple[Exponent, ...], ...]],
    list[tuple[tuple[Exponent, ...], ...]],
    dict,
]:
    """Per-mode v/w supports and clique lists for the a- and b/c-families."""
    n = system.dim
    d = config.d
    cap = v_degree_cap(system, d)
    degrees = (0,) + system.constraint_degrees
    meta: dict = {}
    if config.mode == "ts":
        chain = build_chain(
            system, d, s=config.s, l=config.l, extension=config.extension
        )
        v_support = chain.v_polynomial_support(config.s)
        w_support = chain.w_polynomial_support(config.l)
        a_cliques = _clique_exponents(chain.v_extended_at(config.s))
        bc_cliques = _clique_exponents(chain.w_extended_at(config.l))
        meta["v_stabilized"] = chain.v_stabilized
        meta["w_stabilized"] = chain.w_stabilized
        meta["chain_supports"] = (
            tuple(len(sup) for sup in chain.v_supports),
            tuple(len(sup) for sup in chain.w_supports),
        )
        return v_support, w_support, a_cliques, bc_cliques, meta
    if config.mode == "ss":
        group = sign_symmetries(system, d)
        meta["symmetry_rank"] = group.rank
        meta["symmetry_basis"] = group.vectors
        v_support = SupportSet.of(
            n, (a for a in monomial_basis(n, cap) if in_r_perp(group, a))
        )
        w_support = SupportSet.of(
            n, (a for a in monomial_basis(n, 2 * d) if in_r_perp(group, a))
        )
        cliques = [
            symmetry_blocks(
                group,
                SupportSet.of(n, monomial_basis(n, multiplier_basis_degree(d, dj))),
            )
            for dj in degrees
        ]
        return v_support, w_support, cliques, list(cliques), meta
    # fully dense
    v_support = SupportSet.of(n, monomial_basis(n, cap))
    w_support = SupportSet.of(n, monomial_basis(n, 2 * d))
    cliques = [
        (monomial_basis(n, multiplier_basis_degree(d, dj)),) for dj in degrees
    ]
    return v_support, w_support, cliques, list(cliques), meta


def _gram_rows(
    blocks: list[GramBlock], multipliers: tuple[Polynomial, ...], weights: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Gram entries as arrays (identity, key, block, r, c, coef): the index
    into IDENTITIES, the matched exponent keyed by ``weights``, and the
    upper-triangle entry.  Sorted by identity, then key; a row's entries stay
    in loop order: block, r <= c row-major, term.  One array pass on radix
    keys per (multiplier, size) class of blocks, then a stable sort."""
    terms = [p.sorted_terms() for p in multipliers]
    first_term = np.cumsum([0] + [len(t) for t in terms])
    coefs = np.array([x for t in terms for _, x in t], dtype=float)
    classes: dict[tuple[int, int], list[int]] = {}
    for block_id, block in enumerate(blocks):
        classes.setdefault((block.multiplier, block.dimension), []).append(block_id)
    parts = []
    for (j, size), ids in classes.items():
        exps = exponent_keys([blocks[k].exponents for k in ids], weights).reshape(-1, size)
        r, c = np.triu_indices(size)
        deltas = exponent_keys([delta for delta, _ in terms[j]], weights)
        keys = (exps[:, r] + exps[:, c])[:, :, None] + deltas
        term = first_term[j] + np.arange(len(deltas))
        fields = (keys, np.array(ids)[:, None, None], r[:, None], c[:, None], term)
        parts.append([np.broadcast_to(f, keys.shape).ravel() for f in fields])
    keys, block_of, row, col, term = (np.concatenate(x) for x in zip(*parts))
    # certificates a, b and c match the identities lie, w and wv
    ident = np.array(["abc".index(b.certificate) for b in blocks])[block_of]
    rank = np.unique(keys, return_inverse=True)[1].reshape(-1)
    order = np.lexsort((block_of, rank, ident))
    return ident[order], keys[order], block_of[order], row[order], col[order], coefs[term[order]]


def assemble(
    system: DynamicalSystem, box: Box, config: RelaxationConfig
) -> SdpProblem:
    """Build the block SDP for one relaxation instance."""
    if not isinstance(box, Box):
        raise ValueError(
            "the objective needs closed-form moments, so the domain must be "
            "a Box; general semialgebraic sets are not supported"
        )
    if box.dim != system.dim:
        raise ValueError("box dimension does not match the system")
    config.validate_for(system)

    v_support, w_support, a_cliques, bc_cliques, meta = _structure(system, config)
    multipliers = system.multipliers()

    blocks: list[GramBlock] = []
    for cert, per_j in (("a", a_cliques), ("b", bc_cliques), ("c", bc_cliques)):
        for j, cliques in enumerate(per_j):
            for k, clique in enumerate(cliques):
                blocks.append(GramBlock(cert, j, k, tuple(clique)))

    v_exponents = tuple(sorted(v_support, key=grlex_key))
    w_exponents = tuple(sorted(w_support, key=grlex_key))
    free_labels = tuple(("v", a) for a in v_exponents) + tuple(
        ("w", a) for a in w_exponents
    )
    v_index = {a: k for k, a in enumerate(v_exponents)}
    w_offset = len(v_exponents)
    w_index = {a: w_offset + k for k, a in enumerate(w_exponents)}

    # free-variable entries (identity, alpha, column, coef); lie holds
    # -(beta x^g - grad(x^g) . f) for each v exponent g
    lie = [lie_polynomial(Polynomial(system.dim, {g: 1.0}), system, config.beta) for g in v_index]
    free = [(0, a, col, -x) for col, p in enumerate(lie) for a, x in p.terms.items()]
    free += [(i, alpha, col, -1.0) for alpha, col in w_index.items() for i in (1, 2)]
    free += [(2, alpha, col, 1.0) for alpha, col in v_index.items()]
    f_ident, f_alpha, f_col, f_coef = (np.array(x) for x in zip(*free))

    # radix keys whose digits are the degree, then x_1, x_2, ...: they add
    # like exponents and sort in grlex order
    basis_degree = max(sum(a) for b in blocks for a in b.exponents)
    top = max(2 * basis_degree + max(p.degree for p in multipliers), int(f_alpha.sum(axis=1).max()))
    weights = radix_weights(system.dim + 1, top)
    grlex = weights[1:] + weights[0]
    g_ident, g_keys, block, r, c, coef = _gram_rows(blocks, multipliers, grlex)

    # a row per matched (identity, alpha); the last key is the constant of wv,
    # whose row holds the right-hand side
    keys = np.concatenate([g_keys, exponent_keys(f_alpha, grlex), [0]])
    keys, rank = np.unique(keys, return_inverse=True)
    ident = np.concatenate([g_ident, f_ident, [IDENTITIES.index("wv")]])
    labels, row = np.unique(ident * len(keys) + rank.reshape(-1), return_inverse=True)
    alphas = (keys[labels % len(keys), None] // weights[1:] % (top + 1)).tolist()
    row_labels = tuple(zip([IDENTITIES[i] for i in labels // len(keys)], map(tuple, alphas)))
    m, row = len(labels), row.reshape(-1)
    B = sp.csr_matrix((f_coef, (row[len(g_keys) : -1], f_col)), shape=(m, len(free_labels)))
    B.sum_duplicates()
    rhs = np.zeros(m)
    rhs[row[-1]] = -1.0

    objective = [0.0] * len(free_labels)
    for alpha, col in w_index.items():
        objective[col] = box_moment(alpha, box)

    meta.update(
        {
            "v_support_size": len(v_exponents),
            "w_support_size": len(w_exponents),
            "block_count": len(blocks),
            "equality_count": m,
        }
    )
    return SdpProblem(
        system=system,
        box=box,
        config=config,
        blocks=tuple(blocks),
        free_labels=free_labels,
        row_labels=row_labels,
        gram_entries=(row[: len(g_keys)], block, r, c, coef),
        B=B,
        rhs=rhs,
        objective_free=tuple(objective),
        metadata=meta,
    )


@dataclass
class CertificateSet:
    """Decoded solution: polynomials, Gram blocks, and validation results."""

    v: Polynomial
    w: Polynomial
    gram: dict[tuple[str, int, int], np.ndarray]
    objective: float
    residuals: dict[str, float]
    min_eigenvalues: dict[tuple[str, int, int], float]
    flags: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.flags


def recover(
    problem: SdpProblem,
    block_values,
    free_values,
    tolerance: float = 1e-6,
) -> CertificateSet:
    """Map raw solver output back to polynomials and validated Gram blocks.

    Residuals are recomputed from the stored equality arrays; violations are
    reported through ``flags`` rather than raised, so callers can decide how
    strict to be.
    """
    free = np.asarray(free_values, dtype=float)
    if free.shape != (problem.free_count,):
        raise ValueError("free variable vector has the wrong length")
    if len(block_values) != len(problem.blocks):
        raise ValueError("expected one matrix per Gram block")

    flags: list[str] = []
    gram: dict[tuple[str, int, int], np.ndarray] = {}
    min_eigs: dict[tuple[str, int, int], float] = {}
    mats: list[np.ndarray] = []
    for block, raw in zip(problem.blocks, block_values):
        mat = np.asarray(raw, dtype=float)
        if mat.shape != (block.dimension, block.dimension):
            raise ValueError(f"block {block.label} has the wrong shape")
        sym_gap = float(np.abs(mat - mat.T).max()) if mat.size else 0.0
        scale = float(np.abs(mat).max()) if mat.size else 0.0
        if sym_gap > tolerance * (1.0 + scale):
            flags.append(f"block {block.label} is not symmetric")
        mat = 0.5 * (mat + mat.T)
        eig_min = float(np.linalg.eigvalsh(mat).min()) if mat.size else 0.0
        if eig_min < -tolerance * (1.0 + scale):
            flags.append(f"block {block.label} has negative eigenvalue {eig_min:.3e}")
        gram[block.label] = mat
        min_eigs[block.label] = eig_min
        mats.append(mat)

    row, k, r, c, coef = problem.gram_entries
    sizes = np.array([b.dimension for b in problem.blocks])
    at = np.cumsum(np.append(0, sizes**2))[k] + r * sizes[k] + c
    terms = coef * np.concatenate([mat.ravel() for mat in mats])[at] * np.where(r == c, 1.0, 2.0)
    total = np.bincount(row, terms, minlength=len(problem.rhs)) + problem.B @ free - problem.rhs
    names = np.array([name for name, _ in problem.row_labels])
    residuals = {name: float(np.abs(total[names == name]).max(initial=0.0)) for name in IDENTITIES}
    coef_scale = max(1.0, np.abs(coef).max(initial=0.0), np.abs(problem.B.data).max(initial=0.0))
    worst = max(residuals.values())
    if worst > tolerance * coef_scale:
        flags.append(f"identity residual {worst:.3e} exceeds tolerance")

    v_terms: dict[Exponent, float] = {}
    w_terms: dict[Exponent, float] = {}
    for (kind, alpha), value in zip(problem.free_labels, free):
        target = v_terms if kind == "v" else w_terms
        if value != 0.0:
            target[alpha] = float(value)
    v = Polynomial.from_terms(problem.system.dim, v_terms)
    w = Polynomial.from_terms(problem.system.dim, w_terms)
    objective = float(np.dot(problem.objective_free, free))
    return CertificateSet(
        v=v,
        w=w,
        gram=gram,
        objective=objective,
        residuals=residuals,
        min_eigenvalues=min_eigs,
        flags=tuple(flags),
    )


def grid_counts(resolution, dim: int) -> tuple[int, ...]:
    """Per-axis point counts of a grid over ``dim`` axes.

    ``resolution`` is either one integer for all axes or a sequence with
    one count per axis, each count any ``numbers.Integral`` but a bool; each
    count must be at least 2 and the grid may hold at most 20 million
    points.  Raises ``ValueError`` otherwise, and ``TypeError`` for a bool.
    """
    entries = resolution if np.iterable(resolution) else (resolution,) * dim
    if any(isinstance(r, bool) for r in entries):
        raise TypeError("resolution must be an integer or a sequence of integers")
    if not all(isinstance(r, numbers.Integral) for r in entries):
        raise ValueError("resolution counts must be integers")
    counts = tuple(int(r) for r in entries)
    if len(counts) != dim:
        raise ValueError("resolution must give one count per axis")
    if any(c < 2 for c in counts):
        raise ValueError("need at least 2 points per axis")
    total = 1
    for c in counts:
        total *= c
        if total > 20_000_000:
            raise ValueError("grid too large; lower the resolution")
    return counts


def outer_approx_grid(
    w: Polynomial, box: Box, resolution
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate w on a regular grid and keep the points with w >= 1.

    Returns the kept points (rows) and their w values.  ``resolution`` is a
    per-axis point count, either one integer for all axes or a sequence
    (see ``grid_counts``).
    """
    counts = grid_counts(resolution, box.dim)
    axes = [
        np.linspace(lo, hi, count)
        for lo, hi, count in zip(box.lo, box.hi, counts)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    values = np.zeros(len(points))
    for alpha, coef in w.sorted_terms():
        term = np.full(len(points), coef)
        for i, a in enumerate(alpha):
            if a:
                term *= points[:, i] ** a
        values += term
    keep = values >= 1.0
    return points[keep], values[keep]
