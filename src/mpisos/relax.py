"""Assembly of the invariant-set relaxation into a standard-form block SDP.

The decision variables are Gram matrices (one PSD block per clique, per
multiplier, per certificate family) together with the free coefficients of the
auxiliary polynomial v and the outer-approximation polynomial w.  Three
families of linear equalities match coefficients exponent by exponent:

* ``lie``  sum_j a_j p_j - (beta v - grad v . f) = 0,
* ``w``    sum_j b_j p_j - w = 0,
* ``wv``   sum_j c_j p_j - w + v = -1 (constant exponent only).

The objective integrates w over a box with closed-form Lebesgue moments, so
the constraint set must be a box; anything else is rejected at assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class SdpProblem:
    """Standard-form data for one relaxation instance."""

    system: DynamicalSystem
    box: Box
    config: RelaxationConfig
    blocks: tuple[GramBlock, ...]
    free_labels: tuple[tuple[str, Exponent], ...]
    equalities: tuple[Equality, ...]
    objective_free: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def free_count(self) -> int:
        return len(self.free_labels)

    def gram_variable_count(self) -> int:
        return sum(b.dimension * (b.dimension + 1) // 2 for b in self.blocks)


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


def _lie_coefficient_map(
    system: DynamicalSystem, v_support: SupportSet, beta: float
) -> dict[Exponent, dict[Exponent, float]]:
    """For each candidate v exponent, the coefficients of beta x^g - grad(x^g) . f."""
    n = system.dim
    out: dict[Exponent, dict[Exponent, float]] = {}
    for gamma in v_support:
        mono = Polynomial(n, {gamma: 1.0})
        out[gamma] = dict(lie_polynomial(mono, system, beta).terms)
    return out


def _gram_rows(
    blocks: list[GramBlock], multipliers: tuple[Polynomial, ...], dim: int
) -> dict[str, dict[Exponent, list[tuple[int, int, int, float]]]]:
    """Gram entries (block, r, c, coef) per identity and matched exponent, in
    loop order: block, r <= c row-major, term.  One array pass on radix keys
    per (multiplier, size) class of blocks, then a stable sort groups them;
    block ids and coefficients are looked up, so entries share the objects."""
    terms = [p.sorted_terms() for p in multipliers]
    first_term = np.cumsum([0] + [len(t) for t in terms])
    top = 2 * max(sum(a) for b in blocks for a in b.exponents) + max(p.degree for p in multipliers)
    weights = radix_weights(dim, top)
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
    alphas, rank = np.unique(keys, return_inverse=True)
    # certificates a, b and c match the identities lie, w and wv
    ident = np.array(["abc".index(b.certificate) for b in blocks])[block_of]
    order = np.lexsort((block_of, rank.reshape(-1), ident))
    ident, rank = ident[order], rank.reshape(-1)[order]
    cut = (np.flatnonzero((ident[1:] != ident[:-1]) | (rank[1:] != rank[:-1])) + 1).tolist()
    block_ids, coefs = list(range(len(blocks))), [x for t in terms for _, x in t]
    entries = list(zip(
        map(block_ids.__getitem__, block_of[order].tolist()), row[order].tolist(),
        col[order].tolist(), map(coefs.__getitem__, term[order].tolist()),
    ))
    alphas = (alphas[:, None] // weights % (top + 1)).tolist()
    rows: dict = {name: {} for name in IDENTITIES}
    for start, stop in zip([0, *cut], [*cut, len(order)]):
        rows[IDENTITIES[ident[start]]][tuple(alphas[rank[start]])] = entries[start:stop]
    return rows


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

    lie_map = _lie_coefficient_map(system, v_support, config.beta)

    rows = _gram_rows(blocks, multipliers, system.dim)

    # free-variable contributions per identity
    free_rows: dict[str, dict[Exponent, list[tuple[int, float]]]] = {
        ident: {} for ident in IDENTITIES
    }
    for gamma, terms in lie_map.items():
        col = v_index[gamma]
        for alpha, coef in terms.items():
            free_rows["lie"].setdefault(alpha, []).append((col, -coef))
    for alpha, col in w_index.items():
        free_rows["w"].setdefault(alpha, []).append((col, -1.0))
        free_rows["wv"].setdefault(alpha, []).append((col, -1.0))
    for alpha, col in v_index.items():
        free_rows["wv"].setdefault(alpha, []).append((col, 1.0))

    zero = (0,) * system.dim
    rhs_map = {("wv", zero): -1.0}
    equalities: list[Equality] = []
    for ident in IDENTITIES:
        alphas = set(rows[ident]) | set(free_rows[ident])
        if ident == "wv":
            alphas.add(zero)
        for alpha in sorted(alphas, key=grlex_key):
            equalities.append(
                Equality(
                    identity=ident,
                    alpha=alpha,
                    block_entries=tuple(rows[ident].get(alpha, ())),
                    free_entries=tuple(
                        sorted(free_rows[ident].get(alpha, ()))
                    ),
                    rhs=rhs_map.get((ident, alpha), 0.0),
                )
            )

    objective = [0.0] * len(free_labels)
    for alpha, col in w_index.items():
        objective[col] = box_moment(alpha, box)

    meta.update(
        {
            "v_support_size": len(v_exponents),
            "w_support_size": len(w_exponents),
            "block_count": len(blocks),
            "equality_count": len(equalities),
        }
    )
    return SdpProblem(
        system=system,
        box=box,
        config=config,
        blocks=tuple(blocks),
        free_labels=free_labels,
        equalities=tuple(equalities),
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

    Residuals are recomputed from the stored equality data; violations are
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

    residuals = {ident: 0.0 for ident in IDENTITIES}
    coef_scale = 1.0
    for eq in problem.equalities:
        total = -eq.rhs
        for block_id, r, c, coef in eq.block_entries:
            entry = mats[block_id][r, c]
            total += coef * entry * (1.0 if r == c else 2.0)
            coef_scale = max(coef_scale, abs(coef))
        for col, coef in eq.free_entries:
            total += coef * free[col]
            coef_scale = max(coef_scale, abs(coef))
        residuals[eq.identity] = max(residuals[eq.identity], abs(total))
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

    ``resolution`` is either one integer for all axes or a sequence with one
    count per axis; each count must be at least 2 and the grid may hold at
    most 20 million points.  Raises ``ValueError`` otherwise.
    """
    if isinstance(resolution, int):
        counts = (resolution,) * dim
    else:
        counts = tuple(int(r) for r in resolution)
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
