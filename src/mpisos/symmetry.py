"""Sign symmetries of a polynomial system and the block structure they induce.

A sign symmetry is a vector r in {0,1}^n such that flipping the signs of the
coordinates selected by r leaves the constraint set unchanged and makes every
field component f_i flip sign exactly when r_i = 1.  The set of all such r is
a GF(2)-linear space, computed here as the null space of the parity vectors of
the initial support set.  Exponents orthogonal to the whole group (even dot
product against every r) form the lattice on which all certificates can be
supported without loss; grouping monomials by their parity signature gives the
finest block structure the term-sparsity chains can converge to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import DynamicalSystem, Exponent, SupportSet, exponent_rows
from .sparsity import initial_support


def parity_mask(alpha: Exponent) -> int:
    """Pack the mod-2 reduction of an exponent into an integer, bit i per
    variable i."""
    mask = 0
    for i, a in enumerate(alpha):
        if a & 1:
            mask |= 1 << i
    return mask


def _nullspace_gf2(rows: list[int], dim: int) -> tuple[int, ...]:
    """Basis of {r : row . r = 0 mod 2 for all rows}, as bit masks in reduced
    echelon form ordered by pivot column."""
    echelon: list[tuple[int, int]] = []  # (pivot column, row mask)
    for row in rows:
        cur = row
        for pivot, prow in echelon:
            if (cur >> pivot) & 1:
                cur ^= prow
        if cur == 0:
            continue
        pivot = (cur & -cur).bit_length() - 1
        # clear this pivot from earlier rows to keep reduced form
        echelon = [
            (p, r ^ cur if (r >> pivot) & 1 else r) for p, r in echelon
        ]
        echelon.append((pivot, cur))
        echelon.sort()
    pivot_cols = {p for p, _ in echelon}
    basis = []
    for free in range(dim):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for pivot, row in echelon:
            if (row >> free) & 1:
                vec |= 1 << pivot
        basis.append(vec)
    return tuple(basis)


@dataclass(frozen=True)
class SignSymmetryGroup:
    """GF(2)-linear group of sign flips, stored as a reduced basis of masks."""

    dim: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        for mask in self.basis:
            if not 0 < mask < (1 << self.dim):
                raise ValueError("basis mask out of range")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """Basis as 0/1 tuples."""
        return tuple(
            tuple((mask >> i) & 1 for i in range(self.dim)) for mask in self.basis
        )

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All 2^rank group members as 0/1 tuples, sorted."""
        members = {0}
        for mask in self.basis:
            members |= {m ^ mask for m in members}
        packed = sorted(members)
        return tuple(
            tuple((m >> i) & 1 for i in range(self.dim)) for m in packed
        )


def support_symmetries(dim: int, exponents) -> SignSymmetryGroup:
    """Group of sign vectors with even dot product against every exponent."""
    exponents = exponent_rows(exponents, dim).tolist()
    rows = sorted({parity_mask(alpha) for alpha in exponents} - {0})
    return SignSymmetryGroup(dim, _nullspace_gf2(rows, dim))


def sign_symmetries(system: DynamicalSystem, d: int) -> SignSymmetryGroup:
    """Sign-symmetry group of the system, via the parity null space of the
    initial support set at half-degree d."""
    return support_symmetries(system.dim, initial_support(system, d))


def _parities(group: SignSymmetryGroup, exponents) -> np.ndarray:
    """Dot products mod 2 of each row of a (k, dim) exponent array against
    each basis vector, as a (k, rank) 0/1 array."""
    exponents = exponent_rows(exponents, group.dim)
    basis = np.array(group.vectors, dtype=np.int64).reshape(-1, group.dim)
    return (exponents & 1) @ basis.T & 1


def r_perp_mask(group: SignSymmetryGroup, exponents) -> np.ndarray:
    """For each row of a (k, dim) exponent array, whether it has even dot
    product against every group element."""
    return ~_parities(group, exponents).any(axis=1)


def symmetry_blocks(
    group: SignSymmetryGroup, basis_monomials: SupportSet
) -> tuple[tuple[Exponent, ...], ...]:
    """Partition of the monomials by parity signature: two exponents share a
    block iff their sum lies in the orthogonal lattice of the group.  Blocks
    are grlex sorted and ordered by their first exponent."""
    exponents = list(basis_monomials)  # grlex order, and so is each block
    buckets: dict[bytes, list[Exponent]] = {}
    for alpha, signature in zip(exponents, _parities(group, exponents)):
        buckets.setdefault(signature.tobytes(), []).append(alpha)
    return tuple(map(tuple, buckets.values()))
