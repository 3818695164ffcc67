"""Minimal SDPA sparse-format parser, used only by the test suite.

Reads .dat-s text produced by the exporter and folds the trailing
negative diagonal block (the split free variables) back into the
standard form with a dense coupling matrix, so round-trip tests can
rebuild an equivalent problem with ``entry_problem``, which hand-written
fixtures use as well.
"""

from __future__ import annotations

import numpy as np

from mpisos.sdp import BlockProblem, _upper_operator


def parse_sdpa(text: str):
    """Return (m, block_sizes, rhs, entries) from .dat-s text.

    entries maps (matno, blkno) to a list of (i, j, value) with 1-based
    indices and i <= j.
    """
    lines = [
        ln
        for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith(("*", '"'))
    ]
    m = int(lines[0])
    n_blocks = int(lines[1])
    sizes = [int(tok.strip("{}(),")) for tok in lines[2].replace(",", " ").split()]
    if len(sizes) != n_blocks:
        raise ValueError("block count does not match the size list")
    rhs = np.array(
        [float(tok) for tok in lines[3].replace(",", " ").split()], dtype=float
    )
    if len(rhs) != m:
        raise ValueError("right-hand side length does not match")
    entries: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
    for ln in lines[4:]:
        tok = ln.split()
        matno, blk, i, j = int(tok[0]), int(tok[1]), int(tok[2]), int(tok[3])
        value = float(tok[4])
        if i > j:
            raise ValueError("entries must address the upper triangle")
        entries.setdefault((matno, blk), []).append((i, j, value))
    return m, sizes, rhs, entries


def fold_free_pairs(m, sizes, rhs, entries):
    """Reconstruct (block_sizes, equality_entries, B, b, c_free, C).

    Expects the exporter's layout: PSD blocks first, then at most one
    negative diagonal block of even size 2f holding u = u_plus - u_minus.
    Cost entries carry a sign flip in the file, which is undone here; C is
    None when the file has no cost on the PSD blocks.
    """
    psd_sizes = [n for n in sizes if n > 0]
    neg = [(-n) for n in sizes if n < 0]
    if len(neg) > 1:
        raise ValueError("expected at most one free-variable block")
    f = neg[0] // 2 if neg else 0
    if neg and neg[0] != 2 * f:
        raise ValueError("free block size must be even")
    free_blk = len(psd_sizes) + 1 if neg else None

    B = np.zeros((m, f))
    c_free = np.zeros(f)
    C = None
    equalities: list[list[tuple[int, int, int, float]]] = [[] for _ in range(m)]
    for (matno, blk), items in sorted(entries.items()):
        if blk == free_blk:
            for i, j, value in items:
                if i != j:
                    raise ValueError("free block must be diagonal")
                col = i - 1
                if col >= f:
                    continue  # mirrored minus-half entry, checked below
                if matno == 0:
                    c_free[col] = -value
                else:
                    B[matno - 1, col] = value
        else:
            if matno == 0:
                for i, j, value in items:
                    if C is None:
                        C = [np.zeros((n, n)) for n in psd_sizes]
                    C[blk - 1][i - 1, j - 1] = -value
                    C[blk - 1][j - 1, i - 1] = -value
                continue
            for i, j, value in items:
                equalities[matno - 1].append((blk - 1, i - 1, j - 1, value))

    # the minus half must mirror the plus half exactly
    if free_blk is not None:
        for (matno, blk), items in entries.items():
            if blk != free_blk:
                continue
            for i, _, value in items:
                col = i - 1
                if col < f:
                    continue
                base = col - f
                want = c_free[base] if matno == 0 else -B[matno - 1, base]
                if value != want:
                    raise ValueError("free-variable halves do not mirror")
    return psd_sizes, equalities, B, rhs, c_free, C


def entry_problem(sizes, equalities, B, b, c_free, C=None) -> BlockProblem:
    """A ``BlockProblem`` from one list of upper-triangle entries
    (k, r, c, coef) per equality and, optionally, one symmetric cost matrix
    per block.  The operator is built by ``_upper_operator``, as
    ``standardize`` builds it, so its validation and mirroring apply."""
    flat = np.array([e for row in equalities for e in row], dtype=float).reshape(-1, 4)
    rows = np.repeat(np.arange(len(equalities)), [len(row) for row in equalities])
    k, r, c = flat[:, :3].astype(np.int64).T
    A = _upper_operator(sizes, len(equalities), rows, k, r, c, flat[:, 3])
    cost = None if C is None else np.concatenate([np.ravel(Ck) for Ck in C])
    return BlockProblem(sizes, A, B, b, c_free, cost)
