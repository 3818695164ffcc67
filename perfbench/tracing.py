"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into each layer of ``mpisos`` by rebinding
module attributes from here; nothing under ``src/`` knows about tracing.
A span is ``[layer, start, end, parent span, cell]``. Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict

import numpy
import scipy.linalg

# library calls made by ``sdp``, traced through its aliases of the libraries
LIBRARY_LAYERS = (
    (scipy.linalg, "lu_factor", "factor"),
    (scipy.linalg, "lu_solve", "kkt_solve"),
    (scipy.linalg, "cholesky", "nt_scaling"),
    (numpy.linalg, "svd", "nt_scaling"),
    (numpy.linalg, "eigvalsh", "step_length"),
)


def _clone(module: types.ModuleType, overrides: dict) -> types.ModuleType:
    """A copy of ``module`` whose attributes ``overrides`` replaces."""
    clone = types.ModuleType(module.__name__, module.__doc__)
    clone.__dict__.update(vars(module))
    clone.__dict__.update(overrides)
    return clone


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cell: str | None = None
        self.ipm_iterations = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def traced(self, layer: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.cell]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, layer: str, where: str, on_return=None) -> None:
        """Trace ``owner.attr`` as ``layer``; record it as missing if absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{where}.{attr}")
            return
        self._rebind(owner, attr, self.traced(layer, fn, on_return))

    def _rebind(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_libraries(self, module: types.ModuleType) -> None:
        """Trace ``LIBRARY_LAYERS`` where ``module`` calls them through an
        alias of numpy or scipy.linalg; report the calls left untraced."""
        untraced = {(lib.__name__, attr) for lib, attr, _ in LIBRARY_LAYERS}

        def traced_clone(lib: types.ModuleType) -> types.ModuleType:
            overrides = {}
            for owner, attr, layer in LIBRARY_LAYERS:
                if owner is lib:
                    overrides[attr] = self.traced(layer, getattr(lib, attr))
                    untraced.discard((lib.__name__, attr))
            return _clone(lib, overrides)

        for name, value in list(vars(module).items()):
            if value is numpy:
                linalg = traced_clone(numpy.linalg)
                self._rebind(module, name, _clone(numpy, {"linalg": linalg}))
            elif value is scipy.linalg:
                self._rebind(module, name, traced_clone(scipy.linalg))
        self.missing.extend(
            f"{module.__name__}:{lib}.{attr}" for lib, attr in sorted(untraced)
        )

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_iterations(tracer: Tracer, solution) -> None:
    tracer.ipm_iterations += solution.iterations


def instrument(tracer: Tracer) -> None:
    """Rebind the entry points of each ``mpisos`` layer to traced wrappers.

    Private phases (underscored names) may be renamed or deleted by later
    changes; like any absent name they are reported as missing.
    """
    from mpisos import relax, sdp

    for owner, where, attr, layer, hook in (
        (relax, "relax", "assemble", "assemble", None),
        (relax, "relax", "build_chain", "chain", None),
        (relax, "relax", "sign_symmetries", "symmetry", None),
        (relax, "relax", "symmetry_blocks", "symmetry", None),
        (relax, "relax", "recover", "recover", None),
        (sdp, "sdp", "export_sdpa", "export", None),
        (sdp, "sdp", "solve", "solve", None),
        (sdp, "sdp", "standardize", "standardize", None),
        (sdp, "sdp", "reduce_free_variables", "presolve", None),
        (sdp, "sdp", "_equilibrated", "equilibrate", None),
        (sdp, "sdp", "_with_trace_bound", "trace_bound", None),
        (sdp, "sdp", "solve_block_problem", "ipm", _count_iterations),
        (sdp, "sdp", "_schur", "schur", None),
        (sdp, "sdp", "_lu_extended", "factor_ext", None),
        (sdp, "sdp", "_lu_extended_solve", "kkt_solve", None),
        (sdp, "sdp", "_max_step", "max_step", None),
    ):
        tracer.patch(owner, attr, layer, where, hook)
    block_problem = getattr(sdp, "BlockProblem", None)
    for attr in ("apply_A", "apply_At"):
        tracer.patch(block_problem, attr, attr, "sdp.BlockProblem")
    tracer.patch_libraries(sdp)


def layer_times(spans: list[list]) -> tuple[dict, dict, Counter]:
    """Total time, self time and calls per layer.

    Self time is a span's duration minus the time its direct child spans
    cover. A span nested in a span of its own layer adds to the calls but
    not again to the total.
    """
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (layer, start, end, parent, _) in enumerate(spans):
        calls[layer] += 1
        own[layer] += end - start - child[i]
        if parent < 0 or spans[parent][0] != layer:
            total[layer] += end - start
    return total, own, calls


def span_records(spans: list[list]) -> dict:
    """Compact form for the trace file: times relative to the first span."""
    origin = spans[0][1] if spans else 0.0
    layers = sorted({s[0] for s in spans})
    cells = sorted({s[4] for s in spans if s[4] is not None})
    layer_ix = {name: i for i, name in enumerate(layers)}
    cell_ix = {name: i for i, name in enumerate(cells)}
    return {
        "fields": ["layer", "start_s", "end_s", "parent", "cell"],
        "layers": layers,
        "cells": cells,
        "spans": [
            [
                layer_ix[layer],
                round(start - origin, 7),
                round(end - origin, 7),
                parent,
                cell_ix.get(cell, -1),
            ]
            for layer, start, end, parent, cell in spans
        ],
    }
