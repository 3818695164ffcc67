"""Benchmark dynamical systems used throughout the tests and scripts.

Every model couples a polynomial vector field with the unit box; the box
enters twice, once as the constraints 1 - x_i^2 of ``Box.constraints()`` and
once as integration bounds for the objective.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .poly import DynamicalSystem, Polynomial, default_names, parse_polynomial
from .relax import Box

# random_network_model's bound on the draws of B
_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class Model:
    name: str
    variables: tuple[str, ...]
    system: DynamicalSystem
    bounds: tuple[tuple[float, float], ...]


def _unit_box_model(name: str, field_strings: tuple[str, ...]) -> Model:
    n = len(field_strings)
    names = default_names(n)
    field = tuple(parse_polynomial(s, names) for s in field_strings)
    system = DynamicalSystem(field=field, constraints=Box.symmetric(n).constraints())
    return Model(
        name=name,
        variables=names,
        system=system,
        bounds=((-1.0, 1.0),) * n,
    )


def lorenz() -> Model:
    """Classical chaotic three-variable flow, restricted to the unit box."""
    return _unit_box_model(
        "lorenz",
        (
            "10*x2 - 10*x1",
            "28*x1 - x1*x3 - x2",
            "x1*x2 - 8/3*x3",
        ),
    )


def coupled_cubic() -> Model:
    """Three cubic oscillators with overlapping variable couplings."""
    return _unit_box_model(
        "coupled-cubic",
        (
            "x1^3 + x1*x2^2 - 1/4*x1",
            "x2^3 + x2*x3^2 - 1/4*x2",
            "x2^2*x3 + x3^3 - 1/4*x3",
        ),
    )


def semi_coupled_cubic() -> Model:
    """Variant of the cubic network with a linear middle variable."""
    return _unit_box_model(
        "semi-coupled-cubic",
        (
            "x1^3 + x1*x2^2 - 1/4*x1",
            "x2",
            "x2^2*x3 + x3^3 - 1/4*x3",
        ),
    )


def extended_lorenz() -> Model:
    """Five-variable expansion of the chaotic flow with two driven tails."""
    return _unit_box_model(
        "extended-lorenz",
        (
            "10*x1 - 12*x2",
            "-70/3*x1 + x2 + 125/3*x1*x3",
            "8/3*x3 - 15*x1*x2",
            "10*x4 - 10*x1",
            "28*x1 - x1*x3 - x5",
        ),
    )


def fixed_models() -> tuple[Model, ...]:
    """The four hand-written benchmark systems."""
    return (lorenz(), coupled_cubic(), semi_coupled_cubic(), extended_lorenz())


@dataclass(frozen=True)
class RandomNetworkModel(Model):
    """Cubic interaction network x_i' = (x^T B x - 1) x_i on the unit box."""

    seed: int
    edges: tuple[tuple[int, int], ...]
    matrix: tuple[tuple[float, ...], ...]
    attempts: int


def random_network_model(n: int, seed: int) -> RandomNetworkModel:
    """Sample an n-variable network with exactly n-4 interaction edges.

    The edge set is the first n-4 entries of a seeded shuffle of all index
    pairs.  Diagonal entries of B are drawn from [1,2], one off-diagonal value
    per selected edge from [-0.5,0.5]; the whole draw is rejected and repeated
    until B is positive definite, at most _MAX_ATTEMPTS times.  The seed must
    be a nonnegative integer.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 to place n-4 edges, got {n}")
    # a bool is an Integral too, and no seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    all_pairs = list(combinations(range(n), 2))
    n_edges = n - 4
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        order = rng.permutation(len(all_pairs))
        edges = tuple(sorted(all_pairs[k] for k in order[:n_edges]))
        diag = rng.uniform(1.0, 2.0, size=n)
        off = rng.uniform(-0.5, 0.5, size=n_edges)
        b = np.diag(diag)
        for (i, j), value in zip(edges, off):
            b[i, j] = value
            b[j, i] = value
        if np.linalg.eigvalsh(b).min() > 0:
            break
    else:
        raise RuntimeError(f"no positive definite draw within {_MAX_ATTEMPTS} attempts")

    def exponent(*axes: int) -> tuple[int, ...]:
        return tuple(axes.count(k) for k in range(n))

    # x^T B x - 1, each edge's two entries of B in one term
    terms = {exponent(i, i): b[i, i] for i in range(n)}
    terms.update({exponent(i, j): 2.0 * b[i, j] for i, j in edges})
    q = Polynomial.from_terms(n, {**terms, exponent(): -1.0})
    field = tuple(Polynomial(n, {exponent(i): 1.0}) * q for i in range(n))
    system = DynamicalSystem(field=field, constraints=Box.symmetric(n).constraints())
    return RandomNetworkModel(
        name=f"random-n{n}-seed{seed}",
        variables=default_names(n),
        system=system,
        bounds=((-1.0, 1.0),) * n,
        seed=seed,
        edges=edges,
        matrix=tuple(tuple(float(v) for v in row) for row in b),
        attempts=attempt,
    )
