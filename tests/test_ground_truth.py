"""Outer approximations of a random network against its exact MPI set.

The field of a random network is f_i = x_i (q - 1) with q = x^T B x and B
positive definite, so dq/dt = 2 q (q - 1).  Inside {q <= 1} every |x_i|
shrinks and the trajectory stays in the box; where q > 1, q grows without
bound and the trajectory leaves it.  The MPI set is therefore {x in the box
: q <= 1}, for network 0 at n = 8 an ellipsoid inside the box.  Every
relaxation's w is at least 1 on the MPI set, so its objective, the integral
of w over the box, bounds the set's volume from above (Korda, Henrion &
Jones, SIAM J. Control Optim. 52(5), 2014).
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import network_mpi_samples, network_mpi_volume

from mpisos.relax import Box, assemble, recover
from mpisos.sdp import solve
from mpisos.sparsity import RelaxationConfig
from mpisos.systems import random_network_model

NETWORK = random_network_model(8, 0)


def test_mpi_volume_of_network_0():
    # the ellipsoid lies inside the box, so its volume is the set's
    assert network_mpi_volume(NETWORK) == pytest.approx(0.7890525, rel=1e-7)
    points = network_mpi_samples(NETWORK, 500, seed=1)
    b = np.array(NETWORK.matrix)
    q = np.einsum("ki,ij,kj->k", points, b, points)
    assert (q[:500] <= 1.0).all() and np.allclose(q[500:], 1.0, rtol=0, atol=1e-12)
    assert (np.abs(points) <= 1.0).all()


@pytest.mark.parametrize(
    "d, mode, extension", [(2, "ts", "maximal"), (2, "ss", "maximal"), (3, "ts", "min-degree")]
)
def test_bound_covers_the_mpi_set(d, mode, extension):
    config = RelaxationConfig(d=d, mode=mode, extension=extension)
    problem = assemble(NETWORK.system, Box.from_bounds(NETWORK.bounds), config)
    solution = solve(problem)
    assert solution.status == "optimal"
    certificates = recover(problem, solution.block_values, solution.free_values)
    assert certificates.ok
    assert certificates.objective >= network_mpi_volume(NETWORK)
    # interior points and points on q = 1, where w is closest to 1
    points = network_mpi_samples(NETWORK, 1000, seed=0)
    w = sum(c * np.prod(points ** np.array(alpha), axis=1) for alpha, c in certificates.w.terms.items())
    assert w.min() >= 1.0 - 1e-6
