"""Sparse moment-based outer approximations of maximum positively invariant sets."""

from .poly import (
    DynamicalSystem,
    Polynomial,
    PolynomialSyntaxError,
    SupportSet,
    parse_polynomial,
)
from .relax import Box, CertificateSet, SdpProblem, assemble, outer_approx_grid, recover
from .sdp import SdpSolution, export_sdpa, solve
from .sparsity import RelaxationConfig, SupportChain, build_chain, stabilized_chain
from .symmetry import SignSymmetryGroup, sign_symmetries, symmetry_blocks

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CertificateSet",
    "DynamicalSystem",
    "Polynomial",
    "PolynomialSyntaxError",
    "RelaxationConfig",
    "SdpProblem",
    "SdpSolution",
    "SignSymmetryGroup",
    "SupportChain",
    "SupportSet",
    "assemble",
    "build_chain",
    "export_sdpa",
    "outer_approx_grid",
    "parse_polynomial",
    "recover",
    "sign_symmetries",
    "solve",
    "stabilized_chain",
    "symmetry_blocks",
    "__version__",
]
