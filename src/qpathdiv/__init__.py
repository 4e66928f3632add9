"""Quantum divergences from information geometry.

The package computes metric-dependent path divergences along exponential
and mixture geodesics of density matrices, the quantum relative entropy,
and the Belavkin-Staszewski divergence, and ships a randomized harness
that verifies the identities and inequalities tying them together.
"""

from .channels import Povm, QuantumChannel, apply_channel, measure, partial_trace, sandwich_pvm
from .divergences import (
    ConvexFunctionModel,
    ExponentialFamily,
    QuadratureConfig,
    bregman_divergence,
    bregman_divergences,
    bs_divergence,
    classical_kl,
    e_divergence_closed,
    e_divergence_quadrature,
    m_divergence,
    quantum_relative_entropy,
    von_neumann_entropy,
)
from .errors import QPathDivError
from .linalg import apply_fn, eig_hermitian, hermitian_part, tensor_product
from .metrics import (
    BOGOLJUBOV,
    HALF,
    RLD,
    SLD,
    MetricKind,
    e_inner,
    e_to_m,
    fisher_info_mixture,
    fisher_info_numeric,
    m_inner,
    m_to_e,
)
from .states import (
    DensityMatrix,
    RandomSpec,
    commutation_defect,
    max_mixed,
    random_density,
    validate_density,
)
from .transport import (
    Geodesic,
    GeodesicKind,
    MomentFunction,
    e_transport,
    m_geodesic,
    make_geodesic,
    solve_direction,
    solve_directions,
    transport_commutation_defect,
)

__all__ = [
    "BOGOLJUBOV",
    "ConvexFunctionModel",
    "DensityMatrix",
    "ExponentialFamily",
    "Geodesic",
    "GeodesicKind",
    "HALF",
    "MetricKind",
    "MomentFunction",
    "Povm",
    "QPathDivError",
    "QuadratureConfig",
    "QuantumChannel",
    "RLD",
    "RandomSpec",
    "SLD",
    "apply_channel",
    "apply_fn",
    "bregman_divergence",
    "bregman_divergences",
    "bs_divergence",
    "classical_kl",
    "commutation_defect",
    "e_divergence_closed",
    "e_divergence_quadrature",
    "e_inner",
    "e_to_m",
    "e_transport",
    "eig_hermitian",
    "fisher_info_mixture",
    "fisher_info_numeric",
    "hermitian_part",
    "m_divergence",
    "m_geodesic",
    "m_inner",
    "m_to_e",
    "make_geodesic",
    "max_mixed",
    "measure",
    "partial_trace",
    "quantum_relative_entropy",
    "random_density",
    "sandwich_pvm",
    "solve_direction",
    "solve_directions",
    "tensor_product",
    "transport_commutation_defect",
    "validate_density",
    "von_neumann_entropy",
]

__version__ = "0.1.0"
