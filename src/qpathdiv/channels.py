"""Trace-preserving completely positive maps, POVMs, and partial traces.

Channels are plain Kraus lists (no Choi matrices); the module exists to
feed monotonicity checks, so the only guarantees enforced are trace
preservation, POVM completeness, and that outputs re-validate as states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidShape,
    NotPSD,
    NotTracePreserving,
    PovmIncomplete,
)
from .linalg import eig_hermitian, hermitian_part
from .states import DensityMatrix, check_pair, validate_density, validate_distribution
from .transport import GeodesicKind, sandwich_record

TP_TOL = 1e-9
POVM_PSD_TOL = 1e-10
_CLUSTER_GAP = 1e-9


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus representation of a TP-CP map; sum K^* K = I is enforced."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.kraus:
            raise InvalidShape("channel needs at least one Kraus operator")
        shape = self.kraus[0].shape
        if len(shape) != 2:
            raise InvalidShape(f"Kraus operators must be matrices, got shape {shape}")
        for i, k in enumerate(self.kraus):
            if k.shape != shape:
                raise InvalidShape(f"Kraus shapes differ: {k.shape} vs {shape}")
            if not np.isfinite(k).all():
                raise InvalidShape(f"Kraus operator {i} has non-finite entries")
        total = sum(k.conj().T @ k for k in self.kraus)
        defect = float(np.max(np.abs(total - np.eye(self.dim_in))))
        if not defect <= TP_TOL:
            raise NotTracePreserving(
                f"sum K^* K differs from identity beyond {TP_TOL:g}", defect
            )

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    if rho.dim != channel.dim_in:
        raise DimensionMismatch(
            f"state dim {rho.dim} does not match channel input dim {channel.dim_in}"
        )
    out = sum(k @ rho.matrix @ k.conj().T for k in channel.kraus)
    return validate_density(out, tol=1e-9)


def random_channel(dim_in: int, dim_out: int, kraus_count: int, seed: int) -> QuantumChannel:
    """Seeded random channel: a Haar-ish isometry sliced into Kraus blocks."""
    if dim_in < 1 or dim_out < 1 or kraus_count < 1:
        raise InvalidShape("dimensions and kraus_count must be positive")
    total = dim_out * kraus_count
    if total < dim_in:
        raise InvalidShape(
            f"kraus_count * dim_out = {total} must be at least dim_in = {dim_in}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((total, dim_in)) + 1j * rng.standard_normal((total, dim_in))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    blocks = tuple(q[i * dim_out : (i + 1) * dim_out, :] for i in range(kraus_count))
    return QuantumChannel(kraus=blocks)


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Trace out one tensor factor of a state on A (x) B."""
    da, db = dims
    if da * db != rho.dim:
        raise InvalidShape(f"factor dims {da}x{db} do not multiply to {rho.dim}")
    if keep not in ("A", "B"):
        raise InvalidShape(f"keep must be 'A' or 'B', got {keep!r}")
    r = rho.matrix.reshape(da, db, da, db)
    reduced = np.einsum("ijkj->ik", r) if keep == "A" else np.einsum("ijil->jl", r)
    return validate_density(reduced, tol=1e-9)


@dataclass(frozen=True)
class Povm:
    """PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise InvalidShape("POVM needs at least one element")
        dim = self.elements[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for i, m in enumerate(self.elements):
            if m.shape != (dim, dim):
                raise InvalidShape(f"element {i} has shape {m.shape}, expected {(dim, dim)}")
            if not np.isfinite(m).all():
                raise InvalidShape(f"POVM element {i} has non-finite entries")
            low = float(np.linalg.eigvalsh(hermitian_part(m)).min())
            if not low >= -POVM_PSD_TOL:
                raise NotPSD(f"POVM element {i} has eigenvalue {low:.3e}", -low)
            total += m
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if not defect <= TP_TOL:
            raise PovmIncomplete(f"elements do not sum to identity within {TP_TOL:g}", defect)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def measure(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """Outcome distribution (Tr rho M_i)_i."""
    if rho.dim != povm.dim:
        raise DimensionMismatch(f"state dim {rho.dim} does not match POVM dim {povm.dim}")
    p = np.array([float(np.trace(rho.matrix @ m).real) for m in povm.elements])
    p = np.clip(p, 0.0, None)
    return validate_distribution(p / p.sum())


def random_povm(dim: int, seed: int, kraus_count: int = 2) -> Povm:
    """Non-projective POVM: Heisenberg images of a random basis PVM under a
    random channel, M_i = sum_k K_k^* P_i K_k (complete by construction)."""
    channel = random_channel(dim, dim, kraus_count, seed)
    rng = np.random.Generator(np.random.PCG64(seed ^ 0x9E3779B97F4A7C15))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis = eig_hermitian(hermitian_part(g)).eigenvectors
    elements = []
    for i in range(dim):
        p = np.outer(basis[:, i], basis[:, i].conj())
        elements.append(sum(k.conj().T @ p @ k for k in channel.kraus))
    return Povm(elements=tuple(elements))


def sandwich_pvm(rho: DensityMatrix, sigma: DensityMatrix) -> Povm:
    """Spectral PVM of sigma^{-1/2} (sigma^{1/2} rho sigma^{1/2})^{1/2} sigma^{-1/2}.

    Near-degenerate eigenvalues are grouped into one projector per cluster;
    the induced outcome distributions achieve the closed-form
    exponential-path divergence of kind s as a classical divergence.
    """
    check_pair(rho, sigma, ("sigma",))
    eig = sandwich_record(GeodesicKind.SLD, rho, sigma).eig
    w, u = eig.eigenvalues, eig.eigenvectors
    elements = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > _CLUSTER_GAP:
            block = u[:, start:i]
            elements.append(block @ block.conj().T)
            start = i
    return Povm(elements=tuple(elements))
