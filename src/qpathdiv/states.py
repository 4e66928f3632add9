"""Density matrices, classical distributions, and seeded random instances.

Random generation uses numpy's PCG64 bit generator with explicit seeds, so
every sampled state is reproducible from its seed alone (no global RNG
state anywhere in the package).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidShape,
    NotFullRank,
    NotPSD,
    TraceNotOne,
)
from .linalg import SUPPORT_EPS, _CachedEigen, _in_stack, frobenius, hermitian_part, require_hermitian

DENSITY_TOL = 1e-10
DISTRIBUTION_TOL = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-one matrix with the minimum eigenvalue that its
    validation measured; ``full_rank`` means that eigenvalue is above SUPPORT_EPS."""

    matrix: np.ndarray
    min_eigenvalue: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def full_rank(self) -> bool:
        return self.min_eigenvalue > SUPPORT_EPS

    # the validated HermitianEigen every matrix function of this state is
    # taken from, cached; its arrays are read-only because callers share them
    eig = _CachedEigen()

    def spectrum(self) -> np.ndarray:
        return self.eig.eigenvalues


@dataclass(frozen=True)
class RandomSpec:
    """Seeded recipe for a random density matrix with an eigenvalue floor."""

    dim: int
    seed: int
    min_eigenvalue: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidShape(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.min_eigenvalue < 1.0 / self.dim:
            raise InvalidShape(
                f"min_eigenvalue must lie in [0, 1/dim={1.0 / self.dim:g}), got {self.min_eigenvalue}"
            )


def check_densities(m: np.ndarray, tol: float = DENSITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Check the density-matrix invariants of a matrix, or of every matrix in
    a stack (..., n, n); return the hermitized matrices and the minimum
    eigenvalue of each.

    Raises InvalidShape for a non-finite entry, and NotHermitian /
    TraceNotOne / NotPSD naming the violated invariant with the measured
    defect; on a stack the message names the worst matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise InvalidShape(f"expected a nonempty square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidShape("matrix has non-finite entries" + _in_stack(~np.isfinite(m).all((-2, -1))))
    require_hermitian(m, tol, name="density matrix")
    trace_defects = abs(np.trace(m, 0, -2, -1) - 1.0)
    trace_defect = float(trace_defects.max())
    if trace_defect > tol:
        raise TraceNotOne(f"trace differs from 1 by more than {tol:g}{_in_stack(trace_defects)}", trace_defect)
    h = hermitian_part(m)
    w = np.linalg.eigvalsh(h)  # ascending, so w[..., 0] is each matrix's minimum
    worst = float(w.min())
    if worst < -SUPPORT_EPS:
        raise NotPSD(f"minimum eigenvalue {worst:.3e} below -{SUPPORT_EPS:g}{_in_stack(-w[..., 0])}", -worst)
    return h, w[..., 0]


def validate_density(m: np.ndarray, tol: float = DENSITY_TOL) -> DensityMatrix:
    """Check the density-matrix invariants (check_densities) of one matrix
    and wrap the hermitized matrix."""
    if np.ndim(m) != 2:
        raise InvalidShape(f"expected a square matrix, got shape {np.shape(m)}")
    h, low = check_densities(m, tol)
    return DensityMatrix(matrix=h, min_eigenvalue=float(low))


def max_mixed(dim: int) -> DensityMatrix:
    """The maximally mixed state I/dim."""
    if dim < 1:
        raise InvalidShape(f"dim must be >= 1, got {dim}")
    return DensityMatrix(matrix=np.eye(dim, dtype=complex) / dim, min_eigenvalue=1.0 / dim)


def random_density(spec: RandomSpec) -> DensityMatrix:
    """Seeded random state: normalized Ginibre GG^* mixed toward I/dim.

    The mixing weight is the smallest one that lifts the minimum eigenvalue
    to ``spec.min_eigenvalue``; identical specs give bitwise-identical
    matrices.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    d = spec.dim
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    rho0 = g @ g.conj().T
    rho0 = hermitian_part(rho0 / np.trace(rho0).real)
    low = float(np.linalg.eigvalsh(rho0).min())
    floor = spec.min_eigenvalue
    if low < floor:
        lam = (floor - low) / (1.0 / d - low)
        rho0 = (1.0 - lam) * rho0 + lam * np.eye(d) / d
    return validate_density(rho0)


def random_direction(dim: int, seed: int) -> np.ndarray:
    """Seeded random traceless Hermitian matrix with unit Frobenius norm; it
    needs dim >= 2, since at dim 1 only zero is traceless."""
    if dim < 2:
        raise InvalidShape(f"a unit traceless direction needs dim >= 2, got dim {dim}")
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = hermitian_part(g)
    h -= np.trace(h).real / dim * np.eye(dim)
    return h / frobenius(h)


def random_commuting_pair(
    dim: int, seed: int, min_eigenvalue: float = 0.0
) -> tuple[DensityMatrix, DensityMatrix]:
    """Two states diagonal in one random basis (they commute exactly).

    Each spectrum is a Dirichlet draw mixed toward 1/dim only when its
    smallest entry lies below ``min_eigenvalue``: the floor lifts eigenvalues
    and never pins one at it, so these pairs are not near-singular (over 200
    seeds at floor 1e-8 the smallest eigenvalue is 3.9e-4 at dim 2)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def spectrum() -> np.ndarray:
        w = rng.dirichlet(np.ones(dim))
        low = w.min()
        if low < min_eigenvalue:
            lam = (min_eigenvalue - low) / (1.0 / dim - low)
            w = (1.0 - lam) * w + lam / dim
        return w

    states = []
    for _ in range(2):
        w = spectrum()
        states.append(validate_density(hermitian_part((q * w) @ q.conj().T)))
    return states[0], states[1]


def not_full_rank(name: str, low: float) -> NotFullRank:
    """The NotFullRank of the state called ``name``, whose minimum eigenvalue
    ``low`` is at or below SUPPORT_EPS; ``low`` is its defect."""
    return NotFullRank(f"{name} has minimum eigenvalue {low:.3e}, at or below {SUPPORT_EPS:g}", low)


def require_full_rank(state: DensityMatrix, name: str) -> None:
    """Raise not_full_rank(name, ...), with the minimum eigenvalue that
    validation measured, unless ``state`` is full rank."""
    if not state.full_rank:
        raise not_full_rank(name, state.min_eigenvalue)


def check_pair(rho: DensityMatrix, sigma: DensityMatrix, full_rank: tuple[str, ...] = ()) -> None:
    """Equal dims, and full rank (require_full_rank) for each state named in
    ``full_rank`` ("rho", "sigma")."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims {rho.dim} and {sigma.dim} differ")
    for name, state in (("rho", rho), ("sigma", sigma)):
        if name in full_rank:
            require_full_rank(state, name)


def commutation_defect(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Frobenius norm of the commutator [rho, sigma]."""
    check_pair(rho, sigma)
    a, b = rho.matrix, sigma.matrix
    return frobenius(a @ b - b @ a)


def validate_distribution(weights: np.ndarray) -> np.ndarray:
    """Check finiteness, nonnegativity and normalization of a probability vector."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidDistribution(f"expected a nonempty 1-d vector, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise InvalidDistribution(f"weights must be finite, got {w}")
    low = float(w.min())
    if low < -DISTRIBUTION_TOL:
        raise InvalidDistribution(f"negative weight below -{DISTRIBUTION_TOL:g}", -low)
    total_defect = abs(float(w.sum()) - 1.0)
    if total_defect > DISTRIBUTION_TOL:
        raise InvalidDistribution(f"weights sum differs from 1 by more than {DISTRIBUTION_TOL:g}", total_defect)
    return np.clip(w, 0.0, None)
