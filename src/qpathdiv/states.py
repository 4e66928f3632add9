"""Density matrices, classical distributions, and seeded random instances.

Random generation uses numpy's PCG64 bit generator with explicit seeds, so
every sampled state is reproducible from its seed alone (no global RNG
state anywhere in the package).
"""

from __future__ import annotations

from collections.abc import Sequence
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
from .linalg import (
    SUPPORT_EPS,
    HermitianEigen,
    _CachedEigen,
    _eigh,
    _in_stack,
    check_reconstruction,
    check_unitary,
    frobenius,
    hermitian_part,
    require_hermitian,
)

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


def _hermitized_density(m: np.ndarray, tol: float) -> np.ndarray:
    """The density-matrix checks before PSD (shape, finite, Hermitian, trace) of a matrix or a stack
    (..., n, n), with the measured defect and the worst matrix named; the hermitized matrices."""
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
    return hermitian_part(m)


def _check_psd(w: np.ndarray) -> None:
    """NotPSD unless every ascending spectrum of ``w`` (..., n) starts above -SUPPORT_EPS."""
    worst = float(w.min())
    if not worst >= -SUPPORT_EPS:  # a NaN eigenvalue fails too
        raise NotPSD(f"minimum eigenvalue {worst:.3e} below -{SUPPORT_EPS:g}{_in_stack(-w[..., 0])}", -worst)


def validate_density(m: np.ndarray, tol: float = DENSITY_TOL) -> DensityMatrix:
    """Check the density-matrix invariants of one matrix whose spectrum is not
    known, PSD by an eigvalsh minimum, and wrap the hermitized matrix."""
    if np.ndim(m) != 2:
        raise InvalidShape(f"expected a square matrix, got shape {np.shape(m)}")
    h = _hermitized_density(m, tol)
    w = np.linalg.eigvalsh(h)
    _check_psd(w)
    return DensityMatrix(matrix=h, min_eigenvalue=float(w[0]))


def state_from_eig(m: np.ndarray, eig: HermitianEigen) -> DensityMatrix:
    """The state of one matrix ``m`` whose eigendecomposition ``eig`` is
    already known: the checks of validate_density, with the PSD minimum read
    from ``eig``, and ConvergenceFailure when ``eig`` does not reconstruct the
    hermitized ``m`` (linalg.check_reconstruction). The state keeps ``eig``'s
    arrays, read-only, as its ``.eig``, so ``full_rank`` and every matrix
    function of the state read one spectrum."""
    if np.ndim(m) != 2:
        raise InvalidShape(f"expected a square matrix, got shape {np.shape(m)}")
    return _states_from_eig(m, eig)[0]


def state_from_basis(m: np.ndarray, eig: HermitianEigen) -> DensityMatrix:
    """state_from_eig of a matrix ``m`` built as U diag(w) U^* from ``eig``'s
    own basis and spectrum: such an ``m`` matches ``eig`` by construction, so
    ConvergenceFailure comes from a basis that is not unitary
    (linalg.check_unitary) in place of the reconstruction check."""
    if np.ndim(m) != 2:
        raise InvalidShape(f"expected a square matrix, got shape {np.shape(m)}")
    return _states_from_eig(m, eig, _checked_basis)[0]


def _checked_against_eig(m: np.ndarray, eig: HermitianEigen) -> np.ndarray:
    """state_from_eig's checks, once over a matrix or a stack (k, n, n); the hermitized matrices."""
    h = _hermitized_density(m, DENSITY_TOL)
    check_reconstruction(eig, h)
    _check_psd(eig.eigenvalues)
    return h


def _checked_basis(m: np.ndarray, eig: HermitianEigen) -> np.ndarray:
    """state_from_basis's checks, once over a matrix or a stack (k, n, n); the hermitized matrices."""
    h = _hermitized_density(m, DENSITY_TOL)
    check_unitary(eig.eigenvectors)
    _check_psd(eig.eigenvalues)
    return h


def _states_from_eig(m: np.ndarray, eig: HermitianEigen, checked=_checked_against_eig) -> list[DensityMatrix]:
    """A state per matrix of ``m`` (a matrix or a stack), after ``checked(m, eig)``."""
    parts = (checked(m, eig), eig.eigenvalues, eig.eigenvectors)
    states = []
    for hk, w, u in zip(*parts) if np.ndim(m) == 3 else [parts]:
        states.append(DensityMatrix(matrix=hk, min_eigenvalue=float(w[0])))
        DensityMatrix.eig.keep(states[-1], HermitianEigen(w, u))
    return states


def _state_in_basis(u: np.ndarray, w: np.ndarray) -> DensityMatrix:
    """The state U diag(w) U^* of an orthonormal basis ``u`` and a spectrum
    ``w`` in any order, built by state_from_basis from w sorted ascending and
    u's columns permuted to match."""
    order = np.argsort(w)
    return state_from_basis((u * w) @ u.conj().T, HermitianEigen(w[order], u[:, order]))


def max_mixed(dim: int) -> DensityMatrix:
    """The maximally mixed state I/dim."""
    if dim < 1:
        raise InvalidShape(f"dim must be >= 1, got {dim}")
    return DensityMatrix(matrix=np.eye(dim, dtype=complex) / dim, min_eigenvalue=1.0 / dim)


def random_density(spec: RandomSpec) -> DensityMatrix:
    """Seeded random state: normalized Ginibre GG^* mixed toward I/dim.

    The mixing weight is the smallest one that lifts the minimum eigenvalue
    to ``spec.min_eigenvalue``; identical specs give bitwise-identical
    matrices. The state carries the decomposition it was built from, and
    state_from_eig's checks validate it once, against the returned matrix.
    """
    return random_densities([spec])[0]


def random_densities(specs: Sequence[RandomSpec]) -> list[DensityMatrix]:
    """random_density of each spec, all of one dim, bitwise as if alone but built
    and checked in one pass over a (k, d, d) stack (one spec: one (d, d) matrix);
    a failed check names the worst state by its index in ``specs``."""
    if len({spec.dim for spec in specs}) != 1:
        raise DimensionMismatch(f"expected specs of one dim, got dims {[spec.dim for spec in specs]}")
    d = specs[0].dim
    z = np.array([np.random.Generator(np.random.PCG64(s.seed)).standard_normal((2, d, d)) for s in specs])
    g = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    g = g[0] if len(specs) == 1 else g
    rho0 = g @ g.conj().swapaxes(-1, -2)
    rho0 = hermitian_part(rho0 / np.trace(rho0, 0, -2, -1).real[..., None, None])
    eig = _eigh(rho0)
    w, m = eig.eigenvalues.reshape(-1, d), rho0.reshape(-1, d, d)  # views, one row per state
    lows = w[:, 0].tolist()
    lift = [k for k, spec in enumerate(specs) if lows[k] < spec.min_eigenvalue]
    if lift:
        # a slice when every state lifts: a pair costs no more than a loop over its two states
        rows = slice(None) if len(lift) == len(specs) else lift
        floors = np.array([specs[k].min_eigenvalue for k in lift])
        # the mixture keeps the eigenvectors and maps each eigenvalue affinely
        low = w[rows, 0]
        lam = ((floors - low) / (1.0 / d - low))[:, None]
        keep, shift = 1.0 - lam, lam / d
        m[rows] = keep[..., None] * m[rows] + shift[..., None] * np.eye(d)
        w[rows] = keep * w[rows] + shift
    return _states_from_eig(rho0, eig)


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

    return _state_in_basis(q, spectrum()), _state_in_basis(q, spectrum())


def not_full_rank(name: str, low: float) -> NotFullRank:
    """The NotFullRank of the state called ``name``, whose minimum eigenvalue
    ``low`` is at or below SUPPORT_EPS; ``low`` is its defect."""
    return NotFullRank(f"{name} has minimum eigenvalue {low:.3e}, at or below {SUPPORT_EPS:g}", low)


def require_full_rank(state: DensityMatrix, name: str) -> None:
    """Raise not_full_rank(name, ...), with the minimum eigenvalue that
    validation measured, unless ``state`` is full rank."""
    if not state.full_rank:
        raise not_full_rank(name, state.min_eigenvalue)


def check_pair(rho: DensityMatrix, sigma: DensityMatrix, full_rank: tuple[str, ...] = (), of: str = "") -> None:
    """Equal dims, and full rank (require_full_rank) for each state named in
    ``full_rank`` ("rho", "sigma"); in its errors ``of`` (" of pair 3")
    names the pair."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims {rho.dim} and {sigma.dim}{of} differ")
    for name, state in (("rho", rho), ("sigma", sigma)):
        if name in full_rank:
            require_full_rank(state, name + of)


def check_pairs(pairs: Sequence[tuple[DensityMatrix, DensityMatrix]], full_rank: tuple[str, ...] = ()) -> list[str]:
    """check_pair of each pair, which must all be of pair 0's dim (else
    DimensionMismatch names the pair); returns each pair's name in errors,
    "" for one pair, else " of pair k", its index in ``pairs`` ("rho of pair 3")."""
    names = [""] if len(pairs) == 1 else [f" of pair {k}" for k in range(len(pairs))]
    for k, (rho, sigma) in enumerate(pairs):
        if k and rho.dim != pairs[0][0].dim:
            raise DimensionMismatch(f"pair {k} has dim {rho.dim}, pair 0 has dim {pairs[0][0].dim}")
        check_pair(rho, sigma, full_rank, names[k])
    return names


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
