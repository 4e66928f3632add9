"""Dense complex linear algebra and Hermitian functional calculus.

All matrix functions go through a full spectral decomposition; dimensions
are small (desk scale), so spectral calculus is exact up to eigensolver
error and handles log and fractional powers uniformly. The spectral core
takes a single matrix or a stack of shape (..., n, n): a stack is
decomposed in one call and every matrix in it is validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure, DomainError, InvalidShape, NotHermitian

HERMITIAN_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
SUPPORT_EPS = 1e-12


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def _adjoint(m: np.ndarray) -> np.ndarray:
    """M^* of a matrix or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _frobenius_each(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of every matrix in a stack."""
    return np.sqrt((m * m.conj()).real.sum((-2, -1)))


def _in_stack(per_matrix: np.ndarray) -> str:
    """Names the matrix of a stack with the largest per-matrix measure; "" for
    one matrix or a stack of one, which reports as its matrix alone would."""
    if np.size(per_matrix) == 1:
        return ""
    return f" (matrix {int(np.argmax(per_matrix))} of {np.size(per_matrix)} in the stack)"


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "matrix") -> None:
    """NotHermitian unless the largest entry of |M - M^*| is at most ``tol``,
    so a non-finite M fails too; on a stack the defect is its worst matrix's,
    and the message names that matrix."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN fails the check below
        asymmetry = np.abs(m - _adjoint(m))
    defect = float(asymmetry.max())
    if not defect <= tol:
        what = f"is not Hermitian within {tol:g}" if np.isfinite(m).all() else "has non-finite entries"
        raise NotHermitian(f"{name} {what}{_in_stack(asymmetry.max((-2, -1)))}", defect)


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(X + X^*) / 2, matrixwise over a stack."""
    x = np.asarray(x, dtype=complex)
    return (x + _adjoint(x)) / 2


def point_array(x: float | np.ndarray, name: str) -> np.ndarray:
    """x as a nonempty 1-d array of finite floats; a float gives one entry.
    InvalidShape and DomainError name the parameter ``name``."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1 or xs.size == 0:
        raise InvalidShape(f"{name} must be a float or a nonempty 1-d array, got shape {xs.shape}")
    xs = xs.reshape(-1)
    bad = ~np.isfinite(xs)
    if bad.any():
        raise DomainError(f"{name} must be finite, got {xs[bad][0]}")
    return xs


def log_partition(z: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """mu = log sum_i w_i exp(z_i) over the last axis, a mu per row of a stack (w = 1 when ``weights``
    is None), and the normalized weights w_i exp(z_i - mu). The largest z is factored out, so
    nothing overflows, and zero weights are allowed."""
    top = z.max(axis=-1, keepdims=True)
    p = np.exp(z - top) if weights is None else weights * np.exp(z - top)
    total = p.sum(axis=-1, keepdims=True)
    return (top + np.log(total))[..., 0], p / total


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B of two matrices, or of each pair of matrices
    of a (k, m, m) and a (k, n, n) stack, with np.kron's elementwise products."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    m, n = a.shape[-1], b.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*a.shape[:-2], m * n, m * n)


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition H = U diag(d) U^* with d ascending; over a
    stack, eigenvalues (..., n) and eigenvectors (..., n, n), and every
    method works matrixwise."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self) -> np.ndarray:
        return self._with_eigenvalues(self.eigenvalues)

    def power(self, p: float) -> np.ndarray:
        """H^p, with H^0 = I. An integer p > 0 needs a finite spectrum; a
        fractional p > 0 needs it above -SUPPORT_EPS and clips it at 0; a
        negative p needs it above SUPPORT_EPS. The result is kept (_kept)."""
        return self._kept(p, self._power)

    def _power(self, p: float) -> np.ndarray:
        if p == 0:
            return np.broadcast_to(np.eye(self.dim, dtype=complex), self.eigenvectors.shape).copy()
        if p < 0:
            return self._with_eigenvalues(self._positive_spectrum(f"power {p}") ** p)
        d = self.eigenvalues
        if p != int(p):
            low = float(d.min())
            if not low >= -SUPPORT_EPS:  # a NaN eigenvalue fails too
                raise DomainError(
                    f"power {p} undefined: eigenvalue {low:.3e} below -{SUPPORT_EPS:g}{_in_stack(-d.min(-1))}"
                )
            d = np.maximum(d, 0.0)
        elif not np.isfinite(d).all():
            bad = ~np.isfinite(d)
            raise DomainError(
                f"power {p} undefined: eigenvalue {d[bad].flat[0]:.3e} is not finite{_in_stack(bad.any(-1))}"
            )
        return self._with_eigenvalues(d**p)

    def log(self) -> np.ndarray:
        """log(H); the spectrum must lie above SUPPORT_EPS. The result is kept (_kept)."""
        return self._kept("log", lambda _: self._with_eigenvalues(np.log(self._positive_spectrum("log"))))

    def _kept(self, key, compute: Callable) -> np.ndarray:
        """compute(key) once per instance and key; later calls share the array, so it is read-only."""
        kept = self.__dict__.setdefault("_kept_results", {})
        if key not in kept:
            kept[key] = compute(key)
            kept[key].flags.writeable = False
        return kept[key]

    def _positive_spectrum(self, what: str) -> np.ndarray:
        low = float(self.eigenvalues.min())
        if not low > SUPPORT_EPS:  # a NaN eigenvalue fails too
            raise DomainError(
                f"{what} undefined: eigenvalue {low:.3e} at or below support threshold {SUPPORT_EPS:g}"
                + _in_stack(-self.eigenvalues.min(-1))
            )
        return self.eigenvalues

    def _with_eigenvalues(self, values: np.ndarray) -> np.ndarray:
        u = self.eigenvectors
        return (u * values[..., None, :]) @ _adjoint(u)


def split(eig: HermitianEigen) -> list[HermitianEigen]:
    """The decomposition of each matrix of a stack, as views; one decomposition as it is."""
    if eig.eigenvalues.ndim == 1:
        return [eig]
    return [HermitianEigen(w, u) for w, u in zip(eig.eigenvalues, eig.eigenvectors)]


def eig_hermitian(h: np.ndarray) -> HermitianEigen:
    """Eigendecompose a Hermitian matrix, or a stack (..., n, n) of them in
    one call, ascending eigenvalues.

    Every matrix is checked: DomainError for a non-finite entry, NotHermitian
    when a symmetry defect exceeds HERMITIAN_TOL, and ConvergenceFailure when
    the eigensolver fails or a reconstruction U diag(d) U^* misses its matrix
    by more than RECONSTRUCTION_TOL relative Frobenius. The messages report
    the worst matrix.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    try:
        # one pass checks both: a non-finite entry fails it too
        require_hermitian(h)
    except NotHermitian:
        if not np.isfinite(h).all():
            raise DomainError("matrix has non-finite entries") from None
        raise
    eig = _eigh(h)
    check_reconstruction(eig, h)
    return eig


def _eigh(h: np.ndarray) -> HermitianEigen:
    """The unchecked LAPACK step of eig_hermitian (ConvergenceFailure when it
    does not converge); check_reconstruction must still check its result."""
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return HermitianEigen(w, u)


def check_reconstruction(eig: HermitianEigen, h: np.ndarray) -> None:
    """ConvergenceFailure when U diag(d) U^* misses ``h`` (a matrix or a
    stack) by more than RECONSTRUCTION_TOL relative Frobenius; the message
    reports the worst matrix."""
    scale = _frobenius_each(h) + 1e-300
    defect = _frobenius_each(eig.reconstruct() - h)
    if not (defect <= RECONSTRUCTION_TOL * scale).all():  # a NaN defect fails too
        k = int(np.argmax(defect / scale))
        raise ConvergenceFailure(
            f"eigendecomposition reconstruction defect {defect.flat[k]:.3e} exceeds "
            f"{RECONSTRUCTION_TOL:g} * {scale.flat[k]:.3e}{_in_stack(defect / scale)}"
        )


def check_unitary(u: np.ndarray) -> None:
    """ConvergenceFailure when a basis U (a matrix or a stack) misses U^* U = I
    by more than RECONSTRUCTION_TOL in Frobenius norm; the message reports
    the worst matrix."""
    defect = _frobenius_each(_adjoint(u) @ u - np.eye(u.shape[-1]))
    if not (defect <= RECONSTRUCTION_TOL).all():  # a NaN defect fails too
        k = int(np.argmax(defect))
        raise ConvergenceFailure(
            f"eigenvector basis is not unitary: U^* U misses I by {defect.flat[k]:.3e}, "
            f"more than {RECONSTRUCTION_TOL:g}{_in_stack(defect)}"
        )


class _CachedEigen:
    """Descriptor for an instance's read-only ``eig_hermitian(matrix)``, taken
    on first access and then kept in the instance. It lives in the spectral
    core, so a profile charges the decomposition to the layer that first asks
    for it."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return self.keep(obj, eig_hermitian(obj.matrix))

    def keep(self, obj, eig: HermitianEigen) -> HermitianEigen:
        """Make ``eig``'s arrays read-only and keep it as the decomposition of ``obj``."""
        eig.eigenvalues.flags.writeable = False
        eig.eigenvectors.flags.writeable = False
        obj.__dict__[self.name] = eig
        return eig


def matrices(items) -> np.ndarray:
    """The matrix of one item (an object with a ``matrix``, such as a state),
    or the matrices of items of one dim as one stack: the one-item case of
    stacked code runs on plain arrays."""
    return items[0].matrix if len(items) == 1 else np.array([item.matrix for item in items])


def decomposition(items) -> HermitianEigen:
    """The decomposition (``.eig``, a _CachedEigen) of one item, as it is, so
    that its kept results are shared, or of items of one dim as one stack.
    The items that hold none yet are decomposed by one validated
    eig_hermitian call and keep theirs; like _CachedEigen, this lives in the
    spectral core, so a profile charges the decomposition to the layer that
    asks for it."""
    if len(items) == 1:
        return items[0].eig
    missing = list({id(item): item for item in items if "eig" not in item.__dict__}.values())
    if missing:
        for item, eig in zip(missing, split(eig_hermitian(matrices(missing)))):
            type(item).eig.keep(item, eig)
    eigs = [item.eig for item in items]
    return HermitianEigen(np.array([e.eigenvalues for e in eigs]), np.array([e.eigenvectors for e in eigs]))


def apply_fn(h: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate a scalar function on a Hermitian matrix via its spectrum.

    ``f`` must accept a real numpy vector. Raises DomainError when f is
    undefined (non-finite) at any eigenvalue.
    """
    eig = eig_hermitian(h)
    with np.errstate(all="ignore"):
        fd = np.asarray(f(eig.eigenvalues))
    if not np.all(np.isfinite(fd)):
        bad = eig.eigenvalues[~np.isfinite(np.asarray(fd, dtype=complex))]
        raise DomainError(f"function undefined at eigenvalue(s) {bad}")
    return eig._with_eigenvalues(fd)


def herm_log(h: np.ndarray) -> np.ndarray:
    """log(H) for Hermitian H with spectrum above the support threshold."""
    return eig_hermitian(h).log()


def herm_power(h: np.ndarray, p: float) -> np.ndarray:
    """H^p for Hermitian H, with the domain rules of HermitianEigen.power."""
    return eig_hermitian(h).power(p)
