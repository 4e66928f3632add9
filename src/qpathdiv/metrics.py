"""State-dependent inner products and quantum Fisher information.

A tangent vector at a full-rank state rho has two representations: the raw
derivative A (mixture side) and a logarithmic-derivative-like operator X
(exponential side), tied together by A = E_rho(X). The map E_rho acts in
rho's eigenbasis by entrywise multiplication with a scalar kernel
c(d_i, d_j) of the eigenvalues:

    SLD         c(a, b) = (a + b) / 2          symmetric Jordan product
    Bogoljubov  c(a, b) = (a - b) / (log a - log b)
    RLD         c(a, b) = a                    left multiplication
    lambda      c(a, b) = a^lam * b^(1 - lam)

Every kernel satisfies c(a, a) = a, so E_rho(I) = rho for each variant.
Inverting E_rho is entrywise division by the same kernel, which is what
makes the dual (mixture-side) inner product computable in O(n^2) after one
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidShape
from .linalg import SUPPORT_EPS, eig_hermitian, point_array
from .states import DensityMatrix, check_pair, not_full_rank, require_full_rank

FD_STEP = 1e-4


@dataclass(frozen=True)
class MetricKind:
    """Selector for the kernel family; use the module constants or factories."""

    name: str
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.name not in ("s", "b", "r", "lambda"):
            raise InvalidShape(f"unknown metric kind {self.name!r}")
        if self.name == "lambda" and (self.lam is None or not 0.0 <= self.lam <= 1.0):
            raise InvalidShape(f"lambda must lie in [0, 1], got {self.lam}")

    def label(self) -> str:
        if self.name == "lambda":
            return "half" if self.lam == 0.5 else f"lambda={float(self.lam)!r}"
        return self.name


SLD = MetricKind("s")
BOGOLJUBOV = MetricKind("b")
RLD = MetricKind("r")


def lambda_kind(lam: float) -> MetricKind:
    return MetricKind("lambda", lam=float(lam))


HALF = lambda_kind(0.5)


def metric_from_tag(tag: str) -> MetricKind:
    """The kind of a tag s|b|r|half|lambda=<x>; InvalidShape otherwise.
    Inverts ``MetricKind.label`` on these kinds."""
    if tag in ("s", "b", "r"):
        return MetricKind(tag)
    if tag == "half":
        return HALF
    if isinstance(tag, str) and tag.startswith("lambda="):
        try:
            return lambda_kind(float(tag[len("lambda="):]))
        except ValueError as exc:
            raise InvalidShape(f"cannot parse metric tag {tag!r}: {exc}") from exc
    raise InvalidShape(f"unknown metric tag {tag!r}")


def phi1(u: np.ndarray) -> np.ndarray:
    """expm1(u) / u, exactly 1 at u = 0: the divided difference of exp,
    (e^x - e^y) / (x - y) = e^y phi1(x - y), free of cancellation."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u == 0.0, 1.0, np.expm1(u) / u)


def kernel_matrix(kind: MetricKind, eigenvalues: np.ndarray) -> np.ndarray:
    """The matrix c(d_i, d_j) over a positive spectrum; a stack (..., n) of
    spectra gives a stack (..., n, n) of kernels."""
    d = np.asarray(eigenvalues, dtype=float)
    if not np.all(d > 0):  # a NaN eigenvalue fails too
        raise DomainError(f"kernel needs a strictly positive spectrum, min {d.min():.3e}")
    a = d[..., :, None]
    b = d[..., None, :]
    if kind.name == "s":
        return (a + b) / 2.0
    if kind.name == "b":
        # logarithmic mean: the divided difference of exp at (log a, log b),
        # taken at the larger eigenvalue so that it is symmetric; the n logs
        # give log min - log max = -|log a - log b| exactly
        log_d = np.log(d)
        return np.maximum(a, b) * phi1(-np.abs(log_d[..., :, None] - log_d[..., None, :]))
    if kind.name == "r":
        return np.broadcast_to(a, d.shape + d.shape[-1:]).copy()
    # lambda; pin coincident eigenvalues so c(a, a) = a holds exactly despite pow roundoff
    return np.where(a == b, a, a**kind.lam * b ** (1.0 - kind.lam))


def _check_dim(rho: DensityMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (rho.dim, rho.dim):
        raise DimensionMismatch(f"operand shape {x.shape} does not match state dim {rho.dim}")
    return x


def _kernel_frame(rho: DensityMatrix, kind: MetricKind, x: np.ndarray):
    """rho's eigenvectors U, the operand in that basis and the kernel matrix."""
    x = _check_dim(rho, x)
    require_full_rank(rho, "rho")
    u = rho.eig.eigenvectors
    return u, u.conj().T @ x @ u, kernel_matrix(kind, rho.eig.eigenvalues)


def e_to_m(rho: DensityMatrix, kind: MetricKind, x: np.ndarray) -> np.ndarray:
    """A = E_rho(X): exponential-side operator to mixture-side tangent."""
    u, xp, c = _kernel_frame(rho, kind, x)
    return u @ (c * xp) @ u.conj().T


def m_to_e(rho: DensityMatrix, kind: MetricKind, a: np.ndarray) -> np.ndarray:
    """X = E_rho^{-1}(A): entrywise division by the kernel in rho's eigenbasis."""
    u, ap, c = _kernel_frame(rho, kind, a)
    return u @ (ap / c) @ u.conj().T


def e_inner(rho: DensityMatrix, kind: MetricKind, y: np.ndarray, x: np.ndarray) -> complex:
    """<Y, X> = Tr Y^* E_rho(X); sesquilinear, PSD, Hermitian-symmetric."""
    y = _check_dim(rho, y)
    return complex(np.trace(y.conj().T @ e_to_m(rho, kind, x)))


def m_inner(rho: DensityMatrix, kind: MetricKind, a: np.ndarray, b: np.ndarray) -> complex:
    """<A, B> = Tr (E_rho^{-1}(A))^* B, the dual pairing of e_inner."""
    b = _check_dim(rho, b)
    return complex(np.trace(m_to_e(rho, kind, a).conj().T @ b))


def fisher_info_mixture(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    kind: MetricKind | tuple[MetricKind, ...],
    t: float | np.ndarray,
) -> float | np.ndarray:
    """Fisher information of the segment (1-t) rho + t sigma at parameter t.

    The tangent is the constant sigma - rho, so no differentiation is
    involved; this is the squared mixture-side norm of that tangent at the
    interpolated state. A float t gives a float; a 1-d array of t gives an
    array, from one validated eigendecomposition of the stacked states.
    A nonempty tuple of kinds adds a leading axis, one row of J_t per kind:
    the kinds share the decomposition and differ only in the kernel.
    """
    check_pair(rho, sigma)
    rows = _segment_info([(rho, sigma)], kind if isinstance(kind, tuple) else (kind,), t, [""])[0]
    if isinstance(kind, tuple):
        return rows if np.ndim(t) else rows[:, 0]
    return rows[0] if np.ndim(t) else float(rows[0, 0])


def _segment_info(
    pairs: list[tuple[DensityMatrix, DensityMatrix]],
    kinds: tuple[MetricKind, ...],
    t: float | np.ndarray,
    names: list[str],
) -> np.ndarray:
    """fisher_info_mixture of each pair, all of one dim and checked by the
    caller (check_pairs), at each t: a view (pairs, kinds, t). The stack of
    all (pairs, t) mixture states is decomposed by one validated
    eig_hermitian; each pair's rows are bitwise those of a call on it alone.
    ``names`` holds each pair's name in a NotFullRank (check_pairs)."""
    if not kinds:
        raise InvalidShape("need at least one metric kind")
    ts = point_array(t, "t")
    p, m, n = len(pairs), ts.size, pairs[0][0].dim
    rho = np.array([rho.matrix for rho, _ in pairs])
    sigma = np.array([sigma.matrix for _, sigma in pairs])
    # exactly Hermitian, since rho and sigma are and the weights are real
    mt = (1.0 - ts)[:, None, None] * rho[:, None] + ts[:, None, None] * sigma[:, None]
    eig = eig_hermitian(mt.reshape(p * m, n, n))
    low = eig.eigenvalues[:, 0]
    if np.any(low <= SUPPORT_EPS):
        first = int(np.argmax(low <= SUPPORT_EPS))
        raise not_full_rank(f"mixture state{names[first // m]} at t={ts[first % m]:g}", float(low[first]))
    u = eig.eigenvectors.reshape(p, m, n, n)
    # Delta U_k for every node k as one (n, nodes n) product per pair, then U_k^* (Delta U_k)
    du = ((sigma - rho) @ u.transpose(0, 2, 1, 3).reshape(p, n, m * n)).reshape(p, n, m, n)
    dp = u.conj().swapaxes(-1, -2) @ du.transpose(0, 2, 1, 3)
    dp2 = (dp.real**2 + dp.imag**2).reshape(p * m, n, n)
    rows = np.array([np.sum((dp2 / kernel_matrix(k, eig.eigenvalues)).reshape(p * m, -1), axis=1) for k in kinds])
    return rows.reshape(len(kinds), p, m).swapaxes(0, 1)


def fisher_info_numeric(family: Callable[[float], DensityMatrix], theta: float, kind: MetricKind) -> float:
    """Fisher information of a one-parameter family by central differences.

    Richardson-extrapolates the derivative over steps FD_STEP and FD_STEP / 2,
    then takes its squared mixture-side norm at family(theta).
    """
    rho = family(theta)

    def derivative(step: float) -> np.ndarray:
        return (family(theta + step).matrix - family(theta - step).matrix) / (2.0 * step)

    d = (4.0 * derivative(FD_STEP / 2.0) - derivative(FD_STEP)) / 3.0
    return float(m_inner(rho, kind, d, d).real)
