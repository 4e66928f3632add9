"""Divergence functionals and the convex-duality layer.

Quantum functionals (all in nats, full-rank second argument throughout):

  quantum_relative_entropy   Tr rho (log rho - log sigma)
  bs_divergence              Tr rho log(rho^{1/2} sigma^{-1} rho^{1/2})
                             (Belavkin-Staszewski; upper-bounds the above)
  e_divergence_closed        closed forms of the exponential-path divergence
                             for kinds s, b, r, half
  e_divergence_quadrature    the same quantity from its defining integral
                             of theta * mu''(theta) along the solved curve
  m_divergence               integral of t * J_t along the mixture segment
                             (1-t) rho + t sigma, any metric kind

Convex duality (ConvexFunctionModel, bregman_divergence, legendre_transform,
legendre_model) serves two families:

  ExponentialFamily          classical, over a finite alphabet; with
                             classical_kl it gives independent oracles: on
                             commuting inputs every quantum functional above
                             must reduce to the classical value on the spectra
  QuantumExponentialFamily   states exp(sum_i theta^i X_i - moment) over the
                             Gell-Mann basis; its Bregman divergences are D
                             and, through the Legendre dual, m_b
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metrics
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidShape,
    NotFullRank,
    NotInRange,
    QuadratureNotConverged,
    SupportViolation,
)
from .linalg import SUPPORT_EPS, eig_hermitian, herm_log, hermitian_part, log_sum_exp
from .states import DensityMatrix, validate_density
from .transport import GeodesicKind, MomentFunction, sandwich_operator, solve_direction

_KL_CUTOFF = 1e-15
# Legendre maximizer: grid points per axis of the seeding grid, the Newton
# stopping tolerance on the gradient residual, and the Newton step budget
_LEGENDRE_GRID_POINTS = 7
_LEGENDRE_TOL = 1e-11
_LEGENDRE_MAX_NEWTON = 80


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre node count with doubling refinement."""

    nodes: int = 32
    rel_tol: float = 1e-8
    max_nodes: int = 512

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise DomainError(f"need at least 2 nodes, got {self.nodes}")
        if self.rel_tol <= 0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_nodes < 2 * self.nodes:
            raise DomainError("max_nodes must allow at least one doubling")


@functools.cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes on [0, 1] and their weights."""
    x, w = np.polynomial.legendre.leggauss(n)
    t, half_w = (x + 1.0) / 2.0, w / 2.0
    t.flags.writeable = half_w.flags.writeable = False
    return t, half_w


def _gl_estimate(f: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    t, half_w = _gl_nodes(n)
    return float(half_w @ f(t))


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], config: QuadratureConfig = QuadratureConfig()
) -> tuple[float, int]:
    """Integrate f over [0, 1], doubling nodes until successive estimates
    agree to rel_tol; returns (value, nodes used). ``f`` maps the array of
    an estimate's nodes to the array of its values."""
    n = config.nodes
    prev = _gl_estimate(f, n)
    while 2 * n <= config.max_nodes:
        n *= 2
        cur = _gl_estimate(f, n)
        gap = abs(cur - prev)
        if gap <= config.rel_tol * max(1.0, abs(cur)):
            return cur, n
        prev = cur
    raise QuadratureNotConverged(f"estimates still differ by {gap:.3e} at {n} nodes")


def _check_pair(rho: DensityMatrix, sigma: DensityMatrix, rho_full_rank: bool = True) -> None:
    """Equal dims, a full-rank sigma and, unless waived, a full-rank rho."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims {rho.dim} and {sigma.dim} differ")
    for state, name, required in ((rho, "rho", rho_full_rank), (sigma, "sigma", True)):
        if required and not state.full_rank:
            raise NotFullRank(f"{name} must be full rank")


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr rho log rho with 0 log 0 = 0."""
    w = rho.spectrum()
    support = w > SUPPORT_EPS
    return float(-np.sum(w[support] * np.log(w[support])))


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (log rho - log sigma); rank-deficient rho uses 0 log 0 = 0."""
    _check_pair(rho, sigma, rho_full_rank=False)
    cross = float(np.trace(rho.matrix @ sigma.eig.log()).real)
    return -von_neumann_entropy(rho) - cross


def bs_divergence(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho log(rho^{1/2} sigma^{-1} rho^{1/2})."""
    _check_pair(rho, sigma)
    rh = rho.eig.power(0.5)
    si = sigma.eig.power(-1.0)
    m = hermitian_part(rh @ si @ rh)
    return float(np.trace(rho.matrix @ herm_log(m)).real)


def e_divergence_closed(kind: GeodesicKind, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Closed-form exponential-path divergence: the relative entropy for kind b,
    else mu'(1) = Re Tr rho sigma^p G sigma^{-p} with G = 2 log(sandwich_operator)."""
    _check_pair(rho, sigma)
    p = kind.sandwich_power
    if p is None:
        return quantum_relative_entropy(rho, sigma)
    gen = 2.0 * herm_log(sandwich_operator(kind, rho, sigma))
    return float(np.trace(rho.matrix @ sigma.eig.power(p) @ gen @ sigma.eig.power(-p)).real)


def e_divergence_quadrature(
    kind: GeodesicKind,
    rho: DensityMatrix,
    sigma: DensityMatrix,
    config: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Exponential-path divergence from its defining integral.

    Solves the direction reaching rho from sigma, then integrates
    theta * mu''(theta) over [0, 1] (the curvature of the log-normalizer is
    the Fisher information along the curve). All nodes of an estimate go
    to MomentFunction.derivative as one array.
    """
    mf = MomentFunction(solve_direction(kind, rho, sigma))
    return adaptive_gauss_legendre(lambda ths: ths * mf.derivative(ths, 2), config)[0]


def m_divergence_detail(
    kind: metrics.MetricKind,
    rho: DensityMatrix,
    sigma: DensityMatrix,
    config: QuadratureConfig = QuadratureConfig(),
) -> tuple[float, int]:
    """m_divergence plus the Gauss-Legendre node count it settled on."""
    _check_pair(rho, sigma)
    return adaptive_gauss_legendre(
        lambda t: t * metrics.fisher_info_mixture(rho, sigma, kind, t), config
    )


def m_divergence(
    kind: metrics.MetricKind,
    rho: DensityMatrix,
    sigma: DensityMatrix,
    config: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Mixture-path divergence: integral of t * J_t along (1-t) rho + t sigma.

    rho sits at t = 0, so commuting inputs reproduce the classical
    divergence of the spectra in that argument order.
    """
    return m_divergence_detail(kind, rho, sigma, config)[0]


def classical_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Sum p log(p/q) with 0 log 0 = 0; q must carry p's support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    mask = p > _KL_CUTOFF
    if np.any(q[mask] <= _KL_CUTOFF):
        worst = float(q[mask].min())
        raise SupportViolation(
            f"q vanishes (min {worst:.3e}) where p has mass", worst
        )
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@dataclass(frozen=True)
class ConvexFunctionModel:
    """A twice-differentiable strictly convex function with its gradient."""

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(np.asarray(theta, dtype=float)), dtype=float)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            h = 1e-6 * (1.0 + abs(theta[i]))
            e = np.zeros(self.dim)
            e[i] = h
            out[:, i] = (self.gradient(theta + e) - self.gradient(theta - e)) / (2.0 * h)
        return (out + out.T) / 2.0


def bregman_divergence(model: ConvexFunctionModel, theta_bar: np.ndarray, theta: np.ndarray) -> float:
    """grad(theta_bar) . (theta_bar - theta) - value(theta_bar) + value(theta)."""
    theta_bar = np.asarray(theta_bar, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta_bar.shape != (model.dim,) or theta.shape != (model.dim,):
        raise DomainError(
            f"points must have shape ({model.dim},), got {theta_bar.shape} and {theta.shape}"
        )
    g = model.gradient(theta_bar)
    out = float(g @ (theta_bar - theta) - model.value(theta_bar) + model.value(theta))
    if not np.isfinite(out):
        raise DomainError("model evaluated to a non-finite value")
    return out


def _maximize_dual(model: ConvexFunctionModel, eta: np.ndarray, box: np.ndarray) -> tuple[np.ndarray, float]:
    eta = np.asarray(eta, dtype=float)
    box = np.asarray(box, dtype=float).reshape(model.dim, 2)

    def objective(th: np.ndarray) -> float:
        return float(eta @ th - model.value(th))

    axes = [np.linspace(lo, hi, _LEGENDRE_GRID_POINTS) for lo, hi in box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.dim)
    theta = min(grid, key=lambda th: -objective(th))
    theta = np.asarray(theta, dtype=float)

    scale = 1.0 + float(np.max(np.abs(eta)))
    for _ in range(_LEGENDRE_MAX_NEWTON):
        residual = model.gradient(theta) - eta
        if float(np.max(np.abs(residual))) <= _LEGENDRE_TOL * scale:
            break
        hess = model.hessian(theta)
        try:
            step = -np.linalg.solve(hess, residual)
        except np.linalg.LinAlgError:
            step = -np.linalg.solve(hess + 1e-10 * np.eye(model.dim), residual)
        alpha = 1.0
        base = objective(theta)
        while alpha > 1e-8:
            candidate = theta + alpha * step
            if objective(candidate) >= base - 1e-15:
                theta = candidate
                break
            alpha /= 2.0
        else:
            break
    outside = float(np.max(np.maximum(box[:, 0] - theta, theta - box[:, 1])))
    if outside > 0.0:
        raise NotInRange(f"Newton ends {outside:.3e} outside the box", outside)
    residual = float(np.max(np.abs(model.gradient(theta) - eta)))
    if residual > 1e-6 * scale:
        raise NotInRange(
            f"no stationary point in the box (gradient residual {residual:.3e})",
            residual,
        )
    return theta, objective(theta)


def legendre_transform(model: ConvexFunctionModel, eta: np.ndarray, box: np.ndarray) -> float:
    """max over theta in box of eta . theta - value(theta).

    Damped Newton on the stationarity equation grad(theta) = eta, seeded by
    a coarse grid; NotInRange when no interior solution exists.
    """
    return _maximize_dual(model, eta, box)[1]


def legendre_maximizer(model: ConvexFunctionModel, eta: np.ndarray, box: np.ndarray) -> np.ndarray:
    """The argmax of the Legendre transform (the dual parameter of eta)."""
    return _maximize_dual(model, eta, box)[0]


def legendre_model(model: ConvexFunctionModel, box: np.ndarray) -> ConvexFunctionModel:
    """The Legendre-transformed model; its gradient is the dual maximizer."""
    return ConvexFunctionModel(
        dim=model.dim,
        value=lambda eta: legendre_transform(model, eta, box),
        grad=lambda eta: legendre_maximizer(model, eta, box),
    )


@dataclass(frozen=True)
class ExponentialFamily:
    """Finite-alphabet exponential family p(w) exp(theta . X(w) - moment)."""

    base: np.ndarray      # nonnegative weights over the alphabet
    features: np.ndarray  # shape (k, alphabet size)

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    def _log_unnorm(self, theta: np.ndarray) -> np.ndarray:
        return np.log(self.base) + np.asarray(theta, dtype=float) @ self.features

    def moment(self, theta: np.ndarray) -> float:
        return float(log_sum_exp(self._log_unnorm(theta)))

    def distribution(self, theta: np.ndarray) -> np.ndarray:
        z = self._log_unnorm(theta)
        z -= z.max()
        w = np.exp(z)
        return w / w.sum()

    def mean_parameters(self, theta: np.ndarray) -> np.ndarray:
        return self.features @ self.distribution(theta)

    def model(self) -> ConvexFunctionModel:
        return ConvexFunctionModel(dim=self.dim, value=self.moment, grad=self.mean_parameters)


def traceless_hermitian_basis(dim: int) -> list[np.ndarray]:
    """Generalized Gell-Mann basis of the traceless Hermitian matrices,
    orthogonal with Tr X_i X_j = 2 delta_ij."""
    basis: list[np.ndarray] = []
    for i in range(dim):
        for j in range(i + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            basis.append(sym)
            skew = np.zeros((dim, dim), dtype=complex)
            skew[i, j] = -1j
            skew[j, i] = 1j
            basis.append(skew)
    for level in range(1, dim):
        d = np.zeros(dim)
        d[:level] = 1.0
        d[level] = -level
        basis.append(np.diag(d * np.sqrt(2.0 / (level * (level + 1)))).astype(complex))
    return basis


class QuantumExponentialFamily:
    """States exp(sum_i theta^i X_i - moment) over the Gell-Mann basis X_i
    of the traceless Hermitian dim x dim matrices.

    The moment function is shifted so moment(0) = 0; then its Legendre
    transform evaluated at the mixture coordinates of a state equals that
    state's entropy deficit from the maximally mixed state.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise InvalidShape(f"a quantum exponential family needs dim >= 2, got {dim}")
        self.dim = dim
        self.basis = traceless_hermitian_basis(dim)

    @property
    def k(self) -> int:
        return len(self.basis)

    def _generator(self, theta: np.ndarray) -> np.ndarray:
        return sum(t * x for t, x in zip(np.asarray(theta, dtype=float), self.basis))

    def moment(self, theta: np.ndarray) -> float:
        # eigenvalues only, unvalidated: the Legendre dual evaluates this at
        # every grid point and line-search step
        return float(log_sum_exp(np.linalg.eigvalsh(self._generator(theta))) - np.log(self.dim))

    def state(self, theta: np.ndarray) -> DensityMatrix:
        eig = eig_hermitian(hermitian_part(self._generator(theta)))
        w = eig.eigenvalues - eig.eigenvalues.max()
        p = np.exp(w)
        p /= p.sum()
        u = eig.eigenvectors
        return validate_density((u * p) @ u.conj().T)

    def mean_parameters(self, theta: np.ndarray) -> np.ndarray:
        return self.mixture_coordinates(self.state(theta))

    def mixture_coordinates(self, state: DensityMatrix) -> np.ndarray:
        """eta_i = Tr rho X_i."""
        return np.array([float(np.trace(state.matrix @ x).real) for x in self.basis])

    def state_from_mixture(self, eta: np.ndarray) -> DensityMatrix:
        """I / dim + sum_i eta_i X_i / 2; since Tr X_i X_j = 2 delta_ij, the
        X_i / 2 are the dual basis."""
        return validate_density(np.eye(self.dim) / self.dim + self._generator(eta) / 2.0)

    def model(self) -> ConvexFunctionModel:
        return ConvexFunctionModel(dim=self.k, value=self.moment, grad=self.mean_parameters)
