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

Each has a list form over (rho, sigma) pairs of one dim, whose values are
bit for bit those of the pairs alone and whose errors name the pair by its
index: relative_entropies, bs_divergences and e_divergences_closed run each
step once over a (pairs, d, d) stack; e_divergences and m_divergences run
one quadrature. Each one-pair function is its list form on one pair, which
passes plain (d, d) arrays through the same code.

Convex duality (ConvexFunctionModel, bregman_divergence, legendre_model)
serves two families:

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
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metrics
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidShape,
    NotInRange,
    QuadratureNotConverged,
    SupportViolation,
)
from .linalg import (
    SUPPORT_EPS,
    HermitianEigen,
    decomposition,
    eig_hermitian,
    herm_log,
    hermitian_part,
    log_partition,
    matrices,
)
from .states import DensityMatrix, _checked_basis, check_pairs, state_from_basis
from .transport import GeodesicKind, _moment_derivatives, sandwich_records, solve_direction

_KL_CUTOFF = 1e-15
# Legendre maximizer: the Newton stopping tolerance on the gradient
# residual, and the Newton step budget
_LEGENDRE_TOL = 1e-11
_LEGENDRE_MAX_NEWTON = 80


# Tanh-sinh nodes t = 1 / (1 + exp(-pi sinh u)) on [0, 1] stop at |u| = 3.5,
# where every weight is below 2e-21. Measured at rel_tol 1e-14: a cut at 3.0
# leaves about 7e-13 of the -log t integral out, and it never converges; at
# 3.5 the integrals of -log t, sqrt(t) and t / (t + 1e-10) are exact to
# 1.1e-16, and 4.0 adds nodes at every level without changing them.
_TS_U_MAX = 3.5


def _ts_nodes(level: int) -> int:
    """Nodes in levels 0..level, i.e. in the step-2^-level rule."""
    return 2 * math.floor(_TS_U_MAX * 2**level) + 1


def _first_level(nodes: int) -> int:
    """The first level >= 1 whose levels 0..level hold at least ``nodes`` nodes."""
    level = 1
    while _ts_nodes(level) < nodes:
        level += 1
    return level


@dataclass(frozen=True)
class QuadratureConfig:
    """Nested tanh-sinh quadrature: at least ``nodes`` nodes in the first
    estimate, successive estimates agreeing to ``rel_tol``, at most
    ``max_nodes`` nodes in all."""

    nodes: int = 32
    rel_tol: float = 1e-8
    max_nodes: int = 512

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise DomainError(f"need at least 2 nodes, got {self.nodes}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise DomainError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        first = _first_level(self.nodes)
        if _ts_nodes(first + 1) > self.max_nodes:
            raise DomainError(
                f"max_nodes must allow at least one level beyond the first estimate "
                f"(max_nodes={self.max_nodes}; the first estimate takes {_ts_nodes(first)} nodes, "
                f"one level beyond it {_ts_nodes(first + 1)})"
            )


@functools.cache
def _ts_levels(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only nodes and weights of levels 0..level concatenated, and the
    offset where each level starts: the table of a first quadrature call."""
    tables = [_ts_level(k) for k in range(level + 1)]
    t, w = (np.concatenate(parts) for parts in zip(*tables))
    offsets = np.cumsum([0] + [len(t) for t, _ in tables[:-1]])
    t.flags.writeable = w.flags.writeable = offsets.flags.writeable = False
    return t, w, offsets


@functools.cache
def _ts_level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes on [0, 1] and weights of one tanh-sinh level: u = j 2^-level
    with |u| <= _TS_U_MAX, for every integer j at level 0 and odd j above."""
    half_width = math.floor(_TS_U_MAX * 2**level)
    j = np.arange(-half_width, half_width + 1)
    u = (j if level == 0 else j[j % 2 == 1]) / 2.0**level
    e = np.exp(-np.pi * np.sinh(u))
    t, w = 1.0 / (1.0 + e), np.pi * np.cosh(u) * e / (1.0 + e) ** 2
    t.flags.writeable = w.flags.writeable = False
    return t, w


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    config: QuadratureConfig = QuadratureConfig(),
    labels: tuple[str, ...] = (),
    open_rows: np.ndarray | None = None,
) -> tuple:
    """Integrate f over [0, 1] by nested tanh-sinh quadrature until
    successive estimates agree to rel_tol; returns (value, nodes used).
    ``f`` maps an array of nodes to the array of its values. The name stays
    for the code that binds it.

    Level k holds the nodes t = 1 / (1 + exp(-pi sinh u)) at u = j 2^-k,
    |u| <= 3.5, for every integer j at level 0 and odd j above, so levels
    0..k are the step-2^-k rule, whose estimate is 2^-k sum f(t) w with
    w = pi cosh(u) e / (1 + e)^2 and e = exp(-pi sinh u). The nodes cluster
    double-exponentially at both ends, where boundary layers sit. Each node
    is evaluated once: the first call to ``f`` takes levels 0..k0, with
    k0 >= 1 the first level whose cumulative node count reaches
    ``config.nodes`` (57 nodes at the default 32), and gives the estimates
    of levels k0 - 1 and k0; each later call takes only the next level's
    nodes. The node count is the cumulative count of the accepted estimate
    (57, 113, 225 or 449 at the defaults), at most ``config.max_nodes``.

    ``f`` may instead give a (k, n) array, one row per integrand, from one
    shared evaluation. Each row is frozen, with its value and node count, at
    the first level where it converges; later calls still evaluate it, but
    its values are not read. The result is then (the k (value, nodes) pairs,
    nodes of the last estimate), and ``labels`` names the rows that did not
    converge. ``open_rows``, a boolean array with one entry per row, is
    cleared at each row as it freezes, so an integrand that holds it may
    skip the frozen rows.
    """
    level = _first_level(config.nodes)
    nodes, weights, offsets = _ts_levels(level)
    values = f(nodes)
    one_row = np.ndim(values) == 1
    # per row, the weighted sum of f over each level so far, in level order
    sums = np.add.reduceat(np.atleast_2d(values) * weights, offsets, axis=1).tolist()

    def estimate(i: int) -> tuple[float, float]:
        """Row i's estimate at ``level`` and its gap to the estimate one level below."""
        cur = sum(sums[i]) * 2.0**-level
        return cur, abs(cur - sum(sums[i][:-1]) * 2.0 ** (1 - level))

    rows = list(range(len(sums)))
    done: dict[int, tuple[float, int]] = {}
    while True:
        for i in rows:
            cur, gap = estimate(i)
            if gap <= config.rel_tol * max(1.0, abs(cur)):
                done[i] = (cur, _ts_nodes(level))
                if open_rows is not None:
                    open_rows[i] = False
        rows = [i for i in rows if i not in done]
        if not rows or _ts_nodes(level + 1) > config.max_nodes:
            break
        level += 1
        t, w = _ts_level(level)
        # a sum per row, not a matrix-vector product, so a row's value never
        # depends on the rows evaluated beside it
        level_sums = (np.atleast_2d(f(t)) * w).sum(axis=1).tolist()
        for i in rows:
            sums[i].append(level_sums[i])
    if rows:
        raise QuadratureNotConverged(
            "; ".join(
                (f"{labels[i]}: " if labels else "")
                + f"estimates still differ by {estimate(i)[1]:.3e} at {_ts_nodes(level)} nodes"
                for i in rows
            )
        )
    if one_row:
        return done[0]
    return tuple(done[i] for i in range(len(done))), _ts_nodes(level)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr rho log rho with 0 log 0 = 0."""
    return _entropy(rho.spectrum())


def _entropy(w: np.ndarray) -> float:
    """-sum w log w over the entries of a spectrum above SUPPORT_EPS."""
    support = w > SUPPORT_EPS
    return float(-np.sum(w[support] * np.log(w[support])))


def _traces(rhos: tuple[DensityMatrix, ...], ops: np.ndarray) -> list[float]:
    """Re Tr rho X of each rho and its X in ``ops``, a matrix for one rho or a stack."""
    return (matrices(rhos) @ ops).trace(0, -2, -1).real.reshape(-1).tolist()


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (log rho - log sigma); rank-deficient rho uses 0 log 0 = 0."""
    return relative_entropies([(rho, sigma)])[0]


def relative_entropies(pairs: list[tuple[DensityMatrix, DensityMatrix]]) -> list[float]:
    """quantum_relative_entropy of each (rho, sigma) in ``pairs``, all of one
    dim, each bitwise as if alone, from one stacked pass. With more than one
    pair, NotFullRank names the pair by its index in ``pairs``."""
    check_pairs(pairs, ("sigma",))
    if not pairs:
        return []
    rhos, sigmas = zip(*pairs)
    spectra = decomposition(rhos).eigenvalues.reshape(len(rhos), -1)
    cross = _traces(rhos, decomposition(sigmas).log())
    return [-_entropy(w) - c for w, c in zip(spectra, cross)]


def bs_divergence(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho log(rho^{1/2} sigma^{-1} rho^{1/2}): the one-pair case of bs_divergences."""
    return bs_divergences([(rho, sigma)])[0]


def bs_divergences(pairs: list[tuple[DensityMatrix, DensityMatrix]]) -> list[float]:
    """bs_divergence of each (rho, sigma) in ``pairs``, all of one dim, each
    bitwise as if alone, from one pass over (pairs, d, d) stacks with one
    validated eig_hermitian of the stack of rho^{1/2} sigma^{-1} rho^{1/2}.
    With more than one pair, NotFullRank names the pair by its index in ``pairs``."""
    check_pairs(pairs, ("rho", "sigma"))
    if not pairs:
        return []
    rhos, sigmas = zip(*pairs)
    rh = decomposition(rhos).power(0.5)
    m = hermitian_part(rh @ decomposition(sigmas).power(-1.0) @ rh)
    return _traces(rhos, herm_log(m))


def e_divergence_closed(kind: GeodesicKind, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Closed-form exponential-path divergence: the relative entropy for kind b,
    else mu'(1) = Re Tr rho sigma^p G sigma^{-p} with G = 2 log F (transport.sandwich_record).
    The one-pair case of e_divergences_closed."""
    return e_divergences_closed(kind, [(rho, sigma)])[0]


def e_divergences_closed(kind: GeodesicKind, pairs: list[tuple[DensityMatrix, DensityMatrix]]) -> list[float]:
    """e_divergence_closed of each (rho, sigma) in ``pairs``, all of one dim,
    each bitwise as if alone, from one pass over (pairs, d, d) stacks: kind b
    is relative_entropies, and the sandwich kinds read G off F's
    decomposition in the records of transport.sandwich_records, which keeps
    them. With more than one pair, NotFullRank names the pair by its index
    in ``pairs``."""
    check_pairs(pairs, ("rho", "sigma"))
    p = kind.sandwich_power
    if p is None:
        return relative_entropies(pairs)
    if not pairs:
        return []
    rhos, sigmas = zip(*pairs)
    gen = 2.0 * decomposition(sandwich_records(kind, pairs)).log()
    if p:
        s = decomposition(sigmas)
        gen = s.power(p) @ gen @ s.power(-p)
    return _traces(rhos, gen)


def e_divergence_quadrature(
    kind: GeodesicKind,
    rho: DensityMatrix,
    sigma: DensityMatrix,
    config: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Exponential-path divergence from its defining integral.

    Solves the direction reaching rho from sigma, then integrates
    theta * mu''(theta) over [0, 1] (the curvature of the log-normalizer is
    the Fisher information along the curve): the one-pair case of
    e_divergences.
    """
    return e_divergences(kind, [(rho, sigma)], config)[0][0]


def e_divergences(
    kind: GeodesicKind,
    pairs: list[tuple[DensityMatrix, DensityMatrix]],
    config: QuadratureConfig = QuadratureConfig(),
) -> list[tuple[float, int]]:
    """The (value, nodes) of e_divergence_quadrature for each (rho, sigma)
    in ``pairs``, all of one dim, each bitwise as if alone.

    Each pair's direction is solved and checked on its own (solve_direction,
    so TargetMismatch); then the pairs share one adaptive_gauss_legendre
    call with one row per pair, whose integrand takes mu'' of every pair
    that still has an open row as one stack (transport._moment_derivatives).
    With more than one pair, NotFullRank and QuadratureNotConverged name the
    pair by its index in ``pairs``.
    """
    names = check_pairs(pairs, ("rho", "sigma"))
    if not pairs:
        return []
    moments = [solve_direction(kind, rho, sigma).moment for rho, sigma in pairs]
    open_rows = np.ones(len(moments), dtype=bool)

    def integrand(ths: np.ndarray) -> np.ndarray:
        live = np.flatnonzero(open_rows)
        if len(live) == len(moments):
            return ths * _moment_derivatives(moments, ths, 2)
        # the rows of frozen pairs are left at zero, and never read
        values = np.zeros((len(moments), ths.size))
        values[live] = ths * _moment_derivatives([moments[j] for j in live], ths, 2)
        return values

    # the one-pair message names no row, as a one-row integrand's does
    labels = () if len(pairs) == 1 else tuple(f"e_{kind.value}{name}" for name in names)
    return list(adaptive_gauss_legendre(integrand, config, labels, open_rows)[0])


def m_divergence_detail(
    kind: metrics.MetricKind | tuple[metrics.MetricKind, ...],
    rho: DensityMatrix,
    sigma: DensityMatrix,
    config: QuadratureConfig = QuadratureConfig(),
) -> tuple:
    """m_divergence plus the quadrature node count it settled on.

    A tuple of kinds gives one (value, nodes) per kind from one pass over
    the mixture states: each integrand call decomposes them once for every
    kind, and each kind keeps its own node count and value.
    """
    return m_divergences(kind, [(rho, sigma)], config)[0]


def m_divergences(
    kind: metrics.MetricKind | tuple[metrics.MetricKind, ...],
    pairs: list[tuple[DensityMatrix, DensityMatrix]],
    config: QuadratureConfig = QuadratureConfig(),
) -> list:
    """m_divergence_detail of each (rho, sigma) in ``pairs``, all of one dim,
    each bitwise as if alone, from one adaptive_gauss_legendre call whose
    rows are pair x kind. Each integrand call decomposes the mixture states
    of every pair that still has an open row as one stack
    (metrics._segment_info); the rows of a pair whose rows have all frozen
    are left at zero, and never read. With more than one pair, NotFullRank
    and QuadratureNotConverged name the pair by its index in ``pairs``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    names = check_pairs(pairs, ("rho", "sigma"))
    if not pairs:
        return []
    open_rows = np.ones(len(pairs) * len(kinds), dtype=bool)

    def integrand(t: np.ndarray) -> np.ndarray:
        live = np.flatnonzero(open_rows.reshape(len(pairs), -1).any(axis=1))
        if len(live) == len(pairs):
            return (t * metrics._segment_info(pairs, kinds, t, names)).reshape(-1, t.size)
        values = np.zeros((len(pairs), len(kinds), t.size))
        values[live] = t * metrics._segment_info([pairs[k] for k in live], kinds, t, [names[k] for k in live])
        return values.reshape(-1, t.size)

    labels = tuple(f"m_{k.label()}{name}" for name in names for k in kinds)
    rows = adaptive_gauss_legendre(integrand, config, labels, open_rows)[0]
    if not isinstance(kind, tuple):
        return list(rows)
    return [rows[j * len(kinds) : (j + 1) * len(kinds)] for j in range(len(pairs))]


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
    """Sum p log(p/q) with 0 log 0 = 0; p and q must be finite, and q must
    carry p's support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise DomainError(f"p and q must be finite, got {p} and {q}")
    mask = p > _KL_CUTOFF
    if np.any(q[mask] <= _KL_CUTOFF):
        worst = float(q[mask].min())
        raise SupportViolation(
            f"q vanishes (min {worst:.3e}) where p has mass", worst
        )
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@dataclass(frozen=True)
class ConvexFunctionModel:
    """A twice-differentiable strictly convex function with its gradient.

    ``grad`` takes a point (dim,) or a stack of points (n, dim) and gives
    (dim,), resp. (n, dim); ``hessian`` calls it on a stack. ``value``
    takes a point and gives (); the library calls it on single points only.
    """

    dim: int
    value: Callable[[np.ndarray], float | np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(np.asarray(theta, dtype=float)), dtype=float)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Central differences with steps h_i = 1e-6 (1 + |theta_i|): one
        gradient call on the 2 dim points theta + h_i e_i, then theta - h_i e_i."""
        theta = np.asarray(theta, dtype=float)
        h = 1e-6 * (1.0 + np.abs(theta))
        g = self.gradient(np.concatenate([theta + np.diag(h), theta - np.diag(h)]))
        out = ((g[: self.dim] - g[self.dim :]) / (2.0 * h[:, None])).T
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
    """The maximizer theta over the box of eta . theta - value(theta), and that maximum.

    Damped Newton on the stationarity equation grad(theta) = eta, started at
    the box centre; NotInRange when no interior solution exists.
    """
    eta = np.asarray(eta, dtype=float)
    box = np.asarray(box, dtype=float).reshape(model.dim, 2)

    def objective(th: np.ndarray) -> float:
        return float(eta @ th - model.value(th))

    theta = box.mean(axis=1)
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


def legendre_model(model: ConvexFunctionModel, box: np.ndarray) -> ConvexFunctionModel:
    """The Legendre-transformed model: its value at eta is the max over theta
    in the box of eta . theta - model.value(theta), and its gradient is the
    maximizer (_maximize_dual; NotInRange when no interior solution exists).
    A stack of points runs one maximization per row, and ``value`` and
    ``grad`` share one maximization per distinct point (a memo of this
    model, keyed by the point's bytes)."""
    memo: dict[bytes, tuple[np.ndarray, float]] = {}

    def maximize(eta: np.ndarray) -> tuple[np.ndarray, float]:
        key = eta.tobytes()
        if key not in memo:
            theta, value = _maximize_dual(model, eta, box)
            theta.flags.writeable = False  # every caller at this point gets this array
            memo[key] = theta, value
        return memo[key]

    def rowwise(part: int) -> Callable[[np.ndarray], float | np.ndarray]:
        def f(eta: np.ndarray) -> float | np.ndarray:
            eta = np.asarray(eta, dtype=float)
            out = [maximize(row)[part] for row in eta.reshape(-1, model.dim)]
            return out[0] if eta.ndim == 1 else np.array(out)

        return f

    return ConvexFunctionModel(dim=model.dim, value=rowwise(1), grad=rowwise(0))


@dataclass(frozen=True)
class ExponentialFamily:
    """Finite-alphabet exponential family p(w) exp(theta . X(w) - moment).

    moment, distribution and mean_parameters take a point theta (k,) or a
    stack of points (n, k).
    """

    base: np.ndarray      # nonnegative weights over the alphabet
    features: np.ndarray  # shape (k, alphabet size)

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    def _log_partition(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        return log_partition((theta[..., None, :] @ self.features)[..., 0, :], self.base)

    def moment(self, theta: np.ndarray) -> float | np.ndarray:
        return self._log_partition(theta)[0]

    def distribution(self, theta: np.ndarray) -> np.ndarray:
        return self._log_partition(theta)[1]

    def mean_parameters(self, theta: np.ndarray) -> np.ndarray:
        return (self.features @ self.distribution(theta)[..., None])[..., 0]

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
    state's entropy deficit from the maximally mixed state. ``moment`` and
    ``mean_parameters`` take a point theta (k,) or a stack of points (n, k).
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
        """sum_i theta^i X_i, added in basis order, of a point or of each row of a stack."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape[:-1] + (self.dim, self.dim), dtype=complex)
        for i, x in enumerate(self.basis):
            out = out + theta[..., i, None, None] * x
        return out

    def moment(self, theta: np.ndarray) -> float | np.ndarray:
        # eigenvalues only, and no check: G is Hermitian by construction (real
        # theta, Hermitian basis); a stack of G is one eigvalsh call
        return log_partition(np.linalg.eigvalsh(self._generator(theta)))[0] - np.log(self.dim)

    def _densities(self, theta: np.ndarray) -> tuple[np.ndarray, HermitianEigen]:
        """exp(G - moment) (a matrix or a stack) and its decomposition: G's
        eigenvectors (one validated eig_hermitian) and log_partition's weights."""
        g = eig_hermitian(hermitian_part(self._generator(theta)))
        eig = HermitianEigen(log_partition(g.eigenvalues)[1], g.eigenvectors)
        return eig.reconstruct(), eig

    def state(self, theta: np.ndarray) -> DensityMatrix:
        return state_from_basis(*self._densities(theta))

    def mean_parameters(self, theta: np.ndarray) -> np.ndarray:
        return self._coordinates(_checked_basis(*self._densities(theta)))

    def mixture_coordinates(self, state: DensityMatrix) -> np.ndarray:
        """eta_i = Tr rho X_i."""
        return self._coordinates(state.matrix)

    def _coordinates(self, rho: np.ndarray) -> np.ndarray:
        """Tr rho X_i of a matrix (k,) or of each matrix of a stack (n, k)."""
        return np.stack([np.trace(rho @ x, axis1=-2, axis2=-1).real for x in self.basis], axis=-1)

    def model(self) -> ConvexFunctionModel:
        return ConvexFunctionModel(dim=self.k, value=self.moment, grad=self.mean_parameters)
