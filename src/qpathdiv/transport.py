"""Exponential-side parallel transport and its moment functions.

Four metric choices admit closed-form autoparallel curves through a
full-rank base state sigma with Hermitian direction L (theta is the arc
parameter, mu the log-normalizer that keeps the trace at one): kind b is
e^{-mu} exp(log sigma + theta L), and kinds s, r and half are one family
e^{-mu} sigma^p F sigma^{1-2p} F sigma^p with F = e^{theta G / 2}:

    kind  p = GeodesicKind.sandwich_power
    s     0     G = L
    r     1/2   the Belavkin-Staszewski curve
    half  1/4

For p > 0 the auxiliary Hermitian direction G is fixed by requiring that L
is the Hermitian part of the transported operator,
L = (sigma^{-p} G sigma^p + sigma^p G sigma^{-p}) / 2. All exponentials are
evaluated with the largest exponent shifted to zero and the shift restored
inside mu, so large |theta| cannot overflow.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import DimensionMismatch, DomainError, TargetMismatch
from .linalg import (
    eig_hermitian,
    frobenius,
    herm_log,
    herm_power,
    hermitian_part,
    log_sum_exp,
    point_array,
    require_hermitian,
)
from .states import DensityMatrix, check_pair, require_full_rank, validate_density

AUX_RELATION_TOL = 1e-9
TARGET_TOL = 1e-8


class GeodesicKind(enum.Enum):
    SLD = "s"
    BOGOLJUBOV = "b"
    RLD = "r"
    HALF = "half"

    @property
    def metric(self) -> metrics.MetricKind:
        # the kind tags s, b, r and half are the metric tags
        return metrics.metric_from_json(self.value)

    @property
    def sandwich_power(self) -> float | None:
        """p of the curve sigma^p F sigma^{1-2p} F sigma^p; None for kind b."""
        return {
            GeodesicKind.SLD: 0.0,
            GeodesicKind.BOGOLJUBOV: None,
            GeodesicKind.RLD: 0.5,
            GeodesicKind.HALF: 0.25,
        }[self]


@dataclass(frozen=True)
class Geodesic:
    """Closed-form autoparallel curve: base state, Hermitian direction L, kind,
    and the auxiliary direction G of a sandwich kind (None for kind b)."""

    base: DensityMatrix
    direction: np.ndarray
    kind: GeodesicKind
    aux_direction: np.ndarray | None = None

    @functools.cached_property
    def moment(self) -> MomentFunction:
        """The curve's moment function, built (and its G decomposed) once."""
        return MomentFunction(self)


def solve_auxiliary_direction(
    kind: GeodesicKind, sigma: DensityMatrix, direction: np.ndarray
) -> np.ndarray:
    """Invert the Hermitian-part relation for kinds r and half.

    In sigma's eigenbasis the relation is entrywise:
    L_ij = aux_ij * (w_ij + 1/w_ij) / 2 with w_ij = (d_j / d_i)^p,
    p = kind.sandwich_power.
    """
    p = kind.sandwich_power
    if p is None or p == 0:
        raise DomainError(f"kind {kind.value} has no auxiliary direction")
    require_full_rank(sigma, "sigma")
    eig = sigma.eig
    d = eig.eigenvalues
    w = (d[None, :] / d[:, None]) ** p
    weights = 2.0 / (w + 1.0 / w)
    u = eig.eigenvectors
    lp = u.conj().T @ direction @ u
    return hermitian_part(u @ (weights * lp) @ u.conj().T)


def make_geodesic(
    kind: GeodesicKind,
    base: DensityMatrix,
    direction: np.ndarray,
    aux_direction: np.ndarray | None = None,
    tol: float = 1e-10,
) -> Geodesic:
    """Build a geodesic, solving and verifying the auxiliary direction G of
    a sandwich kind (for kind s, G = L)."""
    require_full_rank(base, "base")
    direction = np.asarray(direction, dtype=complex)
    if direction.shape != (base.dim, base.dim):
        raise DimensionMismatch(
            f"direction shape {direction.shape} does not match state dim {base.dim}"
        )
    require_hermitian(direction, tol, name="direction")
    p = kind.sandwich_power
    aux = None
    if p is not None:
        aux = aux_direction
        if aux is None:
            aux = direction if p == 0 else solve_auxiliary_direction(kind, base, direction)
        sp, sm = base.eig.power(p), base.eig.power(-p)
        defect = frobenius((sm @ aux @ sp + sp @ aux @ sm) / 2.0 - direction)
        if defect > AUX_RELATION_TOL:
            raise TargetMismatch(
                f"auxiliary direction violates its defining relation by {defect:.3e}"
            )
    return Geodesic(base=base, direction=direction, kind=kind, aux_direction=aux)


class MomentFunction:
    """Log-normalizer mu(theta) of a geodesic, with cached spectral data.

    mu(0) = 0, mu is convex, and its second derivative is the Fisher
    information of the curve under the matching metric. Both derivatives
    are exact. Kinds s, r and half are the sandwich A F B F A with
    A = sigma^p, B = sigma^{1-2p} and F = exp(theta G / 2); in G's eigenbasis
    mu = log sum_ij w_ij exp(theta (g_i + g_j) / 2) with w_ij = Re(B'_ij (A^2)'_ji),
    a classical log-partition whose mu' and mu'' are the mean and variance of
    the energies (g_i + g_j) / 2. For kind b, mu'' is the Kubo-Mori variance of L.
    """

    def __init__(self, geodesic: Geodesic):
        # no reference back to the geodesic, which caches this object as .moment
        self._direction = geodesic.direction
        eig = geodesic.base.eig
        p = self._p = geodesic.kind.sandwich_power
        if p is None:
            self._log_sigma = eig.log()
            return
        self._outer, outer_sq, self._inner = eig.power(p), eig.power(2.0 * p), eig.power(1.0 - 2.0 * p)
        self._gen = eig_hermitian(geodesic.aux_direction)
        g = self._gen.eigenvalues
        v = self._gen.eigenvectors
        self._energies = (g[:, None] + g[None, :]) / 2.0
        self._weights = ((v.conj().T @ self._inner @ v) * (v.conj().T @ outer_sq @ v).T).real

    def _log_spectrum(self, ths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kind b: eigenpairs (h, U) of log sigma + theta L and mu, each
        stacked over ths, from one validated eigendecomposition."""
        eig = eig_hermitian(hermitian_part(self._log_sigma + ths[:, None, None] * self._direction))
        return eig.eigenvalues, eig.eigenvectors, log_sum_exp(eig.eigenvalues)

    def _log_partition(self, ths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kinds s, r, half: mu and the normalized weights over eigenpairs,
        each stacked over ths."""
        z = ths[:, None, None] * self._energies
        top = z.max(axis=(1, 2))
        p = self._weights * np.exp(z - top[:, None, None])
        total = p.sum(axis=(1, 2))
        return top + np.log(total), p / total[:, None, None]

    def __call__(self, theta: float) -> float:
        ths = point_array(float(theta), "theta")
        if self._p is None:
            return float(self._log_spectrum(ths)[2][0])
        return float(self._log_partition(ths)[0][0])

    def state_and_moment(self, theta: float) -> tuple[DensityMatrix, float]:
        ths = point_array(float(theta), "theta")
        if self._p is None:
            h, u, mu = (x[0] for x in self._log_spectrum(ths))
            mat = (u * np.exp(h - mu)) @ u.conj().T
            return validate_density(hermitian_part(mat)), float(mu)
        g = self._gen.eigenvalues
        u = self._gen.eigenvectors
        top = float(np.max(theta * g))
        f = (u * np.exp((theta * g - top) / 2.0)) @ u.conj().T
        a = self._outer
        t = a @ f @ self._inner @ f @ a
        tau = float(np.trace(t).real)
        return validate_density(hermitian_part(t / tau)), float(np.log(tau) + top)

    def state(self, theta: float) -> DensityMatrix:
        return self.state_and_moment(theta)[0]

    def derivative(self, theta: float | np.ndarray, order: int) -> float | np.ndarray:
        """mu' (order 1) or mu'' (order 2) at theta, in closed form.

        A float theta gives a float; a nonempty 1-d array gives an array.
        Kind b decomposes the stacked log sigma + theta L with one validated
        eig_hermitian.
        """
        if order not in (1, 2):
            raise DomainError(f"derivative order must be 1 or 2, got {order}")
        ths = point_array(theta, "theta")
        if self._p is None:
            values = self._kubo_mori(ths, order)
        else:
            _, p = self._log_partition(ths)
            values = np.sum(p * self._energies, axis=(1, 2))
            if order == 2:
                values = np.sum(p * (self._energies - values[:, None, None]) ** 2, axis=(1, 2))
        return float(values[0]) if np.ndim(theta) == 0 else values

    def _kubo_mori(self, ths: np.ndarray, order: int) -> np.ndarray:
        """Kind b: mu' (the mean of L) or mu'' (its Kubo-Mori variance) at each theta of ths."""
        h, u, mu = self._log_spectrum(ths)
        lp = u.conj().swapaxes(-1, -2) @ self._direction @ u
        mean = np.sum(np.exp(h - mu[:, None]) * np.diagonal(lp, axis1=-2, axis2=-1).real, axis=1)
        if order == 1:
            return mean
        # the larger exponent is factored out, so nothing overflows
        hi = np.maximum(h[:, :, None], h[:, None, :])
        lo = np.minimum(h[:, :, None], h[:, None, :])
        centered = lp - mean[:, None, None] * np.eye(h.shape[1])
        return np.sum(
            np.abs(centered) ** 2 * np.exp(hi - mu[:, None, None]) * metrics.phi1(lo - hi), axis=(1, 2)
        )


def e_transport(geodesic: Geodesic, theta: float) -> DensityMatrix:
    """The state an amount theta along the curve; theta = 0 gives the base."""
    return geodesic.moment.state(theta)


def sandwich_operator(kind: GeodesicKind, rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """The positive F with sigma^p F sigma^{1-2p} F sigma^p = rho, where
    p = kind.sandwich_power, so that the curve's generator is 2 log F:

    F = sigma^{p-1/2} (sigma^{1/2-2p} rho sigma^{1/2-2p})^{1/2} sigma^{p-1/2}
    """
    p = kind.sandwich_power
    if p is None:
        raise DomainError(f"kind {kind.value} has no sandwich operator")
    outer = sigma.eig.power(p - 0.5)
    inner = sigma.eig.power(0.5 - 2.0 * p)
    root = herm_power(hermitian_part(inner @ rho.matrix @ inner), 0.5)
    return hermitian_part(outer @ root @ outer)


def solve_direction(
    kind: GeodesicKind, rho: DensityMatrix, sigma: DensityMatrix, tol: float = TARGET_TOL
) -> Geodesic:
    """Direction through sigma whose unit-parameter transport lands on rho.

    The result is verified by transporting: a Frobenius defect above
    ``tol`` raises TargetMismatch (a numerical breakdown, not a user
    error).
    """
    check_pair(rho, sigma, ("rho", "sigma"))
    p = kind.sandwich_power
    gen = None
    if p is None:
        direction = rho.eig.log() - sigma.eig.log()
    else:
        gen = 2.0 * herm_log(sandwich_operator(kind, rho, sigma))
        direction = sigma.eig.power(-p) @ gen @ sigma.eig.power(p)
    g = make_geodesic(kind, sigma, hermitian_part(direction), aux_direction=gen)
    defect = frobenius(e_transport(g, 1.0).matrix - rho.matrix)
    if defect > tol:
        raise TargetMismatch(
            f"transport misses the target by {defect:.3e} (tolerance {tol:g})"
        )
    return g


def m_geodesic(rho: DensityMatrix, sigma: DensityMatrix, t: float) -> DensityMatrix:
    """The mixture segment (1-t) rho + t sigma."""
    check_pair(rho, sigma)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return validate_density((1.0 - t) * rho.matrix + t * sigma.matrix)


def transport_commutation_defect(
    kind: GeodesicKind,
    sigma: DensityMatrix,
    direction1: np.ndarray,
    direction2: np.ndarray,
    theta1: float,
    theta2: float,
) -> float:
    """Frobenius gap between transporting along the two directions in
    either order; zero means a two-parameter autoparallel family exists."""
    first = e_transport(make_geodesic(kind, sigma, direction1), theta1)
    then = e_transport(make_geodesic(kind, first, direction2), theta2)
    second = e_transport(make_geodesic(kind, sigma, direction2), theta2)
    other = e_transport(make_geodesic(kind, second, direction1), theta1)
    return frobenius(then.matrix - other.matrix)
