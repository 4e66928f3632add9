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
    HermitianEigen,
    _CachedEigen,
    check_reconstruction,
    decomposition,
    eig_hermitian,
    frobenius,
    hermitian_part,
    log_partition,
    matrices,
    point_array,
    require_hermitian,
    split,
)
from .states import DensityMatrix, check_pair, check_pairs, require_full_rank, state_from_basis, validate_density

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
        return metrics.metric_from_tag(self.value)

    @property
    def sandwich_power(self) -> float | None:
        """p of the curve sigma^p F sigma^{1-2p} F sigma^p; None for kind b."""
        return _SANDWICH_POWERS[self]


_SANDWICH_POWERS = dict(zip(GeodesicKind, (0.0, None, 0.5, 0.25)))  # s, b, r, half


@dataclass(frozen=True)
class Geodesic:
    """Closed-form autoparallel curve: base state, Hermitian direction L, kind,
    and the auxiliary direction G of a sandwich kind (None for kind b)."""

    base: DensityMatrix
    direction: np.ndarray
    kind: GeodesicKind
    aux_direction: np.ndarray | None = None

    @functools.cached_property
    def aux_eig(self) -> HermitianEigen:
        """G's decomposition; solve_direction seeds it from F's, since G = 2 log F."""
        return eig_hermitian(self.aux_direction)

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
) -> Geodesic:
    """Build a geodesic, solving and verifying the auxiliary direction G of
    a sandwich kind (for kind s, G = L). The direction must be Hermitian
    within linalg.HERMITIAN_TOL."""
    require_full_rank(base, "base")
    direction = np.asarray(direction, dtype=complex)
    if direction.shape != (base.dim, base.dim):
        raise DimensionMismatch(
            f"direction shape {direction.shape} does not match state dim {base.dim}"
        )
    require_hermitian(direction, name="direction")
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
        self._gen = geodesic.aux_eig
        g, v = self._gen.eigenvalues, self._gen.eigenvectors
        # pairs (i, j) flattened, so each theta is one row of log_partition
        self._energies = ((g[:, None] + g[None, :]) / 2.0).reshape(-1)
        self._weights = ((v.conj().T @ self._inner @ v) * (v.conj().T @ outer_sq @ v).T).real.reshape(-1)

    def _log_partition(self, ths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """mu and the normalized weights over pairs (kinds s, r, half) or eigenvalues (b), stacked over ths."""
        if self._p is None:
            return _log_spectra(self._log_sigma[None], self._direction[None], ths)[2:]
        return log_partition(ths[:, None] * self._energies, self._weights)

    def __call__(self, theta: float) -> float:
        return float(self._log_partition(point_array(float(theta), "theta"))[0][0])

    def state_and_moment(self, theta: float) -> tuple[DensityMatrix, float]:
        """The state at theta and mu(theta), bitwise this function's value."""
        if self._p is not None:
            return self.state(theta), self(theta)
        ths = point_array(float(theta), "theta")
        _, u, mu, p = (x[0] for x in _log_spectra(self._log_sigma[None], self._direction[None], ths))
        eig = HermitianEigen(p, u)
        return state_from_basis(eig.reconstruct(), eig), float(mu)

    def state(self, theta: float) -> DensityMatrix:
        if self._p is None:
            return self.state_and_moment(theta)[0]
        z = point_array(float(theta), "theta")[0] * self._gen.eigenvalues
        a, u = self._outer, self._gen.eigenvectors
        f = (u * np.exp((z - z.max()) / 2.0)) @ u.conj().T
        t = a @ f @ self._inner @ f @ a
        return validate_density(hermitian_part(t / float(np.trace(t).real)))

    def derivative(self, theta: float | np.ndarray, order: int) -> float | np.ndarray:
        """mu' (order 1) or mu'' (order 2) at theta, in closed form: the
        one-curve case of _moment_derivatives.

        A float theta gives a float; a nonempty 1-d array gives an array.
        """
        values = _moment_derivatives([self], theta, order)[0]
        return float(values[0]) if np.ndim(theta) == 0 else values


def _log_spectra(log_sigma: np.ndarray, direction: np.ndarray, ths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Kind b: eigenpairs (h, U) of log sigma + theta L, mu and the state's
    spectrum exp(h - mu) of each curve, given by its log sigma and L (two
    stacks (curves, d, d)), at each theta of ths, flattened to
    (curves * thetas, ...), from one validated eigendecomposition."""
    n = direction.shape[-1]
    eig = eig_hermitian(hermitian_part(log_sigma[:, None] + ths[:, None, None] * direction[:, None]).reshape(-1, n, n))
    return eig.eigenvalues, eig.eigenvectors, *log_partition(eig.eigenvalues)


def _moment_derivatives(moments: list[MomentFunction], theta: float | np.ndarray, order: int) -> np.ndarray:
    """mu' (order 1) or mu'' (order 2) of each curve, all of one kind and
    dim, at each theta: an array (curves, thetas), each row bitwise that of
    its curve alone.

    Kinds s, r and half take the mean and variance of the energies from one
    log_partition over (curves, thetas, d^2); kind b the mean of L and its
    Kubo-Mori variance from one validated eig_hermitian of the
    (curves * thetas, d, d) stack of log sigma + theta L.
    """
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    ths = point_array(theta, "theta")
    if moments[0]._p is not None:
        energies = np.array([mf._energies for mf in moments])[:, None]
        _, p = log_partition(ths[:, None] * energies, np.array([mf._weights for mf in moments])[:, None])
        mean = np.sum(p * energies, axis=-1)
        return mean if order == 1 else np.sum(p * (energies - mean[..., None]) ** 2, axis=-1)
    direction = np.array([mf._direction for mf in moments])
    h, u, mu, p = _log_spectra(np.array([mf._log_sigma for mf in moments]), direction, ths)
    n = direction.shape[-1]
    # U^* L U of each curve's nodes, then flattened like h
    u = u.reshape(len(moments), ths.size, n, n)
    lp = (u.conj().swapaxes(-1, -2) @ direction[:, None] @ u).reshape(-1, n, n)
    values = np.sum(p * np.diagonal(lp, axis1=-2, axis2=-1).real, axis=1)
    if order == 2:
        # the larger exponent is factored out, so nothing overflows
        hi = np.maximum(h[:, :, None], h[:, None, :])
        lo = np.minimum(h[:, :, None], h[:, None, :])
        centered = lp - values[:, None, None] * np.eye(n)
        values = np.sum(np.abs(centered) ** 2 * np.exp(hi - mu[:, None, None]) * metrics.phi1(lo - hi), axis=(1, 2))
    return values.reshape(len(moments), ths.size)


def e_transport(geodesic: Geodesic, theta: float) -> DensityMatrix:
    """The state an amount theta along the curve; theta = 0 gives the base."""
    return geodesic.moment.state(theta)


@dataclass(frozen=True)
class SandwichOperator:
    """A kept, read-only sandwich operator F and its decomposition, taken on first access."""

    matrix: np.ndarray
    eig = _CachedEigen()


def sandwich_record(kind: GeodesicKind, rho: DensityMatrix, sigma: DensityMatrix) -> SandwichOperator:
    """The positive F with sigma^p F sigma^{1-2p} F sigma^p = rho, where
    p = kind.sandwich_power, so that the curve's generator is 2 log F:

    F = sigma^{p-1/2} (sigma^{1/2-2p} rho sigma^{1/2-2p})^{1/2} sigma^{p-1/2}

    The one-pair case of sandwich_records.
    """
    return sandwich_records(kind, [(rho, sigma)])[0]


def sandwich_records(kind: GeodesicKind, pairs: list[tuple[DensityMatrix, DensityMatrix]]) -> list[SandwichOperator]:
    """sandwich_record of each (rho, sigma) in ``pairs``, each bitwise as if alone.

    The pairs are of one dim (check_pairs). Each record is built once per
    (kind, rho) and kept on sigma, so it dies with sigma. The pairs whose
    record is not kept yet are built in one pass over (pairs, d, d) stacks
    (plain (d, d) arrays for one pair).
    When the inner power is 0 (kind half), X is rho and its decomposition is
    rho's; when the outer power is 0 (kind r), F = X^{1/2} and F's
    decomposition is X's with square-rooted eigenvalues, checked against F
    and kept. Else F's validated decomposition is taken when first asked
    for: linalg.decomposition takes it for a list of records in one call.
    """
    p = kind.sandwich_power
    if p is None:
        raise DomainError(f"kind {kind.value} has no sandwich operator")
    check_pairs(pairs)
    inner_p, outer_p = 0.5 - 2.0 * p, p - 0.5
    # each pair whose record is not kept yet, once
    fresh = {
        (id(rho), id(sigma)): (rho, sigma)
        for rho, sigma in pairs
        if (kind, id(rho)) not in sigma.__dict__.get("_sandwiches", ())
    }
    if fresh:
        rhos, sigmas = zip(*fresh.values())
        s = decomposition(sigmas)
        inner, outer = s.power(inner_p), s.power(outer_p)
        if inner_p == 0:
            x = decomposition(rhos)
        else:
            x = eig_hermitian(hermitian_part(inner @ matrices(rhos) @ inner))
        f = hermitian_part(outer @ x.power(0.5) @ outer)
        f.flags.writeable = False
        records = [SandwichOperator(fk) for fk in f.reshape(-1, *f.shape[-2:])]
        if outer_p == 0:  # F = X^{1/2}
            eig = HermitianEigen(np.sqrt(np.maximum(x.eigenvalues, 0.0)), x.eigenvectors)
            check_reconstruction(eig, f)
            for record, eig_k in zip(records, split(eig)):
                SandwichOperator.eig.keep(record, eig_k)
        for rho, sigma, record in zip(rhos, sigmas, records):
            # the entry holds rho, so no other state can take its id while sigma keeps it
            sigma.__dict__.setdefault("_sandwiches", {})[kind, id(rho)] = (rho, record)
    return [sigma.__dict__["_sandwiches"][kind, id(rho)][1] for rho, sigma in pairs]


def solve_direction(kind: GeodesicKind, rho: DensityMatrix, sigma: DensityMatrix) -> Geodesic:
    """Direction through sigma whose unit-parameter transport lands on rho.

    The result is verified by transporting: a Frobenius defect above
    TARGET_TOL raises TargetMismatch (a numerical breakdown, not a user
    error).
    """
    check_pair(rho, sigma, ("rho", "sigma"))
    p = kind.sandwich_power
    gen = None
    if p is None:
        direction = rho.eig.log() - sigma.eig.log()
    else:
        f = sandwich_record(kind, rho, sigma).eig
        gen = 2.0 * f.log()
        direction = sigma.eig.power(-p) @ gen @ sigma.eig.power(p)
    g = make_geodesic(kind, sigma, hermitian_part(direction), aux_direction=gen)
    if gen is not None:
        g.__dict__["aux_eig"] = HermitianEigen(2.0 * np.log(f.eigenvalues), f.eigenvectors)
    defect = frobenius(e_transport(g, 1.0).matrix - rho.matrix)
    if defect > TARGET_TOL:
        raise TargetMismatch(f"transport misses the target by {defect:.3e} (tolerance {TARGET_TOL:g})")
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
