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

solve_directions finds, for each (rho, sigma) of a list of one dim, the
curve through sigma whose transport to theta = 1 lands on rho, in one pass
over (pairs, d, d) stacks; solve_direction is its one-pair case. One
MomentFunction holds the curves of a batch: every array it holds has a
leading curve axis, a lone curve is a stack of one, and mu, mu', mu'' and
the transported states of all its curves (one theta each, or a grid) come
from one pass over the stacks. transport_commutation_defect and m_geodesic
are the one-trial cases of stacked bodies that take a batch in one pass.
"""

from __future__ import annotations

import enum
import functools
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import DimensionMismatch, DomainError, TargetMismatch
from .linalg import (
    HermitianEigen,
    _adjoint,
    _CachedEigen,
    _frobenius_each,
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
from .states import (
    DensityMatrix,
    _checked_basis,
    _states_from_eig,
    check_pair,
    check_pairs,
    require_full_rank,
    validate_densities,
)

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
        """G's decomposition; solve_directions seeds it from F's, since G = 2 log F."""
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
    return _auxiliary(sigma.eig, p, direction)


def _auxiliary(eig: HermitianEigen, p: float, direction: np.ndarray) -> np.ndarray:
    """solve_auxiliary_direction at the base state of decomposition ``eig``,
    or at each base state of a stacked ``eig`` for a stack of directions."""
    d = eig.eigenvalues
    w = (d[..., None, :] / d[..., :, None]) ** p
    weights = 2.0 / (w + 1.0 / w)
    u = eig.eigenvectors
    lp = _adjoint(u) @ direction @ u
    return hermitian_part(u @ (weights * lp) @ _adjoint(u))


def make_geodesic(
    kind: GeodesicKind, base: DensityMatrix, direction: np.ndarray, aux_direction: np.ndarray | None = None
) -> Geodesic:
    """Build a geodesic, solving and verifying the auxiliary direction G of
    a sandwich kind (for kind s, G = L). The direction must be Hermitian
    within linalg.HERMITIAN_TOL."""
    aux = None if aux_direction is None else np.asarray(aux_direction)[None]
    _, direction, aux = _checked_curves(kind, [base], [direction], aux, [""])
    return Geodesic(base=base, direction=direction[0], kind=kind, aux_direction=None if aux is None else aux[0])


def _checked_curves(
    kind: GeodesicKind, bases: list[DensityMatrix], directions, aux: np.ndarray | None, names: list[str]
) -> tuple[HermitianEigen, np.ndarray, np.ndarray | None]:
    """make_geodesic's checks of the curve through each of ``bases`` along
    its direction in ``directions``, each run once over the stacks and
    naming the curve by ``names``: the bases' decomposition, the (curves,
    d, d) stack of directions and that of G (None for kind b)."""
    for base, name in zip(bases, names):
        require_full_rank(base, "base" + name)
    directions, n = np.asarray(directions, dtype=complex), bases[0].dim
    if directions.shape != (len(bases), n, n):
        raise DimensionMismatch(f"direction shape {directions.shape[1:]} does not match state dim {n}")
    eig = decomposition(bases)
    return eig, directions, _checked_aux(kind, eig, directions, aux, names)


def _checked_aux(
    kind: GeodesicKind,
    eig: HermitianEigen,
    direction: np.ndarray,
    aux: np.ndarray | None = None,
    names: Sequence[str] = ("",),
) -> np.ndarray | None:
    """make_geodesic's checks of a direction L at a base state of
    decomposition ``eig``, or of a stack (k, n, n) of them at stacked base
    states: NotHermitian, then for a sandwich kind the auxiliary direction G
    (``aux``; None takes L for kind s and solves G for kinds r and half,
    over the stack), with TargetMismatch when it violates
    L = (sigma^{-p} G sigma^p + sigma^p G sigma^{-p}) / 2, naming the worst
    curve by ``names``. Returns G; None for kind b."""
    require_hermitian(direction, name="direction")
    p = kind.sandwich_power
    if p is None:
        return None
    if aux is None:
        aux = direction if p == 0 else _auxiliary(eig, p, direction)
    sp, sm = eig.power(p), eig.power(-p)
    worst = _worst_beyond((sm @ aux @ sp + sp @ aux @ sm) / 2.0 - direction, AUX_RELATION_TOL)
    if worst:
        k, defect = worst
        raise TargetMismatch(f"auxiliary direction{names[k]} violates its defining relation by {defect:.3e}")
    return aux


def _worst_beyond(x: np.ndarray, tol: float) -> tuple[int, float] | None:
    """The index in a stack ``x`` (0 for a matrix) and the Frobenius norm of
    its matrix of largest norm, when that norm exceeds ``tol``; else None.
    The norm of the whole stack bounds each matrix's, so the norm of each
    matrix is taken only when the whole one exceeds ``tol``."""
    if not frobenius(x) > tol:
        return None
    norms = _frobenius_each(x)
    k = int(norms.argmax())
    return (k, float(norms.flat[k])) if norms.flat[k] > tol else None


class MomentFunction:
    """Log-normalizer mu(theta) of a geodesic, with cached spectral data.

    mu(0) = 0, mu is convex, and its second derivative is the Fisher
    information of the curve under the matching metric. Both derivatives
    are exact. Kinds s, r and half are the sandwich A F B F A with
    A = sigma^p, B = sigma^{1-2p} and F = exp(theta G / 2); in G's eigenbasis
    mu = log sum_ij w_ij exp(theta (g_i + g_j) / 2) with w_ij = Re(B'_ij (A^2)'_ji),
    a classical log-partition whose mu' and mu'' are the mean and variance of
    the energies (g_i + g_j) / 2. For kind b, mu'' is the Kubo-Mori variance of L.

    Every array it holds is stacked over curves of one kind and dim: a lone
    curve is a stack of one, and _solved_directions builds one moment
    function for a batch, whose one-row views (_rows) are the geodesics'
    own that solve_directions returns.
    """

    def __init__(self, geodesic: Geodesic):
        p = geodesic.kind.sandwich_power
        self._fill(p, geodesic.direction, geodesic.base.eig, None if p is None else geodesic.aux_eig)

    def _fill(
        self, p: float | None, direction: np.ndarray, eig: HermitianEigen, gen: HermitianEigen | None
    ) -> MomentFunction:
        """Keep, with a leading curve axis, the arrays of the curve of sandwich
        power ``p`` (None for kind b) and direction L through the base state
        of decomposition ``eig``, with G's decomposition ``gen``, or of each
        curve from stacks of them: L, and log sigma for kind b; A, B, G's
        eigenpairs and, over G's eigenpairs (i, j) flattened so that each
        theta is one row of log_partition, the energies and weights w_ij for
        kinds s, r and half. No reference back to the geodesic, which caches
        this object as .moment."""
        n = direction.shape[-1]
        self._p, self._direction = p, direction.reshape(-1, n, n)
        if p is None:
            self._log_sigma = eig.log().reshape(-1, n, n)
            return self
        parts = (eig.power(p), eig.power(1.0 - 2.0 * p), eig.power(2.0 * p), gen.eigenvectors)
        self._outer, self._inner, outer_sq, v = (m.reshape(-1, n, n) for m in parts)
        g = self._gen_values = gen.eigenvalues.reshape(-1, n)
        self._gen_vectors, vh = v, _adjoint(v)
        self._energies = ((g[:, :, None] + g[:, None, :]) / 2.0).reshape(len(g), -1)
        self._weights = ((vh @ self._inner @ v) * (vh @ outer_sq @ v).swapaxes(-1, -2)).real.reshape(len(g), -1)
        return self

    def _rows(self, index: slice | np.ndarray) -> MomentFunction:
        """The moment function of the curves that ``index`` picks out, viewing
        this one's arrays when ``index`` is a slice."""
        rows = MomentFunction.__new__(MomentFunction)
        vars(rows).update({name: a if name == "_p" else a[index] for name, a in vars(self).items()})
        return rows

    def __call__(self, theta: float) -> float:
        return float(self._moments(float(theta), 0)[0, 0])

    def state_and_moment(self, theta: float) -> tuple[DensityMatrix, float]:
        """The state at theta and mu(theta), bitwise this function's value."""
        states, mus = self._states(np.full(len(self._direction), float(theta)))
        return states[0], self(theta) if mus is None else float(mus[0])

    def state(self, theta: float) -> DensityMatrix:
        """The state at theta."""
        return self._states(np.full(len(self._direction), float(theta)))[0][0]

    def derivative(self, theta: float | np.ndarray, order: int) -> float | np.ndarray:
        """mu' (order 1) or mu'' (order 2) at theta, in closed form.

        A float theta gives a float; a nonempty 1-d array gives an array.
        """
        if order not in (1, 2):
            raise DomainError(f"derivative order must be 1 or 2, got {order}")
        values = self._moments(theta, order)[0]
        return float(values[0]) if np.ndim(theta) == 0 else values

    def _states(self, thetas: np.ndarray) -> tuple[list[DensityMatrix], np.ndarray | None]:
        """The state at each theta of each curve, for one theta per curve
        (curves,) or a grid (curves, m): a list in (curve, theta) order, each
        bitwise as if alone, from one pass over (curves, m, d, d) stacks whose
        density checks run once and name the worst matrix. Kind b also gives
        each mu(theta), in that order, and each state keeps its decomposition,
        from one validated eig_hermitian of the stack of log sigma + theta L;
        kinds s, r and half give None (e^{-mu} A F B F A, F = e^{theta G / 2})."""
        ths = point_array(np.ravel(thetas), "theta").reshape(len(self._direction), -1)
        if self._p is None:
            _, u, mu, w = _log_spectra(self._log_sigma, self._direction, ths)
            eig = HermitianEigen(w, u)
            return _states_from_eig(eig.reconstruct(), eig, _checked_basis), mu
        z, u = ths[..., None] * self._gen_values[:, None], self._gen_vectors[:, None]
        f = (u * np.exp((z - z.max(-1, keepdims=True)) / 2.0)[..., None, :]) @ _adjoint(u)
        t = self._outer[:, None] @ f @ self._inner[:, None] @ f @ self._outer[:, None]
        t = hermitian_part(t / np.trace(t, 0, -2, -1).real[..., None, None])
        return validate_densities(t.reshape(-1, *t.shape[-2:])), None

    def _moments(self, theta: float | np.ndarray, order: int) -> np.ndarray:
        """mu (order 0), mu' (order 1) or mu'' (order 2) of each curve at
        each theta: an array (curves, thetas), each row bitwise that of its
        curve alone.

        Kinds s, r and half take the log-partition of the energies and their
        mean and variance from one log_partition over (curves, thetas, d^2);
        kind b mu, the mean of L and its Kubo-Mori variance from one
        validated eig_hermitian of the (curves * thetas, d, d) stack of
        log sigma + theta L.
        """
        ths = point_array(theta, "theta")
        if self._p is not None:
            energies = self._energies[:, None]
            mu, p = log_partition(ths[:, None] * energies, self._weights[:, None])
            if order == 0:
                return mu
            mean = np.sum(p * energies, axis=-1)
            return mean if order == 1 else np.sum(p * (energies - mean[..., None]) ** 2, axis=-1)
        direction = self._direction
        h, u, mu, p = _log_spectra(self._log_sigma, direction, ths)
        curves, n = len(direction), direction.shape[-1]
        if order == 0:
            return mu.reshape(curves, ths.size)
        # U^* L U of each curve's nodes, then flattened like h
        u = u.reshape(curves, ths.size, n, n)
        lp = (u.conj().swapaxes(-1, -2) @ direction[:, None] @ u).reshape(-1, n, n)
        values = np.sum(p * np.diagonal(lp, axis1=-2, axis2=-1).real, axis=1)
        if order == 2:
            # the larger exponent is factored out, so nothing overflows
            hi = np.maximum(h[:, :, None], h[:, None, :])
            lo = np.minimum(h[:, :, None], h[:, None, :])
            centered = lp - values[:, None, None] * np.eye(n)
            values = np.sum(np.abs(centered) ** 2 * np.exp(hi - mu[:, None, None]) * metrics.phi1(lo - hi), axis=(1, 2))
        return values.reshape(curves, ths.size)


def _log_spectra(log_sigma: np.ndarray, direction: np.ndarray, ths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Kind b: eigenpairs (h, U) of log sigma + theta L, mu and the state's
    spectrum exp(h - mu) of each curve, given by the stacks (curves, d, d)
    of its log sigma and L, at each theta of ths (thetas,) or of its row of
    ths (curves, thetas), flattened to (curves * thetas, ...), from one
    validated eigendecomposition."""
    n = direction.shape[-1]
    stack = log_sigma[:, None] + ths[..., None, None] * direction[:, None]
    eig = eig_hermitian(hermitian_part(stack).reshape(-1, n, n))
    return eig.eigenvalues, eig.eigenvectors, *log_partition(eig.eigenvalues)


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
    (kind, rho) and kept on sigma while rho lives, so it dies with sigma or
    with rho. The pairs whose record is not kept yet are built in one pass
    over (pairs, d, d) stacks (plain (d, d) arrays for one pair).
    When the inner power is 0 (kind half), X is rho and its decomposition is
    rho's; when the outer power is 0 (kind r), F = X^{1/2} and F's
    decomposition is X's with square-rooted eigenvalues, checked against F
    and kept. Else F's validated decomposition is taken when first asked
    for: linalg.decomposition takes it for a list of records in one call.
    """
    if kind.sandwich_power is None:
        raise DomainError(f"kind {kind.value} has no sandwich operator")
    check_pairs(pairs)
    return _sandwich_records(kind, pairs)


def _sandwich_records(kind: GeodesicKind, pairs: list[tuple[DensityMatrix, DensityMatrix]]) -> list[SandwichOperator]:
    """sandwich_records of pairs that the caller has checked."""
    p = kind.sandwich_power
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
            # rho is held weakly, and its entry goes as rho dies, before another state can take its id
            key = kind, id(rho)
            sigma.__dict__.setdefault("_sandwiches", {})[key] = (weakref.ref(rho, _dropper(sigma, key)), record)
    return [sigma.__dict__["_sandwiches"][kind, id(rho)][1] for rho, sigma in pairs]


def _dropper(sigma: DensityMatrix, key: tuple) -> Callable:
    """The weakref callback that drops sigma's sandwich entry ``key``; it holds
    sigma weakly, so that no cycle outlives sigma."""
    held = weakref.ref(sigma)
    return lambda _: (kept := held()) is not None and kept.__dict__["_sandwiches"].pop(key, None)


def solve_direction(kind: GeodesicKind, rho: DensityMatrix, sigma: DensityMatrix) -> Geodesic:
    """Direction through sigma whose unit-parameter transport lands on rho.

    The result is verified by transporting: a Frobenius defect above
    TARGET_TOL raises TargetMismatch (a numerical breakdown, not a user
    error). The one-pair case of solve_directions.
    """
    return solve_directions(kind, [(rho, sigma)])[0]


def solve_directions(kind: GeodesicKind, pairs: list[tuple[DensityMatrix, DensityMatrix]]) -> list[Geodesic]:
    """solve_direction of each (rho, sigma) in ``pairs``, all of one dim, each
    bitwise as if alone, from one pass over (pairs, d, d) stacks. With more
    than one pair, NotFullRank and TargetMismatch name the pair by its index
    in ``pairs``. Each .moment is a one-row view of the batch's MomentFunction."""
    moments, gen, gen_eig = _solved_directions(kind, pairs, check_pairs(pairs, ("rho", "sigma")))
    gens = gen_eigs = [None] * len(pairs)
    if gen is not None:
        gens, gen_eigs = gen.reshape(moments._direction.shape), split(gen_eig)
    geodesics = []
    for k, ((_, sigma), gen_k, gen_eig_k) in enumerate(zip(pairs, gens, gen_eigs)):
        # a batch of one is its own row, with no views to build
        row = moments if len(pairs) == 1 else moments._rows(slice(k, k + 1))
        g = Geodesic(sigma, row._direction[0], kind, gen_k)
        g.__dict__["moment"] = row
        if gen_eig_k is not None:
            g.__dict__["aux_eig"] = gen_eig_k
        geodesics.append(g)
    return geodesics


def _solved_directions(
    kind: GeodesicKind, pairs: list[tuple[DensityMatrix, DensityMatrix]], names: list[str]
) -> tuple[MomentFunction | None, np.ndarray | None, HermitianEigen | None]:
    """The one MomentFunction of the curves that solve_directions finds for
    pairs that the caller has checked (check_pairs, which gave ``names``;
    None for no pairs), and the stacks of their G and its decomposition (a
    matrix for one pair; None for kind b).

    Each step runs once over the stacks: L = log rho - log sigma (kind b) or
    herm(sigma^{-p} G sigma^p) with G = 2 log F read off the kept sandwich
    records, make_geodesic's checks (_checked_aux), the moment function's
    arrays (G's decomposition is F's with 2 log of its eigenvalues), and the
    transport to theta = 1, which must land on each rho within TARGET_TOL.
    """
    if not pairs:
        return None, None, None
    rhos, sigmas = zip(*pairs)
    s = decomposition(sigmas)
    p = kind.sandwich_power
    gen = gen_eig = None
    if p is None:
        direction = decomposition(rhos).log() - s.log()
    else:
        f = decomposition(_sandwich_records(kind, pairs))
        gen, gen_eig = 2.0 * f.log(), HermitianEigen(2.0 * np.log(f.eigenvalues), f.eigenvectors)
        direction = s.power(-p) @ gen @ s.power(p)
    direction = hermitian_part(direction)
    _checked_aux(kind, s, direction, gen, names)
    moments = MomentFunction.__new__(MomentFunction)._fill(p, direction, s, gen_eig)
    worst = _worst_beyond(matrices(moments._states(np.ones(len(pairs)))[0]) - matrices(rhos), TARGET_TOL)
    if worst:
        k, defect = worst
        raise TargetMismatch(f"transport{names[k]} misses the target by {defect:.3e} (tolerance {TARGET_TOL:g})")
    return moments, gen, gen_eig


def m_geodesic(rho: DensityMatrix, sigma: DensityMatrix, t: float) -> DensityMatrix:
    """The mixture segment (1-t) rho + t sigma; the one-point case of _mixture_states."""
    check_pair(rho, sigma)
    return _mixture_states([(rho, sigma)], [t])[0]


def _mixture_states(pairs: list[tuple[DensityMatrix, DensityMatrix]], ts) -> list[DensityMatrix]:
    """m_geodesic of each pair, all of one dim and checked by the caller
    (check_pairs), at each t of ``ts``: a list in (pair, t) order, each
    bitwise as if alone, validated once as one (pairs * ts, d, d) stack."""
    ts = np.asarray(ts, dtype=float)
    outside = ~((0.0 <= ts) & (ts <= 1.0))  # a NaN t is outside too
    if outside.any():
        raise DomainError(f"t must lie in [0, 1], got {ts[outside][0]}")
    rho, sigma = (np.array([pair[i].matrix for pair in pairs])[:, None] for i in (0, 1))
    w = ts[:, None, None]
    return validate_densities(((1.0 - w) * rho + w * sigma).reshape(-1, *rho.shape[-2:]))


def transport_commutation_defect(
    kind: GeodesicKind,
    sigma: DensityMatrix,
    direction1: np.ndarray,
    direction2: np.ndarray,
    theta1: float,
    theta2: float,
) -> float:
    """Frobenius gap between transporting along the two directions in either order; zero
    means a two-parameter autoparallel family exists. The one-trial case of _commutation_defects."""
    return _commutation_defects(kind, [sigma], [direction1], [direction2], [theta1], [theta2])[0]


def _commutation_defects(
    kind: GeodesicKind, sigmas: list[DensityMatrix], directions1, directions2, thetas1, thetas2
) -> list[float]:
    """transport_commutation_defect of each trial k, (sigmas[k],
    directions1[k], directions2[k], thetas1[k], thetas2[k]), all of one dim,
    each bitwise as if alone, from four stacked transports (_transported).
    With more than one trial, the errors name the trial by its index."""
    names = [""] if len(sigmas) == 1 else [f" of trial {k}" for k in range(len(sigmas))]
    first = _transported(kind, sigmas, directions1, thetas1, names)
    then = _transported(kind, first, directions2, thetas2, names)
    second = _transported(kind, sigmas, directions2, thetas2, names)
    other = _transported(kind, second, directions1, thetas1, names)
    return [frobenius(a.matrix - b.matrix) for a, b in zip(then, other)]


def _transported(
    kind: GeodesicKind, bases: list[DensityMatrix], directions, thetas, names: list[str]
) -> list[DensityMatrix]:
    """e_transport(make_geodesic(kind, bases[k], directions[k]), thetas[k]) for each k, each
    of make_geodesic's checks run once over the stacks (_checked_curves)."""
    eig, directions, aux = _checked_curves(kind, bases, directions, None, names)
    gen = None if aux is None else eig_hermitian(aux)
    moments = MomentFunction.__new__(MomentFunction)._fill(kind.sandwich_power, directions, eig, gen)
    return moments._states(thetas)[0]
