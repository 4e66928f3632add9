"""Randomized verification of every identity and inequality the package
asserts, as replayable pass/fail claims.

Each claim derives an independent pseudo-random stream from
(global seed, claim id, trial index) via SHA-256, so claims can run in any
order or in parallel without changing a single trial. Trials of one dim run
in batches, and each gives bit for bit what a batch of that trial alone
gives. The worst trial of every claim is recorded as a witness that can be
replayed standalone.

Claim modes:
  equality        worst_slack = max defect over trials; pass iff <= tolerance
  inequality      worst_slack = min margin over trials; pass iff >= -tolerance
  counterexample  worst_slack = best defect found;      pass iff  > tolerance
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import metrics
from .channels import apply_channel, measure, partial_trace, random_channel, sandwich_pvm
from .divergences import (
    ExponentialFamily,
    QuadratureConfig,
    QuantumExponentialFamily,
    adaptive_gauss_legendre,
    bregman_divergence,
    bs_divergences,
    classical_kl,
    e_divergence_closed,
    e_divergence_quadrature,
    e_divergences,
    e_divergences_closed,
    legendre_model,
    m_divergence,
    m_divergence_detail,
    m_divergences,
    quantum_relative_entropy,
    relative_entropies,
    von_neumann_entropy,
)
from .errors import ConfigError, InvalidShape, QPathDivError, UnknownClaim
from .linalg import eig_hermitian, herm_log, tensor_product
from .metrics import BOGOLJUBOV, HALF, RLD, SLD, fisher_info_mixture, fisher_info_numeric
from .states import (
    DensityMatrix,
    RandomSpec,
    _state_in_basis,
    commutation_defect,
    random_commuting_pair,
    random_densities,
    random_density,
    random_direction,
    validate_density,
)
from .transport import (
    GeodesicKind,
    m_geodesic,
    solve_direction,
    transport_commutation_defect,
)

DEFAULT_GLOBAL_SEED = 20250809
_FLOOR = 0.05
_STRICT_GAP = 1e-6
_NONCOMMUTING = 1e-8
_TIGHT_QUADRATURE = QuadratureConfig(nodes=64, rel_tol=1e-12, max_nodes=1024)
# the most trials of one dim in a batch: every default claim runs one batch per
# dim, and a claim's memory stays bounded whatever trial count a config sets
_BATCH_TRIALS = 256

_GEODESIC_KINDS = (GeodesicKind.SLD, GeodesicKind.BOGOLJUBOV, GeodesicKind.RLD, GeodesicKind.HALF)
_METRIC_KINDS = (SLD, BOGOLJUBOV, RLD, HALF)


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary labels (replayable across runs)."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ClaimSpec:
    id: str
    dims: tuple[int, ...]
    trials: int
    tolerance: float
    mode: str

    def __post_init__(self) -> None:
        if not self.dims or min(self.dims) < 1:
            raise ConfigError(f"claim {self.id}: dims must be a non-empty list of positive sizes")
        if self.trials < 1:
            raise ConfigError(f"claim {self.id}: trials must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ConfigError(f"claim {self.id}: tolerance must be finite and > 0, got {self.tolerance}")
        if self.mode not in ("equality", "inequality", "counterexample"):
            raise ConfigError(f"claim {self.id}: unknown mode {self.mode!r}")


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    mode: str
    dims: tuple[int, ...]
    trials: int
    tolerance: float
    worst_slack: float
    passed: bool
    witness: dict
    details: dict

    def to_dict(self) -> dict:
        out = asdict(self)
        out["dims"] = list(self.dims)
        return out


# registry entry: (default spec, batch function, optional extra check)
# batch(dim, trial_seeds) -> one (measure, extras) per seed, in seed order,
# each bitwise what a batch of that seed alone gives; it must be a pure
# function of its arguments so witnesses replay exactly.
_TrialFn = Callable[[int, int], tuple[float, dict]]
_BatchFn = Callable[[int, list[int]], list[tuple[float, dict]]]
_REGISTRY: dict[str, tuple[ClaimSpec, _BatchFn, Callable | None]] = {}


def _register(claim_id, dims, trials, tolerance, mode, extra_check=None, batched=False):
    """Register a batch function, or with ``batched`` False a trial function
    trial(dim, trial_seed) -> (measure, extras), run once per seed."""

    def deco(fn):
        spec = ClaimSpec(claim_id, tuple(dims), trials, tolerance, mode)
        batch = fn if batched else lambda dim, seeds: [fn(dim, seed) for seed in seeds]
        _REGISTRY[claim_id] = (spec, batch, extra_check)
        return fn

    return deco


def registered_claims() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _registered(claim_id: str) -> tuple[ClaimSpec, _BatchFn, Callable | None]:
    """The registry entry of a claim; UnknownClaim when there is none."""
    if claim_id not in _REGISTRY:
        raise UnknownClaim(f"no claim registered under {claim_id!r}")
    return _REGISTRY[claim_id]


def default_spec(claim_id: str) -> ClaimSpec:
    return _registered(claim_id)[0]


def _pairs(dim: int, seeds: list[int]) -> list[tuple[DensityMatrix, DensityMatrix]]:
    """The (rho, sigma) of each seed, at the states' derived seeds, all
    drawn by one random_densities call."""
    specs = [RandomSpec(dim, derive_seed(seed, name), _FLOOR) for seed in seeds for name in ("rho", "sigma")]
    states = random_densities(specs)
    return list(zip(states[::2], states[1::2]))


def _batch_results(batch: _BatchFn, dim: int, seeds: list[int]) -> list[tuple[float, dict, bool]]:
    """(measure, extras, refused) of each seed's trial. A batch that raises a
    QPathDivError runs again one seed at a time, so each refused trial keeps
    its own error and the others their values."""
    try:
        return [(value, extras, False) for value, extras in batch(dim, seeds)]
    except InvalidShape:
        raise  # dims the claim cannot take: a config error whatever the draw
    except QPathDivError as exc:
        # a trial the library refuses measures NaN; any other exception is a bug
        if len(seeds) > 1:
            return [result for seed in seeds for result in _batch_results(batch, dim, [seed])]
        return [(math.nan, {"error": f"{type(exc).__name__}: {exc}"}, True)]


def run_claim(claim_id: str, global_seed: int = DEFAULT_GLOBAL_SEED, spec: ClaimSpec | None = None) -> ClaimRecord:
    """Execute one registered claim; deterministic given (claim, seed). The
    trials of each dim run in batches of up to _BATCH_TRIALS, and their
    results are read in trial order."""
    default, batch, extra_check = _registered(claim_id)
    spec = spec or default
    best_for_mode = max if spec.mode != "inequality" else min
    worst = -math.inf if spec.mode != "inequality" else math.inf
    witness: dict = {}
    extras_list: list[dict] = []
    trials_of: dict[int, list[int]] = {}
    for t in range(spec.trials):
        trials_of.setdefault(spec.dims[t % len(spec.dims)], []).append(t)
    results: list = [None] * spec.trials
    for dim, trials_of_dim in trials_of.items():
        for start in range(0, len(trials_of_dim), _BATCH_TRIALS):
            trials = trials_of_dim[start : start + _BATCH_TRIALS]
            seeds = [derive_seed(global_seed, spec.id, dim, t) for t in trials]
            for t, seed, result in zip(trials, seeds, _batch_results(batch, dim, seeds)):
                results[t] = (dim, seed, *result)
    for t, (dim, trial_seed, value, extras, refused) in enumerate(results):
        if not refused:
            extras_list.append(extras)
        # a NaN measure is never beaten: the first one is the witness and fails the claim
        if not math.isnan(worst) and (math.isnan(value) or best_for_mode(value, worst) == value):
            worst = value
            witness = {"trial": t, "dim": dim, "seed": trial_seed, "measure": value, **extras}
    if spec.mode == "equality":
        passed = worst <= spec.tolerance
    elif spec.mode == "inequality":
        passed = worst >= -spec.tolerance
    else:
        passed = worst > spec.tolerance
    details: dict = {}
    if extra_check is not None:
        extra_ok, extra_details = extra_check(spec, extras_list)
        passed = passed and extra_ok
        details.update(extra_details)
    return ClaimRecord(
        claim_id=spec.id,
        mode=spec.mode,
        dims=spec.dims,
        trials=spec.trials,
        tolerance=spec.tolerance,
        worst_slack=worst,
        passed=passed,
        witness=witness,
        details=details,
    )


def replay_witness(claim_id: str, witness: dict) -> float:
    """Re-run the recorded worst trial as a batch of one; returns the
    recomputed measure, or raises again the error that a witness with an
    ``error`` entry recorded."""
    _, batch, _ = _registered(claim_id)
    ((value, _extras),) = batch(int(witness["dim"]), [int(witness["seed"])])
    return value


# --------------------------------------------------------------------------
# claim trial functions
# --------------------------------------------------------------------------


def _pair_trials(trial: Callable) -> _BatchFn:
    """Make a batch function of a trial fn(seed, rho, sigma) that gets the
    pair drawn at its seed; all pairs of a batch come from one _pairs call."""

    def batch(dim: int, seeds: list[int]) -> list[tuple[float, dict]]:
        return [trial(seed, rho, sigma) for seed, (rho, sigma) in zip(seeds, _pairs(dim, seeds))]

    return batch


def _quadrature_agreement(kind: GeodesicKind) -> _BatchFn:
    def batch(dim: int, seeds: list[int]) -> list[tuple[float, dict]]:
        pairs = _pairs(dim, seeds)
        out = []
        for c, (quad, _) in zip(e_divergences_closed(kind, pairs), e_divergences(kind, pairs)):
            # scaled so that measure <= 1e-6 iff |quad-closed| <= max(1e-6, 1e-5|closed|)
            allowed = max(1e-6, 1e-5 * abs(c))
            out.append((abs(quad - c) * (1e-6 / allowed), {"closed": c, "quadrature": quad}))
        return out

    return batch


for _kind in _GEODESIC_KINDS:
    _register(
        f"e-path-closed-vs-quadrature-{_kind.value}",
        dims=(2, 3, 4),
        trials=600,
        tolerance=1e-6,
        mode="equality",
        batched=True,
    )(_quadrature_agreement(_kind))


@_register(
    "relative-entropy-closed-form", dims=(2, 3, 4), trials=201, tolerance=1e-10, mode="equality", batched=True
)
def _relative_entropy_closed_form(dim: int, seeds: list[int]):
    pairs = _pairs(dim, seeds)
    out = []
    for (rho, sigma), via_path in zip(pairs, e_divergences_closed(GeodesicKind.BOGOLJUBOV, pairs)):
        direct = float(np.trace(rho.matrix @ (herm_log(rho.matrix) - herm_log(sigma.matrix))).real)
        out.append((abs(via_path - direct), {"value": direct}))
    return out


@_register(
    "m-path-bogoljubov-matches-relative-entropy",
    dims=(2, 3, 4),
    trials=201,
    tolerance=1e-6,
    mode="equality",
    batched=True,
)
def _m_b_matches_d(dim: int, seeds: list[int]):
    pairs = _pairs(dim, seeds)
    ds = relative_entropies(pairs)
    ms = [m for m, _ in m_divergences(BOGOLJUBOV, pairs)]
    return [(abs(m - d), {"relative_entropy": d, "m_path": m}) for d, m in zip(ds, ms)]


@_register("rld-identity-e-m-bs", dims=(2, 3, 4), trials=201, tolerance=1e-6, mode="equality", batched=True)
def _rld_identity(dim: int, seeds: list[int]):
    pairs = _pairs(dim, seeds)
    closed = zip(bs_divergences(pairs), e_divergences_closed(GeodesicKind.RLD, pairs))
    return [
        (max(abs(e_r - bar), abs(m_r - bar)), {"bs": bar, "e_path": e_r, "m_path": m_r})
        for (bar, e_r), (m_r, _) in zip(closed, m_divergences(RLD, pairs))
    ]


def _chain_genericity(spec: ClaimSpec, extras_list: list[dict]):
    noncommuting = [e for e in extras_list if e["noncommuting"]]
    strict = sum(1 for e in noncommuting if e["strict"])
    fraction = strict / max(1, len(noncommuting))
    return fraction >= 0.95, {"strict_fraction": fraction, "noncommuting_trials": len(noncommuting)}


@_register(
    "divergence-ordering-chain",
    dims=(2, 3, 4),
    trials=1002,
    tolerance=1e-8,
    mode="inequality",
    extra_check=_chain_genericity,
    batched=True,
)
def _ordering_chain(dim: int, seeds: list[int]):
    pairs = _pairs(dim, seeds)
    out = []
    for (rho, sigma), d, e_s, bar in zip(
        pairs, relative_entropies(pairs), e_divergences_closed(GeodesicKind.SLD, pairs), bs_divergences(pairs)
    ):
        low_gap = d - e_s
        high_gap = bar - d
        noncommuting = commutation_defect(rho, sigma) > _NONCOMMUTING
        strict = low_gap > _STRICT_GAP and high_gap > _STRICT_GAP
        extras = {"low_gap": low_gap, "high_gap": high_gap, "noncommuting": bool(noncommuting), "strict": bool(strict)}
        out.append((min(low_gap, high_gap), extras))
    return out


@_register("e-path-additivity", dims=(2,), trials=200, tolerance=1e-6, mode="equality", batched=True)
def _e_additivity(dim: int, seeds: list[int]):
    # the pairs at derive_seed(seed, "first") and derive_seed(seed, "second"), then their tensor products
    pairs = _pairs(dim, [derive_seed(seed, tag) for seed in seeds for tag in ("first", "second")])
    firsts, seconds = pairs[::2], pairs[1::2]
    joints = [
        tuple(validate_density(tensor_product(a.matrix, b.matrix)) for a, b in zip(first, second))
        for first, second in zip(firsts, seconds)
    ]
    n = len(seeds)
    worst, values = [0.0] * n, [{} for _ in seeds]
    for kind in _GEODESIC_KINDS:
        qubits = e_divergences_closed(kind, firsts + seconds)
        for k, joint in enumerate(e_divergences_closed(kind, joints)):
            values[k][kind.value] = joint
            worst[k] = max(worst[k], abs(joint - (qubits[k] + qubits[n + k])))
    return [(w, {"joint_values": v}) for w, v in zip(worst, values)]


@_register("m-path-monotonicity", dims=(2, 3, 4), trials=500, tolerance=1e-7, mode="inequality", batched=True)
def _m_monotonicity(dim: int, seeds: list[int]):
    # style 0 (seed % 4) traces a dim-4 pair down to one qubit whatever the dim, so the
    # partial-trace trials and the channel trials each make one draw and one-dim lists
    groups: dict[bool, list[int]] = {}
    for seed in seeds:
        groups.setdefault(seed % 4 == 0, []).append(seed)
    out = {}
    for traced, group in groups.items():
        before, after, descs = _pairs(4 if traced else dim, group), [], []
        for seed, (rho, sigma) in zip(group, before):
            if traced:
                keep = "A" if seed % 2 == 0 else "B"
                after.append((partial_trace(rho, (2, 2), keep), partial_trace(sigma, (2, 2), keep)))
                descs.append(f"partial-trace-keep-{keep}")
            else:
                kraus_count = (1, 2, 4)[seed % 4 - 1]
                channel = random_channel(dim, dim, kraus_count, derive_seed(seed, "channel"))
                after.append((apply_channel(channel, rho), apply_channel(channel, sigma)))
                descs.append(f"random-kraus-{kraus_count}")
        rows = zip(m_divergences(_METRIC_KINDS, before), m_divergences(_METRIC_KINDS, after))
        for seed, desc, (rows_before, rows_after) in zip(group, descs, rows):
            worst = math.inf
            for (b, _), (a, _) in zip(rows_before, rows_after):
                worst = min(worst, b - a)
            out[seed] = worst, {"channel": desc}
    return [out[seed] for seed in seeds]


@_register("rld-m-path-dominates", dims=(2, 3), trials=500, tolerance=1e-8, mode="inequality", batched=True)
def _rld_dominates(dim: int, seeds: list[int]):
    out = []
    for (top, _), *rest in m_divergences((RLD, SLD, BOGOLJUBOV, HALF), _pairs(dim, seeds)):
        out.append((min(top - value for value, _ in rest), {"rld_value": top}))
    return out


@_register(
    "sld-m-path-below-relative-entropy", dims=(2, 3), trials=500, tolerance=1e-8, mode="inequality", batched=True
)
def _sld_below_d(dim: int, seeds: list[int]):
    pairs = _pairs(dim, seeds)
    ds = relative_entropies(pairs)
    ms = [m_s for m_s, _ in m_divergences(SLD, pairs)]
    return [(d - m_s, {"relative_entropy": d, "m_path_sld": m_s}) for d, m_s in zip(ds, ms)]


@_register(
    "sandwich-pvm-achieves-s-divergence", dims=(2, 3, 4), trials=201, tolerance=1e-8, mode="equality", batched=True
)
def _sandwich_equality(dim: int, seeds: list[int]):
    pairs = _pairs(dim, seeds)
    out = []
    # the closed forms keep each pair's sandwich operator, whose spectral PVM sandwich_pvm reads
    for (rho, sigma), target in zip(pairs, e_divergences_closed(GeodesicKind.SLD, pairs)):
        pvm = sandwich_pvm(rho, sigma)
        induced = classical_kl(measure(rho, pvm), measure(sigma, pvm))
        out.append((abs(induced - target), {"induced_kl": induced, "e_path_s": target}))
    return out


def _commutation_trial(kind: GeodesicKind) -> _TrialFn:
    def trial(dim: int, seed: int) -> tuple[float, dict]:
        sigma = random_density(RandomSpec(dim, derive_seed(seed, "base"), _FLOOR))
        l1 = random_direction(dim, derive_seed(seed, "dir1"))
        l2 = random_direction(dim, derive_seed(seed, "dir2"))
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "theta")))
        theta1, theta2 = rng.uniform(-1.0, 1.0, size=2)
        defect = transport_commutation_defect(kind, sigma, l1, l2, theta1, theta2)
        return defect, {"theta1": float(theta1), "theta2": float(theta2)}

    return trial


_register("transport-commutation-bogoljubov", dims=(2, 3), trials=100, tolerance=1e-8, mode="equality")(
    _commutation_trial(GeodesicKind.BOGOLJUBOV)
)
_register("transport-commutation-counterexample-s", dims=(2,), trials=60, tolerance=1e-3, mode="counterexample")(
    _commutation_trial(GeodesicKind.SLD)
)
_register("transport-commutation-counterexample-r", dims=(2,), trials=60, tolerance=1e-3, mode="counterexample")(
    _commutation_trial(GeodesicKind.RLD)
)


def _gap_trial(path_divergences: Callable[[list], list[float]], above: bool) -> _BatchFn:
    """The gap between D and a path divergence that lies ``above`` it (the
    path divergence minus D) or below it (D minus the path divergence);
    ``path_divergences`` maps a list of pairs to their values."""

    def batch(dim: int, seeds: list[int]) -> list[tuple[float, dict]]:
        pairs = _pairs(dim, seeds)
        ds = relative_entropies(pairs)
        return [((value - d if above else d - value), {}) for d, value in zip(ds, path_divergences(pairs))]

    return batch


def _e_closed_each(kind: GeodesicKind) -> Callable[[list], list[float]]:
    return lambda pairs: e_divergences_closed(kind, pairs)


def _m_each(kind: metrics.MetricKind) -> Callable[[list], list[float]]:
    return lambda pairs: [value for value, _ in m_divergences(kind, pairs)]


for _claim_id, _path_divergences, _above in (
    ("e-path-gap-counterexample-s", _e_closed_each(GeodesicKind.SLD), False),
    ("e-path-gap-counterexample-r", _e_closed_each(GeodesicKind.RLD), True),
    ("m-path-gap-counterexample-s", _m_each(SLD), False),
    ("m-path-gap-counterexample-r", _m_each(RLD), True),
):
    _register(_claim_id, dims=(2, 3), trials=60, tolerance=1e-3, mode="counterexample", batched=True)(
        _gap_trial(_path_divergences, _above)
    )


@_register("potential-duality-bogoljubov", dims=(2,), trials=25, tolerance=1e-6, mode="equality")
def _potential_duality(dim: int, seed: int):
    family = QuantumExponentialFamily(dim)
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = rng.uniform(-0.8, 0.8, size=family.k)
    theta_bar = rng.uniform(-0.8, 0.8, size=family.k)
    rho_bar = family.state(theta_bar)
    rho = family.state(theta)
    mu_model = family.model()
    d = quantum_relative_entropy(rho_bar, rho)
    natural_defect = abs(d - bregman_divergence(mu_model, theta_bar, theta))
    box = np.array([[-3.0, 3.0]] * family.k)
    nu_model = legendre_model(mu_model, box)
    eta = family.mixture_coordinates(rho)
    eta_bar = family.mixture_coordinates(rho_bar)
    m_b = m_divergence(BOGOLJUBOV, rho_bar, rho)
    mixture_defect = abs(m_b - bregman_divergence(nu_model, eta, eta_bar))
    entropy_defect = abs(
        nu_model.value(eta) - (np.log(family.dim) - von_neumann_entropy(rho))
    )
    worst = max(natural_defect, mixture_defect, entropy_defect)
    return worst, {
        "natural_defect": natural_defect,
        "mixture_defect": mixture_defect,
        "entropy_defect": entropy_defect,
    }


@_register("classical-mixture-path-integral", dims=(2, 3, 4, 5), trials=100, tolerance=1e-6, mode="equality")
def _classical_mixture(dim: int, seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = rng.dirichlet(np.ones(dim)) * 0.9 + 0.1 / dim
    q = rng.dirichlet(np.ones(dim)) * 0.9 + 0.1 / dim

    def weighted_info(t: np.ndarray) -> np.ndarray:
        mix = (1.0 - t)[:, None] * p + t[:, None] * q
        return t * np.sum((q - p) ** 2 / mix, axis=1)

    integral, _ = adaptive_gauss_legendre(weighted_info)
    return abs(integral - classical_kl(p, q)), {"kl": classical_kl(p, q)}


def _random_classical_family(seed: int, alphabet: int, k: int = 2):
    rng = np.random.Generator(np.random.PCG64(seed))
    base = rng.dirichlet(np.ones(alphabet)) * 0.9 + 0.1 / alphabet
    features = rng.uniform(-1.0, 1.0, size=(k, alphabet))
    return ExponentialFamily(base=base, features=features), rng


@_register("classical-legendre-duality", dims=(3,), trials=50, tolerance=1e-6, mode="equality")
def _classical_duality(dim: int, seed: int):
    family, rng = _random_classical_family(seed, dim)
    theta = rng.uniform(-1.0, 1.0, size=family.dim)
    theta_bar = rng.uniform(-1.0, 1.0, size=family.dim)
    model = family.model()
    primal = bregman_divergence(model, theta_bar, theta)
    box = np.array([[-5.0, 5.0]] * family.dim)
    nu = legendre_model(model, box)
    dual = bregman_divergence(nu, family.mean_parameters(theta), family.mean_parameters(theta_bar))
    return abs(primal - dual), {"primal": primal, "dual": dual}


@_register("exponential-family-bregman-matches-kl", dims=(3,), trials=100, tolerance=1e-8, mode="equality")
def _exp_family_kl(dim: int, seed: int):
    family, rng = _random_classical_family(seed, dim)
    theta = rng.uniform(-1.0, 1.0, size=family.dim)
    theta_bar = rng.uniform(-1.0, 1.0, size=family.dim)
    via_model = bregman_divergence(family.model(), theta_bar, theta)
    via_kl = classical_kl(family.distribution(theta_bar), family.distribution(theta))
    return abs(via_model - via_kl), {"kl": via_kl}


@_register("commuting-reduction", dims=(2, 3, 4), trials=100, tolerance=1e-10, mode="equality", batched=True)
def _commuting_reduction(dim: int, seeds: list[int]):
    pairs, kls = [], []
    for seed in seeds:
        rho, sigma = random_commuting_pair(dim, seed, _FLOOR)
        # simultaneous eigenbasis from a generic combination (spectra stay matched)
        eig = eig_hermitian(rho.matrix + 0.618 * sigma.matrix)
        u = eig.eigenvectors
        p = np.diagonal(u.conj().T @ rho.matrix @ u).real
        q = np.diagonal(u.conj().T @ sigma.matrix @ u).real
        kls.append(classical_kl(p, q))
        pairs.append((rho, sigma))
    closed = [relative_entropies(pairs), bs_divergences(pairs)]
    closed += [e_divergences_closed(kind, pairs) for kind in _GEODESIC_KINDS]
    out = []
    for k, (kl, rows) in enumerate(zip(kls, m_divergences(_METRIC_KINDS, pairs, _TIGHT_QUADRATURE))):
        worst = max(abs(v - kl) for v in [values[k] for values in closed] + [value for value, _ in rows])
        out.append((worst, {"classical_kl": kl}))
    return out


_NEAR_BOUNDARY_FLOORS = (1e-4, 1e-6, 1e-8, 1e-10)


def _pinned(base: DensityMatrix, floor: float) -> DensityMatrix:
    """base with its smallest eigenvalue pinned at ``floor`` and the others
    scaled to keep the trace, in base's eigenbasis."""
    w = base.eig.eigenvalues
    return _state_in_basis(base.eig.eigenvectors, np.concatenate([[floor], w[1:] * ((1.0 - floor) / w[1:].sum())]))


@_register("near-boundary-commuting-reduction", dims=(2, 4, 16), trials=18, tolerance=1e-9, mode="equality")
def _near_boundary(dim: int, seed: int):
    # every trial runs all floors; the smallest eigenvalue of rho is pinned at
    # the floor in the shared eigenbasis (random_commuting_pair's floor only lifts)
    base, sigma = random_commuting_pair(dim, seed, _FLOOR)
    u = base.eig.eigenvectors
    q = np.diagonal(u.conj().T @ sigma.matrix @ u).real
    defects = []
    for floor in _NEAR_BOUNDARY_FLOORS:
        rho = _pinned(base, floor)
        kl = classical_kl(np.diagonal(u.conj().T @ rho.matrix @ u).real, q)
        values = [value for value, _ in m_divergence_detail(_METRIC_KINDS, rho, sigma)]
        for kind in _GEODESIC_KINDS:
            values += [e_divergence_quadrature(kind, rho, sigma), e_divergence_closed(kind, rho, sigma)]
        defects.append(float(np.max(np.abs(np.array(values) - kl))) / max(1.0, kl))
    worst = int(np.argmax(defects))  # a NaN defect is the first maximum
    return defects[worst], {"floor": _NEAR_BOUNDARY_FLOORS[worst]}


@_register(
    "moment-curvature-matches-fisher-info", dims=(2, 3), trials=80, tolerance=1e-5, mode="equality", batched=True
)
@_pair_trials
def _moment_curvature(seed: int, rho: DensityMatrix, sigma: DensityMatrix):
    kind = _GEODESIC_KINDS[seed % 4]
    geo = solve_direction(kind, rho, sigma)
    mf = geo.moment
    thetas = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = 0.0
    for theta, curvature in zip(thetas, mf.derivative(np.array(thetas), 2)):
        info = fisher_info_numeric(mf.state, theta, kind.metric)
        worst = max(worst, abs(float(curvature) - info))
    return worst, {"kind": kind.value}


@_register("numeric-fisher-matches-mixture", dims=(2, 3), trials=100, tolerance=1e-6, mode="equality", batched=True)
@_pair_trials
def _numeric_fisher(seed: int, rho: DensityMatrix, sigma: DensityMatrix):
    kind = _METRIC_KINDS[seed % 4]
    worst = 0.0
    for t in (0.2, 0.5, 0.8):
        numeric = fisher_info_numeric(lambda u: m_geodesic(rho, sigma, u), t, kind)
        exact = fisher_info_mixture(rho, sigma, kind, t)
        worst = max(worst, abs(numeric - exact))
    return worst, {"kind": kind.label()}


# --------------------------------------------------------------------------
# suites, config, reports
# --------------------------------------------------------------------------


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


_OVERRIDE_FIELDS = {"dims": lambda v: tuple(map(_integer, v)), "trials": _integer, "tolerance": _number}


def _apply_override(spec: ClaimSpec, entry: dict) -> ClaimSpec:
    """``spec`` with the trials, tolerance and dims that ``entry`` sets."""
    if not isinstance(entry, dict) or set(entry) - set(_OVERRIDE_FIELDS):
        raise ConfigError(f"override for {spec.id!r} may only set trials, tolerance, dims")
    try:
        changes = {key: _OVERRIDE_FIELDS[key](value) for key, value in entry.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"override for {spec.id!r} is malformed: {exc}") from exc
    return dataclasses.replace(spec, **changes)


@dataclass(frozen=True)
class HarnessConfig:
    seed: int = DEFAULT_GLOBAL_SEED
    claims: tuple[str, ...] | None = None
    overrides: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(obj: dict) -> "HarnessConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"config must be an object, got {type(obj).__name__}")
        allowed = {"seed", "claims", "overrides"}
        unknown = set(obj) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        seed = obj.get("seed", DEFAULT_GLOBAL_SEED)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        claims = obj.get("claims")
        if claims is not None:
            if not isinstance(claims, list) or not all(isinstance(c, str) for c in claims):
                raise ConfigError("claims must be a list of claim ids")
            for c in claims:
                if c not in _REGISTRY:
                    raise ConfigError(f"unknown claim id {c!r}")
            claims = tuple(claims)
        overrides = obj.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError("overrides must be an object keyed by claim id")
        for claim_id, entry in overrides.items():
            if claim_id not in _REGISTRY:
                raise ConfigError(f"override for unknown claim id {claim_id!r}")
            _apply_override(default_spec(claim_id), entry)
        return HarnessConfig(seed=seed, claims=claims, overrides=overrides)

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "claims": list(self.claims) if self.claims is not None else None,
                "overrides": self.overrides,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def resolved_spec(self, claim_id: str) -> ClaimSpec:
        return _apply_override(default_spec(claim_id), self.overrides.get(claim_id, {}))


@dataclass(frozen=True)
class VerificationReport:
    global_seed: int
    config_hash: str
    records: tuple[ClaimRecord, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "global_seed": self.global_seed,
            "config_hash": self.config_hash,
            "all_pass": self.all_pass,
            "claims": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_all(
    config: HarnessConfig | None = None, on_claim: Callable[[ClaimRecord, float], None] | None = None
) -> VerificationReport:
    """Run the registered claim list (optionally filtered) into a report.
    ``on_claim`` gets each record and its wall seconds as that claim ends;
    the timings stay out of the report."""
    config = config or HarnessConfig()
    ids = config.claims if config.claims is not None else registered_claims()
    records = []
    for cid in ids:
        start = time.perf_counter()
        record = run_claim(cid, config.seed, config.resolved_spec(cid))
        if on_claim is not None:
            on_claim(record, time.perf_counter() - start)
        records.append(record)
    return VerificationReport(
        global_seed=config.seed,
        config_hash=config.config_hash(),
        records=tuple(records),
    )
