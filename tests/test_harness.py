import dataclasses
import json
import math

import numpy as np
import pytest

from qpathdiv import harness
from qpathdiv.errors import ConfigError, InvalidShape, QuadratureNotConverged, UnknownClaim
from qpathdiv.harness import (
    ClaimSpec,
    HarnessConfig,
    default_spec,
    derive_seed,
    registered_claims,
    replay_witness,
    run_all,
    run_claim,
)

SMALL = {"trials": 4}


def _small_config(claims=None, seed=7, extra_overrides=None):
    ids = list(claims) if claims is not None else list(registered_claims())
    overrides = {cid: dict(SMALL) for cid in ids}
    if extra_overrides:
        for cid, entry in extra_overrides.items():
            overrides.setdefault(cid, {}).update(entry)
    return HarnessConfig.from_dict({"seed": seed, "claims": ids, "overrides": overrides})


def test_registry_size():
    assert len(registered_claims()) >= 14


def test_derive_seed_stable():
    assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
    assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)
    assert 0 <= derive_seed("anything") < 2**63


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_pair_states_are_the_random_density_of_their_specs(dim):
    from qpathdiv.states import RandomSpec, random_density

    for seed, pair in enumerate(harness._pairs(dim, list(range(5)))):
        for name, state in zip(("rho", "sigma"), pair):
            alone = random_density(RandomSpec(dim, derive_seed(seed, name), harness._FLOOR))
            assert state.matrix.tobytes() == alone.matrix.tobytes()
            assert state.eig.eigenvalues.tobytes() == alone.eig.eigenvalues.tobytes()
            assert state.eig.eigenvectors.tobytes() == alone.eig.eigenvectors.tobytes()


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        run_claim("no-such-claim", 1)
    with pytest.raises(UnknownClaim):
        default_spec("no-such-claim")


def test_claim_spec_validation():
    with pytest.raises(ConfigError):
        ClaimSpec("x", (2,), 0, 1e-6, "equality")
    with pytest.raises(ConfigError):
        ClaimSpec("x", (2,), 5, 0.0, "equality")
    with pytest.raises(ConfigError):
        ClaimSpec("x", (2,), 5, 1e-6, "sideways")
    with pytest.raises(ConfigError):
        ClaimSpec("x", (), 5, 1e-6, "equality")


def test_run_claim_deterministic():
    spec = ClaimSpec("divergence-ordering-chain", (2,), 6, 1e-8, "inequality")
    a = run_claim("divergence-ordering-chain", 123, spec)
    b = run_claim("divergence-ordering-chain", 123, spec)
    assert a == b
    c = run_claim("divergence-ordering-chain", 124, spec)
    assert c.worst_slack != a.worst_slack


def test_equality_claim_passes_at_identical_states():
    # the identity claims have zero slack on rho = sigma instances by
    # construction; spot-check one record field layout instead
    record = run_claim(
        "relative-entropy-closed-form",
        99,
        ClaimSpec("relative-entropy-closed-form", (2,), 3, 1e-10, "equality"),
    )
    assert record.passed
    assert set(record.witness) >= {"trial", "dim", "seed", "measure"}


def test_witness_replays_exactly():
    for claim_id in (
        "divergence-ordering-chain",
        "transport-commutation-counterexample-s",
        "m-path-bogoljubov-matches-relative-entropy",
        "e-path-closed-vs-quadrature-b",
        "moment-curvature-matches-fisher-info",
    ):
        spec = default_spec(claim_id)
        record = run_claim(claim_id, 55, ClaimSpec(claim_id, spec.dims, 5, spec.tolerance, spec.mode))
        assert replay_witness(claim_id, record.witness) == record.witness["measure"]


def test_counterexample_mode_requires_large_defect():
    record = run_claim(
        "transport-commutation-counterexample-s",
        2,
        ClaimSpec("transport-commutation-counterexample-s", (2,), 8, 1e-3, "counterexample"),
    )
    assert record.passed
    assert record.worst_slack > 1e-3


@pytest.mark.parametrize("mode", ["equality", "inequality", "counterexample"])
def test_nan_measure_fails_claim(monkeypatch, mode):
    # trial 1 returns NaN between finite measures; it must be the witness
    measures = iter([1e-12, math.nan, 1e-12, math.nan])
    spec = ClaimSpec("nan-probe", (2,), 4, 1e-6, mode)
    batch = lambda dim, seeds: [(next(measures), {}) for _ in seeds]  # noqa: E731
    monkeypatch.setitem(harness._REGISTRY, "nan-probe", (spec, batch, None))
    record = run_claim("nan-probe", 1)
    assert not record.passed
    assert math.isnan(record.worst_slack)
    assert record.witness["trial"] == 1


def _raising_probe(monkeypatch, mode, error, extra_check=None):
    """Register ``raise-probe``, a batch function: a batch that holds trial 1
    raises ``error``, and trial t measures 1e-12 * (t + 1)."""
    measures = {derive_seed(1, "raise-probe", 2, t): 1e-12 * (t + 1) for t in range(4)}

    def batch(dim, seeds):
        if derive_seed(1, "raise-probe", 2, 1) in seeds:
            raise error
        return [(measures[seed], {"ok": True, "measure": measures[seed]}) for seed in seeds]

    spec = ClaimSpec("raise-probe", (2,), 4, 1e-6, mode)
    monkeypatch.setitem(harness._REGISTRY, "raise-probe", (spec, batch, extra_check))


@pytest.mark.parametrize("mode", ["equality", "inequality", "counterexample"])
def test_raising_trial_fails_claim(monkeypatch, mode):
    _raising_probe(monkeypatch, mode, QuadratureNotConverged("m_s: no agreement at 449 nodes"))
    record = run_claim("raise-probe", 1)
    assert not record.passed
    assert math.isnan(record.worst_slack)
    assert record.witness["trial"] == 1
    assert math.isnan(record.witness["measure"])
    assert record.witness["error"] == "QuadratureNotConverged: m_s: no agreement at 449 nodes"
    with pytest.raises(QuadratureNotConverged, match="no agreement at 449 nodes"):
        replay_witness("raise-probe", record.witness)


def test_raising_trial_in_a_batch_keeps_the_other_trials(monkeypatch):
    # the batch of four raises; run again one seed at a time, only trial 1 is refused
    seen = []

    def extra_check(spec, extras_list):
        seen.extend(extras_list)
        return True, {}

    _raising_probe(monkeypatch, "equality", QuadratureNotConverged("m_s of pair 1"), extra_check)
    record = run_claim("raise-probe", 1)
    assert [e["measure"] for e in seen] == [1e-12, 3e-12, 4e-12]
    assert record.witness["trial"] == 1
    assert record.witness["error"] == "QuadratureNotConverged: m_s of pair 1"


def test_raising_trial_is_reported_by_verify(monkeypatch, tmp_path, capsys):
    from qpathdiv.cli import main

    _raising_probe(monkeypatch, "equality", QuadratureNotConverged("m_s: no agreement at 449 nodes"))
    report = tmp_path / "report.json"
    assert main(["verify", "--claims", "raise-probe", "--seed", "1", "--report", str(report)]) == 4
    assert "FAIL raise-probe" in capsys.readouterr().out
    (record,) = json.loads(report.read_text())["claims"]
    assert record["witness"]["error"] == "QuadratureNotConverged: m_s: no agreement at 449 nodes"


def test_trial_bug_still_raises(monkeypatch):
    _raising_probe(monkeypatch, "equality", TypeError("a bug, not a refused input"))
    with pytest.raises(TypeError, match="a bug"):
        run_claim("raise-probe", 1)


def test_legendre_duality_replays_stalled_seed():
    # at global seed 110 a box-clipped Newton step stalled at the grid corner
    spec = dataclasses.replace(default_spec("classical-legendre-duality"), trials=1)
    assert run_claim("classical-legendre-duality", 110, spec).passed


def test_legendre_duality_refuses_an_alphabet_of_two():
    # two features on two letters are affinely dependent: a dim the claim cannot
    # take is a config error, not a failed claim with a NaN witness
    spec = dataclasses.replace(default_spec("classical-legendre-duality"), dims=(2,))
    with pytest.raises(InvalidShape, match="^classical Legendre duality needs an alphabet of at least 3, got dim 2$"):
        run_claim("classical-legendre-duality", spec=spec)


@pytest.mark.parametrize("claim", ["potential-duality-bogoljubov", "classical-legendre-duality"])
def test_legendre_dual_maximizes_once_per_point(monkeypatch, claim):
    from qpathdiv import divergences

    points = []
    maximize = divergences._maximize_duals

    def counted(model, etas, box):
        points.extend(row.tobytes() for row in np.reshape(etas, (-1, model.dim)))
        return maximize(model, etas, box)

    monkeypatch.setattr(divergences, "_maximize_duals", counted)
    spec = dataclasses.replace(default_spec(claim), trials=1)
    assert run_claim(claim, spec=spec).passed
    # value and gradient at eta share one run; eta_bar takes the other
    assert len(points) == len(set(points)) == 2


def test_potential_duality_passes_at_dims_3_and_4():
    claim_id = "potential-duality-bogoljubov"
    spec = dataclasses.replace(default_spec(claim_id), dims=(3, 4), trials=6)
    record = run_claim(claim_id, 5, spec)
    assert record.passed and record.dims == (3, 4)

def test_config_validation():
    with pytest.raises(ConfigError):
        HarnessConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        HarnessConfig.from_dict({"seed": -3})
    with pytest.raises(ConfigError):
        HarnessConfig.from_dict({"claims": ["missing-claim"]})
    with pytest.raises(ConfigError):
        HarnessConfig.from_dict({"overrides": {"missing-claim": {"trials": 2}}})
    with pytest.raises(ConfigError):
        HarnessConfig.from_dict(
            {"overrides": {"divergence-ordering-chain": {"wrong": 1}}}
        )
    malformed = (
        {"trials": "abc"}, {"dims": []}, {"tolerance": "x"},
        {"dims": 3}, {"dims": [0]}, {"trials": None}, {"tolerance": "nan"},
        {"trials": 1.9}, {"trials": True}, {"trials": "12"}, {"dims": [2.9]},
        {"tolerance": "1e-3"}, {"tolerance": True},
    )
    for entry in malformed:
        with pytest.raises(ConfigError):
            HarnessConfig.from_dict({"overrides": {"divergence-ordering-chain": entry}})


def test_run_all_filtered_single_claim():
    config = _small_config(claims=["relative-entropy-closed-form"])
    report = run_all(config)
    assert len(report.records) == 1
    assert report.records[0].claim_id == "relative-entropy-closed-form"
    assert report.all_pass


def test_report_json_byte_stable():
    config = _small_config(
        claims=["divergence-ordering-chain", "e-path-additivity", "classical-legendre-duality"]
    )
    first = run_all(config).to_json()
    second = run_all(config).to_json()
    assert first == second
    parsed = json.loads(first)
    assert set(parsed) == {"all_pass", "claims", "config_hash", "global_seed"}
    assert parsed["config_hash"] == config.config_hash()


def test_injected_bad_tolerance_fails():
    # a gap threshold no pair can reach: D(rho || sigma) <= -log min eig(sigma)
    # <= log 20 at the 0.05 floor, and the gap D - m_s is at most D
    config = _small_config(
        claims=["m-path-gap-counterexample-s"],
        extra_overrides={"m-path-gap-counterexample-s": {"tolerance": 10.0}},
    )
    report = run_all(config)
    assert not report.all_pass
    assert 0.0 < report.records[0].worst_slack <= math.log(20.0)
    assert report.records[0].witness


def test_theorem2_suite_small():
    # the equivalence suite: equalities for the Bogoljubov metric, gaps for kinds s and r
    claims = (
        "transport-commutation-bogoljubov",
        "transport-commutation-counterexample-s",
        "transport-commutation-counterexample-r",
        "e-path-closed-vs-quadrature-b",
        "m-path-bogoljubov-matches-relative-entropy",
        "e-path-gap-counterexample-s",
        "e-path-gap-counterexample-r",
        "m-path-gap-counterexample-s",
        "m-path-gap-counterexample-r",
        "potential-duality-bogoljubov",
    )
    overrides = {claim_id: {"dims": [2], "trials": 4} for claim_id in claims}
    records = run_all(HarnessConfig(seed=11, claims=claims, overrides=overrides)).records
    assert [r.claim_id for r in records] == list(claims)
    assert all(r.dims == (2,) and r.trials == 4 for r in records)
    assert all(r.passed for r in records)
    by_id = {r.claim_id: r for r in records}
    # equalities hold for the Bogoljubov metric ...
    assert by_id["transport-commutation-bogoljubov"].worst_slack <= 1e-8
    assert by_id["m-path-bogoljubov-matches-relative-entropy"].worst_slack <= 1e-6
    # ... and fail quantitatively for kinds s and r
    for claim_id in (
        "transport-commutation-counterexample-s",
        "transport-commutation-counterexample-r",
        "e-path-gap-counterexample-s",
        "e-path-gap-counterexample-r",
        "m-path-gap-counterexample-s",
        "m-path-gap-counterexample-r",
    ):
        assert by_id[claim_id].worst_slack > 1e-3


# every registered claim, so that a claim that is registered later is covered too
BATCHED_CLAIMS = registered_claims()
# e-path-additivity compares a divergence of qubit pairs with that of their
# two-qubit tensor products, so it runs on qubits only; the two features of
# classical-legendre-duality are affinely dependent on an alphabet of 2, which
# it refuses; the other claims run at dims 2, 3 and 4
_BATCH_DIMS = {"e-path-additivity": (2,), "classical-legendre-duality": (3, 4)}


@pytest.mark.parametrize(
    "claim_id, dim", [(claim_id, dim) for claim_id in BATCHED_CLAIMS for dim in _BATCH_DIMS.get(claim_id, (2, 3, 4))]
)
def test_batch_equals_batches_of_one_bitwise(claim_id, dim):
    # eight consecutive seeds take every m-path-monotonicity style, so a batch
    # mixes its dim-4 partial-trace pairs with pairs of the batch's dim
    _, batch, _ = harness._registered(claim_id)
    seeds = list(range(4000, 4008))
    together = batch(dim, seeds)
    assert len(together) == len(seeds)
    assert repr(together) == repr([batch(dim, [seed])[0] for seed in seeds])


def test_batches_hold_at_most_batch_trials(monkeypatch):
    claim_id = "rld-m-path-dominates"
    spec = dataclasses.replace(default_spec(claim_id), trials=14)
    whole = run_claim(claim_id, 3, spec)
    _, batch, _ = harness._registered(claim_id)
    sizes = []

    def counted(dim, seeds):
        sizes.append((dim, len(seeds)))
        return batch(dim, seeds)

    monkeypatch.setitem(harness._REGISTRY, claim_id, (default_spec(claim_id), counted, None))
    monkeypatch.setattr(harness, "_BATCH_TRIALS", 3)
    assert run_claim(claim_id, 3, spec) == whole
    # seven trials of each dim, in batches of 3, 3 and 1
    assert sizes == [(2, 3), (2, 3), (2, 1), (3, 3), (3, 3), (3, 1)]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_every_potential_duality_trial_measures_the_same_in_a_batch_and_alone(dim):
    claim_id = "potential-duality-bogoljubov"
    _, batch, _ = harness._registered(claim_id)
    seeds = [derive_seed(harness.DEFAULT_GLOBAL_SEED, claim_id, dim, t) for t in range(default_spec(claim_id).trials)]
    assert repr(batch(dim, seeds)) == repr([batch(dim, [seed])[0] for seed in seeds])


def test_a_potential_duality_batch_with_a_point_outside_its_box_reruns_one_seed_at_a_time(monkeypatch):
    from qpathdiv.errors import NotInRange

    claim_id = "potential-duality-bogoljubov"
    _, batch, _ = harness._registered(claim_id)
    legendre_model = harness.legendre_model
    # a box of [-0.7, 0.7]: the trials whose parameters all lie inside it pass, the others are refused
    monkeypatch.setattr(harness, "legendre_model", lambda model, box: legendre_model(model, box * 0.7 / 3.0))
    errors = {}
    for seed in range(5000, 5012):
        try:
            batch(2, [seed])
        except NotInRange as exc:
            errors[seed] = f"NotInRange: {exc}"
    refused = min(errors)
    passing = [seed for seed in range(5000, 5012) if seed not in errors][:4]
    seeds = passing[:2] + [refused] + passing[2:]
    assert len(seeds) == 5
    # the batch's 10 points are solved in one pass, and the first one out of range is named
    with pytest.raises(NotInRange, match=r" at point \d+ of 10 "):
        batch(2, seeds)
    results = harness._batch_results(batch, 2, seeds)
    assert [refused for _, _, refused in results] == [False, False, True, False, False]
    # the refused trial keeps the error of its own two points
    assert results[2][:2] == (pytest.approx(float("nan"), nan_ok=True), {"error": errors[refused]})
    assert " at point 0 of 2 " in errors[refused] or " at point 1 of 2 " in errors[refused]
    for seed, (value, extras, _) in zip(passing, results[:2] + results[3:]):
        assert repr((value, extras)) == repr(batch(2, [seed])[0])
