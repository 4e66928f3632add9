import dataclasses
import json
import math

import pytest

from qpathdiv import harness
from qpathdiv.errors import ConfigError, UnknownClaim
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
    monkeypatch.setitem(harness._REGISTRY, "nan-probe", (spec, lambda dim, seed: (next(measures), {}), None))
    record = run_claim("nan-probe", 1)
    assert not record.passed
    assert math.isnan(record.worst_slack)
    assert record.witness["trial"] == 1


def test_legendre_duality_replays_stalled_seed():
    # at global seed 110 a box-clipped Newton step stalled at the grid corner
    spec = dataclasses.replace(default_spec("classical-legendre-duality"), trials=1)
    assert run_claim("classical-legendre-duality", 110, spec).passed


@pytest.mark.parametrize("claim", ["potential-duality-bogoljubov", "classical-legendre-duality"])
def test_legendre_dual_maximizes_once_per_point(monkeypatch, claim):
    from qpathdiv import divergences

    points = []
    maximize = divergences._maximize_dual

    def counted(model, eta, box):
        points.append(eta.tobytes())
        return maximize(model, eta, box)

    monkeypatch.setattr(divergences, "_maximize_dual", counted)
    spec = dataclasses.replace(default_spec(claim), trials=1)
    assert run_claim(claim, spec=spec).passed
    # value and gradient at eta share one run; eta_bar takes the other
    assert len(points) == len(set(points)) == 2


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
    config = _small_config(
        claims=["m-path-bogoljubov-matches-relative-entropy"],
        extra_overrides={"m-path-bogoljubov-matches-relative-entropy": {"tolerance": 1e-15}},
    )
    report = run_all(config)
    assert not report.all_pass
    assert report.records[0].worst_slack > 1e-15


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
