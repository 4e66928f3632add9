import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qpathdiv import serialize
from qpathdiv.cli import build_parser, main
from qpathdiv.harness import HarnessConfig, run_all
from qpathdiv.linalg import hermitian_part
from qpathdiv.states import RandomSpec, random_commuting_pair, random_density, validate_density

FIXTURES = Path(__file__).parent / "fixtures"
RHO_FIXTURE = str(FIXTURES / "rho_2x2_seed42.json")
SIGMA_FIXTURE = str(FIXTURES / "sigma_2x2_seed42.json")


def _write_state(path, dm):
    serialize.save_state(path, dm)
    return str(path)


def _rows_from_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_compute_identical_states_all_zero(tmp_path, capsys):
    path = _write_state(tmp_path / "a.json", random_density(RandomSpec(2, 3, 0.05)))
    assert main(["compute", path, path]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 10
    assert all(abs(float(r["value"])) <= 1e-9 for r in rows)


def test_compute_commuting_pair_all_equal(tmp_path, capsys):
    rho, sigma = random_commuting_pair(2, 5, 0.05)
    pa = _write_state(tmp_path / "rho.json", rho)
    pb = _write_state(tmp_path / "sigma.json", sigma)
    assert main(["compute", pa, pb]) == 0
    values = [float(r["value"]) for r in _rows_from_csv(capsys.readouterr().out)]
    assert max(values) - min(values) <= 1e-10


def test_compute_fixture_ordering(capsys):
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE]) == 0
    rows = {r["id"]: float(r["value"]) for r in _rows_from_csv(capsys.readouterr().out)}
    assert rows["e_s"] <= rows["D"] + 1e-9
    assert rows["D"] <= rows["Dbar"] + 1e-9
    assert rows["e_b"] == pytest.approx(rows["D"], abs=1e-12)
    assert rows["m_r"] == pytest.approx(rows["Dbar"], abs=1e-6)


def test_compute_json_format_and_bits(capsys):
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE, "--format", "json", "--bits"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unit"] == "bits"
    by_id = {r["id"]: r for r in payload["rows"]}
    assert by_id["m_s"]["method"] == "quadrature"
    assert by_id["m_s"]["nodes"] in (57, 113, 225, 449)  # a cumulative level count
    assert by_id["D"]["method"] == "closed"


def test_compute_bits_scaling(capsys):
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE]) == 0
    nats = {r["id"]: float(r["value"]) for r in _rows_from_csv(capsys.readouterr().out)}
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE, "--bits"]) == 0
    bits = {r["id"]: float(r["value"]) for r in _rows_from_csv(capsys.readouterr().out)}
    assert bits["D"] == pytest.approx(nats["D"] / np.log(2.0), rel=1e-12)


def test_compute_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "re": [[0.6, 0], [0, 0.6]], "im": [[0, 0], [0, 0]]}))
    assert main(["compute", str(bad), RHO_FIXTURE]) == 2
    assert "TraceNotOne" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [2.7, 2.0, "2", True], ids=["float", "integral-float", "string", "bool"])
def test_compute_rejects_a_dim_that_is_not_a_json_integer(tmp_path, capsys, dim):
    obj = json.loads(Path(RHO_FIXTURE).read_text())
    obj["dim"] = dim
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["compute", str(bad), SIGMA_FIXTURE]) == 2
    assert f"InvalidShape: dim must be a JSON integer, got {dim!r}" in capsys.readouterr().err


def test_compute_missing_file_exit_code(capsys):
    assert main(["compute", "does-not-exist.json", RHO_FIXTURE]) == 2


@pytest.mark.parametrize("rel_tol", ["nan", "inf"])
def test_compute_rejects_a_non_finite_rel_tol(capsys, rel_tol):
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE, "--rel-tol", rel_tol]) == 2
    assert f"DomainError: rel_tol must be finite and positive, got {rel_tol}" in capsys.readouterr().err


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    args = ["compute", RHO_FIXTURE, SIGMA_FIXTURE, "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([*args[:3], "--format", "xml"])
    assert exc.value.code == 2
    assert main(["compute", "does-not-exist.json", RHO_FIXTURE]) == 2
    assert main(args) == 0
    # the top-level parser and its four subcommands, each built once
    assert len(built) == 5
    assert capsys.readouterr().out == first


def _pinned(state, floor):
    """``state`` with its smallest eigenvalue set to ``floor`` (renormalised)."""
    w, u = state.eig.eigenvalues.copy(), state.eig.eigenvectors
    w[0] = floor
    return validate_density(hermitian_part((u * (w / w.sum())) @ u.conj().T))


def test_compute_numerical_exit_code(tmp_path, capsys):
    # sigma with an eigenvalue at 1e-12: the boundary layer at t = 1 is
    # narrower than the spacing of floats below 1, so no estimate settles
    rho, sigma = random_commuting_pair(2, 1, 0.05)
    sigma = _pinned(sigma, 1e-12)
    argv = ["compute", _write_state(tmp_path / "rho.json", rho), _write_state(tmp_path / "sigma.json", sigma)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "QuadratureNotConverged" in err
    for kind in ("s", "b", "r", "half"):
        assert re.search(f"m_{kind}: estimates still differ by \\S+ at 449 nodes", err), err


def test_compute_m_path_matches_kl_near_the_boundary(tmp_path, capsys):
    # a commuting pair with one eigenvalue of rho at 1e-8: every m-path
    # kind resolves the boundary layer at t = 0 and equals the classical KL
    rho, sigma = random_commuting_pair(2, 1, 1e-8)
    rho = _pinned(rho, 1e-8)
    u = rho.eig.eigenvectors
    p, q = (np.diagonal(u.conj().T @ s.matrix @ u).real for s in (rho, sigma))
    kl = float(np.sum(p * np.log(p / q)))
    argv = ["compute", _write_state(tmp_path / "rho.json", rho), _write_state(tmp_path / "sigma.json", sigma)]
    assert main(argv) == 0
    rows = {r["id"]: float(r["value"]) for r in _rows_from_csv(capsys.readouterr().out)}
    for kind in ("s", "b", "r", "half"):
        assert abs(rows[f"m_{kind}"] - kl) <= 1e-9, kind


def test_compute_nodes_beyond_half_of_512(capsys):
    # 300 nodes start at the 449-node level, and the next level must fit
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE, "--nodes", "300", "--format", "json"]) == 0
    assert {r["nodes"] for r in json.loads(capsys.readouterr().out)["rows"]} == {None, 449}


def test_compute_output_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE, "--output", str(out)]) == 0
    assert out.read_text().startswith("id,value,method,nodes")


def test_compute_deterministic(capsys):
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE]) == 0
    first = capsys.readouterr().out
    assert main(["compute", RHO_FIXTURE, SIGMA_FIXTURE]) == 0
    assert capsys.readouterr().out == first


def test_geodesic_single_point(capsys):
    assert main(["geodesic", RHO_FIXTURE, "--kind", "b", "--target", SIGMA_FIXTURE, "--thetas", "0"]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 1
    assert abs(float(rows[0]["moment"])) <= 1e-12
    base = serialize.load_state(RHO_FIXTURE)
    spectrum = np.sort(base.spectrum())
    assert float(rows[0]["eig_min"]) == pytest.approx(spectrum[0], abs=1e-12)
    assert float(rows[0]["eig_max"]) == pytest.approx(spectrum[-1], abs=1e-12)


def test_geodesic_convexity_column(capsys):
    assert main(
        ["geodesic", SIGMA_FIXTURE, "--kind", "s", "--target", RHO_FIXTURE, "--thetas", "0:1:9"]
    ) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 9
    assert all(float(r["moment_d2"]) >= -1e-8 for r in rows)


def test_geodesic_target_mode_reaches_target(capsys):
    assert main(
        ["geodesic", SIGMA_FIXTURE, "--kind", "half", "--target", RHO_FIXTURE, "--thetas", "1"]
    ) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    target = serialize.load_state(RHO_FIXTURE)
    spectrum = np.sort(target.spectrum())
    assert float(rows[0]["eig_min"]) == pytest.approx(spectrum[0], abs=1e-8)
    assert float(rows[0]["eig_max"]) == pytest.approx(spectrum[-1], abs=1e-8)


def test_geodesic_direction_mode(tmp_path, capsys):
    direction = tmp_path / "dir.json"
    serialize.save_matrix(direction, np.array([[0, 1], [1, 0]], dtype=complex))
    assert main(
        ["geodesic", RHO_FIXTURE, "--kind", "r", "--direction", str(direction), "--thetas", "0,0.5,1"]
    ) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 3


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_geodesic_rejects_a_non_finite_direction(tmp_path, capsys, bad):
    direction = tmp_path / "dir.json"
    direction.write_text(f'{{"dim": 2, "re": [[0, {bad}], [{bad}, 0]], "im": [[0, 0], [0, 0]]}}')
    assert main(["geodesic", RHO_FIXTURE, "--kind", "s", "--direction", str(direction)]) == 2
    assert "NotHermitian: direction has non-finite entries" in capsys.readouterr().err


def test_fisher_grid(capsys):
    for metric in ("b", "half"):
        assert main(["fisher", RHO_FIXTURE, SIGMA_FIXTURE, "--metric", metric, "--points", "0.2,0.5,0.8"]) == 0
        rows = _rows_from_csv(capsys.readouterr().out)
        assert len(rows) == 3
        for r in rows:
            assert float(r["fisher_mixture"]) >= 0
            assert abs(float(r["fisher_mixture"]) - float(r["fisher_numeric"])) <= 1e-6


def test_fisher_lambda_metric(capsys):
    assert main(["fisher", RHO_FIXTURE, SIGMA_FIXTURE, "--metric", "lambda=0.5", "--points", "0.5"]) == 0
    rows = _rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 1


def test_fisher_refuses_a_point_the_finite_difference_leaves(capsys, monkeypatch):
    from qpathdiv import metrics

    computed = []
    monkeypatch.setattr(metrics, "fisher_info_mixture", lambda *args: computed.append(args))
    # the stencil at t takes the segment at t +- 1e-4, so 0 and 1 would name -5e-05 and 1.00005
    for points, bad in (("0,0.5,1", "0.0"), ("0.5,1", "1.0"), ("0.5,0.99995", "0.99995"), ("0:1:3", "0.0")):
        assert main(["fisher", RHO_FIXTURE, SIGMA_FIXTURE, "--points", points]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not computed
        assert err == f"error: ValidationError: point {bad} is outside [0.0001, 0.9999], the finite-difference range\n"
    monkeypatch.undo()
    assert main(["fisher", RHO_FIXTURE, SIGMA_FIXTURE, "--points", "1e-4,0.9999"]) == 0
    assert [r["t"] for r in _rows_from_csv(capsys.readouterr().out)] == ["0.0001", "0.9999"]


def test_fisher_bad_metric(capsys):
    assert main(["fisher", RHO_FIXTURE, SIGMA_FIXTURE, "--metric", "zeta"]) == 2
    assert main(["fisher", RHO_FIXTURE, SIGMA_FIXTURE, "--metric", "lambda=abc"]) == 2


def test_geodesic_bad_grid(capsys):
    assert main(
        ["geodesic", RHO_FIXTURE, "--kind", "b", "--target", SIGMA_FIXTURE, "--thetas", "x,y"]
    ) == 2


@pytest.mark.parametrize(
    "grid, named",
    [
        ("nan", "non-finite value nan"),
        ("0,inf", "non-finite value inf"),
        ("0:-inf:3", "non-finite value -inf"),
        (",", "no values"),
        ("0:1:0", "no values"),
        ("0:1:-2", "cannot parse grid"),
    ],
)
def test_geodesic_rejects_non_finite_or_empty_grid(capsys, grid, named):
    args = ["geodesic", RHO_FIXTURE, "--kind", "b", "--target", SIGMA_FIXTURE, "--thetas", grid]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "ValidationError" in err and named in err


def test_verify_single_claim(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--claims",
            "relative-entropy-closed-form",
            "--seed",
            "7",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS relative-entropy-closed-form" in out
    payload = json.loads(report_path.read_text())
    assert payload["all_pass"] is True
    assert len(payload["claims"]) == 1


def test_verify_prints_each_claims_seconds_on_stderr(tmp_path, capsys):
    claims = ["e-path-additivity", "exponential-family-bregman-matches-kl"]
    config = {"seed": 3, "overrides": {claim: {"trials": 4} for claim in claims}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    args = ["verify", "--config", str(config_path), "--claims", ",".join(claims), "--report", str(report_path)]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert [line.split()[:2] for line in captured.out.splitlines()] == [["PASS", claim] for claim in claims]
    timed = [re.fullmatch(r"(\S+) \d+\.\d\ds", line) for line in captured.err.splitlines()]
    assert [m.group(1) for m in timed] == claims
    # the timings stay out of the report
    expected = run_all(HarnessConfig(seed=3, claims=tuple(claims), overrides=config["overrides"]))
    assert report_path.read_text() == expected.to_json()


def test_verify_rejects_a_negative_seed(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--seed", "-1", "--report", str(report_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: ConfigError: seed must be a nonnegative integer, got -1\n"
    assert captured.out == "" and not report_path.exists()


def test_verify_injected_failure(tmp_path, capsys):
    # the counterexample threshold 10 lies above every gap D - m_s at the
    # 0.05 floor (D <= log 20 there), so the claim fails by a wide margin
    config = {
        "seed": 7,
        "claims": ["m-path-gap-counterexample-s"],
        "overrides": {"m-path-gap-counterexample-s": {"tolerance": 10.0, "trials": 4}},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(config_path), "--report", str(report_path)]) == 4
    payload = json.loads(report_path.read_text())
    assert payload["all_pass"] is False
    record = payload["claims"][0]
    assert 0.0 < record["worst_slack"] <= math.log(20.0)
    assert record["witness"]


def test_verify_bad_config(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 7, "bogus": True}))
    assert main(["verify", "--config", str(config_path)]) == 2
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, flags",
    [
        (None, ["--seed", "-1"]),
        (None, ["--seed", "-1", "--claims", "e-path-additivity"]),
        ({"seed": True}, []),
        ([1, 2], ["--seed", "3"]),
    ],
    ids=["negative-seed", "negative-seed-with-claims", "boolean-seed", "config-not-an-object"],
)
def test_verify_rejects_bad_seed_or_config(tmp_path, capsys, config, flags):
    args = ["verify", *flags]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        args += ["--config", str(config_path)]
    assert main(args) == 2
    assert "ConfigError" in capsys.readouterr().err


def test_verify_dim_one_override_exit_code(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"overrides": {"potential-duality-bogoljubov": {"dims": [1], "trials": 1}}})
    )
    args = ["verify", "--claims", "potential-duality-bogoljubov", "--config", str(config_path)]
    assert main(args) == 2
    assert "InvalidShape" in capsys.readouterr().err


def test_verify_dim_one_direction_override_exit_code(tmp_path, capsys):
    claim = "transport-commutation-bogoljubov"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"overrides": {claim: {"dims": [1], "trials": 1}}}))
    assert main(["verify", "--claims", claim, "--config", str(config_path)]) == 2
    assert "InvalidShape: a unit traceless direction needs dim >= 2, got dim 1" in capsys.readouterr().err


def test_verify_legendre_alphabet_of_two_override_exit_code(tmp_path, capsys):
    claim = "classical-legendre-duality"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"overrides": {claim: {"dims": [2]}}}))
    assert main(["verify", "--claims", claim, "--config", str(config_path)]) == 2
    assert "InvalidShape: classical Legendre duality needs an alphabet of at least 3, got dim 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        {"trials": "abc"}, {"dims": []}, {"tolerance": "x"},
        {"trials": 1.9}, {"trials": True}, {"trials": "12"}, {"dims": [2.9]},
        {"tolerance": "1e-3"}, {"tolerance": True},
    ],
)
def test_verify_malformed_override_exit_code(tmp_path, capsys, entry):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"overrides": {"e-path-additivity": entry}}))
    assert main(["verify", "--config", str(config_path)]) == 2
    assert "ConfigError" in capsys.readouterr().err


def test_verify_rejects_an_infinite_tolerance(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"overrides": {"e-path-additivity": {"tolerance": math.inf}}}))
    assert main(["verify", "--claims", "e-path-additivity", "--config", str(config_path)]) == 2
    assert "tolerance must be finite and > 0, got inf" in capsys.readouterr().err


def test_verify_report_deterministic(tmp_path):
    args = [
        "verify",
        "--claims",
        "e-path-additivity",
        "--seed",
        "3",
    ]
    config = {
        "seed": 3,
        "claims": ["e-path-additivity"],
        "overrides": {"e-path-additivity": {"trials": 4}},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--config", str(config_path), "--report", str(a)]) == 0
    assert main(["verify", "--config", str(config_path), "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
