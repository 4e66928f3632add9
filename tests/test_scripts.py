import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def test_gap_profile_writes_one_row_per_sample(tmp_path, monkeypatch):
    out = tmp_path / "gaps.csv"
    assert _run_script(monkeypatch, "gap_profile.py", "--samples", "3", "--output", str(out)) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "commutation_defect,D,gap_low,gap_high,m_spread"
    assert len(rows) == 3
    for row in rows:
        _, d, gap_low, gap_high, _ = (float(x) for x in row.split(","))
        assert d >= 0 and gap_low >= -1e-8 and gap_high >= -1e-8


def test_run_verification_writes_report(tmp_path, monkeypatch, capsys):
    report = tmp_path / "report.json"
    claim = "exponential-family-bregman-matches-kl"
    assert _run_script(monkeypatch, "run_verification.py", "--claims", claim, "--report", str(report)) == 0
    assert f"PASS {claim}" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["all_pass"] is True
    assert [record["claim_id"] for record in payload["claims"]] == [claim]


def test_run_verification_rejects_a_negative_seed(tmp_path, monkeypatch, capsys):
    report = tmp_path / "report.json"
    assert _run_script(monkeypatch, "run_verification.py", "--seed", "-1", "--report", str(report)) == 2
    assert "ConfigError: seed must be a nonnegative integer" in capsys.readouterr().err
    assert not report.exists()
