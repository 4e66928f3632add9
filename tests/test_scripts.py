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

