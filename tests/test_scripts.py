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



def test_replay_witnesses_checks_every_witness_bitwise(tmp_path, monkeypatch, capsys):
    import json

    from qpathdiv import harness
    from qpathdiv.errors import QuadratureNotConverged

    def refused(dim, seeds):
        raise QuadratureNotConverged("m_s: estimates still differ")

    spec = harness.ClaimSpec("refused-probe", (2,), 2, 1e-6, "equality")
    monkeypatch.setitem(harness._REGISTRY, "refused-probe", (spec, refused, None))
    claims = ["m-path-gap-counterexample-s", "rld-identity-e-m-bs", "refused-probe"]
    config = harness.HarnessConfig(seed=3, claims=tuple(claims), overrides={c: {"trials": 4} for c in claims[:2]})
    report = json.loads(harness.run_all(config).to_json())
    assert report["claims"][2]["witness"]["error"] == "QuadratureNotConverged: m_s: estimates still differ"
    path = tmp_path / "report.json"

    def replayed(claims):
        path.write_text(json.dumps({**report, "claims": claims}))
        return _run_script(monkeypatch, "replay_witnesses.py", str(path))

    assert replayed(report["claims"]) == 0
    assert "3 of 3 witnesses replay" in capsys.readouterr().out
    first, second, third = (json.loads(json.dumps(c)) for c in report["claims"])
    first["witness"]["measure"] *= 1 + 2**-52  # one unit in the last place
    third["witness"]["error"] = "QuadratureNotConverged: another defect"
    assert replayed([first, second, third]) == 1
    err = capsys.readouterr().err
    assert "witness of m-path-gap-counterexample-s does not" in err and "witness of refused-probe does not" in err
    assert "rld-identity-e-m-bs" not in err


def test_benchmark_tracer_finds_every_traced_function():
    # perfbench/spans.py looks each traced name up with getattr and wraps the
    # quadrature by its parameters ``f`` and ``config``, so a renamed or
    # deleted name would crash every traced benchmark run
    import importlib
    import importlib.util
    import inspect

    from qpathdiv import divergences
    from qpathdiv.transport import MomentFunction

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, name in spans.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), name
    assert callable(MomentFunction.__call__)
    quadrature = getattr(divergences, "adaptive_gauss_legendre")
    assert {"f", "config"} <= set(inspect.signature(quadrature).parameters)
    value, nodes = quadrature(f=lambda t: 2.0 * t, config=divergences.QuadratureConfig())
    assert abs(value - 1.0) <= 1e-12 and nodes == 57
