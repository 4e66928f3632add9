"""Command-line front end.

Subcommands:
  compute    divergence table between two state files
  geodesic   trace a closed-form curve: moment function, derivatives, spectrum
  fisher     Fisher information along the mixture segment of two states
  verify     run the randomized claim suite and write a report; each
             claim's wall seconds go to stderr as it ends

Exit codes: 0 ok, 2 validation/config error, 3 numerical failure,
4 claim failure. Values are nats unless --bits is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import divergences, harness, metrics, serialize, transport
from .errors import NumericalError, QPathDivError, ValidationError
from .transport import GeodesicKind

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
_EXIT_CLAIM_FAILURE = 4


def _parse_grid(text: str) -> list[float]:
    """A nonempty grid of finite values: a comma list or start:stop:count."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValidationError(f"grid must be start:stop:count, got {text!r}")
            given, count = [float(parts[0]), float(parts[1])], int(parts[2])
        else:
            given, count = [float(x) for x in text.split(",") if x.strip()], None
        for v in given:
            if not math.isfinite(v):
                raise ValidationError(f"grid {text!r} has the non-finite value {v}")
        values = given if count is None else list(np.linspace(given[0], given[1], count))
    except ValueError as exc:
        raise ValidationError(f"cannot parse grid {text!r}: {exc}") from exc
    if not values:
        raise ValidationError(f"grid {text!r} has no values")
    return values


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _format_value(v: float) -> str:
    return repr(float(v))


def _cmd_compute(args) -> int:
    rho = serialize.load_state(args.rho)
    sigma = serialize.load_state(args.sigma)
    config = divergences.QuadratureConfig(
        nodes=args.nodes, rel_tol=args.rel_tol, max_nodes=max(512, 4 * args.nodes)
    )
    unit = math.log(2.0) if args.bits else 1.0
    rows = [
        ("D", divergences.quantum_relative_entropy(rho, sigma), "closed", None),
        ("Dbar", divergences.bs_divergence(rho, sigma), "closed", None),
    ]
    for kind in GeodesicKind:
        value = divergences.e_divergence_closed(kind, rho, sigma)
        rows.append((f"e_{kind.value}", value, "closed", None))
    m_path = divergences.m_divergence_detail(tuple(kind.metric for kind in GeodesicKind), rho, sigma, config)
    for kind, (value, nodes) in zip(GeodesicKind, m_path):
        rows.append((f"m_{kind.value}", value, "quadrature", nodes))
    rows = [(name, value / unit, method, nodes) for name, value, method, nodes in rows]
    if args.format == "json":
        payload = {
            "unit": "bits" if args.bits else "nats",
            "rows": [
                {"id": name, "value": value, "method": method, "nodes": nodes}
                for name, value, method, nodes in rows
            ],
        }
        _emit([json.dumps(payload, indent=2)], args.output)
    else:
        lines = ["id,value,method,nodes"]
        for name, value, method, nodes in rows:
            lines.append(f"{name},{_format_value(value)},{method},{nodes if nodes else ''}")
        _emit(lines, args.output)
    return _EXIT_OK


def _cmd_geodesic(args) -> int:
    base = serialize.load_state(args.state)
    kind = GeodesicKind(args.kind)
    if args.target:
        target = serialize.load_state(args.target)
        geo = transport.solve_direction(kind, target, base)
    else:
        direction = serialize.load_matrix(args.direction)
        geo = transport.make_geodesic(kind, base, direction)
    mf = geo.moment
    thetas = _parse_grid(args.thetas)
    d1s, d2s = (mf.derivative(np.array(thetas), order) for order in (1, 2))
    lines = ["theta,moment,moment_d1,moment_d2,eig_min,eig_max"]
    for theta, d1, d2 in zip(thetas, d1s, d2s):
        state, mu = mf.state_and_moment(theta)
        spectrum = state.spectrum()
        lines.append(
            f"{_format_value(theta)},{_format_value(mu)},{_format_value(d1)},"
            f"{_format_value(d2)},{_format_value(spectrum.min())},{_format_value(spectrum.max())}"
        )
    _emit(lines, args.output)
    return _EXIT_OK


def _cmd_fisher(args) -> int:
    rho = serialize.load_state(args.rho)
    sigma = serialize.load_state(args.sigma)
    kind = metrics.metric_from_tag(args.metric)
    points = _parse_grid(args.points)
    h = metrics.FD_STEP  # fisher_numeric takes the segment at t +- h, so every point is checked first
    for t in points:
        if not h <= t <= 1.0 - h:
            raise ValidationError(f"point {float(t)!r} is outside [{h:g}, {1.0 - h:g}], the finite-difference range")
    lines = ["t,fisher_mixture,fisher_numeric"]
    for t in points:
        exact = metrics.fisher_info_mixture(rho, sigma, kind, t)
        numeric = metrics.fisher_info_numeric(
            lambda u: transport.m_geodesic(rho, sigma, u), t, kind
        )
        lines.append(f"{_format_value(t)},{_format_value(exact)},{_format_value(numeric)}")
    _emit(lines, args.output)
    return _EXIT_OK


def _print_claim_seconds(record: harness.ClaimRecord, seconds: float) -> None:
    print(f"{record.claim_id} {seconds:.2f}s", file=sys.stderr, flush=True)


def _cmd_verify(args) -> int:
    obj = json.loads(Path(args.config).read_text()) if args.config else {}
    # a config that is not an object reaches from_dict unchanged and is rejected there
    if isinstance(obj, dict):
        if args.seed is not None:
            obj["seed"] = args.seed
        if args.claims:
            obj["claims"] = [c.strip() for c in args.claims.split(",") if c.strip()]
    config = harness.HarnessConfig.from_dict(obj)
    report = harness.run_all(config, on_claim=_print_claim_seconds)
    for record in report.records:
        status = "PASS" if record.passed else "FAIL"
        print(f"{status} {record.claim_id} worst_slack={record.worst_slack:.3e} trials={record.trials}")
    if args.report:
        Path(args.report).write_text(report.to_json())
    else:
        sys.stdout.write(report.to_json())
    return _EXIT_OK if report.all_pass else _EXIT_CLAIM_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qpathdiv`` argument parser, built once per process: every
    ``main`` call shares it, so it holds nothing derived from inputs."""
    parser = argparse.ArgumentParser(
        prog="qpathdiv",
        description="Quantum divergences from information geometry: compute, trace, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="divergence table between two states")
    compute.add_argument("rho", help="state JSON file (first argument, t = 0 end)")
    compute.add_argument("sigma", help="state JSON file (second argument)")
    compute.add_argument(
        "--nodes", type=int, default=32, help="least nodes of the first quadrature estimate (32 gives 57)"
    )
    compute.add_argument("--rel-tol", type=float, default=1e-8, help="quadrature refinement tolerance")
    compute.add_argument("--format", choices=("json", "csv"), default="csv")
    compute.add_argument("--bits", action="store_true", help="report values in bits instead of nats")
    compute.add_argument("--output", help="write to a file instead of stdout")
    compute.set_defaults(func=_cmd_compute)

    geodesic = sub.add_parser("geodesic", help="trace a closed-form curve from a base state")
    geodesic.add_argument("state", help="base state JSON file")
    geodesic.add_argument("--kind", required=True, choices=[k.value for k in GeodesicKind])
    group = geodesic.add_mutually_exclusive_group(required=True)
    group.add_argument("--direction", help="Hermitian direction matrix JSON file")
    group.add_argument("--target", help="target state JSON file (direction is solved)")
    geodesic.add_argument("--thetas", default="0:1:11", help="comma list or start:stop:count")
    geodesic.add_argument("--output", help="write CSV to a file instead of stdout")
    geodesic.set_defaults(func=_cmd_geodesic)

    fisher = sub.add_parser("fisher", help="Fisher information along the mixture of two states")
    fisher.add_argument("rho", help="state JSON file at t = 0")
    fisher.add_argument("sigma", help="state JSON file at t = 1")
    fisher.add_argument("--metric", default="s", help="s|b|r|half|lambda=<x>")
    fisher.add_argument("--points", default="0.1:0.9:9", help="comma list or start:stop:count")
    fisher.add_argument("--output", help="write CSV to a file instead of stdout")
    fisher.set_defaults(func=_cmd_fisher)

    verify = sub.add_parser("verify", help="run the randomized claim suite")
    verify.add_argument("--config", help="JSON config: seed, claims, overrides")
    verify.add_argument("--seed", type=int, help="override the global seed")
    verify.add_argument("--claims", help="comma-separated claim ids to run")
    verify.add_argument("--report", help="write the report JSON to this path")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except QPathDivError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
