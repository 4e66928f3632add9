#!/usr/bin/env python3
"""Run the full randomized claim suite and write the report.

Equivalent to `qpathdiv verify --report report.json` but prints wall-clock
timing per claim, which is handy when tuning trial counts.
"""

import argparse
import sys
import time
from pathlib import Path

from qpathdiv import harness
from qpathdiv.errors import ConfigError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_GLOBAL_SEED)
    parser.add_argument("--report", default="report.json")
    parser.add_argument("--claims", help="comma-separated claim ids (default: all)")
    args = parser.parse_args()

    obj = {"seed": args.seed}
    if args.claims:
        obj["claims"] = [c.strip() for c in args.claims.split(",") if c.strip()]
    try:
        config = harness.HarnessConfig.from_dict(obj)
    except ConfigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    ids = config.claims if config.claims is not None else harness.registered_claims()

    records = []
    start = time.time()
    for claim_id in ids:
        t0 = time.time()
        record = harness.run_claim(claim_id, config.seed, config.resolved_spec(claim_id))
        records.append(record)
        status = "PASS" if record.passed else "FAIL"
        print(
            f"{status} {record.claim_id:46s} worst_slack={record.worst_slack:+.3e} "
            f"({time.time() - t0:5.1f}s)"
        )
    report = harness.VerificationReport(
        global_seed=config.seed,
        config_hash=config.config_hash(),
        records=tuple(records),
    )
    Path(args.report).write_text(report.to_json())
    print(f"\n{len(records)} claims, all_pass={report.all_pass}, {time.time() - start:.1f}s")
    print(f"report written to {args.report}")
    return 0 if report.all_pass else 4


if __name__ == "__main__":
    sys.exit(main())
