#!/usr/bin/env python3
"""Replay every witness of a verification report, each as a batch of one.

    python scripts/replay_witnesses.py report.json

A witness replays when its trial, run alone, gives the recorded measure bit
for bit, or raises again the error the witness recorded. A report's claims
run their trials in batches of one dim, so a replay also checks that a
trial's result does not depend on the batch it ran in. Exits 0 when every
witness replays, and 1 otherwise, naming each claim whose witness does not.
"""

import argparse
import json
import sys

from qpathdiv import harness
from qpathdiv.errors import QPathDivError


def replays(claim_id: str, witness: dict) -> bool:
    try:
        value = harness.replay_witness(claim_id, witness)
    except QPathDivError as exc:
        return witness.get("error") == f"{type(exc).__name__}: {exc}"
    # repr tells every float apart, -0.0 from 0.0 too, and reads NaN as NaN
    return "error" not in witness and repr(value) == repr(witness["measure"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="a report written by qpathdiv verify --report")
    args = parser.parse_args(argv)
    with open(args.report) as fh:
        claims = json.load(fh)["claims"]
    failed = [c["claim_id"] for c in claims if not replays(c["claim_id"], c["witness"])]
    for claim_id in failed:
        print(f"the witness of {claim_id} does not replay", file=sys.stderr)
    print(f"{len(claims) - len(failed)} of {len(claims)} witnesses replay")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
