#!/usr/bin/env python3
"""Profile how the divergence gaps grow with noncommutativity.

Samples random qubit pairs and writes one CSV row per pair:
commutation defect, relative entropy D, the two chain gaps D - e_s and
Dbar - D, and the mixture-path spread m_r - m_s. Plot-ready; no plotting
here.
"""

import argparse
import sys

from qpathdiv.divergences import (
    bs_divergence,
    e_divergence_closed,
    m_divergence_detail,
    quantum_relative_entropy,
)
from qpathdiv.harness import derive_seed
from qpathdiv.metrics import RLD, SLD
from qpathdiv.states import RandomSpec, commutation_defect, random_density
from qpathdiv.transport import GeodesicKind


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", default=None, help="CSV path (default: stdout)")
    args = parser.parse_args()

    lines = ["commutation_defect,D,gap_low,gap_high,m_spread"]
    for trial in range(args.samples):
        rho = random_density(RandomSpec(args.dim, derive_seed(args.seed, trial, "rho"), 0.05))
        sigma = random_density(RandomSpec(args.dim, derive_seed(args.seed, trial, "sigma"), 0.05))
        d = quantum_relative_entropy(rho, sigma)
        gap_low = d - e_divergence_closed(GeodesicKind.SLD, rho, sigma)
        gap_high = bs_divergence(rho, sigma) - d
        (m_r, _), (m_s, _) = m_divergence_detail((RLD, SLD), rho, sigma)
        spread = m_r - m_s
        lines.append(
            f"{commutation_defect(rho, sigma)!r},{d!r},{gap_low!r},{gap_high!r},{spread!r}"
        )

    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
