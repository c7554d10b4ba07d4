"""Sweep phase gates through the statistics-preserving simulation.

Every gate produces identical probe statistics on the logical and the
encoded side; the witness columns show where the encoded inner product
stops seeing the complex phase.

Usage:
    python3 scripts/selftest_demo.py
    python3 scripts/selftest_demo.py --points 17
"""

from __future__ import annotations

import argparse

import numpy as np

from realsim.applications.selftest import selftest_counterexample


def main():
    p = argparse.ArgumentParser(description="phase-gate sweep of the self-testing counterexample")
    p.add_argument("--points", type=int, default=9, help="number of phase angles in [0, pi]")
    args = p.parse_args()

    print(f"{'theta/pi':>9}  {'stat gap':>9}  {'Re overlap':>10}  {'modulus':>8}  {'phase lost':>10}  {'product gap':>11}")
    for theta in np.linspace(0.0, np.pi, args.points):
        gate = np.diag([1.0, np.exp(1j * theta)]).astype(complex)
        transcript = selftest_counterexample(gate)
        real_part, modulus = transcript.witness_real_part, transcript.witness_modulus
        print(
            f"{theta / np.pi:9.3f}  {transcript.max_stat_gap:9.2e}  {real_part:10.6f}  "
            f"{modulus:8.6f}  {modulus - abs(real_part):10.6f}  {transcript.product_state_gap:11.2e}"
        )


if __name__ == "__main__":
    main()
