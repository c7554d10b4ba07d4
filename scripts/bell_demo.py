"""Run the see-saw Bell optimizer and watch both evaluation routes agree.

Usage:
    python3 scripts/bell_demo.py --scenario chsh --seed 7
    python3 scripts/bell_demo.py --scenario mermin3 --restarts 30 --seed 1
"""

from __future__ import annotations

import argparse

from realsim.applications.bell import chsh_scenario, mermin3_scenario, optimize_bell


def main():
    p = argparse.ArgumentParser(description="seeded see-saw Bell optimization demo")
    p.add_argument("--scenario", choices=("chsh", "mermin3"), default="chsh")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="base seed; restart r uses seed + r")
    p.add_argument("--iterations", type=int, default=100)
    args = p.parse_args()

    scenario = chsh_scenario() if args.scenario == "chsh" else mermin3_scenario()
    result = optimize_bell(scenario, seeds=[args.seed + r for r in range(args.restarts)], iterations=args.iterations)

    print(f"scenario          {args.scenario}")
    print(f"classical bound   {scenario.classical_bound}")
    if scenario.quantum_target is not None:
        print(f"quantum target    {scenario.quantum_target:.15f}")
    print(f"complex value     {result.value_complex:.15f}")
    print(f"encoded value     {result.value_real_encoded:.15f}")
    print(f"mode gap          {abs(result.value_complex - result.value_real_encoded):.3e}")
    print(f"winning seed      {max(result.restarts, key=lambda r: r[1])[0]}")
    print("trace (iteration, value):")
    for it, value in result.optimizer_trace:
        print(f"  {it:3d}  {value:.15f}")


if __name__ == "__main__":
    main()
