#!/usr/bin/env python3
"""Reproduce the paper's NAND flash characterization study (Sections 3 and 5).

Walks through the same sequence the paper follows on 160 real chips, against
the calibrated virtual test platform:

1. How many retry steps do reads need across operating conditions? (Figure 5)
2. How much ECC-capability margin is left in the final retry step? (Figure 7)
3. How far can tPRE be reduced before that margin is exhausted? (Figure 11)
4. What does the resulting Read-timing Parameter Table look like? (Figure 13)

Usage::

    python examples/characterize_chips.py [--chips N]
"""

import argparse

from repro.characterization import (
    build_rpt,
    ecc_margin_sweep,
    minimum_safe_tpre_sweep,
    profile_retry_steps,
)
from repro.characterization.platform import VirtualTestPlatform
from repro.characterization.retry_profile import summarize_profiles
from repro.experiments.reporting import ExperimentResult


def show(name: str, title: str, rows) -> None:
    print(ExperimentResult(name=name, title=title, rows=list(rows)).to_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chips", type=int, default=8,
                        help="number of virtual chips to characterize")
    parser.add_argument("--blocks", type=int, default=3,
                        help="blocks sampled per chip")
    args = parser.parse_args()

    platform = VirtualTestPlatform(num_chips=args.chips,
                                   blocks_per_chip=args.blocks,
                                   wordlines_per_block=2, seed=0)
    print(f"Virtual population: {platform.num_pages} pages "
          f"({args.chips} chips x {args.blocks} blocks x "
          f"{platform.wordlines_per_block} wordlines x 3 page types)")
    print(f"(A 12-month retention age corresponds to a "
          f"{platform.bake_plan_hours(12.0):.0f}-hour bake at 85C.)\n")

    profiles = profile_retry_steps(platform)
    show("fig05", "Figure 5: retry steps per read", summarize_profiles(profiles))
    worst = profiles[(2000, 12.0)]
    print(f"\nAt 2K P/E cycles and a 1-year retention age the average read "
          f"needs {worst.mean_steps:.1f} retry steps "
          f"({worst.read_latency_amplification():.0f}x the no-retry latency).\n")

    margin_rows = ecc_margin_sweep(platform, temperatures_c=(85.0, 30.0),
                                   retention_months=(0.0, 6.0, 12.0))
    show("fig07", "Figure 7: ECC-capability margin in the final retry step",
         margin_rows)

    print()
    show("fig11", "Figure 11: minimum safe tPRE", minimum_safe_tpre_sweep(platform))

    print()
    rpt = build_rpt(platform)
    show("fig13", "Figure 13: Read-timing Parameter Table (RPT)", rpt.as_rows())
    print(f"\nRPT storage footprint: {rpt.storage_bytes()} bytes")


if __name__ == "__main__":
    main()
