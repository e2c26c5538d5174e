#!/usr/bin/env python3
"""Compare the four power-control schemes on the standard 19-site deployment.

Runs every scheme with identical topology seeds and prints the headline
metrics side by side; optionally writes per-scheme summary/CDF files.

Usage:
    python scripts/run_scheme_comparison.py --slots 2000 --drops 5 --out results/
"""

import argparse
from pathlib import Path

from ulsim import report
from ulsim.config import DEFAULTS

SCHEMES = ("maxpower", "fpc", "rlpc", "cnb")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", type=int, default=2000)
    parser.add_argument("--drops", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--zeta", type=float, default=1.3)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for summary_<scheme>.json and CDFs")
    args = parser.parse_args()

    cfg = dict(DEFAULTS)
    cfg.update(slots=args.slots, drops=args.drops, seed=args.seed,
               zeta=args.zeta)

    print(f"{'scheme':<10} {'avg Mbps':>10} {'edge Mbps':>10} {'Mbits/J':>10}")
    for scheme in SCHEMES:
        run_cfg = dict(cfg)
        run_cfg["scheme"] = scheme
        summary = report.run_config(run_cfg)
        print(f"{scheme:<10} {summary.cell_avg_mbps:>10.3f} "
              f"{summary.edge_mbps:>10.4f} "
              f"{report.efficiency_text(summary):>10}")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            report.write_summary_json(summary,
                                      args.out / f"summary_{scheme}.json")
            report.write_cdf_csv(summary, args.out / f"cdf_{scheme}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
