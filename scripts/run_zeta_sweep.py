#!/usr/bin/env python3
"""Sweep the coordination weight zeta of the C&B controller.

Shows the cell-average vs cell-edge tradeoff: lowering zeta shifts utility
from protecting neighbor cells toward own-cell throughput.

Usage:
    python scripts/run_zeta_sweep.py --zetas 1.3,1.1,0.9,0.7 --out sweep/
"""

import argparse
from pathlib import Path

from ulsim import report
from ulsim.config import DEFAULTS, set_key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--zetas", default="1.3,1.1,0.9,0.7",
                        help="comma-separated zeta values")
    parser.add_argument("--slots", type=int, default=2000)
    parser.add_argument("--drops", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for sweep.json and per-value CDFs")
    args = parser.parse_args()

    zetas = [float(z) for z in args.zetas.split(",") if z]
    cfg = dict(DEFAULTS)
    cfg.update(scheme="cnb", slots=args.slots, drops=args.drops,
               seed=args.seed)

    result = report.run_sweep(cfg, "zeta", zetas)
    print(f"{'zeta':>6} {'avg Mbps':>10} {'edge Mbps':>10} {'Mbits/J':>10}")
    for z, s in zip(result.values, result.summaries):
        print(f"{z:>6.2f} {s.cell_avg_mbps:>10.3f} {s.edge_mbps:>10.4f} "
              f"{report.efficiency_text(s):>10}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        report.write_sweep_json(result, args.out / "sweep.json")
        for z, s in zip(result.values, result.summaries):
            report.write_cdf_csv(s, args.out / f"cdf_zeta_{z}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
