"""Command-line entry point.

Examples:
    ulsim --scheme cnb --zeta 1.3 --slots 2000 --drops 5 --out results/
    ulsim --config run.cfg --sweep zeta=1.3,1.1,0.9,0.7 --out sweep/
    ulsim --scheme fpc --export-plmap --out fpc_run/

All outputs land under --out: summary.json (or sweep.json), cdf.csv with the
per-UE SNR/IoT/throughput CDFs, and optionally plmap.csv.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as cfgmod
from . import report
from .engine import build_snapshot, drop_seed


def _parse_sweep(arg: str) -> tuple[str, list[str]]:
    if "=" not in arg:
        raise argparse.ArgumentTypeError("expected --sweep KEY=V1,V2,...")
    key, raw = arg.split("=", 1)
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("sweep needs at least one value")
    return key.strip(), values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulsim",
        description="Uplink multicell simulator with coordinated power control")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value configuration file")
    parser.add_argument("--scheme", choices=cfgmod.SCHEMES,
                        help="power control scheme")
    parser.add_argument("--zeta", type=float, help="coordination weight")
    parser.add_argument("--seeds", type=int, metavar="N",
                        help="base RNG seed (per-drop seeds derive from it)")
    parser.add_argument("--slots", type=int, help="slots per drop")
    parser.add_argument("--drops", type=int, help="independent drops")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
    parser.add_argument("--sweep", type=_parse_sweep, metavar="KEY=V1,V2,...",
                        help="run once per value of one configuration key")
    parser.add_argument("--export-plmap", action="store_true",
                        help="write the first drop's path-loss map as CSV")
    return parser


def _headline(summary: report.RunSummary) -> str:
    return (f"avg={summary.cell_avg_mbps:.3f} Mbps "
            f"edge={summary.edge_mbps:.4f} Mbps "
            f"eff={summary.power_efficiency_mbits_per_j:.2f} Mbits/J")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (cfgmod.parse_config_file(args.config) if args.config
               else dict(cfgmod.DEFAULTS))
        for key, value in (("scheme", args.scheme), ("zeta", args.zeta),
                           ("seed", args.seeds), ("slots", args.slots),
                           ("drops", args.drops)):
            if value is not None:
                cfg = cfgmod.set_key(cfg, key, value)

        # Run before writing anything, so a rejected config leaves no output.
        if args.sweep:
            key, values = args.sweep
            result = report.run_sweep(cfg, key, values)
            runs = [(f"{key}={v}", s, f"cdf_{key}_{v}.csv")
                    for v, s in zip(result.values, result.summaries)]
        else:
            summary = report.run_config(cfg)
            runs = [(summary.scheme, summary, "cdf.csv")]

        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        if args.export_plmap:
            sim = cfgmod.SimConfig(**cfg)
            _, loss_db = build_snapshot(sim, drop_seed(sim.seed, 0))
            report.write_plmap_csv(loss_db, out / "plmap.csv")
        if args.sweep:
            report.write_sweep_json(result, out / "sweep.json")
        else:
            report.write_summary_json(summary, out / "summary.json")
        for label, summary, cdf_name in runs:
            report.write_cdf_csv(summary, out / cdf_name)
            print(f"{label}: {_headline(summary)}")
    except (KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
