"""Aggregation of drop results into headline metrics, CDFs and sweeps.

Headline metrics: cell-average throughput (Mbits/s), 5th-percentile per-UE
throughput (the cell-edge fairness metric), and power efficiency (Mbits per
joule of transmit energy; None when no energy was spent). Per-UE lists are
pooled across drops.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import SimConfig
from .engine import MetricsAccumulator, drop_seed, run

__all__ = [
    "RunSummary",
    "SweepResult",
    "percentile",
    "summarize",
    "efficiency_text",
    "run_config",
    "run_sweep",
    "write_summary_json",
    "write_sweep_json",
    "write_cdf_csv",
    "write_plmap_csv",
]


@dataclass(frozen=True)
class RunSummary:
    scheme: str
    zeta: float | None
    cell_avg_mbps: float
    edge_mbps: float
    power_efficiency_mbits_per_j: float | None
    n_drops: int
    seeds: tuple[int, ...]
    per_ue_mbps: tuple[float, ...]
    per_ue_snr_db: tuple[float, ...]
    per_ue_iot_db: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "zeta": self.zeta,
            "avg_mbps": self.cell_avg_mbps,
            "edge_mbps": self.edge_mbps,
            "mbits_per_joule": self.power_efficiency_mbits_per_j,
            "n_drops": self.n_drops,
            "seeds": list(self.seeds),
        }


@dataclass(frozen=True)
class SweepResult:
    axis: str
    values: tuple
    summaries: tuple[RunSummary, ...]


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile at 1-based rank p*(n-1)+1."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("percentile of empty list")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a fraction in [0, 1]")
    return float(np.percentile(values, 100.0 * p, method="linear"))


def summarize(accs: list[MetricsAccumulator], config: SimConfig) -> RunSummary:
    """Pool per-drop accumulators into one RunSummary.

    Cell-average throughput is the per-drop mean of (total throughput per
    cell); the edge metric pools every UE across drops before taking the 5th
    percentile; efficiency is total delivered Mbits over total joules, None
    when no energy was spent. A metric that is not finite raises ValueError
    naming it: such a run has no result to report.
    """
    if not accs:
        raise ValueError("need at least one drop")
    merged = accs[0]
    for acc in accs[1:]:
        merged = merged.merge(acc)

    tput = merged.per_ue_throughput_bps()
    cell_avg = tput.sum() / merged.n_cells / merged.n_drops / 1e6
    edge = percentile(tput, 0.05) / 1e6
    total_mbits = merged.bits.sum() / 1e6
    total_j = merged.energy_j.sum()
    eff = float(total_mbits / total_j) if total_j > 0 else None
    for name, value in (("avg_mbps", cell_avg), ("edge_mbps", edge),
                        ("mbits_per_joule", eff)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name}: the run gave {value}, not a finite "
                             "number")

    return RunSummary(
        scheme=config.scheme,
        zeta=config.zeta if config.scheme == "cnb" else None,
        cell_avg_mbps=float(cell_avg),
        edge_mbps=float(edge),
        power_efficiency_mbits_per_j=eff,
        n_drops=merged.n_drops,
        seeds=tuple(drop_seed(config.seed, d) for d in range(config.drops)),
        per_ue_mbps=tuple(tput / 1e6),
        per_ue_snr_db=tuple(merged.time_avg_snr_db()),
        per_ue_iot_db=tuple(merged.time_avg_iot_db()),
    )


def efficiency_text(summary: RunSummary) -> str:
    """Mbits per joule to two decimals, or n/a when no energy was spent."""
    eff = summary.power_efficiency_mbits_per_j
    return "n/a" if eff is None else f"{eff:.2f}"


def run_config(cfg: dict) -> RunSummary:
    """Execute all drops for one flat configuration dict."""
    sim = SimConfig(**cfg)
    return summarize(run([sim])[0], sim)


def run_sweep(cfg: dict, axis: str, values) -> SweepResult:
    """One run per axis value, identical topology seeds across values.

    Values whose configs are equal once zeta is replaced share each drop's
    snapshot and C&B screen (engine.simulate), with results bit-identical to
    separate runs. Every value's config is checked before the first run.
    """
    sims = [SimConfig(**cfgmod.set_key(cfg, axis, v)) for v in values]
    groups: dict[SimConfig, list[int]] = {}
    for i, sim in enumerate(sims):
        groups.setdefault(replace(sim, zeta=SimConfig.zeta), []).append(i)
    accs = {i: drops for group in groups.values()
            for i, drops in zip(group, run([sims[i] for i in group]))}
    summaries = tuple(summarize(accs[i], sim) for i, sim in enumerate(sims))
    return SweepResult(axis=axis, values=tuple(values), summaries=summaries)


def write_summary_json(summary: RunSummary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary.to_json_dict(), indent=2) + "\n")


def write_sweep_json(result: SweepResult, path: str | Path) -> None:
    payload = {
        "axis": result.axis,
        "values": list(result.values),
        "runs": [s.to_json_dict() for s in result.summaries],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_cdf_csv(summary: RunSummary, path: str | Path) -> None:
    """Empirical CDFs of per-UE time-average SNR, IoT and throughput."""
    series = {
        "snr_db": summary.per_ue_snr_db,
        "iot_db": summary.per_ue_iot_db,
        "throughput_mbps": summary.per_ue_mbps,
    }
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value", "cum_fraction"])
        for metric, values in series.items():
            finite = np.sort(np.asarray(values)[np.isfinite(values)])
            n = len(finite)
            for i, v in enumerate(finite):
                writer.writerow([metric, f"{v:.6g}", f"{(i + 1) / n:.6g}"])


def write_plmap_csv(loss_db: np.ndarray, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ue_id", "cell_id", "loss_db"])
        n_ues, n_cells = loss_db.shape
        for u in range(n_ues):
            for c in range(n_cells):
                writer.writerow([u, c, f"{loss_db[u, c]:.6f}"])
