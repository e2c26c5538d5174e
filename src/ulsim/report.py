"""Aggregation of drop results into headline metrics, CDFs and sweeps.

Headline metrics: cell-average throughput (Mbits/s), 5th-percentile per-UE
throughput (the cell-edge fairness metric), and power efficiency (Mbits per
joule of transmit energy). Per-UE lists are pooled across drops.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import SimConfig
from .engine import MetricsAccumulator, drop_seed, run

__all__ = [
    "RunSummary",
    "SweepResult",
    "summarize",
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
    power_efficiency_mbits_per_j: float
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


def summarize(accs: list[MetricsAccumulator], config: SimConfig) -> RunSummary:
    """Pool a run's per-drop records, in drop order, into one RunSummary.

    Cell-average throughput is the per-drop mean of (total throughput per
    cell); the edge metric is the 5th percentile, linearly interpolated, of
    every UE's throughput pooled across drops; efficiency is total delivered
    Mbits over total joules. A run that decodes no bit, or whose metrics are
    not finite, raises ValueError naming the metric: such a run has no
    result to report.
    """
    if len(accs) != config.drops:
        raise ValueError(f"drops: {len(accs)} drop records for a run of "
                         f"{config.drops} drops")
    bits, energy_j, snr_lin_sum, iot_lin_sum, sched_slots = (
        np.concatenate([getattr(acc, f.name) for acc in accs])
        for f in fields(MetricsAccumulator))

    tput = bits / (config.slots * config.slot_duration_s)
    cell_avg = tput.sum() / config.layout.n_cells / len(accs) / 1e6
    # Before the efficiency, which is 0/0 when no UE was ever scheduled; a
    # nan avg_mbps is not 0 and reaches the finiteness check below.
    if cell_avg == 0:
        raise ValueError("avg_mbps: the run decoded no bit")
    edge = float(np.percentile(tput, 5.0)) / 1e6
    eff = float(bits.sum() / 1e6 / energy_j.sum())
    for name, value in (("avg_mbps", cell_avg), ("edge_mbps", edge),
                        ("mbits_per_joule", eff)):
        if not math.isfinite(value):
            raise ValueError(f"{name}: the run gave {value}, not a finite "
                             "number")

    # Time averages over the slots each UE was scheduled in.
    ok = sched_slots > 0
    snr_db = np.full(len(bits), -np.inf)
    snr_db[ok] = 10.0 * np.log10(snr_lin_sum[ok] / sched_slots[ok])
    iot_db = np.zeros(len(bits))
    iot_db[ok] = 10.0 * np.log10(iot_lin_sum[ok] / sched_slots[ok])

    return RunSummary(
        scheme=config.scheme,
        zeta=config.zeta if config.scheme == "cnb" else None,
        cell_avg_mbps=float(cell_avg),
        edge_mbps=edge,
        power_efficiency_mbits_per_j=eff,
        n_drops=len(accs),
        seeds=tuple(drop_seed(config.seed, d) for d in range(config.drops)),
        per_ue_mbps=tuple(tput / 1e6),
        per_ue_snr_db=tuple(snr_db),
        per_ue_iot_db=tuple(iot_db),
    )


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
