"""Aggregation of drop results into headline metrics, CDFs and sweeps.

Headline metrics: cell-average throughput (Mbits/s), 5th-percentile per-UE
throughput (the cell-edge fairness metric), and power efficiency (Mbits per
joule of transmit energy). Per-UE lists are pooled across drops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import SimConfig
from .engine import MetricsAccumulator, run
from .topology import drop_seed

__all__ = [
    "RunSummary",
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


def _percentile_5(x: np.ndarray) -> float:
    """np.percentile(x, 5.0), linear method, bit for bit, of a NaN-free 1-D
    array: the same virtual index, order statistics and lerp (numpy's
    _lerp). np.percentile's np.unique imports numpy.ma, which costs a
    process about 12 ms."""
    v = (len(x) - 1) * (5.0 / 100)
    i = min(math.floor(v), len(x) - 2)  # numpy takes x[-1] twice for n = 1
    part = np.partition(x, [i, i + 1])
    a, b, t = part[i], part[i + 1], v - i
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


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
    edge = _percentile_5(tput) / 1e6
    eff = float(bits.sum() / 1e6 / energy_j.sum())
    for name, value in (("avg_mbps", cell_avg), ("edge_mbps", edge),
                        ("mbits_per_joule", eff)):
        if not math.isfinite(value):
            raise ValueError(f"{name}: the run gave {value}, not a finite "
                             "number")

    # Time averages over the slots each UE was scheduled in; -inf marks a
    # UE never scheduled, which write_cdf_csv leaves out.
    ok = sched_slots > 0
    snr_db, iot_db = np.full((2, len(bits)), -np.inf)
    for db, lin_sum in ((snr_db, snr_lin_sum), (iot_db, iot_lin_sum)):
        db[ok] = 10.0 * np.log10(lin_sum[ok] / sched_slots[ok])

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


def run_sweep(cfg: dict, axis: str, values) -> tuple[RunSummary, ...]:
    """Per value of one key, in order, the summary run_config gives it alone
    (engine.run decides which values share drops). Drop d has one seed for
    every value unless the key is seed. Each value is checked before the
    first run; a bad or repeated one raises ValueError("<axis>: ...")."""
    sims = [SimConfig(**cfgmod.set_key(cfg, axis, v)) for v in values]
    for i, sim in enumerate(sims):
        if sim in sims[:i]:
            raise ValueError(f"{axis}: {values[sims.index(sim)]} and "
                             f"{values[i]} are one value once parsed")
    return tuple(map(summarize, run(sims), sims))


def write_summary_json(summary: RunSummary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary.to_json_dict(), indent=2) + "\n")


def write_sweep_json(axis: str, values, summaries, path: str | Path) -> None:
    runs = [s.to_json_dict() for s in summaries]
    Path(path).write_text(json.dumps(
        {"axis": axis, "values": list(values), "runs": runs}, indent=2) + "\n")


def write_cdf_csv(summary: RunSummary, path: str | Path) -> None:
    """Empirical CDFs of per-UE time-average SNR, IoT and throughput."""
    series = {
        "snr_db": summary.per_ue_snr_db,
        "iot_db": summary.per_ue_iot_db,
        "throughput_mbps": summary.per_ue_mbps,
    }
    text = ["metric,value,cum_fraction\r\n"]
    for metric, values in series.items():
        values = np.asarray(values)
        finite = np.sort(values[np.isfinite(values)])
        n = len(finite)
        rows = np.column_stack((finite, np.arange(1, n + 1) / n)).ravel()
        text.append(f"{metric},%.6g,%.6g\r\n" * n % tuple(rows.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("".join(text))


def write_plmap_csv(loss_db: np.ndarray, path: str | Path) -> None:
    n_ues, n_cells = loss_db.shape
    lines = ["ue_id,cell_id,loss_db"]
    lines += [f"{u},{c},{loss_db[u, c]:.6f}"
              for u in range(n_ues) for c in range(n_cells)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\r\n" for line in lines))
