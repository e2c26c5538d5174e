"""Reference oracle for ulsim.scheduler.allocate: the per-cell scheduler it
replaced, kept unchanged except that a cell's weight total is summed
sequentially in rank order, plus the adapter that turned its grants into the
(cell, RB) occupancy and mW power arrays compute_slot once read, and the
expansion of allocate's grant arrays into the same two arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ulsim.config import SimConfig
from ulsim.scheduler import PfState


@dataclass(frozen=True)
class RbAssignment:
    ue_id: int
    rb_start: int
    rb_len: int
    per_rb_power_dbm: float


# Per-cell slot allocation: cell_id -> assignments with disjoint RB ranges.
SlotAllocation = dict[int, list[RbAssignment]]


def pf_weight(inst_rate: float, avg_rate: float, alpha: float,
              beta: float) -> float:
    """Proportional-fair metric inst_rate^alpha / avg_rate^beta."""
    if avg_rate <= 0:
        raise ValueError("avg_rate must be positive (uninitialized PF state)")
    return inst_rate ** alpha / avg_rate ** beta


def per_rb_power_dbm(scheme_power_dbm: float, rb_len: int,
                     p_max_dbm: float) -> float:
    """Per-RB power after the total-power cap.

    The controller output is per-RB; when rb_len blocks would exceed p_max in
    total, power is scaled down uniformly so the sum equals p_max exactly.
    """
    return min(scheme_power_dbm, p_max_dbm - 10.0 * math.log10(rb_len))


def _weights(est_rates: np.ndarray, avg: np.ndarray,
             served_once: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    w = np.zeros(len(est_rates))
    for i, (r, a, s) in enumerate(zip(est_rates, avg, served_once)):
        if r <= 0:
            continue
        w[i] = np.inf if not s else pf_weight(r, a, alpha, beta)
    return w


def allocate(cell_ues, est_rates, pf: PfState, config: SimConfig,
             tx_power_dbm=None) -> list[RbAssignment]:
    """Allocate all data RBs of one cell for one slot.

    cell_ues are global UE ids; est_rates are the (delayed) per-RB rate
    estimates aligned with cell_ues; config gives the RB grid and p_max.
    Never-served UEs with a decodable rate preempt the PF metric.
    Deterministic: ties break by ue_id.
    """
    cell_ues = np.asarray(cell_ues, dtype=int)
    if cell_ues.size == 0:
        return []
    est = np.asarray(est_rates, dtype=float)
    w = _weights(est, pf.avg_rate[cell_ues], pf.served_once[cell_ues],
                 config.alpha, config.beta)
    if np.isinf(w).any():
        w = np.where(np.isinf(w), 1.0, 0.0)
    eligible = np.flatnonzero(w > 0)
    if eligible.size == 0:
        return []

    # Highest weight first, ue_id breaks ties; at most one UE per RB.
    order = eligible[np.lexsort((cell_ues[eligible], -w[eligible]))]
    order = order[:config.data_rbs]
    ww = w[order]

    # One RB each, remainder apportioned by weight share (largest remainder).
    n = len(order)
    sizes = np.ones(n, dtype=int)
    remaining = config.data_rbs - n
    if remaining > 0:
        total = 0.0
        for x in ww.tolist():               # rank order, one at a time
            total += x
        target = ww / total * remaining
        base = np.floor(target).astype(int)
        sizes += base
        leftover = remaining - base.sum()
        if leftover > 0:
            frac = target - base
            take = np.lexsort((np.arange(n), -frac))[:leftover]
            sizes[take] += 1

    out = []
    start = config.control_rbs
    for idx, size in zip(order, sizes):
        ue = int(cell_ues[idx])
        if tx_power_dbm is None:
            power = np.nan
        else:
            power = per_rb_power_dbm(float(np.asarray(tx_power_dbm)[idx]),
                                     int(size), config.p_max_dbm)
        out.append(RbAssignment(ue_id=ue, rb_start=start, rb_len=int(size),
                                per_rb_power_dbm=power))
        start += int(size)
    return out


def occupancy(allocations: SlotAllocation, n_cells: int,
              config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per (cell, RB): occupying UE index (-1 if idle) and power in mW."""
    occ = np.full((n_cells, config.total_rbs), -1, dtype=int)
    p_mw = np.zeros((n_cells, config.total_rbs))
    for c, entries in allocations.items():
        for e in entries:
            occ[c, e.rb_start:e.rb_start + e.rb_len] = e.ue_id
            p_mw[c, e.rb_start:e.rb_start + e.rb_len] = 10.0 ** (
                e.per_rb_power_dbm / 10.0)
    return occ, p_mw


def allocate_network(serving, est_rates, pf: PfState, config: SimConfig,
                     tx_power_dbm, n_cells: int):
    """The whole-network slot schedule as 57 per-cell calls built it."""
    serving = np.asarray(serving)
    allocations: SlotAllocation = {}
    for c in range(n_cells):
        ues = np.flatnonzero(serving == c)
        entries = allocate(ues, np.asarray(est_rates)[ues], pf, config,
                           tx_power_dbm=np.asarray(tx_power_dbm)[ues])
        if entries:
            allocations[c] = entries
    return occupancy(allocations, n_cells, config)


def expand(grants, n_cells: int, config: SimConfig):
    """allocate's grant arrays (cell, ue, sizes, p_mw) as the per (cell, RB)
    occupying UE (-1 if idle) and power in mW that occupancy builds: each
    cell's grants back to back from the control boundary, in array order."""
    occ = np.full((n_cells, config.total_rbs), -1, dtype=int)
    power = np.zeros((n_cells, config.total_rbs))
    next_rb = [config.control_rbs] * n_cells
    for c, ue, size, p in zip(*(np.asarray(a).tolist() for a in grants)):
        start, next_rb[c] = next_rb[c], next_rb[c] + size
        occ[c, start:start + size] = ue
        power[c, start:start + size] = p
    return occ, power
