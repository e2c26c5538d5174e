"""Per-cell proportional-fair allocation of contiguous resource blocks.

Each slot a cell sorts its UEs by PF weight (instantaneous rate estimate over
long-term average) and grants contiguous blocks proportional to weight share,
minimum one RB, until the data RBs run out. Contiguity reflects the uplink
single-carrier constraint. UEs never served get absolute priority so the PF
averages can bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .powerctl import P_MAX_DBM

__all__ = [
    "RbGrid",
    "PfState",
    "RbAssignment",
    "SlotAllocation",
    "pf_weight",
    "update_avg",
    "per_rb_power_dbm",
    "allocate",
]


@dataclass(frozen=True)
class RbGrid:
    total_rbs: int = 50
    control_rbs: int = 2

    @property
    def data_rbs(self) -> int:
        return self.total_rbs - self.control_rbs


@dataclass
class PfState:
    """Long-term PF averages for every UE in the network (single writer)."""

    avg_rate: np.ndarray                # bits/s, per UE
    served_once: np.ndarray             # bool, per UE
    alpha: float = 1.0
    beta: float = 1.0
    ewma: float = 0.01

    @classmethod
    def fresh(cls, n_ues: int, **weights) -> "PfState":
        """No UE served yet; weights are alpha, beta and ewma."""
        return cls(avg_rate=np.zeros(n_ues),
                   served_once=np.zeros(n_ues, dtype=bool), **weights)


@dataclass(frozen=True)
class RbAssignment:
    ue_id: int
    rb_start: int
    rb_len: int
    per_rb_power_dbm: float


# Per-cell slot allocation: cell_id -> assignments with disjoint RB ranges.
SlotAllocation = dict[int, list[RbAssignment]]


def pf_weight(inst_rate: float, avg_rate: float, alpha: float = PfState.alpha,
              beta: float = PfState.beta) -> float:
    """Proportional-fair metric inst_rate^alpha / avg_rate^beta."""
    if avg_rate <= 0:
        raise ValueError("avg_rate must be positive (uninitialized PF state)")
    return inst_rate ** alpha / avg_rate ** beta


def update_avg(avg: float, served: float, ewma: float):
    """Exponentially weighted average rate update."""
    if not 0.0 < ewma < 1.0:
        raise ValueError("ewma must be in (0, 1)")
    return (1.0 - ewma) * avg + ewma * served


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


def allocate(cell_ues, est_rates, pf: PfState, grid: RbGrid,
             tx_power_dbm=None,
             p_max_dbm: float = P_MAX_DBM) -> list[RbAssignment]:
    """Allocate all data RBs of one cell for one slot.

    cell_ues are global UE ids; est_rates are the (delayed) per-RB rate
    estimates aligned with cell_ues. Never-served UEs with a decodable rate
    preempt the PF metric. Deterministic: ties break by ue_id.
    """
    cell_ues = np.asarray(cell_ues, dtype=int)
    if cell_ues.size == 0:
        return []
    est = np.asarray(est_rates, dtype=float)
    w = _weights(est, pf.avg_rate[cell_ues], pf.served_once[cell_ues],
                 pf.alpha, pf.beta)
    if np.isinf(w).any():
        w = np.where(np.isinf(w), 1.0, 0.0)
    eligible = np.flatnonzero(w > 0)
    if eligible.size == 0:
        return []

    # Highest weight first, ue_id breaks ties; at most one UE per RB.
    order = eligible[np.lexsort((cell_ues[eligible], -w[eligible]))]
    order = order[:grid.data_rbs]
    ww = w[order]

    # One RB each, remainder apportioned by weight share (largest remainder).
    n = len(order)
    sizes = np.ones(n, dtype=int)
    remaining = grid.data_rbs - n
    if remaining > 0:
        target = ww / ww.sum() * remaining
        base = np.floor(target).astype(int)
        sizes += base
        leftover = remaining - base.sum()
        if leftover > 0:
            frac = target - base
            take = np.lexsort((np.arange(n), -frac))[:leftover]
            sizes[take] += 1

    out = []
    start = grid.control_rbs
    for idx, size in zip(order, sizes):
        ue = int(cell_ues[idx])
        if tx_power_dbm is None:
            power = np.nan
        else:
            power = per_rb_power_dbm(float(np.asarray(tx_power_dbm)[idx]),
                                     int(size), p_max_dbm)
        out.append(RbAssignment(ue_id=ue, rb_start=start, rb_len=int(size),
                                per_rb_power_dbm=power))
        start += int(size)
    return out
