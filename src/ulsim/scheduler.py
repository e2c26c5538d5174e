"""Proportional-fair allocation of contiguous resource blocks, all cells at once.

Each slot every cell sorts its UEs by PF weight (instantaneous rate estimate
over long-term average) and grants contiguous blocks proportional to weight
share, minimum one RB, until the data RBs run out. Contiguity reflects the
uplink single-carrier constraint. UEs never served get absolute priority so
the PF averages can bootstrap. One array pass schedules the whole network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RbGrid",
    "PfState",
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

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma < 1.0:
            raise ValueError(f"ewma must be in (0, 1), got {self.ewma}")

    @classmethod
    def fresh(cls, n_ues: int, **weights) -> "PfState":
        """No UE served yet; weights are alpha, beta and ewma."""
        return cls(avg_rate=np.zeros(n_ues),
                   served_once=np.zeros(n_ues, dtype=bool), **weights)

    def update(self, scheduled: np.ndarray, rate: np.ndarray) -> None:
        """Fold one slot's served rate (bits/s, per UE) into the averages.

        A UE's first nonzero rate while scheduled starts its average; served
        UEs then follow the EWMA, decaying toward 0 in slots without a grant.
        """
        boot = scheduled & ~self.served_once & (rate > 0)
        self.avg_rate = np.where(
            boot, rate,
            np.where(self.served_once,
                     (1.0 - self.ewma) * self.avg_rate + self.ewma * rate,
                     self.avg_rate))
        self.served_once = self.served_once | boot

    def weights(self, est_rates: np.ndarray) -> np.ndarray:
        """PF metric est^alpha / avg^beta; inf for never-served UEs, 0 for
        UEs with no decodable estimate."""
        w = np.where(self.served_once, 0.0, np.inf)
        w[est_rates <= 0] = 0.0
        defined = (est_rates > 0) & self.served_once
        avg = self.avg_rate[defined]
        if (avg <= 0).any():
            raise ValueError("avg_rate must be positive (uninitialized PF state)")
        w[defined] = est_rates[defined] ** self.alpha / avg ** self.beta
        return w


def _rank_in_cell(cell: np.ndarray) -> np.ndarray:
    """Each entry's position within its cell's run; cell must be sorted."""
    counts = np.bincount(cell)
    return np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts)


def allocate(serving: np.ndarray, est_rates: np.ndarray, pf: PfState,
             grid: RbGrid, tx_power_dbm: np.ndarray, p_max_dbm: float,
             n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Allocate all data RBs of every cell for one slot.

    serving, est_rates (the delayed per-RB rate estimates) and tx_power_dbm
    are per UE. Returns per (cell, RB) the occupying UE (-1 if idle) and its
    power in mW: the controller's per-RB power, scaled down when the grant's
    RBs would exceed p_max in total. In a cell with a never-served decodable
    UE, only such UEs are scheduled, with equal weight. Deterministic: ties
    break by UE id.
    """
    w = pf.weights(est_rates)
    boot = np.isinf(w)
    boot_cell = np.zeros(n_cells, dtype=bool)
    boot_cell[serving[boot]] = True
    w = np.where(boot_cell[serving], boot * 1.0, w)

    # Highest weight first per cell, UE id breaks ties; one UE per RB at most.
    ue = np.flatnonzero(w > 0)
    ue = ue[np.lexsort((ue, -w[ue], serving[ue]))]
    rank = _rank_in_cell(serving[ue])
    keep = rank < grid.data_rbs
    ue, rank = ue[keep], rank[keep]
    cell = serving[ue]
    ww = w[ue]

    # One RB each, remainder apportioned by weight share (largest remainder).
    # Each cell's total is a plain sum over its slice: other summation orders
    # can flip exact remainder ties.
    n = np.bincount(cell, minlength=n_cells)
    first = np.cumsum(n) - n
    total = np.array([ww[a:a + k].sum() for a, k in zip(first, n)])
    remaining = grid.data_rbs - n
    target = ww / total[cell] * remaining[cell]
    base = np.floor(target).astype(int)
    sizes = 1 + base
    leftover = remaining - np.bincount(cell, base, minlength=n_cells).astype(int)
    frac = target - base
    by_frac = np.lexsort((rank, -frac, cell))
    bonus = _rank_in_cell(cell[by_frac]) < leftover[cell[by_frac]]
    sizes[by_frac[bonus]] += 1

    # libm's log10 and pow, not numpy's SIMD ones, which differ in the last bit.
    log_len = np.array([math.log10(k) for k in range(1, grid.data_rbs + 1)])
    power_dbm = np.minimum(tx_power_dbm[ue],
                           p_max_dbm - 10.0 * log_len[sizes - 1])
    power_mw = np.array([10.0 ** (p / 10.0) for p in power_dbm.tolist()])

    # Grants lie back to back from the control boundary, in rank order.
    rb_cell = np.repeat(cell, sizes)
    rb = grid.control_rbs + _rank_in_cell(rb_cell)
    occ = np.full((n_cells, grid.total_rbs), -1, dtype=int)
    p_mw = np.zeros((n_cells, grid.total_rbs))
    occ[rb_cell, rb] = np.repeat(ue, sizes)
    p_mw[rb_cell, rb] = np.repeat(power_mw, sizes)
    return occ, p_mw
