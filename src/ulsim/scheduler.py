"""Proportional-fair allocation of contiguous resource blocks, all cells at once.

Each slot every cell sorts its UEs by PF weight (instantaneous rate estimate
over long-term average) and grants contiguous blocks proportional to weight
share, minimum one RB, until the data RBs run out. Contiguity reflects the
uplink single-carrier constraint. UEs never served get absolute priority so
the PF averages can bootstrap. One array pass schedules the whole network and
returns the grants as arrays in (cell, rank) order: a cell's grants lie back
to back from the control boundary and fill all its data RBs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import SimConfig

__all__ = [
    "allocate",
    "dbm_to_mw",
    "grant_power_mw",
    "pf_update",
]


def pf_update(avg_rate: np.ndarray, scheduled: np.ndarray, rate: np.ndarray,
              config: SimConfig) -> np.ndarray:
    """The PF averages (bits/s, per UE) after one slot's served rate.

    A UE is served once its average is > 0. Its first nonzero rate while
    scheduled starts the average; a served UE then follows the EWMA, decaying
    toward 0 in slots without a grant but floored at the smallest subnormal,
    so that it stays served for every ewma.
    """
    ewma = np.maximum((1.0 - config.ewma) * avg_rate + config.ewma * rate,
                      np.finfo(float).smallest_subnormal)
    return np.where(avg_rate > 0, ewma,
                    np.where(scheduled & (rate > 0), rate, 0.0))


def _rank_in_cell(cell: np.ndarray) -> np.ndarray:
    """Each entry's position within its cell's run; cell must be sorted."""
    counts = np.bincount(cell)
    return np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts)


def dbm_to_mw(p_dbm) -> np.ndarray:
    """10^(p/10) per entry through libm's pow, not numpy's SIMD one, which
    differs in the last bit."""
    return np.array([10.0 ** (p / 10.0)
                     for p in np.asarray(p_dbm, dtype=float).tolist()])


def grant_power_mw(tx_power_dbm: np.ndarray, config: SimConfig) -> np.ndarray:
    """(UE, data_rbs): entry [u, k-1] is UE u's per-RB power in mW in a k-RB
    grant, the controller's tx_power_dbm[u] scaled down when k RBs would
    exceed p_max in total: min(tx, p_max - 10 log10(k)) dBm, in mW that of
    the smaller term. libm's log10, not numpy's SIMD one, which differs in
    the last bit."""
    tx_dbm = np.asarray(tx_power_dbm, dtype=float)
    cap_dbm = np.array([config.p_max_dbm - 10.0 * math.log10(k)
                        for k in range(1, config.data_rbs + 1)])
    return np.where(cap_dbm < tx_dbm[:, None], dbm_to_mw(cap_dbm),
                    dbm_to_mw(tx_dbm)[:, None])


def allocate(serving: np.ndarray, est_rates: np.ndarray, avg_rate: np.ndarray,
             config: SimConfig, n_cells: int, grant_mw: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Allocate all data RBs of every cell for one slot.

    serving, est_rates (the delayed per-RB rate estimates) and avg_rate (the
    PF averages, see pf_update) are per UE; grant_mw is grant_power_mw of the
    UEs' powers, built once per drop. A UE's weight is the PF metric
    est^alpha / avg^beta, inf if it was never served, 0 if its estimate is
    not decodable.
    Returns the grants in (cell, rank) order as four arrays: cell, UE, size
    in RBs, and per-RB power in mW. A cell's grants lie back to back from
    the control boundary and fill its data RBs. In a cell with a never-served
    decodable UE, only such UEs are scheduled, with equal weight.
    Deterministic: ties break by UE id.
    """
    served = avg_rate > 0
    w = np.where(served, 0.0, np.inf)
    w[est_rates <= 0] = 0.0
    defined = (est_rates > 0) & served
    w[defined] = (est_rates[defined] ** config.alpha
                  / avg_rate[defined] ** config.beta)
    boot = np.isinf(w)
    boot_cell = np.zeros(n_cells, dtype=bool)
    boot_cell[serving[boot]] = True
    w = np.where(boot_cell[serving], boot * 1.0, w)

    # Highest weight first per cell, UE id breaks ties (the sort is stable
    # and ue ascends); one UE per RB at most.
    ue = np.flatnonzero(w > 0)
    ue = ue[np.lexsort((-w[ue], serving[ue]))]
    rank = _rank_in_cell(serving[ue])
    keep = rank < config.data_rbs
    ue, rank = ue[keep], rank[keep]
    cell = serving[ue]
    ww = w[ue]

    # One RB each, remainder apportioned by weight share (largest remainder).
    # Each cell's total adds its weights one at a time in rank order: other
    # summation orders can flip exact remainder ties.
    n = np.bincount(cell, minlength=n_cells)
    total = np.bincount(cell, ww, minlength=n_cells)
    remaining = config.data_rbs - n
    target = ww / total[cell] * remaining[cell]
    base = np.floor(target).astype(int)
    sizes = 1 + base
    leftover = remaining - np.bincount(cell, base, minlength=n_cells).astype(int)
    frac = target - base
    # Largest remainder first per cell, rank breaks ties. cell is sorted, so
    # by_frac keeps each cell's entries in the cell's own index range.
    by_frac = np.lexsort((-frac, cell))
    sizes[by_frac[rank < leftover[cell]]] += 1
    return cell, ue, sizes, grant_mw[ue, sizes - 1]
