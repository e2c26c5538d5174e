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


# The floor of a served UE's PF average (see pf_update).
_TINY = np.finfo(float).smallest_subnormal


def pf_update(avg_rate: np.ndarray, scheduled: np.ndarray, rate: np.ndarray,
              config: SimConfig) -> np.ndarray:
    """The PF averages (bits/s, per UE) after one slot's served rate.

    A UE is served once its average is > 0. Its first nonzero rate while
    scheduled starts the average; a served UE then follows the EWMA, decaying
    toward 0 in slots without a grant but floored at the smallest subnormal,
    so that it stays served for every ewma.
    """
    ewma = (1.0 - config.ewma) * avg_rate
    ewma += config.ewma * rate
    np.maximum(ewma, _TINY, out=ewma)
    return np.where(avg_rate > 0, ewma,
                    np.where(scheduled & (rate > 0), rate, 0.0))


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
             config: SimConfig, grant_mw: np.ndarray
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
    Deterministic: ties break by UE id. No argument is changed.

    Each choice was measured per call on a 2-vCPU VM, best of 15 passes
    over a desk drop's 2,000 slots (570 UEs) and of 9 over a 3,420-UE
    4-zeta drop's 200: 97-104 and 373-386 us, with np.lexsort for _by_cell
    162 and 555-558 us, with a stable sort of the key in _by_cell 133 and
    446-464 us. At 91 us on the desk drop, three boolean-mask writes for
    the masked divide took 95 us, the never-served pass every slot 97 us.
    """
    # w is the PF metric where defined, inf for a never-served decodable UE,
    # else 0. An inf weight, also a PF metric that overflows, bootstraps:
    # its cell weighs such UEs 1 and every other UE 0. The powers of
    # rates >= 0 are finite under SimConfig's alpha and beta rules, and only
    # defined lanes divide, so only the PF metric can warn.
    served = avg_rate > 0
    defined = served & (est_rates > 0)
    w = np.divide(est_rates ** config.alpha, avg_rate ** config.beta,
                  out=np.where(served | (est_rates <= 0), 0.0, np.inf),
                  where=defined)
    boot = np.isinf(w)
    if boot.any():
        w = np.where(np.bincount(serving, boot)[serving] > 0, boot * 1.0, w)

    # Highest weight first per cell, UE id breaks ties (_by_cell's order is
    # stable and ue ascends); one UE per RB at most.
    ue = np.flatnonzero(w > 0)
    ue = ue[_by_cell(-w[ue], serving[ue])]
    cell = serving[ue]
    n = np.bincount(cell)
    rank = np.arange(ue.size) - np.repeat(np.cumsum(n) - n, n)
    keep = rank < config.data_rbs
    ue, rank, cell = ue[keep], rank[keep], cell[keep]
    n = np.minimum(n, config.data_rbs)
    ww = w[ue]

    # One RB each, remainder apportioned by weight share (largest remainder).
    # Each cell's total adds its weights one at a time in rank order: other
    # summation orders can flip exact remainder ties.
    total = np.bincount(cell, ww)
    remaining = config.data_rbs - n
    target = ww / total[cell] * remaining[cell]
    base = np.floor(target).astype(int)
    sizes = 1 + base
    leftover = remaining - np.bincount(cell, base).astype(int)
    frac = target - base
    # Largest remainder first per cell, rank breaks ties. cell is sorted, so
    # by_frac keeps each cell's entries in the cell's own index range.
    by_frac = _by_cell(-frac, cell)
    sizes[by_frac[rank < leftover[cell]]] += 1
    return cell, ue, sizes, grant_mw[ue, sizes - 1]


def _by_cell(key: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """The stable order by cell, then by key: np.lexsort((key, cell)).

    The key is quicksorted; where its sorted keys do not strictly ascend,
    each run of equal keys (the NaNs, sorted last, are one) is put back in
    index order. The cell ids are then sorted as int16, which numpy
    radix-sorts stably. int16 holds every cell id: SimConfig's size rule
    keeps cells**2 * data_rbs <= 2**27, so at most 11,585 cells. Per call,
    best of 9 on 2 vCPUs: 17 us over a desk drop's 4,000 calls, 25 tied
    (PF bootstrap slots); 93 us over a 3,420-UE 4-zeta drop's 400, all
    tied (162 us with a stable sort of any key that ties).
    """
    order = np.argsort(key)
    ordered = key[order]
    if not (ordered[1:] > ordered[:-1]).all():
        # Sort run * n + index, distinct int64s, then keep the index.
        nan = np.isnan(ordered)
        run = np.cumsum((ordered[1:] > ordered[:-1]) | (nan[1:] > nan[:-1]))
        run *= len(key)
        order[1:] += run
        order.sort()
        order[1:] -= run
    return order[np.argsort(cell[order].astype(np.int16), kind="stable")]
