"""Open-loop uplink power controllers.

Four schemes: max power, fractional path-loss compensation (FPC), reverse-link
power control (RLPC), and the coordinated checks-and-balances controller (CnB)
that weighs a UE's own throughput against the throughput it costs the cells it
interferes with, and maximizes the weighted sum over a 0.01 dB power lattice
by a monotone branch-and-bound.

Every controller is a pure function of one UE's path-loss row and static
parameters, so per-UE solves are independent and fully distributed; the code
computes all UEs of a drop together, as array expressions and one batched
C&B solve for every config of a group (engine.run forms the groups).
"""

from __future__ import annotations

import numpy as np

from .config import _LATTICE_STEP_DB, SimConfig
from .linkbudget import amc_realized, amc_smooth, snr_of
from .units import db_to_linear

__all__ = [
    "pl_threshold_db",
    "fpc_power",
    "rlpc_power",
    "cnb_rs",
    "cnb_neighbor_losses",
    "cnb_ri",
    "cnb_terms",
    "cnb_solve",
    "compute_powers",
]

# (UE, power) pairs per objective evaluation in the batched solve. Medians of
# 7 serial 4-zeta solves of three 3,420-UE drops on 2 vCPUs, two rounds:
# 2048 pairs 0.079-0.089 s, 1024 0.080-0.091 s and 4096 0.089-0.143 s;
# earlier, 512 paid numpy's per-call cost and 8192 fell out of cache.
_CHUNK_PAIRS = 2048


def pl_threshold_db(config: SimConfig) -> float:
    """Cross loss at which max-power interference equals the noise floor."""
    return config.p_max_dbm - config.n0_dbm


def fpc_power(pl_db, config: SimConfig):
    """Fractional compensation: min(p_max, p0 + kappa * PL); PL may be an array."""
    return np.minimum(config.p_max_dbm, config.p0_fpc_dbm + config.kappa * pl_db)


def rlpc_power(pl_db, pl_min_db, config: SimConfig):
    """Reverse-link: min(p_max, p0 + phi*PL + (1-phi)*PL_min_neighbor)."""
    phi = config.phi
    return np.minimum(config.p_max_dbm,
                      config.p0_rlpc_dbm + phi * pl_db + (1.0 - phi) * pl_min_db)


def cnb_rs(p_dbm, pl_db, config: SimConfig):
    """Own-throughput estimate: f(SNR(P) / assumed IoT); nondecreasing in P."""
    sinr = snr_of(p_dbm, pl_db, config) / db_to_linear(config.iot_s_db)
    return amc_smooth(sinr, config)


def _sorted_cross_losses(loss_db: np.ndarray, serving: np.ndarray) -> np.ndarray:
    """(n_ues, n_cells - 1): each UE's losses toward its non-serving cells,
    ascending along the row."""
    loss = loss_db.copy()
    loss[np.arange(loss.shape[0]), serving] = np.inf
    return np.sort(loss, axis=1)[:, :-1]


def cnb_neighbor_losses(loss_db: np.ndarray, serving: np.ndarray,
                        th_db: float) -> np.ndarray:
    """Cross losses toward the cells each UE can interfere above the noise floor.

    Row u holds UE u's non-serving losses strictly below th_db (see
    pl_threshold_db), ascending, then inf up to the widest row's neighbor
    count: the layout cnb_solve reads. An inf is no neighbor and adds 0 to
    cnb_ri.
    """
    cross = _sorted_cross_losses(loss_db, serving)
    near = cross < th_db
    return np.where(near, cross, np.inf)[:, :near.sum(axis=1).max(initial=0)]


def _saturation_db(config: SimConfig) -> float:
    """A bound on p - cross below which a cnb_ri term is exactly t_max, or
    -inf when none is proven.

    inr lies just below the ceiling INR snr_i / ceiling - iot_i. Float sums
    and quotients round monotonically, so every INR up to inr gives a SINR
    at least the one checked here against the ceiling and floor, even where
    iot_i + inr rounds. The bound lies 1e-6 dB below inr: every INR it
    admits, 10^((p - cross - n0)/10) with pow's few-ulp error, is below inr.
    """
    snr_i, iot_i = db_to_linear(config.snr_i_db), db_to_linear(config.iot_i_db)
    with np.errstate(all="ignore"):
        inr = (snr_i / config.sinr_ceiling - iot_i) * (1.0 - 1e-9)
        sinr = snr_i / (iot_i + inr)
        bound = config.n0_dbm + 10.0 * np.log10(inr) - 1e-6
        proven = (inr >= np.finfo(float).tiny and sinr >= config.sinr_ceiling
                  and sinr >= config.sinr_floor and
                  db_to_linear(bound - config.n0_dbm) * (1.0 + 1e-9) <= inr)
    return bound if proven else -np.inf


def cnb_ri(p_dbm, cross_losses, config: SimConfig):
    """Neighbor-throughput estimate, summed over interfered cells.

    Each term is f(assumed SNR / (assumed IoT + INR_j(P))) with f including
    the decodable SINR region: a neighbor assumed at the region ceiling loses
    nothing until this UE's interference pulls it below the ceiling, so at
    vanishing power each term saturates at t_max. Nonincreasing in P; zero
    when no neighbor is below the loss threshold.

    An inf cross loss marks no neighbor and adds exactly 0. The terms keep
    gap's (powers, neighbors) shape and are added one neighbor column at a
    time, so each power's sum runs left to right in neighbor order, however
    many powers the call holds, and trailing infs change no sum. Terms
    provably at the ceiling (_saturation_db) are t_max unevaluated; the
    others (NaN gaps too) are computed as if none were.
    """
    cross = np.asarray(cross_losses, dtype=float)
    p = np.asarray(p_dbm, dtype=float)
    gap = p[..., None] - cross
    neighbor = np.broadcast_to(np.isfinite(cross), gap.shape)
    live = neighbor & ~(gap < _saturation_db(config))
    inr = db_to_linear(gap[live] - config.n0_dbm)
    sinr = db_to_linear(config.snr_i_db) / (db_to_linear(config.iot_i_db) + inr)
    terms = np.where(neighbor, config.t_max, 0.0)
    terms[live] = amc_realized(sinr, config)
    total = np.zeros(gap.shape[:-1])
    for j in range(gap.shape[-1]):
        total += terms[..., j]
    return total


def cnb_terms(p_dbm, pl_db, cross_losses, config: SimConfig):
    """R_S(P) and R_I(P), the two terms the objective weighs; no zeta enters
    them, so one evaluation serves every zeta."""
    return cnb_rs(p_dbm, pl_db, config), cnb_ri(p_dbm, cross_losses, config)


def cnb_solve(pl_db, cross_losses, configs: list[SimConfig]) -> np.ndarray:
    """Maximize each UE's objective R_S(P) + zeta * R_I(P) over the lattice
    bisect_lo_dbm + k * _LATTICE_STEP_DB, from bisect_lo_dbm up to its
    highest power at most p_max_dbm, once per config of a group (see
    engine.run).

    pl_db holds n serving losses; row u of the (n, K) cross_losses holds UE
    u's neighbor losses ascending, then inf (see cnb_neighbor_losses).
    Returns the (len(configs), n) powers (dBm): per config and UE, the
    lowest lattice power with the largest objective value. Each power is the
    one a solve of that UE alone returns, whatever UEs share its batch.

    The search is a branch-and-bound over (config, UE) rows on int lattice
    indices k in [0, top], the powers bisect_lo_dbm + k * step. R_S is
    nondecreasing in P and R_I nonincreasing, and rounded + and * by a
    zeta > 0 are monotone, so no point inside a lattice interval [a, b]
    has a value above the bound R_S(b) + zeta * R_I(a). Each row starts
    from [0, top], both ends evaluated. Each level drops every interval
    whose bound is below the row's best value, or equals it and starts at
    or after the row's best index (the lowest index with the best value so
    far), as it can hold no larger value and no equal one at a lower index,
    and splits every other interval with an interior point at its
    midpoint. So the result is the exhaustive lattice argmax. Every row of a UE splits the same dyadic tree, so a
    solve evaluates each (UE, index) pair at most once, for all configs;
    at worst, that is the whole lattice.
    """
    pl = np.asarray(pl_db, dtype=float)
    cross = np.asarray(cross_losses, dtype=float)
    config, n = configs[0], len(pl)
    lo, step = config.bisect_lo_dbm, _LATTICE_STEP_DB
    # round() lands within half a step, so at most one step above p_max.
    top = round((config.p_max_dbm - lo) / step)
    top -= lo + top * step > config.p_max_dbm

    def terms(ue, k):
        """R_S and R_I (cnb_terms) at the indices k of the UEs ue. Each
        distinct pair, keyed ue * (top + 1) + k (an int64 the bisect_lo_dbm
        size rule keeps below 2**32), is evaluated once, UE-major with powers
        ascending, _CHUNK_PAIRS pairs at a time so the (pairs, neighbors)
        temporaries stay in cache."""
        keys, at = np.unique(ue * (top + 1) + k, return_inverse=True)
        ue, k = np.divmod(keys, top + 1)
        rs, ri = np.empty((2, len(keys)))
        for a in range(0, len(keys), _CHUNK_PAIRS):
            c = slice(a, a + _CHUNK_PAIRS)
            rs[c], ri[c] = cnb_terms(lo + k[c] * step, pl[ue[c]],
                                     cross[ue[c]], config)
        return rs[at], ri[at]

    # Row r is config r // n at UE r % n. An interval is (row, a, b) with
    # R_I(a) and R_S(b), the two terms its bound reads.
    row = np.arange(len(configs) * n)
    zeta = np.repeat([c.zeta for c in configs], n)
    rs, ri = terms(np.tile(row % n, 2), np.repeat([0, top], len(row)))
    at_lo, at_top = np.split(rs + np.tile(zeta, 2) * ri, 2)
    best = np.maximum(at_lo, at_top)
    best_k = np.where(at_lo >= at_top, 0, top)
    a, b = np.zeros_like(row), np.full_like(row, top)
    ri_a, rs_b = ri[:len(row)], rs[len(row):]
    while True:
        z, best_row = zeta[row], best[row]
        bound = rs_b + z * ri_a
        keep = np.flatnonzero((b - a > 1) & (
            (bound > best_row) | (bound == best_row) & (a < best_k[row])))
        if not keep.size:
            break
        row, a, b, ri_a, rs_b, z = (x[keep]
                                    for x in (row, a, b, ri_a, rs_b, z))
        m = (a + b) // 2
        rs, ri = terms(row % n, m)
        value = rs + z * ri
        # A row whose best value rises drops its best index (top, above
        # every midpoint, stands in); then each row takes the lowest of its
        # midpoints at its best value, if lower.
        before = best.copy()
        np.maximum.at(best, row, value)
        best_k[best > before] = top
        tie = value == best[row]
        np.minimum.at(best_k, row[tie], m[tie])
        row, a, b = np.tile(row, 2), np.append(a, m), np.append(m, b)
        ri_a, rs_b = np.append(ri_a, ri), np.append(rs, rs_b)
    return lo + best_k.reshape(len(configs), n) * step


def compute_powers(configs: list[SimConfig], loss_db: np.ndarray,
                   serving: np.ndarray) -> np.ndarray:
    """Per-RB transmit power (dBm) of every UE, one row per config of a group
    (see engine.run): shape (len(configs), n_ues).

    Each UE's power depends only on its own row of the (UE, cell) loss matrix.
    """
    config, n_ues = configs[0], loss_db.shape[0]
    pl = loss_db[np.arange(n_ues), serving]
    if config.scheme == "cnb":
        cross = cnb_neighbor_losses(loss_db, serving, pl_threshold_db(config))
        return cnb_solve(pl, cross, configs)
    if config.scheme == "fpc":
        row = fpc_power(pl, config)
    elif config.scheme == "rlpc":
        row = rlpc_power(pl, _sorted_cross_losses(loss_db, serving)[:, 0],
                         config)
    else:
        row = np.full(n_ues, config.p_max_dbm)
    return np.tile(row, (len(configs), 1))
