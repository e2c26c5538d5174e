"""Open-loop uplink power controllers.

Four schemes: max power, fractional path-loss compensation (FPC), reverse-link
power control (RLPC), and the coordinated checks-and-balances controller (CnB)
that weighs a UE's own throughput against the throughput it costs the cells it
interferes with, and maximizes the weighted sum by bisection on the derivative.

Every controller is a pure function of one UE's path-loss row and static
parameters, so per-UE solves are independent and fully distributed; the code
computes all UEs of a drop together, as array expressions and one batched
C&B solve.
"""

from __future__ import annotations

import numpy as np

from .config import SimConfig
from .linkbudget import amc_realized, amc_smooth, snr_of
from .units import db_to_linear

__all__ = [
    "pl_threshold_db",
    "fpc_power",
    "rlpc_power",
    "cnb_rs",
    "cnb_neighbor_losses",
    "cnb_ri",
    "cnb_objective",
    "cnb_solve",
    "compute_powers",
]

# Treat near-zero finite-difference slopes as nonpositive so plateaus (the
# capped regions of the throughput curve) resolve to the lowest maximizing
# power.
_PLATEAU_EPS = 1e-9
_FD_STEP_DB = 0.01
# Screening spacing for derivative sign changes between breakpoints; the
# smooth parts of the objective vary on multi-dB scales, so 1 dB suffices.
_SCREEN_STEP_DB = 1.0
# (UE, power) pairs per objective evaluation in the batched solve. Medians of
# 7 solves of a 3,420-UE drop: 1024 pairs 0.41 s, 2048 0.37 s, 4096 0.38 s;
# 256 pay numpy's per-call cost (0.55 s) and 16384 fall out of cache (0.66 s).
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
    pl_threshold_db), ascending, then inf for every other cell: the layout
    cnb_solve reads.
    """
    cross = _sorted_cross_losses(loss_db, serving)
    return np.where(cross < th_db, cross, np.inf)


def cnb_ri(p_dbm, cross_losses, config: SimConfig):
    """Neighbor-throughput estimate, summed over interfered cells.

    Each term is f(assumed SNR / (assumed IoT + INR_j(P))) with f including
    the decodable SINR region: a neighbor assumed at the region ceiling loses
    nothing until this UE's interference pulls it below the ceiling, so at
    vanishing power each term saturates at t_max. Nonincreasing in P; zero
    when no neighbor is below the loss threshold.
    """
    cross = np.asarray(cross_losses, dtype=float)
    p = np.asarray(p_dbm, dtype=float)
    inr = db_to_linear(p[..., None] - cross - config.n0_dbm)
    sinr = db_to_linear(config.snr_i_db) / (db_to_linear(config.iot_i_db) + inr)
    return amc_realized(sinr, config).sum(axis=-1)


def cnb_objective(p_dbm, pl_db, cross_losses, config: SimConfig):
    """Weighted sum R_S(P) + zeta * R_I(P) maximized by the controller."""
    return (cnb_rs(p_dbm, pl_db, config)
            + config.zeta * cnb_ri(p_dbm, cross_losses, config))


def _cnb_breakpoints(pl_db: np.ndarray, cross: np.ndarray,
                     config: SimConfig) -> np.ndarray:
    """Powers (dBm) where each row's piecewise objective kinks or jumps.

    One point where the own-throughput curve saturates, and per neighbor the
    powers at which the neighbor's assumed SINR crosses the decodable-region
    ceiling (cost becomes nonzero) and floor (cost saturates).
    """
    n0_dbm = config.n0_dbm
    x_cap = (2.0 ** (config.t_max / config.amc_a) - 1.0) / config.amc_b
    cap = pl_db + n0_dbm + config.iot_s_db + 10.0 * np.log10(x_cap)
    pts = [cap[:, None]]
    snr_i = db_to_linear(config.snr_i_db)
    iot_i = db_to_linear(config.iot_i_db)
    for edge_db in (config.sinr_ceiling_db, config.sinr_floor_db):
        inr = snr_i / db_to_linear(edge_db) - iot_i
        if inr > 0:
            pts.append(cross + n0_dbm + 10.0 * np.log10(inr))
    return np.concatenate(pts, axis=1)


def cnb_solve(pl_db, cross_losses,
              config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Maximize each UE's objective over [bisect_lo, p_max] dBm by bisection.

    pl_db holds n serving losses; row u of the (n, K) cross_losses holds UE
    u's neighbor losses ascending, then inf (see cnb_neighbor_losses).
    Returns the n powers (dBm) and the n iteration counts, each the longest
    bracketing loop run for that UE.

    The stationarity test is a central finite difference of the objective
    (the capped throughput curve makes the objective piecewise, which finite
    differences handle uniformly). Positive slope moves the left bound up,
    otherwise the right bound moves down; plateaus count as nonpositive,
    biasing toward the lowest maximizer.

    A single bisection assumes the rising region precedes the falling one,
    which the region-capped neighbor terms can break: the derivative sign is
    therefore screened across the objective's breakpoints (and a coarse
    lattice; the smooth parts vary on multi-dB scales), and every remaining
    rise-to-fall bracket is bisected as well. The result is reported on the
    finite-difference lattice lo + k*step: the lowest lattice power attaining
    the best objective value among the located peaks and breakpoints, making
    ties deterministic. No bracketing loop exceeds ceil(log2(range/tol)) + 1
    iterations, the most that halving the range below tol takes, so a tol
    below the float spacing of the powers still ends.

    UEs are solved together in groups of equal neighbor count, so every
    objective row sums exactly that UE's terms and each power is the one a
    solve of that UE alone returns.
    """
    pl = np.asarray(pl_db, dtype=float)
    cross = np.asarray(cross_losses, dtype=float)
    counts = np.isfinite(cross).sum(axis=1)
    powers = np.empty(len(pl))
    iters = np.empty(len(pl), dtype=int)
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        powers[rows], iters[rows] = _solve_group(pl[rows], cross[rows, :k],
                                                 config)
    return powers, iters


def _solve_group(pl: np.ndarray, cross: np.ndarray, config: SimConfig):
    """cnb_solve for UEs that all have cross.shape[1] neighbors."""
    n = len(pl)
    lo, hi, tol = config.bisect_lo_dbm, config.p_max_dbm, config.tol_db
    step = _FD_STEP_DB
    n_steps = int(round((hi - lo) / step))
    max_iters = int(np.ceil(np.log2((hi - lo) / tol))) + 1

    def value(p, ue):
        """Objective of each power p[j] for the UE ue[j], _CHUNK_PAIRS pairs
        at a time, so the (pairs, neighbors) temporaries stay in cache."""
        out = np.empty(len(p))
        for a in range(0, len(p), _CHUNK_PAIRS):
            u = ue[a:a + _CHUNK_PAIRS]
            out[a:a + _CHUNK_PAIRS] = cnb_objective(p[a:a + _CHUNK_PAIRS],
                                                    pl[u], cross[u], config)
        return out

    def distinct_value(p):
        """Objective of the (n, m) powers p, each row sorted: only the first
        copy of each power is evaluated, and its copies take its value."""
        new = np.ones(p.shape, dtype=bool)
        new[:, 1:] = p[:, 1:] != p[:, :-1]
        y = value(p[new], np.nonzero(new)[0])
        return y[np.cumsum(new).reshape(p.shape) - 1]

    def bisect(left, right, ue):
        """Bisect the brackets [left, right] of the UEs ue, each until narrower
        than tol_db; returns the midpoints and the iterations each took."""
        left, right = left.copy(), right.copy()
        it = np.zeros(len(ue), dtype=int)
        active = np.flatnonzero(right - left >= tol)
        for _ in range(max_iters):
            if not active.size:
                break
            mid = 0.5 * (left[active] + right[active])
            y = value(np.stack([mid - step, mid + step], axis=1).ravel(),
                      np.repeat(ue[active], 2)).reshape(-1, 2)
            rising = (y[:, 1] - y[:, 0]) / (2.0 * step) > _PLATEAU_EPS
            left[active] = np.where(rising, mid, left[active])
            right[active] = np.where(rising, right[active], mid)
            it[active] += 1
            active = active[right[active] - left[active] >= tol]
        return 0.5 * (left + right), it

    stationary, iters = bisect(np.full(n, lo), np.full(n, hi), np.arange(n))

    brk = _cnb_breakpoints(pl, cross, config)
    margin = 2.0 * step
    lattice = np.arange(lo + margin, hi - margin, _SCREEN_STEP_DB)
    screen = np.concatenate([np.broadcast_to(lattice, (n, len(lattice))),
                             brk - margin, brk + margin,
                             np.full((n, 1), hi - margin)], axis=1)
    # Repeats stay in the screen (equal neighbors share a sign, so the
    # rise-to-fall pairs are those of the deduplicated screen) but are
    # evaluated once.
    screen = np.sort(np.clip(screen, lo + margin, hi - margin), axis=1)
    slope = ((distinct_value(screen + step) - distinct_value(screen - step))
             / (2.0 * step))
    sign = slope > _PLATEAU_EPS
    ue, i = np.nonzero(sign[:, :-1] & ~sign[:, 1:])
    peaks, peak_iters = bisect(screen[ue, i], screen[ue, i + 1], ue)
    np.maximum.at(iters, ue, peak_iters)

    # Each UE's peaks in a row of its own, padded with its stationary point.
    rank = np.arange(len(ue)) - np.searchsorted(ue, ue)
    extra = np.repeat(stationary[:, None], rank.max(initial=-1) + 1, axis=1)
    extra[ue, rank] = peaks

    raw = np.concatenate([stationary[:, None], extra, brk,
                          np.full((n, 1), lo), np.full((n, 1), hi)], axis=1)
    k = (raw - lo) / step
    ks = np.clip(np.concatenate([np.floor(k), np.ceil(k)], axis=1), 0, n_steps)
    cands = np.sort(lo + ks * step, axis=1)
    vals = distinct_value(cands)
    best = np.where(vals >= vals.max(axis=1, keepdims=True), cands, np.inf)
    return best.min(axis=1), iters


def compute_powers(config: SimConfig, loss_db: np.ndarray,
                   serving: np.ndarray) -> np.ndarray:
    """Per-RB transmit power (dBm) of every UE under config.scheme.

    Each UE's power depends only on its own row of the (UE, cell) loss matrix.
    """
    n_ues = loss_db.shape[0]
    pl = loss_db[np.arange(n_ues), serving]
    if config.scheme == "maxpower":
        return np.full(n_ues, config.p_max_dbm)
    if config.scheme == "fpc":
        return fpc_power(pl, config)
    if config.scheme == "rlpc":
        return rlpc_power(pl, _sorted_cross_losses(loss_db, serving)[:, 0],
                          config)
    cross = cnb_neighbor_losses(loss_db, serving, pl_threshold_db(config))
    return cnb_solve(pl, cross, config)[0]
