"""Reference oracle for ulsim.powerctl: the C&B objective with every neighbor
term evaluated, the scalar per-UE C&B solver and the per-UE compute_powers
loop that the batched array code replaced, kept unchanged except that
path-loss rows are read from the loss matrix directly, the parameters from
SimConfig, and the baseline formulas are written out in their scalar form."""

from __future__ import annotations

import numpy as np

from ulsim.config import _FD_STEP_DB, _SCREEN_STEP_DB, SimConfig
from ulsim.linkbudget import amc_realized
from ulsim.powerctl import _PLATEAU_EPS, cnb_rs, pl_threshold_db
from ulsim.units import db_to_linear


def cnb_ri(p_dbm, cross_losses, config: SimConfig):
    """Neighbor-throughput estimate with every term evaluated, added left to
    right: sum_j f(snr_i / (iot_i + 10^((p - cross_j - n0)/10))), where a
    cross loss of inf (no neighbor) adds 0."""
    cross = np.asarray(cross_losses, dtype=float)
    p = np.asarray(p_dbm, dtype=float)
    inr = db_to_linear(p[..., None] - cross - config.n0_dbm)
    sinr = db_to_linear(config.snr_i_db) / (db_to_linear(config.iot_i_db) + inr)
    terms = np.where(np.isfinite(cross), amc_realized(sinr, config), 0.0)
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total = total + terms[..., j]
    return total


def cnb_objective(p_dbm, pl_db, cross_losses, config: SimConfig):
    """Weighted sum R_S(P) + zeta * R_I(P) maximized by the controller."""
    return (cnb_rs(p_dbm, pl_db, config)
            + config.zeta * cnb_ri(p_dbm, cross_losses, config))


def _cnb_breakpoints(pl_db: float, cross, config: SimConfig) -> np.ndarray:
    """Powers (dBm) where the piecewise objective kinks or jumps.

    One point where the own-throughput curve saturates, and per neighbor the
    powers at which the neighbor's assumed SINR crosses the decodable-region
    ceiling (cost becomes nonzero) and floor (cost saturates).
    """
    x_cap = (2.0 ** (config.t_max / config.amc_a) - 1.0) / config.amc_b
    pts = [pl_db + config.n0_dbm + config.iot_s_db + 10.0 * np.log10(x_cap)]
    snr_i = db_to_linear(config.snr_i_db)
    iot_i = db_to_linear(config.iot_i_db)
    cross = np.asarray(cross, dtype=float)
    for edge_db in (config.sinr_ceiling_db, config.sinr_floor_db):
        inr = snr_i / db_to_linear(edge_db) - iot_i
        if inr > 0 and cross.size:
            pts.extend(cross + config.n0_dbm + 10.0 * np.log10(inr))
    return np.asarray(pts)


def cnb_solve(pl_db: float, cross_losses, config: SimConfig,
              return_iters: bool = False):
    """Maximize the objective over [bisect_lo, p_max] dBm by bisection.

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
    iterations (bisect_lo_dbm = -9 with tol_db = 1 takes 6). There is no
    iteration cap: a caller must keep tol_db above the float spacing of the
    powers, or a bracket never gets narrower than tol_db and the loop never
    ends.
    """
    cross = np.asarray(cross_losses, dtype=float)
    lo, hi = config.bisect_lo_dbm, config.p_max_dbm
    step = _FD_STEP_DB
    n_steps = int(round((hi - lo) / step))

    def value(p):
        return np.atleast_1d(
            cnb_objective(np.asarray(p, dtype=float), pl_db, cross, config))

    def bisect(left: float, right: float) -> tuple[float, int]:
        it = 0
        while right - left >= config.tol_db:
            mid = 0.5 * (left + right)
            y = value([mid - step, mid + step])
            if (y[1] - y[0]) / (2.0 * step) > _PLATEAU_EPS:
                left = mid
            else:
                right = mid
            it += 1
        return 0.5 * (left + right), it

    stationary, iters = bisect(lo, hi)

    brk = _cnb_breakpoints(pl_db, cross, config)
    margin = 2.0 * step
    screen = np.concatenate([np.arange(lo + margin, hi - margin, _SCREEN_STEP_DB),
                             brk - margin, brk + margin, [hi - margin]])
    screen = np.unique(np.clip(screen, lo + margin, hi - margin))
    slope = (value(screen + step) - value(screen - step)) / (2.0 * step)
    sign = slope > _PLATEAU_EPS
    peaks = [stationary]
    for i in range(len(screen) - 1):
        if sign[i] and not sign[i + 1]:
            p, it = bisect(screen[i], screen[i + 1])
            peaks.append(p)
            iters = max(iters, it)

    raw = np.concatenate([peaks, brk, [lo, hi]])
    k = (raw - lo) / step
    ks = np.unique(np.clip(np.concatenate([np.floor(k), np.ceil(k)]), 0, n_steps))
    cands = lo + ks * step
    vals = value(cands)
    best = float(cands[vals >= vals.max()].min())
    return (best, iters) if return_iters else best


def cnb_neighbors(loss_row: np.ndarray, serving_cell: int,
                  config: SimConfig) -> np.ndarray:
    """Cross losses toward cells this UE can interfere above the noise floor.

    Non-serving cells with loss strictly below the threshold, ascending.
    """
    th = pl_threshold_db(config)
    losses = np.sort(np.delete(loss_row, serving_cell))
    return losses[losses < th]


def compute_powers(config: SimConfig, loss_db: np.ndarray,
                   serving: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE power (dBm) and C&B iteration count (0 for the other schemes),
    one scalar solve per UE."""
    n_ues = loss_db.shape[0]
    out = np.empty(n_ues)
    iters = np.zeros(n_ues, dtype=int)
    for u in range(n_ues):
        s = int(serving[u])
        pl = float(loss_db[u, s])
        c = config
        if c.scheme == "maxpower":
            out[u] = c.p_max_dbm
        elif c.scheme == "fpc":
            out[u] = min(c.p_max_dbm, c.p0_fpc_dbm + c.kappa * pl)
        elif c.scheme == "rlpc":
            pl_min = float(np.sort(np.delete(loss_db[u], s))[0])
            out[u] = min(c.p_max_dbm,
                         c.p0_rlpc_dbm + c.phi * pl + (1.0 - c.phi) * pl_min)
        else:
            cross = cnb_neighbors(loss_db[u], s, config)
            out[u], iters[u] = cnb_solve(pl, cross, config, return_iters=True)
    return out, iters
