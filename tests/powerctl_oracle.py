"""Reference oracle for ulsim.powerctl: the C&B objective with every neighbor
term evaluated, the C&B solve as an exhaustive search of its power lattice,
and the per-UE compute_powers loop that the batched array code replaced,
kept unchanged except that path-loss rows are read from the loss matrix
directly, the parameters from SimConfig, and the baseline formulas are
written out in their scalar form."""

from __future__ import annotations

import numpy as np

from ulsim.config import _LATTICE_STEP_DB, SimConfig
from ulsim.linkbudget import amc_realized
from ulsim.powerctl import cnb_rs, pl_threshold_db
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


def cnb_solve(pl_db: float, cross_losses, config: SimConfig) -> float:
    """The exhaustive argmax of the objective over the points of the lattice
    bisect_lo + k * step from bisect_lo up to p_max dBm: the lowest lattice
    power with the largest value."""
    lo, step = config.bisect_lo_dbm, _LATTICE_STEP_DB
    grid = lo + np.arange(int((config.p_max_dbm - lo) / step) + 2) * step
    grid = grid[grid <= config.p_max_dbm]
    return float(grid[np.argmax(cnb_objective(grid, pl_db, cross_losses,
                                              config))])


def cnb_neighbors(loss_row: np.ndarray, serving_cell: int,
                  config: SimConfig) -> np.ndarray:
    """Cross losses toward cells this UE can interfere above the noise floor.

    Non-serving cells with loss strictly below the threshold, ascending.
    """
    th = pl_threshold_db(config)
    losses = np.sort(np.delete(loss_row, serving_cell))
    return losses[losses < th]


def compute_powers(config: SimConfig, loss_db: np.ndarray,
                   serving: np.ndarray) -> np.ndarray:
    """Per-UE power (dBm), one scalar solve per UE."""
    n_ues = loss_db.shape[0]
    out = np.empty(n_ues)
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
            out[u] = cnb_solve(pl, cross, config)
    return out
