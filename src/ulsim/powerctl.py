"""Open-loop uplink power controllers.

Four schemes: max power, fractional path-loss compensation (FPC), reverse-link
power control (RLPC), and the coordinated checks-and-balances controller (CnB)
that weighs a UE's own throughput against the throughput it costs the cells it
interferes with, and maximizes the weighted sum over a 0.01 dB power lattice
by a two-level search seeded by the objective's breakpoints.

Every controller is a pure function of one UE's path-loss row and static
parameters, so per-UE solves are independent and fully distributed; the code
computes all UEs of a drop together, as array expressions and one batched
C&B solve for every config of a group (engine.run forms the groups).
"""

from __future__ import annotations

import numpy as np

from .config import _COARSE_STEP_DB, _LATTICE_STEP_DB, SimConfig
from .linkbudget import amc_realized, amc_smooth, snr_of
from .parallel import two_thread_map
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
# 11 solves of a 3,420-UE drop on 2 vCPUs: 1024 pairs 0.26 s, 2048 0.20 s,
# 4096 0.21 s (0.29 s against 2048's 0.21 s over 21 more); 256 pay numpy's
# per-call cost (0.57 s) and 16384 fall out of cache (0.33 s).
_CHUNK_PAIRS = 2048
# Equal slices of UEs, by neighbor count, that cnb_solve runs as work units;
# fewer raise the two threads' peak memory, more pay numpy's per-call cost.
_SOLVE_UNITS = 20


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
    cnb_solve reads. An inf is no neighbor and adds 0 to cnb_ri.
    """
    cross = _sorted_cross_losses(loss_db, serving)
    return np.where(cross < th_db, cross, np.inf)


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


def _cnb_breakpoints(pl_db: np.ndarray, cross: np.ndarray,
                     config: SimConfig) -> np.ndarray:
    """Powers (dBm) where each row's piecewise objective kinks or jumps.

    One point where the own-throughput curve saturates, and per neighbor the
    powers at which the neighbor's assumed SINR crosses the decodable-region
    ceiling (cost becomes nonzero) and floor (cost saturates).
    """
    n0_dbm = config.n0_dbm
    cap = pl_db + n0_dbm + config.iot_s_db + 10.0 * np.log10(config.x_cap)
    pts = [cap[:, None]]
    snr_i = db_to_linear(config.snr_i_db)
    iot_i = db_to_linear(config.iot_i_db)
    for edge_db in (config.sinr_ceiling_db, config.sinr_floor_db):
        inr = snr_i / db_to_linear(edge_db) - iot_i
        if inr > 0:
            pts.append(cross + n0_dbm + 10.0 * np.log10(inr))
    return np.concatenate(pts, axis=1)


def cnb_solve(pl_db, cross_losses, configs: list[SimConfig]) -> np.ndarray:
    """Maximize each UE's objective R_S(P) + zeta * R_I(P) over the lattice
    bisect_lo_dbm + k * _LATTICE_STEP_DB, from bisect_lo_dbm up to its
    highest power at most p_max_dbm, once per config of a group (see
    engine.run).

    pl_db holds n serving losses; row u of the (n, K) cross_losses holds UE
    u's neighbor losses ascending, then inf (see cnb_neighbor_losses).
    Returns the (len(configs), n) powers (dBm): per config and UE, the lowest
    lattice power with the best objective value among the points the
    two-level search of _solve_group evaluates. Each power is the one a solve
    of that UE alone returns, whatever UEs share its batch.
    """
    pl = np.asarray(pl_db, dtype=float)
    cross = np.asarray(cross_losses, dtype=float)
    counts = np.isfinite(cross).sum(axis=1)
    powers = np.empty((len(configs), len(pl)))
    # The UEs by descending neighbor count, cut into _SOLVE_UNITS equal work
    # units, each trimmed to its first UE's count: cnb_ri adds a row's
    # trailing infs as 0, so the trim changes no power.
    order = np.argsort(-counts, kind="stable")
    units = [rows for rows in np.array_split(order, _SOLVE_UNITS) if len(rows)]

    def solve(rows):
        powers[:, rows] = _solve_group(pl[rows], cross[rows, :counts[rows[0]]],
                                       configs)

    two_thread_map(solve, units)
    return powers


def _lowest_best(k, values):
    """Per row of the last axis, the lowest lattice index k of the largest
    value; every row holds one, so k.max() stands in for the others."""
    best = values >= values.max(axis=-1, keepdims=True)
    return np.where(best, k, k.max()).min(axis=-1)


def _solve_group(pl: np.ndarray, cross: np.ndarray, configs: list[SimConfig]):
    """cnb_solve for one unit of UEs, their rows inf-padded to one width.

    The search runs on int lattice indices k in [0, top], the powers
    bisect_lo_dbm + k * step, where top is the highest index whose power is
    at most p_max_dbm. Level 1 takes every _COARSE_STEP_DB of the lattice,
    its top, and the two lattice points around each breakpoint
    (_cnb_breakpoints), where the objective kinks or jumps; it is evaluated
    once per UE for all configs. Level 2 takes, per (config, UE) row, the
    lattice points within _COARSE_STEP_DB of the row's lowest best level-1
    point. That point is among them and a pair's value is the same in every
    call, so the lowest best point of level 2 is the lowest best point of
    both levels. Both levels go through one evaluator, objective, which
    evaluates R_S and R_I (cnb_terms) once per distinct (UE, index) pair for
    all configs, each weighing them with its own zeta.
    """
    config, n = configs[0], len(pl)
    lo, step = config.bisect_lo_dbm, _LATTICE_STEP_DB
    # round() lands within half a step, so at most one step above p_max.
    top = round((config.p_max_dbm - lo) / step)
    top -= lo + top * step > config.p_max_dbm
    stride = round(_COARSE_STEP_DB / step)
    zeta = np.array([c.zeta for c in configs], dtype=float)[:, None, None]

    def objective(k):
        """R_S + zeta * R_I at the indices k[z, u] of each UE u, for k of
        shape (1 or len(configs), n, m). Each distinct (UE, index) pair, keyed
        u * (top + 1) + k (an int64 the bisect_lo_dbm size rule keeps below
        2**32), is evaluated once, UE-major with powers ascending,
        _CHUNK_PAIRS pairs at a time so the (pairs, neighbors) temporaries
        stay in cache; every copy takes its key's values through
        np.unique's inverse, which has the keys' shape from numpy 2.0."""
        keys, at = np.unique(np.arange(n)[:, None] * (top + 1) + k,
                             return_inverse=True)
        ue, q = np.divmod(keys, top + 1)
        rs, ri = np.empty((2, len(keys)))
        for a in range(0, len(keys), _CHUNK_PAIRS):
            c = slice(a, a + _CHUNK_PAIRS)
            rs[c], ri[c] = cnb_terms(lo + q[c] * step, pl[ue[c]],
                                     cross[ue[c]], config)
        return rs[at] + zeta * ri[at]

    coarse = np.append(np.arange(0, top, stride), top)
    brk = (_cnb_breakpoints(pl, cross, config) - lo) / step
    k1 = np.clip(np.concatenate([np.broadcast_to(coarse, (n, len(coarse))),
                                 np.floor(brk), np.ceil(brk)], axis=1),
                 0, top).astype(int)[None]
    centre = _lowest_best(k1, objective(k1))
    k2 = np.clip(centre[..., None] + np.arange(-stride, stride + 1), 0, top)
    return lo + _lowest_best(k2, objective(k2)) * step


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
