"""Open-loop uplink power controllers.

Four schemes: max power, fractional path-loss compensation (FPC), reverse-link
power control (RLPC), and the coordinated checks-and-balances controller (CnB)
that weighs a UE's own throughput against the throughput it costs the cells it
interferes with, and maximizes the weighted sum by bisection on the derivative.

Every controller is a pure function of one UE's path-loss row and static
parameters, so per-UE solves are independent and fully distributed; the code
computes all UEs of a drop together, as array expressions and one batched
C&B solve for every config of a group that differs only in zeta.
"""

from __future__ import annotations

import numpy as np

from .config import SimConfig
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

    An inf cross loss marks no neighbor and adds exactly 0; each power's
    terms are added one at a time in neighbor order, so trailing infs change
    no sum. Terms provably at the ceiling (_saturation_db) are t_max
    unevaluated; the others (NaN gaps too) are computed as if none were.
    """
    cross = np.asarray(cross_losses, dtype=float)
    p = np.asarray(p_dbm, dtype=float)
    gap = p[..., None] - cross
    neighbor = np.isfinite(cross)
    live = neighbor & ~(gap < _saturation_db(config))
    inr = db_to_linear(gap[live] - config.n0_dbm)
    sinr = db_to_linear(config.snr_i_db) / (db_to_linear(config.iot_i_db) + inr)
    # Neighbor-major, so summing axis 0 adds each power's terms in order;
    # numpy would sum a lone power's terms pairwise, so those accumulate.
    terms = np.zeros(gap.shape[-1:] + gap.shape[:-1])
    by_power = np.moveaxis(terms, 0, -1)
    np.copyto(by_power, config.t_max, where=neighbor)
    by_power[live] = amc_realized(sinr, config)
    if len(terms) and terms[0].size == 1:
        return np.cumsum(terms, axis=0)[-1]
    return terms.sum(axis=0)


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
              configs: list[SimConfig]) -> tuple[np.ndarray, np.ndarray]:
    """Maximize each UE's objective R_S(P) + zeta * R_I(P) over [bisect_lo,
    p_max] dBm by bisection, once per config of a group whose configs differ
    at most in zeta.

    pl_db holds n serving losses; row u of the (n, K) cross_losses holds UE
    u's neighbor losses ascending, then inf (see cnb_neighbor_losses).
    Returns two (len(configs), n) arrays: per config, the powers (dBm) and
    the iteration counts, each the longest bracketing loop run for that UE.

    Every rise-to-fall bracket of the objective is bisected (see
    _solve_group), and the result is the lowest power on the lattice
    bisect_lo + k * _FD_STEP_DB that attains the best objective value among
    the located peaks and breakpoints. No bracketing loop exceeds
    ceil(log2(range/tol)) + 1 iterations, the most that halving the range
    below tol takes, so a tol below the float spacing of the powers still
    ends. Each power is the one a solve of that UE alone returns, whatever
    UEs share its batch.
    """
    pl = np.asarray(pl_db, dtype=float)
    cross = np.asarray(cross_losses, dtype=float)
    counts = np.isfinite(cross).sum(axis=1)
    powers = np.empty((len(configs), len(pl)))
    iters = np.empty((len(configs), len(pl)), dtype=int)
    # The UEs by descending neighbor count, cut into _SOLVE_UNITS equal work
    # units, each trimmed to its first UE's count: cnb_ri adds a row's
    # trailing infs as 0, so the trim changes no power.
    order = np.argsort(-counts, kind="stable")
    units = [rows for rows in np.array_split(order, _SOLVE_UNITS) if len(rows)]

    def solve(rows):
        powers[:, rows], iters[:, rows] = _solve_group(
            pl[rows], cross[rows, :counts[rows[0]]], configs)

    two_thread_map(solve, units)
    return powers, iters


def _solve_group(pl: np.ndarray, cross: np.ndarray, configs: list[SimConfig]):
    """cnb_solve for one unit of UEs, their rows inf-padded to one width.

    The stationarity test is a central finite difference of the objective,
    which handles its capped, piecewise curve uniformly: a positive slope
    moves the left bound up, otherwise the right bound moves down, so
    plateaus bias toward the lowest maximizer. One bisection assumes the
    rise precedes the fall, which the region-capped neighbor terms can
    break, so the slope's sign is first screened across the breakpoints
    and a coarse lattice. Each (config, UE) row keeps its main bracket
    [lo, hi] and its rise-to-fall brackets in one bracket array, bisected
    together in one loop. The screen, each bisection pass and the
    candidates go through one evaluator, objective, which evaluates R_S and
    R_I (cnb_terms) once per distinct (UE, power) pair for all configs,
    each weighing them with its own zeta.
    """
    config, n = configs[0], len(pl)
    lo, hi, tol = config.bisect_lo_dbm, config.p_max_dbm, config.tol_db
    step = _FD_STEP_DB
    n_steps = int(round((hi - lo) / step))
    max_iters = int(np.ceil(np.log2((hi - lo) / tol))) + 1
    zeta = np.array([c.zeta for c in configs], dtype=float)[:, None, None]

    def objective(p):
        """R_S + zeta * R_I of the powers p[z, u] of each UE u, for p of shape
        (1 or len(configs), n, m). Only the first copy of a power among all
        of u's rows is evaluated, _CHUNK_PAIRS (UE, power) pairs at a time so
        the (pairs, neighbors) temporaries stay in cache; copies take its
        values."""
        by_ue = p.transpose(1, 0, 2).reshape(n, -1)
        order = np.argsort(by_ue, axis=1)
        ps = np.take_along_axis(by_ue, order, axis=1)
        new = np.ones(ps.shape, dtype=bool)
        new[:, 1:] = ps[:, 1:] != ps[:, :-1]
        at = np.empty(ps.shape, dtype=int)
        np.put_along_axis(at, order, np.cumsum(new).reshape(ps.shape) - 1,
                          axis=1)
        at = at.reshape(n, len(p), -1).transpose(1, 0, 2)
        ue, q = np.nonzero(new)[0], ps[new]
        rs, ri = np.empty((2, len(q)))
        for a in range(0, len(q), _CHUNK_PAIRS):
            u = ue[a:a + _CHUNK_PAIRS]
            rs[a:a + _CHUNK_PAIRS], ri[a:a + _CHUNK_PAIRS] = cnb_terms(
                q[a:a + _CHUNK_PAIRS], pl[u], cross[u], config)
        return rs[at] + zeta * ri[at]

    def rising(p):
        """Whether the objective's central difference at each power of p is
        positive; plateaus are not."""
        m = p.shape[-1]
        y = objective(np.concatenate([p + step, p - step], axis=-1))
        return (y[..., :m] - y[..., m:]) / (2.0 * step) > _PLATEAU_EPS

    brk = _cnb_breakpoints(pl, cross, config)
    margin = 2.0 * step
    lattice = np.arange(lo + margin, hi - margin, _SCREEN_STEP_DB)
    screen = np.concatenate([np.broadcast_to(lattice, (n, len(lattice))),
                             brk - margin, brk + margin,
                             np.full((n, 1), hi - margin)], axis=1)
    # Repeats stay in the screen (equal neighbors share a sign, so the
    # rise-to-fall pairs are those of the deduplicated screen) but are
    # evaluated once, for all zetas.
    screen = np.sort(np.clip(screen, lo + margin, hi - margin), axis=1)
    sign = rising(screen[None])
    falls = sign[..., :-1] & ~sign[..., 1:]
    slot = np.cumsum(falls, axis=-1)

    # Bracket 0 of each (zeta, UE) row is [lo, hi]; slots 1... hold the row's
    # rise-to-fall brackets in screen order, then copies of bracket 0.
    left = np.full(falls.shape[:2] + (slot[..., -1].max() + 1,), lo)
    right = np.full(left.shape, hi)
    z, u, i = np.nonzero(falls)
    left[z, u, slot[z, u, i]] = screen[u, i]
    right[z, u, slot[z, u, i]] = screen[u, i + 1]
    it = np.zeros(left.shape, dtype=int)
    for _ in range(max_iters):
        active = right - left >= tol
        if not active.any():
            break
        # A finished bracket asks for its row's bracket-0 point, which is
        # evaluated anyway.
        mid = 0.5 * (left + right)
        up = rising(np.where(active, mid, mid[..., :1]))
        left = np.where(active & up, mid, left)
        right = np.where(active & ~up, mid, right)
        it += active

    fixed = np.concatenate([brk, np.full((n, 2), [lo, hi])], axis=1)
    k = (np.concatenate([0.5 * (left + right), np.broadcast_to(
        fixed, (len(configs),) + fixed.shape)], axis=-1) - lo) / step
    cands = lo + np.clip(np.concatenate([np.floor(k), np.ceil(k)], axis=-1),
                         0, n_steps) * step
    vals = objective(cands)
    best = np.where(vals >= vals.max(axis=-1, keepdims=True), cands, np.inf)
    return best.min(axis=-1), it.max(axis=-1)


def compute_powers(configs: list[SimConfig], loss_db: np.ndarray,
                   serving: np.ndarray) -> np.ndarray:
    """Per-RB transmit power (dBm) of every UE, one row per config of a group
    whose configs differ at most in zeta: shape (len(configs), n_ues).

    Each UE's power depends only on its own row of the (UE, cell) loss matrix.
    """
    config, n_ues = configs[0], loss_db.shape[0]
    pl = loss_db[np.arange(n_ues), serving]
    if config.scheme == "cnb":
        cross = cnb_neighbor_losses(loss_db, serving, pl_threshold_db(config))
        return cnb_solve(pl, cross, configs)[0]
    if config.scheme == "fpc":
        row = fpc_power(pl, config)
    elif config.scheme == "rlpc":
        row = rlpc_power(pl, _sorted_cross_losses(loss_db, serving)[:, 0],
                         config)
    else:
        row = np.full(n_ues, config.p_max_dbm)
    return np.tile(row, (len(configs), 1))
