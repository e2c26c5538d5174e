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

from dataclasses import dataclass

import numpy as np

from .linkbudget import AmcCurve, NoiseModel, amc_realized, amc_smooth, snr_of
from .topology import PathLossMap
from .units import db_to_linear

__all__ = [
    "CnbParams",
    "FpcParams",
    "RlpcParams",
    "MaxPowerParams",
    "SCHEMES",
    "ControllerSpec",
    "pl_threshold_db",
    "fpc_power",
    "rlpc_power",
    "max_power",
    "cnb_rs",
    "cnb_neighbor_losses",
    "cnb_ri",
    "cnb_objective",
    "cnb_solve",
    "compute_powers",
]

P_MAX_DBM = 23.0

# Treat near-zero finite-difference slopes as nonpositive so plateaus (the
# capped regions of the throughput curve) resolve to the lowest maximizing
# power.
_PLATEAU_EPS = 1e-9
_FD_STEP_DB = 0.01
# Screening spacing for derivative sign changes between breakpoints; the
# smooth parts of the objective vary on multi-dB scales, so 1 dB suffices.
_SCREEN_STEP_DB = 1.0
# UEs per objective evaluation in the batched solve: whole-batch temporaries
# fall out of cache and cost about 3x as much per neighbor term; 64 rows run
# no faster than 32 and hold twice the temporaries, 16 run about 10 % slower.
_CHUNK_ROWS = 32


@dataclass(frozen=True)
class CnbParams:
    zeta: float = 1.3
    iot_s_db: float = 9.0               # assumed own-cell interference level
    snr_i_db: float = 24.0              # assumed neighbor-UE received SNR
    iot_i_db: float = 5.0               # assumed neighbor IoT excluding this UE
    p_max_dbm: float = P_MAX_DBM
    bisect_lo_dbm: float = -10.0
    tol_db: float = 0.1
    pl_th_db: float | None = None       # None: p_max - N0 from the run's noise

    def __post_init__(self):
        if self.zeta <= 0:
            raise ValueError(f"zeta: must be positive, got {self.zeta}")
        if self.tol_db <= 0:
            raise ValueError(f"tol_db: must be positive, got {self.tol_db}")
        if self.bisect_lo_dbm >= self.p_max_dbm:
            raise ValueError(f"bisect_lo_dbm: must be below p_max_dbm = "
                             f"{self.p_max_dbm}, got {self.bisect_lo_dbm}")

    @property
    def bisect_hi_dbm(self) -> float:
        return self.p_max_dbm


@dataclass(frozen=True)
class FpcParams:
    p0_dbm: float = -87.0
    kappa: float = 0.8
    p_max_dbm: float = P_MAX_DBM

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa: must be in [0, 1], got {self.kappa}")


@dataclass(frozen=True)
class RlpcParams:
    p0_dbm: float = -102.0
    phi: float = 0.8
    p_max_dbm: float = P_MAX_DBM

    def __post_init__(self):
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"phi: must be in [0, 1], got {self.phi}")


@dataclass(frozen=True)
class MaxPowerParams:
    p_max_dbm: float = P_MAX_DBM


# Parameter class of each scheme, in the order the CLI lists them.
SCHEMES = {"cnb": CnbParams, "fpc": FpcParams, "rlpc": RlpcParams,
           "maxpower": MaxPowerParams}


@dataclass(frozen=True)
class ControllerSpec:
    kind: str                           # a key of SCHEMES
    params: CnbParams | FpcParams | RlpcParams | MaxPowerParams

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if not isinstance(self.params, SCHEMES[self.kind]):
            raise TypeError(f"controller {self.kind!r} needs "
                            f"{SCHEMES[self.kind].__name__}")


def pl_threshold_db(p_max_dbm: float, noise: NoiseModel) -> float:
    """Cross loss at which max-power interference equals the noise floor."""
    return p_max_dbm - noise.n0_dbm


def fpc_power(pl_db, p: FpcParams):
    """Fractional compensation: min(p_max, p0 + kappa * PL); PL may be an array."""
    return np.minimum(p.p_max_dbm, p.p0_dbm + p.kappa * pl_db)


def rlpc_power(pl_db, pl_min_db, p: RlpcParams):
    """Reverse-link: min(p_max, p0 + phi*PL + (1-phi)*PL_min_neighbor)."""
    return np.minimum(p.p_max_dbm,
                      p.p0_dbm + p.phi * pl_db + (1.0 - p.phi) * pl_min_db)


def max_power(p: MaxPowerParams) -> float:
    return p.p_max_dbm


def cnb_rs(p_dbm, pl_db, params: CnbParams, curve: AmcCurve,
           noise: NoiseModel):
    """Own-throughput estimate: f(SNR(P) / assumed IoT); nondecreasing in P."""
    sinr = snr_of(p_dbm, pl_db, noise) / db_to_linear(params.iot_s_db)
    return amc_smooth(sinr, curve)


def cnb_neighbor_losses(plmap: PathLossMap, serving: np.ndarray,
                        params: CnbParams, noise: NoiseModel) -> np.ndarray:
    """Cross losses toward the cells each UE can interfere above the noise floor.

    Row u holds UE u's non-serving losses strictly below the threshold,
    ascending, then inf for every other cell: the layout cnb_solve reads.
    """
    th = params.pl_th_db
    if th is None:
        th = pl_threshold_db(params.p_max_dbm, noise)
    cross = plmap.sorted_cross_losses(serving)
    return np.where(cross < th, cross, np.inf)


def cnb_ri(p_dbm, cross_losses, params: CnbParams, curve: AmcCurve,
           noise: NoiseModel):
    """Neighbor-throughput estimate, summed over interfered cells.

    Each term is f(assumed SNR / (assumed IoT + INR_j(P))) with f including
    the decodable SINR region: a neighbor assumed at the region ceiling loses
    nothing until this UE's interference pulls it below the ceiling, so at
    vanishing power each term saturates at t_max. Nonincreasing in P; zero
    when no neighbor is below the loss threshold.
    """
    cross = np.asarray(cross_losses, dtype=float)
    p = np.asarray(p_dbm, dtype=float)
    if cross.size == 0:
        zero = np.zeros(p.shape)
        return zero if zero.ndim else 0.0
    inr = db_to_linear(p[..., None] - cross - noise.n0_dbm)
    sinr = db_to_linear(params.snr_i_db) / (db_to_linear(params.iot_i_db) + inr)
    val = amc_realized(sinr, curve).sum(axis=-1)
    return val if val.ndim else float(val)


def cnb_objective(p_dbm, pl_db, cross_losses, params: CnbParams,
                  curve: AmcCurve, noise: NoiseModel):
    """Weighted sum R_S(P) + zeta * R_I(P) maximized by the controller."""
    return (cnb_rs(p_dbm, pl_db, params, curve, noise)
            + params.zeta * cnb_ri(p_dbm, cross_losses, params, curve, noise))


def _cnb_breakpoints(pl_db: np.ndarray, cross: np.ndarray, params: CnbParams,
                     curve: AmcCurve, noise: NoiseModel) -> np.ndarray:
    """Powers (dBm) where each row's piecewise objective kinks or jumps.

    One point where the own-throughput curve saturates, and per neighbor the
    powers at which the neighbor's assumed SINR crosses the decodable-region
    ceiling (cost becomes nonzero) and floor (cost saturates).
    """
    x_cap = (2.0 ** (curve.t_max / curve.a) - 1.0) / curve.b
    cap = pl_db + noise.n0_dbm + params.iot_s_db + 10.0 * np.log10(x_cap)
    pts = [cap[:, None]]
    snr_i = db_to_linear(params.snr_i_db)
    iot_i = db_to_linear(params.iot_i_db)
    for edge_db in (curve.sinr_ceiling_db, curve.sinr_floor_db):
        inr = snr_i / db_to_linear(edge_db) - iot_i
        if inr > 0:
            pts.append(cross + noise.n0_dbm + 10.0 * np.log10(inr))
    return np.concatenate(pts, axis=1)


def _objective_rows(p_dbm: np.ndarray, pl_db: np.ndarray, cross: np.ndarray,
                    params: CnbParams, curve: AmcCurve,
                    noise: NoiseModel) -> np.ndarray:
    """cnb_objective of the powers p_dbm[r] for the UE (pl_db[r], cross[r]).

    Evaluated _CHUNK_ROWS rows at a time, so the (rows, powers, neighbors)
    temporaries stay in cache.
    """
    out = np.empty(p_dbm.shape)
    for a in range(0, len(p_dbm), _CHUNK_ROWS):
        b = a + _CHUNK_ROWS
        out[a:b] = cnb_objective(p_dbm[a:b], pl_db[a:b, None],
                                 cross[a:b, None, :], params, curve, noise)
    return out


def cnb_solve(pl_db, cross_losses, params: CnbParams, curve: AmcCurve,
              noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
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
    ties deterministic. No bracketing loop exceeds ceil(log2(range/tol))
    iterations.

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
                                                 params, curve, noise)
    return powers, iters


def _solve_group(pl: np.ndarray, cross: np.ndarray, params: CnbParams,
                 curve: AmcCurve, noise: NoiseModel):
    """cnb_solve for UEs that all have cross.shape[1] neighbors."""
    n = len(pl)
    lo, hi = params.bisect_lo_dbm, params.bisect_hi_dbm
    step = _FD_STEP_DB
    n_steps = int(round((hi - lo) / step))

    def value(p, ue):
        return _objective_rows(p, pl[ue], cross[ue], params, curve, noise)

    def bisect(left, right, ue):
        """Bisect the brackets [left, right] of the UEs ue, each until narrower
        than tol_db; returns the midpoints and the iterations each took."""
        left, right = left.copy(), right.copy()
        it = np.zeros(len(ue), dtype=int)
        active = np.flatnonzero(right - left >= params.tol_db)
        while active.size:
            mid = 0.5 * (left[active] + right[active])
            y = value(np.stack([mid - step, mid + step], axis=1), ue[active])
            rising = (y[:, 1] - y[:, 0]) / (2.0 * step) > _PLATEAU_EPS
            left[active] = np.where(rising, mid, left[active])
            right[active] = np.where(rising, right[active], mid)
            it[active] += 1
            active = active[right[active] - left[active] >= params.tol_db]
        return 0.5 * (left + right), it

    every = np.arange(n)
    stationary, iters = bisect(np.full(n, lo), np.full(n, hi), every)

    brk = _cnb_breakpoints(pl, cross, params, curve, noise)
    margin = 2.0 * step
    lattice = np.arange(lo + margin, hi - margin, _SCREEN_STEP_DB)
    screen = np.concatenate([np.broadcast_to(lattice, (n, len(lattice))),
                             brk - margin, brk + margin,
                             np.full((n, 1), hi - margin)], axis=1)
    # Sorted but not deduplicated: equal neighbors share a sign, so the
    # rise-to-fall pairs are those of the deduplicated screen.
    screen = np.sort(np.clip(screen, lo + margin, hi - margin), axis=1)
    slope = ((value(screen + step, every) - value(screen - step, every))
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
    cands = lo + ks * step
    vals = value(cands, every)
    best = np.where(vals >= vals.max(axis=1, keepdims=True), cands, np.inf)
    return best.min(axis=1), iters


def compute_powers(spec: ControllerSpec, plmap: PathLossMap,
                   serving: np.ndarray, noise: NoiseModel,
                   curve: AmcCurve) -> np.ndarray:
    """Per-RB transmit power (dBm) of every UE under the given scheme.

    Each UE's power depends only on its own row of the path-loss map.
    """
    n_ues = plmap.loss_db.shape[0]
    pl = plmap.loss_db[np.arange(n_ues), serving]
    if spec.kind == "maxpower":
        return np.full(n_ues, max_power(spec.params))
    if spec.kind == "fpc":
        return fpc_power(pl, spec.params)
    if spec.kind == "rlpc":
        return rlpc_power(pl, plmap.sorted_cross_losses(serving)[:, 0],
                          spec.params)
    cross = cnb_neighbor_losses(plmap, serving, spec.params, noise)
    return cnb_solve(pl, cross, spec.params, curve, noise)[0]
