"""Open-loop uplink power controllers.

Four schemes: max power, fractional path-loss compensation (FPC), reverse-link
power control (RLPC), and the coordinated checks-and-balances controller (CnB)
that weighs a UE's own throughput against the throughput it costs the cells it
interferes with, and maximizes the weighted sum by bisection on the derivative.

Every controller is a pure function of one UE's path-loss row and static
parameters, so per-UE solves are independent and fully distributed.
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
    "cnb_neighbors",
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


def fpc_power(pl_db: float, p: FpcParams) -> float:
    """Fractional compensation: min(p_max, p0 + kappa * PL)."""
    return min(p.p_max_dbm, p.p0_dbm + p.kappa * pl_db)


def rlpc_power(pl_db: float, pl_min_db: float, p: RlpcParams) -> float:
    """Reverse-link: min(p_max, p0 + phi*PL + (1-phi)*PL_min_neighbor)."""
    return min(p.p_max_dbm, p.p0_dbm + p.phi * pl_db + (1.0 - p.phi) * pl_min_db)


def max_power(p: MaxPowerParams) -> float:
    return p.p_max_dbm


def cnb_rs(p_dbm, pl_db: float, params: CnbParams, curve: AmcCurve,
           noise: NoiseModel):
    """Own-throughput estimate: f(SNR(P) / assumed IoT); nondecreasing in P."""
    sinr = snr_of(p_dbm, pl_db, noise) / db_to_linear(params.iot_s_db)
    return amc_smooth(sinr, curve)


def cnb_neighbors(ue_id: int, plmap: PathLossMap, serving_cell: int,
                  params: CnbParams, noise: NoiseModel) -> np.ndarray:
    """Cross losses toward cells this UE can interfere above the noise floor.

    Non-serving cells with loss strictly below the threshold, ascending.
    """
    th = params.pl_th_db
    if th is None:
        th = pl_threshold_db(params.p_max_dbm, noise)
    losses = plmap.cross_losses(ue_id, serving_cell)
    return losses[losses < th]


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


def cnb_objective(p_dbm, pl_db: float, cross_losses, params: CnbParams,
                  curve: AmcCurve, noise: NoiseModel):
    """Weighted sum R_S(P) + zeta * R_I(P) maximized by the controller."""
    return (cnb_rs(p_dbm, pl_db, params, curve, noise)
            + params.zeta * cnb_ri(p_dbm, cross_losses, params, curve, noise))


def _cnb_breakpoints(pl_db: float, cross, params: CnbParams, curve: AmcCurve,
                     noise: NoiseModel) -> np.ndarray:
    """Powers (dBm) where the piecewise objective kinks or jumps.

    One point where the own-throughput curve saturates, and per neighbor the
    powers at which the neighbor's assumed SINR crosses the decodable-region
    ceiling (cost becomes nonzero) and floor (cost saturates).
    """
    x_cap = (2.0 ** (curve.t_max / curve.a) - 1.0) / curve.b
    pts = [pl_db + noise.n0_dbm + params.iot_s_db + 10.0 * np.log10(x_cap)]
    snr_i = db_to_linear(params.snr_i_db)
    iot_i = db_to_linear(params.iot_i_db)
    cross = np.asarray(cross, dtype=float)
    for edge_db in (curve.sinr_ceiling_db, curve.sinr_floor_db):
        inr = snr_i / db_to_linear(edge_db) - iot_i
        if inr > 0 and cross.size:
            pts.extend(cross + noise.n0_dbm + 10.0 * np.log10(inr))
    return np.asarray(pts)


def cnb_solve(pl_db: float, cross_losses, params: CnbParams, curve: AmcCurve,
              noise: NoiseModel, return_iters: bool = False):
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
    ties deterministic. No bracketing loop exceeds ceil(log2(range/tol))
    iterations.
    """
    cross = np.asarray(cross_losses, dtype=float)
    lo, hi = params.bisect_lo_dbm, params.bisect_hi_dbm
    step = _FD_STEP_DB
    n_steps = int(round((hi - lo) / step))

    def value(p):
        return np.atleast_1d(
            cnb_objective(np.asarray(p, dtype=float), pl_db, cross, params,
                          curve, noise))

    def bisect(left: float, right: float) -> tuple[float, int]:
        it = 0
        while right - left >= params.tol_db:
            mid = 0.5 * (left + right)
            y = value([mid - step, mid + step])
            if (y[1] - y[0]) / (2.0 * step) > _PLATEAU_EPS:
                left = mid
            else:
                right = mid
            it += 1
        return 0.5 * (left + right), it

    stationary, iters = bisect(lo, hi)

    brk = _cnb_breakpoints(pl_db, cross, params, curve, noise)
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


def compute_powers(spec: ControllerSpec, plmap: PathLossMap,
                   serving: np.ndarray, noise: NoiseModel,
                   curve: AmcCurve) -> np.ndarray:
    """Per-RB transmit power (dBm) of every UE under the given scheme.

    Each UE's power depends only on its own row of the path-loss map.
    """
    n_ues = plmap.loss_db.shape[0]
    out = np.empty(n_ues)
    for u in range(n_ues):
        s = int(serving[u])
        if spec.kind == "maxpower":
            out[u] = max_power(spec.params)
        elif spec.kind == "fpc":
            out[u] = fpc_power(plmap.serving_loss(u, s), spec.params)
        elif spec.kind == "rlpc":
            out[u] = rlpc_power(plmap.serving_loss(u, s),
                                plmap.min_cross_loss(u, s), spec.params)
        else:
            cross = cnb_neighbors(u, plmap, s, spec.params, noise)
            out[u] = cnb_solve(plmap.serving_loss(u, s), cross, spec.params,
                               curve, noise)
    return out
