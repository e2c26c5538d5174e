"""Slot-loop simulation engine.

Per drop: build topology, compute each UE's open-loop power once (large-scale
losses are static within a drop), then per slot: schedule every cell in one
pass from delayed rate estimates, couple interference across cells per RB
index, realize throughput through the AMC curve, and update PF state and
metrics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .linkbudget import AmcCurve, NoiseModel, amc_realized, snr_of
from .powerctl import (P_MAX_DBM, SCHEMES, CnbParams, ControllerSpec,
                       FpcParams, MaxPowerParams, RlpcParams, compute_powers)
from .scheduler import PfState, RbGrid, allocate, dbm_to_mw
from .topology import (MIN_UE_SITE_DISTANCE_M, PathLossMap, SiteLayout,
                       build_hex_layout, drop_ues)
from .units import db_to_linear

__all__ = [
    "SimConfig",
    "NetworkSnapshot",
    "MetricsAccumulator",
    "build_snapshot",
    "drop_seed",
    "simulate",
    "run_drop",
    "run",
]


@dataclass(frozen=True)
class SimConfig:
    """One run: a field per configuration key, in config-file order.

    Each default is written once, here or on the component it configures.
    Construction checks every key, raising ValueError("<key>: ..."), and
    builds the components the engine reads: controller, layout, grid, noise
    and curve. Keys of the schemes not selected are only checked for
    finiteness.
    """

    # scheme selection
    scheme: str = "cnb"                 # cnb | fpc | rlpc | maxpower
    zeta: float = CnbParams.zeta
    iot_s_db: float = CnbParams.iot_s_db
    snr_i_db: float = CnbParams.snr_i_db
    iot_i_db: float = CnbParams.iot_i_db
    bisect_lo_dbm: float = CnbParams.bisect_lo_dbm
    tol_db: float = CnbParams.tol_db
    p_max_dbm: float = P_MAX_DBM
    p0_fpc_dbm: float = FpcParams.p0_dbm
    kappa: float = FpcParams.kappa
    p0_rlpc_dbm: float = RlpcParams.p0_dbm
    phi: float = RlpcParams.phi
    # topology
    rings: int = 2
    isd_m: float = 500.0
    ues_per_cell: int = 10
    min_dist_m: float = MIN_UE_SITE_DISTANCE_M
    # run shape
    slots: int = 2000
    drops: int = 5
    seed: int = 0
    slot_duration_s: float = 1e-3
    delay_slots: int = 6
    fading: int = 0                     # 0 | 1: per-slot Rayleigh fading
    combining_gain_db: float = 3.0
    # scheduler
    alpha: float = PfState.alpha
    beta: float = PfState.beta
    ewma: float = PfState.ewma
    total_rbs: int = RbGrid.total_rbs
    control_rbs: int = RbGrid.control_rbs
    # link budget
    thermal_density_dbm_hz: float = NoiseModel.thermal_density_dbm_hz
    noise_figure_db: float = NoiseModel.noise_figure_db
    rb_bandwidth_hz: float = NoiseModel.rb_bandwidth_hz
    t_max: float = AmcCurve.t_max
    amc_a: float = AmcCurve.a
    amc_b: float = AmcCurve.b
    sinr_floor_db: float = AmcCurve.sinr_floor_db
    sinr_ceiling_db: float = AmcCurve.sinr_ceiling_db
    staircase: int = 0                  # 0 | 1: quantize to n_levels MCS steps

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ValueError(f"{f.name}: must be finite, got {value}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: must be one of {', '.join(SCHEMES)}, "
                             f"got {self.scheme!r}")
        # The component constructors check their own keys.
        for name, value in (
                ("controller", ControllerSpec(self.scheme, self._params())),
                ("layout", build_hex_layout(self.rings, self.isd_m)),
                ("grid", RbGrid(self.total_rbs, self.control_rbs)),
                ("noise", NoiseModel(self.thermal_density_dbm_hz,
                                     self.noise_figure_db, self.rb_bandwidth_hz)),
                ("curve", AmcCurve(self.t_max, self.amc_a, self.amc_b,
                                   self.sinr_floor_db, self.sinr_ceiling_db))):
            object.__setattr__(self, name, value)
        for key, ok, rule in (
                ("min_dist_m", 0 <= self.min_dist_m < self.isd_m / 2,
                 "in [0, isd_m/2)"),
                ("ues_per_cell", self.ues_per_cell >= 1, ">= 1"),
                ("slots", self.slots >= 1, ">= 1"),
                ("drops", self.drops >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0"),
                ("slot_duration_s", self.slot_duration_s > 0, "positive"),
                ("delay_slots", self.delay_slots >= 1, ">= 1"),
                ("fading", self.fading in (0, 1), "0 or 1"),
                ("ewma", 0 < self.ewma < 1, "in (0, 1)"),
                ("control_rbs", 0 <= self.control_rbs < self.total_rbs,
                 f"in [0, total_rbs = {self.total_rbs})"),
                ("rb_bandwidth_hz", self.rb_bandwidth_hz > 0, "positive"),
                ("t_max", self.t_max > 0, "positive"),
                ("amc_a", self.amc_a > 0, "positive"),
                ("amc_b", self.amc_b > 0, "positive"),
                ("sinr_floor_db", self.sinr_floor_db < self.sinr_ceiling_db,
                 f"below sinr_ceiling_db = {self.sinr_ceiling_db}"),
                ("staircase", self.staircase in (0, 1), "0 or 1")):
            if not ok:
                raise ValueError(f"{key}: must be {rule}, "
                                 f"got {getattr(self, key)!r}")

    def _params(self):
        if self.scheme == "cnb":
            return CnbParams(
                zeta=self.zeta, iot_s_db=self.iot_s_db, snr_i_db=self.snr_i_db,
                iot_i_db=self.iot_i_db, p_max_dbm=self.p_max_dbm,
                bisect_lo_dbm=self.bisect_lo_dbm, tol_db=self.tol_db)
        if self.scheme == "fpc":
            return FpcParams(p0_dbm=self.p0_fpc_dbm, kappa=self.kappa,
                             p_max_dbm=self.p_max_dbm)
        if self.scheme == "rlpc":
            return RlpcParams(p0_dbm=self.p0_rlpc_dbm, phi=self.phi,
                              p_max_dbm=self.p_max_dbm)
        return MaxPowerParams(p_max_dbm=self.p_max_dbm)


@dataclass(frozen=True)
class NetworkSnapshot:
    """One drop's static topology: the only channel knowledge controllers see."""

    layout: SiteLayout | None
    serving: np.ndarray                 # (n_ues,) serving cell index
    plmap: PathLossMap

    @property
    def n_ues(self) -> int:
        return self.plmap.loss_db.shape[0]

    @property
    def n_cells(self) -> int:
        return self.plmap.loss_db.shape[1]


@dataclass
class MetricsAccumulator:
    """Per-UE running totals over one or more drops.

    Per-UE arrays from different drops concatenate; totals add. duration_s is
    each UE's observed time, so throughput ratios stay correct after merging
    accumulators with different slot counts.
    """

    bits: np.ndarray
    energy_j: np.ndarray
    snr_lin_sum: np.ndarray
    iot_lin_sum: np.ndarray
    sched_slots: np.ndarray
    duration_s: np.ndarray
    n_cells: int
    n_drops: int = 1

    @classmethod
    def empty(cls, n_ues: int, n_cells: int,
              duration_s: float) -> "MetricsAccumulator":
        zeros = lambda: np.zeros(n_ues)
        return cls(bits=zeros(), energy_j=zeros(), snr_lin_sum=zeros(),
                   iot_lin_sum=zeros(), sched_slots=zeros(),
                   duration_s=np.full(n_ues, duration_s), n_cells=n_cells)

    def merge(self, other: "MetricsAccumulator") -> "MetricsAccumulator":
        if self.n_cells != other.n_cells:
            raise ValueError("cannot merge accumulators over different layouts")
        cat = np.concatenate
        return MetricsAccumulator(
            bits=cat([self.bits, other.bits]),
            energy_j=cat([self.energy_j, other.energy_j]),
            snr_lin_sum=cat([self.snr_lin_sum, other.snr_lin_sum]),
            iot_lin_sum=cat([self.iot_lin_sum, other.iot_lin_sum]),
            sched_slots=cat([self.sched_slots, other.sched_slots]),
            duration_s=cat([self.duration_s, other.duration_s]),
            n_cells=self.n_cells,
            n_drops=self.n_drops + other.n_drops,
        )

    def per_ue_throughput_bps(self) -> np.ndarray:
        return self.bits / self.duration_s

    def time_avg_snr_db(self) -> np.ndarray:
        ok = self.sched_slots > 0
        out = np.full(len(self.bits), -np.inf)
        out[ok] = 10.0 * np.log10(self.snr_lin_sum[ok] / self.sched_slots[ok])
        return out

    def time_avg_iot_db(self) -> np.ndarray:
        ok = self.sched_slots > 0
        out = np.zeros(len(self.bits))
        out[ok] = 10.0 * np.log10(self.iot_lin_sum[ok] / self.sched_slots[ok])
        return out


def drop_seed(seed: int, drop_index: int) -> int:
    """Topology and fading seed of one drop, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, drop_index]).generate_state(1)[0])


def build_snapshot(config: SimConfig, drop_seed: int) -> NetworkSnapshot:
    _, serving, plmap = drop_ues(config.layout, config.ues_per_cell,
                                 config.min_dist_m, drop_seed)
    return NetworkSnapshot(layout=config.layout, serving=serving, plmap=plmap)


def compute_slot(occ: np.ndarray, p_mw: np.ndarray, snapshot: NetworkSnapshot,
                 config: SimConfig, gains: np.ndarray | None = None,
                 work: np.ndarray | None = None):
    """Couple interference across cells per RB index and realize throughput.

    occ and p_mw give per (cell, RB) the occupying UE (-1 if idle) and its
    power in mW, as allocate returns them. Returns (bits per UE this slot,
    mean per-RB SINR per scheduled UE, mean SNR sample, mean IoT sample,
    energy per UE in joules, scheduled mask); the means are 0 for UEs not
    scheduled. gains is the linear (UE, cell) channel gain matrix, by
    default the large-scale one. work, a float array of shape occ.shape +
    (n_cells,), is overwritten: a caller that runs many slots passes one
    buffer so no slot allocates its own.
    """
    n_ues = snapshot.n_ues
    if gains is None:
        gains = db_to_linear(-snapshot.plmap.loss_db)
    if work is None:
        work = np.empty(occ.shape + gains.shape[1:])

    combine = db_to_linear(config.combining_gain_db)
    n0 = config.noise.n0_mw

    # Received power at every victim cell from every (cell, RB) transmitter,
    # (C, K, V). mode="wrap" takes straight into work (the default mode
    # buffers it) and maps an idle occ = -1 to the last UE's row, as gains[occ]
    # does; p_mw = 0 zeroes it.
    np.take(gains, occ, axis=0, out=work, mode="wrap")
    np.multiply(p_mw[:, :, None], work, out=work)
    total_rx = work.sum(axis=0)                 # (K, V)
    own = np.einsum("ckc->ck", work)            # signal at the serving cell
    interference = total_rx.T - own             # (C, K), other-cell co-channel

    active = occ >= 0
    sig = own * combine
    intf = interference * combine
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(active, sig / (intf + n0), 0.0)

    eff = amc_realized(sinr, config.curve, staircase=config.staircase)
    rb_bits = np.where(active, eff, 0.0) * (config.noise.rb_bandwidth_hz
                                            * config.slot_duration_s)

    ue_flat = occ[active]
    per_ue = lambda x: np.bincount(ue_flat, x[active], minlength=n_ues)
    bits = per_ue(rb_bits)
    sinr_sum = per_ue(sinr)
    snr_sum = per_ue(sig / n0)
    iot_sum = per_ue((intf + n0) / n0)
    rb_count = np.bincount(ue_flat, minlength=n_ues)
    energy = per_ue(p_mw * config.slot_duration_s / 1000.0)

    scheduled = rb_count > 0
    mean = lambda x: np.divide(x, rb_count, out=np.zeros(n_ues),
                               where=scheduled)
    return bits, mean(sinr_sum), mean(snr_sum), mean(iot_sum), energy, scheduled


def simulate(snapshot: NetworkSnapshot, config: SimConfig,
             powers_dbm: np.ndarray | None = None,
             fading_seed: int | None = None) -> MetricsAccumulator:
    """Run the slot loop on a prebuilt topology snapshot."""
    n_ues, n_cells = snapshot.plmap.loss_db.shape
    if powers_dbm is None:
        powers_dbm = compute_powers(config.controller, snapshot.plmap,
                                    snapshot.serving, config.noise, config.curve)

    pf = PfState.fresh(n_ues, alpha=config.alpha, beta=config.beta,
                       ewma=config.ewma)
    acc = MetricsAccumulator.empty(n_ues, n_cells,
                                   config.slots * config.slot_duration_s)

    # Warm-up rate estimate: large-scale SNR only (no interference knowledge).
    serving_loss = snapshot.plmap.loss_db[np.arange(n_ues), snapshot.serving]
    snr0 = snr_of(powers_dbm, serving_loss, config.noise) * db_to_linear(
        config.combining_gain_db)
    est0 = amc_realized(snr0, config.curve,
                        staircase=config.staircase) * config.noise.rb_bandwidth_hz

    # Per-drop buffers: the slot loop fills them in place.
    work = np.empty((n_cells, config.grid.total_rbs, n_cells))
    gains = base_gains = db_to_linear(-snapshot.plmap.loss_db)
    fad_rng = None
    if config.fading:
        fad_rng = np.random.default_rng(
            np.random.SeedSequence([0 if fading_seed is None else int(fading_seed), 2]))
        gains = np.empty_like(base_gains)
    powers_mw = dbm_to_mw(powers_dbm)

    # Slot t schedules on the estimate measured in slot t - delay_slots.
    history: deque[np.ndarray] = deque(maxlen=config.delay_slots)
    for _ in range(config.slots):
        est = history[0] if len(history) == config.delay_slots else est0
        occ, p_mw = allocate(snapshot.serving, est, pf, config.grid,
                             powers_dbm, config.p_max_dbm, n_cells, powers_mw)

        if fad_rng is not None:
            # Rayleigh fading: unit-mean exponential power gain per link.
            fad_rng.standard_exponential(out=gains)
            np.multiply(gains, base_gains, out=gains)

        bits, mean_sinr, mean_snr, mean_iot, energy, scheduled = compute_slot(
            occ, p_mw, snapshot, config, gains, work)

        acc.bits += bits
        acc.energy_j += energy
        acc.snr_lin_sum += mean_snr
        acc.iot_lin_sum += mean_iot
        acc.sched_slots += scheduled

        pf.update(scheduled, bits / config.slot_duration_s)

        # Measured per-RB rate estimate; unscheduled UEs keep their last one.
        prev = history[-1] if history else est0
        new_est = np.where(scheduled,
                           amc_realized(mean_sinr, config.curve,
                                        staircase=config.staircase)
                           * config.noise.rb_bandwidth_hz,
                           prev)
        history.append(new_est)

    return acc


def run_drop(config: SimConfig, drop_index: int) -> MetricsAccumulator:
    """One random topology realization, deterministic given (seed, index)."""
    seed = drop_seed(config.seed, drop_index)
    return simulate(build_snapshot(config, seed), config, fading_seed=seed)


def run(config: SimConfig) -> list[MetricsAccumulator]:
    """All drops of a run; drops are independent and mergeable."""
    return [run_drop(config, d) for d in range(config.drops)]
