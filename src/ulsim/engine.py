"""Slot-loop simulation engine.

Per drop: build topology, compute each UE's open-loop power once (large-scale
losses are static within a drop), then per slot: schedule each cell from
delayed rate estimates, couple interference across cells per RB index, realize
throughput through the AMC curve, and update PF state and metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .linkbudget import AmcCurve, NoiseModel, amc_realized, snr_of
from .powerctl import (P_MAX_DBM, SCHEMES, CnbParams, ControllerSpec,
                       FpcParams, MaxPowerParams, RlpcParams, compute_powers)
from .scheduler import PfState, RbGrid, SlotAllocation, allocate
from .topology import (MIN_UE_SITE_DISTANCE_M, PathLossMap, SiteLayout,
                       build_hex_layout, build_path_loss_map, drop_ues)
from .units import db_to_linear

__all__ = [
    "SimConfig",
    "NetworkSnapshot",
    "MetricsAccumulator",
    "apply_delay",
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


def apply_delay(history, delay_slots: int, fallback=None):
    """Estimate vector from delay_slots before the most recent entry.

    Returns fallback (large-scale-only estimates during warm-up) when the
    history is too short.
    """
    idx = len(history) - 1 - delay_slots
    if idx < 0:
        return fallback
    return history[idx]


def drop_seed(seed: int, drop_index: int) -> int:
    """Topology and fading seed of one drop, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, drop_index]).generate_state(1)[0])


def build_snapshot(config: SimConfig, drop_seed: int) -> NetworkSnapshot:
    layout = config.layout
    ues = drop_ues(layout, config.ues_per_cell, config.min_dist_m, drop_seed)
    plmap = build_path_loss_map(layout, ues, drop_seed)
    serving = np.array([ue.serving_cell for ue in ues])
    return NetworkSnapshot(layout=layout, serving=serving, plmap=plmap)


def _occupancy(allocations: SlotAllocation, n_cells: int,
               grid: RbGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per (cell, RB): occupying UE index (-1 if idle) and power in mW."""
    occ = np.full((n_cells, grid.total_rbs), -1, dtype=int)
    p_mw = np.zeros((n_cells, grid.total_rbs))
    for c, entries in allocations.items():
        for e in entries:
            occ[c, e.rb_start:e.rb_start + e.rb_len] = e.ue_id
            p_mw[c, e.rb_start:e.rb_start + e.rb_len] = 10.0 ** (
                e.per_rb_power_dbm / 10.0)
    return occ, p_mw


def compute_slot(allocations: SlotAllocation, snapshot: NetworkSnapshot,
                 config: SimConfig, fading_gain: np.ndarray | None = None,
                 gains: np.ndarray | None = None):
    """Couple interference across cells per RB index and realize throughput.

    Returns (bits per UE this slot, mean per-RB SINR per scheduled UE,
    mean SNR sample, mean IoT sample, energy per UE in joules).
    fading_gain, when given, multiplies the linear (UE, cell) channel gains;
    gains lets callers pass the precomputed large-scale gain matrix.
    """
    n_ues, n_cells = snapshot.plmap.loss_db.shape
    if gains is None:
        gains = db_to_linear(-snapshot.plmap.loss_db)
    if fading_gain is not None:
        gains = gains * fading_gain
    occ, p_mw = _occupancy(allocations, n_cells, config.grid)

    combine = db_to_linear(config.combining_gain_db)
    n0 = config.noise.n0_mw

    # Received power at every victim cell from every (cell, RB) transmitter.
    src_gain = gains[occ]                       # (C, K, V); occ=-1 rows unused
    contrib = p_mw[:, :, None] * src_gain       # zero where idle
    total_rx = contrib.sum(axis=0)              # (K, V)
    own = np.einsum("ckc->ck", contrib)         # signal at the serving cell
    interference = total_rx.T - own             # (C, K), other-cell co-channel

    active = occ >= 0
    sig = own * combine
    intf = interference * combine
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(active, sig / (intf + n0), 0.0)

    eff = amc_realized(sinr, config.curve, staircase=config.staircase)
    rb_bits = np.where(active, eff, 0.0) * (config.noise.rb_bandwidth_hz
                                            * config.slot_duration_s)

    bits = np.zeros(n_ues)
    sinr_sum = np.zeros(n_ues)
    snr_sum = np.zeros(n_ues)
    iot_sum = np.zeros(n_ues)
    rb_count = np.zeros(n_ues)
    energy = np.zeros(n_ues)

    ue_flat = occ[active]
    np.add.at(bits, ue_flat, rb_bits[active])
    np.add.at(sinr_sum, ue_flat, sinr[active])
    np.add.at(snr_sum, ue_flat, (sig / n0)[active])
    np.add.at(iot_sum, ue_flat, ((intf + n0) / n0)[active])
    np.add.at(rb_count, ue_flat, 1.0)
    np.add.at(energy, ue_flat, p_mw[active] * config.slot_duration_s / 1000.0)

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

    cell_ues = [np.flatnonzero(snapshot.serving == c) for c in range(n_cells)]
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

    fad_rng = None
    if config.fading:
        fad_rng = np.random.default_rng(
            np.random.SeedSequence([0 if fading_seed is None else int(fading_seed), 2]))

    base_gains = db_to_linear(-snapshot.plmap.loss_db)
    history: list[np.ndarray] = []
    for _ in range(config.slots):
        est = apply_delay(history, config.delay_slots - 1, fallback=est0)
        allocations: SlotAllocation = {}
        for c in range(n_cells):
            ues = cell_ues[c]
            if ues.size == 0:
                continue
            entries = allocate(ues, est[ues], pf, config.grid,
                               tx_power_dbm=powers_dbm[ues],
                               p_max_dbm=config.p_max_dbm)
            if entries:
                allocations[c] = entries

        fading_gain = None
        if fad_rng is not None:
            fading_gain = fad_rng.exponential(1.0, size=(n_ues, n_cells))

        bits, mean_sinr, mean_snr, mean_iot, energy, scheduled = compute_slot(
            allocations, snapshot, config, fading_gain, gains=base_gains)

        acc.bits += bits
        acc.energy_j += energy
        acc.snr_lin_sum += np.where(scheduled, mean_snr, 0.0)
        acc.iot_lin_sum += np.where(scheduled, mean_iot, 0.0)
        acc.sched_slots += scheduled

        served_rate = bits / config.slot_duration_s
        boot = scheduled & ~pf.served_once & (bits > 0)
        pf.avg_rate = np.where(
            boot, served_rate,
            np.where(pf.served_once,
                     (1.0 - pf.ewma) * pf.avg_rate + pf.ewma * served_rate,
                     pf.avg_rate))
        pf.served_once = pf.served_once | boot

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
