"""Slot-loop simulation engine.

Per drop: build topology, compute each UE's open-loop power once (large-scale
losses are static within a drop), then per slot: schedule every cell in one
pass from delayed rate estimates, couple interference across cells per RB
index, realize throughput through the AMC curve, and update PF state and
metrics. Configs differing only in zeta share a drop and its power solve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .config import SimConfig
from .linkbudget import amc_realized, snr_of
from .parallel import two_thread_map
from .powerctl import compute_powers
from .scheduler import allocate, grant_power_mw, pf_update
from .topology import FADING_STREAM, drop_rng, drop_seed, drop_ues
from .units import db_to_linear

__all__ = [
    "MetricsAccumulator",
    "build_snapshot",
    "drop_seed",
    "simulate",
    "run_drop",
    "run",
]


@dataclass
class MetricsAccumulator:
    """One drop's per-UE totals over its slots."""

    bits: np.ndarray
    energy_j: np.ndarray
    snr_lin_sum: np.ndarray
    iot_lin_sum: np.ndarray
    sched_slots: np.ndarray


def build_snapshot(config: SimConfig,
                   drop_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One drop's static topology, the only channel knowledge controllers
    see: each UE's serving cell and the (UE, cell) loss matrix in dB."""
    _, serving, loss_db = drop_ues(config, drop_seed)
    return serving, loss_db


def compute_slot(cell: np.ndarray, ue: np.ndarray, sizes: np.ndarray,
                 p_mw: np.ndarray, gains: np.ndarray, config: SimConfig,
                 work: np.ndarray):
    """Couple interference across cells per RB index and realize throughput.

    cell, ue, sizes and p_mw are one slot's grants as allocate returns them:
    in (cell, rank) order, back to back from the control boundary, each busy
    cell's grants filling its data RBs. Returns (bits per UE this slot, mean
    per-RB SINR per scheduled UE, mean SNR sample, mean IoT sample, energy
    per UE in joules, scheduled mask); the means are 0 for UEs not
    scheduled. gains is the linear (UE, cell) channel gain matrix. work, a
    float array of shape (n_cells * data_rbs, n_cells), is overwritten: a
    caller that runs many slots passes one buffer so no slot allocates its
    own.

    The coupling works per grant: each grant's received-power row at every
    cell is formed once, copied into work once per RB of the grant, and
    summed over the busy cells in cell order. Idle cells and control RBs
    would add only exact zeros, so only granted RBs reach the link
    abstraction.
    """
    n_ues, n_cells = gains.shape
    n0 = config.n0_mw

    # Each grant's received power at every victim cell, one row per grant,
    # then one row per granted RB: data RB k of busy cell b is row
    # b * data_rbs + k.
    # mode="clip" takes straight into work; the default mode buffers it.
    rx = gains[ue]                                  # (grants, V)
    np.multiply(p_mw[:, None], rx, out=rx)
    rb_grant = np.repeat(np.arange(ue.size), sizes)
    rows = work[:rb_grant.size]
    np.take(rx, rb_grant, axis=0, out=rows, mode="clip")

    # Sum over the busy cells in cell order: idle cells and control RBs
    # would add exact zeros. The own signal is the row's serving-cell entry.
    busy = np.flatnonzero(np.bincount(cell, minlength=n_cells))
    total_rx = rows.reshape(busy.size, config.data_rbs, n_cells).sum(axis=0)
    own = rx[np.arange(ue.size), cell][rb_grant]
    interference = total_rx.T[busy].ravel() - own   # other-cell co-channel

    sig = own * config.combining_gain
    intf = interference * config.combining_gain
    sinr = sig / (intf + n0)
    rb_bits = amc_realized(sinr, config, staircase=config.staircase) * (
        config.rb_bandwidth_hz * config.slot_duration_s)

    # Per-UE sums over its RBs, in RB order.
    ue_flat = ue[rb_grant]
    per_ue = lambda x: np.bincount(ue_flat, x, minlength=n_ues)
    bits = per_ue(rb_bits)
    sinr_sum = per_ue(sinr)
    snr_sum = per_ue(sig / n0)
    iot_sum = per_ue((intf + n0) / n0)
    rb_count = np.bincount(ue_flat, minlength=n_ues)
    energy = per_ue(p_mw[rb_grant] * config.slot_duration_s / 1000.0)

    scheduled = rb_count > 0
    mean = lambda x: np.divide(x, rb_count, out=np.zeros(n_ues),
                               where=scheduled)
    return bits, mean(sinr_sum), mean(snr_sum), mean(iot_sum), energy, scheduled


def simulate(serving: np.ndarray, loss_db: np.ndarray,
             configs: list[SimConfig],
             fading_seed: int = 0) -> list[MetricsAccumulator]:
    """Run the slot loop on one drop's topology (see build_snapshot) once per
    config of a group whose configs differ at most in zeta; the records come
    in config order. The slot loops are independent work units, run on the
    caller's thread and one worker thread (two_thread_map).
    Raises ValueError("<key>: ...") naming the first other key in which a
    config differs from the first."""
    for key in (f.name for f in fields(SimConfig) if f.name != "zeta"):
        if any(getattr(c, key) != getattr(configs[0], key) for c in configs):
            raise ValueError(f"{key}: the configs of one group may differ "
                             "only in zeta")
    return two_thread_map(
        lambda unit: _slot_loop(serving, loss_db, *unit, fading_seed),
        list(zip(configs, compute_powers(configs, loss_db, serving))))


def _slot_loop(serving: np.ndarray, loss_db: np.ndarray, config: SimConfig,
               powers_dbm: np.ndarray, fading_seed: int) -> MetricsAccumulator:
    """simulate for one config, the UEs transmitting at powers_dbm."""
    n_ues, n_cells = loss_db.shape
    avg_rate = np.zeros(n_ues)                  # PF averages, see pf_update
    acc = MetricsAccumulator(*(np.zeros(n_ues) for _ in range(5)))

    # Per-RB rate estimate (bits/s) at a per-RB SINR.
    rate = lambda sinr: amc_realized(
        sinr, config, staircase=config.staircase) * config.rb_bandwidth_hz

    # Warm-up rate estimate: large-scale SNR only (no interference knowledge).
    serving_loss = loss_db[np.arange(n_ues), serving]
    est0 = rate(snr_of(powers_dbm, serving_loss, config)
                * config.combining_gain)

    # Per-drop buffers: the slot loop fills them in place.
    work = np.empty((n_cells * config.data_rbs, n_cells))
    gains = base_gains = db_to_linear(-loss_db)
    if config.fading:
        fad_rng = drop_rng(fading_seed, FADING_STREAM)
        gains = np.empty_like(base_gains)
    grant_mw = grant_power_mw(powers_dbm, config)

    # Slot t schedules on the estimate measured in slot t - delay_slots; the
    # line starts full of the warm-up estimate. A run no longer than the
    # delay schedules every slot on it, so the line needs no more entries
    # than the run has slots.
    depth = min(config.delay_slots, config.slots)
    history = deque([est0] * depth, maxlen=depth)
    for _ in range(config.slots):
        grants = allocate(serving, history[0], avg_rate, config, n_cells,
                          grant_mw)

        if config.fading:
            # Rayleigh fading: unit-mean exponential power gain per link.
            fad_rng.standard_exponential(out=gains)
            np.multiply(gains, base_gains, out=gains)

        bits, mean_sinr, mean_snr, mean_iot, energy, scheduled = compute_slot(
            *grants, gains, config, work)

        acc.bits += bits
        acc.energy_j += energy
        acc.snr_lin_sum += mean_snr
        acc.iot_lin_sum += mean_iot
        acc.sched_slots += scheduled

        avg_rate = pf_update(avg_rate, scheduled,
                             bits / config.slot_duration_s, config)

        # Measured per-RB rate estimate; unscheduled UEs keep their last one.
        history.append(np.where(scheduled, rate(mean_sinr), history[-1]))

    return acc


def run_drop(configs: list[SimConfig],
             drop_index: int) -> list[MetricsAccumulator]:
    """One random topology realization, deterministic given (seed, index),
    simulated under each config of a group (see simulate)."""
    seed = drop_seed(configs[0].seed, drop_index)
    return simulate(*build_snapshot(configs[0], seed), configs,
                    fading_seed=seed)


def run(configs: list[SimConfig]) -> list[list[MetricsAccumulator]]:
    """All drops of a group of configs (see simulate), drop by drop: per
    config, its drops' records in drop order."""
    return [list(accs) for accs in zip(*(run_drop(configs, d)
                                         for d in range(configs[0].drops)))]
