"""Slot-loop simulation engine.

Per drop: build topology, compute each UE's open-loop power once (large-scale
losses are static within a drop), then per slot: schedule every cell in one
pass from delayed rate estimates, couple interference across cells per RB
index, realize throughput through the AMC curve, and update PF state and
metrics. run decides which configs share a drop.
"""

from __future__ import annotations

from collections import deque
from contextlib import closing
from dataclasses import dataclass, fields

import numpy as np

from .config import SimConfig
from .linkbudget import amc_realized, snr_of
from .powerctl import compute_powers
from .scheduler import allocate, grant_power_mw, pf_update
from .topology import FADING_STREAM, drop_rng, drop_seed, drop_ues
from .units import db_to_linear

__all__ = [
    "MetricsAccumulator",
    "build_snapshot",
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
                 p_mw: np.ndarray, gains: np.ndarray, config: SimConfig):
    """Couple interference across cells per RB index and realize throughput.

    cell, ue, sizes and p_mw are one slot's grants as allocate returns them:
    in (cell, rank) order, back to back from the control boundary, each busy
    cell's grants filling its data RBs. Returns (bits per UE this slot, mean
    per-RB SINR per scheduled UE, mean SNR sample, mean IoT sample, energy
    per UE in joules, scheduled mask); the means are 0 for UEs not
    scheduled. gains is the linear (UE, cell) channel gain matrix. No
    argument is changed.

    The coupling works per grant: each grant's received-power row at every
    cell is formed once, copied once per RB of the grant, and summed over
    the busy cells in cell order. Idle cells and control RBs would add only
    exact zeros, so only granted RBs reach the link abstraction. The per-RB
    copy stays because summing each RB index's busy-cell rows in cell order
    fixes the bits. A (RB, grant) @ (grant, cell) product instead moved every
    number and was no faster: 77 against 69 us per desk slot, on a 2-vCPU VM.
    Over the 2,000 slots of a desk drop (570 UEs, 57 cells) on the same VM,
    best of 15 passes, the call took 236 us, and 240 to 243 us with any one
    of these choices undone: gains.take rather than gains[ue], rows copied
    by np.repeat rather than by an index array, each grant's RB count set
    rather than counted, one divisor shared by the means, interference plus
    noise formed once, and each grant's energy formed once and repeated.
    """
    n_ues, n_cells = gains.shape
    n0 = config.n0_mw

    # Each grant's received power at every victim cell, one row per grant,
    # then one row per granted RB: data RB k of busy cell b is row
    # b * data_rbs + k.
    rx = gains.take(ue, axis=0)                     # (grants, V)
    np.multiply(p_mw[:, None], rx, out=rx)
    rows = np.repeat(rx, sizes, axis=0)

    # Sum over the busy cells in cell order: idle cells and control RBs
    # would add exact zeros. The own signal is the row's serving-cell entry.
    busy = np.flatnonzero(np.bincount(cell, minlength=n_cells))
    total_rx = rows.reshape(busy.size, config.data_rbs, n_cells).sum(axis=0)
    own = np.repeat(rx[np.arange(ue.size), cell], sizes)
    interference = total_rx.T[busy].ravel() - own   # other-cell co-channel

    sig = own * config.combining_gain
    intf_n0 = interference * config.combining_gain + n0
    sinr = sig / intf_n0
    rb_bits = amc_realized(sinr, config, staircase=config.staircase) * (
        config.rb_bandwidth_hz * config.slot_duration_s)

    # Per-UE sums over its RBs, in RB order; a UE holds at most one grant.
    ue_flat = np.repeat(ue, sizes)
    per_ue = lambda x: np.bincount(ue_flat, x, minlength=n_ues)
    rb_count = np.zeros(n_ues, dtype=int)
    rb_count[ue] = sizes
    divisor = np.maximum(rb_count, 1.0)
    mean = lambda x: per_ue(x) / divisor
    energy = per_ue(np.repeat(p_mw * config.slot_duration_s / 1000.0, sizes))
    return (per_ue(rb_bits), mean(sinr), mean(sig / n0), mean(intf_n0 / n0),
            energy, rb_count > 0)


def _key_beyond_zeta(configs: list[SimConfig]) -> str | None:
    """The first key but zeta in which the configs differ, or None."""
    return next((f.name for f in fields(SimConfig) if f.name != "zeta"
                 and any(getattr(c, f.name) != getattr(configs[0], f.name)
                         for c in configs)), None)


def simulate(serving: np.ndarray, loss_db: np.ndarray,
             configs: list[SimConfig],
             fading_seed: int) -> list[MetricsAccumulator]:
    """Run the slot loop on one drop's topology (see build_snapshot) once per
    config of a group (see run); the records come in config order. Fading,
    if on, draws from fading_seed (run_drop passes the drop's seed), on one
    helper thread per config (see _slot_gains).
    Raises ValueError("<key>: ...") naming the first other key in which a
    config differs from the first."""
    if key := _key_beyond_zeta(configs):
        raise ValueError(f"{key}: the configs of one group may differ "
                         "only in zeta")
    powers = compute_powers(configs, loss_db, serving)
    gains = db_to_linear(-loss_db)
    return [_slot_loop(serving, loss_db, gains, config, row, fading_seed)
            for config, row in zip(configs, powers)]


# Slots of fading drawn per fill. On fading_maxpower (570 UEs, 57 cells,
# 2000 slots, a 2-vCPU VM), perfbench medians over seeds 21-26, each seed
# running every size and one draw per slot on the loop's own thread: blocks
# of 1, 2, 4, 8 and 16 slots cut run_s by 8.6, 18.3, 16.2, 26.8 and 21.9 %,
# and peak RSS read 41.3 MB without the helper, then 42.4, 42.6, 43.7, 45.6
# and 49.6 MB. 4 keeps the memory within about 2.5 MB; 16 is at the 20 %
# RSS bound of the benchmark.
_FADING_BLOCK = 4


def _slot_gains(base_gains: np.ndarray, config: SimConfig, fading_seed: int):
    """Yield each slot's linear (UE, cell) gain matrix: base_gains itself, or
    with fading on, base_gains times a unit-mean exponential power gain per
    link (Rayleigh fading) from fading_seed's fading stream.

    Fading comes _FADING_BLOCK slots at a time, each block one
    standard_exponential fill into one of two buffers, scaled there in place
    by base_gains. One helper thread makes the next block while the loop
    works through the current one: numpy releases the GIL while it fills
    and multiplies. A block is the same stream as one draw per slot, so
    every bit is the same. A slot's matrix holds until the next block is
    asked for. The helper is joined when the generator ends or is closed."""
    if not config.fading:
        for _ in range(config.slots):
            yield base_gains
        return
    from concurrent.futures import ThreadPoolExecutor
    rng = drop_rng(fading_seed, FADING_STREAM)
    buffers = np.empty((2, _FADING_BLOCK) + base_gains.shape)

    def fill(b):
        block = rng.standard_exponential(
            out=buffers[b % 2, :config.slots - b * _FADING_BLOCK])
        block *= base_gains
        return block

    n_blocks = -(-config.slots // _FADING_BLOCK)
    with ThreadPoolExecutor(1) as helper:
        ahead = helper.submit(fill, 0)
        for b in range(1, n_blocks + 1):
            block = ahead.result()
            if b < n_blocks:
                ahead = helper.submit(fill, b)
            yield from block


def _slot_loop(serving: np.ndarray, loss_db: np.ndarray,
               base_gains: np.ndarray, config: SimConfig,
               powers_dbm: np.ndarray, fading_seed: int) -> MetricsAccumulator:
    """simulate for one config, the UEs transmitting at powers_dbm over the
    drop's linear gains base_gains, db_to_linear(-loss_db)."""
    n_ues = len(serving)
    avg_rate = np.zeros(n_ues)                  # PF averages, see pf_update
    acc = MetricsAccumulator(*(np.zeros(n_ues) for _ in range(5)))

    # Per-RB rate estimate (bits/s) at a per-RB SINR.
    rate = lambda sinr: amc_realized(
        sinr, config, staircase=config.staircase) * config.rb_bandwidth_hz

    # Warm-up rate estimate: large-scale SNR only (no interference knowledge).
    serving_loss = loss_db[np.arange(n_ues), serving]
    est0 = rate(snr_of(powers_dbm, serving_loss, config)
                * config.combining_gain)

    grant_mw = grant_power_mw(powers_dbm, config)

    # Slot t schedules on the estimate measured in slot t - delay_slots; the
    # line starts full of the warm-up estimate. A run no longer than the
    # delay schedules every slot on it, so the line needs no more entries
    # than the run has slots.
    depth = min(config.delay_slots, config.slots)
    history = deque([est0] * depth, maxlen=depth)
    slot_gains = _slot_gains(base_gains, config, fading_seed)
    with closing(slot_gains):
        for gains in slot_gains:
            grants = allocate(serving, history[0], avg_rate, config, grant_mw)
            bits, mean_sinr, mean_snr, mean_iot, energy, scheduled = (
                compute_slot(*grants, gains, config))

            acc.bits += bits
            acc.energy_j += energy
            acc.snr_lin_sum += mean_snr
            acc.iot_lin_sum += mean_iot
            acc.sched_slots += scheduled

            avg_rate = pf_update(avg_rate, scheduled,
                                 bits / config.slot_duration_s, config)

            # Measured per-RB rate estimate; unscheduled UEs keep their last.
            history.append(np.where(scheduled, rate(mean_sinr), history[-1]))

    return acc


def run_drop(configs: list[SimConfig],
             drop_index: int) -> list[MetricsAccumulator]:
    """One random topology realization, deterministic given (seed, index),
    simulated under each config of a group (see run)."""
    seed = drop_seed(configs[0].seed, drop_index)
    return simulate(*build_snapshot(configs[0], seed), configs,
                    fading_seed=seed)


def run(configs: list[SimConfig]) -> list[list[MetricsAccumulator]]:
    """Per config, its drops' records in drop order, equal bit for bit to
    run([config]). The one rule for what shares a drop: configs that differ
    at most in zeta form one group, run drop by drop, each drop's snapshot
    and its C&B solve serving every zeta (see simulate and cnb_solve); any
    other list runs each config alone. The group pays: run alone, the zetas
    of dense_zeta_sweep took 37-61 % longer (medians of 4 paired runs)."""
    if not configs or _key_beyond_zeta(configs):
        return [run([config])[0] for config in configs]
    return [list(accs) for accs in zip(*(run_drop(configs, d)
                                         for d in range(configs[0].drops)))]
