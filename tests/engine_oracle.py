"""Reference oracle for ulsim.engine.simulate: the slot loop written as plain
loops over slots, cells and RBs, on the scalar power and scheduler oracles.
Its compute_slot is the reference of engine.compute_slot, on the (cell, RB)
arrays that scheduler_oracle.expand makes of allocate's grants.

Only the link functions (db_to_linear, snr_of, amc_realized) run on whole
arrays: numpy's SIMD pow and log can differ in the last bit from scalar
libm, and the oracle checks the loop, not those functions.
"""

from __future__ import annotations

import numpy as np

from powerctl_oracle import compute_powers
from scheduler_oracle import allocate_network
from ulsim.config import SimConfig
from ulsim.engine import MetricsAccumulator
from ulsim.linkbudget import amc_realized, snr_of
from ulsim.units import db_to_linear

SMALLEST_SUBNORMAL = 5e-324             # 2**-1074


def compute_slot(occ: np.ndarray, p_mw: np.ndarray, gains: np.ndarray,
                 config: SimConfig):
    """One slot's coupling and link abstraction from the per (cell, RB)
    occupying UE (-1 if idle) and power in mW: per UE its bits, mean per-RB
    SINR, SNR and IoT (0 if unscheduled), energy in joules and RB count."""
    n_ues, n_cells = gains.shape
    combine = float(db_to_linear(config.combining_gain_db))
    n0 = config.n0_mw
    dt = config.slot_duration_s
    occ, p_mw, g = occ.tolist(), p_mw.tolist(), gains.tolist()
    total_rbs = len(occ[0]) if occ else 0

    # SINR of every (cell, RB) at its own cell: received power summed
    # over all transmitting cells in cell order, less the own signal.
    sinr = np.zeros((n_cells, total_rbs))
    sig, intf = {}, {}
    for c in range(n_cells):
        for k in range(total_rbs):
            if occ[c][k] < 0:
                continue
            total = 0.0
            for c2 in range(n_cells):
                if occ[c2][k] >= 0:
                    total += p_mw[c2][k] * g[occ[c2][k]][c]
            own = p_mw[c][k] * g[occ[c][k]][c]
            sig[c, k] = own * combine
            intf[c, k] = (total - own) * combine
            sinr[c, k] = sig[c, k] / (intf[c, k] + n0)
    rb_bits = (amc_realized(sinr, config, staircase=config.staircase)
               * (config.rb_bandwidth_hz * dt)).tolist()

    # Per-UE sums over its RBs, in RB order.
    bits, energy = [0.0] * n_ues, [0.0] * n_ues
    sinr_sum, snr_sum, iot_sum = [0.0] * n_ues, [0.0] * n_ues, [0.0] * n_ues
    n_rbs = [0] * n_ues
    for (c, k), s in sig.items():
        u = occ[c][k]
        bits[u] += rb_bits[c][k]
        energy[u] += p_mw[c][k] * dt / 1000.0
        sinr_sum[u] += sinr[c, k]
        snr_sum[u] += s / n0
        iot_sum[u] += (intf[c, k] + n0) / n0
        n_rbs[u] += 1
    mean = lambda x: [x[u] / n_rbs[u] if n_rbs[u] else 0.0
                      for u in range(n_ues)]
    return (bits, mean(sinr_sum), mean(snr_sum), mean(iot_sum), energy,
            n_rbs)


def simulate(serving: np.ndarray, loss_db: np.ndarray, config: SimConfig,
             fading_seed: int = 0) -> MetricsAccumulator:
    n_ues, n_cells = loss_db.shape
    powers_dbm = compute_powers(config, loss_db, serving)
    combine = float(db_to_linear(config.combining_gain_db))
    dt = config.slot_duration_s
    rate = lambda sinr: amc_realized(
        sinr, config, staircase=config.staircase) * config.rb_bandwidth_hz

    # Before any measurement: the rate at the large-scale SNR.
    serving_loss = loss_db[np.arange(n_ues), serving]
    est0 = rate(snr_of(powers_dbm, serving_loss, config) * combine)

    base_gains = db_to_linear(-loss_db)
    if config.fading:
        rng = np.random.default_rng(np.random.SeedSequence([fading_seed, 2]))

    avg, served = [0.0] * n_ues, [False] * n_ues
    acc = MetricsAccumulator(*(np.zeros(n_ues) for _ in range(5)))
    d = config.delay_slots
    history = []                        # the estimate measured in each slot
    for t in range(config.slots):
        est = history[t - d] if t >= d else est0
        occ, p_mw = allocate_network(serving, est, np.array(avg), config,
                                     powers_dbm, n_cells)
        gains = base_gains
        if config.fading:
            gains = rng.standard_exponential(size=loss_db.shape) * base_gains
        bits, mean_sinr, mean_snr, mean_iot, energy, n_rbs = compute_slot(
            occ, p_mw, gains, config)

        for u in range(n_ues):
            r = bits[u] / dt
            if n_rbs[u]:
                acc.bits[u] += bits[u]
                acc.energy_j[u] += energy[u]
                acc.snr_lin_sum[u] += mean_snr[u]
                acc.iot_lin_sum[u] += mean_iot[u]
                acc.sched_slots[u] += 1
            # PF: the first rate > 0 of a scheduled UE starts its average;
            # a served UE's average then follows the EWMA every slot, never
            # below the smallest subnormal, so that it stays > 0.
            if n_rbs[u] and not served[u] and r > 0:
                avg[u], served[u] = r, True
            elif served[u]:
                avg[u] = max((1.0 - config.ewma) * avg[u] + config.ewma * r,
                             SMALLEST_SUBNORMAL)

        # A UE keeps its last estimate in a slot without a grant.
        measured = rate(mean_sinr)
        prev = history[-1] if history else est0
        history.append(np.array([measured[u] if n_rbs[u] else prev[u]
                                 for u in range(n_ues)]))
    return acc
