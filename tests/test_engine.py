import math

import numpy as np
import pytest

from conftest import cnb_config, make_snapshot, maxpower_config
from scheduler_oracle import RbAssignment, occupancy
from ulsim import engine
from ulsim.engine import (MetricsAccumulator, SimConfig, build_snapshot,
                          compute_slot, drop_seed, run, run_drop, simulate)
from ulsim.linkbudget import AmcCurve, NoiseModel, amc_realized
from ulsim.powerctl import CnbParams, ControllerSpec
from ulsim.report import summarize
from ulsim.scheduler import RbGrid


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            maxpower_config(slot_duration_s=0.0)
        with pytest.raises(ValueError):
            maxpower_config(slots=-1)
        with pytest.raises(ValueError):
            maxpower_config(delay_slots=0)
        for ewma in (0.0, 1.0):
            with pytest.raises(ValueError):
                maxpower_config(ewma=ewma)

    def test_frozen(self):
        cfg = maxpower_config()
        with pytest.raises(Exception):
            cfg.slots = 3

    def test_components_take_their_defaults(self):
        cfg = SimConfig()
        assert cfg.controller == ControllerSpec("cnb", CnbParams())
        assert cfg.grid == RbGrid()
        assert cfg.noise == NoiseModel()
        assert cfg.curve == AmcCurve()


class TestAccumulator:
    def test_merge_concatenates(self):
        a = MetricsAccumulator.empty(3, 2, duration_s=1.0)
        b = MetricsAccumulator.empty(4, 2, duration_s=2.0)
        a.bits[:] = 10.0
        b.bits[:] = 20.0
        m = a.merge(b)
        assert m.bits.shape == (7,)
        assert m.n_drops == 2
        assert np.allclose(m.per_ue_throughput_bps(),
                           [10, 10, 10, 10, 10, 10, 10])

    def test_merge_rejects_layout_mismatch(self):
        a = MetricsAccumulator.empty(3, 2, 1.0)
        b = MetricsAccumulator.empty(3, 5, 1.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_unserved_ue_stats(self):
        a = MetricsAccumulator.empty(2, 1, 1.0)
        a.snr_lin_sum[0] = 20.0
        a.iot_lin_sum[0] = 4.0
        a.sched_slots[0] = 2.0
        assert np.isclose(a.time_avg_snr_db()[0], 10.0)
        assert np.isclose(a.time_avg_iot_db()[0], 10.0 * np.log10(2.0))
        assert a.time_avg_snr_db()[1] == -np.inf
        assert a.time_avg_iot_db()[1] == 0.0


class TestComputeSlotOracle:
    """Two cells, two UEs, partial RB overlap, checked by scalar arithmetic."""

    LOSS = [[110.0, 120.0], [125.0, 105.0]]
    P0, P1 = 0.0, 3.0

    def scenario(self):
        snapshot = make_snapshot(self.LOSS, serving=[0, 1])
        config = maxpower_config(slots=1, ues_per_cell=1)
        allocations = {
            0: [RbAssignment(ue_id=0, rb_start=2, rb_len=8,
                             per_rb_power_dbm=self.P0)],
            1: [RbAssignment(ue_id=1, rb_start=2, rb_len=4,
                             per_rb_power_dbm=self.P1)],
        }
        return snapshot, config, occupancy(allocations, 2, config.grid)

    def expected(self, config):
        n0 = 10.0 ** (config.noise.n0_dbm / 10.0)
        combine = 10.0 ** (config.combining_gain_db / 10.0)
        g = lambda db: 10.0 ** (-db / 10.0)
        mw = lambda dbm: 10.0 ** (dbm / 10.0)

        sig0 = mw(self.P0) * g(self.LOSS[0][0]) * combine
        sig1 = mw(self.P1) * g(self.LOSS[1][1]) * combine
        i0 = mw(self.P1) * g(self.LOSS[1][0]) * combine   # UE1 heard at cell 0
        i1 = mw(self.P0) * g(self.LOSS[0][1]) * combine   # UE0 heard at cell 1

        # UE0: 4 overlapped RBs + 4 clean RBs; UE1: 4 overlapped RBs.
        sinr0_ov = sig0 / (i0 + n0)
        sinr0_cl = sig0 / n0
        sinr1 = sig1 / (i1 + n0)
        rb_bits = config.noise.rb_bandwidth_hz * config.slot_duration_s
        bits0 = (4 * amc_realized(sinr0_ov, config.curve)
                 + 4 * amc_realized(sinr0_cl, config.curve)) * rb_bits
        bits1 = 4 * amc_realized(sinr1, config.curve) * rb_bits
        energy0 = 8 * mw(self.P0) * config.slot_duration_s / 1000.0
        energy1 = 4 * mw(self.P1) * config.slot_duration_s / 1000.0
        mean_sinr0 = (4 * sinr0_ov + 4 * sinr0_cl) / 8
        return bits0, bits1, energy0, energy1, mean_sinr0, sinr1

    def test_bits_and_sinr_match_hand_computation(self):
        snapshot, config, slot = self.scenario()
        bits, mean_sinr, mean_snr, mean_iot, energy, sched = compute_slot(
            *slot, snapshot, config)
        b0, b1, e0, e1, s0, s1 = self.expected(config)
        assert np.isclose(bits[0], b0, rtol=1e-9)
        assert np.isclose(bits[1], b1, rtol=1e-9)
        assert np.isclose(mean_sinr[0], s0, rtol=1e-9)
        assert np.isclose(mean_sinr[1], s1, rtol=1e-9)
        assert np.isclose(energy[0], e0, rtol=1e-12)
        assert np.isclose(energy[1], e1, rtol=1e-12)
        assert sched.tolist() == [True, True]

    def test_snr_iot_samples(self):
        snapshot, config, slot = self.scenario()
        _, _, mean_snr, mean_iot, _, _ = compute_slot(*slot, snapshot, config)
        n0 = 10.0 ** (config.noise.n0_dbm / 10.0)
        combine = 10.0 ** (config.combining_gain_db / 10.0)
        sig0 = 10.0 ** (self.P0 / 10.0) * 10.0 ** (-110.0 / 10.0) * combine
        assert np.isclose(mean_snr[0], sig0 / n0, rtol=1e-9)
        # IoT is 1 on clean RBs, > 1 on overlapped ones.
        assert mean_iot[0] > 1.0
        assert mean_iot[1] > 1.0

    def test_idle_network(self):
        snapshot, config, _ = self.scenario()
        bits, _, _, _, energy, sched = compute_slot(
            *occupancy({}, 2, config.grid), snapshot, config)
        assert not bits.any() and not energy.any() and not sched.any()


class TestSimulate:
    def small_snapshot(self):
        # 3 cells, 6 UEs, explicit losses: everyone decodable, some coupling.
        rng = np.random.default_rng(12)
        loss = rng.uniform(100.0, 130.0, size=(6, 3))
        serving = np.argmin(loss, axis=1)
        return make_snapshot(loss, serving)

    def test_deterministic(self):
        snap = self.small_snapshot()
        cfg = cnb_config(slots=20, drops=1)
        a = simulate(snap, cfg)
        b = simulate(snap, cfg)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.energy_j, b.energy_j)

    def test_all_ues_eventually_served(self):
        snap = self.small_snapshot()
        cfg = maxpower_config(slots=30, drops=1)
        acc = simulate(snap, cfg)
        assert np.all(acc.sched_slots > 0)

    def test_energy_respects_power_cap(self):
        snap = self.small_snapshot()
        cfg = maxpower_config(slots=10, drops=1)
        acc = simulate(snap, cfg)
        # Total per-slot transmit power per UE is capped at 23 dBm ~ 0.2 W.
        max_energy = 10 * cfg.slot_duration_s * 10 ** (23.0 / 10.0) / 1000.0
        assert np.all(acc.energy_j <= max_energy + 1e-12)

    def test_shorter_than_delay(self):
        snap = self.small_snapshot()
        cfg = maxpower_config(slots=3, delay_slots=6, drops=1)
        acc = simulate(snap, cfg)
        assert acc.bits.sum() > 0

    def test_fading_changes_results(self):
        snap = self.small_snapshot()
        base = simulate(snap, maxpower_config(slots=15, drops=1))
        faded = simulate(snap, maxpower_config(slots=15, drops=1,
                                               fading=True), fading_seed=3)
        assert not np.array_equal(base.bits, faded.bits)

    def test_explicit_powers_override(self):
        snap = self.small_snapshot()
        cfg = maxpower_config(slots=5, drops=1)
        lo = simulate(snap, cfg, powers_dbm=np.full(6, -10.0))
        hi = simulate(snap, cfg, powers_dbm=np.full(6, 23.0))
        assert lo.energy_j.sum() < hi.energy_j.sum()


class TestApplyDelay:
    """Slots 0 .. D-1 schedule on the warm-up estimate; slot t on the
    estimate measured in slot t - D."""

    D = 3

    def record(self, monkeypatch):
        """Run 12 faded slots; return the estimate each slot scheduled on and
        the estimate each slot measured, recomputed here from its SINR
        (unscheduled UEs keep their previous estimate)."""
        snap = TestSimulate().small_snapshot()
        cfg = maxpower_config(slots=12, delay_slots=self.D, drops=1, fading=1)
        used, slots = [], []
        real_allocate, real_slot = engine.allocate, engine.compute_slot

        def allocate(serving, est, *args):
            used.append(est.copy())
            return real_allocate(serving, est, *args)

        def compute_slot(*args, **kwargs):
            slots.append(real_slot(*args, **kwargs))
            return slots[-1]

        monkeypatch.setattr(engine, "allocate", allocate)
        monkeypatch.setattr(engine, "compute_slot", compute_slot)
        simulate(snap, cfg, fading_seed=4)

        measured, prev = [], used[0]
        for _, mean_sinr, _, _, _, scheduled in slots:
            rate = amc_realized(mean_sinr, cfg.curve) * cfg.noise.rb_bandwidth_hz
            prev = np.where(scheduled, rate, prev)
            measured.append(prev)
        return used, measured

    def test_returns_delayed_entry(self, monkeypatch):
        used, measured = self.record(monkeypatch)
        assert len(used) == 12
        assert all(np.array_equal(used[t], measured[t - self.D])
                   for t in range(self.D, 12))
        # The estimates do change, so the check above pins the lag.
        assert not all(np.array_equal(measured[t], measured[t + 1])
                       for t in range(11))

    def test_fallback_during_warmup(self, monkeypatch):
        used, measured = self.record(monkeypatch)
        assert all(np.array_equal(used[t], used[0]) for t in range(self.D))
        assert not np.array_equal(used[self.D], used[0])


class TestDrops:
    def test_run_drop_deterministic(self):
        cfg = maxpower_config(rings=1, ues_per_cell=2, slots=5, drops=2,
                              seed=3)
        a = run_drop(cfg, 0)
        b = run_drop(cfg, 0)
        assert np.array_equal(a.bits, b.bits)

    def test_drops_differ(self):
        cfg = maxpower_config(rings=1, ues_per_cell=2, slots=5, drops=2,
                              seed=3)
        a = run_drop(cfg, 0)
        b = run_drop(cfg, 1)
        assert not np.array_equal(a.bits, b.bits)

    def test_run_length(self):
        cfg = maxpower_config(rings=1, ues_per_cell=1, slots=2, drops=3,
                              seed=1)
        assert len(run(cfg)) == 3

    def test_reported_seeds_are_the_seeds_run(self):
        cfg = maxpower_config(rings=1, ues_per_cell=2, slots=5, drops=2,
                              seed=3)
        accs = run(cfg)
        seeds = summarize(accs, cfg).seeds
        assert seeds == (drop_seed(3, 0), drop_seed(3, 1))
        again = simulate(build_snapshot(cfg, seeds[1]), cfg,
                         fading_seed=seeds[1])
        assert np.array_equal(accs[1].bits, again.bits)

    def test_build_snapshot_shapes(self):
        cfg = maxpower_config(rings=1, ues_per_cell=2)
        snap = build_snapshot(cfg, drop_seed=9)
        assert snap.n_cells == 21
        assert snap.n_ues == 42
        assert np.array_equal(snap.serving,
                              np.argmin(snap.plmap.loss_db, axis=1))
