import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle
from conftest import (assert_records_equal, cnb_config, gains_of,
                      make_snapshot, maxpower_config)
from scheduler_oracle import expand
from test_scheduler import network_states
from ulsim import engine
from ulsim.config import SCHEMES, SimConfig
from ulsim.engine import (build_snapshot, compute_slot, run, run_drop,
                          simulate)
from ulsim.linkbudget import amc_realized
from ulsim.report import summarize
from ulsim.scheduler import allocate, grant_power_mw
from ulsim.topology import drop_seed


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
        assert cfg.data_rbs == 48
        assert cfg.n0_dbm == -174.0 + 10.0 * np.log10(180_000.0) + 5.0
        assert cfg.n0_mw == 10.0 ** (cfg.n0_dbm / 10.0)


def grants(*entries):
    """compute_slot's grant arrays from (cell, ue, rb_len, dBm) entries
    listed in (cell, rank) order."""
    if not entries:
        return (np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)
    cell, ue, size, dbm = zip(*entries)
    return (np.array(cell), np.array(ue), np.array(size),
            10.0 ** (np.array(dbm, dtype=float) / 10.0))


class TestComputeSlotOracle:
    """Hand-computed and plain-loop values of one slot's coupling."""

    # Cell 0 holds UE 0 on all 8 data RBs; cell 1 holds UE 1 on its first 4
    # and UE 2 on its last 4, so UE 0 meets a different interferer on each
    # half of its grant.
    LOSS = [[110.0, 120.0], [125.0, 105.0], [118.0, 112.0]]
    P = [0.0, 3.0, -2.0]

    def scenario(self):
        config = maxpower_config(slots=1, ues_per_cell=1, total_rbs=10)
        slot = grants((0, 0, 8, self.P[0]), (1, 1, 4, self.P[1]),
                      (1, 2, 4, self.P[2]))
        return gains_of(self.LOSS), config, slot

    def expected(self, config):
        n0 = 10.0 ** (config.n0_dbm / 10.0)
        combine = 10.0 ** (config.combining_gain_db / 10.0)
        # Received power of UE u at cell c, combined.
        rx = lambda u, c: (10.0 ** (self.P[u] / 10.0)
                           * 10.0 ** (-self.LOSS[u][c] / 10.0) * combine)

        sinr0 = ([rx(0, 0) / (rx(1, 0) + n0)] * 4
                 + [rx(0, 0) / (rx(2, 0) + n0)] * 4)
        sinr1 = [rx(1, 1) / (rx(0, 1) + n0)] * 4
        sinr2 = [rx(2, 1) / (rx(0, 1) + n0)] * 4
        rb_bits = config.rb_bandwidth_hz * config.slot_duration_s
        bits = [sum(amc_realized(s, config) for s in sinr) * rb_bits
                for sinr in (sinr0, sinr1, sinr2)]
        energy = [k * 10.0 ** (p / 10.0) * config.slot_duration_s / 1000.0
                  for k, p in zip((8, 4, 4), self.P)]
        mean_sinr = [np.mean(s) for s in (sinr0, sinr1, sinr2)]
        snr0 = rx(0, 0) / n0
        return bits, energy, mean_sinr, snr0

    def test_bits_and_sinr_match_hand_computation(self):
        gains, config, slot = self.scenario()
        bits, mean_sinr, mean_snr, mean_iot, energy, sched = compute_slot(
            *slot, gains, config)
        want_bits, want_energy, want_sinr, _ = self.expected(config)
        assert np.allclose(bits, want_bits, rtol=1e-9, atol=0)
        assert np.allclose(mean_sinr, want_sinr, rtol=1e-9, atol=0)
        assert np.allclose(energy, want_energy, rtol=1e-12, atol=0)
        assert sched.tolist() == [True, True, True]

    def test_snr_iot_samples(self):
        gains, config, slot = self.scenario()
        _, _, mean_snr, mean_iot, _, _ = compute_slot(*slot, gains, config)
        _, _, _, snr0 = self.expected(config)
        assert np.isclose(mean_snr[0], snr0, rtol=1e-9)
        # Every RB meets an interferer, so IoT exceeds 1.
        assert (mean_iot > 1.0).all()

    def test_idle_network(self):
        gains, config, _ = self.scenario()
        bits, _, _, _, energy, sched = compute_slot(
            *grants(), gains, config)
        assert not bits.any() and not energy.any() and not sched.any()

    def test_single_busy_cell_sees_only_noise(self):
        # Cell 1 alone transmits: SINR is the SNR on every RB.
        gains, config, _ = self.scenario()
        bits, mean_sinr, mean_snr, mean_iot, _, sched = compute_slot(
            *grants((1, 1, 5, self.P[1]), (1, 2, 3, self.P[2])), gains, config)
        n0 = 10.0 ** (config.n0_dbm / 10.0)
        combine = 10.0 ** (config.combining_gain_db / 10.0)
        snr = [10.0 ** ((self.P[u] - self.LOSS[u][1]) / 10.0) * combine / n0
               for u in (1, 2)]
        assert np.allclose(mean_sinr[1:], snr, rtol=1e-9, atol=0)
        assert np.allclose(mean_snr[1:], snr, rtol=1e-9, atol=0)
        assert mean_iot[1:].tolist() == [1.0, 1.0]
        assert sched.tolist() == [False, True, True] and bits[0] == 0.0

    @pytest.mark.parametrize("busy", [(1, 2), (0, 2), (2,)],
                             ids=["cell0_idle", "idle_between", "one_busy"])
    def test_matches_plain_loop(self, busy):
        # Four cells of 2 UEs each; each busy cell splits its data RBs
        # between its two UEs.
        rng = np.random.default_rng(len(busy) + busy[0])
        n_cells = 4
        loss = rng.uniform(100.0, 130.0, size=(2 * n_cells, n_cells))
        config = maxpower_config(slots=1)
        d = config.data_rbs
        slot = grants(*[entry for c in busy for entry in (
            (c, 2 * c, 1 + c, 23.0 - c), (c, 2 * c + 1, d - 1 - c, 5.0 * c))])
        got = compute_slot(*slot, gains_of(loss), config)
        want = engine_oracle.compute_slot(*expand(slot, n_cells, config),
                                          gains_of(loss), config)
        assert np.array_equal(got[5], np.array(want[5]) > 0)
        for a, b in zip(got[:5], want[:5]):
            assert np.array_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(network_states(), st.integers(0, 2 ** 32 - 1))
    def test_busy_cells_fill_data_rbs(self, state, seed):
        # compute_slot reshapes the granted RBs into (busy cells, data_rbs):
        # every cell with a grant must fill exactly its data RBs, its grants
        # listed together in cell order.
        serving, est, pf, config, powers, n_cells = state
        cell, ue, sizes, p_mw = allocate(serving, est, pf, config,
                                         grant_power_mw(powers, config))
        assert (np.diff(cell) >= 0).all() and (sizes >= 1).all()
        filled = np.bincount(cell, sizes, minlength=n_cells)
        assert (filled[np.unique(cell)] == config.data_rbs).all()
        # ... and the coupling of any such slot is the plain loop's.
        loss = np.random.default_rng(seed).uniform(
            90.0, 140.0, size=(len(serving), n_cells))
        slot = (cell, ue, sizes, p_mw)
        got = compute_slot(*slot, gains_of(loss), config)
        want = engine_oracle.compute_slot(*expand(slot, n_cells, config),
                                          gains_of(loss), config)
        for a, b in zip(got[:5], want[:5]):
            assert np.array_equal(a, b)


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
        (a,) = simulate(*snap, [cfg], fading_seed=0)
        (b,) = simulate(*snap, [cfg], fading_seed=0)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.energy_j, b.energy_j)

    def test_all_ues_eventually_served(self):
        snap = self.small_snapshot()
        cfg = maxpower_config(slots=30, drops=1)
        (acc,) = simulate(*snap, [cfg], fading_seed=0)
        assert np.all(acc.sched_slots > 0)

    def test_energy_respects_power_cap(self):
        snap = self.small_snapshot()
        cfg = maxpower_config(slots=10, drops=1)
        (acc,) = simulate(*snap, [cfg], fading_seed=0)
        # Total per-slot transmit power per UE is capped at 23 dBm ~ 0.2 W.
        max_energy = 10 * cfg.slot_duration_s * 10 ** (23.0 / 10.0) / 1000.0
        assert np.all(acc.energy_j <= max_energy + 1e-12)

    def test_shorter_than_delay(self):
        snap = self.small_snapshot()
        cfg = maxpower_config(slots=3, delay_slots=6, drops=1)
        (acc,) = simulate(*snap, [cfg], fading_seed=0)
        assert acc.bits.sum() > 0

    def test_delay_line_sized_by_the_run(self):
        # Every slot of a run no longer than its delay schedules on the
        # warm-up estimate: a huge delay_slots costs no memory and gives
        # the results of any delay at least as long as the run.
        config = maxpower_config(rings=0, ues_per_cell=1, slots=5, drops=1,
                                 delay_slots=5)
        snap = build_snapshot(config, 0)
        (want,) = simulate(*snap, [config], fading_seed=0)
        tracemalloc.start()
        try:
            (got,) = simulate(*snap, [replace(config, delay_slots=10 ** 6)],
                              fading_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert_records_equal(got, want)

    def test_fading_changes_results(self):
        snap = self.small_snapshot()
        (base,) = simulate(*snap, [maxpower_config(slots=15, drops=1)],
                           fading_seed=3)
        (faded,) = simulate(*snap, [maxpower_config(slots=15, drops=1,
                                                    fading=True)],
                            fading_seed=3)
        assert not np.array_equal(base.bits, faded.bits)

    def test_explicit_powers_override(self):
        snap = self.small_snapshot()
        (lo,) = simulate(*snap, [maxpower_config(slots=5, drops=1,
                                                 p_max_dbm=-10.0)],
                         fading_seed=0)
        (hi,) = simulate(*snap, [maxpower_config(slots=5, drops=1,
                                                 p_max_dbm=23.0)],
                         fading_seed=0)
        assert lo.energy_j.sum() < hi.energy_j.sum()

    # sha256 over the bytes of bits, energy_j, snr_lin_sum, iot_lin_sum and
    # sched_slots of one 300-slot drop (rings = 1, 4 UEs per cell, seed 7),
    # recorded before the slot loop ran from per-drop buffers.
    PINNED = {
        "cnb": (dict(scheme="cnb"),
                "8b923e3b69497992c185aa74ce7b7d4fbc9cb341f80b69ed85c55683afd0def9"),
        "maxpower_fading": (
            dict(scheme="maxpower", fading=1),
            "993bcfa038d5d1d084407f9cedc1c1bbf9a686534168b782a6d3e0d01daaf7d7"),
        "fpc_staircase_fading": (
            dict(scheme="fpc", staircase=1, fading=1),
            "4234308b75580cc157f0a4b3a3ba61dd428f545c96f58e4dfeba6fd46f3d230f"),
        "rlpc_delay1_nocontrol": (
            dict(scheme="rlpc", delay_slots=1, control_rbs=0),
            "ac9cd4b6345017b0a7f5f2dbd60049b72654ab8edbe6a6e317de07540b983b6f"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_summaries(self, case):
        overrides, want = self.PINNED[case]
        ((acc,),) = run([SimConfig(rings=1, ues_per_cell=4, slots=300,
                                   drops=1, seed=7, **overrides)])
        h = hashlib.sha256()
        for a in (acc.bits, acc.energy_j, acc.snr_lin_sum, acc.iot_lin_sum,
                  acc.sched_slots):
            h.update(a.tobytes())
        assert h.hexdigest() == want


class TestEngineOracle:
    """simulate returns exactly the plain-loop reference's accumulators."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(SCHEMES), st.integers(0, 1), st.integers(1, 4),
           st.integers(1, 60), st.integers(1, 7), st.integers(0, 1),
           st.integers(0, 1), st.integers(0, 2 ** 32 - 1))
    def test_matches_plain_loop(self, scheme, rings, ues, slots, delay,
                                fading, staircase, seed):
        config = SimConfig(scheme=scheme, rings=rings, ues_per_cell=ues,
                           slots=slots, drops=1, delay_slots=delay,
                           fading=fading, staircase=staircase)
        snap = build_snapshot(config, seed)
        (got,) = simulate(*snap, [config], fading_seed=seed)
        want = engine_oracle.simulate(*snap, config, fading_seed=seed)
        assert_records_equal(got, want)

    def test_matches_plain_loop_at_the_pf_floor(self, monkeypatch):
        # With ewma = 0.9 a served UE's average decays to the smallest
        # subnormal, where 0.1 * 5e-324 rounds to 0, within a few hundred
        # slots without a grant; the floor keeps it served.
        config = maxpower_config(rings=0, ues_per_cell=8, total_rbs=6,
                                 beta=0.0, ewma=0.9, slots=400, drops=1)
        seed = drop_seed(config.seed, 0)
        floored = []
        real_update = engine.pf_update

        def pf_update(*args):
            avg = real_update(*args)
            floored.append((avg == np.finfo(float).smallest_subnormal).any())
            return avg

        monkeypatch.setattr(engine, "pf_update", pf_update)
        snap = build_snapshot(config, seed)
        (got,) = simulate(*snap, [config], fading_seed=seed)
        assert any(floored)
        want = engine_oracle.simulate(*snap, config, fading_seed=seed)
        assert_records_equal(got, want)


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
        simulate(*snap, [cfg], fading_seed=4)

        measured, prev = [], used[0]
        for _, mean_sinr, _, _, _, scheduled in slots:
            rate = amc_realized(mean_sinr, cfg) * cfg.rb_bandwidth_hz
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


class TestSlotBuffers:
    """What each slot reads: its faded gains, and delayed estimates that no
    slot may change, since with fading off every slot shares base_gains and
    the delay line shares one estimate across slots."""

    @settings(max_examples=100, deadline=None)
    @given(network_states(), st.integers(0, 2 ** 32 - 1))
    def test_slot_leaves_its_arguments_unchanged(self, state, seed):
        serving, est, pf, config, powers, n_cells = state
        gains = gains_of(np.random.default_rng(seed).uniform(
            90.0, 140.0, size=(len(serving), n_cells)))
        grant_mw = grant_power_mw(powers, config)
        inputs = (serving, est, pf, grant_mw, gains)
        before = [a.copy() for a in inputs]
        slot = allocate(serving, est, pf, config, grant_mw)
        granted = [a.copy() for a in slot]
        compute_slot(*slot, gains, config)
        for a, b in zip(inputs + slot, before + granted):
            assert np.array_equal(a, b)

    def record(self, monkeypatch):
        """Run 12 slots faded from seed 5; return the gains and estimates
        each slot saw, the estimates as passed and as copied at the call."""
        snap = TestSimulate().small_snapshot()
        cfg = maxpower_config(slots=12, delay_slots=2, drops=1, fading=1)
        gains, est_seen, est_copied = [], [], []
        real_allocate, real_slot = engine.allocate, engine.compute_slot

        def allocate(serving, est, *args):
            est_seen.append(est)
            est_copied.append(est.copy())
            return real_allocate(serving, est, *args)

        def compute_slot(cell, ue, sizes, p_mw, g, *args):
            gains.append(g.copy())
            return real_slot(cell, ue, sizes, p_mw, g, *args)

        monkeypatch.setattr(engine, "allocate", allocate)
        monkeypatch.setattr(engine, "compute_slot", compute_slot)
        simulate(*snap, [cfg], fading_seed=5)
        return snap, gains, est_seen, est_copied

    def test_fading_draws_the_exponential_stream(self, monkeypatch):
        (_, loss), gains, _, _ = self.record(monkeypatch)
        rng = np.random.default_rng(np.random.SeedSequence([5, 2]))
        base = gains_of(loss)
        for t in range(3):
            fad = rng.exponential(1.0, size=loss.shape)
            assert np.array_equal(gains[t], base * fad)

    def test_estimates_are_not_overwritten(self, monkeypatch):
        _, _, seen, copied = self.record(monkeypatch)
        assert all(np.array_equal(s, c) for s, c in zip(seen, copied))
        assert not all(np.array_equal(copied[0], c) for c in copied)


class TestDrops:
    def test_run_drop_deterministic(self):
        cfg = maxpower_config(rings=1, ues_per_cell=2, slots=5, drops=2,
                              seed=3)
        (a,) = run_drop([cfg], 0)
        (b,) = run_drop([cfg], 0)
        assert np.array_equal(a.bits, b.bits)

    def test_drops_differ(self):
        cfg = maxpower_config(rings=1, ues_per_cell=2, slots=5, drops=2,
                              seed=3)
        (a,) = run_drop([cfg], 0)
        (b,) = run_drop([cfg], 1)
        assert not np.array_equal(a.bits, b.bits)

    def test_run_length(self):
        cfg = maxpower_config(rings=1, ues_per_cell=1, slots=2, drops=3,
                              seed=1)
        (accs,) = run([cfg])
        assert len(accs) == 3

    def test_reported_seeds_are_the_seeds_run(self):
        cfg = maxpower_config(rings=1, ues_per_cell=2, slots=5, drops=2,
                              seed=3)
        (accs,) = run([cfg])
        seeds = summarize(accs, cfg).seeds
        assert seeds == (drop_seed(3, 0), drop_seed(3, 1))
        (again,) = simulate(*build_snapshot(cfg, seeds[1]), [cfg],
                            fading_seed=seeds[1])
        assert np.array_equal(accs[1].bits, again.bits)

    def test_mixed_group_fails_before_any_slot(self, monkeypatch):
        # A group shares every key but zeta; the first other key in which a
        # config differs is named.
        def compute_slot(*args):
            raise AssertionError("a slot ran")

        monkeypatch.setattr(engine, "compute_slot", compute_slot)
        fpc = SimConfig(scheme="fpc", rings=1, ues_per_cell=2, slots=5,
                        drops=1)
        with pytest.raises(ValueError, match="^slots: "):
            simulate(*build_snapshot(fpc, 1),
                     [fpc, fpc, replace(fpc, slots=4)], fading_seed=1)

    def test_mixed_list_equals_runs_alone(self):
        # Configs that differ in more than zeta each run alone, and the two
        # C&B configs' results do not depend on the list they came in.
        fpc = SimConfig(scheme="fpc", rings=1, ues_per_cell=2, slots=6,
                        drops=2, seed=4)
        configs = [fpc, replace(fpc, scheme="cnb", zeta=1.3),
                   replace(fpc, scheme="cnb", zeta=0.7)]
        got = run(configs)
        assert len(got) == len(configs) and run([]) == []
        for config, accs in zip(configs, got):
            (alone,) = run([config])
            assert len(accs) == len(alone) == config.drops
            for a, b in zip(accs, alone):
                assert_records_equal(a, b)

    def test_build_snapshot_shapes(self):
        cfg = maxpower_config(rings=1, ues_per_cell=2)
        serving, loss = build_snapshot(cfg, drop_seed=9)
        assert loss.shape == (42, 21)
        assert np.array_equal(serving, np.argmin(loss, axis=1))
