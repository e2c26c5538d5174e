"""Acceptance gate: solver oracle equivalence, formula exactness,
monotonicity, system-level trend directions, engine oracle, determinism."""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import gains_of, maxpower_config
from powerctl_oracle import cnb_objective
from ulsim import engine, powerctl, report
from ulsim.config import DEFAULTS, SimConfig
from ulsim.engine import compute_slot
from ulsim.linkbudget import amc_realized, amc_smooth
from ulsim.powerctl import cnb_ri, cnb_rs, cnb_solve, fpc_power, rlpc_power

CURVE = SimConfig()


def oracle_grid(step=0.01, lo=-10.0, hi=23.0):
    return lo + np.arange(int(round((hi - lo) / step)) + 1) * step


def sample_instances(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        pl = rng.uniform(80.0, 140.0)
        k = rng.integers(0, 7)
        cross = np.sort(pl + rng.uniform(0.0, 40.0, size=k))
        zeta = rng.uniform(0.5, 1.5)
        out.append((pl, cross, zeta))
    return out


class TestCriterion1LatticeOracle:
    def test_solver_matches_grid_argmax(self, monkeypatch):
        grid = oracle_grid()
        solve_time = 0.0
        powers = []
        terms = powerctl.cnb_terms

        def counted_terms(p_dbm, *args):
            powers.extend(np.ravel(p_dbm).tolist())
            return terms(p_dbm, *args)

        monkeypatch.setattr(powerctl, "cnb_terms", counted_terms)
        for pl, cross, zeta in sample_instances(1000, seed=0):
            config = SimConfig(scheme="cnb", zeta=zeta)
            powers.clear()
            t0 = time.perf_counter()
            ((sol,),) = cnb_solve(np.array([pl]), np.array([cross]), [config])
            solve_time += time.perf_counter() - t0
            # The branch-and-bound evaluates no power twice, so at most the
            # whole lattice.
            assert len(set(powers)) == len(powers) <= len(grid)
            vals = cnb_objective(grid, pl, cross, config)
            best = grid[np.argmax(vals)]  # ties resolve to the lowest power
            assert sol == best, (pl, list(cross), zeta, sol, best)
        assert solve_time < 5.0


class TestCriterion2FormulaExactness:
    def test_fpc_hand_values(self):
        config = SimConfig(scheme="fpc")
        assert abs(fpc_power(100.0, config) - (-7.0)) <= 1e-12
        assert abs(fpc_power(140.0, config) - 23.0) <= 1e-12

    def test_rlpc_hand_values(self):
        config = SimConfig(scheme="rlpc")
        assert abs(rlpc_power(120.0, 110.0, config) - 16.0) <= 1e-12
        assert abs(rlpc_power(160.0, 150.0, config) - 23.0) <= 1e-12

    def test_amc_value_at_zero_db(self):
        # 0.7035 * log2(1.7041) = 0.54099853..., i.e. 0.5410 (0.5411 was a rounding slip).
        assert abs(amc_smooth(1.0, CURVE) - 0.5410) <= 5e-5

    def test_amc_cap_exact(self):
        assert amc_smooth(1e12, CURVE) == 4.18


class TestCriterion3Monotonicity:
    def test_rs_nondecreasing_ri_nonincreasing(self):
        grid = np.arange(-10.0, 23.0 + 1e-9, 0.05)
        for pl, cross, zeta in sample_instances(500, seed=1):
            config = SimConfig(scheme="cnb", zeta=zeta)
            rs = cnb_rs(grid, pl, config)
            ri = cnb_ri(grid, cross, config)
            assert np.all(np.diff(rs) >= 0.0)
            assert np.all(np.diff(np.atleast_1d(ri)) <= 0.0)


def desk_cfg(scheme, zeta=1.3):
    cfg = dict(DEFAULTS)
    cfg.update(scheme=scheme, zeta=zeta, rings=2, ues_per_cell=10,
               slots=2000, drops=5, seed=42, fading=0)
    return cfg


def run_desk_drop(task):
    """One (config dict, drop index) task of the desk runs."""
    cfg, drop = task
    (acc,) = engine.run_drop([SimConfig(**cfg)], drop)
    return acc


@pytest.fixture(scope="module")
def desk_runs():
    """Shared full-scale runs: one per scheme plus the zeta sweep (paired
    seeds come from the identical seed in every config).

    The 35 drops of the 7 runs are independent and deterministic, so two
    spawned worker processes share them drop by drop, each with its BLAS
    pinned to one thread; each run's summary pools its drops in drop order,
    as report.run_config does.
    """
    schemes = ("fpc", "rlpc", "maxpower", "cnb")
    zetas = (1.1, 0.9, 0.7)
    cfgs = ([desk_cfg(s) for s in schemes]
            + [desk_cfg("cnb", zeta=z) for z in zetas])
    tasks = [(cfg, d) for cfg in cfgs for d in range(cfg["drops"])]
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            mp.setenv(var, "1")             # read by the workers at start-up
        with ProcessPoolExecutor(
                2, mp_context=multiprocessing.get_context("spawn")) as pool:
            accs = list(pool.map(run_desk_drop, tasks))
    summaries = []
    for cfg in cfgs:
        drops, accs = accs[:cfg["drops"]], accs[cfg["drops"]:]
        summaries.append(report.summarize(drops, SimConfig(**cfg)))
    runs = dict(zip(schemes, summaries))
    sweep = {1.3: runs["cnb"], **dict(zip(zetas, summaries[len(schemes):]))}
    return runs, sweep


class TestCriterion4TrendReproduction:
    def test_cnb_beats_fpc_on_cell_average(self, desk_runs):
        runs, _ = desk_runs
        assert runs["cnb"].cell_avg_mbps > runs["fpc"].cell_avg_mbps

    def test_maxpower_has_worst_edge(self, desk_runs):
        runs, _ = desk_runs
        assert runs["maxpower"].edge_mbps < runs["cnb"].edge_mbps
        assert runs["maxpower"].edge_mbps < runs["fpc"].edge_mbps

    def test_maxpower_has_worst_efficiency(self, desk_runs):
        runs, _ = desk_runs
        worst = runs["maxpower"].power_efficiency_mbits_per_j
        for other in ("fpc", "rlpc", "cnb"):
            assert worst < runs[other].power_efficiency_mbits_per_j


def monotone_with_slack(values, direction):
    """At most one adjacent-pair inversion, and that one below 2%."""
    inversions = []
    for a, b in zip(values, values[1:]):
        bad = b < a if direction == "nondecreasing" else b > a
        if bad:
            inversions.append(abs(b - a) / max(abs(a), 1e-30))
    return len(inversions) <= 1 and all(v < 0.02 for v in inversions)


class TestCriterion5ZetaTradeoff:
    ZETAS = (1.3, 1.1, 0.9, 0.7)

    def test_paired_seeds(self, desk_runs):
        _, sweep = desk_runs
        seeds = {sweep[z].seeds for z in self.ZETAS}
        assert len(seeds) == 1

    def test_cell_average_nonincreasing_in_zeta(self, desk_runs):
        _, sweep = desk_runs
        # Traverse decreasing zeta: the average must not degrade.
        avgs = [sweep[z].cell_avg_mbps for z in self.ZETAS]
        assert monotone_with_slack(avgs, "nondecreasing"), avgs

    def test_edge_nondecreasing_in_zeta(self, desk_runs):
        _, sweep = desk_runs
        edges = [sweep[z].edge_mbps for z in self.ZETAS]
        assert monotone_with_slack(edges, "nonincreasing"), edges


class TestCriterion6EngineOracle:
    """Two cells, three UEs, six data RBs: scalar recomputation."""

    LOSS = [[112.0, 123.0], [127.0, 104.0], [116.0, 109.0]]
    P0, P1, P2 = 2.0, -1.0, 1.0

    def test_per_slot_sinr_and_bits(self):
        config = maxpower_config(slots=1, ues_per_cell=1, total_rbs=8)
        # Per grant: cell, UE, RBs, mW. UE0 holds cell 0's RBs 2..7; in
        # cell 1, UE2 holds RBs 2..3 and UE1 RBs 4..7.
        slot = (np.array([0, 1, 1]), np.array([0, 2, 1]), np.array([6, 2, 4]),
                10.0 ** (np.array([self.P0, self.P2, self.P1]) / 10.0))
        bits, mean_sinr, _, _, energy, _ = compute_slot(
            *slot, gains_of(self.LOSS), config)

        # Independent scalar recomputation: received = p * gain * combining,
        # sinr = signal / (other-cell interference + per-RB noise).
        n0 = 10.0 ** (config.n0_dbm / 10.0)
        comb = 10.0 ** (config.combining_gain_db / 10.0)
        rx = lambda p_dbm, loss: 10.0 ** ((p_dbm - loss) / 10.0) * comb
        sig0 = rx(self.P0, self.LOSS[0][0])
        sig1 = rx(self.P1, self.LOSS[1][1])
        i01 = rx(self.P1, self.LOSS[1][0])   # UE1 into UE0's serving cell
        i02 = rx(self.P2, self.LOSS[2][0])   # UE2 into UE0's serving cell
        i10 = rx(self.P0, self.LOSS[0][1])   # UE0 into UE1's serving cell

        # UE0 meets UE2 on RBs 2..3 and UE1 on RBs 4..7.
        sinr0 = [sig0 / (i02 + n0)] * 2 + [sig0 / (i01 + n0)] * 4
        sinr1 = [sig1 / (i10 + n0)] * 4
        rb_bits = config.rb_bandwidth_hz * config.slot_duration_s
        want_bits0 = sum(amc_realized(s, config) for s in sinr0) * rb_bits
        want_bits1 = sum(amc_realized(s, config) for s in sinr1) * rb_bits

        assert abs(bits[0] - want_bits0) <= 1e-9 * want_bits0
        assert abs(bits[1] - want_bits1) <= 1e-9 * want_bits1
        assert abs(mean_sinr[0] - np.mean(sinr0)) <= 1e-9 * np.mean(sinr0)
        assert abs(mean_sinr[1] - np.mean(sinr1)) <= 1e-9 * np.mean(sinr1)
        want_e0 = 6 * 10.0 ** (self.P0 / 10.0) * 1e-3 / 1000.0
        assert abs(energy[0] - want_e0) <= 1e-12 * want_e0


class TestCriterion7DeterminismAndMerge:
    def small_cfg(self):
        cfg = dict(DEFAULTS)
        cfg.update(scheme="cnb", rings=1, ues_per_cell=3, slots=40, drops=4,
                   seed=11)
        return cfg

    def test_bit_identical_rerun(self):
        a = report.run_config(self.small_cfg())
        b = report.run_config(self.small_cfg())
        assert a == b
        assert a.per_ue_mbps == b.per_ue_mbps
        assert a.per_ue_snr_db == b.per_ue_snr_db

    def test_partitioned_drops_equal_pooled(self):
        # What desk_runs relies on: drops computed one at a time, here in
        # reverse order, pool in drop order to exactly the run's summary.
        sim = SimConfig(**self.small_cfg())
        pooled = report.summarize(engine.run([sim])[0], sim)
        drops = {d: engine.run_drop([sim], d)[0]
                 for d in reversed(range(sim.drops))}
        parts = report.summarize([drops[d] for d in range(sim.drops)], sim)
        assert parts == pooled
