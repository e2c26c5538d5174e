import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scheduler_oracle
from scheduler_oracle import allocate_network, expand
from ulsim.config import SimConfig
from ulsim.scheduler import allocate, grant_power_mw, pf_update

P_MAX = 23.0


def mw(dbm):
    return 10.0 ** (dbm / 10.0)


def fresh_pf(n, avg=None):
    """PF averages of n UEs: avg, or none served yet."""
    return np.zeros(n) if avg is None else np.asarray(avg, dtype=float)


def schedule(rates, pf, grid, serving=None, powers=None, n_cells=1):
    """One slot of allocate as (cell, RB) occupancy and mW power arrays;
    every UE is in cell 0 unless serving says not."""
    n = len(rates)
    serving = np.zeros(n, dtype=int) if serving is None else np.asarray(serving)
    powers = np.full(n, P_MAX) if powers is None else np.asarray(powers)
    return expand(allocate(serving, np.asarray(rates, dtype=float), pf, grid,
                           n_cells, grant_power_mw(powers, grid)),
                  n_cells, grid)


def grants(occ_row, grid):
    """A cell's grants as (ue, rb_start, rb_len), in RB order.

    Checks the invariants: control RBs idle, grants back to back from the
    control boundary, one contiguous range per UE.
    """
    assert (occ_row[:grid.control_rbs] == -1).all()
    out = []
    for rb in range(grid.control_rbs, grid.total_rbs):
        ue = int(occ_row[rb])
        if ue == -1:
            assert (occ_row[rb:] == -1).all()
            break
        if out and out[-1][0] == ue:
            out[-1] = (ue, out[-1][1], out[-1][2] + 1)
        else:
            out.append((ue, rb, 1))
    ids = [g[0] for g in out]
    assert len(ids) == len(set(ids))
    return out


def rb_counts(occ_row, grid):
    return {ue: size for ue, _, size in grants(occ_row, grid)}


class TestPfMetric:
    GRID = SimConfig()

    def test_weight_formula(self):
        # RB shares follow est^alpha / avg^beta: 1:2, 4:1 and 3:1 of 48 RBs.
        for weights, rates, avg, want in (
                ({}, [100.0, 100.0], [50.0, 25.0], {0: 16, 1: 32}),
                ({"alpha": 2.0, "beta": 1.0}, [200.0, 100.0], [1.0, 1.0],
                 {0: 38, 1: 10}),
                ({"alpha": 1.0, "beta": 0.0}, [300.0, 100.0], [5.0, 1.0],
                 {0: 36, 1: 12})):
            pf = fresh_pf(2, avg=avg)
            config = SimConfig(**weights)
            occ, _ = schedule(rates, pf, config)
            assert rb_counts(occ[0], config) == want

    def test_update(self):
        avg = fresh_pf(3)
        config = SimConfig(ewma=0.01)
        # Bootstrap: the first nonzero rate while scheduled starts the average.
        avg = pf_update(avg, np.array([True, True, False]),
                        np.array([100.0, 0.0, 7.0]), config)
        assert avg.tolist() == [100.0, 0.0, 0.0]
        # One EWMA step for UE 0; UE 1 bootstraps.
        avg = pf_update(avg, np.array([True, True, False]),
                        np.array([200.0, 300.0, 0.0]), config)
        assert np.isclose(avg[0], 101.0)
        assert avg[1:].tolist() == [300.0, 0.0]
        # Served UEs decay in slots without a grant; UE 2 stays unserved.
        avg = pf_update(avg, np.zeros(3, dtype=bool), np.zeros(3), config)
        assert np.allclose(avg, [0.99 * 101.0, 0.99 * 300.0, 0.0])
        # With ewma = 0.9 the step 0.1 * 5e-324 rounds to 0: the floor keeps
        # a served UE's average > 0, so that it stays served.
        tiny = np.finfo(float).smallest_subnormal
        avg = pf_update(np.array([tiny, 0.0]), np.zeros(2, dtype=bool),
                        np.zeros(2), SimConfig(ewma=0.9))
        assert avg.tolist() == [tiny, 0.0]

    def test_update_avg_validates_ewma(self):
        for ewma in (0.0, 1.0):
            with pytest.raises(ValueError, match="^ewma: "):
                SimConfig(ewma=ewma)


class TestPerRbPower:
    def test_uncapped(self):
        grid = SimConfig()
        pf = fresh_pf(1, avg=[1.0])
        _, p_mw = schedule([100.0], pf, grid, powers=[-5.0])
        assert (p_mw[0, grid.control_rbs:] == mw(-5.0)).all()

    def test_capped_by_total_power(self):
        # 10 RBs at 23 dBm each would be 33 dBm total; cap shares p_max.
        grid = SimConfig(total_rbs=12, control_rbs=2)
        pf = fresh_pf(1, avg=[1.0])
        _, p_mw = schedule([100.0], pf, grid, powers=[23.0])
        assert np.allclose(p_mw[0, 2:], mw(23.0 - 10.0 * np.log10(10)),
                           rtol=1e-12)
        assert np.isclose(p_mw[0].sum(), mw(23.0), rtol=1e-12)

    def test_single_rb_never_scaled(self):
        grid = SimConfig(total_rbs=3, control_rbs=2)
        pf = fresh_pf(1, avg=[1.0])
        _, p_mw = schedule([100.0], pf, grid, powers=[23.0])
        assert p_mw[0].tolist() == [0.0, 0.0, mw(23.0)]

    @pytest.mark.parametrize("kw", [{}, {"p_max_dbm": 10.0},
                                    {"total_rbs": 12}],
                             ids=["default", "p_max_10", "total_rbs_12"])
    def test_grant_table_matches_oracle(self, kw):
        cfg = SimConfig(**kw)
        caps = [cfg.p_max_dbm - 10.0 * math.log10(k)
                for k in range(1, cfg.data_rbs + 1)]
        tx = np.array([-30.0, 0.0, 12.3, 23.0]
                      + [np.nextafter(c, d) for c in caps
                         for d in (-np.inf, c, np.inf)])
        table = grant_power_mw(tx, cfg)
        assert table.shape == (len(tx), cfg.data_rbs)
        for u in range(len(tx)):
            for k in range(1, cfg.data_rbs + 1):
                want = 10.0 ** (scheduler_oracle.per_rb_power_dbm(
                    tx[u], k, cfg.p_max_dbm) / 10.0)
                assert table[u, k - 1] == want


class TestAllocate:
    GRID = SimConfig()

    def test_full_grid_used(self):
        pf = fresh_pf(4, avg=[1.0, 1.0, 1.0, 1.0])
        occ, _ = schedule([100.0] * 4, pf, self.GRID)
        counts = rb_counts(occ[0], self.GRID)
        assert sum(counts.values()) == self.GRID.data_rbs
        assert set(counts) == set(range(4))

    def test_weight_proportional_shares(self):
        pf = fresh_pf(2, avg=[1.0, 1.0])
        occ, _ = schedule([300.0, 100.0], pf, self.GRID)
        assert rb_counts(occ[0], self.GRID) == {0: 36, 1: 12}  # 3:1 of 48

    def test_zero_rate_unscheduled(self):
        pf = fresh_pf(3, avg=[1.0] * 3)
        occ, _ = schedule([100.0, 0.0, 100.0], pf, self.GRID)
        assert set(rb_counts(occ[0], self.GRID)) == {0, 2}

    def test_never_served_preempts(self):
        # UE 1 has never been served: it gets scheduled even with huge
        # competing PF weights, and served UEs wait.
        pf = fresh_pf(3, avg=[1e-6, 0.0, 1e-6])
        occ, _ = schedule([500.0, 10.0, 500.0], pf, self.GRID)
        assert rb_counts(occ[0], self.GRID) == {1: self.GRID.data_rbs}

    def test_more_ues_than_rbs(self):
        grid = SimConfig(total_rbs=6, control_rbs=2)
        pf = fresh_pf(10, avg=np.ones(10))
        occ, _ = schedule(np.linspace(100.0, 1000.0, 10), pf, grid)
        # Only the 4 highest-weight UEs fit at one RB each.
        assert grants(occ[0], grid) == [(9, 2, 1), (8, 3, 1), (7, 4, 1),
                                        (6, 5, 1)]

    def test_tie_breaks_by_ue_id(self):
        grid = SimConfig(total_rbs=4, control_rbs=2)
        pf = fresh_pf(8, avg=np.ones(8))
        rates = [0.0, 0.0, 0.0, 100.0, 0.0, 100.0, 0.0, 100.0]
        occ, _ = schedule(rates, pf, grid, serving=[1, 1, 1, 0, 1, 0, 1, 0],
                          n_cells=2)
        assert [g[0] for g in grants(occ[0], grid)] == [3, 5]

    def test_empty_cell(self):
        pf = fresh_pf(2, avg=[1.0, 1.0])
        occ, p_mw = schedule([100.0, 100.0], pf, self.GRID, serving=[1, 1],
                             n_cells=3)
        assert (occ[[0, 2]] == -1).all() and not p_mw[[0, 2]].any()
        assert set(rb_counts(occ[1], self.GRID)) == {0, 1}
        occ, p_mw = schedule([], fresh_pf(0), self.GRID, n_cells=2)
        assert (occ == -1).all() and not p_mw.any()

    def test_power_cap_applied_per_assignment(self):
        pf = fresh_pf(2, avg=[1.0, 1.0])
        occ, p_mw = schedule([100.0, 100.0], pf, self.GRID,
                             powers=[23.0, -5.0])
        counts = rb_counts(occ[0], self.GRID)
        for ue, scheme in ((0, 23.0), (1, -5.0)):
            cap = 23.0 - 10.0 * math.log10(counts[ue])
            assert (p_mw[occ == ue] == mw(min(scheme, cap))).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=20),
           st.integers(min_value=3, max_value=50))
    def test_invariants_random(self, rates, total_rbs):
        grid = SimConfig(total_rbs=total_rbs, control_rbs=2)
        n = len(rates)
        pf = fresh_pf(n, avg=np.ones(n))
        occ, _ = schedule(rates, pf, grid)
        entries = grants(occ[0], grid)
        if any(r > 0 for r in rates):
            assert len(entries) >= 1
            assert sum(e[2] for e in entries) == grid.data_rbs or \
                len(entries) == min(grid.data_rbs, sum(r > 0 for r in rates))


@st.composite
def network_states(draw):
    """Random multi-cell PF states with integer rates and averages, so that
    exact remainder ties occur; cells may be empty or hold more UEs than
    data RBs, estimates may be zero, UEs may be served or never served."""
    n_cells = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=0, max_value=80))
    total_rbs = draw(st.integers(min_value=3, max_value=60))
    grid = SimConfig(total_rbs=total_rbs,
                     control_rbs=draw(st.integers(min_value=0, max_value=2)))
    per_ue = lambda elements: np.array(
        draw(st.lists(elements, min_size=n, max_size=n)))
    serving = per_ue(st.integers(min_value=0, max_value=n_cells - 1))
    est = per_ue(st.integers(min_value=0, max_value=9)).astype(float)
    served = per_ue(st.booleans()).astype(bool)
    avg = np.where(served, per_ue(st.integers(min_value=1, max_value=9)), 0.0)
    powers = per_ue(st.sampled_from([-30.0, -7.5, 0.0, 6.0, 12.3, 23.0]))
    pf = fresh_pf(n, avg=avg)
    return serving.astype(int), est, pf, grid, powers.astype(float), n_cells


def example_state(serving, est, avg, powers, n_cells, config=SimConfig()):
    n = len(serving)
    return (np.array(serving), np.array(est, dtype=float),
            fresh_pf(n, avg=avg), config,
            np.array(powers, dtype=float), n_cells)


# 135 UEs in one cell of 192 data RBs: numpy's pairwise sum of the cell's
# weights, which splits a slice longer than 128 in two, is 4 ulps above the
# sequential total, and with it one remainder RB goes to another UE.
SPLIT_EST = [
    1, 3, 4, 4, 5, 2, 1, 4, 2, 5, 1, 5, 4, 4, 3, 5, 1, 5, 5, 5, 3, 5, 4, 1,
    2, 2, 1, 4, 4, 5, 1, 3, 3, 5, 1, 5, 4, 5, 3, 2, 1, 3, 5, 1, 4, 3, 4, 1,
    1, 3, 2, 3, 4, 3, 1, 1, 2, 1, 2, 2, 2, 3, 5, 1, 3, 3, 2, 4, 2, 3, 1, 1,
    4, 1, 2, 4, 3, 2, 3, 4, 5, 5, 1, 1, 4, 3, 5, 1, 2, 1, 2, 3, 2, 2, 5, 2,
    5, 5, 3, 2, 3, 3, 3, 1, 5, 3, 3, 2, 2, 5, 4, 1, 5, 1, 3, 5, 3, 5, 2, 2,
    1, 2, 1, 3, 4, 4, 1, 4, 3, 5, 3, 1, 1, 5, 5]
SPLIT_AVG = [
    1, 3, 4, 4, 2, 3, 2, 1, 3, 5, 4, 1, 5, 5, 2, 4, 5, 2, 1, 3, 5, 2, 4, 5,
    1, 1, 3, 4, 4, 2, 3, 4, 2, 3, 2, 3, 3, 5, 1, 3, 1, 5, 5, 4, 4, 2, 5, 1,
    3, 2, 3, 5, 3, 3, 5, 1, 1, 3, 2, 4, 3, 4, 1, 5, 3, 2, 4, 4, 1, 1, 4, 4,
    1, 5, 4, 2, 2, 2, 4, 5, 1, 3, 5, 2, 1, 2, 5, 5, 2, 4, 2, 5, 2, 2, 2, 3,
    2, 1, 2, 4, 5, 5, 2, 1, 5, 4, 5, 4, 3, 4, 4, 3, 3, 4, 2, 3, 3, 5, 1, 4,
    1, 3, 5, 5, 3, 5, 4, 5, 3, 1, 5, 5, 4, 2, 2]


@settings(max_examples=300, deadline=None)
@given(network_states())
# A remainder tie that summing a cell's weights in another order breaks.
@example(example_state([0] * 10, [7, 2, 8, 2, 7, 5, 2, 9, 4, 2],
                       [2, 4, 2, 1, 3, 2, 5, 1, 2, 2], [0.0] * 10, 1))
# Grants of 40 and 43 RBs, where numpy's log10 and libm's differ.
@example(example_state([0, 0, 1, 1], [39, 7, 42, 4], [1, 1, 1, 1],
                       [23.0] * 4, 2))
@example(example_state([0] * 135, SPLIT_EST, SPLIT_AVG, [23.0] * 135, 1,
                       SimConfig(total_rbs=194)))
def test_matches_per_cell_oracle(state):
    serving, est, pf, config, powers, n_cells = state
    occ, p_mw = expand(allocate(serving, est, pf, config, n_cells,
                                grant_power_mw(powers, config)),
                       n_cells, config)
    want_occ, want_p_mw = allocate_network(*state)
    assert np.array_equal(occ, want_occ)
    assert np.array_equal(p_mw, want_p_mw)
