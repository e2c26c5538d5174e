from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powerctl_oracle as oracle
from ulsim import powerctl
from ulsim.config import SimConfig
from ulsim.powerctl import (cnb_neighbor_losses, cnb_ri, cnb_rs, cnb_solve,
                            compute_powers, fpc_power, pl_threshold_db,
                            rlpc_power)
from ulsim.topology import drop_seed, drop_ues
from ulsim.units import db_to_linear

NOISE = SimConfig()


def cnb(**kw):
    return SimConfig(scheme="cnb", **kw)


def solve_one(pl, cross, config):
    """Batched solve of a single UE."""
    return cnb_solve(np.array([pl]), np.array([cross], dtype=float),
                     [config])[0, 0]


def count_pairs(monkeypatch):
    """A list that collects, per call of powerctl.cnb_terms from now on, the
    (UE serving loss, power) pairs it evaluates."""
    calls = []
    real = powerctl.cnb_terms

    def cnb_terms(p_dbm, pl_db, cross_losses, config):
        ue_pl, p = np.broadcast_arrays(pl_db, p_dbm)
        calls.append(list(zip(ue_pl.ravel().tolist(), p.ravel().tolist())))
        return real(p_dbm, pl_db, cross_losses, config)

    monkeypatch.setattr(powerctl, "cnb_terms", cnb_terms)
    return calls


def lattice_top(config):
    """The highest lattice index whose power is at most p_max_dbm."""
    lo, step = config.bisect_lo_dbm, 0.01
    top = round((config.p_max_dbm - lo) / step)
    return top - (lo + top * step > config.p_max_dbm)


def edge_loss_gap_db(config, edge_db):
    """The gap p - cross (dB) at which a neighbor's assumed SINR reaches
    edge_db, where its C&B term kinks or jumps."""
    inr = (db_to_linear(config.snr_i_db) / db_to_linear(edge_db)
           - db_to_linear(config.iot_i_db))
    return config.n0_dbm + 10.0 * np.log10(inr)


def random_instance(rng):
    pl = rng.uniform(80.0, 140.0)
    n = rng.integers(0, 7)
    cross = np.sort(pl + rng.uniform(0.0, 40.0, size=n))
    zeta = rng.uniform(0.5, 1.5)
    return pl, cross, cnb(zeta=zeta)


class TestBaselines:
    def test_fpc_hand_values(self):
        config = SimConfig(scheme="fpc")
        assert abs(fpc_power(100.0, config) - (-7.0)) < 1e-12
        assert abs(fpc_power(140.0, config) - 23.0) < 1e-12
        flat = SimConfig(scheme="fpc", kappa=0.0)
        assert abs(fpc_power(50.0, flat) - (-87.0)) < 1e-12

    def test_fpc_monotone(self):
        config = SimConfig(scheme="fpc")
        pls = np.linspace(60, 160, 101)
        out = [fpc_power(pl, config) for pl in pls]
        assert np.all(np.diff(out) >= 0)

    def test_rlpc_hand_values(self):
        config = SimConfig(scheme="rlpc")
        assert abs(rlpc_power(120.0, 110.0, config) - 16.0) < 1e-12
        assert abs(rlpc_power(160.0, 150.0, config) - 23.0) < 1e-12

    def test_rlpc_phi_one_reduces_to_fpc(self):
        r = SimConfig(scheme="rlpc", phi=1.0)
        f = SimConfig(scheme="fpc", p0_fpc_dbm=-102.0, kappa=1.0)
        for pl in (90.0, 110.0, 130.0):
            assert abs(rlpc_power(pl, 70.0, r) - fpc_power(pl, f)) < 1e-12

    def test_max_power(self):
        loss = np.array([[100.0, 130.0], [140.0, 90.0]])
        got = compute_powers([SimConfig(scheme="maxpower")], loss,
                             np.array([0, 1]))
        assert np.array_equal(got, [[23.0, 23.0]])

    def test_param_validation(self):
        for bad in (dict(scheme="fpc", kappa=1.5),
                    dict(scheme="rlpc", phi=-0.1),
                    dict(scheme="cnb", zeta=0.0),
                    dict(scheme="nope")):
            with pytest.raises(ValueError):
                SimConfig(**bad)


class TestThreshold:
    def test_pl_threshold_value(self):
        # Interference from a max-power UE equals the noise floor at the
        # threshold loss: 23 - (-116.447) = 139.447 dB.
        th = pl_threshold_db(cnb())
        assert np.isclose(th, 23.0 - NOISE.n0_dbm, atol=1e-12)
        assert np.isclose(th, 139.44727, atol=1e-5)

    def test_neighbors_strict_and_sorted(self):
        loss = np.array([[100.0, 135.0, 130.0, 120.0, 125.0],
                         [129.0, 100.0, 131.0, 90.0, 130.0]])
        got = cnb_neighbor_losses(loss, np.array([0, 3]), 130.0)
        # 135 above, 130 exactly at threshold: both excluded. The serving
        # cell is excluded even below the threshold; rows are as wide as
        # the widest row's neighbor count.
        assert np.array_equal(got, [[120.0, 125.0], [100.0, 129.0]])

    def test_neighbors_may_be_empty(self):
        loss = np.array([[100.0, 140.0, 150.0]])
        got = cnb_neighbor_losses(loss, np.array([0]), 110.0)
        assert got.shape == (1, 0)

    def test_default_threshold_is_p_max_minus_n0(self, monkeypatch):
        # compute_powers hands cnb_solve exactly the neighbors strictly
        # below p_max - N0 of the run's config, for any p_max.
        seen = []
        real = powerctl.cnb_solve

        def cnb_solve(pl, cross, configs):
            seen.append(cross)
            return real(pl, cross, configs)

        monkeypatch.setattr(powerctl, "cnb_solve", cnb_solve)
        for p_max in (23.0, 10.0):
            config = cnb(p_max_dbm=p_max)
            th = pl_threshold_db(config)
            assert th == p_max - NOISE.n0_dbm
            below = np.nextafter(th, 0.0)
            loss = np.array([[100.0, th, below], [below, th, 90.0]])
            compute_powers([config], loss, np.array([0, 2]))
            assert np.array_equal(seen[-1], [[below], [below]])


class TestUtilityTerms:
    def test_rs_limits(self):
        config = cnb()
        assert cnb_rs(-200.0, 110.0, config) < 1e-6
        assert cnb_rs(200.0, 110.0, config) == 4.18

    def test_rs_at_reference_point(self):
        # p - pl - n0 - iot_s = 0 dB.
        config = cnb()
        pl = 110.0
        p = pl + NOISE.n0_dbm + 9.0
        assert np.isclose(cnb_rs(p, pl, config),
                          0.5409985337910148, atol=1e-12)

    def test_ri_empty(self):
        config = cnb()
        assert cnb_ri(5.0, [], config) == 0.0

    def test_ri_low_power_saturates_per_neighbor(self):
        # Assumed neighbor SINR 24 - 5 = 19 dB sits above the decodable
        # ceiling, so a vanishing interferer costs nothing: full rate 4.18.
        config = cnb()
        assert np.isclose(cnb_ri(-200.0, [120.0], config), 4.18)
        assert np.isclose(cnb_ri(-200.0, [115.0, 120.0, 125.0], config),
                          3 * 4.18)

    def test_ri_ignores_padding(self):
        # A cnb_neighbor_losses row is inf-padded to the widest row's
        # neighbor count; each inf adds exactly 0, so the row's R_I is its
        # finite entries'. UE 0 of this drop has 23 neighbors, the widest
        # row 31.
        config = cnb()
        _, serving, loss = drop_ues(config, seed=drop_seed(1, 0))
        cross = cnb_neighbor_losses(loss, serving, pl_threshold_db(config))
        k = np.isfinite(cross).sum(axis=1)
        assert (k[0], cross.shape[1]) == (23, 31)
        assert cnb_ri(10.0, cross[0], config) == cnb_ri(10.0, cross[0, :23],
                                                        config)
        assert abs(cnb_ri(10.0, cross[0], config) - 88.80) < 0.01
        p = np.linspace(-10.0, 23.0, len(cross))
        assert np.array_equal(cnb_ri(p, cross, config),
                              [cnb_ri(p[u], cross[u, :k[u]], config)
                               for u in range(len(p))])

    def test_ri_high_power_kills_neighbors(self):
        config = cnb()
        assert cnb_ri(200.0, [120.0], config) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        pl, cross, config = random_instance(rng)
        grid = np.arange(-10.0, 23.0 + 1e-9, 0.5)
        rs = np.array([cnb_rs(p, pl, config) for p in grid])
        ri = np.array([cnb_ri(p, cross, config) for p in grid])
        assert np.all(np.diff(rs) >= -1e-12)
        assert np.all(np.diff(ri) <= 1e-12)

    def test_objective_composition(self):
        config = cnb(zeta=1.3)
        pl, cross = 105.0, [110.0, 120.0]
        got = oracle.cnb_objective(3.0, pl, cross, config)
        want = cnb_rs(3.0, pl, config) + 1.3 * cnb_ri(3.0, cross, config)
        assert np.isclose(got, want, rtol=1e-15)


@st.composite
def neighbor_budgets(draw):
    """C&B configs with random assumed neighbor budgets: free ones, ones where
    snr_i / iot_i stays below the ceiling so no neighbor term can saturate,
    and ones where snr_i / ceiling - iot_i is within about 1e-12 of 0."""
    kind = draw(st.sampled_from(["free", "unsaturable", "edge"]))
    snr_i = draw(st.floats(-40.0, 80.0))
    iot_i = draw(st.floats(-40.0, 0.0 if kind == "edge" else 40.0))
    if kind == "free":
        ceiling = draw(st.floats(-20.0, 60.0))
    elif kind == "unsaturable":
        ceiling = snr_i - iot_i + draw(st.floats(1e-9, 30.0))
    else:
        ceiling = snr_i - iot_i + draw(st.floats(-1e-12, 1e-12))
    floor = ceiling - draw(st.floats(1e-6, 40.0))
    return kind, cnb(snr_i_db=snr_i, iot_i_db=iot_i, sinr_ceiling_db=ceiling,
                     sinr_floor_db=floor)


def ulps_around(x, k=3):
    """x and the k floats on either side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(k):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


class TestSaturatedTermSkip:
    """cnb_ri sets the terms _saturation_db proves to be at the ceiling to
    t_max unevaluated; it must still equal, bit for bit, the sum with every
    term evaluated (powerctl_oracle.cnb_ri)."""

    @staticmethod
    def assert_plain(p, cross, config):
        got, want = cnb_ri(p, cross, config), oracle.cnb_ri(p, cross, config)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(neighbor_budgets(), st.data())
    def test_equals_plain_sum(self, budget, data):
        kind, config = budget
        bound = powerctl._saturation_db(config)
        if kind == "unsaturable":
            assert bound == -np.inf
        snr_i = db_to_linear(config.snr_i_db)
        inr = snr_i / config.sinr_ceiling - db_to_linear(config.iot_i_db)
        # Gaps p - cross: random ones, ones within 1e-9 dB of the bound, and
        # the floats next to the bound and to the ceiling breakpoint.
        gaps = data.draw(st.lists(st.floats(-200.0, 20.0), min_size=1,
                                  max_size=6))
        if np.isfinite(bound):
            gaps += [bound + e for e in data.draw(
                st.lists(st.floats(-1e-9, 1e-9), min_size=1, max_size=6))]
            gaps += ulps_around(bound)
        if inr > 0:
            gaps += ulps_around(config.n0_dbm + 10.0 * np.log10(inr))
        gaps = np.array(gaps)
        m = len(gaps)
        # Up to 40 neighbors: numpy sums 8 or more terms pairwise, so rows
        # this long show whether terms are added in neighbor order.
        n_losses = data.draw(st.integers(0, 39))
        losses = data.draw(st.lists(st.floats(60.0, 160.0), min_size=n_losses,
                                    max_size=n_losses))

        # Scalar power, one row: the gap to a loss of 0 is the power itself.
        for g in gaps:
            self.assert_plain(g, [0.0, *losses, np.inf], config)
        self.assert_plain(gaps[0], [], config)
        # One power per row of an inf-padded (powers, neighbors) matrix.
        k = len(losses) + 1
        cross = np.tile([0.0, *losses], (m, 1))
        pad = np.arange(k) >= np.arange(m)[:, None] % (k + 1)
        cross[pad & (np.arange(k) > 0)] = np.inf
        self.assert_plain(gaps, cross, config)
        self.assert_plain(gaps, np.empty((m, 0)), config)
        self.assert_plain(np.empty(0), np.empty((0, k)), config)
        # A 2-D power grid against one row.
        grid = np.stack([gaps, gaps - 1e-9, gaps + 1e-9], axis=1)
        self.assert_plain(grid, [0.0, *losses], config)
        self.assert_plain(grid, [], config)

    @settings(max_examples=300, deadline=None)
    @given(neighbor_budgets())
    @example(("free", cnb()))
    def test_bound_just_below_ceiling_breakpoint(self, budget):
        # Wherever terms provably saturate, they do so below the ceiling
        # breakpoint, the gap at which a neighbor's assumed SINR falls to the
        # decodable ceiling, within 2e-6 dB of it. The default budget is one
        # such case, so the skip applies.
        _, config = budget
        bound = powerctl._saturation_db(config)
        if config == cnb():
            assert np.isfinite(bound)
        if np.isfinite(bound):
            edge = edge_loss_gap_db(config, config.sinr_ceiling_db)
            assert edge - 2e-6 < bound < edge


class TestLatticeMonotonicity:
    """cnb_solve's branch-and-bound is exact only if, as computed, R_S never
    falls and R_I never rises from one lattice point to the next."""

    @settings(max_examples=200, deadline=None)
    @given(neighbor_budgets(), st.data())
    def test_terms_monotone_between_adjacent_lattice_points(self, budget,
                                                            data):
        _, config = budget
        lo = data.draw(st.sampled_from([-10.0, -40.0, 0.0, 22.97]))
        config = replace(config, bisect_lo_dbm=lo,
                         iot_s_db=data.draw(st.floats(-20.0, 40.0)))
        pl = data.draw(st.floats(40.0, 200.0))
        cross = np.sort(data.draw(st.lists(st.floats(40.0, 200.0),
                                           max_size=40)))
        # The lattice powers, formed as cnb_solve forms them.
        p = lo + np.arange(lattice_top(config) + 1) * 0.01
        rs = cnb_rs(p, pl, config)
        ri = cnb_ri(p, np.broadcast_to(cross, (len(p), len(cross))), config)
        assert (np.diff(rs) >= 0).all()
        assert (np.diff(ri) <= 0).all()


class TestSolve:
    def test_matches_oracle_on_random_instances(self, monkeypatch):
        # A solve evaluates no (UE, power) pair twice, so at most every
        # lattice point once.
        rng = np.random.default_rng(20240817)
        calls = count_pairs(monkeypatch)
        for _ in range(200):
            pl, cross, config = random_instance(rng)
            calls.clear()
            sol = solve_one(pl, cross, config)
            pairs = sum(calls, [])
            assert len(set(pairs)) == len(pairs) <= lattice_top(config) + 1
            assert sol == oracle.cnb_solve(pl, cross, config)

    def test_spec_single_neighbor_instance(self):
        config = cnb(zeta=1.3)
        sol = solve_one(105.0, [110.0], config)
        assert sol == oracle.cnb_solve(105.0, [110.0], config)

    def test_bound_safety(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pl, cross, config = random_instance(rng)
            sol = solve_one(pl, cross, config)
            assert config.bisect_lo_dbm <= sol <= config.p_max_dbm

    def test_empty_neighbors_uncapped_gives_p_max(self):
        # Own rate still rising at the cap power: 23 dBm is the unique max.
        config = cnb()
        sol = solve_one(125.0, [], config)
        assert abs(sol - 23.0) < 1e-9
        assert sol == oracle.cnb_solve(125.0, [], config)

    def test_empty_neighbors_capped_gives_plateau_edge(self):
        # Own rate saturates inside the range; the lowest maximizer wins,
        # matching the tie convention of the dense-grid oracle.
        config = cnb()
        sol = solve_one(100.0, [], config)
        best = oracle.cnb_solve(100.0, [], config)
        assert sol == best
        assert sol < 23.0

    def test_zeta_monotonicity(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            pl, cross, _ = random_instance(rng)
            if len(cross) == 0:
                continue
            p_hi = solve_one(pl, cross, cnb(zeta=1.3))
            p_lo = solve_one(pl, cross, cnb(zeta=0.7))
            assert p_lo >= p_hi - 1e-9
            # Same ordering holds for the oracle itself.
            assert (oracle.cnb_solve(pl, cross, cnb(zeta=0.7))
                    >= oracle.cnb_solve(pl, cross, cnb(zeta=1.3)) - 1e-9)

    def test_vanishing_own_iot_takes_the_lattice_floor(self):
        # iot_s_db = -3000 is in range: R_S saturates at t_max over the
        # whole lattice while R_I falls, so every UE takes bisect_lo_dbm
        # and a run reports edge 0. Which such runs are errors is ROADMAP
        # item 19's decision.
        config = cnb(rings=1, ues_per_cell=2, iot_s_db=-3000.0)
        _, serving, loss = drop_ues(config, drop_seed(config.seed, 0))
        pl = loss[np.arange(len(serving)), serving]
        cross = cnb_neighbor_losses(loss, serving, pl_threshold_db(config))
        p = config.bisect_lo_dbm + np.arange(lattice_top(config) + 1) * 0.01
        assert np.all(cnb_rs(p[:, None], pl, config) == config.t_max)
        assert np.all(cnb_ri(p[-1], cross, config) < cnb_ri(p[0], cross,
                                                            config))
        (powers,) = compute_powers([config], loss, serving)
        assert np.all(powers == config.bisect_lo_dbm)

    def test_determinism(self):
        config = cnb(zeta=1.1)
        a = solve_one(112.0, [115.0, 121.0], config)
        b = solve_one(112.0, [115.0, 121.0], config)
        assert a == b


def random_batch(rng, n):
    """n UEs with serving losses over the own-rate plateau and rising regions
    and 0-40 neighbors each, inf-padded; half the batches draw from only
    three neighbor counts, so many UEs share one."""
    pl = rng.uniform(60.0, 145.0, size=n)
    if rng.random() < 0.5:
        counts = rng.integers(0, 41, size=n)
    else:
        counts = rng.choice(rng.integers(0, 41, size=3), size=n)
    counts[:2] = [0, 1][:n]
    cross = np.full((n, 40), np.inf)
    for u, k in enumerate(counts):
        cross[u, :k] = np.sort(pl[u] + rng.uniform(0.0, 40.0, size=k))
    return pl, cross


class TestBatchedSolveOracle:
    """The batched solver returns exactly the exhaustive lattice argmax
    (tests/powerctl_oracle.py)."""

    def _check(self, pl, cross, configs):
        """Row z of a solve of the group configs is the oracle's under
        configs[z]."""
        powers = cnb_solve(pl, cross, configs)
        assert powers.shape == (len(configs), len(pl))
        for z, config in enumerate(configs):
            want = [oracle.cnb_solve(pl[u], cross[u][np.isfinite(cross[u])],
                                     config) for u in range(len(pl))]
            assert np.array_equal(powers[z], want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 150),
           st.floats(0.1, 3.0),
           st.sampled_from([-10.0, 0.0, 22.97, 22.995]))
    # 43 UEs with 15 neighbors and 105 with 3, so one unit holds both counts.
    @example(seed=70, n=150, zeta=1.3, lo=-10.0)
    # A range of 32 dB, which no sampled lo gives.
    @example(seed=3, n=20, zeta=1.3, lo=-9.0)
    def test_matches_scalar_oracle(self, seed, n, zeta, lo):
        pl, cross = random_batch(np.random.default_rng(seed), n)
        self._check(pl, cross, [cnb(zeta=zeta, bisect_lo_dbm=lo)])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 150),
           st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3),
           st.sampled_from([-10.0, 0.0, 22.97, 22.995]))
    @example(seed=70, n=150, zetas=[1.3, 0.9, 0.7], lo=-10.0)
    @example(seed=0, n=20, zetas=[1.3, 0.9, 0.7], lo=-10.0)
    def test_zeta_group_matches_scalar_oracle(self, seed, n, zetas, lo):
        # One solve for three zetas shares the first level; each row must
        # still be exactly the oracle's powers for its own zeta.
        pl, cross = random_batch(np.random.default_rng(seed), n)
        self._check(pl, cross, [cnb(zeta=z, bisect_lo_dbm=lo) for z in zetas])

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-20.0, 22.99), st.integers(0, 2 ** 32 - 1))
    # Ranges of 33.015 and 32.996 dB, no whole number of 0.01 dB steps.
    @example(lo=-10.015, seed=0)
    @example(lo=-9.996, seed=0)
    def test_powers_within_range(self, lo, seed):
        # The lattice ends at its highest power at most p_max, even where
        # p_max is not on it. UE 0, at 150 dB with no neighbor, still gains
        # own rate at p_max, so it takes that top point.
        pl, cross = random_batch(np.random.default_rng(seed), 20)
        pl[0] = 150.0
        config = cnb(bisect_lo_dbm=lo)
        powers = cnb_solve(pl, cross, [config])
        assert ((lo <= powers) & (powers <= config.p_max_dbm)).all()
        self._check(pl, cross, [config])

    def test_lone_pair_chunk(self, monkeypatch):
        # The solve's first evaluation holds the lattice's two ends; with a
        # chunk one pair short of it, its second R_S / R_I call holds one
        # (UE, power) pair, the lattice top, whose 24 neighbor terms cnb_ri
        # adds in neighbor order as it does for every chunk. Every term is
        # t_max at every power, and the own-rate cap lies a few ulps above
        # the point below the top, so the top wins by less than adding the
        # terms in another order would lower it.
        pl, cross = np.array([111.0984959752979]), 160.0 + np.arange(24.0)
        config = cnb(zeta=1.0)
        calls = count_pairs(monkeypatch)
        cnb_solve(pl, cross[None], [config])
        assert len(calls[0]) == 2
        monkeypatch.setattr(powerctl, "_CHUNK_PAIRS", len(calls[0]) - 1)
        calls.clear()
        self._check(pl, cross[None], [config])
        assert calls[1] == [(pl[0], config.p_max_dbm)]
        assert cnb_solve(pl, cross[None], [config])[0, 0] == config.p_max_dbm

    # Three UEs of three neighbors each, whose floor breakpoints lie far
    # above p_max.
    PL = np.array([118.0, 120.0, 122.0])
    CROSS = PL[:, None] + np.array([6.0, 11.0, 16.0])
    ZETAS = (1.3, 0.9, 0.7)

    def test_each_distinct_point_evaluated_once(self, monkeypatch):
        # Each R_S / R_I call of a 1-zeta or a 3-zeta solve evaluates each
        # (UE, power) pair once, the 3-zeta solve's rows of one UE sharing
        # its pairs.
        pl, cross, config = self.PL, self.CROSS, cnb(zeta=1.3)
        brk = cross + edge_loss_gap_db(config, config.sinr_floor_db)
        assert ((brk > config.p_max_dbm).sum(axis=1) >= 2).all()
        calls = count_pairs(monkeypatch)
        for configs in ([config], [cnb(zeta=z) for z in self.ZETAS]):
            calls.clear()
            self._check(pl, cross, configs)
            assert calls
            for pairs in calls:
                assert len(set(pairs)) == len(pairs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
           st.sampled_from([-10.0, 0.0, 22.97]))
    def test_screen_evaluated_once_for_all_zetas(self, seed, n, lo):
        # The search evaluates each UE's lattice points once for every zeta
        # of a group: over a whole 1-zeta or 3-zeta solve, no (UE, power)
        # pair is evaluated twice, so at most every lattice point of every
        # UE once.
        pl, cross = random_batch(np.random.default_rng(seed), n)
        zetas = np.random.default_rng(seed).uniform(0.1, 3.0, size=3)
        with pytest.MonkeyPatch.context() as patch:
            calls = count_pairs(patch)
            for configs in ([cnb(zeta=zetas[0], bisect_lo_dbm=lo)],
                            [cnb(zeta=z, bisect_lo_dbm=lo) for z in zetas]):
                calls.clear()
                cnb_solve(pl, cross, configs)
                pairs = sum(calls, [])
                assert len(set(pairs)) == len(pairs)
                assert len(pairs) <= len(pl) * (lattice_top(configs[0]) + 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
           st.sampled_from([-10.0, 0.0, 22.97]))
    def test_candidates_evaluated_once_for_all_zetas(self, seed, n, lo):
        # A row's search reads only its own values, and every row of a UE
        # splits the same intervals, so the (UE, power) pairs a 3-zeta solve
        # evaluates are exactly the union of those its three 1-zeta solves
        # evaluate.
        pl, cross = random_batch(np.random.default_rng(seed), n)
        configs = [cnb(zeta=z, bisect_lo_dbm=lo) for z in
                   np.random.default_rng(seed).uniform(0.1, 3.0, size=3)]
        with pytest.MonkeyPatch.context() as patch:
            calls = count_pairs(patch)
            separate = []
            for config in configs:
                calls.clear()
                cnb_solve(pl, cross, [config])
                separate.append(set(sum(calls, [])))
            calls.clear()
            cnb_solve(pl, cross, configs)
            shared = set(sum(calls, []))
        assert shared == set.union(*separate)

    @pytest.mark.parametrize("zeta", [1.3, 0.7])
    def test_full_drop_matches_oracle(self, zeta):
        config = cnb(zeta=zeta)
        _, serving, loss = drop_ues(config, seed=drop_seed(42, 0))
        (got,) = compute_powers([config], loss, serving)
        want = oracle.compute_powers(config, loss, serving)
        assert np.array_equal(got, want)


class TestComputePowers:
    SCHEMES = ("maxpower", "fpc", "rlpc", "cnb")

    def _drop(self):
        rng = np.random.default_rng(8)
        loss = rng.uniform(95.0, 140.0, size=(6, 9))
        serving = np.argmin(loss, axis=1)
        return loss, serving

    def test_shapes_and_caps(self):
        loss, serving = self._drop()
        for scheme in self.SCHEMES:
            out = compute_powers([SimConfig(scheme=scheme)] * 2, loss,
                                 serving)
            assert out.shape == (2, 6)
            assert np.all(out <= 23.0 + 1e-12)

    def test_distributed_row_independence(self):
        # A UE's power depends only on its own path-loss row.
        loss, serving = self._drop()
        config = cnb()
        (base,) = compute_powers([config], loss, serving)
        perturbed = loss.copy()
        perturbed[1:] += np.random.default_rng(1).uniform(
            -3, 3, size=perturbed[1:].shape)
        (out,) = compute_powers([config], perturbed, serving)
        assert out[0] == base[0]

    def test_baselines_match_per_ue_oracle(self):
        loss, serving = self._drop()
        for scheme in self.SCHEMES[:3]:
            config = SimConfig(scheme=scheme)
            (got,) = compute_powers([config], loss, serving)
            want = oracle.compute_powers(config, loss, serving)
            assert np.array_equal(got, want)
