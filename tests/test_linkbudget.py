import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ulsim.config import SimConfig
from ulsim.linkbudget import MCS_LEVELS, amc_realized, amc_smooth, snr_of
from ulsim.units import db_to_linear


class TestNoiseModel:
    def test_per_rb_noise_floor(self, config):
        # -174 dBm/Hz + 10 log10(180 kHz) + 5 dB noise figure.
        expected = -174.0 + 10.0 * np.log10(180_000.0) + 5.0
        assert np.isclose(config.n0_dbm, expected, atol=1e-12)
        assert np.isclose(config.n0_dbm, -116.44727, atol=1e-5)
        assert np.isclose(config.n0_mw, 10.0 ** (config.n0_dbm / 10.0))


class TestRatios:
    def test_snr_hand_value(self, config):
        # 23 dBm - 120 dB loss - noise floor = 19.447 dB SNR.
        snr = snr_of(23.0, 120.0, config)
        assert np.isclose(10.0 * np.log10(snr), 23.0 - 120.0 - config.n0_dbm)


class TestAmcSmooth:
    def test_value_at_zero_db(self, config):
        # 0.7035 * log2(1 + 0.7041) computed independently.
        expected = 0.7035 * np.log2(1.7041)
        got = amc_smooth(1.0, config)
        assert np.isclose(got, expected, rtol=0, atol=1e-15)
        assert np.isclose(got, 0.5409985337910148, atol=1e-15)

    def test_cap_exact(self, config):
        assert amc_smooth(1e9, config) == 4.18
        assert amc_smooth(db_to_linear(30.0), config) == 4.18

    def test_zero_sinr(self, config):
        assert amc_smooth(0.0, config) == 0.0

    @given(st.floats(min_value=-20.0, max_value=40.0),
           st.floats(min_value=0.0, max_value=5.0))
    def test_monotone(self, x_db, step_db):
        config = SimConfig()
        lo = amc_smooth(db_to_linear(x_db), config)
        hi = amc_smooth(db_to_linear(x_db + step_db), config)
        assert hi >= lo


class TestAmcRealized:
    def test_region_floor(self, config):
        assert amc_realized(db_to_linear(-6.51), config) == 0.0
        assert amc_realized(db_to_linear(-6.5), config) > 0.0

    def test_region_ceiling(self, config):
        # At or above the ceiling the full rate is delivered.
        assert amc_realized(db_to_linear(18.0), config) == 4.18
        assert amc_realized(db_to_linear(19.0), config) == 4.18

    def test_in_region_matches_smooth(self, config):
        x = db_to_linear(5.0)
        assert amc_realized(x, config) == amc_smooth(x, config)

    def test_staircase_quantizes_down(self, config):
        x = db_to_linear(5.0)
        stair = amc_realized(x, config, staircase=True)
        assert 0.0 < stair <= amc_realized(x, config)
        # 29 uniform steps in dB: value constant within one step.
        span = (config.sinr_ceiling_db - config.sinr_floor_db) / MCS_LEVELS
        same = amc_realized(db_to_linear(5.0 + 0.25 * span), config,
                            staircase=True)
        assert stair == same

    @given(st.floats(min_value=-15.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=5.0))
    def test_monotone(self, x_db, step_db):
        config = SimConfig()
        lo = amc_realized(db_to_linear(x_db), config)
        hi = amc_realized(db_to_linear(x_db + step_db), config)
        assert hi >= lo

    def test_vectorized(self, config):
        x = db_to_linear(np.array([-10.0, 5.0, 25.0]))
        out = amc_realized(x, config)
        assert out[0] == 0.0 and out[2] == 4.18
        assert 0.0 < out[1] < 4.18
