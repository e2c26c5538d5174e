import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ulsim.config import SimConfig
from ulsim.linkbudget import MCS_LEVELS, amc_realized, amc_smooth, snr_of
from ulsim.units import db_to_linear


class TestNoiseModel:
    def test_per_rb_noise_floor(self, noise):
        # -174 dBm/Hz + 10 log10(180 kHz) + 5 dB noise figure.
        expected = -174.0 + 10.0 * np.log10(180_000.0) + 5.0
        assert np.isclose(noise.n0_dbm, expected, atol=1e-12)
        assert np.isclose(noise.n0_dbm, -116.44727, atol=1e-5)
        assert np.isclose(noise.n0_mw, 10.0 ** (noise.n0_dbm / 10.0))


class TestRatios:
    def test_snr_hand_value(self, noise):
        # 23 dBm - 120 dB loss - noise floor = 19.447 dB SNR.
        snr = snr_of(23.0, 120.0, noise)
        assert np.isclose(10.0 * np.log10(snr), 23.0 - 120.0 - noise.n0_dbm)


class TestAmcSmooth:
    def test_value_at_zero_db(self, curve):
        # 0.7035 * log2(1 + 0.7041) computed independently.
        expected = 0.7035 * np.log2(1.7041)
        got = amc_smooth(1.0, curve)
        assert np.isclose(got, expected, rtol=0, atol=1e-15)
        assert np.isclose(got, 0.5409985337910148, atol=1e-15)

    def test_cap_exact(self, curve):
        assert amc_smooth(1e9, curve) == 4.18
        assert amc_smooth(db_to_linear(30.0), curve) == 4.18

    def test_zero_sinr(self, curve):
        assert amc_smooth(0.0, curve) == 0.0

    @given(st.floats(min_value=-20.0, max_value=40.0),
           st.floats(min_value=0.0, max_value=5.0))
    def test_monotone(self, x_db, step_db):
        curve = SimConfig()
        lo = amc_smooth(db_to_linear(x_db), curve)
        hi = amc_smooth(db_to_linear(x_db + step_db), curve)
        assert hi >= lo


class TestAmcRealized:
    def test_region_floor(self, curve):
        assert amc_realized(db_to_linear(-6.51), curve) == 0.0
        assert amc_realized(db_to_linear(-6.5), curve) > 0.0

    def test_region_ceiling(self, curve):
        # At or above the ceiling the full rate is delivered.
        assert amc_realized(db_to_linear(18.0), curve) == 4.18
        assert amc_realized(db_to_linear(19.0), curve) == 4.18

    def test_in_region_matches_smooth(self, curve):
        x = db_to_linear(5.0)
        assert amc_realized(x, curve) == amc_smooth(x, curve)

    def test_staircase_quantizes_down(self, curve):
        x = db_to_linear(5.0)
        stair = amc_realized(x, curve, staircase=True)
        assert 0.0 < stair <= amc_realized(x, curve)
        # 29 uniform steps in dB: value constant within one step.
        span = (curve.sinr_ceiling_db - curve.sinr_floor_db) / MCS_LEVELS
        same = amc_realized(db_to_linear(5.0 + 0.25 * span), curve,
                            staircase=True)
        assert stair == same

    @given(st.floats(min_value=-15.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=5.0))
    def test_monotone(self, x_db, step_db):
        curve = SimConfig()
        lo = amc_realized(db_to_linear(x_db), curve)
        hi = amc_realized(db_to_linear(x_db + step_db), curve)
        assert hi >= lo

    def test_vectorized(self, curve):
        x = db_to_linear(np.array([-10.0, 5.0, 25.0]))
        out = amc_realized(x, curve)
        assert out[0] == 0.0 and out[2] == 4.18
        assert 0.0 < out[1] < 4.18
