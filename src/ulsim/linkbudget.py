"""Link budget: powers + path losses -> SNR/SINR -> throughput.

All ratios are per resource block and linear unless a name says dB. The
throughput map is a capped-log fit to the adaptive modulation and coding
curve; realized throughput additionally applies the decodable SINR region
(zero below the floor, max rate above the ceiling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .units import db_to_linear

__all__ = [
    "NoiseModel",
    "AmcCurve",
    "snr_of",
    "amc_smooth",
    "amc_realized",
]


@dataclass(frozen=True)
class NoiseModel:
    thermal_density_dbm_hz: float = -174.0
    noise_figure_db: float = 5.0
    rb_bandwidth_hz: float = 180_000.0

    @property
    def n0_dbm(self) -> float:
        """Per-RB noise power (~ -116.45 dBm with defaults)."""
        return (self.thermal_density_dbm_hz
                + 10.0 * np.log10(self.rb_bandwidth_hz)
                + self.noise_figure_db)

    @property
    def n0_mw(self) -> float:
        return 10.0 ** (self.n0_dbm / 10.0)


@dataclass(frozen=True)
class AmcCurve:
    """Capped-log spectral efficiency curve with its decodable SINR region."""

    t_max: float = 4.18                 # bits/s/Hz
    a: float = 0.7035
    b: float = 0.7041
    sinr_floor_db: float = -6.5
    sinr_ceiling_db: float = 18.0
    n_levels: int = 29


def snr_of(p_dbm, pl_db, noise: NoiseModel):
    """Received SNR (linear) of a link at transmit power p_dbm."""
    return db_to_linear(np.asarray(p_dbm, dtype=float) - np.asarray(pl_db, dtype=float)
                        - noise.n0_dbm)


def amc_smooth(sinr, curve: AmcCurve):
    """min(t_max, a*log2(1 + b*sinr)) in bits/s/Hz; monotone, continuous."""
    sinr = np.asarray(sinr, dtype=float)
    val = np.minimum(curve.t_max, curve.a * np.log2(1.0 + curve.b * sinr))
    return val if val.ndim else float(val)


def amc_realized(sinr, curve: AmcCurve, staircase: bool = False):
    """Spectral efficiency actually delivered at a given linear SINR.

    Zero below the decodable floor, t_max at or above the ceiling, the smooth
    curve in between. With staircase=True the in-region values are quantized
    to n_levels uniform steps in SINR-dB (discrete MCS approximation).
    """
    sinr = np.asarray(sinr, dtype=float)
    floor = db_to_linear(curve.sinr_floor_db)
    ceil = db_to_linear(curve.sinr_ceiling_db)
    if staircase:
        with np.errstate(divide="ignore"):
            sinr_db = 10.0 * np.log10(sinr)
        span = curve.sinr_ceiling_db - curve.sinr_floor_db
        step = np.floor((sinr_db - curve.sinr_floor_db) / span * curve.n_levels)
        step = np.clip(step, 0, curve.n_levels - 1)
        eff_db = curve.sinr_floor_db + step * span / curve.n_levels
        mid = amc_smooth(db_to_linear(eff_db), curve)
    else:
        mid = amc_smooth(sinr, curve)
    val = np.where(sinr < floor, 0.0, np.where(sinr >= ceil, curve.t_max, mid))
    return val if val.ndim else float(val)
