"""Link budget: powers + path losses -> SNR/SINR -> throughput.

All ratios are per resource block and linear unless a name says dB. The
throughput map is a capped-log fit to the adaptive modulation and coding
curve; realized throughput additionally applies the decodable SINR region
(zero below the floor, max rate above the ceiling). The parameters are
SimConfig's link-budget keys.
"""

from __future__ import annotations

import numpy as np

from .config import SimConfig
from .units import db_to_linear

__all__ = [
    "MCS_LEVELS",
    "snr_of",
    "amc_smooth",
    "amc_realized",
]

# Uniform SINR-dB steps of the staircase (discrete MCS) curve.
MCS_LEVELS = 29


def snr_of(p_dbm, pl_db, config: SimConfig):
    """Received SNR (linear) of a link at transmit power p_dbm."""
    return db_to_linear(np.asarray(p_dbm, dtype=float) - np.asarray(pl_db, dtype=float)
                        - config.n0_dbm)


def amc_smooth(sinr, config: SimConfig):
    """min(t_max, a*log2(1 + b*sinr)) in bits/s/Hz; monotone, continuous."""
    sinr = np.asarray(sinr, dtype=float)
    return np.minimum(config.t_max,
                      config.amc_a * np.log2(1.0 + config.amc_b * sinr))


def amc_realized(sinr, config: SimConfig, staircase: bool = False):
    """Spectral efficiency actually delivered at a given linear SINR.

    Zero below the decodable floor, t_max at or above the ceiling, the smooth
    curve in between. With staircase=True the in-region values are quantized
    to MCS_LEVELS uniform steps in SINR-dB (discrete MCS approximation).
    """
    sinr = np.asarray(sinr, dtype=float)
    lo_db, hi_db = config.sinr_floor_db, config.sinr_ceiling_db
    if staircase:
        with np.errstate(divide="ignore"):
            sinr_db = 10.0 * np.log10(sinr)
        span = hi_db - lo_db
        step = np.floor((sinr_db - lo_db) / span * MCS_LEVELS)
        step = np.clip(step, 0, MCS_LEVELS - 1)
        mid = amc_smooth(db_to_linear(lo_db + step * span / MCS_LEVELS), config)
    else:
        mid = amc_smooth(sinr, config)
    return np.where(sinr < config.sinr_floor, 0.0,
                    np.where(sinr >= config.sinr_ceiling, config.t_max, mid))
