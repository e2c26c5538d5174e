"""Every constant README's "Model summary" quotes equals the value the code
uses. Each row is a README phrase (matched after collapsing whitespace, since
phrases wrap across lines), the code's value and the value the phrase quotes.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from ulsim import topology
from ulsim.config import DEFAULTS, SimConfig
from ulsim.linkbudget import MCS_LEVELS
from ulsim.powerctl import _CHUNK_PAIRS, _FD_STEP_DB, pl_threshold_db

README = Path(__file__).resolve().parents[1] / "README.md"

D = DEFAULTS
CONFIG = SimConfig()
LAYOUT = topology.build_hex_layout(D["rings"], D["isd_m"])
gain = lambda deg: float(topology.antenna_gain_db(deg))
loss = lambda m: float(topology.macro_path_loss_db(m))

MODEL = [
    ("19-site / 57-sector hexagonal cluster (two rings, 500 m ISD)",
     (LAYOUT.n_sites, LAYOUT.n_cells, D["rings"], D["isd_m"]),
     (19, 57, 2, 500.0)),
    ("(10 per cell, ≥ 35 m from any site)",
     (D["ues_per_cell"], D["min_dist_m"]), (10, 35.0)),
    ("macro distance loss `128.1 + 37.6·log10(d_km)` dB",
     (loss(1000.0), loss(10_000.0)), (128.1, 128.1 + 37.6)),
    ("log-normal shadowing (σ = 8 dB", topology.SHADOW_STD_DB, 8.0),
    ("20 dB penetration loss", topology.PENETRATION_LOSS_DB, 20.0),
    ("`14 − min(12·(θ/70)², 25)` dBi",
     (gain(0.0), gain(70.0), gain(-70.0), gain(180.0)),
     (14.0, 14.0 - 12.0, 14.0 - 12.0, 14.0 - 25.0)),
    ("noise floor ≈ −116.45 dBm (−174 dBm/Hz, 180 kHz, 5 dB noise figure)",
     (round(CONFIG.n0_dbm, 2), D["thermal_density_dbm_hz"],
      D["rb_bandwidth_hz"], D["noise_figure_db"]),
     (-116.45, -174.0, 180_000.0, 5.0)),
    ("`f(SINR) = min(4.18, 0.7035·log2(1 + 0.7041·SINR))`",
     (D["t_max"], D["amc_a"], D["amc_b"]), (4.18, 0.7035, 0.7041)),
    ("zero below −6.5 dB, full rate at or above 18 dB",
     (D["sinr_floor_db"], D["sinr_ceiling_db"]), (-6.5, 18.0)),
    ("quantized to 29 discrete MCS levels", MCS_LEVELS, 29),
    ("over P ∈ [−10, 23] dBm", (D["bisect_lo_dbm"], D["p_max_dbm"]),
     (-10.0, 23.0)),
    ("interference level (IoT 9 dB)", D["iot_s_db"], 9.0),
    ("(cross loss < `23 − N0` ≈ 139.45 dB)",
     round(pl_threshold_db(CONFIG), 2), 139.45),
    ("each assumed at 24 dB SNR and 5 dB background IoT",
     (D["snr_i_db"], D["iot_i_db"]), (24.0, 5.0)),
    ("(step 0.01 dB, tolerance 0.1 dB, ≤ 9 iterations per bracketing loop)",
     (_FD_STEP_DB, D["tol_db"],
      math.ceil(math.log2((D["p_max_dbm"] - D["bisect_lo_dbm"])
                          / D["tol_db"]))),
     (0.01, 0.1, 9)),
    ("reported on the 0.01 dB search lattice", _FD_STEP_DB, 0.01),
    ("2,048 at a time", _CHUNK_PAIRS, 2048),
    ("(α = β = 1, EWMA 0.01)", (D["alpha"], D["beta"], D["ewma"]),
     (1.0, 1.0, 0.01)),
    ("delayed by 6 slots", D["delay_slots"], 6),
    ("(48 data RBs of 50,", (CONFIG.data_rbs, D["total_rbs"]), (48, 50)),
    ("the total stays ≤ 23 dBm", D["p_max_dbm"], 23.0),
    ("each 1 ms slot", D["slot_duration_s"], 1e-3),
    ("(3 dB receive-combining gain", D["combining_gain_db"], 3.0),
]


def model_summary() -> str:
    text = README.read_text()
    start = text.index("## Model summary")
    return " ".join(text[start:text.index("\n## ", start)].split())


@pytest.mark.parametrize("phrase, code, quoted", MODEL,
                         ids=[row[0] for row in MODEL])
def test_model_constant_matches_code(phrase, code, quoted):
    assert phrase in model_summary()
    assert np.array_equal(code, quoted)
