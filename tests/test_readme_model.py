"""Every constant README's "Model summary" quotes equals the value the code
uses, and every bound its config rules quote is the bound SimConfig checks.
Each row starts with a README phrase (matched after collapsing whitespace,
since phrases wrap across lines).
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from ulsim import topology
from ulsim.config import _LATTICE_STEP_DB, DEFAULTS, SimConfig
from ulsim.linkbudget import MCS_LEVELS
from ulsim.powerctl import pl_threshold_db

README = Path(__file__).resolve().parents[1] / "README.md"

D = DEFAULTS
CONFIG = SimConfig()
LAYOUT = topology.build_hex_layout(D["rings"], D["isd_m"])
# The C&B power lattice's steps over [bisect_lo_dbm, p_max_dbm].
STEPS = round((D["p_max_dbm"] - D["bisect_lo_dbm"]) / _LATTICE_STEP_DB)
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
    ("Max Power transmits at 23 dBm", D["p_max_dbm"], 23.0),
    ("with P0 = −87 dBm and κ = 0.8", (D["p0_fpc_dbm"], D["kappa"]),
     (-87.0, 0.8)),
    ("P0 = −102 dBm and φ = 0.8", (D["p0_rlpc_dbm"], D["phi"]), (-102.0, 0.8)),
    ("over P ∈ [−10, 23] dBm", (D["bisect_lo_dbm"], D["p_max_dbm"]),
     (-10.0, 23.0)),
    ("interference level (IoT 9 dB)", D["iot_s_db"], 9.0),
    ("(cross loss < `23 − N0` ≈ 139.45 dB)",
     round(pl_threshold_db(CONFIG), 2), 139.45),
    ("each assumed at 24 dB SNR and 5 dB background IoT",
     (D["snr_i_db"], D["iot_i_db"]), (24.0, 5.0)),
    ("the lattice's 3300 steps take at most ⌈log2(3300)⌉ = 12 levels",
     (STEPS, math.ceil(math.log2(STEPS))), (3300, 12)),
    ("the whole lattice, 3301 evaluations", STEPS + 1, 3301),
    ("reported on the 0.01 dB search lattice", _LATTICE_STEP_DB, 0.01),
    ("(α = β = 1, EWMA 0.01)", (D["alpha"], D["beta"], D["ewma"]),
     (1.0, 1.0, 0.01)),
    ("delayed by 6 slots", D["delay_slots"], 6),
    ("(48 data RBs of 50,", (CONFIG.data_rbs, D["total_rbs"]), (48, 50)),
    ("the total stays ≤ 23 dBm", D["p_max_dbm"], 23.0),
    ("each 1 ms slot", D["slot_duration_s"], 1e-3),
    ("(3 dB receive-combining gain", D["combining_gain_db"], 3.0),
]


# n0_dbm equals thermal_density_dbm_hz at a 1 Hz RB and no noise figure.
N0_IS_THERMAL = dict(rb_bandwidth_hz=1.0, noise_figure_db=0.0)

# Exact bounds: the phrase, a config at the bound that SimConfig accepts, one
# just past it that SimConfig refuses, and the key its error names.
BOUNDS = [
    ("`p_max_dbm ≤ 3080`", dict(p_max_dbm=3080.0), dict(p_max_dbm=3080.5),
     "p_max_dbm"),
    ("`combining_gain_db` in [−3070, 3080]", dict(combining_gain_db=3080.0),
     dict(combining_gain_db=3080.5), "combining_gain_db"),
    ("`combining_gain_db` in [−3070, 3080]", dict(combining_gain_db=-3070.0),
     dict(combining_gain_db=-3070.5), "combining_gain_db"),
    ("`sinr_floor_db` and `sinr_ceiling_db` in [−3070, 3080]",
     dict(sinr_floor_db=-3070.0), dict(sinr_floor_db=-3070.5),
     "sinr_floor_db"),
    ("`sinr_floor_db` and `sinr_ceiling_db` in [−3070, 3080]",
     dict(sinr_ceiling_db=3080.0), dict(sinr_ceiling_db=3080.5),
     "sinr_ceiling_db"),
    ("`iot_s_db`, `snr_i_db` and `iot_i_db` in [−3070, 3080]",
     dict(iot_s_db=3080.0), dict(iot_s_db=3080.5), "iot_s_db"),
    ("`iot_s_db`, `snr_i_db` and `iot_i_db` in [−3070, 3080]",
     dict(snr_i_db=-3070.0), dict(snr_i_db=-3070.5), "snr_i_db"),
    ("`iot_s_db`, `snr_i_db` and `iot_i_db` in [−3070, 3080]",
     dict(iot_i_db=3080.0), dict(iot_i_db=3080.5), "iot_i_db"),
    ("set in [−3070, 3080] dBm",
     dict(N0_IS_THERMAL, thermal_density_dbm_hz=3080.0),
     dict(N0_IS_THERMAL, thermal_density_dbm_hz=3080.5), "n0_dbm"),
    ("set in [−3070, 3080] dBm",
     dict(N0_IS_THERMAL, thermal_density_dbm_hz=-3070.0),
     dict(N0_IS_THERMAL, thermal_density_dbm_hz=-3070.5), "n0_dbm"),
    # A strict bound: the largest float below it is accepted.
    ("`t_max / amc_a < 1024`",
     dict(amc_a=1.0, t_max=math.nextafter(1024.0, 0.0)),
     dict(amc_a=1.0, t_max=1024.0), "t_max"),
    # The cap's numerator rounds to 0 once t_max / amc_a is below about
    # 1.6e-16, and the quotient once amc_b is large enough; other schemes
    # do not check it.
    ("for C&B the own-rate cap `(2 ** (t_max / amc_a) − 1) / amc_b`",
     dict(t_max=2e-16), dict(t_max=1e-16), "t_max"),
    ("for C&B the own-rate cap `(2 ** (t_max / amc_a) − 1) / amc_b`",
     dict(t_max=2e-16, amc_b=1.0), dict(t_max=2e-16, amc_b=1.7e308),
     "t_max"),
    ("`amc_a = 1e300` or `t_max = 1e-300` is refused",
     dict(scheme="fpc", amc_a=1e300), dict(amc_a=1e300), "t_max"),
    ("the defaults `bisect_lo_dbm = −4686.3` is accepted and `−4686.4` "
     "refused", dict(bisect_lo_dbm=-4686.3), dict(bisect_lo_dbm=-4686.4),
     "bisect_lo_dbm"),
    # At 14 rings the coupling array outgrows the bound first, so the error
    # names the last key that sizes it.
    ("the defaults allow up to 13 rings", dict(rings=13), dict(rings=14),
     "total_rbs"),
]

# "About" figures: the phrase, a config past the bound, the key its error
# names, and the figure the bound that error quotes rounds to.
ABOUT = [
    ("(about 52.4 and 40.8 at the defaults)", dict(alpha=1e3), "alpha",
     "52.4"),
    ("(about 52.4 and 40.8 at the defaults)", dict(beta=1e3), "beta", "40.8"),
    ("(about 7.5e305 at the defaults)", dict(zeta=1e308), "zeta", "7.5e305"),
]


def readme_section(heading: str) -> str:
    text = README.read_text()
    start = text.index(f"## {heading}")
    return " ".join(text[start:text.index("\n## ", start)].split())


@pytest.mark.parametrize("phrase, code, quoted", MODEL,
                         ids=[row[0] for row in MODEL])
def test_model_constant_matches_code(phrase, code, quoted):
    assert phrase in readme_section("Model summary")
    assert np.array_equal(code, quoted)


@pytest.mark.parametrize("phrase, at, past, key", BOUNDS,
                         ids=[f"{key}@{list(at.values())[-1]}"
                              for _, at, _, key in BOUNDS])
def test_config_bound_matches_rule(phrase, at, past, key):
    assert phrase in readme_section("Command line")
    SimConfig(**at)
    with pytest.raises(ValueError, match=f"^{key}: "):
        SimConfig(**past)


@pytest.mark.parametrize("phrase, past, key, figure", ABOUT,
                         ids=[row[2] for row in ABOUT])
def test_config_figure_rounds_the_bound(phrase, past, key, figure):
    assert phrase in readme_section("Command line")
    with pytest.raises(ValueError, match=f"^{key}: ") as err:
        SimConfig(**past)
    bound = float(re.search(r"(?:\[0, |at most )([^,\]]+)",
                            str(err.value))[1])
    digits = len(figure.split("e")[0].replace(".", ""))
    assert float(f"{bound:.{digits}g}") == float(figure)
