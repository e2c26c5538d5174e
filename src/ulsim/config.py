"""Run configuration: SimConfig, and flat key=value files over its defaults.

The configuration file is plain text, one `key = value` per line, `#` starts a
comment. CLI flags override file values. The keys, their types and defaults
are SimConfig's fields; unknown keys are rejected so sweeps and overrides
cannot silently misspell a parameter. This module imports no ulsim module
but the topology and the dB helper in units, so no default can come from
another layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .topology import SECTORS_PER_SITE, build_hex_layout
from .units import db_to_linear

__all__ = ["SCHEMES", "SimConfig", "DEFAULTS", "parse_config_file", "set_key"]

# Power control schemes, in the order the CLI lists them.
SCHEMES = ("cnb", "fpc", "rlpc", "maxpower")

# The values a key takes, by the type of its default: integral numbers (bools
# and numpy ints too) for int keys, any real number for float keys.
_ACCEPTS = {int: Integral, float: Real, str: str}

# The most elements a drop's largest array may hold: 2**27 float64 values, or
# 1 GiB. A larger drop would end in a MemoryError or the OOM killer, and a
# huge rings would first spend hours in _hex_sites. A literal, not read from
# the machine, so that a config valid on one machine is valid on all; the
# default drop's largest array holds 155,952.
_MAX_DROP_ELEMENTS = 2 ** 27


def _largest_drop_array(rings, ues_per_cell, data_rbs) -> int:
    """Elements of a drop's largest array, counted in Python ints before any
    is built: the (UE, cell) loss matrix, which the C&B cross-loss matrix
    (UE, cell - 1) does not exceed, the (UE, data_rbs) grant-power table and
    the (cells * data_rbs, cells) coupling buffer."""
    rings, ues_per_cell, data_rbs = map(int, (rings, ues_per_cell, data_rbs))
    cells = SECTORS_PER_SITE * (1 + 3 * rings * (rings + 1))
    ues = ues_per_cell * cells
    return max(ues * cells, ues * data_rbs, cells * data_rbs * cells)


@dataclass(frozen=True)
class SimConfig:
    """One run: a field per configuration key, in config-file order.

    Each default is written once, here. Construction checks every key,
    raising ValueError("<key>: ..."), then builds the layout. Keys of the
    schemes not selected are only checked for their type and finiteness.

    It is the one parameter record every layer reads: drop_ues takes the
    layout, ues_per_cell and min_dist_m; the controllers (compute_powers,
    for a group of configs that differ at most in zeta) the scheme keys; the
    link budget (snr_of, amc_smooth, amc_realized) the AMC keys and the
    derived noise floor; the scheduler (grant_power_mw, allocate, pf_update)
    data_rbs, alpha, beta and ewma. Between layers a drop travels as the two
    arrays (serving, loss_db).
    """

    # scheme selection
    scheme: str = "cnb"                 # one of SCHEMES
    zeta: float = 1.3                   # C&B weight of the neighbors' rate
    iot_s_db: float = 9.0               # C&B: assumed own-cell IoT
    snr_i_db: float = 24.0              # C&B: assumed neighbor-UE SNR
    iot_i_db: float = 5.0               # C&B: assumed neighbor IoT without us
    bisect_lo_dbm: float = -10.0        # C&B search range is [this, p_max]
    tol_db: float = 0.1                 # C&B bisection tolerance
    p_max_dbm: float = 23.0
    p0_fpc_dbm: float = -87.0
    kappa: float = 0.8
    p0_rlpc_dbm: float = -102.0
    phi: float = 0.8
    # topology
    rings: int = 2
    isd_m: float = 500.0
    ues_per_cell: int = 10
    min_dist_m: float = 35.0            # minimum UE-site distance
    # run shape
    slots: int = 2000
    drops: int = 5
    seed: int = 0
    slot_duration_s: float = 1e-3
    delay_slots: int = 6
    fading: int = 0                     # 0 | 1: per-slot Rayleigh fading
    combining_gain_db: float = 3.0
    # scheduler
    alpha: float = 1.0                  # PF metric est^alpha / avg^beta
    beta: float = 1.0
    ewma: float = 0.01                  # PF average's EWMA weight
    total_rbs: int = 50
    control_rbs: int = 2
    # link budget
    thermal_density_dbm_hz: float = -174.0
    noise_figure_db: float = 5.0
    rb_bandwidth_hz: float = 180_000.0
    t_max: float = 4.18                 # AMC cap, bits/s/Hz
    amc_a: float = 0.7035
    amc_b: float = 0.7041
    sinr_floor_db: float = -6.5         # decodable SINR region
    sinr_ceiling_db: float = 18.0
    staircase: int = 0                  # 0 | 1: quantize to MCS_LEVELS steps

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if not isinstance(value, _ACCEPTS[kind]):
                raise ValueError(f"{f.name}: expected {kind.__name__}, "
                                 f"got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{f.name}: must be finite, got {value}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: must be one of {', '.join(SCHEMES)}, "
                             f"got {self.scheme!r}")
        # A scheme's own rules hold only when it is the one selected.
        other = lambda scheme: self.scheme != scheme
        # A dB value whose linear value is a positive, finite float.
        lo10, hi10 = sys.float_info.min_10_exp, sys.float_info.max_10_exp
        db_in_range = lambda db: lo10 <= db / 10 <= hi10
        db_range = f"in [{10 * lo10}, {10 * hi10}]"
        max_exp = sys.float_info.max_exp
        # The largest e for which every value up to x, raised to e, is finite.
        exp_max = lambda x: hi10 / math.log10(x) if x > 1 else math.inf
        alpha_max = exp_max(self.t_max * self.rb_bandwidth_hz)
        beta_max = exp_max(self.data_rbs * self.t_max * self.rb_bandwidth_hz)
        # Whether a drop's arrays fit with ues_per_cell and data_rbs at these
        # values. Each size rule takes the keys after its own at their least,
        # so the error names the first key that makes the arrays outgrow the
        # bound.
        fits = lambda ues_per_cell, data_rbs: _largest_drop_array(
            self.rings, ues_per_cell, data_rbs) <= _MAX_DROP_ELEMENTS
        largest = _largest_drop_array(self.rings, self.ues_per_cell,
                                      self.data_rbs)
        fit_rule = (f"small enough that a drop's largest array holds at most "
                    f"{_MAX_DROP_ELEMENTS} elements; at rings = {self.rings}, "
                    f"ues_per_cell = {self.ues_per_cell} and total_rbs = "
                    f"{self.total_rbs} it would hold {largest}")
        for key, ok, rule in (
                ("isd_m", self.isd_m > 0, "positive"),
                ("rings", self.rings >= 0, ">= 0"),
                ("zeta", other("cnb") or self.zeta > 0, "positive"),
                ("tol_db", other("cnb") or self.tol_db > 0, "positive"),
                ("p_max_dbm", self.p_max_dbm / 10 <= hi10,
                 f"at most {10 * hi10} dBm, a finite mW value"),
                ("bisect_lo_dbm",
                 other("cnb") or self.bisect_lo_dbm < self.p_max_dbm,
                 f"below p_max_dbm = {self.p_max_dbm}"),
                ("kappa", other("fpc") or 0 <= self.kappa <= 1, "in [0, 1]"),
                ("phi", other("rlpc") or 0 <= self.phi <= 1, "in [0, 1]"),
                ("min_dist_m", 0 <= self.min_dist_m < self.isd_m / 2,
                 "in [0, isd_m/2)"),
                ("ues_per_cell", self.ues_per_cell >= 1, ">= 1"),
                ("slots", self.slots >= 1, ">= 1"),
                ("drops", self.drops >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0"),
                ("slot_duration_s", self.slot_duration_s > 0, "positive"),
                ("delay_slots", self.delay_slots >= 1, ">= 1"),
                ("fading", self.fading in (0, 1), "0 or 1"),
                ("combining_gain_db", db_in_range(self.combining_gain_db),
                 f"{db_range} dB, a positive, finite linear gain"),
                ("ewma", 0 < self.ewma < 1, "in (0, 1)"),
                ("control_rbs", 0 <= self.control_rbs < self.total_rbs,
                 f"in [0, total_rbs = {self.total_rbs})"),
                ("rings", fits(1, 1), fit_rule),
                ("ues_per_cell", fits(self.ues_per_cell, 1), fit_rule),
                ("total_rbs", fits(self.ues_per_cell, self.data_rbs),
                 fit_rule),
                ("rb_bandwidth_hz", self.rb_bandwidth_hz > 0, "positive"),
                ("n0_dbm",
                 self.rb_bandwidth_hz <= 0 or db_in_range(self.n0_dbm),
                 f"{db_range} dBm, a positive, finite mW noise floor, as "
                 "thermal_density_dbm_hz + 10 log10(rb_bandwidth_hz) + "
                 "noise_figure_db sets it"),
                ("t_max", self.t_max > 0, "positive"),
                ("amc_a", self.amc_a > 0, "positive"),
                ("t_max",
                 self.amc_a <= 0 or self.t_max / self.amc_a < max_exp,
                 f"below {max_exp} * amc_a = {max_exp * self.amc_a}, so "
                 "that 2 ** (t_max / amc_a) is a finite float"),
                ("amc_b", self.amc_b > 0, "positive"),
                ("sinr_floor_db", self.sinr_floor_db < self.sinr_ceiling_db,
                 f"below sinr_ceiling_db = {self.sinr_ceiling_db}"),
                ("staircase", self.staircase in (0, 1), "0 or 1"),
                ("alpha", 0 <= self.alpha <= alpha_max,
                 f"in [0, {alpha_max:.6g}], so that a rate estimate up to "
                 "t_max * rb_bandwidth_hz raised to it is finite"),
                ("beta", 0 <= self.beta <= beta_max,
                 f"in [0, {beta_max:.6g}], so that a PF average up to "
                 "data_rbs * t_max * rb_bandwidth_hz raised to it is finite")):
            if not ok:
                raise ValueError(f"{key}: must be {rule}, "
                                 f"got {getattr(self, key)}")
        object.__setattr__(self, "layout",
                           build_hex_layout(self.rings, self.isd_m))

    @property
    def data_rbs(self) -> int:
        return self.total_rbs - self.control_rbs

    # Derived link-budget constants, evaluated once per config: the slot
    # loop reads them every slot.
    @cached_property
    def n0_dbm(self) -> float:
        """Per-RB noise power (~ -116.45 dBm with defaults)."""
        return (self.thermal_density_dbm_hz
                + 10.0 * np.log10(self.rb_bandwidth_hz) + self.noise_figure_db)

    @cached_property
    def n0_mw(self) -> float:
        return db_to_linear(self.n0_dbm)

    @cached_property
    def combining_gain(self) -> float:
        """combining_gain_db as a linear ratio."""
        return db_to_linear(self.combining_gain_db)

    @cached_property
    def sinr_floor(self) -> float:
        """sinr_floor_db as a linear SINR."""
        return db_to_linear(self.sinr_floor_db)

    @cached_property
    def sinr_ceiling(self) -> float:
        """sinr_ceiling_db as a linear SINR."""
        return db_to_linear(self.sinr_ceiling_db)


DEFAULTS: dict[str, object] = {f.name: f.default for f in fields(SimConfig)}


def _coerce(key: str, raw: str):
    """Parse a value with the type of the key's default."""
    kind = type(DEFAULTS[key])
    try:
        return kind(raw.strip().lower()) if kind is str else kind(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {kind.__name__}, "
                         f"got {raw!r}") from None


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read a flat key=value config file on top of the defaults.

    The result must describe a valid run on its own (see SimConfig).
    """
    cfg = dict(DEFAULTS)
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise KeyError(f"{key}: unknown configuration key "
                           f"({path}:{lineno})")
        cfg[key] = _coerce(key, raw)
    SimConfig(**cfg)
    return cfg


def set_key(cfg: dict[str, object], key: str, value) -> dict[str, object]:
    """Return a copy of cfg with one key overridden (string values parsed)."""
    if key not in DEFAULTS:
        raise KeyError(f"{key}: unknown configuration key")
    out = dict(cfg)
    out[key] = _coerce(key, value) if isinstance(value, str) else value
    return out
