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

# The C&B solve searches the power lattice bisect_lo_dbm + k *
# _LATTICE_STEP_DB.
_LATTICE_STEP_DB = 0.01


def _finite(value) -> bool:
    """Whether a real number is a finite float (an int past floats is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _show(value) -> str:
    """A value as an error quotes it; an int too long for str, by its bits."""
    try:
        return str(value) if isinstance(value, Real) else repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def _drop_size(rings, ues_per_cell, data_rbs) -> tuple[int, int, int]:
    """A drop's cells, UEs and the elements of its largest array, in Python
    ints before any array is built: the (UE, cell) loss matrix, which the C&B
    cross-loss matrix (UE, cell - 1) does not exceed, the (UE, data_rbs)
    grant-power table or the per-slot (cells * data_rbs, cells) coupling."""
    cells = SECTORS_PER_SITE * (1 + 3 * int(rings) * (int(rings) + 1))
    ues, rbs = int(ues_per_cell) * cells, int(data_rbs)
    return cells, ues, max(ues * cells, ues * rbs, cells * rbs * cells)


@dataclass(frozen=True)
class SimConfig:
    """One run: a field per configuration key, in config-file order.

    Each default is written once, here. Construction checks one rule at a time
    (_rules), raising ValueError("<key>: ..."), then builds the layout. Keys of
    unselected schemes are only checked for type and finiteness.

    It is the one parameter record every layer reads: drop_ues takes the
    layout, ues_per_cell and min_dist_m; the controllers (compute_powers,
    for a group of configs, see engine.run) the scheme keys; the
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
        for key, holds, rule in self._rules():
            if not holds:
                raise ValueError(f"{key}: {rule}, "
                                 f"got {_show(getattr(self, key))}")
        object.__setattr__(self, "layout",
                           build_hex_layout(self.rings, self.isd_m))

    def _rules(self):
        """The rules in order, as (key, holds, rule); each is formed only
        once every earlier one holds, and so may count on them."""
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            yield (f.name, isinstance(value, _ACCEPTS[kind]),
                   f"expected {kind.__name__}")
            if kind is float:
                yield f.name, _finite(value), "must be finite"
                # Stored as a Python float, which numpy takes at any size.
                object.__setattr__(self, f.name, float(value))
        yield ("scheme", self.scheme in SCHEMES,
               f"must be one of {', '.join(SCHEMES)}")
        # A scheme's own rules hold only when it is the one selected.
        off = lambda scheme: self.scheme != scheme
        # A dB value whose linear value is a positive, finite float.
        lo10, hi10 = sys.float_info.min_10_exp, sys.float_info.max_10_exp
        db_in_range = lambda db: lo10 <= db / 10 <= hi10
        db_range = f"in [{10 * lo10}, {10 * hi10}]"
        yield "isd_m", self.isd_m > 0, "must be positive"
        yield "rings", self.rings >= 0, "must be >= 0"
        yield "zeta", off("cnb") or self.zeta > 0, "must be positive"
        for key in ("iot_s_db", "snr_i_db", "iot_i_db"):
            yield (key, off("cnb") or db_in_range(getattr(self, key)),
                   f"must be {db_range} dB, a positive, finite linear ratio")
        yield ("p_max_dbm", self.p_max_dbm / 10 <= hi10,
               f"must be at most {10 * hi10} dBm, a finite mW value")
        yield ("bisect_lo_dbm",
               off("cnb") or self.bisect_lo_dbm < self.p_max_dbm,
               f"must be below p_max_dbm = {self.p_max_dbm}")
        yield "kappa", off("fpc") or 0 <= self.kappa <= 1, "must be in [0, 1]"
        yield "phi", off("rlpc") or 0 <= self.phi <= 1, "must be in [0, 1]"
        yield ("min_dist_m", 0 <= self.min_dist_m < self.isd_m / 2,
               "must be in [0, isd_m/2)")
        yield "ues_per_cell", self.ues_per_cell >= 1, "must be >= 1"
        yield "slots", self.slots >= 1, "must be >= 1"
        yield "drops", self.drops >= 1, "must be >= 1"
        yield "seed", self.seed >= 0, "must be >= 0"
        yield "slot_duration_s", self.slot_duration_s > 0, "must be positive"
        yield "delay_slots", self.delay_slots >= 1, "must be >= 1"
        yield "fading", self.fading in (0, 1), "must be 0 or 1"
        yield ("combining_gain_db", db_in_range(self.combining_gain_db),
               f"must be {db_range} dB, a positive, finite linear gain")
        yield "ewma", 0 < self.ewma < 1, "must be in (0, 1)"
        yield ("control_rbs", 0 <= self.control_rbs < self.total_rbs,
               f"must be in [0, total_rbs = {_show(self.total_rbs)})")
        # Each size rule takes the keys after its own at their least, so the
        # error names the first key that makes a drop's arrays too large.
        fits = lambda ues_per_cell, data_rbs: _drop_size(
            self.rings, ues_per_cell, data_rbs)[2] <= _MAX_DROP_ELEMENTS
        cells, ues, largest = _drop_size(self.rings, self.ues_per_cell,
                                         self.data_rbs)
        fit_rule = (f"must be small enough that a drop's largest array holds "
                    f"at most {_MAX_DROP_ELEMENTS} elements; at rings = "
                    f"{_show(self.rings)}, ues_per_cell = "
                    f"{_show(self.ues_per_cell)} and total_rbs = "
                    f"{_show(self.total_rbs)} it would hold {_show(largest)}")
        yield "rings", fits(1, 1), fit_rule
        yield "ues_per_cell", fits(self.ues_per_cell, 1), fit_rule
        yield "total_rbs", largest <= _MAX_DROP_ELEMENTS, fit_rule
        yield "rb_bandwidth_hz", self.rb_bandwidth_hz > 0, "must be positive"
        yield ("n0_dbm", db_in_range(self.n0_dbm),
               f"must be {db_range} dBm, a positive, finite mW noise floor, "
               "as thermal_density_dbm_hz + 10 log10(rb_bandwidth_hz) + "
               "noise_figure_db sets it")
        yield "t_max", self.t_max > 0, "must be positive"
        yield "amc_a", self.amc_a > 0, "must be positive"
        max_exp = sys.float_info.max_exp
        yield ("t_max", self.t_max / self.amc_a < max_exp,
               f"must be below {max_exp} * amc_a = {max_exp * self.amc_a}, "
               "so that 2 ** (t_max / amc_a) is a finite float")
        yield "amc_b", self.amc_b > 0, "must be positive"
        yield ("t_max", off("cnb")
               or (2.0 ** (self.t_max / self.amc_a) - 1.0) / self.amc_b > 0,
               f"must be large enough that the C&B own-rate cap (2 ** (t_max "
               f"/ amc_a) - 1) / amc_b is positive at amc_a = {self.amc_a} "
               f"and amc_b = {self.amc_b}")
        for key in ("sinr_floor_db", "sinr_ceiling_db"):
            yield (key, db_in_range(getattr(self, key)),
                   f"must be {db_range} dB, a positive, finite linear SINR")
        yield ("sinr_floor_db", self.sinr_floor_db < self.sinr_ceiling_db,
               f"must be below sinr_ceiling_db = {self.sinr_ceiling_db}")
        yield "staircase", self.staircase in (0, 1), "must be 0 or 1"
        # The largest e for which every value up to x, raised to e, is finite.
        exp_max = lambda x: hi10 / math.log10(x) if x > 1 else math.inf
        alpha_max = exp_max(self.t_max * self.rb_bandwidth_hz)
        yield ("alpha", 0 <= self.alpha <= alpha_max,
               f"must be in [0, {alpha_max:.6g}], so that a rate estimate up "
               "to t_max * rb_bandwidth_hz raised to it is finite")
        beta_max = exp_max(self.data_rbs * self.t_max * self.rb_bandwidth_hz)
        yield ("beta", 0 <= self.beta <= beta_max,
               f"must be in [0, {beta_max:.6g}], so that a PF average up to "
               "data_rbs * t_max * rb_bandwidth_hz raised to it is finite")
        # A UE's bits and energy over a run are at most slots times one
        # slot's most: data_rbs RBs of t_max * rb_bandwidth_hz *
        # slot_duration_s bits, and p_max in mW times slot_duration_s / 1000
        # joules over all its RBs. Half the largest float leaves room for
        # rounding; the quotient is compared with slots as an int, exactly.
        slot_most = self.slot_duration_s * max(
            self.data_rbs * self.t_max * self.rb_bandwidth_hz,
            float(db_to_linear(self.p_max_dbm)) / 1000.0)
        yield ("slot_duration_s",
               not slot_most or sys.float_info.max / 2 / slot_most
               >= self.slots,
               f"must be small enough that a UE's bit and energy totals over "
               f"slots = {_show(self.slots)}, each at most slots * "
               f"slot_duration_s * max(data_rbs * t_max * rb_bandwidth_hz, "
               f"p_max in mW / 1000), stay within half the largest float at "
               f"data_rbs = {self.data_rbs}, t_max = {self.t_max}, "
               f"rb_bandwidth_hz = {self.rb_bandwidth_hz} and p_max_dbm = "
               f"{self.p_max_dbm}")
        # Every objective value is at most t_max * (1 + zeta * (cells - 1)),
        # with each other cell a neighbor. Bounding t_max * (1 + zeta * cells)
        # instead leaves zeta * t_max for rounding; dividing last by t_max
        # reads inf only where every finite zeta fits.
        zeta_max = (sys.float_info.max - self.t_max) / cells / self.t_max
        yield ("zeta", off("cnb") or self.zeta <= zeta_max,
               f"must be at most {zeta_max!r}, so that t_max * (1 + zeta * "
               f"cells) at {cells} cells is finite, and with it the C&B "
               f"objective R_S + zeta * R_I, up to t_max * (1 + zeta * "
               f"(cells - 1))")
        # A level of the C&B search splits at most one interval per two
        # lattice steps of each (config, UE) row, so it evaluates at most one
        # (UE, power) pair per UE per two steps of [bisect_lo_dbm,
        # p_max_dbm]. The bound also keeps the solve's int keys, fewer than
        # UEs times lattice points, below 2**32. A span too wide for a float
        # reads inf and is refused.
        level = (ues * (self.p_max_dbm - self.bisect_lo_dbm)
                 / (2 * _LATTICE_STEP_DB))
        yield ("bisect_lo_dbm", off("cnb") or level <= _MAX_DROP_ELEMENTS,
               f"must be high enough that a level of the C&B search, at most "
               f"one (UE, power) pair per UE per two {_LATTICE_STEP_DB:g} dB "
               f"steps of [bisect_lo_dbm, p_max_dbm], evaluates at most "
               f"{_MAX_DROP_ELEMENTS} pairs; at {ues} UEs and p_max_dbm = "
               f"{self.p_max_dbm} it could evaluate {level:.6g}")

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
    """Read a flat key=value config file on top of the defaults. Raises on a
    bad line, an unknown key, a key set twice or a value of the wrong type;
    the values are SimConfig's to check, after CLI flags and sweeps apply."""
    cfg = dict(DEFAULTS)
    set_on: dict[str, int] = {}
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
        if set_on.setdefault(key, lineno) != lineno:
            raise ValueError(f"{key}: set twice, on lines {set_on[key]} and "
                             f"{lineno} of {path}")
        cfg[key] = _coerce(key, raw)
    return cfg


def set_key(cfg: dict[str, object], key: str, value) -> dict[str, object]:
    """Return a copy of cfg with one key overridden (string values parsed)."""
    if key not in DEFAULTS:
        raise KeyError(f"{key}: unknown configuration key")
    out = dict(cfg)
    out[key] = _coerce(key, value) if isinstance(value, str) else value
    return out
