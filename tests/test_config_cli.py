import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ulsim
from ulsim import cli, engine, report
from ulsim.config import DEFAULTS, SimConfig, parse_config_file, set_key
from ulsim.powerctl import compute_powers


class TestConfigFile:
    def test_defaults_when_empty(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# nothing but comments\n\n")
        assert parse_config_file(path) == DEFAULTS

    def test_parses_and_coerces(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "scheme = fpc\n"
            "slots = 12          # trailing comment\n"
            "zeta=0.9\n"
            "isd_m = 250\n")
        cfg = parse_config_file(path)
        assert cfg["scheme"] == "fpc"
        assert cfg["slots"] == 12 and isinstance(cfg["slots"], int)
        assert cfg["zeta"] == 0.9
        assert cfg["isd_m"] == 250.0

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 1\n")
        with pytest.raises(KeyError):
            parse_config_file(path)

    def test_rejects_bad_scheme_and_syntax(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scheme = tdma\n")
        with pytest.raises(ValueError):
            SimConfig(**parse_config_file(path))
        path.write_text("just a line\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_set_key(self):
        cfg = set_key(dict(DEFAULTS), "zeta", 0.7)
        assert cfg["zeta"] == 0.7
        assert DEFAULTS["zeta"] == 1.3
        with pytest.raises(KeyError):
            set_key(cfg, "bogus", 1)

    def test_build_sim_config(self):
        cfg = set_key(dict(DEFAULTS), "scheme", "rlpc")
        sim = SimConfig(**cfg)
        assert sim.scheme == "rlpc"
        assert sim.rings == 2 and sim.slots == 2000
        assert sim.data_rbs == 48

    def test_defaults_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in DEFAULTS.items()))
        cfg = parse_config_file(path)
        assert cfg == DEFAULTS
        assert [type(v) for v in cfg.values()] == [type(v) for v in
                                                    DEFAULTS.values()]
        assert SimConfig(**cfg) == SimConfig()


# Every key in config-file order, with its default value and type.
PINNED_DEFAULTS = {
    "scheme": "cnb", "zeta": 1.3, "iot_s_db": 9.0, "snr_i_db": 24.0,
    "iot_i_db": 5.0, "bisect_lo_dbm": -10.0, "p_max_dbm": 23.0,
    "p0_fpc_dbm": -87.0, "kappa": 0.8, "p0_rlpc_dbm": -102.0, "phi": 0.8,
    "rings": 2, "isd_m": 500.0, "ues_per_cell": 10, "min_dist_m": 35.0,
    "slots": 2000, "drops": 5, "seed": 0, "slot_duration_s": 1e-3,
    "delay_slots": 6, "fading": 0, "combining_gain_db": 3.0,
    "alpha": 1.0, "beta": 1.0, "ewma": 0.01, "total_rbs": 50, "control_rbs": 2,
    "thermal_density_dbm_hz": -174.0, "noise_figure_db": 5.0,
    "rb_bandwidth_hz": 180_000.0, "t_max": 4.18, "amc_a": 0.7035,
    "amc_b": 0.7041, "sinr_floor_db": -6.5, "sinr_ceiling_db": 18.0,
    "staircase": 0,
}


def test_defaults_pinned():
    assert len(PINNED_DEFAULTS) == 36
    assert list(DEFAULTS.items()) == list(PINNED_DEFAULTS.items())
    assert ([type(v) for v in DEFAULTS.values()]
            == [type(v) for v in PINNED_DEFAULTS.values()])


@pytest.mark.parametrize("key, value, kind", [
    ("slots", 2.5, "int"),
    ("ues_per_cell", 2.0, "int"),
    ("rings", 1.0, "int"),
    ("seed", 1.5, "int"),
    ("delay_slots", 2.0, "int"),
    ("zeta", "1.3", "float"),
])
def test_key_type_checked_before_any_run(key, value, kind):
    cfg = {**DEFAULTS, "rings": 1, "ues_per_cell": 2, "slots": 3, "drops": 1,
           key: value}
    message = f"{key}: expected {kind}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        report.run_config(cfg)


@pytest.mark.parametrize("key, value", [
    ("rings", 10**6), ("ues_per_cell", 10**9), ("total_rbs", 10**9)])
def test_oversized_drop_refused_before_any_allocation(tmp_path, capsys, key,
                                                      value):
    # rings = 10**6 would take (2 rings + 1)**2 steps to lay out the sites;
    # each value asks for per-drop arrays no machine holds.
    for v in (value, np.int64(value)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{key}: .*{value}$"):
                SimConfig(**{key: v})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    out = tmp_path / "out"
    assert run_cli(["--sweep", f"{key}={value}", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()
    SimConfig(ues_per_cell=60)          # the largest benchmark drop fits
    SimConfig(slots=2**62, drops=2**62)     # run length has no bound


def test_default_drop_fits_up_to_13_rings():
    # At 14 rings the (cells * data_rbs, cells) coupling array outgrows the
    # bound first; the error names the last key that sizes it.
    assert SimConfig(rings=13).layout.n_sites == 547
    with pytest.raises(ValueError, match="^total_rbs: .* rings = 14,"):
        SimConfig(rings=14)


@pytest.mark.parametrize("value", [-1e9, -1e308])
def test_oversized_cnb_screen_refused_before_any_allocation(tmp_path, capsys,
                                                            value):
    # A level of the C&B search may evaluate one power per UE per two steps
    # of the 0.01 dB lattice over [bisect_lo_dbm, p_max_dbm]: -1e9 would
    # ask for 2.9e13 powers, and -1e308 for more than an int conversion of
    # the float takes.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^bisect_lo_dbm: .* a level "
                           r"of the C&B search"):
            SimConfig(bisect_lo_dbm=value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    out = tmp_path / "out"
    assert run_cli(["--sweep", f"bisect_lo_dbm={value}", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: bisect_lo_dbm: ")
    assert not out.exists()
    SimConfig(scheme="fpc", bisect_lo_dbm=value)    # a C&B rule only
    SimConfig()


def test_zeta_bounded_so_the_cnb_objective_stays_finite(tmp_path, capsys):
    # zeta = 1e308 overflows zeta * R_I. The error quotes the bound,
    # exactly.
    tiny = dict(rings=0, ues_per_cell=8)
    with pytest.raises(ValueError, match="^zeta: must be at most ") as err:
        SimConfig(zeta=1e308, **tiny)
    zeta_max = float(re.search(r"at most (\S+),", str(err.value))[1])
    config = SimConfig(zeta=zeta_max, **tiny)
    serving, loss = engine.build_snapshot(config, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = compute_powers([config], loss, serving)
    assert np.isfinite(powers).all()

    above = 1.01 * zeta_max
    with pytest.raises(ValueError, match="^zeta: "):
        SimConfig(zeta=above, **tiny)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("rings = 0\nues_per_cell = 8\n")
    out = tmp_path / "out"
    assert run_cli(["--config", cfgfile, "--zeta", repr(above),
                    "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: zeta: ") and captured.out == ""
    assert not out.exists()
    SimConfig(scheme="fpc", zeta=1e308, **tiny)      # a C&B rule only


@pytest.mark.parametrize("key, value", [
    ("rings", 10**2000), ("rings", 10**5000), ("zeta", 10**400),
    ("isd_m", 10**400), ("total_rbs", 10**3000),
], ids=["rings=10**2000", "rings=10**5000", "zeta=10**400", "isd_m=10**400",
        "total_rbs=10**3000"])
def test_huge_number_names_its_key(key, value):
    # Through the Python API only: a config file's int() refuses such digits.
    # An error quoting a number past str's 4300-digit limit, or a float rule
    # on an int past the float range, must still name the key.
    with pytest.raises(ValueError, match=f"^{key}: "):
        SimConfig(**{key: value})


def test_huge_seed_still_runs():
    cfg = {**DEFAULTS, "scheme": "fpc", "rings": 1, "ues_per_cell": 2,
           "slots": 3, "drops": 1, "seed": 2**70}
    assert report.run_config(cfg).n_drops == 1


def test_key_types_take_integral_and_real_numbers():
    sim = SimConfig(fading=True, slots=np.int64(3), zeta=1,
                    p_max_dbm=np.float32(20.0))
    assert sim.fading and sim.slots == 3 and sim.zeta == 1


def test_float_keys_stored_as_python_floats():
    # numpy takes no log10 of an int past int64, as n0_dbm would be.
    assert (SimConfig(rb_bandwidth_hz=10**300)
            == SimConfig(rb_bandwidth_hz=1e300))
    sim = SimConfig(zeta=1, p_max_dbm=np.float32(20.0))
    assert type(sim.zeta) is float and type(sim.p_max_dbm) is float


def test_tol_db_is_an_unknown_key(tmp_path, capsys):
    # The C&B solve searches a fixed lattice and has no tolerance; a file
    # that still sets one is refused, whichever scheme it selects.
    cfgfile = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for scheme in ("cnb", "rlpc"):
        cfgfile.write_text(f"scheme = {scheme}\ntol_db = 0\n")
        assert run_cli(["--config", cfgfile, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "error: tol_db: unknown configuration key")
    assert not out.exists()


@pytest.mark.parametrize("scheme, key, value, ok", [
    ("maxpower", "p_max_dbm", "-60", True),     # below bisect_lo_dbm
    ("fpc", "zeta", "-1", True),
    ("cnb", "kappa", "1.5", True),
    ("fpc", "zeta", "nan", False),
    ("fpc", "iot_s_db", "1e300", True),
    ("cnb", "iot_s_db", "1e300", False),
    ("fpc", "amc_a", "1e300", True),            # only C&B refuses a 0 cap
])
def test_unselected_scheme_keys_only_finite(tmp_path, scheme, key, value, ok):
    """A scheme's own rules apply only when it is selected; the keys of the
    other schemes are only checked for their type and finiteness."""
    path = tmp_path / "run.cfg"
    path.write_text(f"scheme = {scheme}\n{key} = {value}\n")
    if ok:
        sim = SimConfig(**parse_config_file(path))
        assert getattr(sim, key) == float(value)
    else:
        with pytest.raises(ValueError, match=key):
            SimConfig(**parse_config_file(path))


def run_cli(args):
    return cli.main([str(a) for a in args])


BASE = ["--scheme", "fpc", "--slots", "4", "--drops", "1", "--seeds", "3"]


class TestCli:
    def test_run_writes_summary_and_cdf(self, tmp_path, capsys):
        code = run_cli(BASE + ["--out", tmp_path])
        assert code == 0
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["scheme"] == "fpc"
        assert data["n_drops"] == 1
        assert (tmp_path / "cdf.csv").exists()
        assert "fpc:" in capsys.readouterr().out

    def test_config_file_plus_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scheme = rlpc\nslots = 4\ndrops = 1\n"
                           "rings = 1\nues_per_cell = 2\n")
        code = run_cli(["--config", cfgfile, "--scheme", "maxpower",
                        "--out", tmp_path])
        assert code == 0
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["scheme"] == "maxpower"

    def test_sweep(self, tmp_path):
        code = run_cli(BASE + ["--scheme", "cnb", "--out", tmp_path,
                               "--sweep", "zeta=1.3,0.7"])
        assert code == 0
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["axis"] == "zeta"
        assert [r["zeta"] for r in data["runs"]] == [1.3, 0.7]
        assert (tmp_path / "cdf_zeta_1.3.csv").exists()

    def test_sweep_values_stripped(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(TINY)
        code = run_cli(["--config", cfgfile, "--out", tmp_path,
                        "--sweep", "zeta=1.3, 1.1"])
        assert code == 0
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["values"] == ["1.3", "1.1"]
        assert (sorted(p.name for p in tmp_path.glob("cdf_*.csv"))
                == ["cdf_zeta_1.1.csv", "cdf_zeta_1.3.csv"])

    def test_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        # A run is one thread: with Thread.start refused, a zeta sweep ends,
        # and writes what its values, run one at a time, write.
        def refuse(thread):
            raise RuntimeError(f"the run started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(TINY)
        zetas = ["1.3", "1.1", "0.9", "0.7"]
        sweep = tmp_path / "sweep"
        assert run_cli(["--config", cfgfile, "--out", sweep,
                        "--sweep", "zeta=" + ",".join(zetas)]) == 0
        runs = json.loads((sweep / "sweep.json").read_text())["runs"]
        for zeta, run in zip(zetas, runs, strict=True):
            alone = tmp_path / zeta
            assert run_cli(["--config", cfgfile, "--out", alone,
                            "--zeta", zeta]) == 0
            assert run == json.loads((alone / "summary.json").read_text())
            assert ((sweep / f"cdf_zeta_{zeta}.csv").read_bytes()
                    == (alone / "cdf.csv").read_bytes())

    def test_export_plmap(self, tmp_path):
        code = run_cli(BASE + ["--out", tmp_path, "--export-plmap"])
        assert code == 0
        header = (tmp_path / "plmap.csv").read_text().splitlines()[0]
        assert header == "ue_id,cell_id,loss_db"

    def test_error_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("bogus = 1\n")
        code = run_cli(["--config", cfgfile, "--out", tmp_path])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_reads_like_a_bad_value(self, tmp_path, capsys):
        # Printed as "error: <key>: ...", without the quotes str(KeyError)
        # adds.
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("foo = 1\n")
        for args, where in ((["--sweep", "foo=1,2"], ""),
                            (["--config", cfgfile], f" ({cfgfile}:1)")):
            assert run_cli(args + ["--out", tmp_path / "out"]) == 2
            assert (capsys.readouterr().err
                    == f"error: foo: unknown configuration key{where}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, pair", [("zeta=1.3,1.3", "1.3 and 1.3"),
                                             ("scheme=FPC,fpc", "FPC and fpc")])
    def test_repeated_sweep_value_fails_before_any_run(
            self, tmp_path, capsys, monkeypatch, sweep, pair):
        # Two values that parse to one config would run it twice and write
        # one CDF file twice.
        def build_snapshot(*args):
            raise AssertionError("a drop ran")

        monkeypatch.setattr(engine, "build_snapshot", build_snapshot)
        out = tmp_path / "out"
        code = run_cli(BASE + ["--scheme", "cnb", "--out", out,
                               "--sweep", sweep])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sweep.split('=')[0]}: ")
        assert pair in err
        assert not out.exists()

    def test_key_set_twice_in_config_file(self, tmp_path, capsys):
        # Not the last line silently winning: zeta 0.7 would run.
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"zeta = 1.1\n{TINY}zeta = 0.7\n")
        out = tmp_path / "out"
        assert run_cli(["--config", cfgfile, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: zeta: set twice, on lines 1 and 6 of {cfgfile}\n")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["--config", tmp_path / "nope.cfg",
                        "--out", tmp_path]) == 2

    def test_sweep_checked_before_any_run(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(BASE + ["--scheme", "cnb", "--out", out,
                               "--sweep", "zeta=1.3,1.1,0.9,-1"])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_that_cannot_be_a_directory_fails_before_any_run(
            self, tmp_path, capsys, monkeypatch, out):
        def simulate(*args, **kwargs):
            raise AssertionError("a drop ran")
        monkeypatch.setattr(engine, "simulate", simulate)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert run_cli(BASE + ["--out", tmp_path / out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ") and not captured.out
        assert afile.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [afile]

    def test_served_average_at_the_float_floor(self, tmp_path):
        # With ewma = 0.9 a served UE's average decays to 5e-324, where the
        # EWMA step rounds to 0; the run must still complete.
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("rings = 0\nues_per_cell = 60\nbeta = 0\n"
                           "ewma = 0.9\n")
        code = run_cli(["--config", cfgfile, "--scheme", "maxpower",
                        "--slots", "400", "--drops", "1", "--out", tmp_path])
        assert code == 0
        data = json.loads((tmp_path / "summary.json").read_text())
        metrics = [data[k] for k in ("avg_mbps", "edge_mbps",
                                     "mbits_per_joule")]
        assert all(np.isfinite(metrics)) and data["avg_mbps"] > 0

    @pytest.mark.parametrize("args, code", [
        (["--zeta", "1.3"], 0),
        (["--sweep", "zeta=1.3,0.7"], 0),
        # The path-loss map is drawn under the file's config, zeta and all.
        (["--sweep", "zeta=1.3", "--export-plmap"], 2),
        ([], 2),
    ], ids=["flag", "sweep", "sweep_and_plmap", "no_override"])
    def test_flags_override_a_file_value_before_it_is_checked(
            self, tmp_path, capsys, args, code):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{TINY}zeta = -1\n")
        out = tmp_path / "out"
        assert run_cli(["--config", cfgfile, "--out", out, *args]) == code
        if code == 0:
            written = "sweep.json" if "--sweep" in args else "summary.json"
            assert (out / written).exists()
        else:
            assert capsys.readouterr().err.startswith("error: zeta: ")
            assert not out.exists()

    def test_scheme_choices_enforced(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--scheme", "tdma"])


SRC = Path(ulsim.__file__).resolve().parents[1]
TINY = "rings = 1\nues_per_cell = 2\nslots = 3\ndrops = 1\n"


def run_module(cfgfile, out):
    """`python -m ulsim.cli --config cfgfile --out out` in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "ulsim.cli", "--config", str(cfgfile),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("key, value, scheme", [
    ("min_dist_m", "1000", "cnb"),
    ("min_dist_m", "-1", "cnb"),
    ("control_rbs", "60", "cnb"),
    ("total_rbs", "2", "cnb"),
    ("ewma", "1.5", "cnb"),
    ("zeta", "nan", "cnb"),
    ("zeta", "inf", "cnb"),
    ("slots", "0", "cnb"),
    ("drops", "0", "cnb"),
    ("seed", "-1", "cnb"),
    ("fading", "7", "cnb"),
    ("staircase", "2", "cnb"),
    ("sinr_floor_db", "30", "cnb"),
    ("delay_slots", "0", "cnb"),
    ("slot_duration_s", "0", "cnb"),
    ("isd_m", "0", "cnb"),
    ("rings", "-1", "cnb"),
    ("ues_per_cell", "0", "cnb"),
    ("kappa", "1.5", "fpc"),
    ("phi", "-0.1", "rlpc"),
    ("zeta", "-1", "cnb"),
    ("tol_db", "0", "cnb"),                     # no longer a key
    ("bisect_lo_dbm", "30", "cnb"),
    ("slots", "2.5", "cnb"),
    ("p_max_dbm", "4000", "cnb"),
    ("t_max", "5000", "cnb"),
    ("amc_a", "0.001", "cnb"),
    ("combining_gain_db", "4000", "cnb"),
    ("noise_figure_db", "-4000", "cnb"),
    ("thermal_density_dbm_hz", "4000", "cnb"),
    ("alpha", "1000", "fpc"),
    ("alpha", "-1", "cnb"),
    ("beta", "1000", "fpc"),
    ("beta", "-0.5", "cnb"),
    ("zeta", "1e308", "cnb"),
    ("bisect_lo_dbm", "-1e9", "cnb"),
    ("bisect_lo_dbm", "-1e308", "cnb"),
    ("iot_s_db", "1e300", "cnb"),
    ("snr_i_db", "1e300", "cnb"),
    ("iot_i_db", "1e300", "cnb"),
    ("sinr_ceiling_db", "4000", "fpc"),
    ("sinr_floor_db", "-1e300", "cnb"),
    ("amc_a", "1e300", "cnb"),                  # C&B's own-rate cap is 0
    ("t_max", "1e-300", "cnb"),
    ("slot_duration_s", "1e300", "cnb"),        # a UE's bits overflow
])
def test_bad_value_fails_fast_naming_the_key(tmp_path, key, value, scheme):
    # Each key once: TINY's line for the key gives way to the bad value.
    tiny = "".join(line + "\n" for line in TINY.splitlines()
                   if line.split(" = ")[0] != key)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scheme = {scheme}\n{tiny}{key} = {value}\n")
    out = tmp_path / "out"
    proc = run_module(cfgfile, out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and key in proc.stderr
    assert "Warning" not in proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_non_finite_result_is_an_error(tmp_path):
    # No rule catches this drop: every UE sits on its site, so the losses are
    # -inf and the throughputs NaN. The run must fail, not report NaN.
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{TINY}isd_m = 1e-300\nmin_dist_m = 0\n")
    out = tmp_path / "out"
    proc = run_module(cfgfile, out)
    assert proc.returncode == 2
    assert "error: avg_mbps: " in proc.stderr and "nan" in proc.stderr
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("lines", [
    # No UE is decodable at -60 dBm, so none is ever scheduled.
    "scheme = maxpower\np_max_dbm = -60\n",
    # Every rule passes, but the noise floor (2831 dBm) drowns every SNR.
    "rb_bandwidth_hz = 1e300\n",
], ids=["maxpower_at_-60_dbm", "rb_bandwidth_1e300"])
def test_run_that_decodes_no_bit_is_an_error(tmp_path, lines):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY + lines)
    out = tmp_path / "out"
    proc = run_module(cfgfile, out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: avg_mbps: ")
    assert proc.stdout == "" and not out.exists()
