import csv
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulsim import cli, engine, report
from ulsim.config import DEFAULTS, SimConfig
from ulsim.engine import run
from ulsim.topology import drop_seed


def tiny_cfg(**over):
    cfg = dict(DEFAULTS)
    cfg.update(rings=1, ues_per_cell=2, slots=8, drops=2, seed=7,
               scheme="fpc")
    cfg.update(over)
    return cfg


class TestSummarize:
    def test_headline_metrics(self):
        cfg = tiny_cfg()
        sim = SimConfig(**cfg)
        (accs,) = run([sim])
        s = report.summarize(accs, sim)
        tput = (np.concatenate([a.bits for a in accs])
                / (sim.slots * sim.slot_duration_s))
        assert s.per_ue_mbps == tuple(tput / 1e6)
        assert np.isclose(s.cell_avg_mbps,
                          tput.sum() / sim.drops / 21 / 1e6)
        # The edge metric interpolates linearly between the sorted values
        # at 0-based rank 0.05 * (n - 1).
        v = np.sort(tput)
        rank = 0.05 * (len(v) - 1)
        lo = int(rank)
        edge = v[lo] + (rank - lo) * (v[lo + 1] - v[lo])
        assert np.isclose(s.edge_mbps, edge / 1e6)
        total_mbits = sum(a.bits.sum() for a in accs) / 1e6
        total_j = sum(a.energy_j.sum() for a in accs)
        assert np.isclose(s.power_efficiency_mbits_per_j, total_mbits / total_j)
        assert s.n_drops == 2
        assert len(s.seeds) == 2
        assert s.scheme == "fpc" and s.zeta is None

    def test_partitioned_equals_pooled(self):
        # Drops run one at a time, here in reverse order, pool in drop order
        # to the run's summary bit for bit.
        sim = SimConfig(**tiny_cfg(drops=4))
        (accs,) = run([sim])
        pooled = report.summarize(accs, sim)
        drops = {d: engine.run_drop([sim], d)[0] for d in reversed(range(4))}
        parts = report.summarize([drops[d] for d in range(4)], sim)
        assert parts == pooled

    def test_unserved_ue_stats(self, tmp_path):
        # UE 0 is scheduled in 2 slots, UE 1 never: its SNR and IoT are
        # absent, and the CDFs hold UE 0's alone.
        acc = engine.MetricsAccumulator(
            bits=np.array([1e3, 0.0]), energy_j=np.array([1e-3, 0.0]),
            snr_lin_sum=np.array([20.0, 0.0]),
            iot_lin_sum=np.array([4.0, 0.0]),
            sched_slots=np.array([2.0, 0.0]))
        s = report.summarize([acc], SimConfig(**tiny_cfg(drops=1)))
        assert np.isclose(s.per_ue_snr_db[0], 10.0)
        assert np.isclose(s.per_ue_iot_db[0], 10.0 * np.log10(2.0))
        assert s.per_ue_snr_db[1] == -np.inf
        assert s.per_ue_iot_db[1] == -np.inf
        report.write_cdf_csv(s, tmp_path / "cdf.csv")
        rows = (tmp_path / "cdf.csv").read_text().split()[1:]
        assert Counter(r.split(",")[0] for r in rows) == {
            "snr_db": 1, "iot_db": 1, "throughput_mbps": 2}

    def test_requires_drops(self):
        # One record per configured drop: no fewer, none, and no more.
        sim = SimConfig(**tiny_cfg())
        (accs,) = run([sim])
        for records in ([], accs[:1], accs + accs[:1]):
            with pytest.raises(ValueError, match="drops"):
                report.summarize(records, sim)


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300) | st.sampled_from([0.0, 1.0, 5e-324]),
                    min_size=1, max_size=120))
    @example([0.0])
    @example([3.5])
    @example([2.0, 2.0, 2.0, 2.0])
    @example([0.0] * 30 + [1.0])
    @example([7.0, 0.0, 7.0, 1e-300, 0.0] * 9)
    def test_edge_percentile_is_numpys(self, values):
        x = np.array(values)
        got = report._percentile_5(x)
        want = np.percentile(x, 5.0)
        assert np.float64(got).tobytes() == want.tobytes()

    def test_summarize_does_not_import_numpy_ma(self):
        # np.percentile's np.unique imports numpy.ma, about 12 ms a process.
        code = ("import sys; from ulsim import config, report; "
                "report.run_config(dict(config.DEFAULTS, rings=0, "
                "ues_per_cell=2, slots=3)); "
                "print('numpy.ma' in sys.modules)")
        src = Path(report.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.split() == ["False"]


class TestRunConfig:
    def test_zeta_reported_for_cnb(self):
        s = report.run_config(tiny_cfg(scheme="cnb", zeta=1.1, slots=4,
                                       drops=1))
        assert s.scheme == "cnb" and s.zeta == 1.1

    def test_sweep_paired_seeds(self):
        a, b = report.run_sweep(tiny_cfg(slots=4, drops=1), "zeta", [1.3, 0.7])
        assert a.seeds == b.seeds

    def test_sweep_rejects_unknown_axis(self):
        with pytest.raises(KeyError):
            report.run_sweep(tiny_cfg(), "bogus", [1.0])


def assert_sweep_equals_separate_runs(cfg, axis, values):
    """Every summary of the sweep equals run_config of its value alone."""
    summaries = report.run_sweep(cfg, axis, values)
    assert len(summaries) == len(values)
    for value, got in zip(values, summaries):
        alone = report.run_config({**cfg, axis: value})
        assert got.to_json_dict() == alone.to_json_dict()
        assert got.per_ue_mbps == alone.per_ue_mbps
        assert got.per_ue_snr_db == alone.per_ue_snr_db
        assert got.per_ue_iot_db == alone.per_ue_iot_db


class TestSharedDrops:
    """Sweep values that differ only in zeta share each drop's snapshot and
    C&B solve; the results equal separate runs bit for bit."""

    @pytest.mark.parametrize("over", [{}, {"fading": 1, "staircase": 1}])
    def test_zeta_sweep_equals_separate_runs(self, over):
        assert_sweep_equals_separate_runs(tiny_cfg(scheme="cnb", **over),
                                          "zeta", [1.3, 0.9, 0.7])

    def test_scheme_sweep_equals_separate_runs(self):
        # Each scheme is a group of one: today's work, drop by drop.
        assert_sweep_equals_separate_runs(tiny_cfg(), "scheme",
                                          ["cnb", "fpc", "maxpower"])

    def test_zeta_sweep_builds_one_snapshot_per_drop(self, monkeypatch):
        calls = []
        real = engine.build_snapshot

        def build_snapshot(config, drop_seed):
            calls.append(drop_seed)
            return real(config, drop_seed)

        monkeypatch.setattr(engine, "build_snapshot", build_snapshot)
        cfg = tiny_cfg(scheme="cnb")
        report.run_sweep(cfg, "zeta", [1.3, 0.9, 0.7])
        assert calls == [drop_seed(cfg["seed"], d)
                         for d in range(cfg["drops"])]


class TestWriters:
    def test_summary_json_keys(self, tmp_path):
        s = report.run_config(tiny_cfg(slots=4, drops=1))
        path = tmp_path / "summary.json"
        report.write_summary_json(s, path)
        data = json.loads(path.read_text())
        assert set(data) == {"scheme", "zeta", "avg_mbps", "edge_mbps",
                             "mbits_per_joule", "n_drops", "seeds"}

    def test_sweep_json(self, tmp_path):
        values = [1.3, 0.7]
        summaries = report.run_sweep(tiny_cfg(slots=4, drops=1), "zeta", values)
        path = tmp_path / "sweep.json"
        report.write_sweep_json("zeta", values, summaries, path)
        data = json.loads(path.read_text())
        assert data["axis"] == "zeta"
        assert data["values"] == [1.3, 0.7]
        assert len(data["runs"]) == 2

    def test_cdf_csv_format(self, tmp_path):
        s = report.run_config(tiny_cfg(slots=4, drops=1))
        path = tmp_path / "cdf.csv"
        report.write_cdf_csv(s, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["metric", "value", "cum_fraction"]
        metrics = {r[0] for r in rows[1:]}
        assert metrics == {"snr_db", "iot_db", "throughput_mbps"}
        # Within one metric, values and cumulative fractions are nondecreasing
        # and the last fraction is 1.
        tp = [(float(r[1]), float(r[2])) for r in rows[1:]
              if r[0] == "throughput_mbps"]
        vals, fracs = zip(*tp)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert fracs[-1] == 1.0

    def test_plmap_csv(self, tmp_path):
        loss = np.array([[100.0, 110.0], [120.0, 90.0]])
        path = tmp_path / "plmap.csv"
        report.write_plmap_csv(loss, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["ue_id", "cell_id", "loss_db"]
        assert len(rows) == 1 + 4
        assert rows[1] == ["0", "0", "100.000000"]
        assert path.read_bytes() == (b"ue_id,cell_id,loss_db\r\n"
                                     b"0,0,100.000000\r\n0,1,110.000000\r\n"
                                     b"1,0,120.000000\r\n1,1,90.000000\r\n")


def summary_digest(summary):
    """sha256 of a summary's JSON dict and its three per-UE series."""
    h = hashlib.sha256(
        json.dumps(summary.to_json_dict(), sort_keys=True).encode())
    for series in (summary.per_ue_mbps, summary.per_ue_snr_db,
                   summary.per_ue_iot_db):
        h.update(np.asarray(series, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestSummaryPins:
    """The summary layer's output and the files written from it, pinned
    bit for bit."""

    PINNED = {
        "cnb": (
            dict(scheme="cnb", slots=40, drops=1),
            "b62deab412b50695ad8a501b7f066a8ca3ced4d37fff7fd400856f186e79679c"),
        "maxpower_fading": (
            dict(scheme="maxpower", fading=1, slots=40, drops=1),
            "2b203c434a9cc342d69cc2b2f2c549718d57dedcd9f7e05d843d8c23c9821be2"),
        "fpc_two_drops": (
            dict(slots=40, drops=2),
            "38da097cc68c254527d78f276b0d3d6b0bcddc1b18cc21b6a220769367564b84"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_run_config(self, case):
        overrides, want = self.PINNED[case]
        assert summary_digest(report.run_config(tiny_cfg(**overrides))) == want

    def test_pinned_cli_sweep_files(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scheme = cnb\nrings = 1\nues_per_cell = 2\n"
                           "slots = 20\ndrops = 2\nseed = 5\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfgfile), "--out", str(out),
                         "--sweep", "zeta=1.3,0.7"]) == 0
        h = hashlib.sha256()
        for name in ("sweep.json", "cdf_zeta_1.3.csv", "cdf_zeta_0.7.csv"):
            h.update((out / name).read_bytes())
        assert h.hexdigest() == (
            "6b50c59775006f42b6d9a484bacb37065e8a9c63a103c028e71bd8bdac6d88d3")
