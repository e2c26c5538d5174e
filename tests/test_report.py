import csv
import json

import numpy as np
import pytest

from ulsim import engine, report
from ulsim.config import DEFAULTS, SimConfig
from ulsim.engine import run


def tiny_cfg(**over):
    cfg = dict(DEFAULTS)
    cfg.update(rings=1, ues_per_cell=2, slots=8, drops=2, seed=7,
               scheme="fpc")
    cfg.update(over)
    return cfg


class TestPercentile:
    def test_linear_interpolation(self):
        assert report.percentile([0.0, 10.0], 0.5) == 5.0
        assert report.percentile(np.arange(101.0), 0.05) == 5.0

    def test_errors(self):
        with pytest.raises(ValueError):
            report.percentile([], 0.5)
        with pytest.raises(ValueError):
            report.percentile([1.0], 1.5)


class TestSummarize:
    def test_headline_metrics(self):
        cfg = tiny_cfg()
        sim = SimConfig(**cfg)
        (accs,) = run([sim])
        s = report.summarize(accs, sim)
        tput = np.concatenate([a.per_ue_throughput_bps() for a in accs])
        assert np.isclose(s.cell_avg_mbps,
                          tput.sum() / sim.drops / 21 / 1e6)
        assert np.isclose(s.edge_mbps, report.percentile(tput, 0.05) / 1e6)
        total_mbits = sum(a.bits.sum() for a in accs) / 1e6
        total_j = sum(a.energy_j.sum() for a in accs)
        assert np.isclose(s.power_efficiency_mbits_per_j, total_mbits / total_j)
        assert s.n_drops == 2
        assert len(s.seeds) == 2
        assert s.scheme == "fpc" and s.zeta is None

    def test_partitioned_equals_pooled(self):
        sim = SimConfig(**tiny_cfg(drops=4))
        (accs,) = run([sim])
        pooled = report.summarize(accs, sim)
        left = accs[0].merge(accs[1])
        right = accs[2].merge(accs[3])
        parts = report.summarize([left, right], sim)
        assert parts.cell_avg_mbps == pooled.cell_avg_mbps
        assert parts.edge_mbps == pooled.edge_mbps
        assert (parts.power_efficiency_mbits_per_j
                == pooled.power_efficiency_mbits_per_j)

    def test_requires_drops(self):
        sim = SimConfig(**tiny_cfg())
        with pytest.raises(ValueError):
            report.summarize([], sim)


class TestRunConfig:
    def test_zeta_reported_for_cnb(self):
        s = report.run_config(tiny_cfg(scheme="cnb", zeta=1.1, slots=4,
                                       drops=1))
        assert s.scheme == "cnb" and s.zeta == 1.1

    def test_sweep_paired_seeds(self):
        res = report.run_sweep(tiny_cfg(slots=4, drops=1), "zeta",
                               [1.3, 0.7])
        assert res.axis == "zeta"
        assert res.summaries[0].seeds == res.summaries[1].seeds

    def test_sweep_rejects_unknown_axis(self):
        with pytest.raises(KeyError):
            report.run_sweep(tiny_cfg(), "bogus", [1.0])


def assert_sweep_equals_separate_runs(cfg, axis, values):
    """Every summary of the sweep equals run_config of its value alone."""
    res = report.run_sweep(cfg, axis, values)
    assert len(res.summaries) == len(values)
    for value, got in zip(values, res.summaries):
        alone = report.run_config({**cfg, axis: value})
        assert got.to_json_dict() == alone.to_json_dict()
        assert got.per_ue_mbps == alone.per_ue_mbps
        assert got.per_ue_snr_db == alone.per_ue_snr_db
        assert got.per_ue_iot_db == alone.per_ue_iot_db


class TestSharedDrops:
    """Sweep values that differ only in zeta share each drop's snapshot and
    C&B screen; the results equal separate runs bit for bit."""

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
        assert calls == [engine.drop_seed(cfg["seed"], d)
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
        res = report.run_sweep(tiny_cfg(slots=4, drops=1), "zeta", [1.3, 0.7])
        path = tmp_path / "sweep.json"
        report.write_sweep_json(res, path)
        data = json.loads(path.read_text())
        assert data["axis"] == "zeta"
        assert data["values"] == [1.3, 0.7]
        assert len(data["runs"]) == 2

    def test_cdf_csv_format(self, tmp_path):
        s = report.run_config(tiny_cfg(slots=4, drops=1))
        path = tmp_path / "cdf.csv"
        report.write_cdf_csv(s, path)
        rows = list(csv.reader(path.open()))
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
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["ue_id", "cell_id", "loss_db"]
        assert len(rows) == 1 + 4
        assert rows[1] == ["0", "0", "100.000000"]
