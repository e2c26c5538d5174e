"""Benchmark workloads: what one operation (op) runs and how its output is checked.

An op is one top-level call into ulsim through a public entry point:
`ulsim.report.run_config` for the single-scheme workloads and `ulsim.cli.main`
for the zeta sweep. Each op gets its own base seed, derived from the workload
seed and the op index, so every op simulates a different drop.

This module imports ulsim lazily, so the parent process can read the workload
table without importing numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

SWEEP_VALUES = ("1.3", "1.1", "0.9", "0.7")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                          # "run_config" or "cli_sweep"
    cfg: dict                           # overrides on ulsim.config.DEFAULTS
    tiny: dict                          # smoke-test size overrides


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "desk_cnb",
        "run_config",
        {"scheme": "cnb", "zeta": 1.3, "rings": 2, "ues_per_cell": 10,
         "slots": 2000, "drops": 1, "fading": 0},
        {"rings": 1, "ues_per_cell": 2, "slots": 5}),
    Workload(
        "fading_maxpower",
        "run_config",
        {"scheme": "maxpower", "rings": 2, "ues_per_cell": 10,
         "slots": 2000, "drops": 1, "fading": 1},
        {"rings": 1, "ues_per_cell": 2, "slots": 5}),
    Workload(
        "dense_zeta_sweep",
        "cli_sweep",
        {"scheme": "cnb", "rings": 2, "ues_per_cell": 60, "slots": 50,
         "drops": 1, "fading": 0},
        {"rings": 1, "ues_per_cell": 4, "slots": 3}),
)}


def op_seed(workload: str, seed: int, index: int) -> int:
    """Base ulsim seed of op `index`; distinct per op, fixed by the seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def config_for(workload: Workload, seed: int, tiny: bool) -> dict:
    """Full flat ulsim configuration of one op."""
    import ulsim.config

    cfg = dict(ulsim.config.DEFAULTS)
    cfg.update(workload.cfg)
    if tiny:
        cfg.update(workload.tiny)
    cfg["seed"] = seed
    return cfg


def n_ues(cfg: dict) -> int:
    rings = int(cfg["rings"])
    return 3 * (1 + 3 * rings * (rings + 1)) * int(cfg["ues_per_cell"])


def tput_cap_mbps(cfg: dict) -> float:
    """Highest per-UE throughput the grid allows: t_max on every data RB."""
    data_rbs = int(cfg["total_rbs"]) - int(cfg["control_rbs"])
    return float(cfg["t_max"]) * data_rbs * float(cfg["rb_bandwidth_hz"]) / 1e6


def setup(workload: Workload, tiny: bool) -> None:
    """What a user pays before the first op: import ulsim, build the config,
    the layout and one snapshot of the workload's geometry (one Max Power slot).
    """
    import ulsim.report

    cfg = config_for(workload, 0, tiny)
    cfg.update(scheme="maxpower", slots=1, drops=1, fading=0)
    ulsim.report.run_config(cfg)


def execute(workload: Workload, cfg: dict, out_dir: Path):
    """Run one op; returns what `check` and `digest` read. This is timed."""
    if workload.entry == "run_config":
        import ulsim.report
        return ulsim.report.run_config(cfg)
    import ulsim.cli

    out_dir.mkdir(parents=True)
    cfg_path = out_dir / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    argv = ["--config", str(cfg_path), "--sweep", "zeta=" + ",".join(SWEEP_VALUES),
            "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        return ulsim.cli.main(argv), out_dir


def check_summary(values: dict, per_ue_mbps, cfg: dict) -> list[str]:
    """Problems with one run's summary; empty when it passes."""
    problems = []
    for key, val in values.items():
        if isinstance(val, float) and not math.isfinite(val):
            problems.append(f"{key} is {val}")
    if not values.get("avg_mbps", 0) > 0:
        problems.append(f"avg_mbps {values.get('avg_mbps')} is not > 0")
    eff = values.get("mbits_per_joule")
    if eff is None or not 0 < eff < math.inf:
        problems.append(f"mbits_per_joule {eff} is not in (0, inf)")
    if values.get("n_drops") != int(cfg["drops"]):
        problems.append(f"n_drops {values.get('n_drops')} != {cfg['drops']}")
    tput = [float(x) for x in per_ue_mbps]
    if len(tput) != n_ues(cfg) * int(cfg["drops"]):
        problems.append(f"{len(tput)} per-UE throughputs, expected "
                        f"{n_ues(cfg) * int(cfg['drops'])}")
    cap = tput_cap_mbps(cfg) * (1 + 1e-6)   # CDF files round to 6 digits
    bad = [x for x in tput if not 0 <= x <= cap]
    if bad:
        problems.append(f"{len(bad)} per-UE throughputs outside [0, {cap:.3f}] "
                        f"Mbps, e.g. {bad[0]}")
    return problems


def _cdf_tput(path: Path) -> list[float]:
    lines = path.read_text().splitlines()[1:]
    return [float(v) for m, v, _ in (ln.split(",") for ln in lines)
            if m == "throughput_mbps"]


def check(workload: Workload, cfg: dict, out) -> list[str]:
    """Problems with one op's output; empty when it passes."""
    if workload.entry == "run_config":
        return check_summary(out.to_json_dict(), out.per_ue_mbps, cfg)
    code, out_dir = out
    if code != 0:
        return [f"ulsim cli exited {code}"]
    sweep = json.loads((out_dir / "sweep.json").read_text())
    runs = sweep.get("runs", [])
    problems = []
    if [str(v) for v in sweep.get("values", [])] != list(SWEEP_VALUES):
        problems.append(f"sweep values {sweep.get('values')}")
    if len(runs) != len(SWEEP_VALUES):
        problems.append(f"sweep.json holds {len(runs)} runs, expected "
                        f"{len(SWEEP_VALUES)}")
    if any(r.get("seeds") != runs[0].get("seeds") for r in runs):
        problems.append("sweep runs differ in their drop seeds")
    for value, run in zip(SWEEP_VALUES, runs):
        tput = _cdf_tput(out_dir / f"cdf_zeta_{value}.csv")
        problems += [f"zeta={value}: {p}" for p in check_summary(run, tput, cfg)]
    return problems


def digest(workload: Workload, out) -> str:
    """Hash of the op's summaries: equal outputs give equal digests."""
    h = hashlib.sha256()
    if workload.entry == "run_config":
        h.update(json.dumps(out.to_json_dict(), sort_keys=True).encode())
        h.update(repr(out.per_ue_mbps).encode())
    else:
        out_dir = out[1]
        h.update((out_dir / "sweep.json").read_bytes())
        for value in SWEEP_VALUES:
            h.update((out_dir / f"cdf_zeta_{value}.csv").read_bytes())
    return h.hexdigest()[:16]
