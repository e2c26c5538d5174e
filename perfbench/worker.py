"""Benchmark child process: runs one workload's ops and prints a JSON report.

`run.py` starts this in a fresh interpreter, with the BLAS threads pinned to 1
and ulsim imported from the checkout's `src/`. With `--setup` it only pays the
set-up a user pays before the first op (importing ulsim, and numpy with it,
and building the config, layout and a snapshot), prints its time and exits.
Otherwise it runs ops until `--seconds` is spent and prints, as its
last stdout line, the op times, the failures, the peak RSS, the output digest
and, with `--trace 1`, the per-layer metrics.

Timing uses in-process `time.perf_counter` only: no system-wide tracing and no
cache drops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _import_ulsim() -> None:
    import ulsim
    if Path(ulsim.__file__).resolve().parent != ROOT / "src" / "ulsim":
        raise ImportError(f"ulsim imported from {ulsim.__file__}, "
                          f"not from {ROOT / 'src'}")


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_ops(workload, seed: int, seconds: float, trace: bool, tiny: bool,
            scratch: Path) -> dict:
    """Run ops until `seconds` is spent; with trace, every other op is traced.

    No op starts when the mean op time so far says it would end after
    `seconds`, except to reach the minimum: one op, or one of each kind with
    trace on.
    """
    import tracing

    tracer = tracing.Tracer() if trace else None
    times, traced_times, failures = [], [], []
    digest = None
    failed = 0
    min_ops = 2 if trace else 1
    start = time.perf_counter()
    i = 0
    while True:
        cfg = workloads.config_for(workload, workloads.op_seed(workload.name, seed, i),
                                   tiny)
        traced = trace and i % 2 == 1
        out_dir = scratch / f"op{i}"
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workloads.execute(workload, cfg, out_dir)
        except Exception:   # an op that raises is a failed op, not a dead run
            out = None
            problems = [f"raised {traceback.format_exc(limit=3)}"]
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        (traced_times if traced else times).append(dt)
        if out is not None:
            try:
                problems = workloads.check(workload, cfg, out)
                if i == 0:
                    digest = workloads.digest(workload, out)
            except Exception:   # output that cannot be read fails the op
                problems = [f"unreadable output {traceback.format_exc(limit=3)}"]
        failed += bool(problems)
        failures += [f"op {i}: {p}" for p in problems]
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= min_ops and elapsed + elapsed / i > seconds:
            break
    report = {
        "times": times,
        "attempted": i,
        "failed": failed,
        "failures": failures,
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        report["layers"] = {k: list(v) for k, v in
                            tracer.metrics(traced_times, times).items()}
        report["absent"] = tracer.absent
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup", action="store_true",
                        help="only do the set-up before the first op, then exit")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    _import_ulsim()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup:
        workloads.setup(workload, args.tiny)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        report = run_ops(workload, args.seed, args.seconds, bool(args.trace),
                         args.tiny, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["machine"] = machine()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
