"""ulsim benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk_cnb --seed 1 --seconds 30 --trace 0

With `--trace 0` it reports the end-to-end metrics, measured with no spans
installed: `run_s` (median wall seconds per op), `setup_s` (median, over
several fresh interpreters, of the time from the start of `import ulsim` to a
built snapshot of the workload's geometry), `peak_rss_mb` of the process that ran
the ops, and `ok_frac` (ops that passed every output check over ops
attempted; its complement, `fail_frac`, is printed above the result). With
`--trace 1` it reports the per-layer metrics of `tracing.py`, from a run in
which every other op is traced. `--tiny` shrinks every workload for the smoke
test.

The ops run in one child process with the BLAS threads pinned to 1; each set-up
probe is a child process too. Every child is waited for. The last stdout line
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 11
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONPATH="")


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run the worker; subprocess.run kills and reaps it at the deadline."""
    return subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: one ring, a few UEs and slots")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ulsim" / "__init__.py").is_file():
        print(f"perfbench: no ulsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload] + (["--tiny"] if args.tiny else [])
    setup_s = []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe = _child(common + ["--setup"], deadline)
            if probe.returncode != 0:
                print(f"perfbench: set-up failed:\n{probe.stderr}", file=sys.stderr)
                return 1
            setup_s.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
        proc = _child(common + ["--seed", str(args.seed), "--seconds",
                                str(args.seconds), "--trace", str(args.trace)], deadline)
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: killed after {exc.timeout:.0f} s: {exc.cmd}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: worker exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return 1
    rep = json.loads(proc.stdout.strip().splitlines()[-1])

    m = rep["machine"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"machine  cpu {m['cpu']!r}  nproc {m['nproc']}  {m['os']}  "
          f"python {m['python']}  numpy {m['numpy']}")
    print("timers   in-process time.perf_counter only; no system-wide tracing, "
          "no cache drops")
    print(f"digest   {rep['digest']}  (summaries of op 0 for this seed)")
    print(f"  fail_frac    {rep['failed'] / rep['attempted']:.4f} ratio  "
          f"({rep['failed']} of {rep['attempted']} ops failed)")
    for failure in rep["failures"]:
        print(f"  FAILED {failure}")

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in rep["layers"].items()}
        run_s = metrics["trace.run_s"]["value"]
        for target in rep["absent"]:
            print(f"absent   {target} (layer reads 0 calls)")
        for name, mv in metrics.items():
            share = (f"  {100 * mv['value'] / run_s:5.1f} % of traced run_s"
                     if name.endswith("self_s") or name == "trace.other_s" else "")
            print(f"  {name:28s} {mv['value']:14.6g} {mv['unit']}{share}")
    else:
        times = rep["times"]
        q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        metrics = {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1 - rep["failed"] / rep["attempted"], "unit": "ratio"},
        }
        print(f"  run_s        {metrics['run_s']['value']:.4f} s  "
              f"(p25 {q[0]:.4f}, p75 {q[2]:.4f}, n={len(times)} ops)")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  "
              f"(median of {len(setup_s)} fresh interpreters)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
        print(f"  ok_frac      {metrics['ok_frac']['value']:.4f} ratio")

    print(json.dumps({"correct": rep["failed"] == 0, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
