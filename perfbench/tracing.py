"""Per-layer spans recorded around ulsim's public functions, from outside ulsim.

Each target is patched at the module attribute its caller resolves at call
time: the engine imports `allocate` by name, so the span goes on
`ulsim.engine.allocate`, not on `ulsim.scheduler.allocate`. A span's self time
is its duration minus the time of the spans it encloses. A target that no
longer exists (renamed or removed) is reported as absent and its layer reads
0 calls; a target that exists but is never called reads 0 calls too.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (layer, module, attribute). cli.main's own time counts to the report layer:
# a separate cli time would read exactly 0 s on the run_config workloads.
TARGETS = (
    ("topology", "ulsim.engine", "build_snapshot"),
    ("powerctl", "ulsim.engine", "compute_powers"),
    ("powerctl", "ulsim.powerctl", "cnb_neighbors"),
    ("powerctl", "ulsim.powerctl", "cnb_solve"),
    ("scheduler", "ulsim.engine", "allocate"),
    ("engine.slot", "ulsim.engine", "compute_slot"),
    ("engine.loop", "ulsim.engine", "simulate"),
    ("linkbudget", "ulsim.engine", "amc_realized"),
    ("linkbudget", "ulsim.powerctl", "amc_realized"),
    ("linkbudget", "ulsim.powerctl", "amc_smooth"),
    ("report", "ulsim.report", "summarize"),
    ("report", "ulsim.report", "write_sweep_json"),
    ("report", "ulsim.report", "write_cdf_csv"),
    ("report", "ulsim.cli", "main"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counters read from a target's arguments and result: fn(counts, args,
# kwargs, result). They only read, so a changed signature or result type
# loses the counter (counted in trace.counter_errors), not the run.
def _count_powers(counts, args, kwargs, result):
    counts["powers"] += len(result)


def _count_neighbors(counts, args, kwargs, result):
    counts["neighbors"] += len(result)


def _count_grants(counts, args, kwargs, result):
    counts["grants"] += len(result)
    counts["granted_rbs"] += sum(int(e.rb_len) for e in result)
    counts["data_rbs"] += _arg(args, kwargs, 3, "grid").data_rbs
    counts["empty_calls"] += not result


def _count_slot(counts, args, kwargs, result):
    bits, scheduled = result[0], result[-1]
    counts["scheduled_ue_slots"] += int(scheduled.sum())
    counts["zero_bit_ue_slots"] += int((scheduled & (bits <= 0)).sum())


def _count_bytes(counts, args, kwargs, result):
    counts["bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


COUNTERS = {
    "compute_powers": _count_powers,
    "cnb_neighbors": _count_neighbors,
    "allocate": _count_grants,
    "compute_slot": _count_slot,
    "write_sweep_json": _count_bytes,
    "write_cdf_csv": _count_bytes,
}


class Tracer:
    """Installs spans on the targets for the ops run between install and
    uninstall, and sums self time, inclusive time and calls per target."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []
        self._originals = {}
        self._stack = [0.0]             # child time of each open span

    def install(self) -> None:
        self.absent = []
        for layer, modname, attr in self.targets:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._originals[(modname, attr)] = (module, fn)
            setattr(module, attr, self._wrap(fn, f"{modname}.{attr}", attr))

    def uninstall(self) -> None:
        for (_, attr), (module, fn) in self._originals.items():
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, key, attr):
        counter = COUNTERS.get(attr)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                self.calls[key] += 1
                self.total_s[key] += dt
                self.self_s[key] += dt - child
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError,
                        ValueError, OSError):
                    self.counts["counter_errors"] += 1
            return result

        return span

    def layer(self, layer: str, table) -> float:
        return sum(table[f"{m}.{a}"] for lay, m, a in self.targets if lay == layer)

    def metrics(self, traced_times: list[float], untraced_times: list[float]) -> dict:
        """Per-op means over the traced ops, as name -> (value, unit)."""
        n = len(traced_times)
        c = self.counts
        calls = lambda layer: self.layer(layer, self.calls) / n
        self_s = lambda layer: self.layer(layer, self.self_s) / n
        ratio = lambda a, b: a / b if b else 0.0
        run_s = sum(traced_times) / n
        layers = dict.fromkeys(layer for layer, _, _ in self.targets)
        return {
            "topology.calls": (calls("topology"), "count"),
            "topology.self_s": (self_s("topology"), "s"),
            "powerctl.self_s": (self_s("powerctl"), "s"),
            "powerctl.solves": (c["powers"] / n, "count"),
            "powerctl.us_per_solve": (1e6 * ratio(
                self.total_s["ulsim.engine.compute_powers"], c["powers"]), "us"),
            "powerctl.neighbors_per_ue": (ratio(
                c["neighbors"], self.calls["ulsim.powerctl.cnb_neighbors"]), "count"),
            "scheduler.calls": (calls("scheduler"), "count"),
            "scheduler.self_s": (self_s("scheduler"), "s"),
            "scheduler.grants_per_call": (ratio(
                c["grants"], self.layer("scheduler", self.calls)), "count"),
            "scheduler.rb_use": (ratio(c["granted_rbs"], c["data_rbs"]), "ratio"),
            "scheduler.empty_frac": (ratio(
                c["empty_calls"], self.layer("scheduler", self.calls)), "ratio"),
            "engine.slot.self_s": (self_s("engine.slot"), "s"),
            "engine.zero_bit_frac": (ratio(
                c["zero_bit_ue_slots"], c["scheduled_ue_slots"]), "ratio"),
            "engine.loop.self_s": (self_s("engine.loop"), "s"),
            "linkbudget.calls": (calls("linkbudget"), "count"),
            "linkbudget.self_s": (self_s("linkbudget"), "s"),
            "report.self_s": (self_s("report"), "s"),
            "report.bytes_written": (c["bytes_written"] / n, "bytes"),
            "cli.calls": (self.calls["ulsim.cli.main"] / n, "count"),
            "trace.run_s": (run_s, "s"),
            "trace.other_s": (run_s - sum(self_s(lay) for lay in layers), "s"),
            "trace.overhead_s": (
                run_s - sum(untraced_times) / len(untraced_times), "s"),
            "trace.absent": (len(self.absent), "count"),
            "trace.counter_errors": (c["counter_errors"] / n, "count"),
        }
