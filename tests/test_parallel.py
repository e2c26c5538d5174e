"""The two-thread work-unit runner, and that the C&B solve and the slot loops
that run on it leave no thread behind and give their serial results."""

import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

from conftest import cnb_config
from test_powerctl import random_batch
from ulsim import engine, powerctl
from ulsim.engine import build_snapshot, simulate
from ulsim.parallel import two_thread_map
from ulsim.powerctl import cnb_solve


def serial_map(fn, units):
    return [fn(u) for u in units]


class TestTwoThreadMap:
    def test_results_in_unit_order(self):
        before = threading.active_count()
        assert two_thread_map(lambda u: u * u, list(range(9))) == [
            u * u for u in range(9)]
        assert two_thread_map(lambda u: u, []) == []
        assert threading.active_count() == before

    def test_one_unit_runs_inline(self):
        seen = []
        before = threading.active_count()

        def fn(u):
            seen.append((threading.current_thread(), threading.active_count()))
            return u

        assert two_thread_map(fn, [7]) == [7]
        assert seen == [(threading.main_thread(), before)]

    def test_front_to_caller_back_to_worker(self):
        # The caller holds unit 0 until the worker has run a unit, so each
        # thread takes at least one; the caller walks forward from the front
        # and the worker backward from the back.
        worker_ran = threading.Event()
        taken = {True: [], False: []}

        def fn(u):
            on_caller = threading.current_thread() is threading.main_thread()
            taken[on_caller].append(u)
            if not on_caller:
                worker_ran.set()
            elif u == 0:
                assert worker_ran.wait(10)
            return u

        assert two_thread_map(fn, list(range(6))) == list(range(6))
        front, back = taken[True], taken[False]
        assert front == list(range(len(front)))
        assert back == list(range(5, len(front) - 1, -1))

    @pytest.mark.parametrize("caller_raises", [False, True])
    def test_worker_exception_reaches_caller(self, caller_raises):
        # The worker raises on the last unit while the caller runs unit 0,
        # which ends, returning or raising too, only once the worker has
        # ended: neither thread starts another unit, and the caller sees the
        # worker's exception, the first, with its message.
        caller_in = threading.Event()
        taken = []
        before = threading.active_count()

        def fn(u):
            taken.append(u)
            if threading.current_thread() is not threading.main_thread():
                assert caller_in.wait(10)
                raise ValueError(f"unit {u} failed")
            caller_in.set()
            deadline = time.monotonic() + 10
            while (threading.active_count() > before
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            if caller_raises:
                raise KeyError("second failure")
            return u

        with pytest.raises(ValueError, match="unit 5 failed"):
            two_thread_map(fn, list(range(6)))
        assert sorted(taken) == [0, 5]
        assert threading.active_count() == before

    def test_caller_exception_stops_the_worker(self):
        # The caller raises on unit 0 while the worker runs the last unit,
        # which ends 0.1 s later: the worker starts no other unit.
        caller_in = threading.Event()
        taken = []
        before = threading.active_count()

        def fn(u):
            taken.append(u)
            if threading.current_thread() is threading.main_thread():
                caller_in.set()
                raise KeyError("front unit")
            assert caller_in.wait(10)
            time.sleep(0.1)
            return u

        with pytest.raises(KeyError, match="front unit"):
            two_thread_map(fn, list(range(6)))
        assert sorted(taken) == [0, 5]
        assert threading.active_count() == before


@pytest.fixture
def tiny_switch_interval():
    """Make the two threads switch as often as CPython allows."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


ZETAS = (1.3, 1.1, 0.9, 0.7)


class TestThreadedCallers:
    def test_solve_leaves_no_thread_and_matches_serial(
            self, monkeypatch, tiny_switch_interval):
        pl, cross = random_batch(np.random.default_rng(70), 150)
        configs = [cnb_config(zeta=z) for z in ZETAS]
        n_units = []

        def counting_map(fn, units):
            n_units.append(len(units))
            return two_thread_map(fn, units)

        monkeypatch.setattr(powerctl, "two_thread_map", counting_map)
        before = threading.active_count()
        got = cnb_solve(pl, cross, configs)
        assert threading.active_count() == before
        assert n_units[0] > 1
        monkeypatch.setattr(powerctl, "two_thread_map", serial_map)
        want = cnb_solve(pl, cross, configs)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_simulate_leaves_no_thread_and_matches_serial(
            self, monkeypatch, tiny_switch_interval):
        configs = [cnb_config(zeta=z, rings=1, ues_per_cell=3, slots=30,
                              fading=1) for z in ZETAS]
        snapshot = build_snapshot(configs[0], 11)
        before = threading.active_count()
        got = simulate(*snapshot, configs, fading_seed=11)
        assert threading.active_count() == before
        monkeypatch.setattr(engine, "two_thread_map", serial_map)
        monkeypatch.setattr(powerctl, "two_thread_map", serial_map)
        want = simulate(*snapshot, configs, fading_seed=11)
        for g, w in zip(got, want):
            assert all(np.array_equal(getattr(g, f.name), getattr(w, f.name))
                       for f in fields(w))

    def test_slot_loop_exception_reaches_caller(self, monkeypatch):
        configs = [cnb_config(zeta=z, rings=0, ues_per_cell=2, slots=3)
                   for z in ZETAS[:2]]
        real = engine._slot_loop

        def slot_loop(serving, loss_db, config, *args):
            if config.zeta == ZETAS[1]:
                raise RuntimeError("slot loop failed")
            return real(serving, loss_db, config, *args)

        monkeypatch.setattr(engine, "_slot_loop", slot_loop)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="slot loop failed"):
            simulate(*build_snapshot(configs[0], 3), configs)
        assert threading.active_count() == before
