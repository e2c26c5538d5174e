"""Independent work units on the caller's thread plus one worker thread.

The C&B solve's UE slices and the slot loops of a group (see engine.run)
are independent, and numpy releases the GIL inside its array loops, so two
threads keep two cores busy. A unit must not write what another unit reads.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["two_thread_map"]


def two_thread_map(fn, units: list) -> list:
    """[fn(u) for u in units], run by the caller's thread, taking units from
    the front of the list, and one worker thread, taking them from the back;
    pass units largest first, so the two threads meet at the small ones.

    Both threads pop (index, unit) pairs from one deque, whose pops are
    atomic, so each unit runs exactly once. A list of at most one unit runs
    inline, with no thread. A unit that raises empties the deque, so
    neither thread starts another; the worker has ended before this
    returns, and the first exception raised is raised again here.

    Not concurrent.futures.ThreadPoolExecutor(2).map, which runs the two
    largest units at once on two new threads while the caller waits: in 5
    paired benchmark runs it raised peak RSS from 44.3 to 48.1 MB on
    desk_cnb and from 61.7 to 70.0 MB on dense_zeta_sweep, with run time
    flat (medians; see CHANGES.md).
    """
    if len(units) <= 1:
        return [fn(u) for u in units]
    results = [None] * len(units)
    pending = deque(enumerate(units))
    errors = []

    def drain(pop) -> None:
        while True:
            try:
                i, unit = pop()
            except IndexError:          # empty, or emptied after a failure
                return
            try:
                results[i] = fn(unit)
            except BaseException as exc:
                pending.clear()
                errors.append(exc)
                return

    worker = threading.Thread(target=drain, args=(pending.pop,),
                              name="ulsim-worker")
    worker.start()
    try:
        drain(pending.popleft)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return results
