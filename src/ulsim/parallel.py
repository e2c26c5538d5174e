"""Independent work units on the caller's thread plus one worker thread.

The C&B solve's UE slices and the slot loops of a zeta group are
independent, and numpy releases the GIL inside its array loops, so two
threads keep two cores busy. A unit must not write what another unit reads.
"""

from __future__ import annotations

import threading

__all__ = ["two_thread_map"]


def two_thread_map(fn, units: list) -> list:
    """[fn(u) for u in units], run by the caller's thread, taking units from
    the front of the list, and one worker thread, taking them from the back;
    pass units largest first, so the two threads meet at the small ones.

    A list of at most one unit runs inline, with no thread. Once a unit
    raises, neither thread starts another; the worker has ended before this
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
    lock = threading.Lock()
    ends = [0, len(units)]              # the next front index, the back bound
    errors = []

    def drain(front: bool) -> None:
        while True:
            with lock:
                if errors or ends[0] == ends[1]:
                    return
                if front:
                    i = ends[0]
                    ends[0] += 1
                else:
                    ends[1] -= 1
                    i = ends[1]
            try:
                results[i] = fn(units[i])
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    worker = threading.Thread(target=drain, args=(False,),
                              name="ulsim-worker")
    worker.start()
    try:
        drain(True)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return results
