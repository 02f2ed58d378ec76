"""Run a fixed list of independent tasks on every CPU this process may use.

The tasks are split into one share per process, and each process runs its
whole share in one call, so a caller can batch the work of its tasks. The
main process runs one share itself; each other share runs in a helper
forked from it, which inherits the tasks' inputs and sends back only its
results. Which process runs which task depends only on the task costs and
the CPU count, never on timing, so the main process makes the same calls on
every run. Results come back in task order, so a caller that combines them
in that order gets the same bytes on any number of CPUs.

The split is planned on a model of a share's time (:func:`assign`). By
default that is the sum of its tasks' costs, as for the batches of videos
``FirstLayer.score`` scores, each costed by its size. The training
protocol's tasks run together in lockstep loops, whose time is not the sum
of the tasks' times, so it passes its own share cost, read from the steps
of those loops (``ensemble._share_time``).

Helpers are forked, not spawned, so they share the inputs without pickling
them and start without importing anything. That is safe because the program
starts no threads of its own, and numpy's BLAS stops its thread pool across
a fork.

A helper exits as soon as the main process does, however that ends: it
watches a pipe whose only write end the main process holds, and the kernel
closes that end when the main process dies. So a helper never outlives the
run that started it, nor keeps a lock that run held.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
from typing import Callable, Sequence


def available_cpus() -> int:
    """The number of CPUs in this process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def assign(costs: Sequence, processes: int, share_cost: Callable[[list], float] = sum) -> list[list[int]]:
    """Task indices per process. ``share_cost`` maps the costs of a share's
    tasks, in share order, to the share's predicted time; by default it adds
    them. Each task, costliest alone first, goes to the share whose time
    after adding it is least, the lowest-numbered one on a tie. So process
    0, whose share :func:`run_shares` runs itself, gets the costliest task."""
    shares: list[list[int]] = [[] for _ in range(processes)]
    for task in sorted(range(len(costs)), key=lambda i: -share_cost([costs[i]])):
        after = [share_cost([costs[i] for i in share] + [costs[task]]) for share in shares]
        shares[after.index(min(after))].append(task)
    return shares


def run_shares(
    run: Callable[[list[int]], list], costs: Sequence, share_cost: Callable[[list], float] = sum
) -> list:
    """Each task's result, in task order. The tasks, numbered by their
    ``costs``, are spread by :func:`assign` with ``share_cost`` over one
    process per available CPU, at most one per task, and each process with a
    share makes one call, ``run(share)``, which returns the results of its
    share's tasks in share order. A single task, or a single CPU, starts no
    helper. An exception ``run`` raises in a helper is raised here, with the
    helper's traceback as a note."""
    shares = assign(costs, max(1, min(available_cpus(), len(costs))), share_cost)
    results: list = [None] * len(costs)
    helpers: list[tuple[int, int, list[int]]] = []  # (pid, result pipe, share)
    running: set[int] = set()  # helpers not yet reaped
    watch_r, watch_w = os.pipe()
    try:
        for share in filter(None, shares[1:]):
            pid, result_r = _start_helper(run, share, watch_r, watch_w)
            helpers.append((pid, result_r, share))
            running.add(pid)
        for task, value in zip(shares[0], run(shares[0])):
            results[task] = value
        for pid, result_r, share in helpers:
            with os.fdopen(result_r, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            running.discard(pid)
            ok, values = _payload(pid, data, status)
            if not ok:
                raise values
            for task, value in zip(share, values):
                results[task] = value
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in [watch_r, watch_w, *(result_r for _, result_r, _ in helpers)]:
            os.close(fd)
    return results


def _start_helper(run, share: list[int], watch_r: int, watch_w: int) -> tuple[int, int]:
    """Fork a helper that calls ``run(share)`` and writes ``(ok, results or
    exception)`` to the pipe whose read end is returned with its pid."""
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(result_r)
        os.close(result_w)
        raise
    if pid:
        os.close(result_w)
        return pid, result_r
    status = 1
    try:  # the helper never returns into its caller's frames
        os.close(result_r)
        os.close(watch_w)
        threading.Thread(target=_exit_when_closed, args=(watch_r,), daemon=True).start()
        try:
            payload = (True, run(share))
        except BaseException as exc:
            trace = "".join(traceback.format_exception(exc))
            exc.add_note(f"raised in helper process {os.getpid()}:\n{trace}")
            payload = (False, exc)
        with os.fdopen(result_w, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _exit_when_closed(fd: int) -> None:
    """Block until every write end of the pipe is closed, then exit. Nothing
    is ever written to it, so that is when the main process ends."""
    while os.read(fd, 1):
        pass
    os._exit(1)


def _payload(pid: int, data: bytes, status: int) -> tuple[bool, object]:
    """A reaped helper's ``(ok, results or exception)``. A helper exits 0
    only after it has written all of it."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"helper process {pid} ended with exit code {code} before sending its results")
    return pickle.loads(data)
