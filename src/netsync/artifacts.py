"""The bytes a run writes: trajectory CSVs, JSON documents, atomic files.

Every artifact of ``reproduce`` and every report file of the CLI is
written here, deterministically, so identical runs give byte-identical
files.  The CSV writer splits a large file over the CPUs this process
may use, in workers started with ``os.fork`` (Linux only).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import sys
import tempfile

import numpy as np

from .dynamics import _CHUNK_ELEMENTS, SyncReport, Trajectory

__all__ = ["write_trajectory_csv", "sync_report_dict"]

# Chunks each process must get before the CSV writer forks a worker:
# forking and reaping one costs 4-5 ms in a 141 MB process on a 2-CPU
# Linux VM, about two chunks of formatting there, and a worker's range
# formats more slowly than this process's.
_CSV_MIN_CHUNKS_PER_PROCESS = 8


def _csv_chunk(traj: Trajectory) -> int:
    """Time samples per chunk of the CSV writer."""
    return max(1, _CHUNK_ELEMENTS // max(1, traj.n_nodes * traj.node_dim))


def _csv_processes(n_chunks: int) -> int:
    """Processes that write one CSV of n_chunks chunks: the CPUs this
    process may run on, but few enough that each formats at least
    ``_CSV_MIN_CHUNKS_PER_PROCESS`` chunks; 1 off Linux, where no worker
    is forked."""
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)),
                      n_chunks // _CSV_MIN_CHUNKS_PER_PROCESS))


def _write_csv_samples(traj: Trajectory, fh, start: int, stop: int) -> None:
    """Write the CSV rows of time samples ``start:stop`` to the binary
    file fh, one chunk of samples at a time.

    The rows of one time sample share a template, ``%s,<node>`` then
    ``,%r`` per component for each node in turn.  A chunk of samples
    fills an object grid ``cells[sample, node] = (repr(t), x1..xn)`` with
    Python floats, whose ``%r`` is their ``repr``, and the template
    repeated once per sample formats the whole grid in one ``%``.
    """
    _, n_nodes, n = traj.states.shape
    chunk = _csv_chunk(traj)
    row = "".join(f"%s,{node + 1}" + ",%r" * n + "\r\n"
                  for node in range(n_nodes))
    cells = np.empty((chunk, n_nodes, 1 + n), dtype=object)
    for lo in range(start, stop, chunk):
        times = np.asarray(traj.times[lo:min(lo + chunk, stop)], dtype=float)
        b = times.shape[0]
        cells[:b, :, 0] = np.array(list(map(repr, times.tolist())),
                                   dtype=object)[:, None]
        cells[:b, :, 1:] = np.asarray(traj.states[lo:lo + b], dtype=float)
        fh.write((row * b % tuple(cells[:b].ravel().tolist())).encode())


def _fork_csv_worker(traj: Trajectory, part, start: int,
                     stop: int) -> int | None:
    """Fork a process that writes samples ``start:stop`` of traj to the
    binary file part and return its pid; None when ``os.fork`` fails, so
    that no worker writes the range.  The worker inherits traj and part,
    leaves an interrupt to this process, and ends through ``os._exit``
    (0 once the part is flushed, 1 on any exception) without flushing
    other inherited buffers or returning into the caller."""
    try:
        pid = os.fork()
    except OSError:     # e.g. EAGAIN at the process limit
        return None
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            _write_csv_samples(traj, part, start, stop)
            part.flush()
            code = 0
        finally:
            os._exit(code)
    return pid


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV rows ``t,node,x1..xn`` (one row per
    time sample per node): 1-based node labels, each value the ``repr``
    of a float, no quoting and ``\\r\\n`` line ends.

    On Linux a large trajectory is formatted on the CPUs this process
    may use: W contiguous ranges of whole chunks, at least
    ``_CSV_MIN_CHUNKS_PER_PROCESS`` each.  W - 1 forked workers each
    write one range to an unnamed temporary file beside ``path``;
    meanwhile this process writes the header and the first range, then
    reaps the workers in order and appends each part.  The range of a
    worker that could not be forked, failed or was killed is written
    here instead, so an error such as a full disk is raised here as
    itself.  Every range goes through :func:`_write_csv_samples`, so the
    bytes do not depend on W, and no worker or part outlives the call.
    """
    n_steps = traj.times.shape[0]
    chunk = _csv_chunk(traj)
    n_chunks = -(-n_steps // chunk)
    processes = _csv_processes(n_chunks)
    bounds = [min(n_steps, chunk * (n_chunks * i // processes))
              for i in range(processes + 1)]
    parts, pids, reaped = [], [], 0
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            parts.append(tempfile.TemporaryFile(
                dir=os.path.dirname(path) or "."))
            pids.append(_fork_csv_worker(traj, parts[-1], lo, hi))
        with open(path, "wb") as fh:
            fh.write((",".join(["t", "node"]
                               + [f"x{i + 1}" for i in range(traj.node_dim)])
                      + "\r\n").encode())
            _write_csv_samples(traj, fh, bounds[0], bounds[1])
            for part, pid, lo, hi in zip(parts, pids, bounds[1:], bounds[2:]):
                status = 1 if pid is None else os.waitpid(pid, 0)[1]
                reaped += 1
                if status == 0:
                    part.seek(0)
                    shutil.copyfileobj(part, fh)
                else:
                    _write_csv_samples(traj, fh, lo, hi)
    finally:
        for pid in pids[reaped:]:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for part in parts:
            part.close()


def sync_report_dict(report: SyncReport) -> dict:
    """JSON-ready synchronization report:
    {"sync_time": t|null, "converged": bool, "tol": v, "final_error": e}."""
    return {
        "sync_time": report.sync_time,
        "converged": report.converged,
        "tol": report.tol,
        "final_error": report.final_error,
    }


def dump_json(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: str, write) -> None:
    """Create ``path`` atomically: ``write(tmp)`` fills a temporary file
    in the same directory, which then replaces ``path``; on failure the
    temporary file is removed."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, lambda tmp: pathlib.Path(tmp).write_text(
        text, encoding="utf-8"))
