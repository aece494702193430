"""The bytes a run writes: trajectory CSVs, JSON documents, atomic files.

Every artifact of ``reproduce`` and every report file of the CLI is
written here, deterministically, so identical runs give byte-identical
files.  The CSV writer formats a whole chunk of values at once in NumPy:
the shortest round-trip digits of each double by Giulietti's Schubfach
algorithm, laid out as CPython's ``repr`` lays them out, so every value
reads exactly as its ``repr``.  It splits a large file over the CPUs
this process may use, in workers started with ``os.fork`` (Linux only).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import sys
import tempfile
import types

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


# The CSV value formatter.  Each value becomes one 32-byte slot: NUL at
# byte 0, "," at byte 1, "-" at byte 2 when negative, the digits and "."
# within bytes 3-24, the exponent from byte 25, NUL everywhere else; a
# row's slots are compacted by deleting every NUL byte.  Slots are built
# as four little-endian uint64 words, byte i of a slot being bits
# 8i..8i+7 of word i // 8.
_SLOT = 32
# decimal exponents k of the Schubfach table: floor(log10 2^q) over the
# binary exponents q of the normal doubles
_K_MIN, _K_MAX = -324, 292
# offset of decpt (the repr's decimal-point position) in the per-decpt
# tables; wide enough for every normal double
_DECPT_OFFSET = 330
_U1, _U2, _U3, _U4, _U8, _U10, _U32, _U40, _U56, _U63, _U64 = (
    np.uint64(v) for v in (1, 2, 3, 4, 8, 10, 32, 40, 56, 63, 64))
_LOW32 = np.uint64(0xFFFFFFFF)
_FRACTION = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_NOT3 = np.uint64((1 << 64) - 4)
_COMMA, _MINUS = np.uint64(ord(",") << 8), np.uint64(ord("-") << 16)

# built by the first CSV write (see _csv_tables), not at import
_CSV_TABLES = None


def _csv_tables():
    """The formatter's lookup tables, built on first use from Python
    integers and then shared (a forked worker inherits them):

    - ``g`` (2, 617): Schubfach's 126-bit g(k) = floor(10^-k 2^-r) + 1,
      2^125 <= g < 2^126, for k in [_K_MIN, _K_MAX], as g mod 2^63 (row 0)
      and g >> 63 (row 1); ``g_hi``, ``g_lo`` their 32-bit halves;
    - ``digits``: the ASCII of 0000-9999 as little-endian uint32 values;
    - ``zeros``: trailing "0"s of each four-digit group, 99 for 0000,
      and ``group_ends``, the digit count up to the end of each group;
    - ``masks`` (10, 22 * 17): per layout class (decpt clipped to
      -4..17, digit count 1..17) the bytes kept from the digit words, the
      bytes kept from them shifted one byte up, and the "." word;
    - ``row`` and ``exponent``: per decpt, the column in ``masks`` of its
      layout class less one, to which the digit count is added, and the
      exponent word ("e+16" from byte 25, 0 for the positional layout).
    """
    global _CSV_TABLES
    if _CSV_TABLES is not None:
        return _CSV_TABLES
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            shift = 126 - p.bit_length()
            g.append((p << shift if shift >= 0 else p >> -shift) + 1)
        else:
            g.append((1 << (p.bit_length() + 125)) // p + 1)
    low63 = (1 << 63) - 1
    g = np.array([[v & low63 for v in g], [v >> 63 for v in g]],
                 dtype=np.uint64)
    i = np.arange(10_000, dtype=np.int16)
    ascii4 = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10],
                      axis=1).astype(np.uint8) + ord("0")
    zeros = ((i % 10 == 0).astype(np.int8) + (i % 100 == 0)
             + (i % 1000 == 0)).astype(np.int8)
    zeros[0] = 99
    masks = np.zeros((22 * 17, 80), dtype=np.uint8)
    for decpt in range(-4, 18):
        for n in range(1, 18):
            mask = masks[(decpt + 4) * 17 + n - 1]
            if -4 < decpt <= 16:     # d.ddd, 0.000ddd or ddd.0
                dot = 7 + decpt
                mask[min(7, dot - 1):dot] = 0xFF
                mask[24 + dot + 1:24 + max(8 + n, dot + 2)] = 0xFF
                mask[56 + dot] = ord(".")
            else:                    # d.ddde+XX or de+XX
                mask[7] = 0xFF
                mask[24 + 9:24 + 8 + n] = 0xFF
                mask[56 + 8] = ord(".") if n > 1 else 0
    decpts = range(-_DECPT_OFFSET, _DECPT_OFFSET + 1)
    exponent = [0 if -4 < d <= 16 else
                int.from_bytes(f"e{d - 1:+03d}".encode(), "little") << 8
                for d in decpts]
    _CSV_TABLES = types.SimpleNamespace(
        g=g, g_hi=g >> _U32, g_lo=g & _LOW32,
        digits=ascii4.view("<u4").reshape(-1).astype(np.uint64),
        zeros=zeros,
        group_ends=np.array([1, 5, 9, 13, 17], dtype=np.int8)[:, None],
        masks=masks.view("<u8").T.astype(np.uint64),
        row=np.array([(min(max(d, -4), 17) + 4) * 17 - 1 for d in decpts]),
        exponent=np.array(exponent, dtype=np.uint64))
    return _CSV_TABLES


def _mul_hi(a_hi, a_lo, b):
    """The high words of the 128-bit products a b of uint64 arrays, from
    the 32-bit halves of a, which it overwrites, and of b."""
    b_hi, b_lo = b >> _U32, b & _LOW32
    mid = a_lo * b_lo
    mid >>= _U32
    cross = a_hi * b_lo
    cross += mid
    np.multiply(a_lo, b_hi, out=mid)
    np.bitwise_and(cross, _LOW32, out=a_lo)
    mid += a_lo
    a_hi *= b_hi
    cross >>= _U32
    a_hi += cross
    mid >>= _U32
    a_hi += mid
    return a_hi


def _round_to_odd(hi, lo, out):
    """out = floor(g cp / 2^127) with g = g1 2^63 + g0, from the (hi, lo)
    words of g0 cp (row 0) and g1 cp (row 1), or'ed with 1 when the
    fraction dropped has a bit set among those that decide it."""
    z = lo[1] >> _U1
    z += hi[0]
    np.right_shift(z, _U63, out=out)
    out += hi[1]
    z <<= _U1
    out |= z != 0


def _shortest_digits(bits, lc, tables):
    """Schubfach (Giulietti, "The Schubfach way to render doubles", 2020;
    Java's ``Double.toString``) over finite positive normal doubles:
    ``(d, k)`` with ``bits`` = d 10^k, d the shortest decimal that rounds
    back to it, the one nearest to it among those, the even one on a tie,
    16 or 17 digits with trailing zeros.  ``lc`` marks a zero fraction
    above the least exponent, whose lower neighbour is twice as near.

    The value c 2^q is compared with 10^k through 64 bits of
    ``g(k) (4c ± 2) 2^h``, rounded to odd, for the value and both ends of
    its rounding interval; the 64x64 -> 128-bit products are taken from
    32-bit halves.
    """
    q = (bits >> np.uint64(52)).view(np.int64)
    q -= 1075
    k = q * 661_971_961_083          # floor(log10 2^q), or 3/4 2^q if lc
    if lc.any():
        k -= lc * 274_743_187_321
    k >>= 41
    h = k * -913_124_641_741         # h = q + floor(log2 10^-k) + 2, 1..4
    h >>= 38
    h += q
    h += 2
    del q
    h = h.view(np.uint64)
    cp = bits & _FRACTION
    cp |= _HIDDEN
    cp <<= h
    cp <<= _U2                       # 4c 2^h < 2^59
    # (hi, lo) words of g0 cp and g1 cp, one per row
    gi = k - _K_MIN
    g = tables.g.take(gi, axis=1)
    hi = _mul_hi(tables.g_hi.take(gi, axis=1), tables.g_lo.take(gi, axis=1),
                 cp)
    lo = g * cp
    del gi, cp
    # v[1] for the value; v[0] and v[2] for the ends, the same products
    # -+ g 2^(h+1), or - g 2^h at the lower end when lc
    v = np.empty((3, bits.shape[0]), np.uint64)
    _round_to_odd(hi, lo, v[1])
    h += _U1
    end_lo = g << h
    end_lo += lo
    end_hi = g >> (_U64 - h)
    end_hi += hi
    end_hi += end_lo < lo
    _round_to_odd(end_hi, end_lo, v[2])
    if lc.any():
        h -= lc
    np.left_shift(g, h, out=end_lo)
    np.subtract(lo, end_lo, out=end_lo)
    np.right_shift(g, _U64 - h, out=end_hi)
    np.subtract(hi, end_hi, out=end_hi)
    end_hi -= end_lo > lo
    _round_to_odd(end_hi, end_lo, v[0])
    del g, h, hi, lo, end_hi, end_lo
    vbl, vb, vbr = v
    odd = bits & _U1                 # an odd c excludes the interval's ends
    vbl += odd
    vbr -= odd
    del odd
    # the shortest candidates: a multiple of 10 units (s' or s' + 10) if
    # exactly one lies in the interval, else s or s + 1, whichever is in
    # it or, both being in, the nearer
    s = vb >> _U2
    s10 = s // _U10
    u = s10 * _U40
    s10_in = vbl <= u
    u += _U40
    t10_in = u <= vbr
    np.bitwise_and(vb, _NOT3, out=u)
    s_in = vbl <= u
    u += _U4
    t_in = u <= vbr
    np.bitwise_and(vb, _U3, out=u)
    u += s & _U1
    up = u > _U2                     # vb above s + 1/2, or on it with s odd
    up |= ~s_in
    up &= t_in
    s += up
    s10 += t10_in
    s10 *= _U10
    s10_in ^= t10_in
    del v, vbl, vb, vbr, u, s_in, t_in, up, t10_in
    return np.where(s10_in, s10, s).view(np.int64), k


def _format_slots(values):
    """(len(values), 4) little-endian uint64: the slot of each float64.

    Finite normal doubles and zeros are formatted here, with CPython's
    ``repr`` digits and layout: positional when -4 < decpt <= 16 (".0"
    on an integral value), else ``d.ddde±XX``.  Subnormals, infinities
    and NaNs are written by ``repr`` itself.  Each temporary is deleted
    once used, which keeps a chunk's peak memory within the writer's
    bound.
    """
    tables = _csv_tables()
    m = values.shape[0]
    bits = values.view(np.uint64) & np.uint64((1 << 63) - 1)
    special = (bits >> np.uint64(52)) - _U1 >= np.uint64(2046)
    zero = fallback = None
    if special.any():                # 0, subnormal, inf, nan: 1.0 below
        special = np.flatnonzero(special)
        zero = special[bits[special] == 0]
        fallback = special[bits[special] != 0]
        bits[special] = np.float64(1.0).view(np.uint64)
    del special
    lc = bits & _FRACTION == 0
    lc &= bits >= np.uint64(2 << 52)
    digits, decpt = _shortest_digits(bits, lc, tables)
    del bits, lc
    # 17 digits: decpt is the repr's decimal-point position
    long = digits >= 10 ** 16
    decpt += 16
    decpt += long
    digits = np.where(long, digits, digits * 10)
    del long
    if zero is not None:
        digits[zero] = 0
        decpt[zero] = 1
    groups = np.empty((5, m), np.int64)   # 1 + 4 x 4 digits
    np.floor_divide(digits, 10 ** 16, out=groups[0])
    digits -= groups[0] * 10 ** 16
    halves = np.empty((2, m), np.int64)
    np.floor_divide(digits, 10 ** 8, out=halves[0])
    np.subtract(digits, halves[0] * 10 ** 8, out=halves[1])
    del digits
    np.floor_divide(halves, 10 ** 4, out=groups[1::2])
    np.subtract(halves, groups[1::2] * 10 ** 4, out=groups[2::2])
    del halves
    # significant digits, at least 1
    ends = tables.group_ends - tables.zeros.take(groups)
    n = ends.max(axis=0).astype(np.int64)
    del ends
    np.maximum(n, 1, out=n)
    # the digit words: "0" * 7 + 17 digits, then shifted one byte up
    ascii = tables.digits.take(groups)
    del groups
    X = np.empty((3, m), np.uint64)
    np.left_shift(ascii[0], _U32, out=X[0])
    X[0] |= np.uint64(0x30303030)
    np.left_shift(ascii[2::2], _U32, out=X[1:])
    X[1:] |= ascii[1::2]
    del ascii
    Y = np.empty((4, m), np.uint64)
    np.left_shift(X, _U8, out=Y[:3])
    np.right_shift(X[2], _U56, out=Y[3])
    Y[1:3] |= X[:2] >> _U56
    decpt += _DECPT_OFFSET
    n += tables.row.take(decpt)
    Y &= tables.masks[3:7].take(n, axis=1)
    X &= tables.masks[:3].take(n, axis=1)
    X |= tables.masks[7:].take(n, axis=1)
    del n
    slots = np.empty((m, 4), "<u8")
    words = slots.T
    np.bitwise_or(X, Y[:3], out=words[:3])
    np.bitwise_or(Y[3], tables.exponent.take(decpt), out=words[3])
    del X, Y, decpt
    words[0] |= _COMMA
    words[0] |= np.signbit(values) * _MINUS
    if fallback is not None:
        for i in fallback.tolist():
            slots[i] = np.frombuffer(
                ("\0," + repr(float(values[i]))).encode().ljust(_SLOT, b"\0"),
                dtype="<u8")
    return slots


def _write_csv_samples(traj: Trajectory, fh, start: int, stop: int) -> None:
    """Write the CSV rows of time samples ``start:stop`` to the binary
    file fh, one chunk of samples at a time.

    A chunk's times and states are formatted together into 32-byte slots
    by :func:`_format_slots`.  A (sample, node, byte) matrix then lays
    out every row of the chunk: the time's slot without its comma, the
    node label, the node's value slots and ``\\r\\n``; deleting the
    matrix's NUL bytes (``bytearray.translate``) gives the chunk's text.
    """
    _, n_nodes, n = traj.states.shape
    chunk = _csv_chunk(traj)
    labels = [f",{node + 1}".encode() for node in range(n_nodes)]
    width = max(map(len, labels), default=0)
    labels = np.frombuffer(b"".join(label.ljust(width, b"\0")
                                    for label in labels),
                           dtype=np.uint8).reshape(n_nodes, width)
    row = _SLOT + width + _SLOT * n + 2
    values = np.empty(chunk * (1 + n_nodes * n))
    for lo in range(start, stop, chunk):
        b = min(chunk, stop - lo)
        chunk_values = values[:b * (1 + n_nodes * n)]
        chunk_values[:b] = traj.times[lo:lo + b]
        chunk_values[b:].reshape(b, n_nodes, n)[...] = traj.states[lo:lo + b]
        slots = _format_slots(chunk_values).view(np.uint8)
        slots[:b, 1] = 0             # a row opens with its time: no comma
        text = bytearray(b * n_nodes * row)
        rows = np.frombuffer(text, dtype=np.uint8).reshape(b, n_nodes, row)
        rows[:, :, :_SLOT] = slots[:b, None]
        rows[:, :, _SLOT:_SLOT + width] = labels
        rows[:, :, _SLOT + width:-2] = slots[b:].reshape(b, n_nodes,
                                                          _SLOT * n)
        rows[:, :, -2] = ord("\r")
        rows[:, :, -1] = ord("\n")
        del slots, rows
        fh.write(text.translate(None, b"\0"))
        del text


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
    of a float, no quoting and ``\\r\\n`` line ends.  The values are
    formatted a chunk at a time by :func:`_format_slots`, whose tables
    are built here on the first call, before any worker forks.

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
    _csv_tables()                    # built once, before any worker forks
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
