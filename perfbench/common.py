"""Shared pieces of the benchmark: timing samples, the output oracle,
host ceilings, memory gauges and the result line."""

from __future__ import annotations

import gc
import json
import os
import time
import tracemalloc

import numpy as np

FORMATS = ("csr", "csr-du", "csr-vi")
#: Cells whose op time is gated: one executor per format plus the
#: ``degrade=True`` executor over CSR.
CELLS = FORMATS + ("degrade",)
WORKERS = 2


#: Host cache sizes the triad working set is labelled against.
L2_BYTES = 4 << 20
L3_BYTES = 300 << 20
TRIAD_ARRAY_BYTES = 32 << 20


def format_of(cell: str) -> str:
    """The storage format a cell's executor uses."""
    return "csr" if cell == "degrade" else cell


class Samples:
    """Timings of one quantity; medians are gated, p90 is reported."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    def median(self) -> float:
        return float(np.median(self.values)) if self.values else float("nan")

    def p90(self) -> float:
        return float(np.percentile(self.values, 90)) if self.values else float("nan")


class Ledger:
    """Attempted and failed operations; every failure is kept with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, good: bool, reason: str) -> bool:
        if good:
            self.ok()
        else:
            self.fail(reason)
        return good

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def serial_reference(matrix, fmt: str):
    """The oracle for *fmt*: the whole matrix converted serially."""
    from repro.formats.conversions import convert

    return convert(matrix, fmt)


def check_reference_agreement(refs: dict, ledger: Ledger, what: str) -> None:
    """Each format's serial answer must be allclose to CSR's.

    Bit identity is required only within one format: formats sum a
    row's products in different orders.
    """
    base = refs["csr"]
    for fmt, value in refs.items():
        ledger.check(
            bool(np.allclose(value, base, rtol=1e-12, atol=1e-12)),
            f"{what}: {fmt} serial result is not allclose to csr",
        )


def triad_gbs(reps: int = 7) -> float:
    """STREAM-style triad ``a = b + s*c`` over 32 MB arrays, in GB/s.

    Each array is 8x one core's L2, so the kernel streams from L3 or
    DRAM, but the three arrays fit in the 300 MiB shared L3 the VM
    reports.  Arrays 4x the L3 are not affordable on this host, so this
    is an L3-resident bandwidth ceiling (see :func:`triad_label`).
    Counted bytes: the five array passes of the two NumPy calls.
    """
    n = TRIAD_ARRAY_BYTES // 8
    b = np.full(n, 1.5)
    c = np.full(n, 2.5)
    a = np.empty(n)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        times.append(time.perf_counter() - t0)
    # multiply+add reads c, writes a, reads a and b, writes a: 5 passes.
    return 5 * TRIAD_ARRAY_BYTES / float(np.median(times)) / 1e9


def triad_label() -> str:
    """Where the triad's working set sits against the host caches."""
    return (
        f"{TRIAD_ARRAY_BYTES >> 20} MB arrays: {TRIAD_ARRAY_BYTES / L2_BYTES:.0f}x L2, "
        f"{3 * TRIAD_ARRAY_BYTES / L3_BYTES:.2f}x L3"
    )


def scipy_spmv_ms(csr, x, min_seconds: float = 0.2):
    """Median ``scipy.sparse`` CSR SpMV, or ``None`` if scipy is absent."""
    try:
        import scipy.sparse as sp
    except ImportError:
        return None
    m = sp.csr_matrix((csr.values, csr.col_ind, csr.row_ptr), shape=csr.shape)
    return time_call(lambda: m @ x, min_seconds) * 1e3


def time_call(fn, min_seconds: float, min_reps: int = 5) -> float:
    """Median seconds of *fn* over at least *min_reps* calls."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def retained_mb(build) -> float:
    """MB that ``build()``'s return value keeps allocated (tracemalloc).

    *build* returns ``(keep, scratch)``: everything in *scratch* is
    dropped before the count, *keep* stays alive until after it.
    """
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep, scratch = build()
        del scratch
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    close = getattr(keep, "close", None)
    if close is not None:
        close()
    return (after - before) / 1e6


def transient_mb(call) -> float:
    """Peak MB allocated while ``call()`` runs, above what was live."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
        del out
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included (Linux ``/proc``)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the ")" closing the command name: state, ppid, ...
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            out.append(int(entry))
    return out


def stop_children(timeout: float = 10.0) -> list[int]:
    """Stop every process this one started and wait until each has ended.

    Pool workers are joined by the executors' ``close()``.  The first
    shared-memory segment starts multiprocessing's resource tracker,
    which would otherwise outlive the benchmark: it is stopped and
    reaped here.  Any other child still alive after *timeout* seconds is
    killed and reaped; its pid is returned so the run can count it.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    # Private API: the only way to close and waitpid() the tracker.
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
    stray = []
    for pid in child_pids():
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        while not done and time.monotonic() < deadline:
            time.sleep(0.05)
            done, _ = os.waitpid(pid, os.WNOHANG)
        if not done:
            stray.append(pid)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return stray


def git_commit(root: str) -> str:
    """HEAD's commit if *root* is a git checkout, else ``"unknown"``."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def emit(correct: bool, ledger: Ledger, metrics: dict) -> None:
    """Print the result line: the last line of standard output."""
    out = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(ledger.attempted),
                "failed": int(ledger.failed),
                "metrics": out,
            }
        ),
        flush=True,
    )
