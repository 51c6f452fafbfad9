"""Benchmark-side spans around each layer's public entry points.

Nothing here edits program code.  :func:`install` swaps a few module and
class attributes of ``repro`` for thin wrappers that record a span and
call the original; :func:`uninstall` puts the originals back.  Spans are
kept in memory (one tuple each) and reduced to layer self times by
:func:`attribute` when a traced round ends.

A span is ``(sid, parent, call, name, layer, depth, t0_ns, t1_ns)``.
Pool threads have no open span of their own when a chunk starts, so
their first span takes the main thread's innermost open span as parent:
only the main thread drives executor calls in this benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict

#: Layers of the ledger, named after the repository's modules.
LAYERS = (
    "solvers",
    "resilience",
    "parallel",
    "ipc",
    "storage",
    "compress",
    "kernels",
    "bench",
)


class Recorder:
    """In-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, int, int]] = []
        self._main = threading.main_thread()
        #: ``(cell, kind, op number)`` of the op in progress.
        self.call = None

    def new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[tuple[int, int, int]]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str):
        stack = self._stack()
        if stack:
            parent, depth = stack[-1][0], stack[-1][1] + 1
        elif self._main_stack and threading.current_thread() is not self._main:
            parent, depth = self._main_stack[-1][0], self._main_stack[-1][1] + 1
        else:
            parent, depth = 0, 0
        sid = self.new_id()
        token = (sid, depth, parent, name, layer, time.perf_counter_ns())
        stack.append(token[:3])
        return token

    def end(self, token) -> None:
        t1 = time.perf_counter_ns()
        sid, depth, parent, name, layer, t0 = token
        stack = self._stack()
        if stack and stack[-1][0] == sid:
            stack.pop()
        self.spans.append((sid, parent, self.call, name, layer, depth, t0, t1))

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        token = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(token)

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _wrap(rec: Recorder, fn, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = rec.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(token)

    return wrapper


def _targets():
    """(owner, attribute, span name, layer) for every wrapped entry point."""
    from repro import parallel
    from repro.compress import unit_table
    from repro.formats import conversions
    from repro.formats.csr import CSRMatrix
    from repro.formats.csr_du import CSRDUMatrix
    from repro.formats.csr_vi import CSRVIMatrix
    from repro.kernels import plan
    from repro.parallel import backends, executor, process_executor
    from repro.resilience import degrade
    from repro.storage import shard

    return [
        (parallel, "make_executor", "parallel.make_executor", "parallel"),
        (backends, "make_executor", "parallel.make_executor", "parallel"),
        (executor.ParallelSpMV, "__call__", "parallel.call", "parallel"),
        (process_executor.ProcessParallelSpMV, "__call__", "ipc.call", "ipc"),
        (degrade.ResilientExecutor, "__call__", "resilience.call", "resilience"),
        (degrade.SerialSpMV, "__call__", "resilience.serial", "resilience"),
        (conversions, "convert", "compress.convert", "compress"),
        (plan, "get_plan", "kernels.plan", "kernels"),
        (executor, "get_plan", "kernels.plan", "kernels"),
        (CSRMatrix, "spmv", "kernels.spmv", "kernels"),
        (CSRDUMatrix, "spmv", "kernels.spmv", "kernels"),
        (CSRVIMatrix, "spmv", "kernels.spmv", "kernels"),
        (unit_table.BatchedColumnDecoder, "columns", "kernels.decode", "kernels"),
        (shard.ShardStore, "build", "storage.build", "storage"),
    ]


def install(rec: Recorder):
    """Wrap every target; returns the list needed by :func:`uninstall`."""
    saved = []
    for owner, attr, name, layer in _targets():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(rec, raw.__func__, name, layer))
        else:
            wrapped = _wrap(rec, raw, name, layer)
        setattr(owner, attr, wrapped)
        saved.append((owner, attr, raw))
    return saved


def uninstall(saved) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


#: Worker-side telemetry spans of the process backend: (name, layer).
WORKER_SPANS = {
    "parallel.chunk": ("worker.chunk", "ipc"),
    "worker.attach": ("worker.attach", "storage"),
    "worker.multiply": ("worker.multiply", "kernels"),
}


def attribute(spans) -> dict[str, float]:
    """Seconds per layer: each instant goes to the deepest open span.

    With no concurrency this is each span's duration minus the part its
    children cover (its self time).  Where pool threads overlap, an
    instant in which any chunk runs belongs to the chunk's layer, so
    the layer times add up to the wall time the spans cover.
    """
    events = []
    for _sid, _parent, _call, _name, layer, depth, t0, t1 in spans:
        if t1 > t0:
            events.append((t0, 1, depth, layer))
            events.append((t1, -1, depth, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    active: dict[tuple[int, str], int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    prev = None
    for t, step, depth, layer in events:
        if prev is not None and active and t > prev:
            totals[max(active)[1]] += (t - prev) / 1e9
        key = (depth, layer)
        active[key] += step
        if active[key] == 0:
            del active[key]
        prev = t
    return dict(totals)


def union_ns(intervals) -> int:
    """Length of the union of ``(t0, t1)`` intervals."""
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def children_of(spans) -> dict[int, list[tuple]]:
    kids: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        kids[s[1]].append(s)
    return kids


def self_ns(span, kids) -> int:
    """A span's duration minus the union of its direct children."""
    t0, t1 = span[6], span[7]
    inner = [(max(t0, c[6]), min(t1, c[7])) for c in kids.get(span[0], ()) if c[7] > t0 and c[6] < t1]
    return (t1 - t0) - union_ns(inner)


class Tracer:
    """Tracing on: wrappers, the repro telemetry/obs collectors, and the
    per-round reduction of spans into the layer ledger."""

    on = True

    def __init__(self) -> None:
        self.rec = Recorder()
        self.layer_s: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.call_s = defaultdict(list)  # fmt -> executor call seconds
        self.exec_self = []  # executor call minus its kernel time, s
        self.imbalance = []  # max / mean chunk kernel time per call
        self.resilience_self = []
        self.vector = defaultdict(list)  # fmt -> (vector s, solve s)
        self.build_ms = []
        self.attach_ms = []
        self.ipc_self_ms = []
        self.retries = 0.0
        self.spans: list[tuple] = []
        self._ops = 0
        self._saved = None

    def span(self, name: str, layer: str):
        return self.rec.span(name, layer)

    def op(self, cell: str, kind: str) -> None:
        self._ops += 1
        self.rec.call = (cell, kind, self._ops)

    def begin_round(self) -> None:
        from repro.obs import core as obs
        from repro.obs.core import ObsRuntime
        from repro.telemetry import core as telemetry
        from repro.telemetry.core import Collector

        self.collector = Collector()
        self._prev = (telemetry.set_collector(self.collector), obs.set_runtime(ObsRuntime()))
        self._saved = install(self.rec)

    def end_round(self, wall_s: float) -> None:
        from repro.obs import core as obs
        from repro.telemetry import core as telemetry

        uninstall(self._saved)
        telemetry.set_collector(self._prev[0])
        runtime = obs.set_runtime(self._prev[1])
        if runtime is not None:
            runtime.close()
        self.wall_s += wall_s
        for key, value in self.collector.counters.items():
            if key.startswith("executor.retry"):
                self.retries += value
        spans = self.rec.take()
        spans += self._worker_spans(spans)
        self.collector.clear()
        self.spans.extend(spans)
        for layer, seconds in attribute(spans).items():
            self.layer_s[layer] += seconds
        self._derive(spans)

    def write(self, path: str) -> None:
        """Every span of the traced rounds, one JSON object a line."""
        import json

        keys = ("id", "parent", "call", "name", "layer", "depth", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def _worker_spans(self, spans) -> list[tuple]:
        """Process-backend worker spans, parented to the call that ran them."""
        import bisect
        import os

        calls = sorted((s[6], s[7], s) for s in spans if s[3] == "ipc.call")
        if not calls:
            return []
        starts = [c[0] for c in calls]
        epoch = self.collector.epoch_ns
        me = os.getpid()
        out = []
        for ev in self.collector.snapshot():
            renamed = WORKER_SPANS.get(ev.name)
            if ev.kind != "span" or renamed is None or ev.attrs.get("pid", me) == me:
                continue
            t0 = epoch + int(ev.ts_us * 1e3)
            i = bisect.bisect_right(starts, t0) - 1
            if i < 0:
                continue
            call = calls[i][2]
            t1 = min(t0 + int(ev.dur_us * 1e3), call[7])
            out.append((self.rec.new_id(), call[0], call[2], *renamed, call[5] + 1 + ev.depth, t0, t1))
        return out

    def _derive(self, spans) -> None:
        kids = children_of(spans)
        for s in spans:
            name, call, dur = s[3], s[2], s[7] - s[6]
            cell, kind = call[:2] if call else ("", "")
            if name in ("parallel.call", "ipc.call") and kind == "op" and cell != "degrade":
                self.call_s[cell].append(dur / 1e9)
                chunks = [c for c in kids.get(s[0], ()) if c[3] in ("kernels.spmv", "worker.multiply")]
                if chunks:
                    self.exec_self.append((dur - union_ns([(c[6], c[7]) for c in chunks])) / 1e9)
                    times = [c[7] - c[6] for c in chunks]
                    if len(times) > 1:
                        self.imbalance.append(max(times) / (sum(times) / len(times)))
                    if name == "ipc.call":
                        self.ipc_self_ms.append((dur - max(times)) / 1e6)
            elif name == "resilience.call" and kind == "op":
                self.resilience_self.append(self_ns(s, kids) / 1e9)
            elif name == "solvers.cg" and cell != "degrade":
                self.vector[cell].append((self_ns(s, kids) / 1e9, dur / 1e9))
            elif name == "storage.build":
                self.build_ms.append(dur / 1e6)
            elif name == "worker.attach" and kind == "setup":
                self.attach_ms.append(dur / 1e6)
