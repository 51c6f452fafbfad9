"""Cross-process observability: one causal timeline from many workers.

:class:`~repro.parallel.process_executor.ProcessParallelSpMV` runs its
chunks in forked worker processes, and everything recorded inside a
worker -- spans, counters, obs histograms, cache hit/miss marks -- dies
with the worker's process-local module globals.  This module carries it
across the boundary in three pieces:

* :class:`TraceContext` -- the picklable enabling decision.  The parent
  snapshots *which* collection is on (telemetry? obs? what histogram
  bucketing?) plus identity (run id, parent span name, worker index)
  and ships it inside the worker's shard spec.  When both are off the
  context is ``None`` and the worker takes its plain fast path with
  zero observability calls (pinned by ``tests/telemetry/test_overhead``).
* :class:`WorkerTelemetry` -- the worker-side scope.  It installs a
  *fresh* process-local :class:`~repro.telemetry.core.Collector` and
  :class:`~repro.obs.core.ObsRuntime` (fork inherits the parent's
  module globals; recording into those would mutate a dead copy),
  restores them afterwards, and flushes everything as one JSON-safe
  payload in the worker's status dict: telemetry events + aggregate
  dicts, plus histogram/counter shards via ``to_shard()``.
* :func:`ingest_payload` -- the parent-side merge.  Worker event
  timestamps are rebased onto the parent collector's epoch (valid
  because ``time.perf_counter`` is CLOCK_MONOTONIC, shared across
  processes on Linux -- see DESIGN.md 4.7 for the caveat elsewhere),
  stamped with the worker ``pid`` (fork children inherit the parent
  main thread's ident, so ``tid`` alone cannot tell workers apart),
  and appended to the parent collector; histogram shards merge by
  bucket addition, counter shards by total.

After the merge, the parent's OpenMetrics exposition, SLO rules,
chrome trace and ``perf/imbalance.py`` see worker-side metrics exactly
as if the run had been single-process.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Any

from repro.obs import core as obs_core
from repro.obs.core import ObsRuntime
from repro.telemetry import core as telemetry
from repro.telemetry.core import Collector, Event

__all__ = [
    "TraceContext",
    "WorkerTelemetry",
    "current_context",
    "ingest_payload",
]


class TraceContext:
    """Picklable description of what a worker should collect.

    Built in the parent (:meth:`capture`), shipped as a plain dict
    inside the shard spec, rebuilt in the worker (:meth:`from_wire`).
    """

    __slots__ = (
        "run_id",
        "parent",
        "worker",
        "telemetry",
        "obs",
        "histogram_growth",
        "attrs",
    )

    def __init__(
        self,
        *,
        run_id: str,
        parent: str = "parallel.spmv",
        worker: int = 0,
        telemetry_on: bool = False,
        obs_on: bool = False,
        histogram_growth: float | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.run_id = run_id
        self.parent = parent
        self.worker = worker
        self.telemetry = telemetry_on
        self.obs = obs_on
        self.histogram_growth = histogram_growth
        self.attrs = dict(attrs) if attrs else {}

    @classmethod
    def capture(
        cls,
        *,
        run_id: str,
        parent: str = "parallel.spmv",
        worker: int = 0,
        **attrs,
    ) -> "TraceContext | None":
        """Snapshot the parent's enabling state, or ``None`` if all off.

        ``None`` is the zero-overhead signal: the worker sees no
        context key in its spec and makes no observability calls.
        """
        runtime = obs_core.get_runtime()
        telemetry_on = telemetry.enabled()
        if runtime is None and not telemetry_on:
            return None
        return cls(
            run_id=run_id,
            parent=parent,
            worker=worker,
            telemetry_on=telemetry_on,
            obs_on=runtime is not None,
            histogram_growth=(
                runtime.histogram_growth if runtime is not None else None
            ),
            attrs=attrs,
        )

    def to_wire(self) -> dict:
        return {
            "run_id": self.run_id,
            "parent": self.parent,
            "worker": self.worker,
            "telemetry": self.telemetry,
            "obs": self.obs,
            "histogram_growth": self.histogram_growth,
            "attrs": self.attrs,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "TraceContext":
        return cls(
            run_id=wire.get("run_id", ""),
            parent=wire.get("parent", "parallel.spmv"),
            worker=int(wire.get("worker", 0)),
            telemetry_on=bool(wire.get("telemetry")),
            obs_on=bool(wire.get("obs")),
            histogram_growth=wire.get("histogram_growth"),
            attrs=wire.get("attrs") or {},
        )


def current_context(
    *, run_id: str, parent: str = "parallel.spmv", worker: int = 0, **attrs
) -> dict | None:
    """Wire-format :meth:`TraceContext.capture`, ready for a spec dict."""
    ctx = TraceContext.capture(
        run_id=run_id, parent=parent, worker=worker, **attrs
    )
    return None if ctx is None else ctx.to_wire()


class WorkerTelemetry:
    """Worker-side collection scope for one chunk execution.

    ``begin()`` installs fresh process-local sinks per the context's
    flags, ``end()`` restores whatever the fork inherited, and
    ``payload()`` packages everything recorded in between.  The
    runtime is built with ``rules=()`` -- SLO evaluation is the
    parent's job; a worker only accumulates.
    """

    def __init__(self, ctx: TraceContext | dict) -> None:
        if isinstance(ctx, dict):
            ctx = TraceContext.from_wire(ctx)
        self.ctx = ctx
        self.collector: Collector | None = None
        self.runtime: ObsRuntime | None = None
        self._prev_collector: Collector | None = None
        self._prev_runtime: ObsRuntime | None = None
        self.began = False

    def begin(self) -> "WorkerTelemetry":
        if self.ctx.telemetry:
            self.collector = Collector()
            self._prev_collector = telemetry.set_collector(self.collector)
        if self.ctx.obs:
            growth = self.ctx.histogram_growth
            self.runtime = ObsRuntime(
                rules=(),
                **({"histogram_growth": growth} if growth else {}),
            )
            self._prev_runtime = obs_core.set_runtime(self.runtime)
        self.began = True
        return self

    def end(self) -> None:
        if not self.began:
            return
        if self.ctx.telemetry:
            telemetry.set_collector(self._prev_collector)
        if self.ctx.obs:
            obs_core.set_runtime(self._prev_runtime)

    def payload(self) -> dict:
        """Everything this scope recorded, as one JSON-safe dict."""
        out: dict[str, Any] = {
            "run_id": self.ctx.run_id,
            "worker": self.ctx.worker,
            "pid": os.getpid(),
        }
        if self.collector is not None:
            out["epoch_ns"] = self.collector.epoch_ns
            out["events"] = [asdict(ev) for ev in self.collector.snapshot()]
            out["counters"] = dict(self.collector.counters)
            out["gauges"] = dict(self.collector.gauges)
        if self.runtime is not None:
            out["shards"] = self.runtime.to_shards()
        return out

    def __enter__(self) -> "WorkerTelemetry":
        return self.begin()

    def __exit__(self, *exc) -> None:
        self.end()


def ingest_payload(
    payload: dict,
    *,
    collector: Collector | None = None,
    runtime: ObsRuntime | None = None,
) -> int:
    """Merge one worker payload into the parent's sinks.

    Event timestamps are rebased from the worker collector's epoch to
    the parent's (both are ``perf_counter_ns`` readings of the shared
    monotonic clock), and every ingested event is stamped with the
    worker's ``pid`` and ``worker`` index so downstream consumers
    (chrome tracks, timeline lanes, the dashboard workers table) can
    tell workers apart despite the fork-inherited thread ident.
    Returns the number of events ingested.
    """
    if collector is None:
        collector = telemetry.get_collector()
    if runtime is None:
        runtime = obs_core.get_runtime()
    ingested = 0
    if collector is not None and payload.get("events"):
        offset_us = (payload["epoch_ns"] - collector.epoch_ns) / 1e3
        pid = int(payload.get("pid", 0))
        worker = int(payload.get("worker", 0))
        events = []
        for raw in payload["events"]:
            attrs = dict(raw.get("attrs") or {})
            attrs.setdefault("pid", pid)
            attrs.setdefault("worker", worker)
            events.append(
                Event(
                    kind=raw["kind"],
                    name=raw["name"],
                    ts_us=float(raw["ts_us"]) + offset_us,
                    dur_us=float(raw["dur_us"]),
                    value=float(raw["value"]),
                    thread=raw["thread"],
                    tid=int(raw["tid"]),
                    depth=int(raw["depth"]),
                    attrs=attrs,
                )
            )
        ingested = collector.ingest(
            events,
            counters=payload.get("counters"),
            gauges=payload.get("gauges"),
        )
    if runtime is not None and "shards" in payload:
        runtime.merge_shards(payload["shards"])
    return ingested
