"""Layer-ledger benchmark: CG solve, per-call floor and one-shot build.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cg-stencil3d --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the gated end-to-end metrics; ``--trace 1`` runs
traced and untraced rounds alternately and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
from time import perf_counter as now

import numpy as np

from common import (
    CELLS,
    FORMATS,
    Ledger,
    emit,
    git_commit,
    retained_mb,
    scipy_spmv_ms,
    stop_children,
    triad_gbs,
    triad_label,
)
from probes import layer_probes
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, NullTracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Layer coverage must be within this share of the traced wall time.
COVERAGE_TOLERANCE = 0.10
#: Untimed tracemalloc passes behind each ``resident_mb`` figure.
RESIDENT_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer) -> None:
    """Round-robin every cell over the window; rotate the order each round.

    With a tracer, odd rounds are traced and even rounds are not, so the
    tracing overhead is measured under the same drift.
    """
    deadline = now() + seconds
    rnd = 0
    while rnd < 2 or now() < deadline:
        run_round(workload, rnd, tracer if rnd % 2 == 1 else None)
        rnd += 1


def run_round(workload, rnd: int, tracer) -> None:
    """Every cell once, starting at cell ``rnd``; traced if *tracer* is given."""
    gc.collect()
    workload.prep_round()
    cells = workload.cells()
    shift = rnd % len(cells)
    cells = cells[shift:] + cells[:shift]
    if tracer is not None:
        workload.tracer = tracer
        tracer.begin_round()
    wall = 0.0
    try:
        for _name, run_cell in cells:
            t0 = now()
            run_cell()
            wall += now() - t0
    finally:
        if tracer is not None:
            tracer.end_round(wall)
            workload.tracer = NullTracer()


def resident_passes(workload) -> dict:
    """Median MB each format's executor retains, over three untimed passes.

    Warm-up rounds run before, so one-off allocations of a first build
    (lazy imports, module caches) are not counted.
    """
    passes = []
    for i in range(RESIDENT_PASSES):
        matrix, x = workload.resident_inputs(i)

        def build(fmt):
            ex = workload.build(matrix, fmt)
            return ex, ex(x)

        passes.append({fmt: retained_mb(lambda: build(fmt)) for fmt in FORMATS})
    return {fmt: statistics.median(p[fmt] for p in passes) for fmt in FORMATS}


def end_to_end(workload, resident) -> dict:
    m = {"setup_s": (workload.setup.median(), "s")}
    for cell in CELLS:
        m[f"op_ms.{cell}"] = (workload.ops[False][cell].median() * 1e3, "ms")
    for fmt in FORMATS:
        m[f"resident_mb.{fmt}"] = (resident[fmt], "MB")
    return m


def per_layer(workload, tracer, host, probes) -> dict:
    def med(values, scale=1.0):
        return float(np.median(values)) * scale if values else float("nan")

    m = dict(host)
    m.update(probes)
    m["parallel.self_us"] = (med(tracer.exec_self, 1e6), "us")
    m["parallel.imbalance"] = (med(tracer.imbalance), "ratio")
    m["parallel.first_call_ms"] = (workload.first_call.median() * 1e3, "ms")
    for fmt in FORMATS:
        # A solve times many calls at once; there the traced call spans
        # give the executor's call time.
        calls = workload.calls[fmt]
        call_s = calls.median() if len(calls) else med(tracer.call_s[fmt])
        m[f"parallel.speedup.{fmt}"] = (probes[f"kernels.spmv_ms.{fmt}"][0] / (call_s * 1e3), "ratio")
    m["resilience.self_us"] = (med(tracer.resilience_self, 1e6), "us")
    m["resilience.retries"] = (tracer.retries, "count")
    m["resilience.degrades"] = (workload.degraded, "count")
    written = workload.written_mb
    m["storage.written_mb"] = (written.median() if len(written) else 0.0, "MB")
    for fmt in FORMATS:
        m[f"solvers.iterations.{fmt}"] = (workload.iterations.get(fmt, 0), "count")
        pairs = tracer.vector.get(fmt, [])
        frac = sum(v for v, _ in pairs) / sum(s for _, s in pairs) if pairs else 0.0
        m[f"solvers.vector_frac.{fmt}"] = (frac, "frac")
    for layer in LAYERS:
        m[f"ledger.{layer}"] = (tracer.layer_s.get(layer, 0.0) / tracer.wall_s, "frac")
    m["trace.coverage"] = (sum(tracer.layer_s.values()) / tracer.wall_s, "frac")
    untraced = sum(workload.ops[False][c].median() for c in CELLS)
    traced = sum(workload.ops[True][c].median() for c in CELLS)
    m["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    m["failed_frac"] = (workload.ledger.failed_frac, "frac")
    return m


def report(workload, metrics: dict, extra: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    counts = {f"op_ms.{c}": len(workload.ops[False][c]) for c in CELLS}
    counts["setup_s"] = len(workload.setup)
    p90 = {f"op_ms.{c}": workload.ops[False][c].p90() * 1e3 for c in CELLS}
    p90["setup_s"] = workload.setup.p90()
    for name, (value, unit) in metrics.items():
        tail = ""
        if name in counts:
            tail = f"  n={counts[name]}  p90={p90[name]:.6g}"
        print(f"  {name:32s} {value:14.6g} {unit}{tail}")
    for name, value in extra.items():
        print(f"  {name}: {value}")


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so the clean-up in ``main`` runs.

    Forked pool workers inherit the handler; they exit at once instead.
    """
    main_pid = os.getpid()

    def handler(signum, frame):
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv=None) -> int:
    args = parse_args(argv)
    exit_on_sigterm()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from repro.util.hostinfo import host_fingerprint

    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, ledger)
    try:
        triad = triad_gbs()
        workload.prepare()
        for rnd in range(workload.WARMUP_ROUNDS):
            run_round(workload, rnd, None)
        resident = None if args.trace else resident_passes(workload)
        workload.discard_samples()
        tracer = Tracer() if args.trace else None
        measure(workload, args.seconds, tracer)
        extra = {
            "workload": workload.name,
            "seed": args.seed,
            "git_commit": git_commit(ROOT),
            "host": json.dumps(host_fingerprint(), sort_keys=True),
            "host.triad_gbs": f"{triad:.4g} GB/s ({triad_label()})",
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failed_frac": ledger.failed_frac,
            **workload.detail(),
        }
        correct = ledger.failed == 0
        if args.trace:
            host = {"host.triad_gbs": (triad, "GB/s")}
            scipy_ms = scipy_spmv_ms(workload.probe_matrix, workload.probe_x)
            if scipy_ms is not None:
                host["host.scipy_spmv_ms"] = (scipy_ms, "ms")
            probes = layer_probes(workload.probe_matrix, workload.probe_x, triad)
            metrics = per_layer(workload, tracer, host, probes)
            coverage = metrics["trace.coverage"][0]
            covered = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
            extra["trace.coverage_check"] = "ok" if covered else f"FAILED: {coverage:.4f} not within {COVERAGE_TOLERANCE}"
            correct = correct and covered
            extra.update(workload_detail(workload, tracer))
            out_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{workload.name}-{args.seed}.jsonl")
            tracer.write(spans_path)
            extra["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            metrics = end_to_end(workload, resident)
        # Every process is stopped before the result is printed, so a
        # worker that outlives its executor's close() fails the run.
        workload.close_all()
        stray = stop_children()
        if stray:
            ledger.fail(f"{workload.name}: child processes {stray} outlived close() and were killed")
            correct = False
        if ledger.reasons:
            extra["failures"] = ledger.reasons
        report(workload, metrics, extra)
        emit(correct, ledger, metrics)
        return 0
    finally:
        workload.close_all()
        stop_children()


def workload_detail(workload, tracer) -> dict:
    """Layer figures that only one workload reaches (printed, not gated)."""
    out = {}
    if tracer.build_ms:
        out["storage.build_ms"] = f"{np.median(tracer.build_ms):.6g} ms"
    if tracer.attach_ms:
        out["storage.attach_ms"] = f"{np.median(tracer.attach_ms):.6g} ms"
    if tracer.ipc_self_ms:
        out["ipc.self_ms"] = f"{np.median(tracer.ipc_self_ms):.6g} ms"
        out["ipc.first_call_ms"] = f"{workload.first_call.median() * 1e3:.6g} ms"
    for fmt, pairs in tracer.vector.items():
        out[f"solvers.vector_s.{fmt}"] = f"{np.median([v for v, _ in pairs]):.6g} s"
    return out


if __name__ == "__main__":
    sys.exit(main())
