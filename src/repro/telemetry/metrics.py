"""Domain metrics: the event vocabulary of the SpMV reproduction.

Every instrumented subsystem funnels through one helper here, so the
set of event names below *is* the schema (the smoke checker in
``tools/smoke_trace.py`` validates traces against it).  Helpers take
plain scalars/sequences -- never format or partition objects -- so this
module imports nothing from the rest of the library and can be called
from any layer without cycles.

Event vocabulary
----------------

=============================  =======  ==============================================
name                           kind     meaning / labels
=============================  =======  ==============================================
``convert``                    span     format conversion; ``target``, ``nrows``,
                                        ``ncols``
``convert.cache.hit``          counter  conversion served from the encode cache;
                                        ``format``
``convert.cache.miss``         counter  conversion that had to encode; ``format``
``convert.cache.evict.bytes``  counter  bytes released by a byte-budget LRU
                                        eviction; ``format`` of the evicted
                                        entry
``encode.batched``             span     vectorized one-pass encode; ``kind``
                                        (csr-du/csr-vi), ``policy``, ``nnz``,
                                        ``nunits``, ``ctl_bytes``
``encode.csr_du.unitize``      span     CSR-DU delta/unit splitting; ``policy``
``encode.csr_du.units``        counter  units emitted; ``width`` in u8/u16/u32/u64
``encode.csr_du.seq_units``    counter  sequential (constant-stride) units
``encode.csr_du.new_rows``     counter  new-row markers (NR flags) emitted
``encode.csr_du.ctl_bytes``    counter  serialized ctl stream bytes
``encode.csr_vi.unique``       span     CSR-VI unique-value indexing
``encode.csr_vi.unique_vals``  gauge    unique-table size of the last encode
``encode.csr_vi.val_ind_bits`` gauge    val_ind width (bits) of the last encode
``encode.csr_vi.ttu``          gauge    total-to-unique ratio of the last encode
``plan.build``                 span     kernel-plan construction; ``format``,
                                        ``nnz``
``plan.hit``                   counter  plan lookups served from the cache;
                                        ``format``
``plan.miss``                  counter  plan lookups that had to build;
                                        ``format``
``partition.nnz``              counter  nonzeros assigned; ``thread``, ``lo``,
                                        ``hi`` (row/col-block bounds), ``kind``
``partition.imbalance``        gauge    max/mean nnz per thread of the last split
``parallel.spmv``              span     one multithreaded SpMV call; ``threads``
                                        (+ ``backend`` on the process path)
``parallel.chunk``             span     one thread's chunk of one call;
                                        ``thread``, ``lo``, ``hi``, ``nnz``,
                                        ``kind`` (row/column/block); process
                                        workers emit the span inside the
                                        worker (plus ``backend``, ``pid``,
                                        ``run_id``), merged into the parent
                                        stream by ``repro.obs.xproc``; the
                                        parent additionally emits a counter
                                        with the same payload plus ``backend``
                                        and worker-measured ``seconds``
``worker.attach``              span     shard-cache lookup + attach inside a
                                        shard worker (covers CRC verify and
                                        decode); ``index``, ``generation``
``worker.multiply``            span     the shard kernel proper inside a
                                        shard worker; ``index``
``storage.shard.write``        counter  one shard packed + stored; label
                                        ``format``; payload ``index``,
                                        ``bytes``, ``storage`` (mem/shm/mmap)
``storage.shard.attach``       counter  one shard attached (CRC-verified)
                                        into a process; label ``format``;
                                        payload ``index``, ``storage``
``storage.shard.cache.hit``    counter  worker shard-LRU lookup served from
                                        cache; label ``storage``; payload
                                        ``index``
``storage.shard.cache.miss``   counter  worker shard-LRU lookup that had to
                                        attach; label ``storage``; payload
                                        ``index``
``storage.stream``             span     one streamed out-of-core SpMV;
                                        ``shards``, ``resumed_from``
``storage.stream.checkpoint``  counter  one shard's progress checkpointed;
                                        label ``format``; payload ``shard``,
                                        ``rows_done``
``validate``                   span     one integrity verification
                                        (``matrix.verify()``); ``format``,
                                        ``nnz``
``kernel.fallback``            counter  guarded kernel degraded one tier;
                                        label ``format``; payload
                                        ``from_tier``, ``to_tier``, ``error``
``executor.retry``             counter  chunk re-encoded (cache invalidated)
                                        and retried after a decode failure;
                                        label ``format``; payload ``thread``,
                                        ``lo``, ``hi``, ``error``
``executor.chunk.abandoned``   counter  chunk wait timed out and the result
                                        was discarded (thread backends cannot
                                        cancel the worker); labels ``kind``,
                                        ``backend``; payload ``thread``,
                                        ``lo``, ``hi``, ``timeout_s``.
                                        Imbalance recovery excludes spans
                                        matching these marks
``resilience.breaker.open``    counter  circuit breaker tripped closed/half-
                                        open -> open; label ``key`` (e.g.
                                        ``shard:1:g0``, ``backend:process:
                                        mem``); payload ``failures``
``resilience.breaker.half_open``  counter  cooldown expired; one probe call
                                        admitted; label ``key``
``resilience.breaker.close``   counter  half-open probe succeeded, breaker
                                        closed; label ``key``
``resilience.degrade``         counter  degradation-ladder transition; label
                                        ``format``; payload ``from_backend``,
                                        ``from_storage``, ``to_backend``,
                                        ``to_storage``, ``error``.  The obs
                                        counter ``resilience.degrade.total``
                                        mirrors it for the SLO rule engine
``resilience.deadline.expired``  counter  a wall-clock deadline ran out;
                                        label ``label`` (the checkpoint name,
                                        e.g. ``parallel.call``,
                                        ``stream.shard``); payload
                                        ``budget_s``
``perf.attribution``           counter  one attribution record per bench cell;
                                        labels ``format``, ``threads``,
                                        ``placement``; numeric payload
                                        (bytes_per_iter, effective_gbps,
                                        roofline_pct, imbalances, ...) plus the
                                        host fingerprint (``host_cpus``,
                                        ``host_platform``,
                                        ``host_calibration``) in attrs
``advisor.pick``               counter  one advisor decision; label ``format``;
                                        payload ``matrix_id``, ``kernel``,
                                        ``threads``, ``backend``,
                                        ``partition``, ``predicted_s``,
                                        ``realized_s`` (0 until the pick has
                                        run), ``source`` (analytic/calibrated/
                                        history), ``phase`` (advise/realized)
``sim.spmv``                   span     machine-model prediction; ``format``,
                                        ``threads``, ``placement``
``sim.bound``                  counter  binding constraint tally; ``bound``
``sim.dram_bytes``             counter  simulated DRAM bytes read per iteration
``sim.resident_fraction``      gauge    cache-resident working-set fraction
``bench.matrix``               span     all formats of one matrix; ``matrix_id``
``bench.cell``                 span     one (matrix, format) cell; ``matrix_id``,
                                        ``format``
``bench.measure``              span     real-clock measurement of one cell
``obs.alert``                  counter  one fired SLO rule from the live
                                        observability engine; label ``rule``;
                                        payload ``expr``, ``metric``, ``value``,
                                        ``threshold``
``obs.snapshot``               counter  one periodic/final observability
                                        snapshot flush; payload ``histograms``,
                                        ``counters``, ``gauges``, ``alerts``
                                        (series counts, not the full state)
``obs.resource.rss_bytes``     gauge    resident set size sampled by the
                                        resource monitor (``rss_is_peak``
                                        label on getrusage fallback)
``obs.resource.gc_collections``  gauge  total GC collections so far
``obs.resource.threads``       gauge    live Python thread count
=============================  =======  ==============================================
"""

from __future__ import annotations

from typing import Sequence

from repro.telemetry import core

#: Width-class label per CSR-DU delta class (index = class 0..3).
WIDTH_LABELS = ("u8", "u16", "u32", "u64")

#: Every event name a conforming trace may contain.
KNOWN_EVENTS = frozenset(
    {
        "convert",
        "convert.cache.hit",
        "convert.cache.miss",
        "convert.cache.evict.bytes",
        "encode.batched",
        "encode.csr_du.unitize",
        "encode.csr_du.units",
        "encode.csr_du.seq_units",
        "encode.csr_du.new_rows",
        "encode.csr_du.ctl_bytes",
        "encode.csr_vi.unique",
        "encode.csr_vi.unique_vals",
        "encode.csr_vi.val_ind_bits",
        "encode.csr_vi.ttu",
        "plan.build",
        "plan.hit",
        "plan.miss",
        "partition.nnz",
        "partition.imbalance",
        "parallel.spmv",
        "parallel.chunk",
        "worker.attach",
        "worker.multiply",
        "storage.shard.write",
        "storage.shard.attach",
        "storage.shard.cache.hit",
        "storage.shard.cache.miss",
        "storage.stream",
        "storage.stream.checkpoint",
        "validate",
        "kernel.fallback",
        "executor.retry",
        "executor.chunk.abandoned",
        "resilience.breaker.open",
        "resilience.breaker.half_open",
        "resilience.breaker.close",
        "resilience.degrade",
        "resilience.deadline.expired",
        "perf.attribution",
        "advisor.pick",
        "sim.spmv",
        "sim.bound",
        "sim.dram_bytes",
        "sim.resident_fraction",
        "bench.matrix",
        "bench.cell",
        "bench.measure",
        "obs.alert",
        "obs.snapshot",
        "obs.resource.rss_bytes",
        "obs.resource.gc_collections",
        "obs.resource.threads",
    }
)


def record_ctl_stream(
    class_counts: Sequence[int],
    *,
    new_rows: int,
    seq_units: int,
    ctl_bytes: int,
) -> None:
    """CSR-DU serialization census (one call per finished ctl stream).

    ``class_counts`` is the per-width-class unit tally the
    :class:`~repro.compress.ctl.CtlWriter` keeps -- together these are
    the paper's Table I statistics, now observable per encode.
    """
    c = core.get_collector()
    if c is None:
        return
    for cls, n in enumerate(class_counts):
        if n:
            c.count("encode.csr_du.units", n, width=WIDTH_LABELS[cls])
    if seq_units:
        c.count("encode.csr_du.seq_units", seq_units)
    c.count("encode.csr_du.new_rows", new_rows)
    c.count("encode.csr_du.ctl_bytes", ctl_bytes)


def record_unique_values(
    *, unique_count: int, val_ind_bits: int, ttu: float, nnz: int
) -> None:
    """CSR-VI value-compression outcome (one call per encode)."""
    c = core.get_collector()
    if c is None:
        return
    c.gauge("encode.csr_vi.unique_vals", unique_count, nnz=nnz)
    c.gauge("encode.csr_vi.val_ind_bits", val_ind_bits)
    c.gauge("encode.csr_vi.ttu", ttu)


def record_partition(
    boundaries: Sequence[int],
    nnz_per_thread: Sequence[int],
    *,
    kind: str = "row",
) -> None:
    """Per-thread nnz balance and block bounds of one partitioning.

    Emits one ``partition.nnz`` counter event per thread (the event's
    ``lo``/``hi`` attributes carry the thread's row/column-block
    bounds) plus the split's imbalance gauge.
    """
    c = core.get_collector()
    if c is None:
        return
    total = 0.0
    peak = 0.0
    n = len(nnz_per_thread)
    for t in range(n):
        nnz = float(nnz_per_thread[t])
        c.count(
            "partition.nnz",
            nnz,
            extra={"lo": int(boundaries[t]), "hi": int(boundaries[t + 1])},
            thread=t,
            kind=kind,
        )
        total += nnz
        peak = max(peak, nnz)
    mean = total / n if n else 0.0
    c.gauge("partition.imbalance", peak / mean if mean else 1.0, kind=kind)


def record_attribution(
    *,
    matrix_id: int,
    format_name: str,
    threads: int,
    placement: str,
    time_s: float,
    mflops: float,
    bytes_per_iter: int,
    index_bytes: int,
    value_bytes: int,
    vector_bytes: int,
    flops_per_byte: float,
    effective_gbps: float,
    dram_bytes: float,
    attainable_mflops: float,
    roofline_pct: float,
    bound: str,
    nnz_imbalance: float,
    time_imbalance: float,
    compression_ratio: float,
    speedup_vs_csr: float,
    plan_hits: int,
    plan_misses: int,
    setup_s: float = 0.0,
    host_cpus: int = 0,
    host_platform: str = "",
    host_calibration: str = "",
) -> None:
    """One performance-attribution record for a measured bench cell.

    Labels (``format``, ``threads``, ``placement``) key the aggregate
    counter (cells attributed per configuration); the numeric payload
    rides on the event so trace consumers -- the HTML dashboard, the
    smoke checker -- can rebuild the full record from the stream.
    """
    c = core.get_collector()
    if c is None:
        return
    c.count(
        "perf.attribution",
        1,
        extra={
            "matrix_id": int(matrix_id),
            "time_s": float(time_s),
            "mflops": float(mflops),
            "bytes_per_iter": int(bytes_per_iter),
            "index_bytes": int(index_bytes),
            "value_bytes": int(value_bytes),
            "vector_bytes": int(vector_bytes),
            "flops_per_byte": float(flops_per_byte),
            "effective_gbps": float(effective_gbps),
            "dram_bytes": float(dram_bytes),
            "attainable_mflops": float(attainable_mflops),
            "roofline_pct": float(roofline_pct),
            "bound": str(bound),
            "nnz_imbalance": float(nnz_imbalance),
            "time_imbalance": float(time_imbalance),
            "compression_ratio": float(compression_ratio),
            "speedup_vs_csr": float(speedup_vs_csr),
            "plan_hits": int(plan_hits),
            "plan_misses": int(plan_misses),
            "setup_s": float(setup_s),
            # Host fingerprint: wall-clock cells from a 1-CPU container
            # and an 8-core workstation must be distinguishable in the
            # trace itself, not by out-of-band prose.
            "host_cpus": int(host_cpus),
            "host_platform": str(host_platform),
            "host_calibration": str(host_calibration),
        },
        format=format_name,
        threads=threads,
        placement=placement,
    )


def record_advisor_pick(
    *,
    matrix_id: int,
    format_name: str,
    kernel: str,
    threads: int,
    backend: str,
    partition: str,
    predicted_s: float,
    realized_s: float,
    source: str,
    phase: str,
) -> None:
    """One advisor decision (or its realized-seconds follow-up).

    ``phase="advise"`` events carry the prediction (``realized_s`` 0);
    a caller that runs the pick reports back with ``phase="realized"``
    and the measured seconds, letting trace consumers compute the
    advisor's prediction error per matrix.
    """
    c = core.get_collector()
    if c is None:
        return
    c.count(
        "advisor.pick",
        1,
        extra={
            "matrix_id": int(matrix_id),
            "kernel": str(kernel),
            "threads": int(threads),
            "backend": str(backend),
            "partition": str(partition),
            "predicted_s": float(predicted_s),
            "realized_s": float(realized_s),
            "source": str(source),
            "phase": str(phase),
        },
        format=format_name,
    )


def record_sim_result(
    *,
    format_name: str,
    threads: int,
    placement: str,
    bound: str,
    dram_bytes: float,
    resident_fraction: float,
) -> None:
    """Machine-model verdict for one simulated configuration."""
    c = core.get_collector()
    if c is None:
        return
    c.count("sim.bound", 1, bound=bound)
    c.count(
        "sim.dram_bytes",
        dram_bytes,
        format=format_name,
        threads=threads,
        placement=placement,
    )
    c.gauge("sim.resident_fraction", resident_fraction, format=format_name)
