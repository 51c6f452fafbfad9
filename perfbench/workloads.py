"""The three workloads.

Each workload builds its inputs from the seed (untimed), then exposes a
list of *cells*.  The run loop in ``run.py`` calls every cell once per
round, in an order that rotates from round to round, for the whole
measuring window, so the host's drift lands on every cell alike.  Every
``y`` a cell produces is checked against the serial oracle of its format
and every outcome is counted in the ledger.

Cells ``csr``, ``csr-du``, ``csr-vi`` and ``degrade`` time the workload's
unit operation: a CG solve, one SpMV call, or one executor's whole life
from build to close.  Set-up times cold builds: a fresh ``ConvertCache``
per executor, from the CSR matrix in hand to the first ``y``.
"""

from __future__ import annotations

from time import perf_counter as now

import numpy as np

from common import CELLS, FORMATS, WORKERS, Ledger, Samples, check_reference_agreement, format_of, serial_reference


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    on = False

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _NULL = _Null()

    def span(self, name: str, layer: str):
        return self._NULL

    def op(self, cell: str, kind: str) -> None:
        pass


class Workload:
    """Shared bookkeeping: samples per cell, setup samples, first calls."""

    name = ""
    #: Extra ``make_executor`` keywords (backend, storage).
    executor_kwargs: dict = {}
    #: Rounds run before the window whose samples are dropped: the first
    #: builds of a process pay for page faults and heap growth.
    WARMUP_ROUNDS = 1

    def __init__(self, seed: int, ledger: Ledger):
        self.seed = seed
        self.ledger = ledger
        self.tracer = NullTracer()
        self.discard_samples()
        self.iterations: dict[str, int] = {}
        self.degraded = 0

    def discard_samples(self) -> None:
        """Forget every timing so far (after warm-up rounds)."""
        self.setup = Samples()
        self.ops = {False: {c: Samples() for c in CELLS}, True: {c: Samples() for c in CELLS}}
        self.first_call = Samples()
        self.written_mb = Samples()
        #: Seconds of single executor calls in untraced rounds, per cell.
        self.calls = {c: Samples() for c in CELLS}

    def prep_round(self) -> None:
        """Untimed work before a round's cells."""

    def close_all(self) -> None:
        executors = getattr(self, "executors", {})
        while executors:
            executors.popitem()[1].close()

    def detail(self) -> dict:
        """Extra report lines of this workload (not metrics)."""
        return {}

    def resident_inputs(self, i: int):
        """Matrix and ``x`` of resident pass *i*."""
        return self.probe_matrix, self.probe_x

    # -- helpers -----------------------------------------------------------
    def build(self, matrix, cell: str):
        """A cold executor for *cell* through the public factory."""
        from repro import parallel
        from repro.compress.encode_cache import ConvertCache

        return parallel.make_executor(
            matrix,
            WORKERS,
            format_name=format_of(cell),
            convert_cache=ConvertCache(),
            degrade=cell == "degrade",
            **self.executor_kwargs,
        )

    def close(self, executor) -> None:
        with self.tracer.span("parallel.close", "parallel"):
            executor.close()

    def verify(self, y, ref, what: str) -> bool:
        with self.tracer.span("bench.verify", "bench"):
            good = y is not None and np.array_equal(y, ref)
        return self.ledger.check(good, f"{self.name}: {what} differs from the serial oracle")

    def note_store(self, executor) -> None:
        store = getattr(executor, "store", None)
        if store is not None:
            self.written_mb.add(store.stored_bytes / 1e6)

    def note_rung(self, executor) -> None:
        """Count an op that ended below the top rung of its ladder."""
        ladder = getattr(executor, "ladder", None)
        if ladder is not None and executor.active_rung != ladder[0]:
            self.degraded += 1

    def warm_executors(self, x, refs) -> dict:
        """The long-lived executor of each cell, pools started, first y checked."""
        executors = {}
        for cell in CELLS:
            executors[cell] = ex = self.build(self.matrix, cell)
            self.verify(ex(x), refs[format_of(cell)], f"{cell} warm-up y")
        return executors

    def cold_setup(self, matrix, x, refs) -> float:
        """Build each cell's executor cold and make two verified calls.

        Returns the summed seconds from build start to the first ``y``;
        the second call's time is the steady reference for the
        first-call penalty.
        """
        total = 0.0
        for cell in CELLS:
            fmt = format_of(cell)
            self.tracer.op(cell, "setup")
            ex = None
            try:
                t0 = now()
                ex = self.build(matrix, cell)
                t1 = now()
                y = ex(x)
                t2 = now()
                y2 = ex(x)
                t3 = now()
            except Exception as exc:  # counted, never silent
                self.ledger.fail(f"{self.name}: {cell} setup raised {type(exc).__name__}: {exc}")
                if ex is not None:
                    ex.close()
                continue
            total += t2 - t0
            if cell != "degrade":
                self.first_call.add((t2 - t1) - (t3 - t2))
            self.verify(y, refs[fmt], f"{cell} first y")
            self.verify(y2, refs[fmt], f"{cell} second y")
            self.note_rung(ex)
            self.close(ex)
        return total


class CGStencil3D(Workload):
    """CG to 1e-8 on a 48^3 7-point Laplacian through each executor."""

    name = "cg-stencil3d"
    N = 48
    #: prepare() already solved serially and warmed every executor.
    WARMUP_ROUNDS = 0
    TOL = 1e-8

    def prepare(self) -> None:
        from repro.formats.conversions import to_csr
        from repro.matrices.generators import stencil_3d
        from repro.matrices.values import set_matrix_values

        a = to_csr(stencil_3d(self.N, self.N, self.N))
        diag = a.row_of_entry() == a.col_ind
        self.matrix = set_matrix_values(a, np.where(diag, 6.0, -1.0))
        rng = np.random.default_rng(self.seed)
        self.b = rng.random(self.matrix.nrows)
        self.x0 = rng.random(self.matrix.ncols)
        self.y_ref, self.x_ref = {}, {}
        for fmt in FORMATS:
            ref = serial_reference(self.matrix, fmt)
            self.y_ref[fmt] = ref.spmv(self.x0)
            res = self.solve(ref.spmv)
            self.ledger.check(res.converged, f"{self.name}: serial {fmt} CG did not converge")
            self.x_ref[fmt] = res.x
            self.iterations[fmt] = res.iterations
        check_reference_agreement(self.y_ref, self.ledger, f"{self.name} y")
        base = self.x_ref["csr"]
        for fmt, x in self.x_ref.items():
            self.ledger.check(
                bool(np.allclose(x, base, rtol=1e-6, atol=1e-9 * np.abs(base).max())),
                f"{self.name}: serial {fmt} CG solution is not allclose to csr",
            )
        self.executors = self.warm_executors(self.x0, self.y_ref)
        self.probe_matrix, self.probe_x = self.matrix, self.x0

    def solve(self, spmv):
        from repro.solvers import conjugate_gradient

        return conjugate_gradient(_Operator(self.matrix.shape, spmv), self.b, tol=self.TOL)

    def cells(self):
        out = [("setup", self.setup_cell)]
        out += [(c, lambda c=c: self.solve_cell(c)) for c in CELLS]
        return out

    def setup_cell(self) -> None:
        self.setup.add(self.cold_setup(self.matrix, self.x0, self.y_ref))

    def solve_cell(self, cell: str) -> None:
        fmt = format_of(cell)
        ex = self.executors[cell]
        self.tracer.op(cell, "op")
        try:
            with self.tracer.span("solvers.cg", "solvers"):
                t0 = now()
                res = self.solve(ex)
                t1 = now()
        except Exception as exc:
            self.ledger.fail(f"{self.name}: {cell} solve raised {type(exc).__name__}: {exc}")
            return
        self.ops[self.tracer.on][cell].add(t1 - t0)
        with self.tracer.span("bench.verify", "bench"):
            good = (
                res.converged
                and res.iterations == self.iterations[fmt]
                and np.array_equal(res.x, self.x_ref[fmt])
            )
        self.ledger.check(
            good,
            f"{self.name}: {cell} solve converged={res.converged} in "
            f"{res.iterations} (want {self.iterations[fmt]}) or x differs",
        )
        self.note_rung(ex)


class _Operator:
    """The adapter CG sees: ``.shape`` and ``.spmv``."""

    __slots__ = ("shape", "spmv")

    def __init__(self, shape, spmv):
        self.shape = shape
        self.spmv = spmv


class SpmvFloor(Workload):
    """Back-to-back single SpMVs on a cache-resident 1,024-row matrix."""

    name = "spmv-floor"
    BATCH = 50
    NX = 8

    def prepare(self) -> None:
        from repro.formats.conversions import to_csr
        from repro.matrices.generators import stencil_2d

        self.matrix = to_csr(stencil_2d(32, 32))
        rng = np.random.default_rng(self.seed)
        self.xs = [rng.random(self.matrix.ncols) for _ in range(self.NX)]
        self.y_ref = {}
        for fmt in FORMATS:
            ref = serial_reference(self.matrix, fmt)
            self.y_ref[fmt] = [ref.spmv(x) for x in self.xs]
        for i in range(self.NX):
            check_reference_agreement({f: r[i] for f, r in self.y_ref.items()}, self.ledger, f"{self.name} y")
        self.executors = self.warm_executors(self.xs[0], {f: r[0] for f, r in self.y_ref.items()})
        self.probe_matrix, self.probe_x = self.matrix, self.xs[0]

    def cells(self):
        out = [("setup", self.setup_cell)]
        out += [(c, lambda c=c: self.call_cell(c)) for c in CELLS]
        return out

    def setup_cell(self) -> None:
        refs = {f: r[0] for f, r in self.y_ref.items()}
        self.setup.add(self.cold_setup(self.matrix, self.xs[0], refs))

    def call_cell(self, cell: str) -> None:
        fmt = format_of(cell)
        ex = self.executors[cell]
        samples = self.ops[self.tracer.on][cell]
        refs = self.y_ref[fmt]
        self.tracer.op(cell, "op")
        for i in range(self.BATCH):
            # The bookkeeping around each call is the benchmark's own
            # time; the span keeps it in the traced ledger.
            with self.tracer.span("bench.call", "bench"):
                x = self.xs[i % self.NX]
                try:
                    t0 = now()
                    y = ex(x)
                    t1 = now()
                except Exception as exc:
                    self.ledger.fail(f"{self.name}: {cell} call raised {type(exc).__name__}: {exc}")
                    continue
                samples.add(t1 - t0)
                if not self.tracer.on:
                    self.calls[cell].add(t1 - t0)
                self.verify(y, refs[i % self.NX], f"{cell} y")
        self.note_rung(ex)

class OneshotPowerlaw(Workload):
    """A stream of distinct power-law matrices, each built, used, closed."""

    name = "oneshot-powerlaw"
    N = 200_000
    DEGREE = 8
    #: Steady calls after the first: "multiplied a few times".  More
    #: calls weight the op toward IPC wake-ups, the noisiest part of a
    #: process-backend call on a shared host.
    CALLS = 3
    #: Shards live in shared memory, not mmap files: ``mmap`` storage
    #: syncs each shard file to the shared virtual disk, whose latency
    #: swings with other tenants' I/O and doubled this workload's
    #: run-to-run spread.
    executor_kwargs = {"backend": "process", "storage": "mem"}

    def prepare(self) -> None:
        self.k = 0
        self.new_matrix()
        self.probe_matrix, self.probe_x = self.matrix, self.x
        self.fresh = True

    def new_matrix(self) -> None:
        """The next matrix of the stream and its oracle (untimed)."""
        from repro.formats.conversions import to_csr
        from repro.matrices.generators import powerlaw_graph
        from repro.matrices.values import continuous_values, set_matrix_values

        self.k += 1
        mseed = self.seed * 1000 + self.k
        a = to_csr(powerlaw_graph(self.N, self.DEGREE, mseed))
        self.matrix = set_matrix_values(a, continuous_values(a.nnz, mseed))
        self.x = np.random.default_rng(mseed).random(self.matrix.ncols)
        self.y_ref = {f: serial_reference(self.matrix, f).spmv(self.x) for f in FORMATS}
        check_reference_agreement(self.y_ref, self.ledger, f"{self.name} y")

    def resident_inputs(self, i: int):
        """Pass *i* measures a new matrix of the stream: CSR-DU's size
        depends on where the heavy columns fall."""
        if i:
            self.new_matrix()
        return self.matrix, self.x

    def prep_round(self) -> None:
        if not self.fresh:
            self.new_matrix()
        self.fresh = False
        self._round_setup = 0.0
        self._round_cells = 0

    def cells(self):
        return [(c, lambda c=c: self.oneshot_cell(c)) for c in CELLS]

    def detail(self) -> dict:
        """The steady per-call time of each executor, excluding its first call."""
        return {
            f"spmv_ms.{cell}": f"{c.median() * 1e3:.6g} ms  n={len(c)}  p90={c.p90() * 1e3:.6g}"
            for cell, c in self.calls.items()
        }

    def oneshot_cell(self, cell: str) -> None:
        """One executor's life: build, first call, steady calls, close.

        The op is the whole life, as a one-shot user pays it; a change
        that moves cost between encode and multiply shows here.  The
        steady calls are also kept one by one for the report.
        """
        fmt = format_of(cell)
        ref = self.y_ref[fmt]
        self.tracer.op(cell, "setup")
        ex = None
        try:
            t0 = now()
            ex = self.build(self.matrix, cell)
            t1 = now()
            y = ex(self.x)
            t2 = now()
        except Exception as exc:
            self.ledger.fail(f"{self.name}: {cell} setup raised {type(exc).__name__}: {exc}")
            if ex is not None:
                ex.close()
            return
        self._round_setup += t2 - t0
        self._round_cells += 1
        if cell != "degrade":
            self.note_store(ex)
        self.verify(y, ref, f"{cell} first y")
        self.tracer.op(cell, "op")
        steady = []
        for _ in range(self.CALLS):
            try:
                t3 = now()
                y = ex(self.x)
                t4 = now()
            except Exception as exc:
                self.ledger.fail(f"{self.name}: {cell} call raised {type(exc).__name__}: {exc}")
                continue
            steady.append(t4 - t3)
            self.verify(y, ref, f"{cell} y")
        self.note_rung(ex)
        t5 = now()
        self.close(ex)
        t6 = now()
        if len(steady) == self.CALLS:
            self.ops[self.tracer.on][cell].add((t2 - t0) + sum(steady) + (t6 - t5))
        if not self.tracer.on:
            for seconds in steady:
                self.calls[cell].add(seconds)
        if cell != "degrade" and steady:
            self.first_call.add((t2 - t1) - float(np.median(steady)))
        if self._round_cells == len(CELLS):
            self.setup.add(self._round_setup)


WORKLOADS = {w.name: w for w in (CGStencil3D, SpmvFloor, OneshotPowerlaw)}
