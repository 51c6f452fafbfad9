"""Backend equivalence: thread, process, and mmap runs are bit-identical.

The property-based test is the PR's acceptance clause: for every
format/kernel tier, the thread backend, the process backend (shards in
shared memory), and the mmap-backed thread run produce byte-identical
``y`` on arbitrary small matrices.  The reference is always the
same-format thread run at the same shard count -- csr-du's per-unit
summation order differs from CSR's row-dot order, so cross-format
comparisons are only ever ``allclose``.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, PartitionError, StorageError
from repro.formats import CSRMatrix
from repro.parallel import (
    BACKENDS,
    STORAGES,
    ParallelSpMV,
    ProcessParallelSpMV,
    make_executor,
)
from repro.telemetry import core as telemetry

from tests.conftest import random_sparse_dense
from tests.storage.shard_faults import flip_field_byte, poke_field, wrong_unit_index

FORMATS = ("csr", "csr-du", "csr-vi", "csr-du-vi")


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(36, 29, seed=77, quantize=8, empty_rows=True)
    )


class TestMakeExecutor:
    def test_dispatch(self, csr):
        with make_executor(csr, 2, backend="thread") as ex:
            assert isinstance(ex, ParallelSpMV) and ex.backend == "thread"
        with make_executor(csr, 2, backend="process") as ex:
            assert isinstance(ex, ProcessParallelSpMV)
            assert ex.backend == "process"

    def test_validation(self, csr):
        with pytest.raises(PartitionError):
            make_executor(csr, 2, backend="gpu")
        with pytest.raises(PartitionError):
            make_executor(csr, 2, storage="tape")
        with pytest.raises(StorageError):
            make_executor(csr, 2, storage="mmap")  # needs a directory

    def test_tables(self):
        assert BACKENDS == ("thread", "process")
        assert STORAGES == ("mem", "mmap")


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    nrows=st.integers(min_value=4, max_value=28),
    ncols=st.integers(min_value=3, max_value=24),
    seed=st.integers(min_value=0, max_value=2**16),
    nworkers=st.integers(min_value=2, max_value=3),
)
def test_backends_bit_identical(nrows, ncols, seed, nworkers):
    dense = random_sparse_dense(
        nrows, ncols, density=0.3, seed=seed, quantize=6, empty_rows=True
    )
    csr = CSRMatrix.from_dense(dense)
    x = np.random.default_rng(seed + 1).random(ncols)
    for fmt in FORMATS:
        with make_executor(csr, nworkers, format_name=fmt) as threads:
            y_ref = threads(x)
        assert np.allclose(y_ref, dense @ x)
        with tempfile.TemporaryDirectory(prefix="shards-") as tmp:
            with make_executor(
                csr, nworkers, format_name=fmt, storage="mmap", directory=tmp
            ) as mapped:
                assert np.array_equal(mapped(x), y_ref), f"{fmt} mmap"
        with make_executor(
            csr, nworkers, backend="process", format_name=fmt
        ) as procs:
            assert np.array_equal(procs(x), y_ref), f"{fmt} process"


class TestProcessBackend:
    @pytest.mark.parametrize("storage", STORAGES)
    def test_repeated_calls_and_out(self, csr, storage, tmp_path):
        x = np.random.default_rng(3).random(csr.ncols)
        kwargs = {"directory": str(tmp_path)} if storage == "mmap" else {}
        with ParallelSpMV(csr, 2, format_name="csr-du") as threads:
            y_ref = threads(x)
        with ProcessParallelSpMV(
            csr, 2, format_name="csr-du", storage=storage, **kwargs
        ) as procs:
            assert np.array_equal(procs(x), y_ref)
            out = np.empty(csr.nrows)
            assert procs(x, out=out) is out
            assert np.array_equal(out, y_ref)

    def test_poisoned_shard_retried_transparently(self, csr, tmp_path):
        """A shard poisoned on disk fails the worker-side CRC validator
        (IntegrityError -> retryable), the parent rebuilds it, and the
        call still returns the correct product."""
        x = np.random.default_rng(4).random(csr.ncols)
        with ParallelSpMV(csr, 2) as threads:
            y_ref = threads(x)
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            with ProcessParallelSpMV(
                csr, 2, storage="mmap", directory=str(tmp_path)
            ) as procs:
                handle = procs.store.shards[0]["handle"]
                with open(handle["path"], "r+b") as fh:
                    fh.seek(handle["layout"][0]["offset"])
                    fh.write(b"\xde\xad\xbe\xef")
                assert np.array_equal(procs(x), y_ref)
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        retries = [e for e in events if e.name == "executor.retry"]
        assert len(retries) == 1
        assert retries[0].attrs["error"] == "IntegrityError"

    def test_poisoned_shard_without_source_aggregates(self, csr, tmp_path):
        """When the rebuild has no source matrix the retry cannot heal
        the shard: the failure aggregates into an ExecutionError that
        names the chunk, instead of hanging or returning garbage."""
        x = np.random.default_rng(5).random(csr.ncols)
        with ProcessParallelSpMV(
            csr, 2, storage="mmap", directory=str(tmp_path)
        ) as procs:
            handle = procs.store.shards[1]["handle"]
            with open(handle["path"], "r+b") as fh:
                fh.seek(handle["layout"][0]["offset"])
                fh.write(b"\xba\xad")
            procs.store._source_csr = None  # opened-from-manifest state
            with pytest.raises(ExecutionError) as err:
                procs(x)
            failures = err.value.failures
            assert len(failures) == 1
            assert failures[0].thread == 1
            assert failures[0].retried
            assert isinstance(failures[0].error, StorageError)

    @pytest.mark.parametrize("fmt", ["csr-du", "csr-du-vi"])
    @pytest.mark.parametrize(
        "fault, error", [("flip", "IntegrityError"), ("reseal", "EncodingError")]
    )
    @pytest.mark.parametrize("storage", STORAGES)
    def test_unit_index_fault_rebuilt_and_resubmitted(
        self, csr, fmt, fault, error, storage, tmp_path
    ):
        """A shard whose unit index is damaged -- a flipped byte (stale
        CRC) or a wrong index re-sealed with a valid CRC -- fails at the
        worker's attach; the parent rebuilds the shard, resubmits, and
        the call returns the same bits as the thread backend."""
        x = np.random.default_rng(8).random(csr.ncols)
        with ParallelSpMV(csr, 2, format_name=fmt) as threads:
            y_ref = threads(x)
        kwargs = {"directory": str(tmp_path)} if storage == "mmap" else {}
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            with ProcessParallelSpMV(
                csr, 2, format_name=fmt, storage=storage, **kwargs
            ) as procs:
                if fault == "flip":
                    flip_field_byte(procs.store, 0)
                else:
                    poke_field(
                        procs.store, 0, wrong_unit_index(procs.store, 0),
                        reseal=True,
                    )
                assert np.array_equal(procs(x), y_ref)
                assert procs.store.shards[0]["generation"] == 1
                assert np.array_equal(procs(x), y_ref)
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        retries = [e for e in events if e.name == "executor.retry"]
        assert [r.attrs["error"] for r in retries] == [error]

    def test_closed_executor_refuses(self, csr):
        procs = ProcessParallelSpMV(csr, 2)
        procs.close()
        with pytest.raises(StorageError):
            procs(np.ones(csr.ncols))

    def test_validation(self, csr):
        with pytest.raises(PartitionError):
            ProcessParallelSpMV(csr, 0)
        with pytest.raises(PartitionError):
            ProcessParallelSpMV(csr, 2, chunk_timeout=0)
        with pytest.raises(StorageError):
            ProcessParallelSpMV(csr, 2, storage="tape")
