"""Shard-owning workers of the process backend: affinity and lifetime.

Worker *t* is one forked process that serves only shard *t* for the
executor's life, so each shard is attached (and its kernel plan built)
exactly once per worker, and ``close()`` leaves no process behind --
not after a timed-out straggler, not after a killed worker.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.formats import CSRMatrix
from repro.formats.conversions import convert
from repro.parallel import ProcessParallelSpMV
from repro.parallel import process_executor as pe
from repro.resilience import chaos
from repro.storage import provider
from repro.storage.shard import ShardStore
from repro.telemetry import core as telemetry

from tests.conftest import random_sparse_dense

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos faults reach workers by fork inheritance",
)


@pytest.fixture
def csr():
    return CSRMatrix.from_dense(random_sparse_dense(96, 96, seed=31))


@pytest.fixture
def x(csr):
    return np.random.default_rng(8).random(csr.shape[1])


@pytest.fixture(autouse=True)
def _disarm():
    yield
    chaos.disarm_all()


def _shard_children() -> set[int]:
    return {
        p.pid
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    }


def _assert_all_reaped(pids: set[int]) -> None:
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestShardAffinity:
    NWORKERS = 3
    CALLS = 8

    @pytest.mark.parametrize("fmt", ["csr", "csr-du"])
    def test_each_shard_has_one_worker_and_one_attach(self, csr, x, fmt):
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            with ProcessParallelSpMV(
                csr, self.NWORKERS, format_name=fmt
            ) as ex:
                for _ in range(self.CALLS):
                    y = ex(x)
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        assert np.array_equal(y, convert(csr, fmt).spmv(x))
        chunks = [
            e
            for e in events
            if e.kind == "span"
            and e.name == "parallel.chunk"
            and "pid" in e.attrs
        ]
        assert len(chunks) == self.NWORKERS * self.CALLS
        pids_of: dict[int, set[int]] = {}
        for e in chunks:
            pids_of.setdefault(e.attrs["thread"], set()).add(e.attrs["pid"])
        assert sorted(pids_of) == list(range(self.NWORKERS))
        assert all(len(pids) == 1 for pids in pids_of.values())
        assert len(set().union(*pids_of.values())) == self.NWORKERS
        misses = [e for e in events if e.name == "storage.shard.cache.miss"]
        assert len(misses) == self.NWORKERS
        assert sorted(e.attrs["index"] for e in misses) == list(
            range(self.NWORKERS)
        )


class TestWorkerLifetime:
    def test_close_reaps_straggler_and_its_successors(self, csr, x):
        chaos.arm(
            "worker.chunk", "sleep", match={"index": 0}, sleep_s=30.0
        )
        with ProcessParallelSpMV(
            csr, 2, format_name="csr", chunk_timeout=0.2
        ) as ex:
            with pytest.raises(ExecutionError) as info:
                ex(x)
            assert any(
                isinstance(f.error, TimeoutError) for f in info.value.failures
            )
            retired = _shard_children()
            assert retired  # the straggler is still asleep
            chaos.disarm_all()
            assert np.array_equal(ex(x), csr.spmv(x))
            current = _shard_children() - retired
            assert len(current) == 2
        # The straggler still sleeps: close() must kill it, not wait 30 s.
        _assert_all_reaped(retired | current)

    def test_close_reaps_killed_worker(self, csr, x):
        chaos.arm("worker.chunk", "kill", match={"index": 1})
        with ProcessParallelSpMV(csr, 2, format_name="csr") as ex:
            with pytest.raises(ExecutionError) as info:
                ex(x)
            (failure,) = info.value.failures
            assert failure.thread == 1
            assert "worker process died" in str(failure.error)
            retired = _shard_children()
            chaos.disarm_all()
            assert np.array_equal(ex(x), csr.spmv(x))
            current = _shard_children() - retired
            assert len(current) == 2
        _assert_all_reaped(retired | current)

    def test_clean_close_leaves_no_children(self, csr, x):
        with ProcessParallelSpMV(csr, 2, format_name="csr-du") as ex:
            ex(x)
            pids = _shard_children()
            assert len(pids) == 2
        _assert_all_reaped(pids)


class TestShardCacheGenerations:
    def test_new_generation_drops_the_old_attachment(self, csr, x):
        pe._SHARD_CACHE.clear()
        store = ShardStore.build(csr, "csr", 2, storage="shm")
        names = []
        try:
            spec0 = store.attach_spec(0)
            names.append(spec0["handle"]["shm_name"])
            y0 = pe._cached_shard(spec0).spmv(x)
            assert list(pe._SHARD_CACHE) == [(0, 0)]
            assert names[0] in provider._SHM_ATTACHED
            store.rebuild_shard(0)
            spec1 = store.attach_spec(0)
            assert spec1["generation"] == 1
            names.append(spec1["handle"]["shm_name"])
            y1 = pe._cached_shard(spec1).spmv(x)
            assert list(pe._SHARD_CACHE) == [(0, 1)]
            assert names[0] not in provider._SHM_ATTACHED
            assert np.array_equal(y0, y1)
            # A hit on the current generation keeps it.
            assert pe._cached_shard(spec1) is pe._SHARD_CACHE[(0, 1)][0]
        finally:
            pe._SHARD_CACHE.clear()
            for name in names:
                provider._detach_shm(name)
            store.close()
