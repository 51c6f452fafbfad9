"""ShardStore: build/attach identity, manifests, budgets, rebuilds."""

import json
import os

import numpy as np
import pytest

from repro.compress.encode_cache import ConvertCache
from repro.errors import EncodingError, IntegrityError, StorageError
from repro.formats import CSRMatrix, convert
from repro.storage import CODEC_FORMATS, MANIFEST_NAME, ShardStore, attach_shard
from repro.storage.shard import MANIFEST_VERSION, _manifest_crc

from tests.conftest import random_sparse_dense
from tests.storage.shard_faults import (
    flip_field_byte,
    poke_field,
    wrong_unit_index,
)


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(48, 37, seed=9, quantize=8, empty_rows=True)
    )


@pytest.fixture(scope="module")
def x(csr):
    return np.random.default_rng(10).random(csr.ncols)


def shard_product(store, x):
    """y assembled shard by shard (each shard owns its row range)."""
    y = np.empty(store.nrows)
    for i in range(store.nshards):
        lo, hi = store.rows_of(i)
        store.attach(i).spmv(x, out=y[lo:hi])
    return y


class TestBuild:
    @pytest.mark.parametrize("fmt", CODEC_FORMATS)
    @pytest.mark.parametrize("storage", ["mem", "shm", "mmap"])
    def test_sharded_product_matches_whole(self, csr, x, fmt, storage, tmp_path):
        """Per-shard encode + multiply == whole-matrix encode at the same
        row cuts (rows never split mid-shard, so row order is preserved)."""
        kwargs = {"directory": str(tmp_path)} if storage == "mmap" else {}
        with ShardStore.build(csr, fmt, 3, storage=storage, **kwargs) as store:
            y = shard_product(store, x)
            y_ref = np.empty(csr.nrows)
            for i in range(store.nshards):
                lo, hi = store.rows_of(i)
                convert(csr.row_slice(lo, hi), fmt).spmv(x, out=y_ref[lo:hi])
            assert np.array_equal(y, y_ref)
            assert np.allclose(y, convert(csr, fmt).spmv(x))

    def test_explicit_boundaries(self, csr, x):
        bounds = [0, 7, 30, csr.nrows]
        with ShardStore.build(csr, "csr", 3, boundaries=bounds) as store:
            assert store.boundaries == bounds
            assert np.allclose(shard_product(store, x), csr.spmv(x))

    def test_bad_boundaries_rejected(self, csr):
        with pytest.raises(StorageError):
            ShardStore.build(csr, "csr", 3, boundaries=[0, csr.nrows])

    def test_attach_spec_is_picklable(self, csr, x):
        import pickle

        with ShardStore.build(csr, "csr", 2, storage="shm") as store:
            spec = pickle.loads(pickle.dumps(store.attach_spec(1)))
            lo, hi = store.rows_of(1)
            m = attach_shard(spec)
            assert np.array_equal(m.spmv(x), csr.row_slice(lo, hi).spmv(x))

    def test_shared_encodes_with_cache(self, csr):
        cache = ConvertCache(capacity=16)
        with ShardStore.build(csr, "csr-du", 2, convert_cache=cache):
            pass
        first_misses = cache.misses
        with ShardStore.build(csr, "csr-du", 2, convert_cache=cache):
            pass
        assert cache.misses == first_misses  # second build was all hits


class TestBudget:
    def test_mem_build_over_budget_raises(self, csr):
        with pytest.raises(StorageError):
            ShardStore.build(csr, "csr", 4, storage="mem", budget_bytes=64)

    def test_mmap_build_passes_same_budget(self, csr, x, tmp_path):
        with ShardStore.build(
            csr, "csr", 4, storage="mmap", directory=str(tmp_path),
            budget_bytes=64,
        ) as store:
            assert store.resident_bytes == 0
            assert store.stored_bytes > 64
            assert np.allclose(shard_product(store, x), csr.spmv(x))


class TestManifest:
    def test_reopen_matches(self, csr, x, tmp_path):
        with ShardStore.build(
            csr, "csr-vi", 3, storage="mmap", directory=str(tmp_path)
        ) as store:
            y_first = shard_product(store, x)
            store.close(unlink=False)
        with ShardStore.open(str(tmp_path)) as reopened:
            assert reopened.format_name == "csr-vi"
            assert reopened.boundaries == store.boundaries
            assert np.array_equal(shard_product(reopened, x), y_first)

    def test_tampered_manifest_fails_seal(self, csr, tmp_path):
        store = ShardStore.build(
            csr, "csr", 2, storage="mmap", directory=str(tmp_path)
        )
        store.close(unlink=False)
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        doc["shards"][0]["rows"][1] += 1
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        with pytest.raises(IntegrityError):
            ShardStore.open(str(tmp_path))

    def test_opened_store_cannot_rebuild(self, csr, tmp_path):
        store = ShardStore.build(
            csr, "csr", 2, storage="mmap", directory=str(tmp_path)
        )
        store.close(unlink=False)
        with ShardStore.open(str(tmp_path)) as reopened:
            with pytest.raises(StorageError):
                reopened.rebuild_shard(0)


class TestRebuild:
    def test_poisoned_shard_caught_then_rebuilt(self, csr, x, tmp_path):
        """The retry contract: corrupt file -> IntegrityError at attach,
        rebuild_shard bumps the generation and restores clean bytes."""
        with ShardStore.build(
            csr, "csr", 3, storage="mmap", directory=str(tmp_path)
        ) as store:
            handle = store.shards[1]["handle"]
            with open(handle["path"], "r+b") as fh:
                fh.seek(handle["layout"][0]["offset"])
                fh.write(b"\xee\xee\xee")
            with pytest.raises(IntegrityError):
                store.attach(1)
            spec = store.rebuild_shard(1)
            assert spec["generation"] == 1
            assert np.allclose(shard_product(store, x), csr.spmv(x))

    def test_closed_store_refuses(self, csr):
        store = ShardStore.build(csr, "csr", 2)
        store.close()
        with pytest.raises(StorageError):
            store.attach(0)


class TestUnitIndex:
    """The csr-du unit index field: sealed, checked, and versioned."""

    @pytest.mark.parametrize("fmt", ["csr-du", "csr-du-vi"])
    @pytest.mark.parametrize("storage", ["shm", "mmap"])
    def test_flipped_index_byte_fails_crc(self, csr, x, fmt, storage, tmp_path):
        kwargs = {"directory": str(tmp_path)} if storage == "mmap" else {}
        with ShardStore.build(csr, fmt, 2, storage=storage, **kwargs) as store:
            y_ref = shard_product(store, x)
            flip_field_byte(store, 0)
            with pytest.raises(IntegrityError) as err:
                store.attach(0)
            assert err.value.field == "unit_bytes"
            store.rebuild_shard(0)
            assert np.array_equal(shard_product(store, x), y_ref)

    @pytest.mark.parametrize("fmt", ["csr-du", "csr-du-vi"])
    @pytest.mark.parametrize("storage", ["shm", "mmap"])
    def test_resealed_wrong_index_fails_decode(
        self, csr, x, fmt, storage, tmp_path
    ):
        kwargs = {"directory": str(tmp_path)} if storage == "mmap" else {}
        with ShardStore.build(csr, fmt, 2, storage=storage, **kwargs) as store:
            y_ref = shard_product(store, x)
            poke_field(store, 1, wrong_unit_index(store, 1), reseal=True)
            with pytest.raises(EncodingError):
                store.attach(1)
            store.rebuild_shard(1)
            assert np.array_equal(shard_product(store, x), y_ref)

    def test_pre_index_manifest_refused(self, csr, tmp_path):
        """A store written before shards carried the unit index (manifest
        version 1, no unit_bytes field) is refused at open."""
        store = ShardStore.build(
            csr, "csr-du", 2, storage="mmap", directory=str(tmp_path)
        )
        store.close(unlink=False)
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        assert doc["version"] == MANIFEST_VERSION == 2
        for shard in doc["shards"]:
            layout = shard["handle"]["layout"]
            shard["handle"]["layout"] = [
                f for f in layout if f["name"] != "unit_bytes"
            ]
        doc["version"] = 1
        doc["crc32"] = _manifest_crc(doc["shards"])
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        with pytest.raises(StorageError, match="version 1"):
            ShardStore.open(str(tmp_path))
