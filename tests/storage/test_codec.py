"""Field codec round-trips: take a matrix apart, rebuild it bit-exact."""

import numpy as np
import pytest

from repro.compress.unit_table import scan_units
from repro.errors import EncodingError, StorageError
from repro.formats import CSRDUMatrix, CSRMatrix, convert
from repro.storage import CODEC_FORMATS, extract_fields, rebuild_matrix

from tests.compress.unit_oracle import TABLE_FIELDS
from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(40, 33, seed=5, quantize=8, empty_rows=True)
    )


@pytest.mark.parametrize("fmt", CODEC_FORMATS)
def test_round_trip_bit_identical(csr, fmt):
    original = convert(csr, fmt)
    fields, meta = extract_fields(original)
    rebuilt = rebuild_matrix(fields, meta)
    assert type(rebuilt) is type(original)
    assert rebuilt.shape == original.shape
    x = np.random.default_rng(6).random(csr.ncols)
    assert np.array_equal(rebuilt.spmv(x), original.spmv(x))


@pytest.mark.parametrize("fmt", CODEC_FORMATS)
def test_meta_is_json_safe(csr, fmt):
    import json

    _fields, meta = extract_fields(convert(csr, fmt))
    assert meta["format"] == fmt
    json.dumps(meta)  # no ndarray/bytes leaked into the metadata


def test_fields_cover_storage(csr):
    """Every stored byte of the matrix lands in some field."""
    original = convert(csr, "csr-du")
    fields, _meta = extract_fields(original)
    total = sum(
        v.nbytes if isinstance(v, np.ndarray) else len(v)
        for v in fields.values()
    )
    assert total >= original.storage().total_bytes


def test_unsupported_format_raises(csr):
    class Odd:
        pass

    with pytest.raises(StorageError):
        extract_fields(Odd())
    with pytest.raises(StorageError):
        rebuild_matrix({}, {"format": "no-such-format", "nrows": 1, "ncols": 1})


DU_FORMATS = ("csr-du", "csr-du-vi")


@pytest.mark.parametrize("fmt", DU_FORMATS)
def test_unit_index_rides_with_delta_unit_shards(csr, fmt):
    """unit_bytes is the encoder's unit index; the rebuilt matrix gets
    the encoder's table back without a stream walk."""
    original = convert(csr, fmt)
    fields, meta = extract_fields(original)
    table = original._unit_table
    assert fields["unit_bytes"].dtype == np.uint16
    assert np.array_equal(fields["unit_bytes"], np.diff(table.ctl_offsets))
    rebuilt = rebuild_matrix(fields, meta)
    for name in TABLE_FIELDS:
        got, want = getattr(rebuilt._unit_table, name), getattr(table, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("fmt", ("csr", "csr-vi"))
def test_row_pointer_shards_carry_no_unit_index(csr, fmt):
    fields, _meta = extract_fields(convert(csr, fmt))
    assert "unit_bytes" not in fields


def test_reference_encode_is_scanned_once(csr):
    """A matrix without an encoder table still ships a correct index."""
    reference = CSRDUMatrix.from_csr(csr, encoder="reference")
    assert getattr(reference, "_unit_table", None) is None
    fields, meta = extract_fields(reference)
    assert np.array_equal(
        fields["unit_bytes"], np.diff(scan_units(reference.ctl).ctl_offsets)
    )
    x = np.random.default_rng(7).random(csr.ncols)
    assert np.array_equal(rebuild_matrix(fields, meta).spmv(x), reference.spmv(x))


@pytest.mark.parametrize("fmt", DU_FORMATS)
def test_missing_unit_index_refused(csr, fmt):
    fields, meta = extract_fields(convert(csr, fmt))
    del fields["unit_bytes"]
    with pytest.raises(StorageError, match="unit_bytes"):
        rebuild_matrix(fields, meta)


@pytest.mark.parametrize("fmt", DU_FORMATS)
def test_wrong_unit_index_refused(csr, fmt):
    """An index that disagrees with ctl is never trusted -- even one
    with the right total length."""
    fields, meta = extract_fields(convert(csr, fmt))
    lengths = fields["unit_bytes"]
    i = int(np.flatnonzero(lengths[:-1] != lengths[1:])[0])
    swapped = lengths.copy()
    swapped[[i, i + 1]] = lengths[[i + 1, i]]
    for bad in (swapped, lengths[:-1], np.append(lengths, np.uint16(3))):
        with pytest.raises(EncodingError):
            rebuild_matrix({**fields, "unit_bytes": bad}, meta)
