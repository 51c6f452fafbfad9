"""Field codecs: encoded matrix <-> named storable fields + metadata.

A :class:`~repro.storage.shard.ShardStore` shard holds one encoded
row-range matrix.  The codec splits such a matrix into the flat field
dict a :class:`~repro.storage.provider.BufferProvider` can pack
(ndarrays and byte streams) plus a small JSON-safe ``meta`` dict
(shape, dtype choices, encoding parameters), and reassembles the exact
same matrix from attached views -- ``rebuild(extract(m)) == m`` down to
stored bytes, which the cross-backend bit-identity tests rely on.

CSR-DU and CSR-DU-VI shards carry one field beyond the matrix's own
arrays: ``unit_bytes``, the byte length of every ctl unit as
``uint16`` (a unit spans at most 2 + 3 * 10 + 254 * 8 = 2,064 bytes).
It is the encoder's unit index, stored so that an attach never walks
the ctl stream unit by unit in Python: :func:`rebuild_matrix` turns
it into header offsets and hands them to :func:`repro.compress.
unit_table.table_from_offsets`, which decodes the unit table in
vectorized passes and checks that every unit ends where the index
says the next one begins -- a wrong index raises
:class:`~repro.errors.EncodingError` at attach, like a malformed
stream.  The field is CRC-sealed like every other.

Rebuilt arrays stay views over the provider's buffer wherever the
constructors allow: the validators go through ``np.ascontiguousarray``,
which is zero-copy for the contiguous views :func:`repro.storage.
provider.attach` produces, so an mmap-backed shard keeps its arrays
disk-backed end to end.
"""

from __future__ import annotations

import numpy as np

from repro.compress.unit_table import scan_units, table_from_offsets
from repro.errors import StorageError
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.formats.csr_vi import CSRVIMatrix

__all__ = ["extract_fields", "rebuild_matrix", "CODEC_FORMATS"]

CODEC_FORMATS = ("csr", "csr-du", "csr-vi", "csr-du-vi")


def _unit_bytes(matrix) -> np.ndarray:
    """Per-unit ctl byte lengths of a delta-unit matrix, as ``uint16``.

    Taken from the unit table the batched encoder attached; a matrix
    built any other way is scanned once here.
    """
    table = getattr(matrix, "_unit_table", None)
    if table is None:
        table = scan_units(matrix.ctl)
    return np.diff(table.ctl_offsets).astype(np.uint16)


def _attach_unit_table(matrix, fields: dict):
    """Give a rebuilt delta-unit *matrix* the table its ``unit_bytes`` index."""
    lengths = fields.get("unit_bytes")
    if lengths is None:
        raise StorageError(
            f"{matrix.name} shard has no unit_bytes field (written by an "
            "older storage layout); rebuild the store"
        )
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=offsets[1:])
    matrix._unit_table = table_from_offsets(matrix.ctl, offsets)
    return matrix


def extract_fields(matrix) -> tuple[dict, dict]:
    """Split an encoded *matrix* into ``(fields, meta)``.

    ``fields`` maps name -> ndarray | bytes (what gets packed into the
    shard buffer); ``meta`` is JSON-safe and rides in the manifest.
    """
    name = getattr(type(matrix), "name", type(matrix).__name__)
    if isinstance(matrix, CSRMatrix):
        fields = {
            "row_ptr": matrix.row_ptr,
            "col_ind": matrix.col_ind,
            "values": matrix.values,
        }
        meta = {
            "index_dtype": matrix.row_ptr.dtype.str,
            "col_index_dtype": matrix.col_ind.dtype.str,
        }
    elif isinstance(matrix, CSRDUVIMatrix):
        # Check before CSRDUMatrix/CSRVIMatrix: not a subclass, but the
        # field names overlap both.
        fields = {
            "ctl": matrix.ctl,
            "unit_bytes": _unit_bytes(matrix),
            "vals_unique": matrix.vals_unique,
            "val_ind": matrix.val_ind,
        }
        meta = {}
    elif isinstance(matrix, CSRDUMatrix):
        fields = {
            "ctl": matrix.ctl,
            "unit_bytes": _unit_bytes(matrix),
            "values": matrix.values,
        }
        meta = {"policy": matrix.policy, "max_unit": int(matrix.max_unit)}
    elif isinstance(matrix, CSRVIMatrix):
        fields = {
            "row_ptr": matrix.row_ptr,
            "col_ind": matrix.col_ind,
            "vals_unique": matrix.vals_unique,
            "val_ind": matrix.val_ind,
        }
        meta = {}
    else:
        raise StorageError(
            f"no storage codec for format {name!r} "
            f"(supported: {CODEC_FORMATS})"
        )
    meta = {"format": name, "nrows": matrix.nrows, "ncols": matrix.ncols, **meta}
    return fields, meta


def rebuild_matrix(fields: dict, meta: dict):
    """Reassemble the matrix :func:`extract_fields` took apart.

    *fields* may be provider-attached views (shm / mmap); the rebuilt
    matrix keeps them as its storage without copying.  Delta-unit
    formats also get their unit table back from ``unit_bytes``; a shard
    without that field raises :class:`~repro.errors.StorageError`.
    """
    name = meta.get("format")
    nrows, ncols = int(meta["nrows"]), int(meta["ncols"])
    if name == "csr":
        return CSRMatrix(
            nrows,
            ncols,
            fields["row_ptr"],
            fields["col_ind"],
            fields["values"],
            index_dtype=np.dtype(meta["index_dtype"]),
            col_index_dtype=np.dtype(meta["col_index_dtype"]),
        )
    if name == "csr-du":
        matrix = CSRDUMatrix(
            nrows,
            ncols,
            fields["ctl"],
            fields["values"],
            policy=meta.get("policy", "greedy"),
            max_unit=int(meta["max_unit"]),
        )
        return _attach_unit_table(matrix, fields)
    if name == "csr-vi":
        return CSRVIMatrix(
            nrows,
            ncols,
            fields["row_ptr"],
            fields["col_ind"],
            fields["vals_unique"],
            fields["val_ind"],
        )
    if name == "csr-du-vi":
        matrix = CSRDUVIMatrix(
            nrows,
            ncols,
            fields["ctl"],
            fields["vals_unique"],
            fields["val_ind"],
        )
        return _attach_unit_table(matrix, fields)
    raise StorageError(
        f"no storage codec for format {name!r} (supported: {CODEC_FORMATS})"
    )
