"""An independent unit-table oracle built on the reference ctl decoders.

:func:`repro.compress.unit_table.table_from_offsets` decodes the unit
table with vectorized passes; these helpers rebuild the same fields
from :class:`~repro.compress.ctl.CtlReader` (one ``Unit`` per unit) and
:func:`~repro.compress.ctl.decode_units` (the byte offsets), so the
tests compare two decoders that share no field-decoding code.
"""

import numpy as np

from repro.compress.ctl import FLAG_NR, FLAG_RJMP, FLAG_SEQ, CtlReader, decode_units
from repro.util.bitops import WIDTH_BYTES

TABLE_FIELDS = (
    "flags", "sizes", "classes", "rows", "new_row", "seq",
    "ujmps", "strides", "body_offsets", "ctl_offsets",
)

#: Fields that do not depend on byte positions or flag-bit spelling:
#: what a stream with non-canonical varints still agrees on.
SEMANTIC_FIELDS = ("sizes", "classes", "rows", "new_row", "seq", "ujmps")

TABLE_DTYPES = {
    "flags": np.uint8,
    "sizes": np.int64,
    "classes": np.int8,
    "rows": np.int64,
    "new_row": np.bool_,
    "seq": np.bool_,
    "ujmps": np.int64,
    "strides": np.int64,
    "body_offsets": np.int64,
    "ctl_offsets": np.int64,
}

_INT64_MAX = np.iinfo(np.int64).max


def oracle_semantics(ctl: bytes) -> dict:
    """Per-unit fields from :class:`CtlReader`, as plain Python lists.

    Raises whatever the reader raises (:class:`EncodingError` on a
    malformed stream).  ``strides`` holds ``None`` for sequential
    units of size 1: the reader cannot see their stored stride.
    """
    out = {name: [] for name in ("flags", "sizes", "classes", "rows",
                                 "new_row", "seq", "ujmps", "strides")}
    for unit in CtlReader(ctl):
        flags = unit.cls
        if unit.new_row:
            flags |= FLAG_NR
        if unit.row_jump > 1:
            flags |= FLAG_RJMP
        if unit.seq:
            flags |= FLAG_SEQ
        out["flags"].append(flags)
        out["sizes"].append(unit.usize)
        out["classes"].append(unit.cls)
        out["rows"].append(unit.row)
        out["new_row"].append(unit.new_row)
        out["seq"].append(unit.seq)
        out["ujmps"].append(unit.ujmp)
        if unit.seq:
            out["strides"].append(unit.stride if unit.usize > 1 else None)
        else:
            out["strides"].append(0)
    return out


def fits_int64(sem: dict) -> bool:
    """True if every row, ujmp and stride fits the table's int64 fields."""
    values = sem["rows"] + sem["ujmps"] + [s for s in sem["strides"] if s]
    return all(v <= _INT64_MAX for v in values)


def oracle_table(ctl: bytes) -> dict:
    """Every :class:`UnitTable` field of a canonical stream, with dtypes.

    Header offsets come from :func:`decode_units` (which refuses a
    stream whose varints are not minimal); each plain unit's body is
    the last ``(usize - 1) * width`` bytes before the next header, a
    sequential unit's body offset is the next header itself.
    """
    sem = oracle_semantics(ctl)
    ctl_offsets = decode_units(ctl, sum(sem["sizes"])).ctl_offsets
    sizes = np.asarray(sem["sizes"], dtype=np.int64)
    classes = np.asarray(sem["classes"], dtype=np.int8)
    seq = np.asarray(sem["seq"], dtype=bool)
    body_bytes = np.where(
        seq, 0, (sizes - 1) * np.asarray(WIDTH_BYTES, dtype=np.int64)[classes]
    )
    strides = [1 if s is None else s for s in sem["strides"]]
    fields = {
        "flags": sem["flags"],
        "sizes": sizes,
        "classes": classes,
        "rows": sem["rows"],
        "new_row": sem["new_row"],
        "seq": seq,
        "ujmps": sem["ujmps"],
        "strides": strides,
        "body_offsets": ctl_offsets[1:] - body_bytes,
        "ctl_offsets": ctl_offsets,
    }
    return {
        name: np.asarray(value, dtype=TABLE_DTYPES[name])
        for name, value in fields.items()
    }


def assert_table_equals(table, want: dict, fields=TABLE_FIELDS) -> None:
    """*table* matches the oracle dict field for field, values and dtypes."""
    for name in fields:
        got = getattr(table, name)
        assert got.dtype == want[name].dtype, (name, got.dtype, want[name].dtype)
        assert np.array_equal(got, want[name]), name
