"""Byte-level faults in a stored shard's ``unit_bytes`` unit index.

Shared by the storage and process-backend fault tests: the helpers
write straight into a shard's backing bytes (shared-memory segment or
mmap file), optionally re-sealing the field's CRC32 so that only the
unit-index check can notice.
"""

import zlib

import numpy as np


def field_spec(store, i: int, name: str = "unit_bytes") -> dict:
    """The layout entry of field *name* in shard *i* (live, mutable)."""
    layout = store.shards[i]["handle"]["layout"]
    return next(f for f in layout if f["name"] == name)


def read_field(store, i: int, name: str = "unit_bytes") -> bytes:
    """The stored bytes of field *name* in shard *i*."""
    handle = store.shards[i]["handle"]
    spec = field_spec(store, i, name)
    if handle["kind"] == "mmap":
        with open(handle["path"], "rb") as fh:
            fh.seek(spec["offset"])
            return fh.read(spec["nbytes"])
    buf = store._provider._segments[i].buf
    return bytes(buf[spec["offset"] : spec["offset"] + spec["nbytes"]])


def poke_field(store, i: int, data: bytes, *, name: str = "unit_bytes",
               at: int = 0, reseal: bool = False) -> None:
    """Overwrite bytes of field *name* in shard *i*'s backing store.

    ``reseal=True`` records the CRC32 of the new field bytes in the
    shard's layout, as a writer that knows the format would.
    """
    handle = store.shards[i]["handle"]
    spec = field_spec(store, i, name)
    start = spec["offset"] + at
    if handle["kind"] == "mmap":
        with open(handle["path"], "r+b") as fh:
            fh.seek(start)
            fh.write(data)
    else:
        store._provider._segments[i].buf[start : start + len(data)] = data
    if reseal:
        spec["crc32"] = zlib.crc32(read_field(store, i, name))


def flip_field_byte(store, i: int, *, name: str = "unit_bytes", at: int = 0):
    """Invert one stored byte of field *name* in shard *i* (CRC left stale)."""
    byte = read_field(store, i, name)[at]
    poke_field(store, i, bytes([byte ^ 0xFF]), name=name, at=at)


def wrong_unit_index(store, i: int) -> bytes:
    """Shard *i*'s unit index with two adjacent unequal lengths swapped.

    The total still equals ``len(ctl)``, so only the per-unit boundary
    check can tell it from the true index.
    """
    lengths = np.frombuffer(read_field(store, i), dtype=np.uint16).copy()
    j = int(np.flatnonzero(lengths[:-1] != lengths[1:])[0])
    lengths[[j, j + 1]] = lengths[[j + 1, j]]
    return lengths.tobytes()
