"""Structure-of-arrays unit table and width-class batched ctl decode.

The on-the-fly CSR-DU kernel (:func:`repro.kernels.vectorized.
spmv_csr_du_unitwise`) pays one Python loop iteration *per unit*: for a
million-nonzero matrix with ~8-element units that is ~125k interpreter
round-trips per SpMV, so its throughput floor is the interpreter, not
memory bandwidth -- the opposite of the regime the paper reasons about.
This module removes that floor in two steps:

1. A :class:`UnitTable` (structure-of-arrays, one NumPy array per
   field) records every unit's header fields -- flags, width class,
   size, absolute row, ``ujmp``, stride, and the byte offsets of its
   header and of its fixed-width delta body.
   :func:`table_from_offsets` decodes all of them with vectorized
   passes once it knows where each header starts (the *unit index*),
   checking the stream and the index against each other as it goes.
   The index comes from the batched encoder, from a stored shard
   (:mod:`repro.storage.codec`), or -- for a bare stream -- from
   :func:`scan_units`, whose Python loop only hops from header to
   header (varints skipped by their continuation bits, bodies by
   their width) and records the offsets.

2. :class:`BatchedColumnDecoder` groups the units of a
   :class:`UnitTable` by *width class* (u8/u16/u32/u64, plus the
   SEQ-stride and singleton cases) and decodes each class with a
   constant number of vectorized passes: one byte gather over the ctl
   stream, one ``view`` at the class's fixed width, one cumulative sum
   restarted per unit (exact integer arithmetic), one scatter.  Total
   per-call work is O(#classes) NumPy operations over O(nnz) data --
   the same asymptotics a C decode loop has.

The decoder still re-reads every delta byte of the ctl stream and
recomputes all ``nnz`` column indices on every :meth:`~
BatchedColumnDecoder.columns` call; what is amortized across calls is
only the *variable-length header parse* (unit boundaries, varints),
which a C kernel resolves in a couple of cycles per unit but Python
cannot.  See DESIGN.md ("Kernel plans") for why this preserves the
paper's decode-on-the-fly timing semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.ctl import FLAG_NR, FLAG_RJMP, FLAG_SEQ, _KNOWN_MASK
from repro.errors import EncodingError
from repro.util.bitops import WIDTH_BYTES, WIDTH_DTYPES

#: WIDTH_BYTES as an array, for per-unit body-size arithmetic.
_WIDTH_BYTES_ARR = np.asarray(WIDTH_BYTES, dtype=np.int64)

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class UnitTable:
    """One ctl stream's unit headers, as parallel arrays.

    Attributes
    ----------
    flags, sizes, classes:
        Raw ``uflags`` byte, ``usize`` and width class of each unit.
    rows:
        Absolute row of each unit (NR/RJMP flags resolved).
    new_row, seq:
        First-of-row and sequential-unit masks.
    ujmps:
        Column distance of each unit's first nonzero from the previous
        nonzero (from column 0 at a row start).
    strides:
        Constant delta of sequential units (0 for plain units).
    body_offsets:
        Byte offset of each unit's fixed-width delta body in the ctl
        stream (the position right after the header varints; plain
        units own ``(usize - 1) * WIDTH_BYTES[cls]`` bytes there).
    ctl_offsets:
        Byte offset of each unit's header, plus the stream length as a
        final entry (``nunits + 1`` values) -- the per-thread ctl split
        points the paper's multithreaded CSR-DU needs.
    """

    flags: np.ndarray
    sizes: np.ndarray
    classes: np.ndarray
    rows: np.ndarray
    new_row: np.ndarray
    seq: np.ndarray
    ujmps: np.ndarray
    strides: np.ndarray
    body_offsets: np.ndarray
    ctl_offsets: np.ndarray

    @property
    def nunits(self) -> int:
        return self.sizes.size

    @property
    def nnz(self) -> int:
        return int(self.sizes.sum()) if self.sizes.size else 0


def _varints_at(data: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode one varint at each position of *pos*; ``(values, next_pos)``.

    One pass per byte position of the longest varint present (almost
    always one), each over the varints still open.  Mirrors
    :func:`repro.util.bitops.decode_varint` -- a varint running off the
    end of *data*, or past 64 bits, raises -- and also refuses values
    above the int64 range the table stores.
    """
    n = data.size
    values = np.zeros(pos.size, dtype=np.uint64)
    ends = np.empty(pos.size, dtype=np.int64)
    live = np.arange(pos.size, dtype=np.int64)
    for k in range(10):
        at = pos[live] + k
        if at.size and int(at.max()) >= n:
            raise EncodingError("truncated varint")
        byte = data[at]
        payload = (byte & 0x7F).astype(np.uint64)
        if k == 9 and int(payload.max(initial=0)) > 1:
            raise EncodingError("varint exceeds 64 bits")
        values[live] |= payload << np.uint64(7 * k)
        more = (byte & 0x80) != 0
        ends[live[~more]] = at[~more] + 1
        live = live[more]
        if not live.size:
            break
    else:
        raise EncodingError("varint exceeds 64 bits")
    if values.size and int(values.max()) > _INT64_MAX:
        raise EncodingError("varint exceeds the int64 range")
    return values.astype(np.int64), ends


def table_from_offsets(ctl, offsets) -> UnitTable:
    """The :class:`UnitTable` of *ctl*, given every unit's header offset.

    *offsets* is the unit index: each unit's header byte offset plus the
    stream length (``nunits + 1`` values, the table's ``ctl_offsets``).
    Every field is decoded with a constant number of NumPy passes --
    header bytes gathered at the offsets, varints decoded at computed
    positions, rows by a cumulative sum of row jumps -- so the cost is
    O(#units) vectorized work, not a Python loop per unit.

    Nothing in *offsets* is trusted.  The stream checks are the ones
    :class:`~repro.compress.ctl.CtlReader` makes (truncated headers,
    varints or bodies, unknown flag bits, zero unit sizes, RJMP
    without NR, a first unit that does not open a row); on top, every
    unit must end exactly where the index puts the next header, and
    the index must start at byte 0 and end at ``len(ctl)``.  A wrong
    index therefore raises :class:`~repro.errors.EncodingError`; it can
    never yield a table that disagrees with the stream.
    """
    data = np.frombuffer(ctl, dtype=np.uint8)
    n = data.size
    off = np.asarray(offsets)
    if off.ndim != 1 or off.size == 0 or off.dtype.kind not in "iu":
        raise EncodingError("unit index must be a non-empty 1-D integer array")
    off = off.astype(np.int64)
    if int(off[0]) != 0:
        raise EncodingError(f"unit index starts at byte {int(off[0])}, not 0")
    heads = off[:-1]
    claimed_ends = off[1:]
    if (claimed_ends <= heads).any():
        raise EncodingError("unit index is not strictly increasing")
    if heads.size and int(heads[-1]) + 2 > n:
        raise EncodingError("truncated unit header")

    flags = data[heads]
    sizes = data[heads + 1].astype(np.int64)
    unknown = int(np.bitwise_or.reduce(flags & ~np.uint8(_KNOWN_MASK)))
    if unknown:
        raise EncodingError(f"unknown flag bits 0x{unknown:02x}")
    if bool((sizes == 0).any()):
        raise EncodingError("unit size 0 is invalid")
    new_row = (flags & FLAG_NR) != 0
    rjmp = (flags & FLAG_RJMP) != 0
    seq = (flags & FLAG_SEQ) != 0
    if bool((rjmp & ~new_row).any()):
        raise EncodingError("RJMP flag without NR")
    if heads.size and not new_row[0]:
        raise EncodingError("stream does not start with a new-row unit")

    # Header varints, in wire order: [rjmp extra], ujmp, [stride].
    pos = heads + 2
    jumps = new_row.astype(np.int64)
    sel = np.flatnonzero(rjmp)
    if sel.size:
        extra, pos[sel] = _varints_at(data, pos[sel])
        jumps[sel] += extra
    ujmps, pos = _varints_at(data, pos)
    strides = np.zeros(heads.size, dtype=np.int64)
    sel = np.flatnonzero(seq)
    if sel.size:
        strides[sel], pos[sel] = _varints_at(data, pos[sel])
    body_offsets = pos
    classes = (flags & 0x03).astype(np.int8)
    ends = body_offsets + np.where(seq, 0, (sizes - 1) * _WIDTH_BYTES_ARR[classes])
    if int(ends.max(initial=0)) > n:
        raise EncodingError("truncated fixed-width run")
    wrong = np.flatnonzero(ends != claimed_ends)
    if wrong.size:
        u = int(wrong[0])
        raise EncodingError(
            f"unit {u} ends at byte {int(ends[u])} but the unit index puts "
            f"the next header at {int(claimed_ends[u])}"
        )
    if int(off[-1]) != n:
        raise EncodingError(
            f"unit index covers {int(off[-1])} bytes, the stream has {n}"
        )
    # Rows start at -1, so the first unit's jump lands on row jump - 1.
    # Every jump is at most 2**63 (int64 arithmetic wraps, but the sum
    # stays exact modulo 2**64), so a row past the int64 range first
    # shows as a negative running sum.
    jumps[:1] -= 1
    rows = np.cumsum(jumps)
    if int(rows.min(initial=0)) < 0:
        raise EncodingError("row index exceeds the int64 range")
    return UnitTable(
        flags=flags,
        sizes=sizes,
        classes=classes,
        rows=rows,
        new_row=new_row,
        seq=seq,
        ujmps=ujmps,
        strides=strides,
        body_offsets=body_offsets,
        ctl_offsets=off,
    )


def _header_offsets(ctl) -> list[int]:
    """Every unit's header offset in *ctl*, then where the last unit ends.

    The one per-unit Python loop left: it reads each header's flag and
    size bytes, skips the varints by their continuation bits and the
    body by its width, and records nothing else.  It never raises --
    a malformed stream yields offsets that :func:`table_from_offsets`
    rejects, with the message naming what is wrong.
    """
    n = len(ctl)
    pos = 0
    offsets: list[int] = []
    append = offsets.append
    width_bytes = WIDTH_BYTES
    while pos < n:
        append(pos)
        if pos + 2 > n:
            pos += 2
            break
        flags = ctl[pos]
        usize = ctl[pos + 1]
        pos += 2
        # Varints in the header: [rjmp extra], ujmp, [stride].
        for _ in range(1 + bool(flags & FLAG_RJMP) + bool(flags & FLAG_SEQ)):
            while pos < n and ctl[pos] & 0x80:
                pos += 1
            pos += 1
        if usize and not flags & FLAG_SEQ:
            pos += (usize - 1) * width_bytes[flags & 0x03]
    append(pos)
    return offsets


def scan_units(ctl: bytes) -> UnitTable:
    """Parse every unit header of *ctl* (bodies skipped).

    A Python walk finds the header offsets; :func:`table_from_offsets`
    decodes and checks every field from them.  Raises
    :class:`~repro.errors.EncodingError` on the same malformed streams
    :class:`~repro.compress.ctl.CtlReader` rejects: truncated headers,
    varints or bodies, unknown flag bits, zero unit sizes, RJMP without
    NR, and streams that do not open with a new-row unit -- and on
    rows, jumps or strides past the int64 range the table stores.
    """
    return table_from_offsets(ctl, np.asarray(_header_offsets(ctl), dtype=np.int64))


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``[start, start + len)`` ranges, as one int64 array.

    ``_ranges([3, 10], [2, 3]) == [3, 4, 10, 11, 12]``.  Zero-length
    ranges must be filtered out by the caller.
    """
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        ends = np.cumsum(lens)
        out[ends[:-1]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


class _ClassGroup:
    """Per-call decode state for one width class's plain multi-delta units."""

    __slots__ = ("dtype", "body_index", "base_idx", "rest_pos", "firsts_rep")

    def __init__(self, dtype, body_index, base_idx, rest_pos, firsts_rep):
        self.dtype = dtype
        self.body_index = body_index  # byte gather index into the ctl stream
        self.base_idx = base_idx  # per delta: its unit's start in the class stream
        self.rest_pos = rest_pos  # per delta: global element position
        self.firsts_rep = firsts_rep  # per delta: its unit's first column


class BatchedColumnDecoder:
    """Width-class batched decode of a ctl stream's column indices.

    Built once per matrix (the *plan build*); :meth:`columns` then
    yields the absolute column index of every nonzero with O(#classes)
    NumPy passes.  The integer arithmetic is exact, so the result is
    element-for-element identical to the unitwise decoder's.

    Static structure -- sequential-unit ramps, singleton columns and
    every unit's first column -- is resolved at build time into a
    template; per call only the fixed-width delta bodies are re-read
    from the stream (they are the only per-element bytes the stream
    stores for plain units; SEQ units store a single stride varint
    that the header scan already consumed).
    """

    def __init__(self, ctl: bytes, table: UnitTable, nnz: int):
        self.table = table
        self._ctl_arr = np.frombuffer(ctl, dtype=np.uint8)
        sizes = table.sizes
        nunits = table.nunits
        offsets = np.zeros(nunits + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        if int(offsets[-1]) != nnz:
            raise EncodingError(
                f"ctl stream decodes {int(offsets[-1])} nonzeros, expected {nnz}"
            )
        self.offsets = offsets
        self.nnz = nnz

        plain = ~table.seq
        multi = plain & (sizes > 1)
        groups: list[_ClassGroup] = []
        delta_sums = np.zeros(nunits, dtype=np.int64)
        for cls in range(4):
            sel = np.flatnonzero(multi & (table.classes == cls))
            if not sel.size:
                continue
            width = WIDTH_BYTES[cls]
            lens = sizes[sel] - 1
            body_index = _ranges(table.body_offsets[sel], lens * width)
            dstarts = np.zeros(sel.size, dtype=np.int64)
            np.cumsum(lens[:-1], out=dstarts[1:])
            rep = np.repeat(np.arange(sel.size, dtype=np.intp), lens)
            group = _ClassGroup(
                dtype=WIDTH_DTYPES[cls],
                body_index=body_index,
                base_idx=dstarts[rep],
                rest_pos=_ranges(offsets[sel] + 1, lens),
                firsts_rep=sel[rep],  # patched to first columns below
            )
            # Decode this class once now: the per-unit delta sums feed
            # the first-column reconstruction.
            ext = self._class_prefix_sums(group)
            delta_sums[sel] = ext[dstarts + lens] - ext[dstarts]
            groups.append((sel, rep, group))

        sel_seq = np.flatnonzero(table.seq)
        if sel_seq.size:
            delta_sums[sel_seq] = table.strides[sel_seq] * (sizes[sel_seq] - 1)

        # Units chain within a row: each unit spans ujmp + sum(deltas)
        # columns from the previous nonzero (column 0 at a row start).
        # A cumulative sum over unit spans, restarted at new-row units,
        # gives every unit's last column; first = last - sum(deltas).
        spans = table.ujmps + delta_sums
        ext_span = np.zeros(nunits + 1, dtype=np.int64)
        np.cumsum(spans, out=ext_span[1:])
        if nunits:
            row_start_units = np.flatnonzero(table.new_row)
            grp = np.cumsum(table.new_row) - 1
            last_cols = ext_span[1:] - ext_span[row_start_units][grp]
        else:
            last_cols = np.empty(0, dtype=np.int64)
        self.first_cols = last_cols - delta_sums
        self.last_cols = last_cols

        # Static column template: unit first elements, SEQ ramps and
        # singletons never change between calls.
        static = np.zeros(nnz, dtype=np.int64)
        if nunits:
            static[offsets[:-1]] = self.first_cols
        seq_multi = np.flatnonzero(table.seq & (sizes > 1))
        if seq_multi.size:
            lens = sizes[seq_multi] - 1
            rep = np.repeat(np.arange(seq_multi.size, dtype=np.intp), lens)
            ramp = _ranges(np.ones(seq_multi.size, dtype=np.int64), lens)
            static[_ranges(offsets[seq_multi] + 1, lens)] = (
                self.first_cols[seq_multi][rep] + table.strides[seq_multi][rep] * ramp
            )
        self._static_cols = static
        self._groups = [g for _, _, g in groups]
        for sel, rep, g in groups:
            g.firsts_rep = self.first_cols[sel][rep]

    def _class_prefix_sums(self, group: _ClassGroup) -> np.ndarray:
        """Gather one class's delta bytes and return ``[0, cumsum(deltas)]``."""
        raw = self._ctl_arr[group.body_index]
        deltas = raw.view(group.dtype)
        ext = np.empty(deltas.size + 1, dtype=np.int64)
        ext[0] = 0
        np.cumsum(deltas, out=ext[1:])
        return ext

    def columns(self) -> np.ndarray:
        """Absolute column of every nonzero (fresh int64 array per call).

        Per width class: gather the delta bytes from the ctl stream,
        reinterpret at the fixed width, prefix-sum with per-unit
        restarts, add the unit first columns, scatter into place.
        """
        cols = self._static_cols.copy()
        for g in self._groups:
            ext = self._class_prefix_sums(g)
            cols[g.rest_pos] = g.firsts_rep + ext[1:] - ext[g.base_idx]
        return cols
