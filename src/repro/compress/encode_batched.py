"""Vectorized one-pass CSR-DU encode (the *batched* encoder).

The reference encoder (:func:`repro.compress.delta.unitize` feeding
:class:`repro.compress.ctl.CtlWriter`) pays Python-interpreter work per
*unit*: one ``Unit`` dataclass allocation, one ``append`` call, and
byte-at-a-time varint emission.  After PR 2 made decode O(#classes)
NumPy passes, that per-unit encode loop became the wall-clock bottleneck
of every conversion-heavy workload (bench sweeps, parallel chunk
construction).  This module removes it: the whole matrix is encoded
with a constant number of NumPy passes over O(nnz) data, and the output
is **byte-for-byte identical** to the reference stream -- the
``CtlWriter`` path stays in the tree as the executable specification
the tests compare against.

The pipeline (DESIGN.md section 4.3 has the layout math):

1. **Deltas and classes** -- :func:`repro.compress.delta.matrix_deltas`
   (shared with the reference encoder): per-element column deltas with
   row restarts, plus each delta's width class.
2. **Segments** -- element ranges split independently: one per
   non-empty row (``greedy``/``aligned``), further split at
   constant-delta runs of length >= ``MIN_SEQ_RUN + 1`` (``seq``).
3. **Emitters** -- maximal equal-class runs inside plain segments (one
   emitter per sequential segment).  The greedy policy's "steal a
   lone out-of-class delta as the next unit's ujmp" rule becomes a
   parity computation over blocks of consecutive singleton runs: the
   1st, 3rd, ... singleton of each block is *pending* (absorbed by the
   next emitter) unless it closes its segment.
4. **Units** -- per emitter, pure arithmetic: an optional absorbed
   first unit of ``1 + min(len, max_unit - 1)`` elements, then a chop
   into units of ``max_unit`` elements with an arithmetic remainder.
   ``np.repeat`` expands emitters into the unit table; a cumulative
   sum of unit sizes recovers each unit's first element, which *is*
   its ujmp position (units tile the element space in order).
5. **Serialization** -- per-unit byte sizes from vectorized varint
   sizing, an exclusive prefix sum for the ctl offsets, then scatters:
   flags/usize bytes, varint fields (:func:`repro.util.bitops.
   scatter_varints`, one pass per byte of the longest varint), and the
   fixed-width delta bodies grouped by width class (one gather +
   ``astype`` + byte scatter per class).

Because step 5 computes every unit's header and body offset exactly,
the encoder emits the decode side's
:class:`~repro.compress.unit_table.UnitTable` for free -- kernel plans
built from a batched encode skip the per-unit ``scan_units`` parse
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.ctl import FLAG_NR, FLAG_RJMP, FLAG_SEQ
from repro.compress.delta import (
    MAX_UNIT_SIZE,
    MIN_SEQ_RUN,
    _POLICIES,
    matrix_deltas,
)
from repro.compress.unit_table import _WIDTH_BYTES_ARR, UnitTable, _ranges
from repro.errors import EncodingError, FormatError
from repro.telemetry import core as telemetry
from repro.telemetry.metrics import record_ctl_stream
from repro.util.bitops import (
    WIDTH_BYTES,
    WIDTH_DTYPES,
    scatter_varints,
    varint_size_array,
)


@dataclass(frozen=True)
class BatchedEncode:
    """One batched encode: the ctl stream plus its decode-side table.

    Attributes
    ----------
    ctl:
        The serialized stream, byte-identical to the reference
        :class:`~repro.compress.ctl.CtlWriter` output.
    table:
        The exact :class:`~repro.compress.unit_table.UnitTable` that
        ``scan_units(ctl)`` would reconstruct -- handed to kernel plans
        so they skip the per-unit header parse.
    class_counts:
        Units per delta width class (the paper's Table I census).
    new_rows, seq_units:
        NR-flagged and sequential-unit tallies of the stream.
    """

    ctl: bytes
    table: UnitTable
    class_counts: tuple[int, int, int, int]
    new_rows: int
    seq_units: int

    @property
    def nunits(self) -> int:
        return self.table.nunits


def _empty_encode() -> BatchedEncode:
    empty64 = np.empty(0, dtype=np.int64)
    table = UnitTable(
        flags=np.empty(0, dtype=np.uint8),
        sizes=empty64,
        classes=np.empty(0, dtype=np.int8),
        rows=empty64,
        new_row=np.empty(0, dtype=bool),
        seq=np.empty(0, dtype=bool),
        ujmps=empty64,
        strides=empty64,
        body_offsets=empty64,
        ctl_offsets=np.zeros(1, dtype=np.int64),
    )
    return BatchedEncode(
        ctl=b"", table=table, class_counts=(0, 0, 0, 0), new_rows=0, seq_units=0
    )


def _segment_masks(
    deltas: np.ndarray, starts: np.ndarray, policy: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element ``(segment_start, in_seq_segment)`` masks.

    Plain segments are the spans the reference's ``_split_plain`` sees
    (whole rows, or the gaps between sequential runs); seq segments are
    the constant-delta runs of length >= ``MIN_SEQ_RUN + 1`` that
    ``_split_seq`` carves out.
    """
    n = deltas.size
    row_start = np.zeros(n, dtype=bool)
    row_start[starts] = True
    if policy != "seq":
        return row_start, np.zeros(n, dtype=bool)
    new_const_run = row_start.copy()
    np.logical_or(new_const_run[1:], deltas[1:] != deltas[:-1], out=new_const_run[1:])
    run_id = np.cumsum(new_const_run) - 1
    run_starts = np.flatnonzero(new_const_run)
    run_lens = np.diff(np.append(run_starts, n))
    in_seq = (run_lens >= MIN_SEQ_RUN + 1)[run_id]
    prev_seq = np.zeros(n, dtype=bool)
    prev_seq[1:] = in_seq[:-1]
    # A segment opens at every row start, at every transition in or out
    # of a sequential stretch, and at each new sequential run (two
    # adjacent constant runs can both qualify, with different strides).
    seg_start = row_start | (in_seq != prev_seq) | (in_seq & new_const_run)
    return seg_start, in_seq


def _pending_mask(
    e_lens: np.ndarray,
    e_seg: np.ndarray,
    e_seq: np.ndarray,
    e_last_in_seg: np.ndarray,
    policy: str,
) -> np.ndarray:
    """Greedy absorption: which emitters are held back as a ujmp.

    The reference's running ``pending`` state alternates strictly
    inside any block of consecutive singleton class runs (a pending
    singleton is always consumed by the very next run), so the 1st,
    3rd, ... member of each block is pending -- except a singleton that
    closes its segment, which the reference never holds back.
    """
    nem = e_lens.size
    if policy == "aligned" or nem == 0:
        return np.zeros(nem, dtype=bool)
    sing = ~e_seq & (e_lens == 1)
    prev_sing = np.zeros(nem, dtype=bool)
    prev_sing[1:] = sing[:-1] & (e_seg[1:] == e_seg[:-1])
    block_start = sing & ~prev_sing
    idx = np.arange(nem, dtype=np.int64)
    block_head = np.maximum.accumulate(np.where(block_start, idx, -1))
    return sing & ((idx - block_head) % 2 == 0) & ~e_last_in_seg


def unit_layout(
    row_ptr: np.ndarray,
    col_ind: np.ndarray,
    *,
    policy: str = "greedy",
    max_unit: int = MAX_UNIT_SIZE,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Whole-matrix unit table as parallel arrays (no per-unit Python).

    Returns ``(deltas, units)`` where *units* maps field names --
    ``sizes``, ``classes``, ``ujmps``, ``seq``, ``strides``,
    ``body_starts`` (element index of each unit's fixed-width body),
    ``new_row``, ``row_jumps``, ``rows`` -- to one array per field, in
    stream order.  This is the structural half of the batched encoder;
    :func:`encode_ctl_batched` serializes it.
    """
    if policy not in _POLICIES:
        raise FormatError(f"unknown unit policy {policy!r}; choose from {_POLICIES}")
    if not 2 <= max_unit <= MAX_UNIT_SIZE:
        raise FormatError(f"max_unit must be in [2, {MAX_UNIT_SIZE}]")
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    col_ind = np.asarray(col_ind, dtype=np.int64)
    deltas, classes, starts = matrix_deltas(row_ptr, col_ind)
    n = deltas.size
    if n == 0:
        return deltas, {
            "sizes": np.empty(0, dtype=np.int64),
            "classes": np.empty(0, dtype=np.int8),
            "ujmps": np.empty(0, dtype=np.int64),
            "seq": np.empty(0, dtype=bool),
            "strides": np.empty(0, dtype=np.int64),
            "body_starts": np.empty(0, dtype=np.int64),
            "new_row": np.empty(0, dtype=bool),
            "row_jumps": np.empty(0, dtype=np.int64),
            "rows": np.empty(0, dtype=np.int64),
        }

    # -- segments and emitters (class runs / sequential runs) ---------
    seg_start, in_seq = _segment_masks(deltas, starts, policy)
    seg_id = np.cumsum(seg_start) - 1
    class_change = np.zeros(n, dtype=bool)
    class_change[1:] = classes[1:] != classes[:-1]
    emit_start = seg_start | (class_change & ~in_seq)
    e_starts = np.flatnonzero(emit_start)
    nem = e_starts.size
    e_ends = np.append(e_starts[1:], n)
    e_lens = e_ends - e_starts
    e_seg = seg_id[e_starts]
    e_seq = in_seq[e_starts]
    e_cls = classes[e_starts].astype(np.int64)
    e_last_in_seg = np.empty(nem, dtype=bool)
    e_last_in_seg[:-1] = e_seg[1:] != e_seg[:-1]
    e_last_in_seg[-1:] = True

    # -- greedy absorption --------------------------------------------
    pending = _pending_mask(e_lens, e_seg, e_seq, e_last_in_seg, policy)
    absorbed = np.zeros(nem, dtype=bool)
    absorbed[1:] = pending[:-1]

    # -- per-emitter unit counts (pure arithmetic) --------------------
    b0 = np.where(absorbed, np.minimum(e_lens, max_unit - 1), 0)
    chop = e_lens - b0  # elements left for the fixed chop
    k_chop = -(-chop // max_unit)  # ceil; 0 when the absorbed unit took all
    n_units = np.where(pending, 0, absorbed.astype(np.int64) + k_chop)
    rem = chop - (k_chop - 1) * max_unit  # size of each emitter's last chop unit

    # -- expand to units ----------------------------------------------
    total = int(n_units.sum())
    owner = np.repeat(np.arange(nem, dtype=np.int64), n_units)
    first_of_owner = np.repeat(np.cumsum(n_units) - n_units, n_units)
    j = np.arange(total, dtype=np.int64) - first_of_owner
    is_absorbed_unit = absorbed[owner] & (j == 0)
    is_last_chop = (j - absorbed[owner]) == (k_chop[owner] - 1)
    sizes = np.where(
        is_absorbed_unit,
        1 + b0[owner],
        np.where(is_last_chop, rem[owner], max_unit),
    )
    if int(sizes.sum()) != n:  # pragma: no cover - internal invariant
        raise EncodingError("batched unit layout does not tile the nonzeros")

    # Units tile the element space in order, so a cumulative size sum
    # is every unit's first consumed element -- its ujmp position (the
    # pending delta sits immediately before its absorbing run).
    elem_off = np.zeros(total, dtype=np.int64)
    np.cumsum(sizes[:-1], out=elem_off[1:])
    u_seq = e_seq[owner]
    u_cls = np.where(u_seq | (sizes < 2), 0, e_cls[owner]).astype(np.int8)
    ujmps = deltas[elem_off]
    # A sequential unit's stride is its constant delta -- except a
    # size-1 remainder unit has no body deltas at all, and the
    # reference Unit.stride defaults to 1 there.
    strides = np.where(u_seq, np.where(sizes > 1, ujmps, 1), 0)

    rows = np.searchsorted(row_ptr, elem_off, side="right") - 1
    new_row = np.zeros(total, dtype=bool)
    new_row[0] = True
    new_row[1:] = rows[1:] != rows[:-1]
    prev_rows = np.empty(total, dtype=np.int64)
    prev_rows[0] = -1
    prev_rows[1:] = rows[:-1]
    row_jumps = np.where(new_row, rows - prev_rows, 1)

    return deltas, {
        "sizes": sizes,
        "classes": u_cls,
        "ujmps": ujmps,
        "seq": u_seq,
        "strides": strides,
        "body_starts": elem_off + 1,
        "new_row": new_row,
        "row_jumps": row_jumps,
        "rows": rows,
    }


def _serialize(deltas: np.ndarray, u: dict[str, np.ndarray]) -> BatchedEncode:
    """Scatter the unit layout into one preallocated ctl byte buffer."""
    sizes = u["sizes"]
    total = sizes.size
    u_cls = u["classes"].astype(np.int64)
    u_seq = u["seq"]
    new_row = u["new_row"]
    rjmp = new_row & (u["row_jumps"] > 1)

    flags = u["classes"].astype(np.uint8)
    flags |= np.where(new_row, np.uint8(FLAG_NR), np.uint8(0))
    flags |= np.where(rjmp, np.uint8(FLAG_RJMP), np.uint8(0))
    flags |= np.where(u_seq, np.uint8(FLAG_SEQ), np.uint8(0))

    rjmp_extra = u["row_jumps"] - 1
    rjmp_sz = np.zeros(total, dtype=np.int64)
    if rjmp.any():
        rjmp_sz[rjmp] = varint_size_array(rjmp_extra[rjmp])
    ujmp_sz = varint_size_array(u["ujmps"])
    stride_sz = np.zeros(total, dtype=np.int64)
    if u_seq.any():
        stride_sz[u_seq] = varint_size_array(u["strides"][u_seq])
    body_bytes = np.where(u_seq, 0, (sizes - 1) * _WIDTH_BYTES_ARR[u_cls])
    unit_bytes = 2 + rjmp_sz + ujmp_sz + stride_sz + body_bytes

    offsets = np.zeros(total, dtype=np.int64)
    np.cumsum(unit_bytes[:-1], out=offsets[1:])
    stream_len = int(offsets[-1]) + int(unit_bytes[-1]) if total else 0

    buf = np.zeros(stream_len, dtype=np.uint8)
    buf[offsets] = flags
    buf[offsets + 1] = sizes.astype(np.uint8)
    pos = offsets + 2
    if rjmp.any():
        scatter_varints(buf, rjmp_extra[rjmp], pos[rjmp], rjmp_sz[rjmp])
    pos = pos + rjmp_sz
    scatter_varints(buf, u["ujmps"], pos, ujmp_sz)
    pos = pos + ujmp_sz
    if u_seq.any():
        scatter_varints(buf, u["strides"][u_seq], pos[u_seq], stride_sz[u_seq])
    body_offsets = pos + stride_sz

    body_starts = u["body_starts"]
    for cls in range(4):
        sel = np.flatnonzero(~u_seq & (u_cls == cls) & (sizes > 1))
        if not sel.size:
            continue
        lens = sizes[sel] - 1
        elems = deltas[_ranges(body_starts[sel], lens)]
        raw = elems.astype(WIDTH_DTYPES[cls]).view(np.uint8)
        buf[_ranges(body_offsets[sel], lens * WIDTH_BYTES[cls])] = raw

    table = UnitTable(
        flags=flags,
        sizes=sizes,
        classes=u["classes"],
        rows=u["rows"],
        new_row=new_row,
        seq=u_seq,
        ujmps=u["ujmps"],
        strides=u["strides"],
        body_offsets=body_offsets,
        ctl_offsets=np.append(offsets, stream_len),
    )
    counts = np.bincount(u_cls, minlength=4)
    return BatchedEncode(
        ctl=buf.tobytes(),
        table=table,
        class_counts=(int(counts[0]), int(counts[1]), int(counts[2]), int(counts[3])),
        new_rows=int(new_row.sum()),
        seq_units=int(u_seq.sum()),
    )


def encode_ctl_batched(
    row_ptr: np.ndarray,
    col_ind: np.ndarray,
    *,
    policy: str = "greedy",
    max_unit: int = MAX_UNIT_SIZE,
) -> BatchedEncode:
    """Encode a CSR structure to a ctl stream in vectorized passes.

    The result's ``ctl`` is byte-identical to the reference
    ``unitize`` + ``CtlWriter`` pipeline; its ``table`` is identical to
    ``scan_units(ctl)``.  Emits an ``encode.batched`` span carrying the
    unit/byte census, plus the same ``encode.csr_du.*`` counters the
    reference writer reports, so traces look the same either way.
    """
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    col_ind = np.asarray(col_ind, dtype=np.int64)
    with telemetry.span(
        "encode.batched",
        kind="csr-du",
        policy=policy,
        nrows=row_ptr.size - 1,
        nnz=col_ind.size,
    ) as sp:
        if col_ind.size == 0:
            if policy not in _POLICIES:
                raise FormatError(
                    f"unknown unit policy {policy!r}; choose from {_POLICIES}"
                )
            if not 2 <= max_unit <= MAX_UNIT_SIZE:
                raise FormatError(f"max_unit must be in [2, {MAX_UNIT_SIZE}]")
            result = _empty_encode()
        else:
            deltas, units = unit_layout(
                row_ptr, col_ind, policy=policy, max_unit=max_unit
            )
            result = _serialize(deltas, units)
        sp.add(nunits=result.nunits, ctl_bytes=len(result.ctl))
        if telemetry.enabled():
            record_ctl_stream(
                list(result.class_counts),
                new_rows=result.new_rows,
                seq_units=result.seq_units,
                ctl_bytes=len(result.ctl),
            )
    return result


def pack_value_index(inverse: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """CSR-VI ``val_ind`` packing through the batched pack path.

    The unique-value indexing itself is already one ``np.unique`` call;
    this narrows the inverse permutation to the addressing width in one
    vectorized cast and reports the packed byte count under the same
    ``encode.batched`` span the CSR-DU encoder uses, so setup-cost
    attribution sees both formats' encode work uniformly.
    """
    with telemetry.span(
        "encode.batched", kind="csr-vi", nnz=int(np.asarray(inverse).size)
    ) as sp:
        packed = np.ascontiguousarray(np.asarray(inverse).astype(dtype, copy=False))
        sp.add(val_ind_bytes=packed.nbytes)
    return packed
