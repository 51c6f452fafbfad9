"""Vectorized unit-table decode from a unit index (``table_from_offsets``).

Parity: on every stream the encoders can produce -- each policy, all
four width classes, SEQ units, RJMP row gaps, empty rows, the empty
matrix -- the table decoded from the header offsets equals the one the
reference decoders (:class:`~repro.compress.ctl.CtlReader`,
:func:`~repro.compress.ctl.decode_units`) describe, field for field,
values and dtypes.  Faults: an index that disagrees with the stream in
any way raises :class:`~repro.errors.EncodingError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.ctl import CtlWriter
from repro.compress.delta import MAX_UNIT_SIZE, _POLICIES, Unit, unitize
from repro.compress.encode_batched import encode_ctl_batched
from repro.compress.unit_table import scan_units, table_from_offsets
from repro.errors import EncodingError

from tests.compress.unit_oracle import assert_table_equals, oracle_table


def reference_ctl(row_ptr, col_ind, policy, max_unit):
    w = CtlWriter()
    for unit in unitize(row_ptr, col_ind, policy=policy, max_unit=max_unit):
        w.append(unit)
    return w.getvalue()


def from_rows(rows):
    """(row_ptr, col_ind) from per-row sorted column lists."""
    lens = [len(r) for r in rows]
    row_ptr = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    cols = [c for r in rows for c in r]
    return row_ptr, np.asarray(cols, dtype=np.int64)


def check_parity(row_ptr, col_ind, policy, max_unit=MAX_UNIT_SIZE):
    """Both encoders' streams decode to the oracle's table."""
    enc = encode_ctl_batched(row_ptr, col_ind, policy=policy, max_unit=max_unit)
    ctl = reference_ctl(row_ptr, col_ind, policy, max_unit)
    assert enc.ctl == ctl
    want = oracle_table(ctl)
    assert_table_equals(table_from_offsets(ctl, want["ctl_offsets"]), want)
    assert_table_equals(table_from_offsets(ctl, enc.table.ctl_offsets), want)
    assert_table_equals(scan_units(ctl), want)
    assert_table_equals(enc.table, want)
    return want


# Rows of sorted unique columns; empties included (RJMP path), column
# range spans the u8/u16/u32/u64 delta classes (up to > 2^32 deltas).
row_columns = st.lists(
    st.integers(min_value=0, max_value=1 << 35), min_size=0, max_size=24
).map(lambda xs: sorted(set(xs)))
# Short constant-stride runs so the seq policy emits SEQ units.
strided_row = st.tuples(
    st.integers(0, 1000), st.integers(1, 300), st.integers(0, 40)
).map(lambda t: [t[0] + t[1] * k for k in range(t[2])])
matrices = st.lists(st.one_of(row_columns, strided_row), min_size=1, max_size=12)


class TestParity:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=matrices,
        policy=st.sampled_from(_POLICIES),
        max_unit=st.sampled_from([2, 3, 7, MAX_UNIT_SIZE]),
    )
    def test_encoded_streams(self, rows, policy, max_unit):
        row_ptr, col_ind = from_rows(rows)
        check_parity(row_ptr, col_ind, policy, max_unit)

    @pytest.mark.parametrize("policy", _POLICIES)
    def test_every_policy_and_width_class(self, policy):
        """Bodies of 1, 2, 4 and 8 B deltas, SEQ runs, empty rows, RJMP."""
        rows = [
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],  # stride-1 run
            [],
            [],  # a two-row gap: RJMP extra 2
            [0, 300, 700, 1200],  # u16 deltas
            [0, 70_000, 150_000, 240_000],  # u32 deltas
            [0, 1 << 33, (1 << 34) + 7, 1 << 35],  # u64 deltas
            list(range(0, 600, 3)),  # long stride-3 run, chopped units
            [],
            [5],  # singleton
        ]
        want = check_parity(*from_rows(rows), policy)
        assert want["new_row"].sum() == 6
        assert ((want["flags"] & 0x20) != 0).sum() == 2  # two RJMP units
        assert set(want["classes"].tolist()) == {0, 1, 2, 3}
        assert want["seq"].any() == (policy == "seq")

    def test_u64_width_class(self):
        """A hand-built u64-class unit (the encoder never emits one for
        deltas that fit u32, but the wire format allows it)."""
        writer = CtlWriter()
        for row, jump, deltas in ((0, 1, [3, 1, 7]), (2, 2, [40])):
            writer.append(
                Unit(row=row, new_row=True, row_jump=jump, ujmp=2,
                     deltas=np.array(deltas, dtype=np.int64), cls=3, seq=False)
            )
        ctl = writer.getvalue()
        want = oracle_table(ctl)
        assert np.array_equal(want["classes"], [3, 3])
        assert_table_equals(table_from_offsets(ctl, want["ctl_offsets"]), want)
        assert_table_equals(scan_units(ctl), want)

    def test_size_one_seq_unit(self):
        """A SEQ unit of one nonzero keeps its stored stride (1)."""
        writer = CtlWriter()
        writer.append(
            Unit(row=0, new_row=True, row_jump=1, ujmp=4,
                 deltas=np.empty(0, dtype=np.int64), cls=0, seq=True)
        )
        ctl = writer.getvalue()
        table = scan_units(ctl)
        assert table.seq.tolist() == [True] and table.strides.tolist() == [1]
        assert_table_equals(table, oracle_table(ctl))

    def test_empty_matrix(self):
        row_ptr = np.zeros(5, dtype=np.int64)
        want = check_parity(row_ptr, np.empty(0, dtype=np.int64), "greedy")
        assert want["ctl_offsets"].tolist() == [0]
        table = table_from_offsets(b"", np.zeros(1, dtype=np.int64))
        assert table.nunits == 0 and table.nnz == 0

    def test_offsets_are_not_aliased(self):
        """The table owns its ctl_offsets; the caller's index is not kept."""
        ctl = encode_ctl_batched(*from_rows([[0, 2], [1]])).ctl
        index = scan_units(ctl).ctl_offsets.astype(np.uint32)
        table = table_from_offsets(ctl, index)
        assert table.ctl_offsets.dtype == np.int64
        assert not np.shares_memory(table.ctl_offsets, index)


@pytest.fixture(scope="module")
def indexed_stream():
    """A stream with several units of each kind and its true index."""
    rows = [[0, 1, 2, 3, 4, 500, 501], [], [7, 70_000, 70_010], [1, 4, 7, 10, 13]]
    enc = encode_ctl_batched(*from_rows(rows), policy="seq", max_unit=3)
    assert enc.nunits >= 5
    return enc.ctl, enc.table.ctl_offsets


class TestIndexFaults:
    def test_true_index_accepted(self, indexed_stream):
        ctl, offsets = indexed_stream
        assert_table_equals(table_from_offsets(ctl, offsets), oracle_table(ctl))

    def test_offset_shifted_by_one_byte(self, indexed_stream):
        ctl, offsets = indexed_stream
        for i in range(1, offsets.size):
            for step in (-1, 1):
                bad = offsets.copy()
                bad[i] += step
                with pytest.raises(EncodingError):
                    table_from_offsets(ctl, bad)

    def test_dropped_unit(self, indexed_stream):
        ctl, offsets = indexed_stream
        for i in range(1, offsets.size - 1):
            with pytest.raises(EncodingError, match="unit index"):
                table_from_offsets(ctl, np.delete(offsets, i))

    def test_extra_trailing_unit(self, indexed_stream):
        ctl, offsets = indexed_stream
        for extra in (1, 2, 5):
            bad = np.append(offsets, offsets[-1] + extra)
            with pytest.raises(EncodingError):
                table_from_offsets(ctl, bad)

    def test_index_not_ending_at_stream_length(self, indexed_stream):
        ctl, offsets = indexed_stream
        # One unit short: every unit it names parses, the last byte is
        # left over.
        with pytest.raises(EncodingError, match="covers"):
            table_from_offsets(ctl, offsets[:-1])
        bad = offsets.copy()
        bad[-1] += 1
        with pytest.raises(EncodingError):
            table_from_offsets(ctl, bad)
        with pytest.raises(EncodingError):
            table_from_offsets(ctl + b"\x00", offsets)

    def test_malformed_index_arrays(self, indexed_stream):
        ctl, offsets = indexed_stream
        bad_indexes = [
            offsets[1:],  # does not start at byte 0
            offsets[::-1],  # decreasing
            np.insert(offsets, 1, 0),  # repeated offset: an empty unit
            np.empty(0, dtype=np.int64),
            offsets.astype(np.float64),
            offsets.reshape(1, -1),
        ]
        for bad in bad_indexes:
            with pytest.raises(EncodingError):
                table_from_offsets(ctl, bad)
        with pytest.raises(EncodingError):
            table_from_offsets(b"", np.array([0, 3]))
