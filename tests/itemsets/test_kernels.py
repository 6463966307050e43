"""Tests for the intersection kernels behind ECUT-style counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.kernels import (
    TID_BYTES,
    TID_DTYPE,
    WORD_BYTES,
    BitmapTidList,
    count_arrays,
    count_pair,
    count_segments,
    force_kernel,
    intersect_arrays,
    intersect_bitmap_array,
    intersect_bitmaps,
    intersect_gallop,
    intersect_many,
    intersect_merge,
    intersect_pair,
    list_nbytes,
    pack_rows,
)


def arr(*values):
    return np.asarray(values, dtype=TID_DTYPE)


CASES = [
    (arr(), arr()),
    (arr(1, 2, 3), arr()),
    (arr(1, 3, 5, 7), arr(3, 4, 5)),
    (arr(0, 1, 2, 3), arr(0, 1, 2, 3)),
    (arr(1, 2), arr(3, 4)),
    (arr(5), arr(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
]


class TestArrayKernels:
    @pytest.mark.parametrize("a,b", CASES)
    def test_kernels_agree_with_reference(self, a, b):
        expected = np.intersect1d(a, b).tolist()  # demonlint: disable=DML006 (reference oracle)
        assert intersect_gallop(a, b).tolist() == expected
        assert intersect_merge(a, b).tolist() == expected
        assert intersect_arrays(a, b).tolist() == expected
        assert count_arrays(a, b) == len(expected)

    @pytest.mark.parametrize("a,b", CASES)
    @pytest.mark.parametrize("kernel", ["gallop", "merge"])
    def test_forced_kernels_agree(self, a, b, kernel):
        expected = np.intersect1d(a, b).tolist()  # demonlint: disable=DML006 (reference oracle)
        with force_kernel(kernel):
            assert intersect_arrays(a, b).tolist() == expected
            assert count_arrays(a, b) == len(expected)

    def test_force_kernel_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            with force_kernel("bogus"):
                pass

    def test_force_kernel_restores_on_exit(self):
        skewed = (arr(5), arr(*range(100)))
        with force_kernel("merge"):
            pass
        # Back to adaptive: a 1-vs-100 skew must not error and must
        # still match the reference result.
        assert intersect_arrays(*skewed).tolist() == [5]

    def test_gallop_element_past_end_of_large(self):
        # The clamped searchsorted position compares against large[-1];
        # a probe beyond it must not match.
        assert intersect_gallop(arr(99), arr(1, 2, 3)).tolist() == []


class TestCountSegments:
    def test_matches_per_probe_counts(self):
        running = arr(0, 2, 4, 6, 8, 10)
        probes = [arr(2, 3, 4), arr(), arr(10, 11), arr(1, 3, 5)]
        expected = [count_arrays(running, p) for p in probes]
        assert count_segments(running, probes) == expected == [2, 0, 1, 0]

    def test_empty_probe_list(self):
        assert count_segments(arr(1, 2), []) == []

    def test_empty_running(self):
        assert count_segments(arr(), [arr(1), arr(2, 3)]) == [0, 0]

    def test_forced_merge_stays_honest(self):
        running = arr(0, 2, 4, 6)
        probes = [arr(2, 4), arr(5)]
        with force_kernel("merge"):
            assert count_segments(running, probes) == [2, 0]


class TestBitmap:
    def test_roundtrip(self):
        tids = arr(3, 7, 64, 65, 127)
        bitmap = BitmapTidList.from_array(tids, base=0, size=128)
        assert bitmap.to_array().tolist() == tids.tolist()
        assert len(bitmap) == 5

    def test_roundtrip_with_base(self):
        tids = arr(100, 130, 199)
        bitmap = BitmapTidList.from_array(tids, base=100, size=100)
        assert bitmap.to_array().tolist() == tids.tolist()

    def test_nbytes_is_word_granular(self):
        bitmap = BitmapTidList.from_array(arr(0), base=0, size=130)
        assert bitmap.nbytes == 3 * WORD_BYTES
        assert list_nbytes(bitmap) == bitmap.nbytes

    def test_words_are_frozen(self):
        bitmap = BitmapTidList.from_array(arr(1, 2), base=0, size=128)
        with pytest.raises(ValueError):
            bitmap.words[0] = 0

    def test_intersect_bitmaps(self):
        a = BitmapTidList.from_array(arr(1, 2, 3, 70), base=0, size=128)
        b = BitmapTidList.from_array(arr(2, 70, 100), base=0, size=128)
        result = intersect_bitmaps(a, b)
        assert result.to_array().tolist() == [2, 70]
        assert result.count == 2

    def test_intersect_bitmaps_block_mismatch(self):
        a = BitmapTidList.from_array(arr(1), base=0, size=128)
        b = BitmapTidList.from_array(arr(129), base=128, size=128)
        with pytest.raises(ValueError):
            intersect_bitmaps(a, b)

    def test_intersect_bitmap_array(self):
        bitmap = BitmapTidList.from_array(arr(1, 2, 3, 70), base=0, size=128)
        assert intersect_bitmap_array(bitmap, arr(2, 5, 70)).tolist() == [2, 70]
        assert intersect_bitmap_array(bitmap, arr()).tolist() == []


class TestUnifiedDispatch:
    def _reps(self, tids):
        return [tids, BitmapTidList.from_array(tids, base=0, size=128)]

    def test_intersect_pair_all_representation_combos(self):
        left, right = arr(1, 2, 3, 70), arr(2, 70, 100)
        expected = [2, 70]
        for a in self._reps(left):
            for b in self._reps(right):
                result = intersect_pair(a, b)
                got = (
                    result.to_array()
                    if isinstance(result, BitmapTidList)
                    else result
                )
                assert got.tolist() == expected
                assert count_pair(a, b) == 2

    def test_intersect_many_mixed(self):
        lists = [
            arr(1, 2, 3, 70, 100),
            BitmapTidList.from_array(arr(2, 3, 70, 100), base=0, size=128),
            arr(2, 70, 101),
        ]
        result = intersect_many(lists)
        got = result.to_array() if isinstance(result, BitmapTidList) else result
        assert got.tolist() == [2, 70]

    def test_intersect_many_empty_input(self):
        assert len(intersect_many([])) == 0


class TestPackRows:
    def test_rows_match_packbits(self):
        block_size = 21
        arrays = [arr(0, 3, 20), arr(), arr(7)]
        rows = pack_rows(arrays, base_tid=0, block_size=block_size)
        assert rows.shape == (3, (block_size + 7) >> 3)
        for r, tids in enumerate(arrays):
            dense = np.zeros(block_size, dtype=bool)
            dense[tids] = True
            expected = np.packbits(dense, bitorder="little")
            assert rows[r].tolist() == expected.tolist()

    def test_base_tid_offset(self):
        rows = pack_rows([arr(10, 12)], base_tid=10, block_size=8)
        assert rows[0].tolist() == [0b101]

    def test_byte_compatible_with_bitmap_words(self):
        tids = arr(0, 9, 63, 64, 127)
        bitmap = BitmapTidList.from_array(tids, base=0, size=128)
        rows = pack_rows([tids], base_tid=0, block_size=128)
        assert rows[0].tolist() == bitmap.words.view(np.uint8).tolist()

    def test_packing_is_slice_invariant(self):
        # Chunked packing must equal packing any partition of the rows.
        block_size = 16
        arrays = [arr(i % block_size) for i in range(40)]
        whole = pack_rows(arrays, base_tid=0, block_size=block_size)
        parts = [
            pack_rows(arrays[i : i + 3], base_tid=0, block_size=block_size)
            for i in range(0, len(arrays), 3)
        ]
        assert np.concatenate(parts).tolist() == whole.tolist()


class TestCompressedDomain:
    """The cold-tier representations are invisible to counting.

    Every pairwise combination of representations — raw array, packed
    bitmap, segmented delta+varint, roaring chunked — must intersect
    and count exactly like ``np.intersect1d`` on the decompressed
    arrays; hypothesis drives the tid sets so the property holds for
    arbitrary block contents, not just the directed cases above.
    """

    SIZE = 4096

    @staticmethod
    def reps(tids):
        from repro.itemsets.kernels import ChunkedTidList, DeltaVarintTidList

        return [
            tids,
            BitmapTidList.from_array(tids, base=0, size=TestCompressedDomain.SIZE),
            DeltaVarintTidList.from_array(tids, base=0, size=TestCompressedDomain.SIZE),
            ChunkedTidList.from_array(tids, base=0, size=TestCompressedDomain.SIZE),
        ]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_all_combos_match_intersect1d(self, data):
        from repro.itemsets.kernels import as_array

        tid = st.lists(st.integers(0, self.SIZE - 1), max_size=120).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
        left, right = data.draw(tid), data.draw(tid)
        expected = np.intersect1d(left, right).tolist()  # demonlint: disable=DML006 (reference oracle)
        for a in self.reps(left):
            for b in self.reps(right):
                assert as_array(intersect_pair(a, b)).tolist() == expected
                assert count_pair(a, b) == len(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        tids=st.lists(st.integers(0, 4095), max_size=200).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
    )
    def test_compressed_round_trip_and_len(self, tids):
        from repro.itemsets.kernels import as_array, compress_lists, list_len

        for rep in self.reps(tids):
            assert list_len(rep) == len(tids)
            assert as_array(rep).tolist() == tids.tolist()
        [packed], _nbytes = compress_lists([tids], base=0, size=self.SIZE)
        assert as_array(packed).tolist() == tids.tolist()

    def test_compress_list_never_grows(self):
        from repro.itemsets.kernels import compress_lists, list_nbytes

        for tids in [
            arr(),
            arr(5),
            arr(*range(0, 4096, 3)),
            arr(*range(2048)),
        ]:
            [packed], _nbytes = compress_lists([tids], base=0, size=self.SIZE)
            assert list_nbytes(packed) <= list_nbytes(tids)

    def test_dense_runs_actually_shrink(self):
        from repro.itemsets.kernels import compress_lists, list_nbytes

        tids = arr(*range(3000))
        [packed], _nbytes = compress_lists([tids], base=0, size=self.SIZE)
        assert list_nbytes(packed) < list_nbytes(tids) / 2

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_intersect_many_mixed_representations(self, data):
        from repro.itemsets.kernels import as_array

        tid = st.lists(st.integers(0, self.SIZE - 1), max_size=80).map(
            lambda v: np.asarray(sorted(set(v)), dtype=TID_DTYPE)
        )
        arrays = [data.draw(tid) for _ in range(3)]
        expected = arrays[0]
        for other in arrays[1:]:
            expected = np.intersect1d(expected, other)  # demonlint: disable=DML006 (reference oracle)
        mixed = [self.reps(tids)[i % 4] for i, tids in enumerate(arrays)]
        assert as_array(intersect_many(mixed)).tolist() == expected.tolist()


def _leb128_zigzag(values):
    """Reference delta+varint writer, one Python int at a time."""
    out = bytearray()
    previous = 0
    for value in values:
        delta = value - previous
        previous = value
        encoded = 2 * delta if delta >= 0 else -2 * delta - 1
        while encoded >= 0x80:
            out.append((encoded & 0x7F) | 0x80)
            encoded >>= 7
        out.append(encoded)
    return bytes(out)


def _reference_varint_list(tids, base, size):
    from repro.itemsets.kernels import VARINT_SEGMENT, DeltaVarintTidList

    values = tids.tolist()
    segments = [
        values[start : start + VARINT_SEGMENT]
        for start in range(0, len(values), VARINT_SEGMENT)
    ]
    blobs = [_leb128_zigzag(segment) for segment in segments]
    return DeltaVarintTidList(
        b"".join(blobs),
        np.cumsum([0] + [len(blob) for blob in blobs]).astype(np.int64),
        np.asarray([segment[0] for segment in segments], dtype=np.int64),
        np.asarray([segment[-1] for segment in segments], dtype=np.int64),
        base,
        size,
        len(values),
    )


def _reference_compress(tids, base, size):
    """One list at a time, keeping the compressed form only if smaller."""
    from repro.itemsets.kernels import ChunkedTidList

    if isinstance(tids, BitmapTidList):
        chunked = ChunkedTidList.from_array(tids.to_array(), base, size)
        return chunked if chunked.nbytes < tids.nbytes else tids
    varint = _reference_varint_list(tids, base, size)
    return varint if len(varint.blob) < TID_BYTES * len(tids) else tids


def _assert_same_list(got, want):
    from repro.itemsets.kernels import ChunkedTidList, DeltaVarintTidList

    assert type(got) is type(want)
    if isinstance(want, DeltaVarintTidList):
        assert got.blob == want.blob
        for name in ("offsets", "firsts", "lasts"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype
            assert mine.tolist() == theirs.tolist()
        assert (got.base, got.size, got.count) == (want.base, want.size, want.count)
    elif isinstance(want, ChunkedTidList):
        assert got.keys.tolist() == want.keys.tolist()
        assert got.kinds.tolist() == want.kinds.tolist()
        assert [p.tobytes() for p in got.payloads] == [
            p.tobytes() for p in want.payloads
        ]
        assert got.count == want.count
    elif isinstance(want, BitmapTidList):
        assert got.words.tobytes() == want.words.tobytes()
        assert (got.base, got.size, got.count) == (want.base, want.size, want.count)
    else:
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


def _varint_widths(blob):
    """The lengths in bytes of the varints in ``blob``."""
    widths = set()
    run = 0
    for byte in blob:
        run += 1
        if not byte & 0x80:
            widths.add(run)
            run = 0
    return widths


#: Block size for the batched-encoder cases: wide enough for tid gaps
#: of ``2**21`` and more (four-byte varints).
WIDE_BLOCK = 1 << 23


class TestBatchedCompression:
    """``compress_lists`` equals compressing each list alone, byte for byte.

    The reference encodes each list with a plain Python LEB128 writer,
    segment by segment, so the property pins the vectorized pass to the
    format itself rather than to another vectorized implementation.
    """

    @staticmethod
    def check(lists, base, size):
        from repro.itemsets.kernels import compress_lists

        from repro.itemsets.kernels import list_nbytes

        got, nbytes = compress_lists(lists, base, size)
        assert nbytes == sum(list_nbytes(tids) for tids in got)
        assert len(got) == len(lists)
        for mine, tids in zip(got, lists):
            _assert_same_list(mine, _reference_compress(tids, base, size))
        return got

    def test_segment_edges_wide_gaps_and_bitmaps(self):
        from repro.itemsets.kernels import DeltaVarintTidList

        base = (1 << 21) + 5
        local = [
            [],
            [7],
            list(range(1024)),
            list(range(3, 3 + 2 * 1025, 2)),
            list(range(0, 3500 * 5, 5)),
            list(range(0, 200 * 50, 200)),
            [0, 1 << 14, (1 << 14) * 3],
            [2, (1 << 21) + 2, (1 << 22) + 9],
        ]
        lists = [arr(*(base + tid for tid in tids)) for tids in local]
        lists.insert(2, BitmapTidList.from_array(arr(base, base + 9), base, WIDE_BLOCK))
        lists.append(
            BitmapTidList.from_array(arr(*range(base, base + 9000)), base, WIDE_BLOCK)
        )
        got = self.check(lists, base, WIDE_BLOCK)
        widths = set().union(
            *(
                _varint_widths(tids.blob)
                for tids in got
                if isinstance(tids, DeltaVarintTidList)
            )
        )
        assert {1, 2, 3, 4} <= widths

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_one_list_at_a_time(self, data):
        base = data.draw(st.sampled_from([0, 1000, (1 << 14) + 1, (1 << 21) + 3]))
        lists = []
        for _ in range(data.draw(st.integers(0, 6))):
            length = data.draw(st.sampled_from([0, 1, 2, 1023, 1024, 1025, 3001]))
            max_gap = data.draw(st.sampled_from([1, 3, 200, (1 << 14) + 3, (1 << 21) + 3]))
            seed = data.draw(st.integers(0, 2**32 - 1))
            gaps = np.random.default_rng(seed).integers(1, max_gap + 1, length)
            local = np.cumsum(gaps) - gaps[:1] if length else gaps
            tids = (local[local < WIDE_BLOCK] + base).astype(TID_DTYPE)
            if data.draw(st.booleans()):
                lists.append(BitmapTidList.from_array(tids, base, WIDE_BLOCK))
            else:
                tids.flags.writeable = False
                lists.append(tids)
        self.check(lists, base, WIDE_BLOCK)

    def test_quest_block_bytes_unchanged(self):
        import pickle

        from repro.datagen.quest import QuestGenerator, QuestParams
        from repro.itemsets.tidlist import TidListStore

        generator = QuestGenerator(
            QuestParams.from_name("2M.20L.1I.4pats.4plen"), seed=2
        )
        blocks = [generator.block(block_id, 1000) for block_id in (1, 2)]
        batched, reference = TidListStore(), TidListStore()
        for block in blocks:
            batched.materialize_block(block)
            reference.materialize_block(block)
        for block_id in (1, 2):
            batched.compress_block(block_id)
            base = reference.base_tid(block_id)
            size = reference.block_size(block_id)
            reference._lists[block_id] = {
                item: _reference_compress(tids, base, size)
                for item, tids in reference.lists_view(block_id).items()
            }
            reference._compressed.add(block_id)
        kinds = set()
        for block_id in (1, 2):
            mine = batched.lists_view(block_id)
            theirs = reference.lists_view(block_id)
            assert list(mine) == list(theirs)
            for item, tids in theirs.items():
                _assert_same_list(mine[item], tids)
                kinds.add(type(tids).__name__)
        assert {"DeltaVarintTidList", "BitmapTidList"} <= kinds
        assert batched.total_nbytes() == reference.total_nbytes()
        assert pickle.dumps(batched) == pickle.dumps(reference)
        # Restore re-compresses the cold blocks through the same pass.
        restored = pickle.loads(pickle.dumps(batched))
        for block_id in (1, 2):
            for item, tids in batched.lists_view(block_id).items():
                _assert_same_list(restored.lists_view(block_id)[item], tids)

    def test_compress_block_returns_compressed_bytes(self):
        from repro.datagen.quest import QuestGenerator, QuestParams
        from repro.itemsets.tidlist import TidListStore

        generator = QuestGenerator(
            QuestParams.from_name("2M.20L.1I.4pats.4plen"), seed=3
        )
        store = TidListStore()
        store.materialize_block(generator.block(1, 1000))
        raw = store.nbytes(1)
        packed = store.compress_block(1)
        assert packed == store.nbytes(1)
        assert 0 < packed < raw
        assert store.compress_block(1) == 0
        assert store.compress_block(99) == 0
