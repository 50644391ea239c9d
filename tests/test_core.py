"""Counter-addressed words and the example stream format."""

import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhs.core import (
    MASK64,
    ORDER_ROW_MAJOR,
    PURPOSE_LABEL,
    PURPOSE_NOISE,
    PURPOSE_X,
    STREAM_FORMAT_VERSION,
    _C_INDEX,
    _C_SEED,
    _C_STREAM,
    AtomicFile,
    CorruptionError,
    CursorRng,
    FormatError,
    StreamReader,
    StreamWriter,
    _THRESHOLD_BLOCK,
    mix64,
    purpose_stream,
    rng_words,
    threshold_bits,
    uniform_threshold,
    words_to_open_uniforms,
    words_to_uniforms,
)


def rng_word(master_seed: int, stream_id: int, index: int) -> int:
    """Scalar reference for `rng_words`: the word of one seed triple.

    Integer-only arithmetic through the scalar `mix64`, independent of the
    in-place block mixing the vectorized path uses.
    """
    w = mix64((master_seed + _C_SEED) & MASK64)
    base = mix64(((w ^ (stream_id & MASK64)) + _C_STREAM) & MASK64)
    return mix64(((base ^ (index & MASK64)) + _C_INDEX) & MASK64)


class TestWords:
    def test_rng_word_is_a_pure_function(self):
        words = rng_words(12345, 7, np.array([99, 99], dtype=np.uint64))
        assert words.tolist() == [rng_word(12345, 7, 99)] * 2

    def test_rng_words_matches_scalar_path(self):
        idx = np.arange(0, 64, dtype=np.uint64)
        vec = rng_words(42, 3, idx)
        scalar = [rng_word(42, 3, int(i)) for i in idx]
        assert vec.tolist() == scalar

    def test_distinct_coordinates_give_distinct_words(self):
        # 3 seeds x 3 streams x 32 indices, all 288 words distinct
        words = set()
        for seed in (0, 1, 2**63):
            for stream in (0, 1, 2):
                for index in range(32):
                    words.add(rng_word(seed, stream, index))
        assert len(words) == 3 * 3 * 32

    def test_mix64_stays_in_range_and_hits_known_fixture(self):
        # the finalizer fixes 0; word derivation always adds a nonzero constant first
        assert mix64(0) == 0
        assert rng_word(0, 0, 0) != 0
        assert 0 < mix64(1) <= MASK64
        assert mix64(2**64 + 1) == mix64(1)

    def test_word_bits_are_balanced(self):
        words = rng_words(7, 0, np.arange(4096, dtype=np.uint64))
        bits = np.unpackbits(words.view(np.uint8))
        rate = bits.mean()
        # 4096*64 draws, sigma ~ 1e-3; allow 5 sigma
        assert abs(rate - 0.5) < 5e-3

    def test_in_place_words_match_scalar_path_across_blocks(self):
        # more indices than one mixing block, and indices that wrap near 2^64
        n = (1 << 15) + 5
        idx = np.arange(MASK64 - n + 1, MASK64 + 1, dtype=np.uint64)
        idx[:3] = [0, 1, 2**63]
        vec = rng_words(2**64 - 1, 2**60 + 3, idx)
        picks = [0, 1, 2, 3, (1 << 15) - 1, 1 << 15, n - 2, n - 1]
        for i in picks:
            assert int(vec[i]) == rng_word(2**64 - 1, 2**60 + 3, int(idx[i]))
        # the caller's index array is left untouched, and shape is kept
        assert int(idx[-1]) == MASK64
        grid = rng_words(5, 1, idx[:12].reshape(3, 4))
        assert grid.shape == (3, 4)
        assert grid.reshape(-1).tolist() == rng_words(5, 1, idx[:12]).tolist()

    @pytest.mark.parametrize(
        "q",
        [0.0, 2.0**-53, 1 / 4096, 1 / 32, float(np.nextafter(0.25, 0)), 0.25,
         1 - 2.0**-53, 1.0],
    )
    def test_integer_threshold_matches_float_compare(self, q):
        t = int(uniform_threshold(q))
        assert t == math.ceil(q * 2**53)
        tops = [m for m in (t - 1, t, t + 1) if 0 <= m < 2**53]
        words = np.asarray(
            [(m << 11) | low for m in tops for low in (0, 1, 2047)], dtype=np.uint64
        )
        assert np.array_equal((words >> np.uint64(11)) < t, words_to_uniforms(words) < q)
        # and elementwise over an array of rates
        assert uniform_threshold(np.array([q, q])).tolist() == [t, t]

    def test_uniform_maps(self):
        words = rng_words(11, 5, np.arange(1024, dtype=np.uint64))
        u = words_to_uniforms(words)
        v = words_to_open_uniforms(words)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert v.min() > 0.0 and v.max() <= 1.0
        assert np.allclose(v - u, 2.0**-53)


def _threshold_oracle(master_seed, stream_id, origins, width, threshold, bits, replace):
    """The per-caller formula the kernel replaced: words on the full index
    matrix, then ``(w >> 11) < T``, then the low bit where it holds."""
    idx = origins[:, None] + np.arange(width, dtype=np.uint64)
    w = rng_words(master_seed, stream_id, idx)
    hit = (w >> np.uint64(11)) < np.asarray(threshold, dtype=np.uint64)
    if not replace:
        return hit.astype(np.uint8)
    return np.where(hit, w & np.uint64(1), bits).astype(np.uint8)


class TestThresholdKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from([1, 101, 3200, _THRESHOLD_BLOCK + 5]),
        rows_past=st.integers(-1, 2),
        shape=st.sampled_from(["scalar", "column", "row"]),
        replace=st.booleans(),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_full_matrix_formula(self, width, rows_past, shape, replace,
                                             strided, seed):
        # counts from 0 up to a few blocks, ending inside a block; thresholds
        # 0, 2^53 and anything between; origins anywhere
        rng = np.random.default_rng(seed)
        step = max(1, _THRESHOLD_BLOCK // width)
        count = max(0, int(rng.integers(0, 3)) * step + rows_past)
        origins = rng.integers(0, 2**63, size=count, dtype=np.uint64)
        tshape = {"scalar": (), "column": (width,), "row": (count, 1)}[shape]
        threshold = np.where(
            rng.random(tshape) < 0.5,
            rng.integers(0, 2**53 + 1, size=tshape, dtype=np.uint64),
            rng.choice(np.array([0, 2**53], dtype=np.uint64), size=tshape),
        )
        bits = rng.integers(0, 256 if replace else 2, size=(count, width), dtype=np.uint8)
        out = np.zeros((count, 2 * width), dtype=np.uint8)[:, ::2] if strided else bits.copy()
        out[...] = bits
        got = threshold_bits(seed, 3, origins, width, threshold, out, replace=replace)
        assert got is out
        want = _threshold_oracle(seed, 3, origins, width, threshold, bits, replace)
        assert np.array_equal(got, want)

    def test_words_go_to_the_given_buffer(self):
        idx = np.arange(12, dtype=np.uint64).reshape(3, 4)
        buf = np.empty((3, 4), dtype=np.uint64)
        assert rng_words(5, 1, idx, out=buf) is buf
        assert np.array_equal(buf, rng_words(5, 1, idx))
        with pytest.raises(ValueError, match="contiguous"):
            rng_words(5, 1, idx[:, :2], out=np.empty((3, 4), dtype=np.uint64)[:, :2])

    @pytest.mark.parametrize("caller", ["sample_bits", "dense apply_noise"])
    def test_callers_build_no_full_size_arrays(self, caller):
        # the traced peak stays within the uint8 output (noise is in place)
        # and a fixed block budget; full-size index, word and mask arrays
        # of 20000 x 101 draws took about 34 MB
        from glhs.concentration import ProductBits
        from glhs.moments import apply_noise

        budget = 2 << 20
        source = ProductBits(rates=tuple(np.linspace(0.1, 0.9, 101)))
        bits = np.zeros((20000, 101), dtype=np.uint8)
        tracemalloc.start()
        try:
            if caller == "sample_bits":
                out = source.sample_bits(20000, 1, 2, start=7)
            else:
                out = apply_noise(bits, 0.1, 1, 2, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        made = 0 if out is bits else out.nbytes
        assert peak < made + budget, f"peak {peak} bytes for a {made}-byte output"


class TestPurposeStreams:
    def test_composition_is_injective(self):
        seen = set()
        for stream in range(8):
            for purpose in range(8):
                seen.add(purpose_stream(stream, purpose))
        assert len(seen) == 64

    def test_low_bits_carry_the_purpose(self):
        assert purpose_stream(5, PURPOSE_X) == (5 << 3) | PURPOSE_X
        assert purpose_stream(5, PURPOSE_NOISE) % 8 == PURPOSE_NOISE

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            purpose_stream(-1, PURPOSE_LABEL)
        with pytest.raises(ValueError):
            purpose_stream(1 << 61, PURPOSE_LABEL)
        with pytest.raises(ValueError):
            purpose_stream(0, 8)


class TestCursorRng:
    def test_cursor_matches_vectorized_words(self):
        rng = CursorRng(777, 9)
        seq = [rng.word() for _ in range(20)]
        assert seq == rng_words(777, 9, np.arange(20, dtype=np.uint64)).tolist()

    def test_words_advances_cursor(self):
        rng = CursorRng(777, 9)
        a = rng.uniforms(10)
        b = rng.uniforms(10)
        both = words_to_uniforms(rng_words(777, 9, np.arange(20, dtype=np.uint64)))
        assert np.array_equal(np.concatenate([a, b]), both)
        assert rng.index == 20

    def test_explicit_index_resume(self):
        rng = CursorRng(777, 9, index=13)
        assert rng.word() == rng_word(777, 9, 13)

    def test_randint_bounds(self):
        rng = CursorRng(3, 0)
        draws = [rng.randint(7) for _ in range(500)]
        assert min(draws) >= 0 and max(draws) <= 6
        assert len(set(draws)) == 7
        with pytest.raises(ValueError):
            rng.randint(0)

    def test_shuffle_is_a_permutation(self):
        rng = CursorRng(5, 2)
        out = rng.shuffle(list(range(50)))
        assert sorted(out) == list(range(50))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 1000])
    def test_shuffle_matches_scalar_fisher_yates(self, n):
        rng = CursorRng(5, 2, index=2**40)
        ref = CursorRng(5, 2, index=2**40)
        expected = list(range(n))
        for i in range(n - 1, 0, -1):
            j = ref.randint(i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        assert rng.shuffle(list(range(n))) == expected
        assert rng.index == ref.index == 2**40 + max(n - 1, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 20000])
    def test_shuffle_matches_the_blocked_draw(self, n):
        # the earlier form drew its words 256 swaps at a time; the cursor is
        # contiguous, so one draw of all n-1 words gives the same swaps
        rng = CursorRng(8, 3, index=99)
        ref = CursorRng(8, 3, index=99)
        expected = list(range(n))
        for top in range(n - 1, 0, -256):
            span = np.arange(top, max(top - 256, 0), -1)
            u = ref.uniforms(span.size)
            picks = np.minimum((u * (span + 1)).astype(np.int64), span)
            for i, j in zip(range(top, top - span.size, -1), picks.tolist()):
                expected[i], expected[j] = expected[j], expected[i]
        assert rng.shuffle(list(range(n))) == expected
        assert rng.index == ref.index

    def test_bernoulli_rate(self):
        rng = CursorRng(17, 4)
        hits = sum(rng.bernoulli(0.25) for _ in range(4000))
        # sigma = sqrt(0.25*0.75*4000) ~ 27; allow 5 sigma
        assert abs(hits - 1000) < 140


class TestBitContainers:
    def test_bitvector_packing_is_little_endian(self, tmp_path):
        path = tmp_path / "s.glhs"
        with StreamWriter(str(path), 1, 9) as w:
            w.append_batch(np.array([[1, 0, 0, 0, 0, 0, 0, 0, 1]]), np.array([0]))
        assert path.read_bytes()[-3:] == bytes([0x01, 0x01, 0x00])

    def test_labeled_example_validates_label(self, tmp_path):
        with StreamWriter(str(tmp_path / "s.glhs"), 1, 4) as w:
            with pytest.raises(ValueError, match="0 or 1"):
                w.append_batch(np.zeros((3, 4), dtype=np.uint8), np.array([0, 2, 1]))


class TestRecords:
    @given(st.integers(1, 8), st.integers(1, 9), st.integers(0, 1), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, tmp_path_factory, rows, cols, label, seed):
        path = tmp_path_factory.mktemp("rec") / "s.glhs"
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(3, rows * cols), dtype=np.uint8)
        labels = np.full(3, label, dtype=np.uint8)
        with StreamWriter(str(path), rows, cols) as w:
            w.append_batch(bits, labels)
        reader = StreamReader(str(path))
        assert reader.header.record_size == (rows * cols + 7) // 8 + 1
        [(back_bits, back_labels)] = list(reader.read_batches())
        assert np.array_equal(back_bits, bits)
        assert np.array_equal(back_labels, labels)

    def test_unpack_rejects_bad_label_byte(self, tmp_path):
        path = tmp_path / "s.glhs"
        with StreamWriter(str(path), 1, 8) as w:
            w.append_batch(np.zeros((1, 8), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        blob = bytearray(path.read_bytes())
        blob[-1] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            list(StreamReader(str(path)).read_batches())
        with pytest.raises(CorruptionError, match="label byte"):
            StreamReader(str(path)).read_records()

    @given(st.integers(1, 8), st.integers(1, 9), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_records_are_the_packed_batches(self, tmp_path_factory, rows, cols, seed):
        path = tmp_path_factory.mktemp("rec") / "s.glhs"
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(5, rows * cols), dtype=np.uint8)
        labels = rng.integers(0, 2, size=5, dtype=np.uint8)
        with StreamWriter(str(path), rows, cols) as w:
            w.append_batch(bits, labels)
        packed, back_labels = StreamReader(str(path)).read_records()
        assert np.array_equal(packed, np.packbits(bits, axis=1, bitorder="little"))
        assert np.array_equal(back_labels, labels)

    def test_records_clear_the_pad_bits(self, tmp_path):
        # 6 bits per row: the top two bits of each row's byte are padding,
        # which read_batches ignores and read_records must not pass on
        path = tmp_path / "s.glhs"
        bits = np.array([[1, 0, 1, 0, 1, 1], [0, 1, 0, 0, 0, 0]], dtype=np.uint8)
        with StreamWriter(str(path), 2, 3) as w:
            w.append_batch(bits, np.array([1, 0], dtype=np.uint8))
        blob = bytearray(path.read_bytes())
        blob[-4] |= 0b11000000
        blob[-2] |= 0b10000000
        path.write_bytes(bytes(blob))
        reader = StreamReader(str(path))
        [(back, _)] = list(reader.read_batches())
        assert np.array_equal(back, bits)
        packed, labels = reader.read_records()
        assert packed.tolist() == [[0b110101], [0b000010]]
        assert labels.tolist() == [1, 0]


class TestStreamFormat:
    def _write(self, path, rows, cols, n, seed=0, meta="unit"):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n, rows * cols), dtype=np.uint8)
        labels = rng.integers(0, 2, size=n, dtype=np.uint8)
        with StreamWriter(str(path), rows, cols, meta=meta) as w:
            w.append_batch(bits[: n // 2], labels[: n // 2])
            w.append_batch(bits[n // 2 :], labels[n // 2 :])
        return bits, labels

    def test_roundtrip_batches(self, tmp_path):
        path = tmp_path / "s.glhs"
        bits, labels = self._write(path, 3, 5, 23)
        reader = StreamReader(str(path))
        assert reader.header.rows == 3
        assert reader.header.cols == 5
        assert reader.header.count == 23
        assert reader.header.meta == "unit"
        assert reader.header.order_tag == ORDER_ROW_MAJOR
        got_bits = []
        got_labels = []
        for b, l in reader.read_batches(chunk=7):
            got_bits.append(b)
            got_labels.append(l)
        assert np.array_equal(np.concatenate(got_bits), bits)
        assert np.array_equal(np.concatenate(got_labels), labels)

    def test_roundtrip_examples(self, tmp_path):
        path = tmp_path / "s.glhs"
        bits, labels = self._write(path, 2, 4, 9)
        batches = list(StreamReader(str(path)).read_batches(chunk=1))
        assert len(batches) == 9
        for (b, l), row, lab in zip(batches, bits, labels):
            assert b.shape == (1, 8)
            assert np.array_equal(b[0], row)
            assert l.tolist() == [lab]

    def test_count_is_patched_on_close(self, tmp_path):
        path = tmp_path / "s.glhs"
        w = StreamWriter(str(path), 1, 8)
        w.append_batch(np.zeros((1, 8), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        w.close()
        w.close()  # idempotent
        assert StreamReader(str(path)).header.count == 1

    def test_interrupted_writer_leaves_no_stream(self, tmp_path):
        path = tmp_path / "s.glhs"
        with pytest.raises(RuntimeError):
            with StreamWriter(str(path), 1, 8) as w:
                w.append_batch(np.zeros((3, 8), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
                raise RuntimeError("interrupted")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
        # an existing stream at the target survives an interrupted rewrite
        self._write(path, 1, 8, 2)
        before = path.read_bytes()
        with pytest.raises(KeyboardInterrupt):
            with StreamWriter(str(path), 1, 8) as w:
                raise KeyboardInterrupt
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_atomic_file_replaces_whole_or_not_at_all(self, tmp_path):
        path = tmp_path / "out.txt"
        with AtomicFile(str(path)) as fh:
            fh.write("first\n")
        with pytest.raises(RuntimeError):
            with AtomicFile(str(path)) as fh:
                fh.write("second, half written")
                raise RuntimeError("interrupted")
        assert path.read_text() == "first\n"
        # a failed move deletes the temporary file too
        target = tmp_path / "a-directory"
        target.mkdir()
        with pytest.raises(OSError):
            with AtomicFile(str(target)) as fh:
                fh.write("x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "out.txt"]
        with pytest.raises(FileNotFoundError, match="nodir"):
            AtomicFile(str(tmp_path / "nodir" / "out.txt"))

    def test_atomic_file_writes_through_a_symlink(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        with AtomicFile(str(link)) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert real.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_atomic_file_writes_a_special_target_directly(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with AtomicFile(str(fifo)) as fh:
                fh.write("through\n")
            assert os.read(reader, 64) == b"through\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_empty_stream_reads_back(self, tmp_path):
        path = tmp_path / "s.glhs"
        with StreamWriter(str(path), 4, 4):
            pass
        reader = StreamReader(str(path))
        assert len(reader) == 0
        assert [b.shape[0] for b, _ in reader.read_batches()] == []
        packed, labels = reader.read_records()
        assert packed.shape == (0, 2) and labels.shape == (0,)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "s.glhs"
        self._write(path, 1, 8, 2)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            StreamReader(str(path))

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "s.glhs"
        self._write(path, 1, 8, 4)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(CorruptionError):
            StreamReader(str(path))

    @pytest.mark.parametrize("change", ["replace", "truncate"])
    def test_a_stream_changed_after_opening_is_rejected(self, tmp_path, change):
        # the reader holds only the header and reads the records later
        path = tmp_path / "s.glhs"
        self._write(path, 1, 8, 4)
        reader = StreamReader(str(path))
        if change == "replace":
            self._write(tmp_path / "t.glhs", 1, 8, 4)
            os.replace(tmp_path / "t.glhs", path)
        else:
            path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorruptionError, match="changed since it was opened"):
            list(reader.read_batches())
        with pytest.raises(CorruptionError, match="changed since it was opened"):
            reader.read_records()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "s.glhs"
        self._write(path, 1, 8, 1)
        blob = bytearray(path.read_bytes())
        blob[4] = STREAM_FORMAT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            StreamReader(str(path))

    def test_batch_shape_validation(self, tmp_path):
        with StreamWriter(str(tmp_path / "s.glhs"), 2, 2) as w:
            with pytest.raises(ValueError):
                w.append_batch(np.zeros((3, 5), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
            with pytest.raises(ValueError):
                w.append_batch(np.zeros((3, 4), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
