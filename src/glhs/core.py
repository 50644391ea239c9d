"""Counter-based randomness and the example-stream file format.

Everything downstream samples through `rng_words`: a pure function from
(master_seed, stream_id, index) triples to 64-bit words.  Samplers address
disjoint index ranges instead of sharing mutable generator state, so the same
triple always produces the same word, chunked and parallel runs produce
byte-identical output, and any example can be regenerated in isolation.
`rng_words` mixes its words in place, a cache-sized block at a time.
`uniform_threshold` turns a Bernoulli rate q into the integer bound
T = ceil(q * 2^53): ``(w >> 11) < T`` decides the same draws as comparing
`words_to_uniforms` against q.  `threshold_bits` is the one kernel for
per-bit draws (Bernoulli bits and replacement noise, one word per bit):
it works through rows in blocks of _THRESHOLD_BLOCK = 2^15 words, and
because each row owns its counter addresses its output does not depend on
block boundaries.
Batch samplers and stream passes take `chunk_rows(width)` rows at a time,
CHUNK_CELLS = 2^22 bit cells, so no command holds a full-size bit matrix.

Streams of labeled examples are stored in a small binary format (magic
``GLHS``).  In memory a batch of examples is a uint8 bit matrix of shape
(n, rows*cols), each grid flattened row-major, plus a uint8 label vector; on
disk each row is packed eight bits per byte, least significant bit first,
followed by its label byte.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1

# SplitMix64 finalizer constants plus two xxhash-style odd offsets used to
# fold the stream id and index into the chain.
_C_SEED = 0x9E3779B97F4A7C15
_C_STREAM = 0xC2B2AE3D27D4EB4F
_C_INDEX = 0x165667B19E3779F9
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

STREAM_FORMAT_VERSION = 1

# Purpose tags appended to user stream ids (see `purpose_stream`).
PURPOSE_LABEL = 0
PURPOSE_EDGE = 1
PURPOSE_X = 2
PURPOSE_NOISE = 3
PURPOSE_DECODE = 4
PURPOSE_LEARN = 5
PURPOSE_MC = 6
PURPOSE_AUX = 7

_MAX_USER_STREAM = 1 << 61


class GuardError(ValueError):
    """Raised when an exhaustive computation would exceed its size guard."""


class FormatError(ValueError):
    """Raised for malformed stream headers or records."""


class CorruptionError(FormatError):
    """Raised when a stream body does not match its header."""


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


# Words mixed at a time by `_mix64_inplace`: a block and its scratch stay in
# L2, so the eight array passes of the finalizer do not stream through memory.
_MIX_BLOCK = 1 << 15


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a contiguous uint64 array, in place; returns x."""
    flat = x.reshape(-1)
    scratch = np.empty(min(flat.size, _MIX_BLOCK), dtype=np.uint64)
    for start in range(0, flat.size, _MIX_BLOCK):
        v = flat[start : start + _MIX_BLOCK]
        t = scratch[: v.size]
        np.right_shift(v, np.uint64(30), out=t)
        v ^= t
        v *= np.uint64(_M1)
        np.right_shift(v, np.uint64(27), out=t)
        v ^= t
        v *= np.uint64(_M2)
        np.right_shift(v, np.uint64(31), out=t)
        v ^= t
    return x


def _words_from(base: int, indices, out: np.ndarray | None = None) -> np.ndarray:
    """Words at `indices` of the stream keyed by `base`, written to `out` (a
    C-contiguous uint64 array of the indices' shape) or a new array; indices
    are not modified."""
    idx = np.asarray(indices).astype(np.uint64, copy=False)
    if out is None:
        out = np.empty(idx.shape, dtype=np.uint64)
    elif not out.flags.c_contiguous:
        raise ValueError("rng_words writes only to a C-contiguous array")
    x = np.bitwise_xor(idx, np.uint64(base), out=out)
    x += np.uint64(_C_INDEX)
    return _mix64_inplace(x)


def _stream_base(master_seed: int, stream_id: int) -> int:
    w = mix64((master_seed + _C_SEED) & MASK64)
    return mix64(((w ^ (stream_id & MASK64)) + _C_STREAM) & MASK64)


def rng_words(master_seed: int, stream_id: int, indices: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Pure 64-bit words for an array of indices (returns uint64, in `out` if given).

    Integer-only arithmetic, so identical triples yield identical words on
    every platform and in every process.
    """
    return _words_from(_stream_base(master_seed, stream_id), indices, out)


def words_to_uniforms(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to float64 uniforms in [0, 1) using the top 53 bits."""
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def uniform_threshold(q) -> np.ndarray:
    """Integer form of the test ``words_to_uniforms(w) < q``, elementwise in q.

    Returns T = ceil(q * 2^53), clipped to [0, 2^53], as uint64.  Then
    ``(w >> 11) < T`` holds exactly when ``words_to_uniforms(w) < q``: w >> 11
    is an integer below 2^53, and q * 2^53 is exact in float64.
    """
    t = np.ceil(np.asarray(q, dtype=np.float64) * 2.0**53)
    return np.clip(t, 0.0, 2.0**53).astype(np.uint64)


# Bit cells per chunk of rows wherever a batch is drawn or streamed (the
# samplers, `learn`'s passes, the Monte-Carlo estimators): a chunk's bit
# matrix is 4 MB whatever the row width.
CHUNK_CELLS = 1 << 22


def chunk_rows(width: int) -> int:
    """Rows of `width` bits per chunk: CHUNK_CELLS cells, at least one row."""
    return max(1, CHUNK_CELLS // max(width, 1))


# Counter words per row block of `threshold_bits`: its buffers and the
# finalizer's scratch stay in L2 together.
_THRESHOLD_BLOCK = 1 << 15


def threshold_bits(master_seed: int, stream_id: int, origins: np.ndarray, width: int,
                   threshold, out: np.ndarray, replace: bool = False) -> np.ndarray:
    """Per-bit threshold draws into a (count, width) uint8 array; returns out.

    Row r reads the words at counter addresses origins[r] + j, j < width,
    and tests ``(w >> 11) < T`` with T from `uniform_threshold`; `threshold`
    broadcasts to (count, width): a scalar, one T per column (width,) or one
    per row (count, 1).  out[r, j] becomes the test's 0/1 result, or with
    `replace`, the word's low bit wherever the test holds (out is left as it
    is elsewhere).  Rows go _THRESHOLD_BLOCK words at a time through one
    index buffer and one word buffer, so no full-size index or word array
    is built; each row owns its addresses, so blocks do not change bits.
    """
    origins = np.asarray(origins, dtype=np.uint64)
    count = origins.size
    if count == 0 or width == 0:
        return out
    thr = np.broadcast_to(np.asarray(threshold, dtype=np.uint64), (count, width))
    lanes = np.arange(width, dtype=np.uint64)
    step = max(1, _THRESHOLD_BLOCK // width)
    idx_buf = np.empty(min(step, count) * width, dtype=np.uint64)
    word_buf = np.empty_like(idx_buf)
    if replace:
        mask_buf = np.empty(idx_buf.size, dtype=np.uint8)
        low_buf = np.empty_like(mask_buf)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        size = (hi - lo) * width
        idx = np.add(origins[lo:hi, None], lanes, out=idx_buf[:size].reshape(-1, width))
        words = rng_words(master_seed, stream_id, idx, out=word_buf[:size].reshape(-1, width))
        np.right_shift(words, np.uint64(11), out=idx)
        if not replace:
            np.less(idx, thr[lo:hi], out=out[lo:hi])
            continue
        # out ^= (low ^ out) & mask, with mask 0xFF where the test holds: a
        # branch-free select (a masked copy is several times slower)
        mask = np.less(idx, thr[lo:hi], out=mask_buf[:size].reshape(-1, width))
        np.negative(mask, out=mask)
        low = np.bitwise_and(
            words, np.uint64(1), out=low_buf[:size].reshape(-1, width), casting="unsafe"
        )
        low ^= out[lo:hi]
        low &= mask
        out[lo:hi] ^= low
    return out


def words_to_open_uniforms(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to float64 uniforms in (0, 1]."""
    return ((words >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def purpose_stream(stream_id: int, purpose: int) -> int:
    """Derive a sub-stream id for one sampling purpose.

    User stream ids live in 61 bits; the low 3 bits carry the purpose tag, so
    label words, example words, noise words and decoder words never collide.
    """
    if not 0 <= stream_id < _MAX_USER_STREAM:
        raise ValueError(f"stream_id must be in [0, 2^61), got {stream_id}")
    if not 0 <= purpose < 8:
        raise ValueError(f"purpose must be in [0, 8), got {purpose}")
    return (stream_id << 3) | purpose


class CursorRng:
    """Sequential reader over one stream of counter-addressed words.

    A thin stateful cursor for scalar sampling needs (instance generation,
    decoder draws).  Concurrent users should own disjoint streams; the cursor
    itself is cheap and deterministic.
    """

    def __init__(self, master_seed: int, stream_id: int, index: int = 0):
        self.master_seed = master_seed
        self.stream_id = stream_id
        self.index = index
        self._base = _stream_base(master_seed, stream_id)

    def word(self) -> int:
        w = mix64(((self._base ^ (self.index & MASK64)) + _C_INDEX) & MASK64)
        self.index += 1
        return w

    def uniform(self) -> float:
        return (self.word() >> 11) * (2.0 ** -53)

    def uniforms(self, count: int) -> np.ndarray:
        idx = np.arange(self.index, self.index + count, dtype=np.uint64)
        self.index += count
        return words_to_uniforms(_words_from(self._base, idx))

    def bernoulli(self, p: float) -> int:
        return 1 if self.uniform() < p else 0

    def randint(self, n: int) -> int:
        """Uniform draw from range(n).  Bias is below n/2^53, negligible here."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        v = int(self.uniform() * n)
        return min(v, n - 1)

    def shuffle(self, items: list) -> list:
        """Fisher-Yates shuffle, in place; also returns the list.

        Swap i = n-1, ..., 1 takes j = randint(i + 1) from the next word.  All
        n-1 words are drawn at once, with the same float arithmetic as
        `randint`, so only the swaps run one by one.
        """
        span = np.arange(len(items) - 1, 0, -1)
        u = self.uniforms(span.size)
        picks = np.minimum((u * (span + 1)).astype(np.int64), span)
        for i, j in zip(span.tolist(), picks.tolist()):
            items[i], items[j] = items[j], items[i]
        return items


STREAM_MAGIC = b"GLHS"
ORDER_ROW_MAJOR = 0
_HEADER_FMT = "<4sBIIBQI"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


@dataclass(frozen=True)
class StreamHeader:
    rows: int
    cols: int
    count: int
    meta: str = ""
    order_tag: int = ORDER_ROW_MAJOR

    @property
    def bits_per_example(self) -> int:
        return self.rows * self.cols

    @property
    def record_size(self) -> int:
        # packed feature bytes plus one label byte
        return (self.bits_per_example + 7) // 8 + 1


def _encode_header(header: StreamHeader) -> bytes:
    meta = header.meta.encode("utf-8")
    fixed = struct.pack(
        _HEADER_FMT,
        STREAM_MAGIC,
        STREAM_FORMAT_VERSION,
        header.rows,
        header.cols,
        header.order_tag,
        header.count,
        len(meta),
    )
    return fixed + meta


def _decode_header(blob: bytes) -> tuple[StreamHeader, int]:
    if len(blob) < _HEADER_SIZE:
        raise FormatError("stream too short for a header")
    magic, version, rows, cols, order, count, meta_len = struct.unpack(
        _HEADER_FMT, blob[:_HEADER_SIZE]
    )
    if magic != STREAM_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {STREAM_MAGIC!r}")
    if version != STREAM_FORMAT_VERSION:
        raise FormatError(f"unsupported stream format version {version}")
    if order != ORDER_ROW_MAJOR:
        raise FormatError(f"unknown coordinate-order tag {order}")
    if len(blob) < _HEADER_SIZE + meta_len:
        raise CorruptionError("stream truncated inside header metadata")
    try:
        meta = blob[_HEADER_SIZE : _HEADER_SIZE + meta_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"header metadata is not UTF-8: {exc}") from None
    header = StreamHeader(rows=rows, cols=cols, count=count, meta=meta, order_tag=order)
    return header, _HEADER_SIZE + meta_len


class AtomicFile:
    """An output file that appears at `path` only on `commit`.

    Writes go to `<target>.<pid>.<id>.tmp` next to the target, the file
    `path` resolves to through any symlinks (the object's id keeps two open
    outputs of one process apart when they name one target); `commit` closes
    it and moves it into place with `os.replace`, so an existing file is
    replaced whole or not at all, and `abort` closes and deletes it.  A
    target that exists and is not a regular file (a device such as
    /dev/stdout, a pipe) is written directly, as a plain `open` would.  Used as a context manager it yields
    the open file and commits on a clean exit, aborts on an exception, so an
    interrupted run leaves no half-written output and no temporary file.
    """

    def __init__(self, path: str, mode: str = "w"):
        self.path = path
        target = os.path.realpath(path)
        special = os.path.exists(target) and not os.path.isfile(target)
        self._target = None if special else target
        self._tmp = target if special else f"{target}.{os.getpid()}.{id(self):x}.tmp"
        try:
            self.fh = open(self._tmp, mode, encoding=None if "b" in mode else "utf-8")
        except FileNotFoundError as exc:  # name the target, not the temporary
            raise FileNotFoundError(exc.errno, exc.strerror, path) from exc

    def commit(self) -> None:
        try:
            self.fh.close()
            if self._target is not None:
                os.replace(self._tmp, self._target)
        except OSError:
            self.abort()
            raise

    def abort(self) -> None:
        self.fh.close()
        if self._target is not None:
            os.unlink(self._tmp)

    def __enter__(self):
        return self.fh

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class StreamWriter:
    """Writes a GLHS example stream; nothing appears at `path` until a clean close.

    Records go to an `AtomicFile`.  `close` patches the count field and
    commits it; leaving a `with` block by an exception calls `abort` instead,
    which deletes the temporary file, so an interrupted run leaves no stream
    that reads as valid.
    """

    def __init__(self, path: str, rows: int, cols: int, meta: str = ""):
        self.path = path
        self.rows = rows
        self.cols = cols
        self.meta = meta
        self._count = 0
        self._file = AtomicFile(path, "wb")
        self._fh = self._file.fh
        self._fh.write(
            _encode_header(StreamHeader(rows=rows, cols=cols, count=0, meta=meta))
        )

    def append_batch(self, bits: np.ndarray, labels: np.ndarray) -> None:
        """Append unpacked bit rows (n, rows*cols) with labels (n,).

        The records are written before it returns, so a caller may refill
        `bits` for its next chunk.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        labels = np.asarray(labels, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.rows * self.cols:
            raise ValueError("batch bits must have shape (n, rows*cols)")
        if labels.shape != (bits.shape[0],):
            raise ValueError("labels must match the batch row count")
        if labels.size and labels.max() > 1:
            raise ValueError("labels must be 0 or 1")
        packed = np.packbits(bits, axis=1, bitorder="little")
        records = np.concatenate([packed, labels[:, None]], axis=1)
        self._fh.write(records)  # C-contiguous: its buffer is the record bytes
        self._count += bits.shape[0]

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        self._fh.seek(0)
        self._fh.write(
            _encode_header(
                StreamHeader(rows=self.rows, cols=self.cols, count=self._count, meta=self.meta)
            )
        )
        self._file.commit()

    def abort(self) -> None:
        """Discard the stream: delete the temporary file and write nothing."""
        if self._fh.closed:
            return
        self._file.abort()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class StreamReader:
    """Reads a GLHS example stream from the file as it was opened.

    Opening decodes the header and checks the file's length against it; the
    body is not held.  `read_batches` reads the records a chunk at a time and
    `read_records` reads them whole, packed; each raises CorruptionError if
    the path now names another file or the file has changed.  Every
    FormatError names the path.
    """

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as fh:
            self._stat = os.fstat(fh.fileno())
            head = fh.read(_HEADER_SIZE)
            if len(head) == _HEADER_SIZE:  # then the metadata, at most the whole file
                meta_len = struct.unpack_from("<I", head, _HEADER_SIZE - 4)[0]
                head += fh.read(min(meta_len, self._stat.st_size))
        try:
            self.header, self._body_offset = _decode_header(head)
        except FormatError as exc:
            raise type(exc)(f"stream {path}: {exc}") from None
        body = self._stat.st_size - self._body_offset
        expected = self.header.count * self.header.record_size
        if body != expected:
            raise CorruptionError(
                f"stream {path}: body is {body} bytes, header implies {expected}"
            )

    def __len__(self) -> int:
        return self.header.count

    def _seek_body(self, fh) -> None:
        """Move `fh`, the path opened again, to the first record; raise if the
        path now names another file or the file has changed."""
        now = os.fstat(fh.fileno())
        if any(getattr(now, key) != getattr(self._stat, key)
               for key in ("st_dev", "st_ino", "st_size", "st_mtime_ns")):
            raise CorruptionError(f"stream {self.path} changed since it was opened")
        fh.seek(self._body_offset)

    def _check_labels(self, labels: np.ndarray) -> None:
        if labels.max(initial=0) > 1:
            raise CorruptionError(f"stream {self.path}: label byte must be 0 or 1")

    def read_batches(self, chunk: int = 4096) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (bits (n, rows*cols) uint8, labels (n,) uint8) chunks.

        The generator keeps no reference to a bit matrix it has yielded, so a
        consumer that drops each one before asking for the next holds one.
        """
        rs = self.header.record_size
        dim = self.header.bits_per_example
        count = self.header.count
        with open(self.path, "rb") as fh:
            self._seek_body(fh)
            for start in range(0, count, chunk):
                rows = min(chunk, count - start)
                data = fh.read(rows * rs)
                if len(data) != rows * rs:
                    raise CorruptionError(
                        f"stream {self.path}: body is shorter than its header implies"
                    )
                block = np.frombuffer(data, dtype=np.uint8).reshape(rows, rs)
                labels = block[:, -1].copy()
                self._check_labels(labels)
                yield np.unpackbits(block[:, :-1], axis=1, count=dim, bitorder="little"), labels

    def read_records(self) -> tuple[np.ndarray, np.ndarray]:
        """(packed (count, bytes) uint8, labels (count,) uint8): every record, as stored.

        One (count, record_size) array holds the body, and both results are
        views of it: each row's bits packed eight per byte, least significant
        first, then its label.  The pad bits of a row's last byte (when
        rows*cols is not a multiple of 8) are cleared, so no set bit lies
        past the row; `read_batches` ignores them too.
        """
        rs = self.header.record_size
        dim = self.header.bits_per_example
        body = np.empty((self.header.count, rs), dtype=np.uint8)
        with open(self.path, "rb") as fh:
            self._seek_body(fh)
            if fh.readinto(body) != body.size:
                raise CorruptionError(
                    f"stream {self.path}: body is shorter than its header implies"
                )
        packed, labels = body[:, :-1], body[:, -1]
        self._check_labels(labels)
        if dim % 8:
            packed[:, -1] &= (1 << dim % 8) - 1
        return packed, labels
