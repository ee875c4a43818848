"""Lightweight column compression.

The paper's discussion (Sec. 6.3) observes that compressing the
database shifts the point where performance breaks down to a larger
scale factor or user count — without solving cache thrashing or heap
contention.  This module provides real, verifiable codecs; compression
ratios are *measured* on the actual data and applied to the nominal
sizing, so the cost model sees honestly compressed volumes.

Codecs:

* :class:`RunLengthCodec` — RLE over (value, run length) pairs; wins on
  low-cardinality or sorted columns.
* :class:`BitPackCodec` — fixed-width bit packing of the value range;
  wins on narrow domains (flags, small ints, dictionary codes).
* :class:`DeltaBitPackCodec` — delta encoding then bit packing; wins on
  nearly sorted columns (order keys, date keys).

Every codec implements exact ``encode``/``decode``, tested by
round-trip property tests.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

import numpy as np

from repro.storage.column import Column
from repro.storage.database import Database


class Codec:
    """Interface: exact encode/decode plus a size measurement."""

    name = "codec"

    def encode(self, values: np.ndarray):
        raise NotImplementedError

    def decode(self, payload, dtype, length: int) -> np.ndarray:
        raise NotImplementedError

    def compressed_bytes(self, values: np.ndarray) -> int:
        """Size of the encoded representation in bytes."""
        raise NotImplementedError

    def ratio(self, values: np.ndarray) -> float:
        """compressed size / uncompressed size, capped at 1."""
        if values.nbytes == 0:
            return 1.0
        return min(self.compressed_bytes(values) / values.nbytes, 1.0)


class RunLengthCodec(Codec):
    """(value, run length) pairs."""

    name = "rle"

    @staticmethod
    def _runs(values: np.ndarray):
        if len(values) == 0:
            return np.empty(0, dtype=values.dtype), np.empty(0, dtype=np.int64)
        change = np.flatnonzero(values[1:] != values[:-1])
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change + 1, [len(values)]))
        return values[starts], (ends - starts).astype(np.int64)

    def encode(self, values: np.ndarray):
        run_values, run_lengths = self._runs(values)
        return (run_values, run_lengths)

    def decode(self, payload, dtype, length: int) -> np.ndarray:
        run_values, run_lengths = payload
        if len(run_values) == 0:
            return np.empty(0, dtype=dtype)
        return np.repeat(run_values, run_lengths).astype(dtype)

    def compressed_bytes(self, values: np.ndarray) -> int:
        run_values, _ = self._runs(values)
        # each run: one value plus a 32-bit length
        return len(run_values) * (values.dtype.itemsize + 4)


class BitPackCodec(Codec):
    """Fixed-width packing of (value - min) into 64-bit words.

    The payload is ``(words, base, width)`` with values laid out
    back-to-back over the bits of a uint64 array (little-endian within
    each word, one zeroed spill word at the end so straddle reads never
    bounds-check).  Encoding and decoding are pure word-level shift
    arithmetic — no per-value bit matrix is ever materialised, so a
    6M-row column packs without an n x width blowup.
    """

    name = "bitpack"

    @staticmethod
    def _width_bits(values: np.ndarray) -> int:
        if len(values) == 0:
            return 1
        span = int(values.max()) - int(values.min())
        return max(span.bit_length(), 1)

    def encode(self, values: np.ndarray):
        if len(values) == 0:
            return (np.empty(0, dtype=np.uint64), 0, 1)
        base = int(values.min())
        width = self._width_bits(values)
        offsets = (values.astype(np.int64) - base).astype(np.uint64)
        n = len(offsets)
        n_words = (n * width + 63) // 64 + 1  # +1 spill word
        words = np.zeros(n_words, dtype=np.uint64)
        if 64 % width == 0:
            # Aligned widths: reshape into lanes and OR-reduce.
            per_word = 64 // width
            padded = np.zeros(
                ((n + per_word - 1) // per_word) * per_word, dtype=np.uint64
            )
            padded[:n] = offsets
            shifts = np.arange(per_word, dtype=np.uint64) * np.uint64(width)
            lanes = padded.reshape(-1, per_word) << shifts
            words[: len(lanes)] = np.bitwise_or.reduce(lanes, axis=1)
        else:
            positions = np.arange(n, dtype=np.uint64) * np.uint64(width)
            word_idx = (positions >> np.uint64(6)).astype(np.int64)
            bit_off = positions & np.uint64(63)
            np.bitwise_or.at(words, word_idx, offsets << bit_off)
            spills = np.flatnonzero(bit_off + np.uint64(width) > 64)
            if len(spills):
                high = offsets[spills] >> (np.uint64(64) - bit_off[spills])
                np.bitwise_or.at(words, word_idx[spills] + 1, high)
        return (words, base, width)

    def decode(self, payload, dtype, length: int) -> np.ndarray:
        words, base, width = payload
        if length == 0:
            return np.empty(0, dtype=dtype)
        positions = np.arange(length, dtype=np.uint64) * np.uint64(width)
        word_idx = (positions >> np.uint64(6)).astype(np.int64)
        bit_off = positions & np.uint64(63)
        low = words[word_idx] >> bit_off
        straddles = np.flatnonzero(bit_off + np.uint64(width) > 64)
        if len(straddles):
            shift = np.uint64(64) - bit_off[straddles]
            low[straddles] |= words[word_idx[straddles] + 1] << shift
        mask = np.uint64((1 << width) - 1)
        offsets = low & mask
        return (offsets.astype(np.int64) + base).astype(dtype)

    def compressed_bytes(self, values: np.ndarray) -> int:
        width = self._width_bits(values)
        return (len(values) * width + 7) // 8 + 8  # payload + base/width


class DeltaBitPackCodec(Codec):
    """First-order deltas, then bit packing."""

    name = "delta"

    def __init__(self):
        self._bitpack = BitPackCodec()

    @staticmethod
    def _deltas(values: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.astype(np.int64)
        out = np.empty(len(values), dtype=np.int64)
        out[0] = int(values[0])
        out[1:] = np.diff(values.astype(np.int64))
        return out

    def encode(self, values: np.ndarray):
        return self._bitpack.encode(self._deltas(values))

    def decode(self, payload, dtype, length: int) -> np.ndarray:
        deltas = self._bitpack.decode(payload, np.int64, length)
        return np.cumsum(deltas).astype(dtype)

    def compressed_bytes(self, values: np.ndarray) -> int:
        return self._bitpack.compressed_bytes(self._deltas(values))


#: Codecs considered by :func:`choose_codec`, in evaluation order.
CODECS: Tuple[Codec, ...] = (RunLengthCodec(), BitPackCodec(),
                             DeltaBitPackCodec())


class ColumnCompression(NamedTuple):
    """The chosen codec and measured ratio for one column."""

    codec: str
    ratio: float


def choose_codec(values: np.ndarray) -> ColumnCompression:
    """Pick the codec with the smallest measured size (uncompressed if
    nothing wins)."""
    best_name = "none"
    best_ratio = 1.0
    for codec in CODECS:
        ratio = codec.ratio(values)
        if ratio < best_ratio:
            best_ratio = ratio
            best_name = codec.name
    return ColumnCompression(best_name, best_ratio)


def codec_by_name(name: str) -> Codec:
    for codec in CODECS:
        if codec.name == name:
            return codec
    raise KeyError("unknown codec {!r}".format(name))


def compress_column(column: Column) -> ColumnCompression:
    """Measure and apply the best codec to ``column``.

    Only the *sizing* changes (nominal bytes shrink by the measured
    ratio); the value array stays decompressed for functional
    execution, exactly like a real engine decompressing on access.
    """
    compression = choose_codec(column.values)
    column.compression = compression
    return compression


def compress_database(database: Database) -> Dict[str, ColumnCompression]:
    """Compress every column; returns {column key: compression}."""
    # Compression rewrites column metadata in place: results memoised
    # against the uncompressed database must not survive it.  The
    # imports force plan_cache/kernels to self-register before the
    # registry-wide invalidation runs.
    from repro.engine import caches, kernels, plan_cache  # noqa: F401

    caches.invalidate_all(database)
    report = {}
    for column in database.columns():
        report[column.key] = compress_column(column)
    return report


def compression_summary(report: Dict[str, ColumnCompression]) -> str:
    """Human-readable per-column compression table."""
    lines = ["{:40s} {:>8s} {:>7s}".format("column", "codec", "ratio")]
    for key in sorted(report):
        compression = report[key]
        lines.append("{:40s} {:>8s} {:>6.2f}x".format(
            key, compression.codec,
            1.0 / compression.ratio if compression.ratio else float("inf"),
        ))
    return "\n".join(lines)
