"""Embedding operators y = h(Ax + w) and embedding-space geometry.

Operators are immutable (A, w, map) bundles.  Embeddings are one type from
embed_batch to the UEMB file: an EmbeddingBatch, n codes of length M.  A
binary batch (the {0, 1} square wave's) holds its codes as ``bits``, one
packed n x ceil(M/8) uint8 matrix that is also the UEMB payload; its rows
are views of ``bits``, and ``values`` is a read-only float64 copy unpacked
on each read.  Any other batch holds one n x M float64 matrix, ``values``.
Distances are per row pair of two batches, normalized by M (means, not
sums) so tolerance guarantees are rate-independent; two binary batches are
compared by counting bits.

Batching: every projection goes through the same >=2-row GEMM path, and
embed is a batch of one.  The same batch gives the same bits, but at small
shapes (M=256, N=64 and M=128, N=32 measured) OpenBLAS rounds a row by the
rows batched with it, so embed, embed_batch and a split batch can differ
in the last bit: smooth maps show it, the square wave hides it.

A batch of n signals allocates one n x M float64 array: one GEMM writes
it, the dither is added and the map applied in place; a binary map's batch
then packs it into bits and lets it go.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .maps import (
    _MAX_QUANTIZER_BITS,
    PeriodicMap,
    _check_bits,
    _quantize_values,
    make_multibit,
    make_square_wave,
)
from .randproj import ProjectionSpec, sample_dither, sample_projection

MAGIC = b"UEMB"
FORMAT_VERSION = 1
_FLAG_PACKED_BITS = 0x1


class FormatError(ValueError):
    """Embedding file fails magic/version/structure validation."""


@dataclass(frozen=True)
class EmbeddingOperator:
    """Frozen (A, w, map, spec) bundle mapping R^N signals to R^M embeddings."""

    A: np.ndarray
    w: np.ndarray
    map: PeriodicMap
    spec: ProjectionSpec
    M: int
    N: int
    seed: int

    def __post_init__(self):
        if self.A.shape != (self.M, self.N):
            raise ValueError("A must be M x N")
        if self.w.shape != (self.M,):
            raise ValueError("w must have length M")
        if np.any(self.w < 0) or np.any(self.w >= 1):
            raise ValueError("dither entries must lie in [0, 1)")
        self.A.setflags(write=False)
        self.w.setflags(write=False)

    @property
    def operator_id(self):
        """Provenance tag stored with embeddings; distance checks compare it."""
        return "%s|%s|seed=%d|M=%d|N=%d" % (
            self.map.name, self.spec.describe(), self.seed, self.M, self.N
        )


class EmbeddingBatch:
    """n embedded signals of one operator (n >= 0), as n codes of length M.

    A binary batch holds ``bits``: its {0, 1} codes packed 8 to a byte, the
    n x ceil(M/8) uint8 rows of ``np.packbits(axis=1)`` with zero padding
    bits, which are also the UEMB payload; ``values`` unpacks a fresh
    n x M float64 copy, read-only, since a write to it would not reach the
    batch.  Any other batch holds ``values``, one n x M float64 matrix, and
    its ``bits`` is None.  Building a binary batch from values raises
    ValueError on a value other than 0 or 1, which bits cannot keep.

    A single embedding is a batch of one.  ``len`` is n; an int index gives
    row i as a batch of one and a slice a sub-batch, both views of ``bits``
    (binary) or ``values``, so iteration yields batches of one; ``+`` joins
    the rows of two batches of one operator, code and M.
    ``saturation_count`` holds post_quantize's clamped values per row.
    """

    def __init__(self, values, map_id, binary=False, quantized_bits=None,
                 saturation_count=None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or (len(values) and not values.shape[1]):
            raise ValueError("values must be an n x M array, with M >= 1 unless n = 0")
        self.map_id, self.binary, self.M = map_id, binary, values.shape[1]
        self.quantized_bits, self.saturation_count = quantized_bits, saturation_count
        self._codes = _pack(values) if binary else values

    @classmethod
    def _of_bits(cls, bits, M, map_id):
        """The binary batch of packed rows with zero padding bits, not copied."""
        out = cls.__new__(cls)
        out.map_id, out.binary, out.M, out._codes = map_id, True, M, bits
        out.quantized_bits = out.saturation_count = None
        return out

    @property
    def bits(self):
        return self._codes if self.binary else None

    @property
    def values(self):
        if not self.binary:
            return self._codes
        v = np.unpackbits(self._codes, axis=1, count=self.M).astype(np.float64)
        v.flags.writeable = False  # a write would be lost with the copy: raise instead
        return v

    def __len__(self):
        return len(self._codes)

    def _rows(self, codes, saturation_count):
        out = copy.copy(self)
        out._codes, out.saturation_count = codes, saturation_count
        return out

    def __getitem__(self, i):
        if not isinstance(i, slice):
            i = range(len(self))[i]  # IndexError past the end, as a sequence
            i = slice(i, i + 1)
        sat = None if self.saturation_count is None else self.saturation_count[i]
        return self._rows(self._codes[i], sat)

    def __add__(self, other):
        """Self's rows, then other's; ValueError unless one operator, code and M made both."""
        code = (self.map_id, self.binary, self.quantized_bits)
        if (other.map_id, other.binary, other.quantized_bits) != code:
            raise ValueError("batches of different operators or codes: %r vs %r"
                             % (code, (other.map_id, other.binary, other.quantized_bits)))
        if other.M != self.M:  # bits alone can agree: M = 9 and 16 are 2 bytes a row
            raise ValueError("batches of different lengths: M=%d vs M=%d" % (self.M, other.M))
        sats = (self.saturation_count, other.saturation_count)
        sat = None if any(c is None for c in sats) else np.concatenate(sats)
        return self._rows(np.concatenate([self._codes, other._codes]), sat)


def _pack(values):
    """np.packbits rows of a 0/1 float matrix; ValueError on any other value."""
    ones = values == 1.0
    n_ones = np.count_nonzero(ones)
    bits = np.packbits(ones, axis=1)
    del ones  # one n x M bool array alive at a time
    if n_ones + np.count_nonzero(values == 0.0) != values.size:
        raise ValueError("a binary batch may hold only the values 0 and 1")
    return bits


def build_operator(spec, map_, M, N, rs):
    """Sample A ('matrix' stream) and w ('dither' stream) for an operator.

    spec.scale is used as-is; use universal_scale / build_universal_operator
    for the (sigma, Delta, B) parameterization of universal embeddings.
    """
    A = sample_projection(spec, M, N, rs)
    w = sample_dither(M, rs)
    M, N = A.shape
    return EmbeddingOperator(A=A, w=w, map=map_, spec=spec, M=M, N=N, seed=rs.seed)


def universal_scale(scale, Delta, bits=1):
    """Effective projection scale folding the quantizer geometry.

    A B-bit universal quantizer with step Delta spans 2^B Delta before it
    wraps; rescaling it to the period-1 map moves that span into the
    projection, giving scale / (2^B Delta).  B = 1 is the binary case.
    """
    if not (0 < scale < math.inf and 0 < Delta < math.inf):  # false for NaN too
        raise ValueError("scale and Delta must be positive and finite")
    return scale / (2 ** _check_bits(bits, _MAX_QUANTIZER_BITS) * Delta)


def build_universal_operator(family, scale, Delta, bits, M, N, rs):
    """Universal embedding operator at user-level (scale, Delta, B).

    B = 1 uses the {0,1} square-wave map (Hamming-compatible); B > 1 uses
    the B-bit quantized sawtooth.
    """
    spec = ProjectionSpec(family, universal_scale(scale, Delta, bits))
    map_ = make_square_wave() if bits == 1 else make_multibit(bits)
    return build_operator(spec, map_, M, N, rs)


def _project_rows(op, X):
    """X @ A.T + w through a fixed >=2-row GEMM path (see module docstring).

    Two or more rows (or none) are one GEMM; one row goes through a
    padded two-row product and keeps its first row.
    """
    out = ((np.concatenate([X, X]) if len(X) == 1 else X) @ op.A.T)[:len(X)]
    out += op.w
    return out


def embed(op, x):
    """y_i = h(<a_i, x> + w_i), as a batch of one."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.N,):
        raise ValueError("signal must have length N=%d" % op.N)
    return embed_batch(op, x[None, :])


def embed_batch(op, X):
    """Embed the rows of the n x N X (n >= 0): the map of each row's projection."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != op.N:
        raise ValueError("batch must be n x N with N=%d" % op.N)
    if not np.all(np.isfinite(X)):
        raise ValueError("signals must be finite")
    Y = _project_rows(op, X)
    return EmbeddingBatch(op.map(Y, out=Y), op.operator_id, op.map.is_binary)


METRICS = ("sq_l2_mean", "l2_mean", "hamming_mean", "inner_mean")


def embedding_distance(y, y2, metric):
    """Normalized embedding-space distance or inner product of each row pair.

    y and y2 are batches of one operator and one shape; the result holds one
    float64 per row pair (y[i], y2[i]).  sq_l2_mean = (1/M) ||y - y'||_2^2,
    l2_mean its square root, hamming_mean the fraction of differing
    coordinates ({0,1} embeddings only, where it equals sq_l2_mean exactly),
    inner_mean = (1/M) <y, y'>.  Two binary batches are compared on their
    bits: the set bits of XOR (AND for inner_mean), exact integer counts
    divided by M, which are the float sums bit for bit.
    """
    if metric not in METRICS:
        raise ValueError("unknown metric %r" % (metric,))
    if y.map_id != y2.map_id:
        raise ValueError(
            "embeddings come from different operators: %r vs %r" % (y.map_id, y2.map_id)
        )
    if (len(y), y.M) != (len(y2), y2.M):
        raise ValueError("batch shape mismatch: %r vs %r" % ((len(y), y.M), (len(y2), y2.M)))
    if y.binary and y2.binary:
        both = (np.bitwise_and if metric == "inner_mean" else np.bitwise_xor)(y.bits, y2.bits)
        mean = np.bitwise_count(both, out=both).sum(axis=1) / y.M
    elif metric == "hamming_mean":
        raise ValueError("hamming_mean requires binary {0,1} embeddings")
    elif metric == "inner_mean":
        return np.vecdot(y.values, y2.values) / y.M
    else:
        diff = y.values - y2.values
        np.square(diff, out=diff)
        mean = np.sum(diff, axis=1) / y.M
    return np.sqrt(mean) if metric == "l2_mean" else mean


def post_quantize(y, bits, S):
    """Uniform scalar quantization of a batch over [-S, S].

    Step 2^{-B+1} S with midpoint reconstruction, for B up to 40 as in
    quantize_map; inputs outside [-S, S] clamp to the edge cells and are
    counted, per row, in saturation_count.  Non-finite values raise
    ValueError: NaN has no cell, and an infinity would pass as an ordinary
    saturated value.
    """
    bits = _check_bits(bits, _MAX_QUANTIZER_BITS)
    if not (S > 0 and math.isfinite(2.0 * S)):
        raise ValueError("saturation level S must be positive with 2S finite")
    v = y.values
    if not np.all(np.isfinite(v)):
        raise ValueError("embedding values must be finite")
    return EmbeddingBatch(
        values=_quantize_values(v.copy(), (-S, S), bits),
        map_id=y.map_id,
        quantized_bits=bits,
        saturation_count=np.count_nonzero((v < -S) | (v >= S), axis=1),
    )


# ---------------------------------------------------------------------------
# Persistence: little-endian binary container + CSV export

_HEADER = struct.Struct("<4sHHIQ")


def save_embeddings(path, batch):
    """Write a batch to the UEMB container; bit-exact round trip.

    The payload is the n x M codes, M >= 1 unless n = 0: a binary batch's
    ``bits`` as they are (flag bit 0), any other batch's values as raw
    float64.
    """
    mid = batch.map_id.encode("utf-8")
    if len(mid) > 0xFFFF:
        raise ValueError("map_id too long")
    if batch.binary:
        flags, payload = _FLAG_PACKED_BITS, np.ascontiguousarray(batch.bits)
    else:
        flags, payload = 0, np.ascontiguousarray(batch.values, dtype="<f8")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, flags, batch.M, len(batch)))
        f.write(struct.pack("<H", len(mid)))
        f.write(mid)
        f.write(payload)


def load_embeddings(path):
    """Read a UEMB container written by save_embeddings.

    The header, the map id and the payload size are validated before the
    payload is read, as the batch's one array, so a malformed file raises
    FormatError in bounded time.  A packed payload becomes the batch's
    ``bits`` without unpacking, and raises FormatError if a padding bit
    past M is set, which bit counts would read as a differing coordinate.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise FormatError("truncated header")
        magic, version, flags, M, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError("bad magic %r" % (magic,))
        if version != FORMAT_VERSION:
            raise FormatError("unsupported version %d" % version)
        if flags & ~_FLAG_PACKED_BITS:
            raise FormatError("undefined flag bits 0x%04x" % (flags & ~_FLAG_PACKED_BITS))
        raw_len = f.read(2)
        if len(raw_len) != 2:
            raise FormatError("truncated map id length")
        (mid_len,) = struct.unpack("<H", raw_len)
        try:
            map_id = f.read(mid_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("map id is not UTF-8") from None
        if M == 0 and count > 0:
            raise FormatError("%d vectors of length 0" % count)
        packed = bool(flags & _FLAG_PACKED_BITS)
        per_vec = (M + 7) // 8 if packed else 8 * M
        payload = os.fstat(f.fileno()).st_size - f.tell()
        if count * per_vec != payload:
            raise FormatError(
                "payload of %d bytes does not hold %d vectors of %d bytes"
                % (payload, count, per_vec)
            )
        if packed:
            bits = np.fromfile(f, dtype=np.uint8, count=payload).reshape(count, per_vec)
            if M % 8 and np.any(bits[:, -1] & (0xFF >> M % 8)):
                raise FormatError("padding bits past M=%d are set" % M)
            return EmbeddingBatch._of_bits(bits, M, map_id)
        Y = np.fromfile(f, "<f8", count * M).reshape(count, M).astype(np.float64, copy=False)
    return EmbeddingBatch(Y, map_id)


def export_csv(path, batch):
    """CSV export: header id,v0..v{M-1}, one row per embedding."""
    with open(path, "w", newline="") as f:
        f.write("id," + ",".join("v%d" % j for j in range(batch.M)) + "\n")
        for i, row in enumerate(batch.values):
            f.write(str(i) + "," + ",".join(repr(float(x)) for x in row) + "\n")
