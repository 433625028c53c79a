"""Embedding operators y = h(Ax + w) and embedding-space geometry.

Operators are immutable (A, w, map) bundles.  All distances are normalized
by M (means, not sums) so tolerance guarantees are rate-independent.

Batching: every projection goes through the same >=2-row GEMM path, and
embed is a batch of one.  The same batch gives the same bits, but at small
shapes (M=256, N=64 and M=128, N=32 measured) OpenBLAS rounds a row by the
rows batched with it, so embed, embed_batch and a split batch can differ
in the last bit: smooth maps show it, the square wave hides it.

A batch of n signals allocates one n x M float64 array: one GEMM writes
it, the dither is added and the map applied in place.
"""

from __future__ import annotations

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


@dataclass(eq=False)
class EmbeddingVector:
    """One embedded signal with provenance."""

    values: np.ndarray
    map_id: str
    binary: bool = False
    quantized_bits: int | None = None
    saturation_count: int | None = None


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
    """y_i = h(<a_i, x> + w_i); a batch of one."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.N,):
        raise ValueError("signal must have length N=%d" % op.N)
    return embed_batch(op, x[None, :])[0]


def embed_batch(op, X):
    """Embed a batch of signals: the map of each row's projection."""
    Y = _embed_matrix(op, X)
    map_id = op.operator_id
    is_bin = op.map.is_binary
    return [EmbeddingVector(values=y, map_id=map_id, binary=is_bin) for y in Y]


def _embed_matrix(op, X):
    """The n x M values of embed_batch(op, X), as one array (n >= 0)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != op.N:
        raise ValueError("batch must be n x N with N=%d" % op.N)
    if not np.all(np.isfinite(X)):
        raise ValueError("signals must be finite")
    Y = _project_rows(op, X)
    return op.map(Y, out=Y)


METRICS = ("sq_l2_mean", "l2_mean", "hamming_mean", "inner_mean")


def embedding_distance(y, y2, metric):
    """Normalized embedding-space distance or inner product.

    sq_l2_mean = (1/M) ||y - y'||_2^2, l2_mean its square root,
    hamming_mean the fraction of differing coordinates ({0,1} embeddings
    only, where it equals sq_l2_mean exactly), inner_mean = (1/M) <y, y'>.
    """
    if metric not in METRICS:
        raise ValueError("unknown metric %r" % (metric,))
    if y.map_id != y2.map_id:
        raise ValueError(
            "embeddings come from different operators: %r vs %r" % (y.map_id, y2.map_id)
        )
    a, b = y.values, y2.values
    if a.shape != b.shape:
        raise ValueError("embedding length mismatch")
    if metric == "inner_mean":
        return float(a @ b) / a.size
    if metric == "hamming_mean":
        if not (y.binary and y2.binary):
            raise ValueError("hamming_mean requires binary {0,1} embeddings")
        return float(np.count_nonzero(a != b)) / a.size
    sq = float(np.sum((a - b) ** 2)) / a.size
    return math.sqrt(sq) if metric == "l2_mean" else sq


def post_quantize(y, bits, S):
    """Uniform scalar quantization of an embedding over [-S, S].

    Step 2^{-B+1} S with midpoint reconstruction, for B up to 40 as in
    quantize_map; inputs outside [-S, S] clamp to the edge cells and are
    counted in saturation_count.  Non-finite values raise ValueError: NaN
    has no cell, and an infinity would pass as an ordinary saturated value.
    """
    bits = _check_bits(bits, _MAX_QUANTIZER_BITS)
    if not (S > 0 and math.isfinite(2.0 * S)):
        raise ValueError("saturation level S must be positive with 2S finite")
    v = y.values
    if not np.all(np.isfinite(v)):
        raise ValueError("embedding values must be finite")
    saturated = int(np.count_nonzero((v < -S) | (v >= S)))
    return EmbeddingVector(
        values=_quantize_values(np.array(v, dtype=np.float64), (-S, S), bits),
        map_id=y.map_id,
        binary=False,
        quantized_bits=bits,
        saturation_count=saturated,
    )


# ---------------------------------------------------------------------------
# Persistence: little-endian binary container + CSV export

_HEADER = struct.Struct("<4sHHIQ")


def _shared_shape(vectors):
    """(M, map_id) of one file's vectors, (0, "") for none; ValueError unless
    each is a 1-D array of at least one value and all share M and map_id."""
    if not vectors:
        return 0, ""
    M, map_id = vectors[0].values.size, vectors[0].map_id
    for v in vectors:
        if v.values.ndim != 1 or v.values.size == 0:
            raise ValueError("each embedding must be a 1-D array of at least one value")
        if v.values.size != M or v.map_id != map_id:
            raise ValueError("all embeddings in one file must share M and map_id")
    return M, map_id


def save_embeddings(path, vectors):
    """Write embeddings to the UEMB container; bit-exact round trip.

    The payload is one count x M array, M >= 1: binary {0,1} embeddings are
    packed 8 per byte along each row (flag bit 0), everything else is raw
    float64.
    """
    vectors = list(vectors)
    M, map_id = _shared_shape(vectors)
    packed, payload = False, b""
    if vectors:
        packed = all(v.binary for v in vectors)
        Y = np.stack([v.values for v in vectors], dtype=np.uint8 if packed else "<f8",
                     casting="unsafe")
        payload = np.packbits(Y, axis=1) if packed else Y
    flags = _FLAG_PACKED_BITS if packed else 0
    mid = map_id.encode("utf-8")
    if len(mid) > 0xFFFF:
        raise ValueError("map_id too long")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, flags, M, len(vectors)))
        f.write(struct.pack("<H", len(mid)))
        f.write(mid)
        f.write(payload)


def load_embeddings(path):
    """Read a UEMB container written by save_embeddings.

    The header, the map id and the payload size are validated before the
    payload is read, as one array whose rows are the vectors, so a
    malformed file raises FormatError in bounded time.
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
            raw = np.fromfile(f, dtype=np.uint8, count=payload).reshape(count, per_vec)
            Y = np.unpackbits(raw, axis=1, count=M).astype(np.float64)
        else:
            Y = np.fromfile(f, "<f8", count * M).reshape(count, M).astype(np.float64, copy=False)
    return [EmbeddingVector(values=y, map_id=map_id, binary=packed) for y in Y]


def export_csv(path, vectors):
    """CSV export: header id,v0..v{M-1}, one row per vector; ValueError
    unless the vectors pass save_embeddings' check (``_shared_shape``)."""
    vectors = list(vectors)
    M, _ = _shared_shape(vectors)
    with open(path, "w", newline="") as f:
        f.write("id," + ",".join("v%d" % j for j in range(M)) + "\n")
        for i, v in enumerate(vectors):
            f.write(str(i) + "," + ",".join(repr(float(x)) for x in v.values) + "\n")
