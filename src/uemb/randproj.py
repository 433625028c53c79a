"""Randomized projections, dither, and projected-distance statistics.

Sampling is counter-based: every stream is a Philox generator keyed by
(seed, stream label), and draws are addressed by index, so identical
(seed, label, index) triples reproduce identical values no matter how the
index range is partitioned across workers.  Gaussian and Cauchy variates
are produced by inverse CDF from one uniform each, which is what makes the
index addressing exact.

The characteristic function phi_l(xi | d) of the projected signed distance
l = <a, x - x'> is what every closed-form distance/kernel map consumes:

    gaussian (scale sigma): phi = exp(-(sigma d xi)^2 / 2),  d = l2 distance
    cauchy   (scale gamma): phi = exp(-gamma d |xi|),        d = l1 distance

Every draw is transformed and scaled in place in the array it was drawn
into, so a sample of n values allocates one n-element float64 buffer.

scipy.special (for ``ndtri``) is imported by the first Gaussian draw, not
at module load, so code that never samples a Gaussian loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

FAMILIES = ("gaussian", "cauchy")

# Refuse single allocations beyond this many matrix elements.
MAX_ELEMENTS = 1 << 27

_U64 = (1 << 64) - 1
# offset that recenters the [0,1) lattice of 53-bit uniforms onto cell
# midpoints, keeping inverse-CDF arguments strictly inside (0,1)
_HALF_CELL = 2.0 ** -54

_BAD_DISTANCE = "distance d must be finite and nonnegative"


def _distance(d):
    """d as a float; ValueError unless it is finite and >= 0."""
    d = float(d)
    if not 0.0 <= d < math.inf:  # false for NaN too
        raise ValueError(_BAD_DISTANCE)
    return d


def _distances(ds):
    """ds as a 1-D float64 array; ValueError unless each d is finite and >= 0."""
    ds = np.asarray(ds, dtype=np.float64).ravel()
    ok = ds >= 0.0
    ok &= ds < math.inf
    if not ok.all():
        raise ValueError(_BAD_DISTANCE)
    return ds


def _count(n, what):
    """``n`` as an int; ValueError unless it is an integer >= 1."""
    if not (1 <= n < math.inf and int(n) == n):  # false for NaN too
        raise ValueError("%s must be an integer >= 1" % what)
    return int(n)


@dataclass(frozen=True)
class ProjectionSpec:
    """Distribution family and scale of the random projection rows."""

    family: str
    scale: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("family must be one of %r" % (FAMILIES,))
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")

    @property
    def signal_metric(self):
        """Signal-space distance the projection statistics depend on."""
        return "l2" if self.family == "gaussian" else "l1"

    def describe(self):
        return "%s:%s" % (self.family, repr(float(self.scale)))


def _fnv1a64(s):
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _U64
    return h


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomState:
    """Root of all randomness: a 64-bit seed plus named substreams."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _U64)

    def child(self, label):
        """Derived state for an independent experiment cell."""
        return RandomState(_splitmix64(self.seed ^ _fnv1a64(str(label))))

    def _bit_generator(self, stream, start):
        if start < 0:
            raise ValueError("start index must be nonnegative")
        bg = Philox(key=[self.seed, _fnv1a64(str(stream))])
        # Philox.advance moves one 256-bit block = 4 uniform doubles
        bg.advance(start // 4)
        gen = Generator(bg)
        if start % 4:
            gen.random(start % 4)
        return gen

    def uniform(self, stream, n, start=0):
        """Draws start..start+n-1 of the stream's uniform [0,1) sequence."""
        return self._bit_generator(stream, start).random(int(n))

    def gaussian(self, stream, n, start=0):
        """Standard normals via inverse CDF, one uniform per draw."""
        from scipy.special import ndtri

        u = self.uniform(stream, n, start)
        u += _HALF_CELL
        return ndtri(u, out=u)

    def cauchy(self, stream, n, start=0):
        """Standard Cauchy via tan(pi (u - 1/2)), one uniform per draw."""
        u = self.uniform(stream, n, start)
        u += _HALF_CELL
        u -= 0.5
        u *= np.pi
        return np.tan(u, out=u)


def sample_projection(spec, M, N, rs):
    """M x N i.i.d. projection matrix from rs's "matrix" stream, row-major."""
    M, N = _count(M, "M"), _count(N, "N")
    if M * N > MAX_ELEMENTS:
        raise MemoryError("projection of %d elements exceeds cap %d" % (M * N, MAX_ELEMENTS))
    draw = rs.gaussian if spec.family == "gaussian" else rs.cauchy
    A = draw("matrix", M * N)
    A *= spec.scale
    return A.reshape(M, N)


def sample_dither(M, rs):
    """Length-M i.i.d. uniform [0,1) dither from the "dither" stream of rs."""
    M = _count(M, "M")
    if M > MAX_ELEMENTS:
        raise MemoryError("dither of %d elements exceeds cap" % M)
    return rs.uniform("dither", M)


def char_fn(spec, xi, d):
    """phi_l(xi | d), the characteristic function of the projected distance.

    d is one distance or an array of them, broadcast against xi.  The
    exponent is squared by np.square at a scalar and an array xi alike, so
    each entry of an array d or xi has the bits of its own scalar call.
    """
    d = _distances(d).reshape(np.shape(d))
    xi = np.asarray(xi, dtype=np.float64)
    if spec.family == "gaussian":
        out = np.exp(-0.5 * np.square(spec.scale * d * xi))
    else:
        out = np.exp(-spec.scale * d * np.abs(xi))
    if out.ndim == 0:
        return float(out)
    return out


def projected_diff_samples(spec, d, n, rs, stream="montecarlo", start=0):
    """n i.i.d. samples of l = <a, x-x'> at signal distance d.

    Normal(0, (sigma d)^2) for the gaussian family, Cauchy(0, gamma d) for
    the cauchy family; the Monte Carlo oracle for char_fn and the maps.
    """
    d = _distance(d)
    n = _count(n, "n")
    if d == 0:
        return np.zeros(n)
    draw = rs.gaussian if spec.family == "gaussian" else rs.cauchy
    out = draw(stream, n, start)
    out *= spec.scale * d
    return out
