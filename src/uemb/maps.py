"""Catalog of period-1 embedding nonlinearities and their power spectra.

Every map h(t) here has period 1 and a bounded codomain.  What the rest of
the library consumes is the *folded* one-sided power spectrum

    P_0 = |H_0|^2,     P_k = |H_k|^2 + |H_-k|^2 = 2|H_k|^2   (k >= 1),

so that Parseval reads  sum_k P_k = int_0^1 h(t)^2 dt  and the squared-
distance map of an embedding built on h saturates at 2 * sum_{k>=1} P_k.

Each map has one spectrum, ``power_coeffs()``, computed on first use: the
closed-form infinite series of the square wave and the sawtooth (a
``HarmonicSeries``), the declared terms of a mixture, and the finite
``PowerSpectrum`` of a quantized kind, whose powers sum to the map's exact
total: the power above its listed harmonics, known by Parseval, is listed
at the next one.  Every kind states its ``dc_power``, ``ac_power`` and
``tail_bound``.  The engine of ``uemb.theory`` sums a ``HarmonicSeries``
through its ``blocks()``, ascending (hi, k, P_k, power above hi), and a
``PowerSpectrum`` in one pass over its ``xi`` = 2 pi k and ``xi_power``.
A quantized kind's Fourier coefficients are summed over its jumps J_j at
its breaks t_j, H_k = sum_j J_j e^{-2 pi i k t_j} / (2 pi i k), with each
exponential the product of two small tables (a row per 64 harmonics and a
64-harmonic step table), so a block of harmonics costs 1/64 of the
exponentials of one per (harmonic, break).  Each P_k agrees with the
per-piece integrals within 2.4e-15 of the map's total power.
Quantizer levels are computed in one place, ``_quantize_values``.

Evaluation writes into one float64 array: a new one, or the caller's
``out=`` (which may be the argument itself, as ``embed_batch`` passes).
It runs in blocks of ``_MAP_BLOCK`` elements: ``_frac`` writes a block's
t - floor(t) into its slice of that array, and every kind maps the slice
in place (a quantized kind's inner map included, and
``_quantize_values``' chain of steps).  The floor, the finite check and
a mixture's running sum and term are each one block in size.  An
argument other than ``out`` is never written to.

A map's codomain ``value_range`` (and its width ``hbar``) is given at
construction, except a smooth map's, which is computed on first use, as
its spectrum is: the curves of ``uemb.theory`` read only the spectrum, and
only the concentration bounds and the quantizer cells read the codomain.

Discontinuity convention: maps are right-continuous at bin edges (a bin's
value holds from its left endpoint).  Dither makes the convention measure-
zero irrelevant, but determinism requires one choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)

# A quantized kind's spectrum lists harmonics until the power above them is
# at most SPECTRUM_TOL * max(total power, 1), or up to KMAX_CAP; that power
# is then listed at the next harmonic.
KMAX_CAP = 2 ** 16
SPECTRUM_TOL = 5e-4

# Last harmonic a HarmonicSeries' blocks reach.
_K_CAP = 1 << 21

_MAX_QUANTIZER_BITS = 40  # quantize_map's finest B
# A quantized sawtooth has 2^B pieces: B of a multibit map, and of a
# sawtooth whose constant pieces are listed, is at most this.
_MAX_SAWTOOTH_BITS = 16

# Complex exponentials in one table of a piecewise spectrum (2^22 complex128
# is 64 MiB): a block of more harmonics x breaks is built in row chunks.
_SPECTRUM_BLOCK = 1 << 22


# Grid points per window of a bounded grid scan (``_scan_windows``): every
# _STRIDE-th point is evaluated first, then only the windows between them
# that a slope bound cannot rule out.
_STRIDE = 64

# Elements per block of map evaluation (2^15 float64 is 256 KiB); the
# temporaries of a map call are each this size at most.
_MAP_BLOCK = 1 << 15


def _frac(t, out=None):
    """t - floor(t) in [0, 1), in ``out`` (by default a new float64 array).

    ``out`` has t's shape and may be t itself.  For finite t this rounds
    the same exact value as np.mod(t, 1.0).  For t in [-2^-54, 0) that
    value rounds up to 1.0, which is the period's start, so it is folded
    to 0.0.
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("map argument must be finite")
    if out is None:
        out = np.empty(t.shape)
    np.subtract(t, np.floor(t), out=out)
    out[out == 1.0] = 0.0
    return out


@dataclass(frozen=True)
class PowerSpectrum:
    """Finite folded power spectrum of a periodic map.

    ``k`` and ``power`` hold the coefficients (k ascending; k=0 is the DC
    power when present), and sum(power) is the map's total power.  A
    quantized kind lists its P_1 .. P_K and, at K + 1, the power T of all
    harmonics above K; ``tail_bound`` is T, which bounds the error of that
    placement in any sum of P_k phi_k with phi falling in k.  ``dc_power``,
    ``ac_power`` (k >= 1), the phi arguments ``xi`` = 2 pi k (ascending,
    k >= 1) and their powers ``xi_power`` are derived once; the engine of
    ``uemb.theory`` sums ``xi_power`` against phi at ``xi``.
    """

    k: np.ndarray
    power: np.ndarray
    tail_bound: float
    dc_power: float = field(init=False)
    ac_power: float = field(init=False)
    xi: np.ndarray = field(init=False, repr=False)
    xi_power: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = np.asarray(self.k, dtype=np.int64)
        p = np.asarray(self.power, dtype=np.float64)
        if k.shape != p.shape:
            raise ValueError("k and power must have equal length")
        if len(k) and (np.any(np.diff(k) <= 0) or k[0] < 0):
            raise ValueError("k must be nonnegative and strictly increasing")
        if np.any(p < 0) or self.tail_bound < 0:
            raise ValueError("powers and tail bound must be nonnegative")
        ac = k >= 1
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "power", p)
        object.__setattr__(self, "dc_power", float(p[0]) if len(k) and k[0] == 0 else 0.0)
        object.__setattr__(self, "ac_power", float(np.sum(p[ac])))
        object.__setattr__(self, "xi", 2.0 * np.pi * k[ac].astype(np.float64))
        object.__setattr__(self, "xi_power", p[ac])


@dataclass(frozen=True)
class HarmonicSeries:
    """Closed-form folded spectrum P_k = c / (pi k)^2 on k = 1, 1 + step, ...

    ``dc_power`` is the exact P_0 and ``ac_power`` the exact sum over
    k >= 1.  Nothing is left unlisted, so ``tail_bound`` is 0.
    """

    c: float
    step: int
    dc_power: float
    ac_power: float
    tail_bound = 0.0

    def powers(self, lo, hi):
        """(k, P_k) float64 arrays of the series' harmonics in [lo, hi]."""
        lo += (1 - lo) % self.step
        ks = np.arange(lo, hi + 1, self.step, dtype=np.float64)
        return ks, self.c / (np.pi * ks) ** 2

    def blocks(self):
        """Ascending (hi, k, P_k, power above hi) blocks, ending at _K_CAP.

        The first block spans 512 harmonics; each next one 4x more, up to 2^18.
        """
        lo, block, partial = 1, 512, 0.0
        while lo <= _K_CAP:
            hi = min(lo + block - 1, _K_CAP)
            ks, powers = self.powers(lo, hi)
            partial += float(np.sum(powers))
            yield hi, ks, powers, max(self.ac_power - partial, 0.0)
            lo = hi + 1
            block = min(block * 4, 1 << 18)


_SERIES = {
    "square": HarmonicSeries(c=2.0, step=2, dc_power=0.25, ac_power=0.25),
    "sawtooth": HarmonicSeries(c=1.0, step=1, dc_power=0.0, ac_power=1.0 / 6.0),
}


class PeriodicMap:
    """A period-1 scalar map h(t); immutable after construction.

    Instances evaluate vectorized via ``__call__`` and expose their exact
    codomain bounds.  Construction goes through the ``make_*`` /
    ``quantize_map`` factories below.
    """

    def __init__(self, kind, params, value_range=None):
        self.kind = kind
        self.params = dict(params)
        self._range = None
        if value_range is not None:
            self._range = (float(value_range[0]), float(value_range[1]))
        self._pieces = None
        self._spectrum = None

    @property
    def is_binary(self):
        """True for the {0, 1} square wave, whose codes compare by Hamming distance."""
        return self.kind == "square"

    @property
    def value_range(self):
        """(inf h, sup h) as two floats.

        Given at construction, except a smooth map's (a mixture's), which
        ``_smooth_range`` computes on first use, as ``power_coeffs()`` does
        the spectrum: the curves of ``uemb.theory`` never read it.
        """
        if self._range is None:
            self._range = _smooth_range(self)
        return self._range

    @property
    def hbar(self):
        """Codomain width sup h - inf h."""
        lo, hi = self.value_range
        return hi - lo

    @property
    def name(self):
        """Config-file selector string for this map."""
        if self.kind in ("square", "sawtooth"):
            return self.kind
        if self.kind == "multibit":
            return "multibit:B=%d" % self.params["B"]
        if self.kind == "mixture":
            terms = ",".join(
                "%d:%s" % (k, repr(float(a))) for k, a in self.params["terms"]
            )
            return "mixture:" + terms
        if self.kind == "quantized":
            return "quantized:%s:B=%d" % (self.params["inner"].name, self.params["B"])
        raise AssertionError(self.kind)

    def __repr__(self):
        return "PeriodicMap(%s)" % self.name

    def __call__(self, t, out=None):
        """h(t) elementwise; a float for a 0-d t, else a float64 array.

        With ``out=`` (a C-contiguous float64 array of t's shape, which may
        be t) the values are written into ``out``, which is returned.  A
        non-finite t raises ValueError and may leave ``out`` partly written.
        """
        t = np.asarray(t, dtype=np.float64)
        if out is None:
            res = np.empty(t.shape)
        elif (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == t.shape and out.flags.c_contiguous):
            res = out
        else:
            raise ValueError("out must be a C-contiguous float64 array of t's shape")
        src, dst = t.reshape(-1), res.reshape(-1)
        for lo in range(0, dst.size, _MAP_BLOCK):
            tau = _frac(src[lo:lo + _MAP_BLOCK], out=dst[lo:lo + _MAP_BLOCK])
            h = self._map_frac(tau)
            if h is not tau:
                tau[...] = h
        if out is None and t.ndim == 0:
            return float(res)
        return res

    def _map_frac(self, tau):
        """h on tau in [0, 1), overwriting tau; returns the result array."""
        if self.kind == "square":
            return np.less(tau, 0.5, out=tau)
        if self.kind == "sawtooth":
            tau -= 0.5
            tau *= SQRT2
            return tau
        if self.kind == "mixture":
            # the sum starts from +0.0, so a zero sum is +0.0 as well
            out = np.zeros_like(tau)
            term = np.empty_like(tau)
            for k, a in self.params["terms"]:
                np.multiply(tau, 2.0 * np.pi * k, out=term)
                np.sin(term, out=term)
                term *= a
                out += term
            return out
        if self.kind in ("multibit", "quantized"):
            inner = self.params["inner"]
            return _quantize_values(
                inner._map_frac(tau), inner.value_range, self.params["B"]
            )
        raise AssertionError(self.kind)

    # -- spectrum -----------------------------------------------------------

    def power_coeffs(self):
        """The map's folded power spectrum, computed on first use.

        The closed-form ``HarmonicSeries`` for square/sawtooth; the declared
        terms for mixtures; piecewise-exact Fourier integrals for the
        (piecewise-constant) quantized kinds, with the power above the last
        listed harmonic at the next one (see ``_pieces_spectrum``).
        """
        if self._spectrum is None:
            self._spectrum = _compute_spectrum(self)
        return self._spectrum

    def constant_pieces(self):
        """(t0, t1, value) tiles of [0,1) for piecewise-constant kinds."""
        if self._pieces is None:
            self._pieces = _constant_pieces(self)
        return self._pieces


def _check_bits(bits, most):
    """``bits`` as an int; ValueError unless it is an integer in [1, most]."""
    if not (1 <= bits <= most and int(bits) == bits):  # false for NaN too
        raise ValueError("bits must be an integer in [1, %d]" % most)
    return int(bits)


def _quantize_values(v, value_range, bits):
    """Midpoint level of v's cell among 2^bits equal cells of value_range.

    The one place a quantizer level is computed: map evaluation, codomain
    ends, constant pieces, post-quantization and quant-sim all use it.  The
    steps run in place: v, a float64 array the caller owns, is overwritten
    with the levels and returned.
    """
    lo, hi = value_range
    levels = 2 ** bits
    step = (hi - lo) / levels
    v -= lo
    v /= step
    np.floor(v, out=v)
    np.clip(v, 0, levels - 1, out=v)
    v += 0.5
    v *= step
    v += lo
    return v


# ---------------------------------------------------------------------------
# Factories


def make_square_wave():
    """Binary universal quantizer map: 1 on [0, 1/2), 0 on [1/2, 1).

    AC power 1/4 (series ``_SERIES["square"]``), so the squared-distance
    map saturates at 1/2.
    """
    return PeriodicMap("square", {}, (0.0, 1.0))


def make_sawtooth():
    """Period-1 sawtooth sqrt(2)*(t - 1/2), values in [-sqrt2/2, sqrt2/2).

    The sqrt(2) amplitude gives the series ``_SERIES["sawtooth"]`` unit
    coefficients, total power 1/6, and the map asymptote 1/3.
    """
    return PeriodicMap("sawtooth", {}, (-SQRT2 / 2, SQRT2 / 2))


def make_fourier_mixture(terms):
    """h(t) = sum_i a_i sin(2 pi k_i t) for terms = [(k_i, a_i), ...].

    Folded power is a_i^2/2 at each declared frequency (Parseval:
    sum a_i^2/2 = int h^2).  Building the map computes neither its
    spectrum nor its codomain: ``value_range`` is found on first use.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("mixture needs at least one term")
    freqs = [k for k, _ in terms]
    if len(set(freqs)) != len(freqs):
        raise ValueError("duplicate mixture frequencies")
    clean = []
    for k, a in terms:
        if not (1 <= k <= 2 ** 53 and int(k) == k):
            raise ValueError("mixture frequencies must be integers in [1, 2**53]")
        a = float(a)
        if not math.isfinite(a):
            raise ValueError("mixture amplitudes must be finite")
        clean.append((int(k), a))
    if not math.isfinite(sum(a * a / 2.0 for _, a in clean)):
        raise ValueError("mixture power sum a^2/2 must be finite")
    clean.sort()
    return PeriodicMap("mixture", {"terms": tuple(clean)})


def quantize_map(inner, bits):
    """Pass ``inner`` through a B-bit uniform quantizer spanning its range.

    Cells have width range/2^B with midpoint reconstruction, so the output
    stays within range(inner)/2^{B+1} of the inner map everywhere.  For
    B = 1 this is the two-level sign-style map.
    """
    if not isinstance(inner, PeriodicMap):
        raise TypeError("inner must be a PeriodicMap")
    bits = _check_bits(bits, _MAX_QUANTIZER_BITS)
    lo, hi = (float(v) for v in inner.value_range)
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ValueError("inner map must be bounded with a positive, finite range")
    out_range = _quantize_values(np.array([lo, hi]), (lo, hi), bits)
    return PeriodicMap("quantized", {"inner": inner, "B": bits}, out_range)


def make_multibit(bits):
    """B-bit universal quantizer map: the sawtooth uniformly quantized.

    Pointwise identical to quantize_map(make_sawtooth(), B), whose codomain
    it takes; kept as its own kind so the selector name survives.
    """
    q = quantize_map(make_sawtooth(), _check_bits(bits, _MAX_SAWTOOTH_BITS))
    return PeriodicMap("multibit", q.params, q.value_range)


# ---------------------------------------------------------------------------
# Codomain range of smooth maps


def _smooth_range(map_):
    """(min, max) of a smooth map as two floats: the extremes of a 2^16-point
    grid, each refined by ``_bounded_min`` within two grid steps of it.

    The grid is scanned in windows of ``_STRIDE`` points: each window's
    first point, and then every point of the windows whose values
    ``_window_slack`` cannot keep above the least of those first values and
    below the largest.  (The last window ends at the grid's first point, a
    period on.)  Every point left out is above the grid's minimum and below
    its maximum, and each point evaluated has the bits it has on the whole
    grid, so the first index of each extreme, and the range, are the whole
    grid's, bit for bit.  Where the slack is at least sum |a_k|, half the
    widest codomain the terms allow, no window could be ruled out, and the
    whole grid is evaluated at once, as for ``mixture:400:1``.

    ``PeriodicMap.value_range`` calls it on a smooth map's first read of
    its codomain; building the map does not.
    """
    n = 1 << 16
    terms = map_.params["terms"]
    slack = _window_slack(terms, _STRIDE / n)
    if slack >= sum(abs(a) for _, a in terms):
        ts = (np.arange(n) + 0.5) / n
    else:
        firsts = map_((np.arange(0, n, _STRIDE) + 0.5) / n)
        mean = 0.5 * (firsts + np.roll(firsts, -1))
        windows = (mean - slack <= firsts.min()) | (mean + slack >= firsts.max())
        ts = (np.flatnonzero(np.repeat(windows, _STRIDE)) + 0.5) / n
    v = map_(ts)
    i_lo = int(np.argmin(v))
    i_hi = int(np.argmax(v))
    w = 2.0 / n

    def refine(i, sign):
        return sign * _bounded_min(lambda t: sign * map_(t), ts[i] - w, ts[i] + w)

    lo = min(float(v[i_lo]), refine(i_lo, 1.0))
    hi = max(float(v[i_hi]), refine(i_hi, -1.0))
    return lo, hi


def _window_slack(terms, width):
    """How far a mixture's computed values on a grid window of that width can
    lie from the mean of its computed values at the window's two ends.

    The true h moves at most L |t - t'|, with L = 2 pi sum k |a_k|, and each
    computed value is within eps of the true one, so computed values obey
    |h(t) - h(t')| <= L |t - t'| + 2 eps: on a window [a, b] each lies
    within L (b - a) / 2 + 2 eps of (h(a) + h(b)) / 2.  L is raised by 1e-9
    against its own rounding, and eps = 1e-12 sum (n + 2 pi k) |a_k| over
    the n terms is about a thousand times the rounding of 2 pi k t, of sin
    and of the n-term sum.
    """
    lip = 2.0 * math.pi * sum(k * abs(a) for k, a in terms) * (1.0 + 1e-9)
    eps = 1e-12 * sum((len(terms) + 2.0 * math.pi * k) * abs(a) for k, a in terms)
    return 0.5 * lip * width + 2.0 * eps


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL = 1e-14  # absolute tolerance on the minimiser's abscissa
_MAXFUN = 500  # cap on the minimiser's evaluations of f


def _sign1(v):
    """sign(v), with +1 for a zero v."""
    return 1.0 if v >= 0.0 else -1.0


def _bounded_min(f, a, b):
    """Smallest value of the scalar function f found on [a, b].

    Brent's bounded minimisation (golden-section steps with parabolic
    interpolation), step for step as scipy 1.17's
    ``minimize_scalar(method="bounded", options={"xatol": 1e-14})`` takes
    them: the same first point, acceptance test, tolerances, bracket
    bookkeeping and cap of ``_MAXFUN`` evaluations, so it returns the same
    float as that result's ``fun``.
    """
    a, b = float(a), float(b)
    xf = a + _GOLDEN * (b - a)
    fx = f(xf)
    nfc = fulc = xf
    fnfc = ffulc = fx
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (xf, fx), (nfc, fnfc), (fulc, ffulc)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign1(xm - xf)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _sign1(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return fx


# ---------------------------------------------------------------------------
# Piecewise-constant structure (quantized kinds)


def _constant_pieces(map_):
    if map_.kind == "square":
        return [(0.0, 0.5, 1.0), (0.5, 1.0, 0.0)]
    if map_.kind not in ("multibit", "quantized"):
        raise ValueError("map kind %r is not piecewise constant" % map_.kind)
    inner, bits = map_.params["inner"], map_.params["B"]
    if inner.kind == "sawtooth":
        # the sawtooth is linear: its cells end at the exact dyadics j/2^B
        if bits > _MAX_SAWTOOTH_BITS:
            raise ValueError("a quantized sawtooth has 2^B pieces: B must be at most %d "
                             "to list them, got %d" % (_MAX_SAWTOOTH_BITS, bits))
        breaks = np.arange(2 ** bits + 1) / 2 ** bits
    elif inner.kind == "mixture":
        breaks = _cell_crossings(inner, bits)
    else:
        breaks = np.array([t0 for t0, _, _ in inner.constant_pieces()] + [1.0])
    levels = _quantize_values(
        inner(0.5 * (breaks[:-1] + breaks[1:])), inner.value_range, bits
    )
    return list(zip(breaks[:-1].tolist(), breaks[1:].tolist(), levels.tolist()))


def _cell_crossings(inner, bits):
    """Quantizer-cell boundaries of a smooth inner map, located by bisection.

    Each change of cell between neighbouring points of a 2^-15 grid is one
    crossing; ValueError where two neighbours lie more than one cell apart,
    as some cell between them would be lost.  The grid is scanned in
    windows of ``_STRIDE`` steps: the windows' ends first, and then every
    point of the windows where the cells of the two ends' mean, less and
    plus ``_window_slack``, differ.  The cell is monotone in the value, so
    each window left out lies in one cell, and each point evaluated has the
    bits it has on the whole grid: the crossings, the check and the
    brackets are the whole grid's, bit for bit.  Where the slack is at
    least a cell's width, the mean less and plus the slack are in two cells
    for every window, and the whole grid is evaluated at once.  The
    bisection takes up to 60 halvings and stops once every bracket is two
    adjacent floats, where a further halving leaves it as it is.  It reads
    ``inner.value_range``, so quantizing a smooth map computes the inner
    map's codomain.
    """

    def cell(v):
        return _quantize_values(v, inner.value_range, bits)

    n = 1 << 15
    grid = np.arange(n + 1) / n
    lo, hi = inner.value_range
    slack = _window_slack(inner.params["terms"], _STRIDE / n)
    if slack < (hi - lo) / 2 ** bits:
        ends = inner(grid[::_STRIDE])
        mean = 0.5 * (ends[:-1] + ends[1:])
        windows = cell(mean - slack) != cell(mean + slack)
        keep = np.append(np.repeat(windows, _STRIDE), False)
        keep[_STRIDE::_STRIDE] |= windows  # and each window's right end
        grid = grid[keep]
    c = cell(inner(grid))
    # two points kept next to each other are grid neighbours, or the ends
    # of a run of windows left out, which lie in those windows' one cell
    jump = np.abs(np.diff(c))
    if np.any(jump > 1.5 * (hi - lo) / 2 ** bits):
        raise ValueError("%s has quantizer cells narrower than the 2^-15 crossing grid "
                         "at B=%d" % (inner.name, bits))
    j = np.nonzero(jump)[0]
    # all crossings at once: each keeps a in the cell of its left grid point
    a, b, ca = grid[j], grid[j + 1], c[j]
    for _ in range(60):
        m = 0.5 * (a + b)
        if np.all((m == a) | (m == b)):
            break
        same = cell(inner(m)) == ca
        a = np.where(same, m, a)
        b = np.where(same, b, m)
    return np.unique(np.concatenate(([0.0], b, [1.0])))


# ---------------------------------------------------------------------------
# Spectra


def _compute_spectrum(map_):
    if map_.kind in _SERIES:
        return _SERIES[map_.kind]
    if map_.kind == "mixture":
        terms = map_.params["terms"]
        k = np.array([kk for kk, _ in terms], dtype=np.int64)
        p = np.array([a * a / 2.0 for _, a in terms])
        return PowerSpectrum(k, p, 0.0)
    return _pieces_spectrum(map_.constant_pieces())


def _phases(ks, t):
    """e^{-2 pi i k t} on the grid ks x t, as a complex128 array."""
    e = -2j * np.pi * np.outer(ks, t)
    return np.exp(e, out=e)


def _pieces_spectrum(pieces):
    """Exact Fourier integrals of a piecewise-constant map, from its jumps.

    For a constant v on [a, b):  H_k = v (e^{-2 pi i k a} - e^{-2 pi i k b})
    / (2 pi i k).  The pieces tile [0, 1), so the sum over them is

        H_k = sum_j J_j e^{-2 pi i k t_j} / (2 pi i k),

    where t_j are the pieces' left edges and J_j = v_j - v_{j-1} their
    cyclic jumps (v_{-1} is the last piece's value).  For a block's
    harmonics k = k0 + Q p + q, q = 1..Q, the exponential is the product of
    two tables: e^{-2 pi i (k0 + Q p) t_j}, one row per p, and the step
    table J_j e^{-2 pi i q t_j}, built once.  A block of n harmonics and E
    breaks takes n E / Q exponentials, not n E; the sum over the breaks is
    ``np.einsum``, which uses no BLAS, so its bits do not depend on the
    thread count.  Q is 64: its step table of 64 E entries fits in
    _SPECTRUM_BLOCK = 2^22, as E <= 2^16 (2^B pieces of a quantized
    sawtooth, B <= 16; one break per step of a quantized mixture's 2^-15
    crossing grid; quantizing a piecewise map keeps its breaks), and rows
    are built in chunks within that size too.  Each P_k agrees with the
    per-piece integrals (two exponentials per piece) within 2.4e-15 of the
    total power: multibit at B = 3, 4, 8 and 12 and the quantized design
    mixture at B = 1, 3 and 8, and multibit at B = 4 and 12 out to
    k = 63488 under a tolerance of 2e-6.  The worst, 2.4e-15, is P_1 at
    B = 12.
    The total power is the exact sum of v^2 (b - a), so by Parseval the
    power T of the harmonics above the last listed K is that total less
    P_0 .. P_K.  The first block is always summed, and blocks are added
    until T is at most SPECTRUM_TOL * max(total, 1) or K is KMAX_CAP.  T is
    listed as P_{K+1}, the lowest harmonic it can occupy, where it weighs
    most in g; so the powers sum to the total, g is exact at its asymptote
    and below the truth by at most 2 T elsewhere, and ``tail_bound`` is T.
    """
    t0 = np.array([a for a, _, _ in pieces])
    t1 = np.array([b for _, b, _ in pieces])
    vals = np.array([v for _, _, v in pieces])
    jumps = vals - np.roll(vals, 1)
    total = float(np.sum(vals ** 2 * (t1 - t0)))
    dc = float(np.sum(vals * (t1 - t0))) ** 2

    steps = 64
    step = _phases(np.arange(1, steps + 1), t0)
    step *= jumps
    rows = max(1, _SPECTRUM_BLOCK // len(t0))  # rows of k0 + Q p per chunk
    tol = SPECTRUM_TOL * max(total, 1.0)
    blocks = []
    running = dc
    kmax = 0
    block = 2048
    while True:
        n = min(block, KMAX_CAP - kmax)  # a multiple of 2048, so of steps
        starts = np.arange(kmax, kmax + n, steps)
        sums = np.empty((len(starts), steps), dtype=np.complex128)
        for i in range(0, len(starts), rows):
            np.einsum("pe,qe->pq", _phases(starts[i:i + rows], t0), step,
                      out=sums[i:i + rows])
        hk = sums.reshape(-1) / (2j * np.pi * np.arange(kmax + 1, kmax + n + 1))
        pw = 2.0 * np.abs(hk) ** 2
        blocks.append(pw)
        running += float(np.sum(pw))
        kmax += n
        block = min(block * 2, 16384)
        tail = max(total - running, 0.0)
        if tail <= tol or kmax >= KMAX_CAP:
            break

    k = np.arange(kmax + 2, dtype=np.int64)
    p = np.concatenate(([dc], *blocks, [tail]))
    return PowerSpectrum(k, p, tail)
