"""Closed-form distance/kernel maps and the probability-bound calculus.

The squared-distance map of an embedding y = h(Ax + w) with folded power
spectrum {P_k} and projected-distance characteristic function phi is

    g(d) = 2 sum_{k>=1} P_k (1 - phi(2 pi k | d)),

its kernel is K(d) = sum_{k>=0} P_k phi(2 pi k | d), and the two satisfy
K(d) + g(d)/2 = sum_k P_k identically.  One summation engine evaluates
both through S = sum_{k>=1} P_k phi(2 pi k | d), and the slope g'(d) as
2 sum_{k>=1} P_k |d phi(2 pi k | d) / dd|, reading the map's one
spectrum, ``power_coeffs()`` (see ``uemb.maps``), block by block: a
closed-form series with adaptive truncation against its exact AC total,
so the identity holds to rounding and g(0) = 0 exactly, and a finite
spectrum as one block whose tail_bound enters the certified error.  The
engine takes a whole grid of distances in one pass, each d stopping at
its own block with the sum a lone d would get, bit for bit; on a finite
spectrum a single d is one row.  The harmonics whose phi underflows to
exactly 0 at the smallest d of a pass, and so at every d of it, are
filled with 0 and never exponentiated, which keeps every bit; where the
smallest d's row is live to its last harmonic, the whole grid is
exponentiated with no cut to look for.  A dead row, one whose phi is
already 0 at its first harmonic, sums to +0.0 without being formed, so
such a scale d, up to the float range, gives the curves' limits and a
slope of 0 without overflowing.  The saturation radius D0 is one
bisection on (0, 1/scale], which always brackets it, and inversion one on
(0, D0); each halving evaluates its one midpoint alone.

The phi argument is unified at 2 pi k for both maps; a quadrature oracle of
E[(y - y')^2] arbitrates that convention in the test suite.

scipy.special (for ``spence``) is imported by the first dilogarithm past
its series' range, not at module load: the curves and most bounds need
numpy only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .maps import HarmonicSeries, make_square_wave
from .randproj import ProjectionSpec, _distance, _distances

SATURATION_FRACTION = 0.95


def _li2_of_expm1(x):
    """(w, Li_2(w)) at w = 1 - e^-x, x > 0: the series where w <= 3/4, else spence.

    spence(e^-x) is Li_2(w) too, but loses digits as e^-x nears 1 (2e-7
    relative at x = 1e-14) and is off by up to 3.4e-15 near e^-x = 1/2; from
    e^-x = 1/4 down it is within 5.4e-16.  The series' 120 terms w^k / k^2
    leave out less than 1e-19 of the sum at w = 3/4.
    """
    w = -math.expm1(-x)
    if w <= 0.75:
        return w, math.fsum(w ** k / (k * k) for k in range(1, 121))
    from scipy.special import spence

    return w, float(spence(math.exp(-x)))


# ---------------------------------------------------------------------------
# Summation engine


# Elements in one phi block (2^15 float64 is 256 KiB, well inside L2).  A
# 1000-point curve of a 2049-harmonic spectrum took 4.8-5.0 ms in such
# blocks, 5.4-5.5 ms in 2^14, 5.3 ms in 2^16 and 6.0-6.5 ms in 2^18
# (medians of 15, both families; 2-vCPU Xeon, 2 MiB L2 per core).  A row
# longer than a block is evaluated alone.
_PHI_BLOCK = 1 << 15

# The largest scale d xi whose phi is not 0.  np.exp(x) is +0.0 for every x
# at or below -745.1332191019412 and 5e-324 at the next float up, so the
# Cauchy phi = exp(-t) lives to t = 745.1332191019411 and the Gaussian
# exp(-t^2 / 2) to t = 38.60396920271129.  An exp that returns such a 0 took
# 4-17 ns against about 1 ns for a normal result (arguments -746 to -1e4),
# and one that returns a subnormal (arguments -708.4 to -745.1) about 112 ns
# (2-vCPU Xeon).  Subnormal phi are computed all the same: they are the
# bits of char_fn.
_LIVE = {"gaussian": 38.60396920271129, "cauchy": 745.1332191019411}


def _column(ds):
    """ds as the column of a ds x xi grid; one float d is one row."""
    return ds if isinstance(ds, float) else ds[:, None]


def _phi(spec, ds, xi):
    """char_fn on the grid ds x xi, bit for bit, without its check of d.

    ds is a nonempty 1-D array, one row per d, or one float d, one row; xi
    ascends.  Each entry of the grid is the one product fl(scale d * xi_k).
    Past the last scale d xi <= _LIVE in the row of the smallest d, read
    from the grid itself, phi is exactly 0 in every row: those columns are
    filled with 0, not exponentiated.  Where that row is live to its last
    column, the whole grid is exponentiated, with no cut to look for.
    Subnormal phi are computed.  Rows keep their full length, so a dot
    product over a row sums in the same order.
    """
    sd = spec.scale * ds
    if isinstance(ds, float):
        # the operator, not np.multiply(sd, xi): the same product, but the
        # ufunc call took 1.1 against 0.6 us with a Python float first
        out = smallest = sd * xi
    else:
        # Not the broadcast sd[:, None] * xi: numpy buffers that one when its
        # rows are shorter than about a third of its 8192-element buffer,
        # and it took 1.2-1.3 ns/elem on 6-16 x 2049 grids against 0.3 from
        # about 2800 columns up (0.27-0.40 at 2049 under np.setbufsize(2048),
        # which is process-wide state).  einsum adds each product to a
        # zeroed output, unbuffered, which keeps its bits (0 + x is x for
        # every x >= +0): 20 against 37 us at 16 x 2049, 5.0 against 5.8 at
        # 500 x 2, but 21 against 10 at 4 x 8192 (2-vCPU Xeon, numpy 2.4).
        out = np.einsum("i,j->ij", sd, xi)
        smallest = out[sd.argmin()]
    cut, live = _LIVE[spec.family], out
    if smallest[-1] > cut:
        n = int(smallest.searchsorted(cut, "right"))
        out[..., n:] = 0.0
        live = out[..., :n]
    if spec.family == "gaussian":
        np.square(live, out=live)
        live *= -0.5
    else:
        np.negative(live, out=live)
    np.exp(live, out=live)
    return out


def _slope(spec, ds, xi):
    """-d phi(xi | d) / dd / scale on the grid ds x xi: phi xi^2 scale d for
    the Gaussian family, phi xi for the Cauchy.

    The caller multiplies the sum by scale once, so scale xi, which
    overflows at huge scales while g' is finite, is never formed.
    """
    out = _phi(spec, ds, xi)
    out *= xi
    if spec.family == "gaussian":
        out *= xi
        out *= spec.scale * _column(ds)
    return out


def _dead(spec, ds, x0):
    """Which of ds are dead: past the cut at their first product fl(scale d x0).

    A dead row's phi is exactly 0 at every harmonic (xi ascends from x0),
    so its term is 0 and its sum is +0.0.  The engine takes that without
    forming the row, whose products and squares overflow at huge scale d,
    and whose slope would be 0 * inf = NaN where scale d overflows.
    """
    with np.errstate(over="ignore"):  # an inf product is past the cut too
        return spec.scale * ds * x0 > _LIVE[spec.family]


def _dots(spec, ds, xi, powers, term=_phi):
    """powers . term(xi | d) for each of ds, in blocks of _PHI_BLOCK elements;
    for one float d, its row's.  A dead row (``_dead``) is +0.0, unformed.

    Each row's dot product is its own: np.vecdot over a grid, and for one
    float d ndarray.dot, the same BLAS ddot (0.4 against 0.8 us for a row
    of 2); a matrix-vector product would sum in another order.
    """
    if isinstance(ds, float):
        # in Python floats, which do not warn where scale d overflows
        if spec.scale * ds * xi.item(0) > _LIVE[spec.family]:
            return 0.0
        return term(spec, ds, xi).dot(powers)
    if len(ds) and spec.scale * ds.item(ds.argmax()) * xi.item(0) > _LIVE[spec.family]:
        out = np.zeros(len(ds))
        live = ~_dead(spec, ds, xi[0])
        out[live] = _dots(spec, ds[live], xi, powers, term)
        return out
    rows = max(1, _PHI_BLOCK // len(xi))
    out = np.empty(len(ds))
    for i in range(0, len(ds), rows):
        np.vecdot(term(spec, ds[i:i + rows], xi), powers, out=out[i:i + rows])
    return out


def _phi_sum(spectrum, spec, ds, term=_phi):
    """S = sum_{k>=1} P_k term(2 pi k | d) at each of ds, with certified errors.

    ds is a 1-D array of distances checked by ``_distances``, or one float
    checked by ``_distance``; term is ``_phi`` or ``_slope`` (d > 0 only).
    Returns (S_hat, err) with |S - S_hat| <= err: S_hat is an array for an
    array and a scalar for a float d; err is one scalar for every d of a
    finite spectrum, its tail_bound, and one per d, like S_hat, for a
    series.  A finite spectrum is one ``_dots`` pass over its AC harmonics,
    a single d one row; at d = 0, S is ac_power exactly.  A series sums its
    blocks in order, as a scalar loop would, each d stopping at its own
    block once rem = above * term(2 pi (hi+1) | d) is 1e-12 of
    max(S, ac_power / 1000) or less, a test of scale d alone (the slope's
    terms are per unit scale); half of rem goes into S_hat and half into
    err, with the tail_bound.  A float d on a series is a grid of one.

    rem bounds the rest where term falls in k: phi always, the slope past its
    peak at 2 pi k scale d = sqrt 2 (Gaussian) or 1 (Cauchy).  Below the peak
    rem >= S above / (ac_power - above), over 1e-12 S for a series before
    _K_CAP, so only S < ac_power / 1000 can stop it there: a Gaussian series
    at scale d < ~1e-19, far below where _K_CAP already cuts its slope.
    """
    if isinstance(ds, float):
        if ds > 0.0 and not isinstance(spectrum, HarmonicSeries):
            return _dots(spec, ds, spectrum.xi, spectrum.xi_power, term), spectrum.tail_bound
        if ds == 0.0:
            return spectrum.ac_power, spectrum.tail_bound
        s_hat, err = _series_sum(spectrum, spec, np.array((ds,)), term)
        return s_hat[0], err[0]
    if isinstance(spectrum, HarmonicSeries):
        return _series_sum(spectrum, spec, ds, term)
    s_hat = np.full(len(ds), spectrum.ac_power)
    pos = ds > 0.0
    s_hat[pos] = _dots(spec, ds[pos], spectrum.xi, spectrum.xi_power, term)
    return s_hat, spectrum.tail_bound


def _series_sum(spectrum, spec, ds, term):
    """_phi_sum of a HarmonicSeries at a 1-D array of distances.

    At d = 0, S is ac_power.  A dead row (``_dead`` at the first harmonic,
    2 pi) stops before the first block with S_hat +0.0, which that block
    would give it too, as its phi and rem are all 0.  Both keep err the
    tail_bound.
    """
    s_hat, err = np.zeros(len(ds)), np.full(len(ds), spectrum.tail_bound)
    s_hat[ds == 0.0] = spectrum.ac_power
    rows = np.flatnonzero((ds > 0.0) & ~_dead(spec, ds, 2.0 * np.pi))  # still summing
    d, s = ds[rows], 0.0  # their d and sums
    floor = 1e-3 * spectrum.ac_power
    for hi, ks, powers, above in spectrum.blocks():
        if not len(d):
            break
        s = s + _dots(spec, d, 2.0 * np.pi * ks, powers, term)
        rem = above * term(spec, d, np.array((2.0 * np.pi * (hi + 1),)))[:, 0]
        # every row's estimate so far: a row that stops here keeps it
        s_hat[rows], err[rows] = s + rem / 2.0, rem / 2.0 + spectrum.tail_bound
        keep = rem > 1e-12 * np.maximum(s, floor)
        rows, d, s = rows[keep], d[keep], s[keep]
    return s_hat, err


# ---------------------------------------------------------------------------
# Distance-map models

FLAVORS = ("sq_l2", "sqrt", "kernel")


class DistanceMapModel:
    """Callable distance/kernel map of one (map, spec) pair.

    flavor selects the curve: "sq_l2" is g(d) for the mean squared
    embedding distance, "sqrt" is sqrt(g) for the mean l2 distance, and
    "kernel" is K(d) for the mean inner product.  D0 is the saturation
    radius: the smallest d where the (monotone) curve reaches 95% of its
    asymptote; beyond it, inversion only reports "farther than D0".
    """

    def __init__(self, map_, spec, flavor="sq_l2"):
        if flavor not in FLAVORS:
            raise ValueError("flavor must be one of %r" % (FLAVORS,))
        if not isinstance(spec, ProjectionSpec):
            raise TypeError("spec must be a ProjectionSpec")
        self.map = map_
        self.spec = spec
        self.flavor = flavor
        self._spectrum = map_.power_coeffs()
        self._d0 = None

    # -- raw curves ---------------------------------------------------------

    @property
    def total_power(self):
        """Sum of all P_k, the map's total power (a finite spectrum lists its tail)."""
        return self._spectrum.dc_power + self._spectrum.ac_power

    @property
    def tail_bound(self):
        return self._spectrum.tail_bound

    @property
    def g_inf(self):
        """Asymptote of g: 2 * sum_{k>=1} P_k."""
        return 2.0 * self._spectrum.ac_power

    def _flavored(self, s, flavor):
        """The flavor's value from S, for a float or an array alike."""
        sp = self._spectrum
        if flavor == "kernel":
            return sp.dc_power + s
        x = sp.ac_power - s
        g = x + abs(x)  # 2 max(ac - S, 0), exactly; g(0) = 0 as S(0) = ac
        return np.sqrt(g) if flavor == "sqrt" else g

    def _value(self, d, flavor):
        """The flavor's value at one d: the engine on that d alone."""
        s, _ = _phi_sum(self._spectrum, self.spec, _distance(d))
        return float(self._flavored(s, flavor))

    def g(self, d):
        """g(d) = 2 sum_{k>=1} P_k (1 - phi(2 pi k | d)); g(0) = 0 exactly."""
        return self._value(d, "sq_l2")

    def kernel(self, d):
        """K(d) = sum_{k>=0} P_k phi(2 pi k | d); K(0) is the total power."""
        return self._value(d, "kernel")

    # -- flavored view ------------------------------------------------------

    def value(self, d):
        return self._value(d, self.flavor)

    def curve(self, ds):
        """value at each of ds, in the shape of ds, from one engine pass over
        the whole grid."""
        s, _ = _phi_sum(self._spectrum, self.spec, _distances(ds))
        return self._flavored(s, self.flavor).reshape(np.shape(ds))

    @property
    def value_inf(self):
        return float(self._flavored(0.0, self.flavor))

    def derivative(self, d):
        """Slope of the flavored curve from g'(d) = 2 sum_{k>=1} P_k |d phi / dd|:
        the engine's sum at d > 0; at d = 0 a series P_k = c / (pi k)^2 on k = 1,
        1 + step, ... has 4 c scale / (step sqrt(2 pi)) (Gaussian) or inf (Cauchy)."""
        d, sp, spec = _distance(d), self._spectrum, self.spec
        if d > 0.0:
            s = _phi_sum(sp, spec, d, _slope)[0]
        elif not isinstance(sp, HarmonicSeries):
            s = _dots(spec, d, sp.xi, sp.xi_power, _slope)
        elif spec.family == "gaussian":
            s = 2.0 * sp.c / (sp.step * math.sqrt(2.0 * math.pi))
        else:
            s = math.inf
        gp = 2.0 * spec.scale * float(s)
        if self.flavor == "sq_l2":
            return gp
        if self.flavor == "sqrt":
            gv = self.g(d)
            if gv == 0.0:
                return math.inf
            return gp / (2.0 * math.sqrt(gv))
        raise ValueError("derivative is defined for the monotone flavors only")

    # -- saturation & inversion ---------------------------------------------

    def _require_monotone_flavor(self):
        if self.flavor == "kernel":
            raise ValueError("kernel flavor is decreasing; use sq_l2 or sqrt")

    def _bisect(self, target, hi, rel_tol=0.0):
        """(lo, hi) from [0, hi] with value(lo) < target <= value(hi).

        Halves until within rel_tol of hi or until the midpoint equals an
        end: at rel_tol = 0, lo and hi end as adjacent floats.
        """
        lo = 0.0
        while hi - lo > rel_tol * max(hi, 1e-300):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if self._value(mid, self.flavor) >= target:
                hi = mid
            else:
                lo = mid
        return lo, hi

    @property
    def D0(self):
        """Smallest d with value(d) >= 0.95 * value_inf, by bisection on (0, 1/scale].

        1/scale brackets it: phi(2 pi k | 1/scale) <= e^{-2 pi} for k >= 1, so
        value(1/scale) >= 0.998 value_inf.  The curve needs no check on [0, D0]:
        g = 2 sum_k P_k (1 - phi_k(d)) with every P_k >= 0 and phi_k falling in d.
        """
        self._require_monotone_flavor()
        if self._d0 is None:
            hi = _distance(1.0 / self.spec.scale)  # ValueError where 1/scale overflows
            _, self._d0 = self._bisect(SATURATION_FRACTION * self.value_inf, hi)
        return self._d0

    def invert(self, gval, rel_tol=1e-10):
        """(d, status): the signal distance with value(d) = gval.

        status is "unique", "saturated" (gval at or past 95% of the
        asymptote; d is D0) or "below_range" (gval < 0; d is 0).
        """
        self._require_monotone_flavor()
        if not math.isfinite(gval):
            raise ValueError("gval must be finite")
        if not 0.0 <= rel_tol < 1.0:
            raise ValueError("rel_tol must be in [0, 1)")
        if gval < 0:
            return 0.0, "below_range"
        d0 = self.D0
        if gval >= SATURATION_FRACTION * self.value_inf:
            return d0, "saturated"
        if gval == 0.0:
            return 0.0, "unique"
        lo, hi = self._bisect(gval, d0, rel_tol)
        return 0.5 * (lo + hi), "unique"


# ---------------------------------------------------------------------------
# Binary universal closed forms (independent of the engine)


def _positive_finite(names, *values):
    """ValueError naming ``names`` unless every value is finite and > 0."""
    if not all(0.0 < v < math.inf for v in values):  # false for NaN too
        raise ValueError("%s must be positive and finite" % names)


def _nonnegative_finite(names, *values):
    """ValueError naming ``names`` unless every value is finite and >= 0."""
    if not all(0.0 <= v < math.inf for v in values):  # false for NaN too
        raise ValueError("%s must be nonnegative and finite" % names)


@dataclass(frozen=True)
class BinaryMapBounds:
    lower: float      # 1/2 - (1/2) exp(-(pi sigma d / sqrt2 Delta)^2)
    upper_exp: float  # 1/2 - (4/pi^2) exp(-(pi sigma d / sqrt2 Delta)^2)
    upper_lin: float  # sqrt(2/pi) sigma d / Delta


def universal_binary_map(d, sigma, Delta):
    """Hamming distance map of the binary universal embedding, with bounds.

    Evaluates  g(d) = 1/2 - sum_{i>=0} exp(-((2i+1) pi sigma d / (sqrt2
    Delta))^2) / (pi (i + 1/2))^2  by adaptive summation over the square
    wave's series blocks, plus the lower/exponential-upper/linear-upper
    bound triple.
    """
    _positive_finite("sigma and Delta", sigma, Delta)
    _distance(d)
    s = sigma * d / Delta
    upper_lin = math.sqrt(2.0 / math.pi) * s
    # saturated: e1 and every series term are 0 from pi s = 38.6 on, and
    # (pi s)^2 would overflow from 1.3e154 on
    if math.pi * s > 40.0:
        return 0.5, BinaryMapBounds(0.5, 0.5, upper_lin)
    e1 = math.exp(-((math.pi * s) ** 2) / 2.0)
    bounds = BinaryMapBounds(
        lower=0.5 - 0.5 * e1,
        upper_exp=0.5 - (4.0 / math.pi ** 2) * e1,
        upper_lin=upper_lin,
    )
    if d == 0.0:
        return 0.0, bounds
    acc = 0.0
    c = (math.pi * s) ** 2 / 2.0
    # 4 / (pi k)^2 over odd k is twice the square wave's P_k, exactly
    for hi, k, powers, above in make_square_wave().power_coeffs().blocks():
        acc += float((2.0 * powers) @ np.exp(-(c * k * k)))
        rem = 2.0 * above * math.exp(-c * (hi + 1) ** 2)
        if rem <= 1e-14 * max(acc, 1e-3):
            break
    acc += rem / 2.0
    return min(max(0.5 - acc, 0.0), 0.5), bounds


def universal_binary_map_l1(d, gamma, Delta):
    """l1 distance map of the Cauchy binary universal embedding.

    Exact dilogarithm form of  1/2 - sum_i exp(-(2i+1) x) / (pi (i+1/2))^2,
    x = pi gamma d / Delta:  the odd-k sum of q^k / k^2, q = e^-x, is
    Li2(q) - Li2(q^2)/4.  Reflected to w1 = 1 - q and w2 = 1 - q^2, the
    1/2 cancels exactly and nothing else does at small x:

        g = (4/pi^2) [-x ln w1 + Li2(w1) + (x/2) ln w2 - Li2(w2)/4].

    From x = 40 the sum is below half an ulp of 1/2, which is returned.
    """
    _positive_finite("gamma and Delta", gamma, Delta)
    x = math.pi * float(gamma) * _distance(d) / float(Delta)  # Python floats: inf, no warning
    if x == 0.0:
        return 0.0
    if x >= 40.0:  # also x = inf, where x ln w1 would be inf * 0
        return 0.5
    w1, li1 = _li2_of_expm1(x)
    w2, li2 = _li2_of_expm1(2.0 * x)
    g = (4.0 / math.pi ** 2) * (-x * math.log(w1) + li1 + 0.5 * x * math.log(w2) - 0.25 * li2)
    return min(max(g, 0.0), 0.5)


# ---------------------------------------------------------------------------
# Ambiguity & subadditivity


def ambiguity(model, d_W, eps, delta):
    """(eps + delta d_W) / g'(d~) at d~ = invert(d_W); inf when saturated.

    d_W, eps and delta are finite and >= 0, so the precision is >= 0 too."""
    _nonnegative_finite("d_W, eps and delta", d_W, eps, delta)
    num = eps + delta * d_W
    d_est, status = model.invert(d_W)
    if status == "saturated":
        return math.inf
    if num == 0.0:
        return 0.0
    slope = model.derivative(d_est)
    if slope == 0.0:
        return math.inf
    if math.isinf(slope):
        return 0.0
    return num / slope


@dataclass(frozen=True)
class SubadditivityReport:
    worst_violation: float
    worst_pair: tuple
    passed: bool


# Largest violation check_subadditivity passes: rounding in g, not a failure.
SUBADDITIVITY_SLACK = 1e-9


def check_subadditivity(g, eps, delta, grid):
    """Worst violation of (1-2eps) g(a+b) - 3delta <= g(a) + g(b) on a grid.

    ``grid`` is a 1-D array whose cartesian square is scanned; the check
    passes when the worst is at most SUBADDITIVITY_SLACK.  A NaN violation
    (from g) fails the check and is reported with its pair.
    """
    _nonnegative_finite("eps and delta", eps, delta)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError("grid must be a 1-D array of distances")
    if np.any(grid < 0):
        raise ValueError("grid points must be nonnegative")
    worst = -math.inf
    worst_pair = None
    cache = {}

    def gv(x):
        if x not in cache:
            cache[x] = g(x)
        return cache[x]

    for a, b in itertools.product(grid.tolist(), repeat=2):
        v = float((1.0 - 2.0 * eps) * gv(a + b) - 3.0 * delta - gv(a) - gv(b))
        if not v <= worst:  # true for NaN too, which fails the check at once
            worst, worst_pair = v, (a, b)
            if math.isnan(v):
                break
    return SubadditivityReport(worst, worst_pair, worst <= SUBADDITIVITY_SLACK)


# ---------------------------------------------------------------------------
# Probability-bound calculators


@dataclass(frozen=True)
class BoundReport:
    """Failure-probability upper bound.

    ``probability`` is clamped to [0, 1].  ``extras`` carries derived
    constants (r, c1, ...).
    """

    probability: float
    exponent: float
    extras: dict = field(default_factory=dict)

    @property
    def vacuous(self):
        """True for a bound that cannot certify anything (probability >= 1)."""
        return self.probability >= 1.0


def _clamped_prob(lead, exponent):
    if exponent >= 700.0:
        return 1.0
    return min(1.0, lead * math.exp(exponent))

# (n, c, lead) of each flavor's bound: lead e^{n ln Q - c M r^2}
_POINTCLOUD_TERMS = {"sq_l2": (2.0, 2.0, 1.0), "sqrt_loose": (2.0, 2.0, 1.0),
                     "sqrt_tight": (2.0, 2.0, 1.0), "kernel": (2.0, 8.0 / 9.0, 1.0),
                     "norm": (1.0, 2.0, 2.0)}
POINTCLOUD_FLAVORS = tuple(_POINTCLOUD_TERMS)


def pointcloud_bound(Q, M, eps, hbar, flavor):
    """Finite point-cloud failure bounds for the h(Ax+w) embeddings.

    Exponents: sq_l2   2 ln Q - 2 M eps^2 / hbar^4
               sqrt_loose 2 ln Q - 2 M (eps/hbar)^4
               sqrt_tight same exponent as sq_l2, valid for eps <= 1
               kernel  2 ln Q - (8/9) M eps^2 / hbar^4
               norm    ln Q - 2 M eps^2 / hbar^4 (leading factor 2)
    """
    if flavor not in POINTCLOUD_FLAVORS:
        raise ValueError("flavor must be one of %r" % (POINTCLOUD_FLAVORS,))
    _positive_finite("Q, M, eps and hbar", Q, M, eps, hbar)
    if Q < 2 or M < 1:
        raise ValueError("require Q >= 2 and M >= 1")
    if flavor == "sqrt_tight" and eps > 1:
        raise ValueError("sqrt_tight flavor requires eps <= 1")
    # r = eps / hbar^2 (sqrt_loose: (eps / hbar)^2) from products and
    # quotients, which overflow to inf, or r to 0, where ** would raise
    n, c, lead = _POINTCLOUD_TERMS[flavor]
    r = (eps / hbar) * (eps / hbar) if flavor == "sqrt_loose" else eps / hbar / hbar
    expo = n * math.log(Q) - c * M * (r * r)
    return BoundReport(probability=_clamped_prob(lead, expo), exponent=expo)


def continuous_extension_bound(E_r, M, w_value, c, delta, K_f, K_g, alpha):
    """Infinite-set bound for Lipschitz embedding maps.

    Covering radius r = alpha / ((1+delta) 2 K_g + 2 K_f); failure bound
    c exp(2 E_r - M w); the additive constant inflates to eps + alpha.
    """
    _positive_finite("M, w, c and alpha", M, w_value, c, alpha)
    _nonnegative_finite("E_r, delta, K_f and K_g", E_r, delta, K_f, K_g)
    if M < 1:
        raise ValueError("M must be at least 1")
    denom = (1.0 + delta) * 2.0 * K_g + 2.0 * K_f
    if denom == 0:
        raise ZeroDivisionError("K_f and K_g cannot both be zero")
    r = alpha / denom
    expo = 2.0 * E_r - M * w_value
    prob = _clamped_prob(c, expo)
    return BoundReport(
        probability=prob,
        exponent=expo,
        extras={"r": r, "eps_inflation": alpha},
    )


def discontinuous_extension_bound(E_r_half, M, w_value, c, P_T, T_max, P_F, c0):
    """Infinite-set bound for T-part Lipschitz (e.g. quantized) maps.

    c1 = sum_{T=2}^{T_max} P_T (1 + c0) ln T; failure bound
    c e^{2 E_{r/2} + c1 M - M w} + T_max e^{-2 c0^2 M} + P_F.  The first
    term decays in M only when c1 < w, which for the binary universal map
    (w = 2 eps^2, P_2 = 1) needs eps > sqrt((1+c0) ln 2 / 2).
    """
    if not 2 <= T_max < math.inf or int(T_max) != T_max:  # NaN fails the first test
        raise ValueError("T_max must be an integer >= 2")
    T_max = int(T_max)
    P_T = list(P_T)
    if len(P_T) != T_max - 1:
        raise ValueError("P_T must list T = 2..T_max (length T_max-1)")
    if not all(0 <= p <= 1 for p in (*P_T, P_F)):  # false for NaN too
        raise ValueError("P_T entries and P_F must lie in [0, 1]")
    _positive_finite("M, w and c", M, w_value, c)
    _nonnegative_finite("E_r_half and c0", E_r_half, c0)
    if M < 1:
        raise ValueError("M must be at least 1")
    c1 = sum(p * (1.0 + c0) * math.log(T) for p, T in zip(P_T, range(2, T_max + 1)))
    expo = 2.0 * E_r_half + c1 * M - M * w_value
    term1 = _clamped_prob(c, expo)
    term2 = T_max * math.exp(-2.0 * (c0 * c0) * M)  # c0 * c0 may be inf, not raise
    prob = min(1.0, term1 + term2 + P_F)
    return BoundReport(
        probability=prob,
        exponent=expo,
        extras={"c1": c1, "no_decay": c1 >= w_value},
    )


def binary_decay_threshold(c0=0.0):
    """Smallest eps with exponential decay when P_2 = 1 and w = 2 eps^2."""
    return math.sqrt((1.0 + c0) * math.log(2.0) / 2.0)


def quantized_bound_inflation(eps, E_Q):
    """Additive constant after quantizing an embedding: eps + 2 E_Q."""
    _nonnegative_finite("eps and E_Q", eps, E_Q)
    return eps + 2.0 * E_Q


def rate_form(eps, delta, R, M, S):
    """Additive term at fixed rate R = M B: eps + 2^{-R/M+1} sqrt(M) S."""
    _positive_finite("R, M and S", R, M, S)
    _nonnegative_finite("eps and delta", eps, delta)
    if M < 1 or R < M:
        raise ValueError("require M >= 1 and R >= M (>= 1 bit per dimension)")
    return eps + 2.0 ** (-R / M + 1.0) * math.sqrt(M) * S


def _check_p2(N, sigma, r, Delta):
    _positive_finite("N, sigma, r and Delta", N, sigma, r, Delta)
    if N < 1:
        raise ValueError("N must be at least 1")


def p2_bound(N, sigma, r, Delta):
    """Boundary-crossing bound: sigma r sqrt(N+1)/Delta + tail term.

    The tail term exp(-(Delta/(sigma r sqrt N) - 1)^2 N / 6) is only a
    valid concentration bound when Delta/(sigma r sqrt N) >= 1; below that
    it is reported as 1.  Meaningful (< 1) when r < Delta/(sigma sqrt(N+1)).
    """
    _check_p2(N, sigma, r, Delta)
    beta = Delta / (sigma * r * math.sqrt(N)) - 1.0
    tail = math.exp(-beta * beta * N / 6.0) if beta >= 0 else 1.0
    return sigma * r * math.sqrt(N + 1.0) / Delta + tail


def p2_meaningful_radius(N, sigma, Delta):
    """Largest ball radius for which p2_bound can fall below 1."""
    return Delta / (sigma * math.sqrt(N + 1.0))


# Trials per block of p2_monte_carlo: its two draws and the norms of a block.
_P2_CHUNK = 2048


def p2_monte_carlo(N, sigma, r, Delta, trials, rs):
    """Monte Carlo estimate of the boundary-crossing probability P_2.

    Each trial projects a ball of radius r/2 through a Gaussian row
    (interval of length ||a|| r) dropped uniformly against the Delta-grid;
    counts grid crossings.  Deterministic given rs; trials are indexed so
    partitioning cannot change the estimate.
    """
    _check_p2(N, sigma, r, Delta)
    if int(N) != N:
        raise ValueError("N must be an integer for the Monte Carlo estimate")
    if not (1 <= trials < math.inf and int(trials) == trials):  # false for NaN too
        raise ValueError("trials must be a positive integer")
    N, trials = int(N), int(trials)
    crossings = 0
    for lo in range(0, trials, _P2_CHUNK):
        n = min(_P2_CHUNK, trials - lo)
        z = rs.gaussian("montecarlo:p2_rows", n * N, start=lo * N).reshape(n, N)
        z *= sigma
        norms = np.linalg.norm(z, axis=1)
        u = rs.uniform("montecarlo:p2_offsets", n, start=lo)
        u *= Delta
        crossings += int(np.count_nonzero(u + norms * r >= Delta))
    return crossings / trials
