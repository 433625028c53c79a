"""Map catalog: evaluation conventions, codomains, and certified spectra."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from uemb import maps
from uemb.maps import (
    _MAP_BLOCK,
    _SERIES,
    KMAX_CAP,
    HarmonicSeries,
    PeriodicMap,
    _bounded_min,
    _cell_crossings,
    _frac,
    _pieces_spectrum,
    _quantize_values,
    _smooth_range,
    make_fourier_mixture,
    make_multibit,
    make_sawtooth,
    make_square_wave,
    quantize_map,
)
from uemb.randproj import ProjectionSpec
from uemb.theory import DistanceMapModel

from oracles import oracle_power

SQRT2 = math.sqrt(2.0)

FIG3_TERMS = [(1, SQRT2 / 2), (10, SQRT2 / 2)]


def catalog():
    mix = make_fourier_mixture(FIG3_TERMS)
    return [
        ("square", make_square_wave(), 2e-6),
        ("sawtooth", make_sawtooth(), 2e-6),
        ("mixture", mix, 1e-9),
        ("multibit2", make_multibit(2), 1e-5),
        ("multibit4", make_multibit(4), 1e-5),
        ("quantized_mix1", quantize_map(mix, 1), 5e-4),
        ("quantized_mix3", quantize_map(mix, 3), 5e-4),
    ]


def pieces_power(m):
    """Parseval's total sum v^2 (b - a) over a piecewise-constant map's pieces."""
    t0, t1, vals = (np.array(c) for c in zip(*m.constant_pieces()))
    return float(np.sum(vals ** 2 * (t1 - t0)))


BINARY_CASES = {
    "square": make_square_wave(),
    "sawtooth": make_sawtooth(),
    "mixture": make_fourier_mixture(FIG3_TERMS),
    "multibit1": make_multibit(1),
    "quantized_square1": quantize_map(make_square_wave(), 1),
    "quantized_mix1": quantize_map(make_fourier_mixture(FIG3_TERMS), 1),
}


@pytest.mark.parametrize("name", sorted(BINARY_CASES))
def test_is_binary_is_the_square_wave(name):
    # only the {0, 1} square wave is binary; its 1-bit quantization has
    # levels {1/4, 3/4}
    map_, binary = BINARY_CASES[name], name == "square"
    assert map_.is_binary is binary
    with pytest.raises(AttributeError):
        map_.is_binary = not binary
    if name == "quantized_square1":
        assert set(np.unique(map_(np.linspace(0, 1, 101)))) == {0.25, 0.75}
    with pytest.raises(TypeError):
        maps.PeriodicMap("square", {}, (0.0, 1.0), is_binary=True)


class TestSquareWave:
    def test_bin_convention(self):
        sq = make_square_wave()
        assert sq(0.25) == 1.0
        assert sq(0.75) == 0.0
        assert sq(0.0) == 1.0  # right-continuous at the bin edge
        assert sq(0.5) == 0.0

    def test_codomain_and_range(self):
        sq = make_square_wave()
        vals = sq(np.linspace(0, 1, 1001))
        assert set(np.unique(vals)) == {0.0, 1.0}
        assert sq.hbar == 1.0
        assert sq.is_binary

    def test_spectrum_values(self):
        # folded power: DC 1/4, P_k = 2/(pi k)^2 for odd k, 0 for even
        sp = make_square_wave().power_coeffs()
        assert sp is _SERIES["square"] and sp.dc_power == 0.25
        ks, powers = sp.powers(1, 9)
        assert ks.tolist() == [1, 3, 5, 7, 9]
        assert powers[0] == pytest.approx(2.0 / math.pi ** 2)
        assert all(np.all(k % 2 == 1) for _, k, _, _ in sp.blocks())

    def test_total_power(self):
        # DC plus every harmonic is int h^2 = 1/2; the blocks reach 2^21,
        # leaving about 1/(pi^2 2^21) above them
        sp = make_square_wave().power_coeffs()
        assert sp.dc_power + sp.ac_power == 0.5 and sp.tail_bound == 0.0
        listed = sum(float(np.sum(p)) for _, _, p, _ in sp.blocks())
        assert sp.dc_power + listed == pytest.approx(0.5, abs=1e-7)


class TestSawtooth:
    def test_endpoint_convention(self):
        saw = make_sawtooth()
        # jump at t = 0 takes the value of the bin beginning there
        assert saw(0.0) == -SQRT2 / 2
        assert saw(0.5) == 0.0

    def test_range_is_sqrt2(self):
        # range sqrt(2) makes P_k = (1/pi k)^2 and the map asymptote 1/3
        saw = make_sawtooth()
        assert saw.hbar == pytest.approx(SQRT2)

    def test_spectrum(self):
        sp = make_sawtooth().power_coeffs()
        assert sp is _SERIES["sawtooth"] and sp.dc_power == 0.0
        ks, powers = sp.powers(1, 5)
        assert ks.tolist() == [1, 2, 3, 4, 5]
        assert powers[0] == pytest.approx(1.0 / math.pi ** 2)
        assert powers[4] == pytest.approx(1.0 / (5 * math.pi) ** 2)

    def test_parseval_value(self):
        # sum P_k = int h^2 = 1/6, so the distance map's asymptote is 1/3
        sp = make_sawtooth().power_coeffs()
        assert sp.ac_power == pytest.approx(1.0 / 6.0) and sp.tail_bound == 0.0
        listed = sum(float(np.sum(p)) for _, _, p, _ in sp.blocks())
        assert listed == pytest.approx(1.0 / 6.0, abs=1e-6)


class TestMixture:
    def test_fig3_power(self):
        mix = make_fourier_mixture(FIG3_TERMS)
        assert oracle_power(mix) == pytest.approx(0.5, abs=1e-10)

    def test_spectrum_support_equals_frequencies(self):
        mix = make_fourier_mixture([(3, 0.5), (7, 1.25)])
        sp = mix.power_coeffs()
        assert sp.k.tolist() == [3, 7]
        assert sp.power[0] == pytest.approx(0.5 ** 2 / 2)
        assert sp.power[1] == pytest.approx(1.25 ** 2 / 2)
        assert sp.tail_bound == 0.0

    def test_single_tone(self):
        sp = make_fourier_mixture([(1, 1.0)]).power_coeffs()
        assert sp.k.tolist() == [1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_fourier_mixture([])

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(ValueError):
            make_fourier_mixture([(2, 1.0), (2, 0.5)])

    def test_bad_terms_rejected(self):
        with pytest.raises(ValueError):
            make_fourier_mixture([(0, 1.0)])
        with pytest.raises(ValueError):
            make_fourier_mixture([(1, math.inf)])

    def test_power_must_be_finite(self):
        # a finite amplitude whose a^2/2 overflows, and finite terms whose sum does
        for terms in ([(1, 1e200)], [(k, 1e154) for k in range(1, 5)]):
            with pytest.raises(ValueError, match="power"):
                make_fourier_mixture(terms)
        mix = make_fourier_mixture([(1, 1e154)])
        assert math.isfinite(mix.power_coeffs().ac_power)


def scipy_min(f, a, b, maxiter=500):
    res = minimize_scalar(f, bounds=(a, b), method="bounded",
                          options={"xatol": 1e-14, "maxiter": maxiter})
    return float(res.fun)


def range_brackets(m):
    """_smooth_range's two refine problems, (objective, a, b): min, then -max."""
    n = 1 << 16
    ts = (np.arange(n) + 0.5) / n
    v = m(ts)
    w = 2.0 / n
    out = []
    for i, sign in ((int(np.argmin(v)), 1.0), (int(np.argmax(v)), -1.0)):
        out.append((lambda t, s=sign: s * m(float(t)), ts[i] - w, ts[i] + w))
    return out


mixture_terms = st.lists(
    st.tuples(st.integers(1, 39),
              st.floats(-2.0, 2.0, allow_nan=False).filter(lambda a: abs(a) > 1e-3)),
    min_size=1, max_size=4, unique_by=lambda t: t[0],
)


class TestSmoothRange:
    def test_design_brackets_match_scipy_bit_for_bit(self):
        mix = make_fourier_mixture(FIG3_TERMS)
        (f_lo, a_lo, b_lo), (f_hi, a_hi, b_hi) = range_brackets(mix)
        lo, hi = _bounded_min(f_lo, a_lo, b_lo), -_bounded_min(f_hi, a_hi, b_hi)
        assert lo.hex() == scipy_min(f_lo, a_lo, b_lo).hex()
        assert (-hi).hex() == scipy_min(f_hi, a_hi, b_hi).hex()
        assert mix.value_range == (lo, hi)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(terms=mixture_terms, centre=st.floats(0.0, 1.0),
           half=st.floats(1e-6, 0.25), sign=st.sampled_from([1.0, -1.0]))
    def test_minimiser_matches_scipy_bit_for_bit(self, terms, centre, half, sign):
        m = make_fourier_mixture(terms)
        for f, a, b in range_brackets(m):
            assert _bounded_min(f, a, b).hex() == scipy_min(f, a, b).hex(), terms
        def objective(t):
            return sign * m(float(t))
        a, b = centre - half, centre + half
        assert _bounded_min(objective, a, b).hex() == \
            scipy_min(objective, a, b).hex(), (terms, a, b)

    def test_evaluation_cap_matches_scipy(self, monkeypatch):
        m = make_fourier_mixture([(2, 0.5), (3, -0.8), (7, 0.3)])
        def f(t):
            return m(float(t))
        for cap in range(1, 12):
            monkeypatch.setattr(maps, "_MAXFUN", cap)
            assert _bounded_min(f, 0.1, 0.6).hex() == \
                scipy_min(f, 0.1, 0.6, maxiter=cap).hex(), cap

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(terms=mixture_terms)
    def test_range_is_the_call_reference_bit_for_bit(self, terms):
        # the grid and both refinements evaluated through __call__
        m = make_fourier_mixture(terms)
        n = 1 << 16
        v = m((np.arange(n) + 0.5) / n)
        (f_lo, a_lo, b_lo), (f_hi, a_hi, b_hi) = range_brackets(m)
        lo = min(float(v.min()), _bounded_min(f_lo, a_lo, b_lo))
        hi = max(float(v.max()), -_bounded_min(f_hi, a_hi, b_hi))
        got = make_fourier_mixture(terms).value_range
        assert [x.hex() for x in got] == [lo.hex(), hi.hex()], terms

    def test_codomain_is_computed_on_first_use(self, monkeypatch):
        calls = []
        search = maps._smooth_range
        monkeypatch.setattr(maps, "_smooth_range", lambda m: calls.append(m) or search(m))
        mix = make_fourier_mixture(FIG3_TERMS)
        for family in ("gaussian", "cauchy"):
            model = DistanceMapModel(mix, ProjectionSpec(family, 0.7))
            g = model.curve([0.0, 0.1, 1.0])
            model.kernel(0.3)
            model.derivative(0.2)
            assert model.D0 > 0.0
            model.invert(float(g[1]))
        assert calls == []  # the curves read the spectrum only
        hbar = mix.hbar
        assert calls == [mix]
        assert mix.hbar == hbar and mix.value_range[1] - mix.value_range[0] == hbar
        assert calls == [mix]
        inner = make_fourier_mixture(FIG3_TERMS)
        q = quantize_map(inner, 3)
        assert calls == [mix, inner]  # the quantizer's cells need the inner range
        q.hbar, q.power_coeffs()
        assert calls == [mix, inner]

    def test_ranges_are_plain_floats(self):
        for name, m, _ in catalog():
            assert all(type(v) is float for v in m.value_range), name
            assert type(m.hbar) is float, name


def full_grid_range(m):
    """_smooth_range's answer from the whole 2^16-point grid, through __call__."""
    n = 1 << 16
    v = m((np.arange(n) + 0.5) / n)
    (f_lo, a_lo, b_lo), (f_hi, a_hi, b_hi) = range_brackets(m)
    return (min(float(v.min()), _bounded_min(f_lo, a_lo, b_lo)),
            max(float(v.max()), -_bounded_min(f_hi, a_hi, b_hi)))


def full_grid_crossings(inner, bits):
    """_cell_crossings from the whole 2^-15 grid: every grid point's cell,
    then every change of cell bisected at once, in up to 60 rounds."""
    def cell(t):
        return _quantize_values(inner(t), inner.value_range, bits)

    n = 1 << 15
    grid = np.arange(n + 1) / n
    c = cell(grid)
    jump = np.abs(np.diff(c))
    lo, hi = inner.value_range
    if np.any(jump > 1.5 * (hi - lo) / 2 ** bits):
        raise ValueError("%s has quantizer cells narrower than the 2^-15 crossing grid "
                         "at B=%d" % (inner.name, bits))
    i = np.nonzero(jump)[0]
    a, b, ca = grid[i], grid[i + 1], c[i]
    for _ in range(60):
        m = 0.5 * (a + b)
        if np.all((m == a) | (m == b)):
            break
        same = cell(m) == ca
        a = np.where(same, m, a)
        b = np.where(same, b, m)
    return np.unique(np.concatenate(([0.0], b, [1.0])))


def assert_crossings_are_the_full_grid(inner, bits):
    """_cell_crossings equals full_grid_crossings bit for bit, or both raise
    the same ValueError."""
    try:
        want = full_grid_crossings(inner, bits)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            _cell_crossings(inner, bits)
        assert str(got.value) == str(e)
        return
    got = _cell_crossings(inner, bits)
    np.testing.assert_array_equal(bit_pattern(got), bit_pattern(want),
                                  "%s B=%d" % (inner.name, bits))


def map_call_sizes(monkeypatch):
    """A list that collects the size of every argument of PeriodicMap.__call__."""
    sizes, call = [], PeriodicMap.__call__

    def spy(self, t, out=None):
        sizes.append(np.size(t))
        return call(self, t, out)

    monkeypatch.setattr(PeriodicMap, "__call__", spy)
    return sizes


class TestBoundedScans:
    """The range and crossing scans skip the grid windows a slope bound rules
    out, and still give the whole grid's answer bit for bit."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(terms=mixture_terms)
    def test_crossings_are_the_full_grid_bit_for_bit(self, terms):
        for bits in range(1, 7):
            assert_crossings_are_the_full_grid(make_fourier_mixture(terms), bits)

    ADVERSARIAL = {
        # 400 minima, equal but for rounding; no window of either grid is ruled out
        "400_equal_extremes": [(400, 1.0)],
        # sin(4 pi t)'s two minima, 1.4e-13 apart, within the bound's slack
        "extremes_within_the_slack": [(1, 1e-13), (2, 1.0)],
        # 2 pi k t's rounding alone spans the codomain: every window is kept
        "every_window_a_candidate": [(2 ** 40, 1.0)],
        # the crossings at B = 1 keep every window, but only after the pass
        # over the windows' ends
        "every_window_kept_after_the_first_pass": [(200, 1.0), (3, 0.5)],
    }

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_mixtures(self, name):
        terms = self.ADVERSARIAL[name]
        m = make_fourier_mixture(terms)
        if name == "extremes_within_the_slack":
            assert 0.0 < abs(m(0.375) - m(0.875)) < maps._window_slack(terms, 0.0)
        if name == "every_window_a_candidate":
            assert maps._window_slack(terms, maps._STRIDE / 2 ** 16) > 2.0
        if name == "every_window_kept_after_the_first_pass":
            assert maps._window_slack(terms, maps._STRIDE / 2 ** 15) < m.hbar / 2
        assert [x.hex() for x in _smooth_range(m)] == [x.hex() for x in full_grid_range(m)]
        for bits in (1, 2, 3):
            assert_crossings_are_the_full_grid(m, bits)

    def test_quantized_design_build_evaluates_a_fifth_of_the_points(self, monkeypatch):
        # the two whole grids made it 101,997 map points: 2^16 for the
        # range, 2^15 + 1 for the crossings, and their refinements
        sizes = map_call_sizes(monkeypatch)
        quantize_map(make_fourier_mixture(FIG3_TERMS), 3).power_coeffs()
        assert sum(sizes) <= 25_000

    def test_range_that_rules_nothing_out_is_one_grid(self, monkeypatch):
        # its slack is above sum |a_k|, so it skips the pass over the windows'
        # first points: the grid, and a dozen points of Brent's refinements
        sizes = map_call_sizes(monkeypatch)
        make_fourier_mixture([(400, 1.0)]).value_range
        assert sum(sizes) <= 2 ** 16 + 2 ** 10


class TestQuantize:
    def test_sandwich(self):
        # |Q_B(h)(t) - h(t)| <= range(h) 2^{-B-1} everywhere
        mix = make_fourier_mixture(FIG3_TERMS)
        ts = np.linspace(0, 1, 20001, endpoint=False)
        for bits in (1, 2, 4, 6):
            q = quantize_map(mix, bits)
            bound = mix.hbar * 2.0 ** (-bits - 1)
            assert np.max(np.abs(q(ts) - mix(ts))) <= bound + 1e-9

    def test_two_level_for_one_bit(self):
        q = quantize_map(make_fourier_mixture(FIG3_TERMS), 1)
        assert len(np.unique(q(np.linspace(0, 1, 4096, endpoint=False)))) == 2

    def test_multibit_equals_quantized_sawtooth(self):
        ts = np.linspace(0, 1, 10 ** 4, endpoint=False)
        for bits in (1, 2, 3, 4):
            a = make_multibit(bits)(ts)
            b = quantize_map(make_sawtooth(), bits)(ts)
            assert np.array_equal(a, b)

    def test_multibit_level_count(self):
        ts = np.linspace(0, 1, 4096, endpoint=False)
        assert len(np.unique(make_multibit(2)(ts))) == 4

    def test_multibit1_affine_of_square(self):
        # B=1 multibit equals the square wave up to affine offset/scale
        ts = np.linspace(0, 1, 4096, endpoint=False)
        mb = make_multibit(1)(ts)
        sq = make_square_wave()(ts)
        a = (mb.max() - mb.min()) / (sq.max() - sq.min())
        np.testing.assert_allclose(mb, -a * sq + mb.max(), atol=1e-12)

    def test_multibit4_worst_error(self):
        ts = np.linspace(0, 1, 10 ** 5, endpoint=False)
        err = np.max(np.abs(make_multibit(4)(ts) - make_sawtooth()(ts)))
        assert err == pytest.approx(SQRT2 * 2.0 ** -5, rel=1e-3)

    def test_extreme_levels_equal_value_range(self):
        # the codomain ends are the quantizer's own bottom and top levels
        ts = np.concatenate([np.arange(1 << 18) / 2.0 ** 18, [np.nextafter(1.0, 0.0)]])
        mix = make_fourier_mixture(FIG3_TERMS)
        for bits in range(1, 17):
            for m in (make_multibit(bits), quantize_map(mix, bits)):
                vals = m(ts)
                assert (vals.min(), vals.max()) == m.value_range, (m.name, bits)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            make_multibit(0)
        with pytest.raises(ValueError):
            make_multibit(17)
        with pytest.raises(ValueError):
            quantize_map(make_sawtooth(), 0)

    def test_range_too_wide_rejected(self):
        # a width hi - lo that overflows would make every level inf or nan
        with pytest.raises(ValueError):
            quantize_map(make_fourier_mixture([(1, 1e308)]), 2)


class TestEvalContract:
    def test_periodicity_exact_on_dyadics(self):
        # with dyadic t, t+1 is exactly representable, so h(t) == h(t+1)
        rng = np.random.default_rng(42)
        ts = rng.integers(0, 2 ** 30, size=1000) / 2.0 ** 30
        for _, m, _ in catalog():
            np.testing.assert_array_equal(m(ts), m(ts + 1.0))
            np.testing.assert_array_equal(m(ts), m(ts - 3.0))

    def test_nonfinite_rejected(self):
        sq = make_square_wave()
        with pytest.raises(ValueError):
            sq(math.nan)
        with pytest.raises(ValueError):
            sq(np.array([0.1, math.inf]))


# Reference evaluation: the out-of-place formulas (np.mod, np.where, the
# plain quantizer chain) that the in-place map evaluation must reproduce
# bit for bit.


def ref_quantize(v, value_range, bits):
    lo, hi = value_range
    levels = 2 ** bits
    step = (hi - lo) / levels
    idx = np.clip(np.floor((v - lo) / step), 0, levels - 1)
    return lo + (idx + 0.5) * step


def ref_eval(m, t):
    tau = np.mod(np.asarray(t, dtype=np.float64), 1.0)
    if m.kind == "square":
        return np.where(tau < 0.5, 1.0, 0.0)
    if m.kind == "sawtooth":
        return SQRT2 * (tau - 0.5)
    if m.kind == "mixture":
        out = np.zeros_like(tau)
        for k, a in m.params["terms"]:
            out = out + a * np.sin((2.0 * np.pi * k) * tau)
        return out
    inner = m.params["inner"]
    return ref_quantize(ref_eval(inner, tau), inner.value_range, m.params["B"])


def bit_pattern(x):
    return np.array(x, dtype=np.float64).reshape(-1).view(np.uint64)


def pinned_maps():
    mix = make_fourier_mixture(FIG3_TERMS)
    return [
        make_square_wave(),
        make_sawtooth(),
        make_multibit(1),
        make_multibit(4),
        make_multibit(16),
        mix,
        quantize_map(mix, 3),
        quantize_map(make_square_wave(), 1),
    ]


def pinned_points():
    """Cell edges (j/2^B up to B=16, 0.5, the quantized mixture's
    crossings) with +-1 ulp, shifted by +-1e6 and negated, plus uniform
    points; without the points whose np.mod rounds up to 1.0."""
    mixq = quantize_map(make_fourier_mixture(FIG3_TERMS), 3)
    edges = np.concatenate([
        np.arange(2 ** 16 + 1) / 2 ** 16,
        [0.5],
        [t0 for t0, _, _ in mixq.constant_pieces()],
    ])
    near = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    )
    rng = np.random.default_rng(2013)
    pts = np.concatenate(
        [near, near + 1e6, near - 1e6, -near, near - 3.0, rng.uniform(-50, 50, 10 ** 5)]
    )
    return pts[np.mod(pts, 1.0) < 1.0]


class TestInPlaceEvaluation:
    def test_bit_identical_to_reference(self):
        pts = pinned_points()
        before = bit_pattern(pts).copy()
        grid = np.stack([pts, -pts], axis=1)
        grid.flags.writeable = False
        view = grid[:, :1].T  # read-only, non-contiguous, shape (1, n)
        assert not view.flags.writeable and not view.flags.c_contiguous
        scalars = pts[:: len(pts) // 300]
        for m in pinned_maps():
            want = bit_pattern(ref_eval(m, pts))
            np.testing.assert_array_equal(bit_pattern(m(pts)), want, err_msg=m.name)
            got = m(view)
            assert got.shape == view.shape, m.name
            np.testing.assert_array_equal(bit_pattern(got), want, err_msg=m.name)
            for p in scalars:
                v = m(float(p))
                assert type(v) is float and type(m(np.float64(p))) is float
                ref = float(ref_eval(m, p))
                assert bit_pattern(v) == bit_pattern(ref), (m.name, p)
                assert bit_pattern(m(np.asarray(p))) == bit_pattern(ref), (m.name, p)
        np.testing.assert_array_equal(bit_pattern(pts), before)
        np.testing.assert_array_equal(bit_pattern(grid[:, 0]), before)

    def test_frac_folds_one_to_zero(self):
        # t - floor(t) rounds up to 1.0 for t in [-2^-54, 0); the map must
        # take its value at the period start there, as at the point t rounds to
        pts = np.array([-1e-20, -2.0 ** -60, -2.0 ** -54, -3 - 1e-17])
        tau = _frac(pts)
        assert np.all((tau >= 0.0) & (tau < 1.0))
        folded = np.round(pts)
        for name, m, _ in catalog():
            np.testing.assert_array_equal(
                bit_pattern(m(pts)), bit_pattern(m(folded)), err_msg=name
            )
            for p, f in zip(pts, folded):
                assert m(float(p)) == m(float(f)), (name, p)
        saw = make_sawtooth()
        np.testing.assert_array_equal(
            make_multibit(4)(pts), _quantize_values(saw(pts), saw.value_range, 4)
        )

    def test_out_equals_call_bit_for_bit(self):
        # shapes around the block size, and an odd M whose rows straddle blocks
        rng = np.random.default_rng(1512)
        shapes = [(1, 7), (_MAP_BLOCK - 1,), (_MAP_BLOCK,), (_MAP_BLOCK + 1,),
                  (3, 2 * _MAP_BLOCK + 1), (5, 20001)]
        for shape in shapes:
            t = rng.normal(0.0, 20.0, shape)
            t.flat[::101] = np.round(t.flat[::101]) - 2.0 ** -60  # frac folds to 0
            for m in pinned_maps():
                msg = "%s %s" % (m.name, shape)
                want = bit_pattern(m(t))
                ok = (np.mod(t, 1.0) < 1.0).reshape(-1)  # where ref_eval holds
                np.testing.assert_array_equal(want[ok], bit_pattern(ref_eval(m, t))[ok], msg)
                out = np.full(shape, np.nan)
                assert m(t, out=out) is out
                np.testing.assert_array_equal(bit_pattern(out), want, msg)
                inplace = t.copy()
                assert m(inplace, out=inplace) is inplace
                np.testing.assert_array_equal(bit_pattern(inplace), want, msg)

    def test_out_rejects_nonfinite_and_bad_buffers(self):
        sq = make_square_wave()
        t = np.zeros(3 * _MAP_BLOCK)
        for bad in (math.nan, math.inf, -math.inf):
            t[2 * _MAP_BLOCK + 5] = bad  # in the last block
            with pytest.raises(ValueError, match="finite"):
                sq(t, out=t.copy())
            with pytest.raises(ValueError, match="finite"):
                sq(t)
        t = np.zeros((4, 6))
        for out in (np.empty((6, 4)), np.empty((4, 6), np.float32),
                    np.empty((4, 12))[:, ::2], [[0.0] * 6] * 4):
            with pytest.raises(ValueError, match="out"):
                sq(t, out=out)

    def test_cell_crossings_match_scalar_bisection(self):
        def ref_crossings(inner, bits):
            # one crossing and one scalar map call at a time
            def cell(t):
                return ref_quantize(inner(t), inner.value_range, bits)

            n = 1 << 15
            grid = np.arange(n + 1) / n
            c = cell(grid)
            breaks = [0.0]
            for i in np.nonzero(np.diff(c) != 0)[0]:
                a, b = grid[i], grid[i + 1]
                ca = cell(np.float64(a))
                for _ in range(60):
                    m = 0.5 * (a + b)
                    if cell(np.float64(m)) == ca:
                        a = m
                    else:
                        b = m
                breaks.append(b)
            breaks.append(1.0)
            return np.array(sorted(set(breaks)))

        # _cell_crossings stops once every bracket is two adjacent floats
        for terms, bit_list in ((FIG3_TERMS, (1, 2, 3, 4, 5, 6, 8)),
                                ([(2, 0.5), (3, -0.8), (7, 0.3)], range(1, 7)),
                                ([(400, 1.0)], (1,))):
            mix = make_fourier_mixture(terms)
            for bits in bit_list:
                want = ref_crossings(mix, bits)
                got = _cell_crossings(mix, bits)
                msg = "%s B=%d" % (terms, bits)
                np.testing.assert_array_equal(bit_pattern(got), bit_pattern(want), msg)

    def test_cell_crossings_refuse_cells_finer_than_grid(self):
        # sin(2 pi t) has 2 (2^B - 1) pieces; from B = 14 its steepest cells
        # are narrower than a grid step, and neighbours skip a cell
        sine = make_fourier_mixture([(1, 1.0)])
        assert len(quantize_map(sine, 13).constant_pieces()) == 2 * (2 ** 13 - 1)
        for bits in (14, 15, 40):
            with pytest.raises(ValueError, match="crossing grid"):
                quantize_map(sine, bits).constant_pieces()

    def test_sawtooth_pieces_refused_above_16_bits(self):
        # 2^B pieces: refused before any break is allocated
        assert len(quantize_map(make_sawtooth(), 16).constant_pieces()) == 2 ** 16
        for m in (quantize_map(make_sawtooth(), 17), quantize_map(make_sawtooth(), 40),
                  quantize_map(quantize_map(make_sawtooth(), 17), 2)):
            with pytest.raises(ValueError, match="at most 16"):
                m.power_coeffs()


class TestSpectra:
    def test_parseval_across_catalog(self):
        # DC and AC add up to int h^2: a finite spectrum lists its tail
        for name, m, tol in catalog():
            sp = m.power_coeffs()
            err = abs(sp.dc_power + sp.ac_power - oracle_power(m))
            assert err <= 2 * tol, (name, err)

    def test_listed_powers_sum_to_the_parseval_total(self):
        # every quantized kind's P_k, its tail at K + 1 included, sum to
        # sum v^2 (b - a) over its pieces; so does a map listed to KMAX_CAP
        maps_ = [m for _, m, _ in catalog() if m.kind in ("multibit", "quantized")]
        maps_.append(quantize_map(make_fourier_mixture([(400, 1.0)]), 1))
        spec = ProjectionSpec("gaussian", 0.3)
        for m in maps_:
            total = pieces_power(m)
            sp = m.power_coeffs()
            assert abs(float(np.sum(sp.power)) - total) <= 1e-15 * total, m.name
            model = DistanceMapModel(m, spec)
            assert model.total_power == sp.dc_power + sp.ac_power, m.name
        assert sp.k[-1] == KMAX_CAP + 1 and sp.power[-1] == sp.tail_bound > 0

    def test_spectrum_invariants(self):
        # a series lists ascending blocks; a finite spectrum lists ascending
        # k with nonnegative powers, and its xi, xi_power are its AC part
        for name, m, _ in catalog():
            sp = m.power_coeffs()
            if isinstance(sp, HarmonicSeries):
                last = 0
                for hi, k, p, above in itertools.islice(sp.blocks(), 3):
                    assert np.all(p >= 0) and above >= 0, name
                    assert k[0] > last and np.all(np.diff(k) > 0) and k[-1] <= hi, name
                    last = hi
            else:
                assert not hasattr(sp, "blocks"), name
                assert sp.k[0] >= 0 and np.all(np.diff(sp.k) > 0), name
                assert np.all(sp.power >= 0), name
                ac = sp.k >= 1
                np.testing.assert_array_equal(sp.xi, 2.0 * np.pi * sp.k[ac].astype(np.float64))
                np.testing.assert_array_equal(sp.xi_power, sp.power[ac])
                assert sp.ac_power == float(np.sum(sp.power[ac])), name
            assert sp.tail_bound >= 0, name

    def test_tolerance_unreachable_ends_at_the_cap_with_its_exact_tail(self, monkeypatch):
        # the listing stops at KMAX_CAP, and the power above it is listed at
        # KMAX_CAP + 1: the total stays exact, and so does g's asymptote
        monkeypatch.setattr(maps, "SPECTRUM_TOL", 1e-12)
        m = make_multibit(3)
        sp = m.power_coeffs()
        assert KMAX_CAP == 2 ** 16
        assert sp.k[-1] == KMAX_CAP + 1
        assert sp.power[-1] == sp.tail_bound > 0
        assert abs(sp.dc_power + sp.ac_power - pieces_power(m)) <= 1e-15
        assert DistanceMapModel(m, ProjectionSpec("gaussian", 0.5)).g_inf == 21 / 64

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_multibit_asymptote_is_exact(self, bits):
        # g_inf = 2 ac = 2 (total - dc) = (1 - 4^-B) / 3 for the quantized
        # sawtooth: the unlisted power counts.  The levels are rounded floats,
        # so B = 1 (levels +-sqrt2/4) reads 2 ulp high; the others are exact
        model = DistanceMapModel(make_multibit(bits), ProjectionSpec("cauchy", 0.5))
        assert model.g_inf == pytest.approx((1.0 - 4.0 ** -bits) / 3.0, rel=1e-15, abs=0)

    def test_pieces_spectrum_equals_per_piece_integrals(self):
        # the jumps' two tables of exponentials give P_1 .. P_K of two exps
        # per piece within 1e-14 of the total (worst measured: 2.4e-15,
        # multibit:B=12), and P_{K+1} is the power the reference leaves unlisted
        def ref(pieces, tol):
            t0, t1, vals = (np.array(c) for c in zip(*pieces))
            total = float(np.sum(vals ** 2 * (t1 - t0)))
            running = float(np.sum(vals * (t1 - t0))) ** 2
            kmax, block, powers = 0, 2048, []
            while max(total - running, 0.0) > tol:
                ks = np.arange(kmax + 1, kmax + block + 1)
                e0 = np.exp(-2j * np.pi * np.outer(ks, t0))
                e1 = np.exp(-2j * np.pi * np.outer(ks, t1))
                pw = 2.0 * np.abs((e0 - e1) @ vals / (2j * np.pi * ks)) ** 2
                powers.append(pw)
                running += float(np.sum(pw))
                kmax += block
                block = min(block * 2, 16384)
            return np.concatenate(powers), total, max(total - running, 0.0)

        mix = make_fourier_mixture(FIG3_TERMS)
        for m in (make_square_wave(), make_multibit(3), make_multibit(8),
                  quantize_map(mix, 1), quantize_map(mix, 3)):
            sp = _pieces_spectrum(m.constant_pieces())
            want, total, unlisted = ref(m.constant_pieces(), maps.SPECTRUM_TOL)
            np.testing.assert_array_equal(sp.k, np.arange(len(want) + 2))
            np.testing.assert_allclose(sp.power[1:-1], want, rtol=0, atol=1e-14 * total,
                                       err_msg=m.name)
            assert sp.power[-1] == pytest.approx(unlisted, rel=0, abs=1e-14 * total)

    def test_large_blocks_built_in_row_chunks(self, monkeypatch):
        # chunks of rows give the same powers to rounding, in a fraction of
        # the memory of one 2048 x 257 block of exponentials (8.4 MB)
        pieces = make_multibit(8).constant_pieces()
        whole = _pieces_spectrum(pieces)
        monkeypatch.setattr(maps, "_SPECTRUM_BLOCK", 1 << 12)
        tracemalloc.start()
        try:
            chunked = _pieces_spectrum(pieces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        np.testing.assert_array_equal(chunked.k, whole.k)
        np.testing.assert_allclose(chunked.power, whole.power, rtol=1e-9)
        assert chunked.tail_bound == pytest.approx(whole.tail_bound, rel=1e-9)

    def test_caching(self):
        m = make_square_wave()
        assert m.power_coeffs() is m.power_coeffs()

    def test_power_spectrum_validation(self):
        from uemb.maps import PowerSpectrum

        with pytest.raises(ValueError):
            PowerSpectrum(np.array([1]), np.array([-0.1]), 0.0)
        with pytest.raises(ValueError):
            PowerSpectrum(np.array([2, 1]), np.array([0.1, 0.1]), 0.0)
        with pytest.raises(ValueError):
            PowerSpectrum(np.array([1]), np.array([0.1]), -1e-9)
