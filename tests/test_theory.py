"""Distance/kernel map calculus and the probability-bound calculators."""

import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import uemb
from uemb import maps, theory
from uemb.expcli.config import parse_map
from uemb.maps import (
    HarmonicSeries,
    make_fourier_mixture,
    make_multibit,
    make_sawtooth,
    make_square_wave,
    quantize_map,
)
from uemb.randproj import ProjectionSpec, RandomState, char_fn
from uemb.theory import (
    SATURATION_FRACTION,
    DistanceMapModel,
    _phi_sum,
    ambiguity,
    binary_decay_threshold,
    check_subadditivity,
    continuous_extension_bound,
    discontinuous_extension_bound,
    p2_bound,
    p2_meaningful_radius,
    p2_monte_carlo,
    pointcloud_bound,
    quantized_bound_inflation,
    rate_form,
    universal_binary_map,
    universal_binary_map_l1,
)

from oracles import oracle_distance_map

SQRT2 = math.sqrt(2.0)
FIG3 = [(1, SQRT2 / 2), (10, SQRT2 / 2)]


class TestDistanceMap:
    def test_zero_distance_exact(self):
        for m, spec in [
            (make_square_wave(), ProjectionSpec("gaussian", 0.5)),
            (make_sawtooth(), ProjectionSpec("cauchy", 1.2)),
            (make_fourier_mixture(FIG3), ProjectionSpec("gaussian", 0.2)),
            (quantize_map(make_fourier_mixture(FIG3), 3), ProjectionSpec("gaussian", 0.3)),
        ]:
            assert DistanceMapModel(m, spec).g(0.0) == 0.0

    def test_square_gaussian_saturation(self):
        # flat at 1/2 once sigma d passes a few Delta
        spec = ProjectionSpec("gaussian", 0.5)  # sigma/(2 Delta) with both 1
        assert DistanceMapModel(make_square_wave(), spec).g(3.0) == pytest.approx(0.5, abs=1e-9)

    def test_sawtooth_asymptote_one_third(self):
        spec = ProjectionSpec("gaussian", 1.0)
        assert DistanceMapModel(make_sawtooth(), spec).g(3.0) == pytest.approx(1 / 3, abs=1e-6)

    def test_monotone_on_grid(self):
        # every P_k >= 0 and every phi_k falls in d, so each monotone curve
        # rises, on [0, D0] and past it
        for m in TestSummationEngine.CATALOG:
            for family, scale in (("gaussian", 0.4), ("cauchy", 0.6)):
                for flavor in ("sq_l2", "sqrt"):
                    model = DistanceMapModel(m, ProjectionSpec(family, scale), flavor=flavor)
                    for ds in (np.geomspace(1e-3, 6.0, 80), np.linspace(0.0, model.D0, 65)):
                        vals = model.curve(ds)
                        assert np.all(np.diff(vals) >= -1e-12), (m.name, family, flavor)

    def test_bounded_by_asymptote(self):
        model = DistanceMapModel(make_sawtooth(), ProjectionSpec("gaussian", 0.7))
        for d in np.geomspace(1e-4, 50, 60):
            g = model.g(float(d))
            assert 0.0 <= g <= model.g_inf + 1e-15

    def test_negative_distance_rejected(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 1.0))
        with pytest.raises(ValueError):
            model.g(-0.5)


def slope_fn(spec, xi, d):
    """-d char_fn(spec, xi, d) / dd / scale in plain floats, as theory._slope."""
    if spec.family == "gaussian":
        return char_fn(spec, xi, d) * xi * xi * (spec.scale * d)
    return char_fn(spec, xi, d) * xi


def scalar_phi_sum(spectrum, spec, d, term=char_fn, rtol=1e-12):
    """Reference (S_hat, err) at one d > 0 in plain floats: a finite spectrum's
    AC powers in one sum, a series' blocks until the rest is small."""
    floor = 1e-3 * spectrum.ac_power
    if not isinstance(spectrum, HarmonicSeries):
        ac = spectrum.k >= 1
        ks = spectrum.k[ac].astype(np.float64)
        return float(spectrum.power[ac] @ term(spec, 2.0 * np.pi * ks, d)), spectrum.tail_bound
    s = 0.0
    for hi, ks, powers, above in spectrum.blocks():
        s += float(powers @ term(spec, 2.0 * np.pi * ks, d))
        rem = above * term(spec, 2.0 * np.pi * (hi + 1), d) if above else 0.0
        if rem <= rtol * max(s, floor):
            break
    return s + rem / 2.0, rem / 2.0 + spectrum.tail_bound


class TestSummationEngine:
    FINITE = (make_fourier_mixture(FIG3), quantize_map(make_fourier_mixture(FIG3), 3),
              make_multibit(4))

    def test_finite_g_is_the_listed_sum(self):
        # g of a finite spectrum is 2 max(ac - sum_k P_k phi_k, 0) over power_coeffs
        for m in self.FINITE:
            sp = m.power_coeffs()
            ac = sp.k >= 1
            ks, p = sp.k[ac].astype(np.float64), sp.power[ac]
            ac_power = float(np.sum(p))
            for spec in (ProjectionSpec("gaussian", 0.3), ProjectionSpec("cauchy", 0.3)):
                model = DistanceMapModel(m, spec)
                for d in np.geomspace(1e-6, 20.0, 25):
                    s = float(p @ char_fn(spec, 2.0 * np.pi * ks, float(d)))
                    assert model.g(float(d)).hex() == (2.0 * max(ac_power - s, 0.0)).hex()

    def test_error_carries_tail_bound(self):
        spec = ProjectionSpec("gaussian", 0.3)
        for m in self.FINITE[1:]:
            sp = m.power_coeffs()
            assert sp.tail_bound > 0
            # one block with nothing above it: the error is the tail itself
            _, err = _phi_sum(sp, spec, np.array([1e-6, 0.1, 5.0]))
            assert np.all(err == sp.tail_bound)
        series = make_sawtooth().power_coeffs()
        ks, p = series.powers(1, 1 << 20)
        s, err = _phi_sum(series, spec, np.array([1e-3, 0.1]))
        for d, s_d, err_d in zip((1e-3, 0.1), s, err):
            assert abs(s_d - float(p @ char_fn(spec, 2.0 * np.pi * ks, d))) <= err_d + 1e-15

    CATALOG = (make_square_wave(), make_sawtooth(), make_multibit(1), make_multibit(4),
               make_fourier_mixture(FIG3), quantize_map(make_fourier_mixture(FIG3), 3),
               quantize_map(make_sawtooth(), 2))

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("m", CATALOG, ids=lambda m: m.name)
    def test_curve_is_value_bit_for_bit(self, m, family):
        # one engine pass over a grid gives each d the sum it gets alone
        ds = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 31), np.linspace(0.0, 6.0, 25)])
        for flavor in ("sq_l2", "sqrt", "kernel"):
            model = DistanceMapModel(m, ProjectionSpec(family, 0.7), flavor=flavor)
            curve = model.curve(ds)
            assert curve.shape == ds.shape
            assert [v.hex() for v in curve.tolist()] == [model.value(d).hex() for d in ds]
            # a 2-D grid keeps its shape, as char_fn's does
            grid = model.curve(ds.reshape(3, 19))
            assert grid.shape == (3, 19)
            assert grid.tobytes() == curve.tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("m", (make_square_wave(), make_multibit(4), make_fourier_mixture(FIG3)),
                             ids=lambda m: m.name)
    def test_empty_grid_is_an_empty_curve(self, m, family):
        # a series, a finite piecewise spectrum and a mixture: no row, no phi cut
        for flavor in ("sq_l2", "sqrt", "kernel"):
            curve = DistanceMapModel(m, ProjectionSpec(family, 0.7), flavor=flavor).curve([])
            assert curve.dtype == np.float64 and curve.shape == (0,)

    @pytest.mark.parametrize("m", CATALOG, ids=lambda m: m.name)
    def test_value_inf_is_each_flavor_asymptote(self, m):
        spec = ProjectionSpec("gaussian", 0.7)
        g_inf = DistanceMapModel(m, spec).g_inf
        spectrum = m.power_coeffs()
        want = {"sq_l2": g_inf, "sqrt": math.sqrt(g_inf), "kernel": spectrum.dc_power}
        for flavor, v in want.items():
            got = DistanceMapModel(m, spec, flavor=flavor).value_inf
            assert type(got) is float and got.hex() == v.hex(), flavor

    @pytest.mark.parametrize("term, ref_term", [(theory._phi, char_fn),
                                                (theory._slope, slope_fn)],
                             ids=["phi", "slope"])
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("m", CATALOG, ids=lambda m: m.name)
    def test_engine_is_the_scalar_loop_bit_for_bit(self, m, family, term, ref_term):
        # S_hat and err of a grid, from tiny d (the series runs to its cap)
        # to saturation, equal a plain-float loop over the blocks at each d,
        # for the curves' phi and for the slope's -d phi / dd alike; a
        # finite spectrum's err is its one tail_bound, for every d
        spec = ProjectionSpec(family, 0.7)
        sp = m.power_coeffs()
        ds = np.geomspace(1e-9, 1e2, 23)
        s, err = _phi_sum(sp, spec, ds, term)
        err = np.broadcast_to(err, s.shape)
        got = [(a.hex(), b.hex()) for a, b in zip(s.tolist(), err.tolist())]
        ref = [scalar_phi_sum(sp, spec, d, ref_term) for d in ds.tolist()]
        assert got == [(a.hex(), b.hex()) for a, b in ref]

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_phi_is_zero_just_past_the_live_end(self, family):
        # np.exp is +0.0 at -745.1332191019412 and below and positive at the
        # next float up; _LIVE is the last scale d xi whose phi is not 0
        edge = -745.1332191019412
        below = np.array([edge, np.nextafter(edge, -np.inf), -746.0, -1e4, -np.inf])
        assert np.exp(below).tobytes() == np.zeros(len(below)).tobytes()
        assert np.exp(np.nextafter(edge, 0.0)) > 0.0
        spec, t = ProjectionSpec(family, 1.0), theory._LIVE[family]
        xi = np.array([t, np.nextafter(t, np.inf)])
        plain = self._plain_phi(spec, np.ones(1), xi)[0]
        assert plain[0] > 0.0 and plain[1] == 0.0
        assert theory._phi(spec, 1.0, xi).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_whole_row_live_at_the_edge(self, family, monkeypatch):
        # a smallest row whose last product is exactly _LIVE is live to its
        # end, and exp takes every column; one float up, exp takes one
        # column less; one float d, and grids whose smallest row sits first,
        # mid-way or last, equal the plain exp bit for bit
        spec, t = ProjectionSpec(family, 1.0), theory._LIVE[family]
        exp, widths = np.exp, []
        monkeypatch.setattr(np, "exp", lambda x, *args, **kwargs:
                            widths.append(np.shape(x)[-1]) or exp(x, *args, **kwargs))
        for last, width in ((t, 5), (np.nextafter(t, np.inf), 4)):
            xi = last * 2.0 ** np.arange(-4.0, 1.0)  # exact products at d = 1
            grids = ([1.0], [1.0, 3.0, 2.0, 1.5, 8.0], [3.0, 2.0, 1.0, 1.5, 8.0],
                     [3.0, 2.0, 8.0, 1.5, 1.0])
            for ds in (1.0, *map(np.array, grids)):
                widths.clear()
                got = theory._phi(spec, ds, xi)
                assert widths == [width], ds
                assert got.tobytes() == self._plain_phi(spec, np.atleast_1d(ds), xi).reshape(
                    got.shape).tobytes(), ds
            assert got[-1, -1] == 0.0 if width == 4 else 0.0 < got[-1, -1] < np.finfo(float).tiny

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_dead_row_at_the_edge(self, family):
        # a first product exactly at _LIVE is live, its phi subnormal; one
        # float up the row is dead and sums to +0.0 unformed; one float d,
        # and a grid with a live row and a dead one beside it, equal the
        # plain exp's dot
        spec, t = ProjectionSpec(family, 1.0), theory._LIVE[family]
        powers = np.ones(3)
        for first, live in ((t, True), (np.nextafter(t, np.inf), False)):
            xi = first * np.array([1.0, 2.0, 4.0])
            ds = np.array([1.0, 0.5, 2.0, 1.0])
            want = np.vecdot(self._plain_phi(spec, ds, xi), powers)
            assert (want[0] > 0.0) == live and want[1] > 0.0 and want[2] == 0.0
            assert theory._dots(spec, 1.0, xi, powers).hex() == want[0].hex()
            assert theory._dots(spec, ds, xi, powers).tobytes() == want.tobytes()

    @pytest.mark.parametrize("term", [theory._phi, theory._slope], ids=["phi", "slope"])
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_block_loop_is_one_vecdot_bit_for_bit(self, family, term):
        # live grids of one row, one block less a row, one block, one block
        # and a row, and two blocks and a row, shuffled: the dots block by
        # block are those of the whole grid's terms in one vecdot
        sp, spec = make_multibit(4).power_coeffs(), ProjectionSpec(family, 0.7)
        rows = theory._PHI_BLOCK // len(sp.xi)
        edge = theory._LIVE[family] / (spec.scale * sp.xi[0])
        for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
            ds = np.random.default_rng(n).permutation(np.geomspace(1e-9, 0.99, n) * edge)
            want = np.vecdot(term(spec, ds, sp.xi), sp.xi_power)
            got = theory._dots(spec, ds, sp.xi, sp.xi_power, term)
            assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("m", CATALOG, ids=lambda m: m.name)
    def test_dead_rows_give_the_limits_without_a_warning(self, m, family):
        # a d past the cut at its first harmonic sums to +0.0, its products
        # never formed: up to the float range, and at a scale whose
        # scale xi overflows, g is g_inf, K the DC power and the slope 0,
        # with no overflow warning nor 0 * inf = NaN; a live d beside them
        # keeps its value
        for flavor in theory.FLAVORS:
            for scale, ds in ((0.5, [1e-3, 1e300, 1.7e308]),
                              (1e305, [1e-308, 1e-300, 1.0, 1.7e308])):
                model = DistanceMapModel(m, ProjectionSpec(family, scale), flavor=flavor)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    curve = model.curve(ds).tolist()
                    assert curve[0] == model.value(ds[0])
                    for d, v in zip(ds[1:], curve[1:]):
                        assert v.hex() == model.value(d).hex() == model.value_inf.hex()
                        assert model.g(d) == model.g_inf
                        assert model.kernel(d) == model._spectrum.dc_power
                        if flavor != "kernel":
                            assert model.derivative(d) == 0.0

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("m", CATALOG, ids=lambda m: m.name)
    def test_slope_is_finite_at_every_scale(self, m, family):
        # derivative at scale d = 0 to 10, at scales 1e-300 to 1e305: no
        # scale xi is formed, so nothing overflows (warnings are errors
        # here), and only a series' Cauchy slope at d = 0 is inf; the slope
        # is scale times that at scale 1, from scale 1 up and below it
        # wherever that product is a normal float (a slope of about 1e-327
        # underflows to 0)
        series = isinstance(m.power_coeffs(), HarmonicSeries)
        ref = DistanceMapModel(m, ProjectionSpec(family, 1.0))
        for scale in (1e-300, 1e-100, 1e-10, 1.0, 1e100, 1e154, 1e155, 1e200, 1e305):
            model = DistanceMapModel(m, ProjectionSpec(family, scale))
            for x in (0.0, 1e-3, 0.1, 1.0, 10.0):
                slope = model.derivative(x / scale)
                if series and family == "cauchy" and x == 0.0:
                    assert slope == math.inf
                    continue
                assert math.isfinite(slope), (scale, x)
                want = ref.derivative(x)
                if scale >= 1.0 or want * scale >= sys.float_info.min:
                    assert slope / scale == pytest.approx(want, rel=1e-6), (scale, x)

    @staticmethod
    def _plain_phi(spec, ds, xi):
        # char_fn on the grid ds x xi with every exponential taken
        if spec.family == "gaussian":
            out = np.multiply(spec.scale, ds)[:, None] * xi
            with np.errstate(over="ignore"):
                out = -0.5 * np.square(out)
        else:
            out = np.multiply(-spec.scale, ds)[:, None] * xi
        return np.exp(out)

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("m", FINITE, ids=lambda m: m.name)
    def test_phi_is_the_plain_exp_bit_for_bit(self, m, family):
        # every block ds[i:] of an ascending grid, and each d as one row:
        # rows that are live, cut mid-spectrum, subnormal or all 0
        sp = m.power_coeffs()
        for scale in (1.0, 0.07):
            spec = ProjectionSpec(family, scale)
            # scale d xi_1 from 1e-12 of the cut to past it, dense over the
            # last 5% before it, where phi_1 turns subnormal (from 37.6
            # Gaussian, 708 Cauchy)
            edge = theory._LIVE[family] / sp.xi[0]
            ds = np.concatenate([np.geomspace(1e-12, 0.9, 20) * edge,
                                 np.linspace(0.95, 1.0, 15) * edge,
                                 np.geomspace(1.001, 1e4, 8) * edge]) / scale
            phi = theory._phi(spec, ds, sp.xi)
            assert np.any((phi > 0.0) & (phi < np.finfo(float).tiny))
            for i in range(len(ds)):
                got = theory._phi(spec, ds[i:], sp.xi)
                assert got.tobytes() == self._plain_phi(spec, ds[i:], sp.xi).tobytes(), i
                row = theory._phi(spec, float(ds[i]), sp.xi)
                assert row.tobytes() == got[0].tobytes(), i
            assert not np.any(phi[-1])

    # (map, rows) of a 2049-harmonic finite spectrum, the design mixture's
    # 2 columns and the sawtooth's third series block of 8192 columns: the
    # shapes of the theory workload's blocks, its mixture curves and repro's
    # series blocks
    SHAPES = {"finite_2049": (make_multibit(4), 15),
              "mixture_2x500": (make_fourier_mixture(FIG3), 500),
              "series_8192x4": (make_sawtooth(), 4)}

    @staticmethod
    def _xi(m, block=2):
        # a finite spectrum's xi, or that of a series' block (0 is the first)
        sp = m.power_coeffs()
        if isinstance(sp, HarmonicSeries):
            return 2.0 * np.pi * next(itertools.islice(sp.blocks(), block, None))[1]
        return sp.xi

    @staticmethod
    def _scattered(family, scale, xi, rows, seed):
        # (ds, i): rows distances whose smallest, cut mid-spectrum (between
        # two columns), is ds[i] and ds[i + 1], in the middle of the block
        # for seed 0, near its ends for seeds 1 and 2; the first row is cut
        # earlier and the last is all 0
        mid = len(xi) // 2
        d_min = theory._LIVE[family] / (scale * math.sqrt(xi[mid - 1] * xi[mid]))
        ds = np.random.default_rng(seed).permutation(d_min * np.geomspace(1.2, 1e3, rows))
        i = ((rows - 1) // 2, 1, rows - 3)[seed % 3]
        ds[i] = ds[i + 1] = d_min
        ds[0], ds[-1] = 10.0 * d_min, 1e6 * d_min
        if rows > 4:
            j = 2 if i > 3 else rows - 4
            ds[j - 1] = ds[j]  # a repeated d that is not the smallest
        return ds, i

    @pytest.mark.parametrize("term", [theory._phi, theory._slope], ids=["phi", "slope"])
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_cut_comes_from_the_smallest_row(self, shape, family, term):
        # each row of a block equals that d computed alone, wherever the
        # smallest d sits: a cut read from any other row zeroes live phi
        m, rows = self.SHAPES[shape]
        xi, spec = self._xi(m), ProjectionSpec(family, 0.7)
        for seed in range(3):
            ds, i = self._scattered(family, spec.scale, xi, rows, seed)
            got = term(spec, ds, xi)
            phi = theory._phi(spec, ds, xi)
            assert 0 < np.count_nonzero(phi[i]) < len(xi)
            assert np.count_nonzero(phi[0]) < np.count_nonzero(phi[i])
            assert not np.any(phi[-1])
            assert phi.tobytes() == self._plain_phi(spec, ds, xi).tobytes()
            for j, d in enumerate(ds.tolist()):
                assert got[j].tobytes() == term(spec, d, xi).tobytes(), (seed, j)

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_curve_of_a_scattered_grid_is_value_bit_for_bit(self, shape, family):
        # three engine blocks (the mixture's 1500 rows are one), each its
        # own permutation, whose smallest d is cut mid-way through the
        # spectrum's first block
        m = self.SHAPES[shape][0]
        xi = self._xi(m, block=0)
        rows = min(500, theory._PHI_BLOCK // len(xi))
        model = DistanceMapModel(m, ProjectionSpec(family, 0.7))
        ds = np.concatenate([self._scattered(family, 0.7, xi, rows, seed)[0]
                             for seed in range(3)])
        want = [model.value(d).hex() for d in ds.tolist()]
        assert [v.hex() for v in model.curve(ds).tolist()] == want

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_multi_row_phi_allocates_only_its_output(self, family):
        # a 4 x 8192 block allocates its grid and nothing of its size beside
        xi, spec = self._xi(make_sawtooth()), ProjectionSpec(family, 0.7)
        ds = self._scattered(family, spec.scale, xi, 4, 0)[0]
        theory._phi(spec, ds, xi)
        tracemalloc.start()
        try:
            out = theory._phi(spec, ds, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (4, 8192)
        assert peak <= out.nbytes + 4096

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("m", FINITE, ids=lambda m: m.name)
    def test_slope_at_zero_and_huge_scales_are_the_plain_exp(self, m, family):
        # a row at d = 0 (derivative(0)) exponentiates every harmonic; at a
        # scale where (scale d xi)^2 overflows, every phi is 0 and is not
        # exponentiated, so nothing overflows (warnings are errors here)
        sp = m.power_coeffs()
        spec = ProjectionSpec(family, 0.7)
        slope = self._plain_phi(spec, np.zeros(1), sp.xi)[0] * sp.xi
        if family == "gaussian":
            slope = slope * sp.xi * 0.0
        want = 2.0 * spec.scale * float(np.vecdot(slope, sp.xi_power))
        assert DistanceMapModel(m, spec).derivative(0.0).hex() == want.hex()
        huge = ProjectionSpec(family, 1e160)
        ds = np.array([1e-3, 1.0, 1e100])
        phi = theory._phi(huge, ds, sp.xi)
        assert phi.tobytes() == self._plain_phi(huge, ds, sp.xi).tobytes()
        assert not np.any(phi)
        assert DistanceMapModel(m, huge).g(1.0) == DistanceMapModel(m, huge).g_inf

    def test_subnormal_kernel_keeps_its_bits(self):
        # K(6.05) of the design mixture at Gaussian scale 1 has no DC term and
        # is subnormal: phi_1 is computed, not taken for 0
        m = make_fourier_mixture(FIG3)
        sp = m.power_coeffs()
        spec = ProjectionSpec("gaussian", 1.0)
        k = DistanceMapModel(m, spec, flavor="kernel").kernel(6.05)
        want = float(np.vecdot(self._plain_phi(spec, np.array([6.05]), sp.xi)[0], sp.xi_power))
        assert 0.0 < k < np.finfo(float).tiny
        assert k.hex() == want.hex()

    def test_no_exp_returns_an_exact_zero_on_the_benchmark_grid(self, monkeypatch):
        # the theory benchmark's models, grid, D0 and inversions: no phi that
        # is exactly 0 in every row of its block reaches np.exp
        models = [DistanceMapModel(m, ProjectionSpec(family, 0.5))
                  for m in self.FINITE for family in ("gaussian", "cauchy")]
        ds = np.logspace(-9.0, 2.0, 200) / 0.5
        exp, seen = np.exp, [0]

        def spy(x, *args, **kwargs):
            # a row: every exp is nonzero; a block: so is some exp of its
            # last column, that of its smallest d
            live = np.asarray(x) > -745.1332191019412
            assert live.all() if live.ndim == 1 else live[:, -1:].any(axis=0).all()
            seen[0] += live.size
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        for model in models:
            g = model.curve(ds)
            for d in ds.tolist():
                model.kernel(d)
            model.D0
            for j in range(0, len(ds), 10):
                model.invert(float(g[j]))
        assert seen[0] > 10 ** 6

    @pytest.mark.parametrize("flavor", ["sq_l2", "sqrt"])
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("m", CATALOG, ids=lambda m: m.name)
    def test_slope_is_the_central_difference_of_g(self, m, family, flavor):
        # derivative(d) against (value(d + h) - value(d - h)) / 2h, h = 1e-4 d,
        # of g or sqrt(g), from scale d = 1e-4 to saturation, wherever the
        # slope is not negligible
        spec = ProjectionSpec(family, 0.7)
        model = DistanceMapModel(m, spec, flavor=flavor)
        ds = np.geomspace(1e-4, 5.0, 30) / spec.scale
        h = 1e-4 * ds
        diff = (model.curve(ds + h) - model.curve(ds - h)) / (2.0 * h)
        slope = np.array([model.derivative(d) for d in ds.tolist()])
        steep = np.abs(slope) >= 1e-6
        assert np.count_nonzero(steep) >= 10
        np.testing.assert_allclose(slope[steep], diff[steep], rtol=1e-5)

    @pytest.mark.parametrize("m", CATALOG, ids=lambda m: m.name)
    def test_power_coeffs_is_the_spectrum_the_model_sums(self, m, monkeypatch):
        # one spectrum per map: computed once, on first use, and summed by
        # every model of the map
        fresh = parse_map(m.name)
        computed, summed = [], []
        compute, phi_sum = maps._compute_spectrum, theory._phi_sum
        monkeypatch.setattr(maps, "_compute_spectrum",
                            lambda map_: computed.append(map_) or compute(map_))
        monkeypatch.setattr(theory, "_phi_sum",
                            lambda sp, *args: summed.append(sp) or phi_sum(sp, *args))
        for family in ("gaussian", "cauchy"):
            DistanceMapModel(fresh, ProjectionSpec(family, 0.7)).g(0.5)
        sp = fresh.power_coeffs()
        assert computed == [fresh]
        assert len(summed) == 2 and all(s is sp for s in summed)
        if m.kind in ("square", "sawtooth"):
            assert sp is maps._SERIES[m.kind]

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_quantized_curve_scales_with_power(self, family):
        # Q_3(a h) lists the harmonics of Q_3(h), its tail included, so its
        # curve is a^2 times that one: not 0 for a faint map, nor cut for a
        # strong one
        spec = ProjectionSpec(family, 0.7)
        ds = np.geomspace(1e-3, 1e2, 25)
        for terms in ([(1, 1.0)], FIG3):
            ref = DistanceMapModel(quantize_map(make_fourier_mixture(terms), 3), spec)
            want = ref.curve(ds)
            for a in (1e-8, 0.01, 100.0, 1e4):
                scaled = make_fourier_mixture([(k, a * b) for k, b in terms])
                model = DistanceMapModel(quantize_map(scaled, 3), spec)
                np.testing.assert_allclose(model.curve(ds), a * a * want, rtol=1e-10)
                assert model.g_inf == pytest.approx(a * a * ref.g_inf, rel=1e-10)

    def test_tiny_d_curve_memory_is_bounded(self):
        # 500 distances that each run the series to its cap: phi is built in
        # bounded blocks, never as one distances x harmonics array
        spec = ProjectionSpec("gaussian", 0.5)
        model = DistanceMapModel(make_sawtooth(), spec)
        ds = np.full(500, 1e-9 / spec.scale)
        tracemalloc.start()
        try:
            g = model.curve(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert np.all(g == g[0]) and g[0] > 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_input_rejected(self, bad):
        spec = ProjectionSpec("gaussian", 0.5)
        model = DistanceMapModel(make_square_wave(), spec)
        sqrt_value = DistanceMapModel(make_square_wave(), spec, flavor="sqrt").value
        for call in (model.g, sqrt_value, model.kernel, model.value, model.derivative):
            with pytest.raises(ValueError):
                call(bad)
        with pytest.raises(ValueError):
            model.curve([0.1, bad, 0.2])
        if bad != -0.5:  # a negative value inverts to d = 0, "below_range"
            with pytest.raises(ValueError):
                model.invert(bad)

    def test_invert_at_zero_tolerance_ends_bracketed(self, monkeypatch):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))
        model.D0
        g = model.g(0.3)
        engine, passes, points = theory._phi_sum, [], []

        def counted(spectrum, spec, ds, *args):
            passes.append(ds)
            assert len(passes) < 5000, "bisection does not terminate"
            s, err = engine(spectrum, spec, ds, *args)
            points.extend(zip(np.atleast_1d(ds).tolist(),
                              np.atleast_1d(model._flavored(s, model.flavor)).tolist()))
            return s, err

        monkeypatch.setattr(theory, "_phi_sum", counted)
        d_hat, status = model.invert(g, rel_tol=0.0)
        assert status == "unique"
        lo = max(d for d, v in points if v < g)
        hi = min(d for d, v in points if v >= g)
        assert np.nextafter(lo, np.inf) == hi
        assert d_hat in (lo, hi)


class TestClosedFormsAgainstEngine:
    def test_binary_gaussian_two_paths(self):
        sigma, Delta = 1.3, 0.8
        spec = ProjectionSpec("gaussian", sigma / (2 * Delta))
        model = DistanceMapModel(make_square_wave(), spec)
        for d in np.geomspace(1e-3, 10, 50) * Delta / sigma:
            g1, _ = universal_binary_map(float(d), sigma, Delta)
            assert g1 == pytest.approx(model.g(float(d)), abs=1e-9)

    def test_binary_cauchy_two_paths(self):
        gamma, Delta = 0.9, 1.7
        spec = ProjectionSpec("cauchy", gamma / (2 * Delta))
        model = DistanceMapModel(make_square_wave(), spec)
        for d in np.geomspace(1e-3, 30, 50) * Delta / gamma:
            g1 = universal_binary_map_l1(float(d), gamma, Delta)
            assert g1 == pytest.approx(model.g(float(d)), abs=1e-9)

    def test_l1_same_bits_in_a_fresh_process(self):
        # spence is imported by the first dilogarithm, not with uemb.theory
        ds = (1e-3, 0.37, 2.0, 11.0)
        code = ("import sys\n"
                "from uemb.theory import universal_binary_map_l1\n"
                "print('scipy.special' in sys.modules)\n"
                "print(' '.join(universal_binary_map_l1(d, 0.9, 1.7).hex() for d in %r))\n"
                "print('scipy.special' in sys.modules)\n" % (ds,))
        src = os.path.dirname(os.path.dirname(uemb.__file__))
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout.split("\n")
        assert out[0] == "False" and out[2] == "True"
        assert out[1].split() == [universal_binary_map_l1(d, 0.9, 1.7).hex() for d in ds]

    @staticmethod
    def _own_series_loop(d, sigma, Delta):
        # universal_binary_map's former block loop over 4 / (pi k)^2, odd k
        s = sigma * d / Delta
        if d == 0.0:
            return 0.0
        acc = partial = 0.0
        lo, block = 1, 512
        c = (math.pi * s) ** 2 / 2.0
        while True:
            hi = min(lo + block - 1, 1 << 21)
            k = np.arange(lo if lo % 2 == 1 else lo + 1, hi + 1, 2, dtype=np.float64)
            coeff = 4.0 / (math.pi * k) ** 2
            acc += float(coeff @ np.exp(-c * k * k))
            partial += float(np.sum(coeff))
            tail_p = max(0.5 - partial, 0.0)
            rem = tail_p * math.exp(-c * (hi + 1) ** 2) if c * (hi + 1) ** 2 < 700 else 0.0
            if rem <= 1e-14 * max(acc, 1e-3) or hi >= 1 << 21:
                acc += rem / 2.0
                break
            lo = hi + 1
            block = min(block * 4, 1 << 18)
        return min(max(0.5 - acc, 0.0), 0.5)

    @pytest.mark.parametrize("sigma,Delta", [(1.0, 1.0), (0.3, 2.0), (2.5, 0.4)])
    def test_binary_map_reads_the_square_wave_series_bit_for_bit(self, sigma, Delta):
        # the square wave's blocks give the sums of the function's former own
        # loop, which exponentiates every term, also where the terms from
        # some k on are 0 (pi s k past 38.6: s from 0.012 to 12.3); the
        # bounds are their closed forms
        ds = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e-3, 6),
                             np.geomspace(1e-3, 12.7, 60),
                             np.linspace(0.0, 40.0, 41)[1:]]) * Delta / sigma
        for d in ds.tolist():
            got, b = universal_binary_map(d, sigma, Delta)
            assert got.hex() == self._own_series_loop(d, sigma, Delta).hex(), d
            s = sigma * d / Delta
            e1 = math.exp(-((math.pi * s) ** 2) / 2.0) if math.pi * s <= 40.0 else 0.0
            want = (0.5 - 0.5 * e1, 0.5 - (4.0 / math.pi ** 2) * e1,
                    math.sqrt(2.0 / math.pi) * s)
            assert [v.hex() for v in (b.lower, b.upper_exp, b.upper_lin)] == \
                [v.hex() for v in want], d

    def test_binary_map_saturates_at_huge_distances(self):
        # past pi s = 40 every term is 0 and the bounds are (1/2, 1/2, upper_lin),
        # also where (pi s)^2 would overflow (pi s > 1.3e154)
        for d in (40.5 / math.pi, 1e150, 1e160, 1e300):
            g, b = universal_binary_map(d, 1.0, 1.0)
            assert (g, b.lower, b.upper_exp) == (0.5, 0.5, 0.5)
            assert b.upper_lin == math.sqrt(2.0 / math.pi) * d
        assert universal_binary_map(39.5 / math.pi, 1.0, 1.0)[0] == 0.5

    def test_l1_zero_and_saturation(self):
        assert universal_binary_map_l1(0.0, 1.0, 1.0) == 0.0
        assert universal_binary_map_l1(50.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_l1_against_high_precision_dilogarithms(self):
        # 1/2 - (4/pi^2) (Li2(q) - Li2(q^2)/4), q = e^-x, with 40 digits left
        # after the cancellation against 1/2 at small x = pi gamma d / Delta
        mp = pytest.importorskip("mpmath")
        gamma, Delta = 0.9, 1.7
        xs = np.concatenate([[1e-300, 1e-100, 1e-16], np.geomspace(1e-14, 1e-2, 13),
                             np.geomspace(0.1, 40.0, 60), [math.log(2.0), math.log(4.0)]])
        for d in (xs * Delta / (math.pi * gamma)).tolist():
            x = math.pi * gamma * d / Delta
            with mp.workdps(40 + max(0, -math.floor(math.log10(x)))):
                q = mp.exp(-mp.mpf(x))
                want = 0.5 - 4 / mp.pi ** 2 * (mp.polylog(2, q) - mp.polylog(2, q * q) / 4)
                got = universal_binary_map_l1(d, gamma, Delta)
                assert abs(got - want) <= 2e-15 * want, x
        assert universal_binary_map_l1(0.0, gamma, Delta) == 0.0
        for d in (40.0 * Delta / (math.pi * gamma), 1e3, 1e308):
            assert universal_binary_map_l1(d, gamma, Delta) == 0.5
        # gamma d / Delta overflows, also from numpy scalars
        assert universal_binary_map_l1(1e300, 1e8, 1.0) == 0.5
        assert universal_binary_map_l1(np.float64(1e300), np.float64(1e8), 1.0) == 0.5

    def test_binary_bounds_sandwich(self):
        sigma = Delta = 1.0
        for d in np.geomspace(1e-3, 10, 100):
            g, b = universal_binary_map(float(d), sigma, Delta)
            assert b.lower <= g + 1e-15
            assert g <= min(b.upper_exp, b.upper_lin) + 1e-15

    def test_linear_bound_hits_half_at_pi_over_8(self):
        # smallest d with the linear bound at 1/2 is Delta sqrt(pi/8) / sigma
        sigma, Delta = 2.0, 0.5
        d_star = Delta * math.sqrt(math.pi / 8) / sigma
        _, b = universal_binary_map(d_star, sigma, Delta)
        assert b.upper_lin == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            universal_binary_map(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            universal_binary_map(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            universal_binary_map_l1(1.0, 1.0, -2.0)
        for bad in (math.nan, math.inf):
            for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                with pytest.raises(ValueError):
                    universal_binary_map(*args)
                with pytest.raises(ValueError):
                    universal_binary_map_l1(*args)


class TestKernel:
    def test_kernel_at_zero_is_total_power(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))
        assert model.kernel(0.0) == pytest.approx(0.5)

    def test_identity_with_distance_map(self):
        # K(d) + g(d)/2 = sum_k P_k, exactly by construction
        for m, spec in [
            (make_square_wave(), ProjectionSpec("gaussian", 0.5)),
            (make_sawtooth(), ProjectionSpec("cauchy", 0.8)),
            (make_fourier_mixture(FIG3), ProjectionSpec("gaussian", 0.25)),
        ]:
            model = DistanceMapModel(m, spec)
            for d in np.linspace(0, 4, 30):
                err = model.kernel(float(d)) + model.g(float(d)) / 2 - model.total_power
                assert abs(err) <= 1e-12

    def test_square_gaussian_large_d_dc_only(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.6))
        assert model.kernel(10.0) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("scale", [0.2, 1.0, 5.0])
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_random_fourier_features_kernel(self, family, scale):
        # one harmonic of power 1 is Rahimi & Recht's random Fourier
        # features: K(d) = phi(2 pi | d), the Gaussian or Laplacian kernel
        model = DistanceMapModel(parse_map("mixture:1:1.4142135623730951"),
                                 ProjectionSpec(family, scale), flavor="kernel")
        # from d = 0 past the point where K underflows to 0
        top = (8.0 if family == "gaussian" else 130.0) / scale
        ds = np.concatenate([[0.0], np.logspace(-12, 0, 25) * top, np.linspace(0.0, top, 401)])
        if family == "gaussian":
            want = np.exp(-((2 * np.pi * scale * ds) ** 2) / 2)
        else:
            want = np.exp(-2 * np.pi * scale * ds)
        assert want[-1] == 0.0
        assert np.max(np.abs(model.curve(ds) - want)) <= 4e-16
        assert max(abs(model.kernel(float(d)) - w) for d, w in zip(ds, want)) <= 4e-16


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "m,spec",
        [
            (make_square_wave(), ProjectionSpec("gaussian", 0.35)),
            (make_sawtooth(), ProjectionSpec("gaussian", 0.5)),
            (make_fourier_mixture(FIG3), ProjectionSpec("gaussian", 0.3)),
            (make_square_wave(), ProjectionSpec("cauchy", 0.3)),
        ],
        ids=["square+gauss", "saw+gauss", "mixture+gauss", "square+cauchy"],
    )
    def test_quadrature_oracle(self, m, spec):
        model = DistanceMapModel(m, spec)
        for d in np.linspace(0.15, 3.0, 5):
            assert model.g(float(d)) == pytest.approx(
                oracle_distance_map(m, spec, float(d)), abs=1e-4
            )

    @pytest.mark.parametrize(
        "m,spec,ds",
        [
            (make_multibit(3), ProjectionSpec("gaussian", 0.5), np.linspace(0.1, 3.0, 10)),
            (make_multibit(3), ProjectionSpec("cauchy", 0.5), np.linspace(0.1, 3.0, 10)),
            (quantize_map(make_fourier_mixture(FIG3), 3), ProjectionSpec("gaussian", 0.2),
             [1.0]),
        ],
        ids=["multibit3+gauss", "multibit3+cauchy", "quantized_mix3+gauss"],
    )
    def test_quantized_curve_is_the_quadrature_oracle(self, m, spec, ds):
        # the power above the listed harmonics is listed too, so a quantized
        # curve has no bias (measured: 2.7e-14, 1.1e-16 and 1.6e-13)
        model = DistanceMapModel(m, spec)
        for d in ds:
            assert model.g(float(d)) == pytest.approx(
                oracle_distance_map(m, spec, float(d)), rel=0, abs=1e-10
            )


class TestInversion:
    def test_round_trip(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))
        d0 = model.D0
        for frac in np.linspace(0.05, 0.9, 10):
            d_true = frac * d0
            d_est, status = model.invert(model.g(d_true))
            assert status == "unique"
            assert d_est == pytest.approx(d_true, abs=1e-8)

    def test_statuses(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))
        d, status = model.invert(model.g_inf)
        assert status == "saturated" and d == pytest.approx(model.D0)
        d, status = model.invert(-0.01)
        assert status == "below_range" and d == 0.0
        d, status = model.invert(0.0)
        assert status == "unique" and d == 0.0

    def test_sqrt_flavor_roundtrip(self):
        model = DistanceMapModel(make_sawtooth(), ProjectionSpec("gaussian", 0.4),
                                 flavor="sqrt")
        d_true = 0.5 * model.D0
        d_est, status = model.invert(model.value(d_true))
        assert status == "unique"
        assert d_est == pytest.approx(d_true, abs=1e-8)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf, 2.0, 1.0, -1e-3])
    def test_rel_tol_must_lie_in_unit_interval(self, rel_tol):
        # NaN, inf or >= 1 would stop the bisection at once; below 0 is meaningless
        model = DistanceMapModel(make_multibit(3), ProjectionSpec("gaussian", 0.5))
        for gval in (model.g(0.3), 0.0, -1.0, model.g_inf):
            with pytest.raises(ValueError, match="rel_tol"):
                model.invert(gval, rel_tol=rel_tol)

    def test_kernel_flavor_has_no_inverse(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5),
                                 flavor="kernel")
        with pytest.raises(ValueError):
            model.invert(0.3)

    def test_d0_shrinks_with_scale(self):
        # larger projection scale saturates at smaller distances
        d0s = [DistanceMapModel(make_fourier_mixture(FIG3),
                                ProjectionSpec("gaussian", s)).D0
               for s in (0.2, 0.4)]
        assert d0s[1] < d0s[0]
        assert d0s[0] / d0s[1] == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("flavor", ["sq_l2", "sqrt"])
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_inverse_scale_brackets_d0(self, family, flavor):
        # phi(2 pi k | 1/scale) <= e^{-2 pi} for k >= 1 and every P_k >= 0,
        # so g(1/scale) >= (1 - e^{-2 pi}) g_inf: D0 lies in (0, 1/scale]
        least = (1.0 - math.exp(-2.0 * math.pi)) * (1.0 - 1e-12)
        for m in TestSummationEngine.CATALOG:
            for scale in (1e-3, 1.0 / 3.0, 1.0, 7.0, 1e4):
                model = DistanceMapModel(m, ProjectionSpec(family, scale), flavor=flavor)
                g = model.g(1.0 / scale)
                assert g >= least * model.g_inf, (m.name, scale)
                assert model.value(1.0 / scale) >= SATURATION_FRACTION * model.value_inf
                assert 0.0 < model.D0 <= 1.0 / scale

    def test_d0_at_a_scale_whose_inverse_overflows_raises(self):
        # 1 / 1e-310 is inf: no finite distance brackets D0
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 1e-310))
        with pytest.raises(ValueError, match="finite"):
            model.D0

    def test_d0_values_binary_universal(self):
        # documented: per-flavor saturation radii of the (sigma, Delta) map
        sigma = Delta = 1.0
        spec = ProjectionSpec("gaussian", sigma / (2 * Delta))
        target = Delta * math.sqrt(math.pi / 8) / sigma
        d0_sq = DistanceMapModel(make_square_wave(), spec).D0
        d0_rt = DistanceMapModel(make_square_wave(), spec, flavor="sqrt").D0
        assert d0_sq == pytest.approx(0.751335, abs=1e-4)
        assert abs(d0_rt - target) / target < 0.05


def scalar_bisect(model, target, hi, rel_tol=0.0):
    """Reference bisection: one lone value(mid) per halving."""
    lo = 0.0
    while hi - lo > rel_tol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if model.value(mid) >= target:
            hi = mid
        else:
            lo = mid
    return lo, hi


def scalar_d0(model):
    """Reference D0 of a fresh model: doubling, then the reference bisection."""
    target = SATURATION_FRACTION * model.value_inf
    hi = 1.0 / model.spec.scale
    while model.value(hi) < target:
        hi *= 2.0
    return scalar_bisect(model, target, hi)[1]


def scalar_invert(model, gval, rel_tol):
    """Reference invert for 0 <= gval: its early returns, then the reference bisection."""
    if gval >= SATURATION_FRACTION * model.value_inf:
        return model.D0, "saturated"
    if gval == 0.0:
        return 0.0, "unique"
    lo, hi = scalar_bisect(model, gval, model.D0, rel_tol)
    return 0.5 * (lo + hi), "unique"


# bench/checks.py's KNOWN_TINY_D_SCALE: below this scale * d, 1 - phi
# cancels and invert(g(d)) drifts (the known tiny-d defect)
TINY_D_SCALE = 5e-6


@functools.cache
def replay_model(i, family, flavor):
    """Model of TestSummationEngine.CATALOG[i] at scale 0.7, its D0 cached across draws."""
    spec = ProjectionSpec(family, 0.7)
    return DistanceMapModel(TestSummationEngine.CATALOG[i], spec, flavor=flavor)


class TestBisectionReplay:
    """invert and D0 are the one-midpoint-at-a-time bisection, bit for bit."""

    @pytest.mark.parametrize("flavor", ["sq_l2", "sqrt"])
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_d0_is_the_scalar_bisection(self, family, flavor):
        for m in TestSummationEngine.CATALOG:
            spec = ProjectionSpec(family, 0.7)
            ref = scalar_d0(DistanceMapModel(m, spec, flavor=flavor))
            assert DistanceMapModel(m, spec, flavor=flavor).D0.hex() == ref.hex(), m.name

    def test_d0_is_the_smallest_saturated_float(self):
        # harmonic 1e15 saturates near d = 1e-15: the bisection from
        # hi = 1 takes over 100 halvings, and D0 is still the first float
        # whose value reaches the target
        model = DistanceMapModel(parse_map("mixture:1000000000000000:1"),
                                 ProjectionSpec("gaussian", 1.0))
        target = SATURATION_FRACTION * model.value_inf
        d0 = model.D0
        assert model.value(d0) >= target
        assert model.value(math.nextafter(d0, 0.0)) < target

    @pytest.mark.parametrize("flavor", ["sq_l2", "sqrt"])
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(i=st.integers(0, len(TestSummationEngine.CATALOG) - 1),
           frac=st.floats(0.0, 1.0),
           nudge=st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52, 0.5, 1.5]),
           rel_tol=st.sampled_from([0.0, 1e-13, 1e-10, 1e-6, 0.01, 0.5]))
    @example(i=3, frac=0.0, nudge=1.0, rel_tol=0.0)  # multibit:B=4, deep in tiny d
    @example(i=5, frac=0.05, nudge=1.0, rel_tol=1e-10)
    def test_invert_is_the_scalar_bisection(self, family, flavor, i, frac, nudge, rel_tol):
        # targets are curve values at scale * d from a millionth of the
        # tiny-d scale up to 3; a series map (square, sawtooth) costs up to
        # 80 ms a value below 1e-4, where its sum runs to the harmonic cap,
        # so its draws start there
        model = replay_model(i, family, flavor)
        series = isinstance(model.map.power_coeffs(), HarmonicSeries)
        low = -4.0 if series else math.log10(TINY_D_SCALE) - 6.0
        u = 10.0 ** (low + frac * (math.log10(3.0) - low))
        target = model.value(u / model.spec.scale) * nudge
        got = model.invert(target, rel_tol)
        ref = scalar_invert(model, target, rel_tol)
        assert (got[0].hex(), got[1]) == (ref[0].hex(), ref[1])
        if ref[1] == "unique" and target > 0.0:
            lo, hi = model._bisect(target, model.D0, rel_tol)
            ref_lo, ref_hi = scalar_bisect(model, target, model.D0, rel_tol)
            assert (lo.hex(), hi.hex()) == (ref_lo.hex(), ref_hi.hex())


class TestAmbiguity:
    def test_zero_errors_zero_ambiguity(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))
        assert ambiguity(model, model.g(0.3), 0.0, 0.0) == 0.0

    def test_linear_region_slope(self):
        # slope of the binary map in its linear region is ~ sqrt(2/pi) sigma/Delta
        sigma = Delta = 1.0
        model = DistanceMapModel(make_square_wave(),
                                 ProjectionSpec("gaussian", sigma / (2 * Delta)))
        eps = 0.01
        d_w = model.g(0.15)
        amb = ambiguity(model, d_w, eps, 0.0)
        slope = math.sqrt(2 / math.pi) * sigma / Delta
        assert amb == pytest.approx(eps / slope, rel=0.08)

    def test_gaussian_series_slope_at_zero_is_its_limit(self):
        # g'(0) of P_k = c / (pi k)^2 on k = 1, 1 + step, ... is
        # 4 c scale / (step sqrt(2 pi)), the limit of g'(d); a finite sum's is 0
        model = _square_model()
        assert model.derivative(0.0) == pytest.approx(0.7978845608, rel=1e-9)
        assert model.derivative(0.0) == pytest.approx(model.derivative(1e-6), rel=1e-9)
        assert ambiguity(model, 0.0, 0.01, 0.0) == pytest.approx(0.012533141373155, rel=1e-12)
        saw = DistanceMapModel(make_sawtooth(), ProjectionSpec("gaussian", 1.0))
        assert saw.derivative(0.0) == pytest.approx(4.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert saw.derivative(0.0) == pytest.approx(saw.derivative(1e-6), rel=1e-5)
        finite = DistanceMapModel(make_multibit(3), ProjectionSpec("gaussian", 1.0))
        assert finite.derivative(0.0) == 0.0
        assert ambiguity(finite, 0.0, 0.01, 0.0) == math.inf  # a flat start

    def test_cauchy_slope_at_zero(self):
        # a series' Cauchy slope at 0 diverges; a finite spectrum's is
        # 2 sum_k P_k scale 2 pi k, the limit of g'(d) as d -> 0
        spec = ProjectionSpec("cauchy", 0.5)
        for m in (make_square_wave(), make_sawtooth()):
            assert DistanceMapModel(m, spec).derivative(0.0) == math.inf
        assert ambiguity(DistanceMapModel(make_square_wave(), spec), 0.0, 0.01, 0.0) == 0.0
        finite = DistanceMapModel(make_multibit(3), spec)
        sp = finite.map.power_coeffs()
        ac = sp.k >= 1
        want = 2.0 * float(sp.power[ac] @ (spec.scale * 2.0 * np.pi * sp.k[ac]))
        assert want == pytest.approx(5.291559750607117, rel=1e-12)
        assert finite.derivative(0.0) == pytest.approx(want, rel=1e-12)
        assert finite.derivative(1e-9) == pytest.approx(want, rel=1e-5)

    @pytest.mark.xfail(strict=True, reason="the series slope is cut at _K_CAP at tiny d "
                                           "(ROADMAP items 1 and 9)")
    def test_tiny_d_slope_is_the_limit(self):
        # the square wave's g is linear near 0, so g'(2e-8) is g'(0)
        model = _square_model()
        assert model.derivative(2e-8) == pytest.approx(model.derivative(0.0), rel=1e-6)

    def test_saturated_is_infinite(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))
        assert ambiguity(model, 0.5, 0.01, 0.0) == math.inf

    def test_identity_map_stub(self):
        class Identity:
            def invert(self, v):
                return v, "unique"

            def derivative(self, d):
                return 1.0

        assert ambiguity(Identity(), 1.0, 0.0, 0.1) == pytest.approx(0.1)

    def test_negative_errors_rejected(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))
        with pytest.raises(ValueError):
            ambiguity(model, 0.1, -0.1, 0.0)
        with pytest.raises(ValueError):  # a negative d_W would give a negative precision
            ambiguity(model, -1.0, 0.01, 0.1)


class TestSubadditivity:
    def test_linear_passes(self):
        rep = check_subadditivity(lambda d: d, 0.0, 0.0, np.linspace(0, 3, 20))
        assert rep.passed and rep.worst_violation <= 1e-9

    def test_squared_fails_at_one_one(self):
        rep = check_subadditivity(lambda d: d * d, 0.0, 0.0, np.linspace(0, 2, 21))
        assert not rep.passed
        assert rep.worst_violation >= 2.0 - 1e-12

    def test_sqrt_binary_map_passes(self):
        model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5),
                                 flavor="sqrt")
        grid = np.linspace(0, 3 * model.D0, 25)
        rep = check_subadditivity(model.value, 0.0, 0.0, grid)
        assert rep.passed

    def test_epsilon_delta_slack(self):
        rep = check_subadditivity(lambda d: d * d, 0.25, 1.0, np.linspace(0, 1, 11))
        assert rep.passed  # (1-2eps) g(2) - 3delta = 2 - 3 < g(1)+g(1)

    def test_grid_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            check_subadditivity(lambda d: d, 0.0, 0.0, [[0.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_eps_and_delta_must_be_finite(self, bad):
        grid = np.linspace(0, 2, 21)
        for eps, delta in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="eps and delta"):
                check_subadditivity(lambda d: d * d, eps, delta, grid)

    def test_nan_violation_fails(self):
        # NaN compares false with everything, so it must not be skipped as
        # "no worse than the worst so far"
        rep = check_subadditivity(lambda d: math.nan, 0.0, 0.0, np.linspace(0, 2, 21))
        assert not rep.passed
        assert math.isnan(rep.worst_violation) and rep.worst_pair == (0.0, 0.0)

    def test_nan_after_finite_violations_fails(self):
        rep = check_subadditivity(lambda d: math.nan if d > 1.5 else d, 0.0, 0.0,
                                  np.linspace(0, 1, 11))
        assert not rep.passed
        assert math.isnan(rep.worst_violation)
        a, b = rep.worst_pair
        assert a + b > 1.5

    def test_report_holds_plain_types(self):
        rep = check_subadditivity(lambda d: d * d, 0.0, 0.0, np.linspace(0, 2, 21))
        assert type(rep.worst_violation) is float and type(rep.passed) is bool
        assert all(type(x) is float for x in rep.worst_pair)
        assert rep.worst_violation == 8.0 and rep.worst_pair == (2.0, 2.0)


class TestPointcloudBound:
    def test_reference_value(self):
        rep = pointcloud_bound(2, 1000, 0.1, 1.0, "sq_l2")
        assert rep.probability == pytest.approx(math.exp(2 * math.log(2) - 20), rel=1e-12)
        assert not rep.vacuous

    def test_kernel_coefficient_ratio(self):
        # kernel M-coefficient is (8/9)/2 = 4/9 of the sq_l2 one
        a = pointcloud_bound(2, 1000, 0.1, 1.0, "sq_l2")
        b = pointcloud_bound(2, 1000, 0.1, 1.0, "kernel")
        coeff = lambda rep: (2 * math.log(2) - rep.exponent) / 1000
        assert coeff(b) / coeff(a) == pytest.approx(4 / 9)

    def test_vacuous_flag(self):
        rep = pointcloud_bound(100, 10, 0.01, 1.0, "sq_l2")
        assert rep.vacuous and rep.probability == 1.0

    def test_sqrt_tight_requires_small_eps(self):
        with pytest.raises(ValueError):
            pointcloud_bound(2, 100, 1.5, 1.0, "sqrt_tight")
        rep = pointcloud_bound(2, 100, 0.9, 1.0, "sqrt_tight")
        assert rep.exponent == pytest.approx(2 * math.log(2) - 2 * 100 * 0.81)

    def test_monotone_in_M_and_Q(self):
        ps = [pointcloud_bound(2, M, 0.2, 1.0, "sq_l2").probability
              for M in (100, 300, 1000, 3000)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        qs = [pointcloud_bound(Q, 2000, 0.2, 1.0, "sq_l2").probability
              for Q in (2, 8, 64)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_norm_flavor(self):
        rep = pointcloud_bound(4, 1000, 0.1, 1.0, "norm")
        assert rep.exponent == pytest.approx(math.log(4) - 20)
        assert rep.probability == pytest.approx(2 * math.exp(math.log(4) - 20))

    @pytest.mark.parametrize("flavor", ["sq_l2", "sqrt_loose", "sqrt_tight", "kernel", "norm"])
    def test_huge_inputs_give_the_limit(self, flavor):
        # eps^2 or hbar^4 past the float range: probability 0 or 1 as the
        # exponent dictates, never OverflowError
        rep = pointcloud_bound(2, 1000, 0.1, 1e100, flavor)
        assert rep.probability == 1.0 and rep.exponent > 0
        if flavor == "sqrt_tight":  # eps <= 1 only
            return
        rep = pointcloud_bound(2, 1000, 1e200, 1.0, flavor)
        assert rep.probability == 0.0 and rep.exponent == -math.inf
        # eps^2 / hbar^4 = 1, though both overflow; (eps / hbar)^4 overflows
        rep = pointcloud_bound(2, 1000, 1e200, 1e100, flavor)
        assert rep.probability == 0.0 and rep.exponent < -800
        assert math.isfinite(rep.exponent) == (flavor != "sqrt_loose")


class TestExtensionBounds:
    def test_covering_radius(self):
        rep = continuous_extension_bound(10.0, 10 ** 4, 0.02, 1.0, 0.0, 1.0, 1.0, 0.4)
        assert rep.extras["r"] == pytest.approx(0.1)
        assert rep.probability == pytest.approx(math.exp(20 - 200))

    def test_vacuous_below_measurement_floor(self):
        rep = continuous_extension_bound(10.0, 100, 0.02, 1.0, 0.0, 1.0, 1.0, 0.4)
        assert rep.vacuous  # M < 2 E_r / w

    def test_monotone_in_entropy(self):
        ps = [continuous_extension_bound(e, 10 ** 4, 0.02, 1.0, 0.0, 1.0, 1.0, 0.4).probability
              for e in (1.0, 10.0, 50.0)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            continuous_extension_bound(1.0, 100, 0.1, 1.0, 0.0, 0.0, 0.0, 0.4)

    def test_c1_reference(self):
        rep = discontinuous_extension_bound(0.0, 1000, 2 * 0.7 ** 2, 1.0,
                                            [1.0], 2, 0.0, 0.1)
        assert rep.extras["c1"] == pytest.approx(1.1 * math.log(2))

    def test_threshold_flip_at_three_decimals(self):
        thr = binary_decay_threshold(0.0)
        assert thr == pytest.approx(math.sqrt(0.5 * math.log(2)))
        lo = discontinuous_extension_bound(0.0, 100, 2 * 0.588 ** 2, 1.0, [1.0], 2, 0.0, 0.0)
        hi = discontinuous_extension_bound(0.0, 100, 2 * 0.589 ** 2, 1.0, [1.0], 2, 0.0, 0.0)
        assert lo.extras["no_decay"] and not hi.extras["no_decay"]
        assert 0.588 < thr < 0.589

    def test_all_pt_zero_reduces_to_thm1_shape(self):
        rep = discontinuous_extension_bound(3.0, 500, 0.05, 1.0, [0.0, 0.0], 3, 0.0, 0.2)
        assert rep.extras["c1"] == 0.0

    def test_huge_c0_gives_the_limit(self):
        # c0^2 past the float range: exp(-2 c0^2 M) is 0, never OverflowError
        rep = discontinuous_extension_bound(0.0, 1000, 0.5, 1.0, [1.0], 2, 0.0, 1e200)
        assert rep.probability == 1.0 and rep.extras["no_decay"]
        rep = discontinuous_extension_bound(0.0, 1000, 0.5, 1.0, [0.0], 2, 0.0, 1e200)
        assert rep.probability == math.exp(-500.0)

    def test_pf_one_is_vacuous(self):
        rep = discontinuous_extension_bound(0.0, 1000, 0.5, 1.0, [0.5], 2, 1.0, 0.1)
        assert rep.vacuous and rep.probability == 1.0

    def test_pt_length_validation(self):
        with pytest.raises(ValueError):
            discontinuous_extension_bound(0.0, 10, 0.5, 1.0, [0.5, 0.5], 2, 0.0, 0.1)

    def test_integral_float_t_max(self):
        args = (0.0, 1000, 0.5, 1.0, [0.5])
        rep = discontinuous_extension_bound(*args, 2.0, 0.0, 0.1)
        assert rep == discontinuous_extension_bound(*args, 2, 0.0, 0.1)
        for bad in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="T_max"):
                discontinuous_extension_bound(*args, bad, 0.0, 0.1)

    def test_monotone_in_inputs(self):
        def prob(M=2000, p2=0.2, P_F=0.0):
            return discontinuous_extension_bound(
                1.0, M, 0.8, 1.0, [p2], 2, P_F, 0.1
            ).probability

        assert prob(M=4000) <= prob(M=2000)
        assert prob(p2=0.4) >= prob(p2=0.2)
        assert prob(P_F=0.1) >= prob(P_F=0.0)


class TestQuantizedInflation:
    def test_zero_error_identity(self):
        assert quantized_bound_inflation(0.3, 0.0) == 0.3

    def test_scalar_quantizer_inflation(self):
        M, dq = 64, 0.125
        e_q = math.sqrt(M) * dq / 2
        assert quantized_bound_inflation(0.0, e_q) == pytest.approx(math.sqrt(M) * dq)

    def test_rate_form_reference(self):
        assert rate_form(0.2, 0.0, 200, 100, 1.0) == pytest.approx(0.2 + 5.0)

    def test_rate_below_dimension_rejected(self):
        with pytest.raises(ValueError):
            rate_form(0.1, 0.0, 50, 100, 1.0)


def _square_model():
    return DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))


# every bound calculator with valid arguments; a callable one is built per test
BOUND_CALLS = [
    (pointcloud_bound, (2, 1000, 0.1, 1.0, "sq_l2")),
    (continuous_extension_bound, (10.0, 10 ** 4, 0.02, 1.0, 0.0, 1.0, 1.0, 0.4)),
    (discontinuous_extension_bound, (0.0, 1000, 0.5, 1.0, [0.5], 2, 0.0, 0.1)),
    (quantized_bound_inflation, (0.3, 0.1)),
    (rate_form, (0.2, 0.0, 200, 100, 1.0)),
    (ambiguity, (_square_model, 0.1, 0.01, 0.0)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("fn,args,i", [
    pytest.param(fn, args, i, id="%s-%d" % (fn.__name__, i))
    for fn, args in BOUND_CALLS
    for i, a in enumerate(args) if not (isinstance(a, str) or callable(a))
])
def test_non_finite_bound_input_rejected(fn, args, i, bad):
    # a NaN or infinite argument (or P_T entry) raises, never a confident answer
    args = [a() if callable(a) else a for a in args]
    fn(*args)
    args[i] = [bad] if isinstance(args[i], list) else bad
    with pytest.raises(ValueError):
        fn(*args)


class TestBallCrossing:
    def test_reference_value(self):
        b = p2_bound(100, 1.0, 0.1, 10.0)
        assert b == pytest.approx(0.1 * math.sqrt(101) / 10, abs=1e-8)

    def test_vanishes_with_radius(self):
        bs = [p2_bound(64, 1.0, r, 1.0) for r in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(a > b for a, b in zip(bs, bs[1:]))
        assert bs[-1] < 1e-3

    def test_meaningful_region(self):
        # r < Delta/(sigma sqrt(N+1)) is the necessary condition: above it the
        # linear term alone is >= 1; well below it the bound drops under 1
        thr = p2_meaningful_radius(100, 1.0, 10.0)
        assert thr == pytest.approx(10 / math.sqrt(101))
        assert p2_bound(100, 1.0, 1.05 * thr, 10.0) >= 1.0
        assert p2_bound(100, 1.0, 0.1 * thr, 10.0) < 1.0

    def test_monte_carlo_within_bound(self):
        rs = RandomState(55)
        for N, r in [(16, 0.05), (64, 0.02)]:
            est = p2_monte_carlo(N, 1.0, r, 1.0, 20000, rs.child("cell:%d" % N))
            bound = p2_bound(N, 1.0, r, 1.0)
            se = math.sqrt(max(est * (1 - est), 1e-9) / 20000)
            assert est <= bound + 3 * se

    def test_monte_carlo_deterministic(self, monkeypatch):
        a = p2_monte_carlo(32, 1.0, 0.05, 1.0, 5000, RandomState(3))
        for chunk in (700, 7, 5001):
            monkeypatch.setattr(theory, "_P2_CHUNK", chunk)
            b = p2_monte_carlo(32, 1.0, 0.05, 1.0, 5000, RandomState(3))
            assert a == b

    @pytest.mark.parametrize("trials", [1, theory._P2_CHUNK - 1, theory._P2_CHUNK + 1])
    def test_monte_carlo_partial_last_block(self, monkeypatch, trials):
        # a last block shorter than _P2_CHUNK draws the same trials as one
        # block of them all
        a = p2_monte_carlo(32, 1.0, 0.05, 1.0, trials, RandomState(3))
        monkeypatch.setattr(theory, "_P2_CHUNK", trials)
        assert p2_monte_carlo(32, 1.0, 0.05, 1.0, trials, RandomState(3)) == a

    def test_monte_carlo_wants_integral_dimension_and_trials(self):
        # a truncated N would estimate another dimension than p2_bound's
        est = p2_monte_carlo(16, 1.0, 0.1, 1.0, 1000, RandomState(0))
        assert p2_monte_carlo(16.0, 1.0, 0.1, 1.0, 1000.0, RandomState(0)) == est
        for N, trials in ((16.5, 1000), (16, 1000.9), (16, math.inf), (16, math.nan),
                          (16, 0)):
            with pytest.raises(ValueError, match="N must|trials must"):
                p2_monte_carlo(N, 1.0, 0.1, 1.0, trials, RandomState(0))
        assert p2_bound(16.5, 1.0, 0.1, 1.0) > p2_bound(16, 1.0, 0.1, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            p2_bound(0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            p2_monte_carlo(10, 1.0, -0.1, 1.0, 100, RandomState(0))
        for bad in (math.nan, math.inf):
            for args in ((10, bad, 0.1, 1.0), (10, 1.0, bad, 1.0), (10, 1.0, 0.1, bad),
                         (bad, 1.0, 0.1, 1.0)):
                with pytest.raises(ValueError):
                    p2_bound(*args)
                with pytest.raises(ValueError):
                    p2_monte_carlo(*args, 100, RandomState(0))
