"""Deterministic sampling streams and projected-distance statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import ks_2samp

from uemb.embedder import build_operator
from uemb.maps import make_square_wave
from uemb.randproj import (
    _BAD_DISTANCE,
    _HALF_CELL,
    ProjectionSpec,
    RandomState,
    char_fn,
    projected_diff_samples,
    sample_dither,
    sample_projection,
)


_SPEC = ProjectionSpec("gaussian", 0.5)

# each entry point that takes a count, called with the count n
COUNT_ENTRIES = {
    "sample_projection-M": lambda n: sample_projection(_SPEC, n, 3, RandomState(1)),
    "sample_projection-N": lambda n: sample_projection(_SPEC, 3, n, RandomState(1)),
    "sample_dither": lambda n: sample_dither(n, RandomState(1)),
    "projected_diff_samples": lambda n: projected_diff_samples(_SPEC, 0.5, n, RandomState(1)),
    "build_operator-M": lambda n: build_operator(_SPEC, make_square_wave(), n, 3, RandomState(1)),
    "build_operator-N": lambda n: build_operator(_SPEC, make_square_wave(), 3, n, RandomState(1)),
}


class TestRandomState:
    def test_same_state_reproduces(self):
        rs = RandomState(123)
        a = rs.uniform("matrix", 1000)
        b = RandomState(123).uniform("matrix", 1000)
        np.testing.assert_array_equal(a, b)

    def test_index_addressing(self):
        # draws are addressed by (seed, stream, index): any partition of the
        # index range reproduces the serial sequence
        rs = RandomState(9)
        whole = rs.uniform("montecarlo", 1000)
        for start, n in [(0, 10), (7, 100), (123, 877), (999, 1)]:
            np.testing.assert_array_equal(
                rs.uniform("montecarlo", n, start=start), whole[start:start + n]
            )
        gw = rs.gaussian("montecarlo", 1000)
        np.testing.assert_array_equal(rs.gaussian("montecarlo", 500, start=300),
                                      gw[300:800])
        cw = rs.cauchy("montecarlo", 256)
        np.testing.assert_array_equal(rs.cauchy("montecarlo", 56, start=200),
                                      cw[200:256])

    def test_stream_separation(self):
        rs = RandomState(5)
        assert not np.array_equal(rs.uniform("matrix", 64), rs.uniform("dither", 64))

    def test_child_derivation(self):
        rs = RandomState(5)
        assert rs.child("a").seed == RandomState(5).child("a").seed
        assert rs.child("a").seed != rs.child("b").seed

    def test_gaussian_values_finite(self):
        z = RandomState(1).gaussian("matrix", 10 ** 5)
        assert np.all(np.isfinite(z))


class TestSampling:
    def test_gaussian_matrix_moments(self):
        # law-of-large-numbers check at sigma = 1, M = N = 1000
        spec = ProjectionSpec("gaussian", 1.0)
        A = sample_projection(spec, 1000, 1000, RandomState(17))
        assert abs(A.mean()) < 4.0 / math.sqrt(A.size)
        assert abs(A.var() - 1.0) < 0.05

    def test_cauchy_median(self):
        # median of |Cauchy(gamma)| equals gamma
        spec = ProjectionSpec("cauchy", 1.0)
        A = sample_projection(spec, 500, 500, RandomState(3))
        assert abs(np.median(np.abs(A)) - 1.0) < 0.05

    def test_matrix_determinism(self):
        spec = ProjectionSpec("gaussian", 0.7)
        A = sample_projection(spec, 50, 40, RandomState(11))
        B = sample_projection(spec, 50, 40, RandomState(11))
        np.testing.assert_array_equal(A, B)

    def test_memory_cap(self):
        spec = ProjectionSpec("gaussian", 1.0)
        with pytest.raises(MemoryError):
            sample_projection(spec, 2 ** 20, 2 ** 20, RandomState(0))

    def test_dither_support_and_mean(self):
        w = sample_dither(10 ** 5, RandomState(23))
        assert np.all((w >= 0) & (w < 1))
        assert abs(w.mean() - 0.5) < 0.005

    def test_bad_dimensions(self):
        spec = ProjectionSpec("gaussian", 1.0)
        with pytest.raises(ValueError):
            sample_projection(spec, 0, 5, RandomState(0))
        with pytest.raises(ValueError):
            sample_dither(0, RandomState(0))

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, 0, -1])
    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
    def test_counts_must_be_integers(self, entry, bad):
        # one check for every count: a fraction once truncated silently
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            COUNT_ENTRIES[entry](bad)

    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
    def test_integral_float_count_accepted(self, entry):
        a, b = COUNT_ENTRIES[entry](4.0), COUNT_ENTRIES[entry](4)
        if entry.startswith("build_operator"):
            assert (a.M, a.N, a.operator_id) == (b.M, b.N, b.operator_id)
            assert type(a.M) is int and type(a.N) is int
            a, b = a.A, b.A
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestProjectionSpec:
    def test_metric_derivation(self):
        assert ProjectionSpec("gaussian", 1.0).signal_metric == "l2"
        assert ProjectionSpec("cauchy", 1.0).signal_metric == "l1"

    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectionSpec("laplace", 1.0)
        with pytest.raises(ValueError):
            ProjectionSpec("gaussian", 0.0)


class TestInPlaceSampling:
    def test_draws_equal_reference_formulas(self):
        # the out-of-place formulas the in-place transforms must reproduce
        rs = RandomState(1512)
        for start in range(6):
            u = rs.uniform("matrix", 1001, start)
            np.testing.assert_array_equal(
                rs.gaussian("matrix", 1001, start).view(np.uint64),
                ndtri(u + _HALF_CELL).view(np.uint64))
            np.testing.assert_array_equal(
                rs.cauchy("matrix", 1001, start).view(np.uint64),
                np.tan(np.pi * (u + _HALF_CELL - 0.5)).view(np.uint64))

    def test_scaled_samples_equal_reference_formulas(self):
        rs = RandomState(7)
        for family in ("gaussian", "cauchy"):
            spec = ProjectionSpec(family, 0.37)
            draw = rs.gaussian if family == "gaussian" else rs.cauchy
            np.testing.assert_array_equal(
                sample_projection(spec, 31, 17, rs).view(np.uint64),
                (spec.scale * draw("matrix", 31 * 17)).reshape(31, 17).view(np.uint64))
            np.testing.assert_array_equal(
                projected_diff_samples(spec, 0.9, 513, rs, start=3).view(np.uint64),
                ((spec.scale * 0.9) * draw("montecarlo", 513, 3)).view(np.uint64))

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_projection_allocates_one_matrix(self, family):
        M, N = 1000, 500
        tracemalloc.start()
        try:
            sample_projection(ProjectionSpec(family, 0.3), M, N, RandomState(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * M * N * 8


class TestCharFn:
    def test_unit_at_zero_distance(self):
        for family in ("gaussian", "cauchy"):
            spec = ProjectionSpec(family, 1.7)
            for xi in (0.0, 1.0, -3.3, 100.0):
                assert char_fn(spec, xi, 0.0) == 1.0

    def test_unit_at_zero_frequency(self):
        for family in ("gaussian", "cauchy"):
            spec = ProjectionSpec(family, 0.3)
            for d in (0.0, 0.5, 7.0):
                assert char_fn(spec, 0.0, d) == 1.0

    def test_gaussian_closed_form(self):
        spec = ProjectionSpec("gaussian", 1.0)
        assert char_fn(spec, 1.0, 1.0) == pytest.approx(math.exp(-0.5))

    def test_cauchy_closed_form(self):
        spec = ProjectionSpec("cauchy", 1.0)
        assert char_fn(spec, math.pi, 2.0) == pytest.approx(math.exp(-2 * math.pi))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            char_fn(ProjectionSpec("gaussian", 1.0), 1.0, -0.1)

    def test_nonfinite_distance_rejected(self):
        spec = ProjectionSpec("gaussian", 1.0)
        for d in (math.nan, math.inf, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=_BAD_DISTANCE):
                char_fn(spec, 1.0, d)

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_array_of_distances_matches_scalar_calls(self, family):
        spec = ProjectionSpec(family, 0.9)
        ds = np.linspace(0, 5, 2001)
        for xi in (2.0, 2 * math.pi * 3):
            assert char_fn(spec, xi, [0.5, 1.0]).tolist() == [
                char_fn(spec, xi, 0.5), char_fn(spec, xi, 1.0)]
            np.testing.assert_array_equal(
                char_fn(spec, xi, ds).view(np.uint64),
                np.array([char_fn(spec, xi, d) for d in ds]).view(np.uint64))
        # a scalar xi squares as a one-entry array does, at a d where pow
        # and x * x round the square apart
        d = float.fromhex("0x1.1451eb851eb85p+2")
        assert char_fn(spec, 2.0, d) == char_fn(spec, np.array([2.0]), d)[0]
        # an array xi broadcasts against an array d
        xi = np.array([1.0, 2.0, 3.0])
        assert char_fn(spec, xi, [[0.5], [1.0]]).shape == (2, 3)

    def test_nonincreasing_in_distance(self):
        ds = np.linspace(0, 5, 64)
        for family in ("gaussian", "cauchy"):
            spec = ProjectionSpec(family, 0.9)
            for xi in (0.5, 2.0, 11.0):
                vals = np.array([char_fn(spec, xi, d) for d in ds])
                assert np.all(np.diff(vals) <= 1e-15)

    def test_monte_carlo_cross_check(self):
        rs = RandomState(31)
        spec = ProjectionSpec("gaussian", 1.0)
        l = projected_diff_samples(spec, 1.0, 10 ** 6, rs)
        assert abs(np.mean(np.cos(l)) - math.exp(-0.5)) < 0.003
        spec_c = ProjectionSpec("cauchy", 1.0)
        lc = projected_diff_samples(spec_c, 1.0, 10 ** 6, RandomState(32))
        assert abs(np.mean(np.cos(2 * math.pi * lc)) - math.exp(-2 * math.pi)) < 0.01


class TestProjectedDiff:
    def test_zero_distance(self):
        spec = ProjectionSpec("gaussian", 1.0)
        assert np.all(projected_diff_samples(spec, 0.0, 100, RandomState(0)) == 0.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            projected_diff_samples(ProjectionSpec("gaussian", 1.0), -1.0, 10, RandomState(0))

    def test_nonfinite_distance_rejected(self):
        for family in ("gaussian", "cauchy"):
            for d in (math.nan, math.inf):
                with pytest.raises(ValueError, match=_BAD_DISTANCE):
                    projected_diff_samples(ProjectionSpec(family, 1.0), d, 10, RandomState(0))


class TestMetricInvariance:
    def test_gaussian_depends_on_l2_only(self):
        # equal-l2, different-direction pairs: projected distances share a
        # distribution, so distance-map estimates agree within 3 MC SEs
        rng = np.random.default_rng(0)
        N, M = 64, 20000
        u1 = rng.standard_normal(N)
        u1 /= np.linalg.norm(u1)
        u2 = np.zeros(N)
        u2[0] = 1.0
        spec = ProjectionSpec("gaussian", 0.8)
        A = sample_projection(spec, M, N, RandomState(77))
        l1 = A @ (1.3 * u1)
        l2 = A @ (1.3 * u2)
        m1, m2 = np.mean(np.cos(l1)), np.mean(np.cos(l2))
        se = math.sqrt((np.var(np.cos(l1)) + np.var(np.cos(l2))) / M)
        assert abs(m1 - m2) <= 3 * se

    def test_cauchy_depends_on_l1_only(self):
        # equal-l1 / different-l2 pairs are statistically indistinguishable
        rng = np.random.default_rng(4)
        N, M = 64, 10 ** 4
        v1 = np.zeros(N)
        v1[0] = 2.0  # l1 = 2, l2 = 2
        v2 = np.full(N, 2.0 / N)  # l1 = 2, l2 = 2/sqrt(N)
        spec = ProjectionSpec("cauchy", 0.5)
        A = sample_projection(spec, M, N, RandomState(78))
        stat = ks_2samp(A @ v1, A @ v2)
        assert stat.pvalue > 0.01
