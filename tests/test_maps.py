"""Map catalog: evaluation conventions, codomains, and certified spectra."""

import math

import numpy as np
import pytest

from uemb.maps import (
    KMAX_CAP,
    SpectrumToleranceError,
    make_fourier_mixture,
    make_multibit,
    make_sawtooth,
    make_square_wave,
    quantize_map,
)

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
        sp = make_square_wave().power_coeffs(2e-6)
        assert sp.k[0] == 0 and sp.power[0] == pytest.approx(0.25)
        assert sp.k[1] == 1 and sp.power[1] == pytest.approx(2.0 / math.pi ** 2)
        assert 2 not in set(sp.k.tolist())
        # total AC power 1/4 within 1e-8 (plus certified tail)
        assert sp.ac_power + sp.tail_bound == pytest.approx(0.25, abs=1e-8)

    def test_total_power(self):
        sp = make_square_wave().power_coeffs(2e-6)
        assert sp.total_power == pytest.approx(0.5)


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
        sp = make_sawtooth().power_coeffs(2e-6)
        assert sp.k[0] == 1
        assert sp.power[0] == pytest.approx(1.0 / math.pi ** 2)
        assert sp.power[4] == pytest.approx(1.0 / (5 * math.pi) ** 2)
        # asymptote constant of the distance map: 2 sum P_k = 1/3
        assert 2 * (sp.ac_power + sp.tail_bound) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_parseval_value(self):
        sp = make_sawtooth().power_coeffs(2e-6)
        assert sp.total_power == pytest.approx(1.0 / 6.0)


class TestMixture:
    def test_fig3_power(self):
        mix = make_fourier_mixture(FIG3_TERMS)
        assert oracle_power(mix) == pytest.approx(0.5, abs=1e-10)

    def test_spectrum_support_equals_frequencies(self):
        mix = make_fourier_mixture([(3, 0.5), (7, 1.25)])
        sp = mix.power_coeffs(1e-9)
        assert sp.k.tolist() == [3, 7]
        assert sp.power[0] == pytest.approx(0.5 ** 2 / 2)
        assert sp.power[1] == pytest.approx(1.25 ** 2 / 2)
        assert sp.tail_bound == 0.0

    def test_single_tone(self):
        sp = make_fourier_mixture([(1, 1.0)]).power_coeffs(1e-9)
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


class TestSpectra:
    def test_parseval_across_catalog(self):
        for name, m, tol in catalog():
            sp = m.power_coeffs(tol)
            power = oracle_power(m)
            err = abs(float(np.sum(sp.power)) + sp.tail_bound - power)
            assert err <= 2 * tol, (name, err)

    def test_spectrum_invariants(self):
        for name, m, tol in catalog():
            sp = m.power_coeffs(tol)
            assert np.all(sp.power >= 0), name
            assert np.all(np.diff(sp.k) > 0), name
            assert sp.tail_bound >= 0, name

    def test_square_kmax_from_tail(self):
        # tail of sum over odd k of 2/(pi k)^2 is ~ 1/(pi^2 kmax)
        sp = make_square_wave().power_coeffs(1e-5)
        kmax = int(sp.k[-1])
        assert 0.25 - sp.ac_power <= 1e-5
        assert kmax <= math.ceil(1.0 / (math.pi ** 2 * 1e-5)) + 2

    def test_tolerance_unreachable_raises(self):
        with pytest.raises(SpectrumToleranceError):
            make_sawtooth().power_coeffs(1e-12)
        assert KMAX_CAP == 2 ** 16

    def test_power_coeffs_read_the_series(self):
        # the certified spectrum is the closed-form series, bit for bit
        for m in (make_square_wave(), make_sawtooth()):
            series = m.series
            for tol in (1e-3, 2e-6):
                sp = m.power_coeffs(tol)
                ac = sp.k >= 1
                ks, powers = series.powers(1, int(sp.k[-1]))
                np.testing.assert_array_equal(sp.k[ac], ks)
                np.testing.assert_array_equal(sp.power[ac], powers)
                assert sp.dc_power == series.dc
                assert sp.total_power == series.dc + series.ac_total
        assert make_multibit(2).series is None
        assert make_fourier_mixture(FIG3_TERMS).series is None

    def test_caching(self):
        m = make_square_wave()
        assert m.power_coeffs(1e-5) is m.power_coeffs(1e-5)

    def test_power_spectrum_validation(self):
        from uemb.maps import PowerSpectrum

        with pytest.raises(ValueError):
            PowerSpectrum(np.array([1]), np.array([-0.1]), 0.0, 1.0)
        with pytest.raises(ValueError):
            PowerSpectrum(np.array([2, 1]), np.array([0.1, 0.1]), 0.0, 1.0)
        with pytest.raises(ValueError):
            PowerSpectrum(np.array([1]), np.array([0.1]), -1e-9, 1.0)
