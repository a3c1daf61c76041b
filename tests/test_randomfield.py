import numpy as np
import pytest

from homlab import randomfield
from homlab.ensemble import fit_power_law
from homlab.lattice import GridSpec
from homlab.randomfield import (CoefficientField, CoefficientModel,
                                CovarianceSpec, SeedSpec, beta_effective,
                                check_admissible, constant_coefficients,
                                empirical_covariance, sample_gaussian,
                                to_coefficients)

GRID = GridSpec(2, 64)
SPEC = CovarianceSpec(2.5, 0.0)


class TestSeeds:
    def test_deterministic(self):
        a = sample_gaussian(SPEC, GRID, SeedSpec(5, 3))
        b = sample_gaussian(SPEC, GRID, SeedSpec(5, 3))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        base = sample_gaussian(SPEC, GRID, SeedSpec(5, 3))
        for other in (SeedSpec(5, 4), SeedSpec(6, 3), SeedSpec(5, 3, salt=1)):
            assert not np.array_equal(base, sample_gaussian(SPEC, GRID, other))


class TestGaussian:
    @pytest.mark.parametrize("spec, grid", [
        (SPEC, GRID), (CovarianceSpec(3.5, 0.0), GridSpec(3, 16)),
        (CovarianceSpec(1.5, 0.5), GridSpec(2, 32))])
    def test_real_transform_equals_complex_formula(self, spec, grid):
        # the rfft filter with sqrt(density) on the half spectrum gives the
        # real part of the full complex filter, up to rounding
        seed = SeedSpec(8, 1)
        got = sample_gaussian(spec, grid, seed)
        white = seed.rng().standard_normal(grid.shape)
        dens = randomfield._spectral_density(spec, grid)
        want = np.real(np.fft.ifftn(np.fft.fftn(white) * np.sqrt(dens)))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        filt = randomfield._filter(spec, grid)
        assert filt is randomfield._filter(spec, grid)
        assert filt.dtype == np.float64 and not filt.flags.writeable
        assert filt.shape == grid.shape[:-1] + (grid.n // 2 + 1,)

    def test_moments(self):
        fields = [sample_gaussian(SPEC, GRID, SeedSpec(0, i))
                  for i in range(24)]
        means = [f.mean() for f in fields]
        var = np.mean([np.mean(f**2) for f in fields])
        assert abs(np.mean(means)) < 0.05
        assert abs(var - 1.0) < 0.1

    def test_long_range_covariance(self):
        # gamma < d: heavy polynomial tail; the sampled covariance must
        # match the exact discrete covariance (inverse transform of the
        # spectral density), which decays like a power on the mid-lag
        # window and far slower than the short-range profile
        from homlab.randomfield import _spectral_density

        spec = CovarianceSpec(1.3, 0.4)
        grid = GridSpec(2, 256)
        exact = np.real(np.fft.ifftn(_spectral_density(spec, grid)))
        fields = [sample_gaussian(spec, grid, SeedSpec(1, i))
                  for i in range(12)]
        lags, cov = empirical_covariance(fields, max_lag=32)
        assert np.max(np.abs(cov - exact[:33, 0])) < 0.02
        fit = fit_power_law(list(zip(lags[4:], exact[4:33, 0])))
        assert fit.r_squared > 0.98
        assert -2.0 < fit.slope < -1.0
        short = np.real(np.fft.ifftn(
            _spectral_density(CovarianceSpec(2.5, 0.0), grid)))
        assert exact[16, 0] > 5.0 * abs(short[16, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            CovarianceSpec(-1.0)
        with pytest.raises(ValueError):
            CovarianceSpec(2.5, 1.5)
        with pytest.raises(ValueError):
            # gamma too small for the requested coarseness
            sample_gaussian(CovarianceSpec(0.5, 0.0), GRID, SeedSpec(0))


class TestCoefficients:
    def test_symmetric_model(self):
        g = sample_gaussian(SPEC, GRID, SeedSpec(2, 0))
        a = to_coefficients(g, CoefficientModel(0.25, 0.0), None, GRID)
        assert a.is_symmetric()
        assert a.lam_eff == 0.25
        assert check_admissible(a)
        assert a.a[0, 0].min() >= 0.25 and a.a[0, 0].max() <= 1.0

    def test_skew_model(self):
        g1 = sample_gaussian(SPEC, GRID, SeedSpec(2, 0))
        g2 = sample_gaussian(SPEC, GRID, SeedSpec(2, 0, salt=1))
        a = to_coefficients(g1, CoefficientModel(0.25, 0.2), g2, GRID)
        assert not a.is_symmetric()
        assert check_admissible(a)
        # skew part is exactly antisymmetric
        skew = (a.a - np.swapaxes(a.a, 0, 1)) / 2
        assert np.allclose(skew[0, 1], -skew[1, 0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetry_tolerance(self, d):
        grid = GridSpec(d, 8)
        a = constant_coefficients(grid, np.full((d, d), 0.1) + 0.5 * np.eye(d))
        cell = (d - 2, d - 1) + (3,) * d
        for gap, want in ((2e-13, False), (5e-14, True)):
            b = CoefficientField(a.a.copy(), a.lam_eff, grid)
            b.a[cell] += gap
            assert b.is_symmetric() is want
            assert b.transpose().is_symmetric() is want

    def test_skew_needs_field(self):
        g = sample_gaussian(SPEC, GRID, SeedSpec(2, 0))
        with pytest.raises(ValueError):
            to_coefficients(g, CoefficientModel(0.25, 0.2), None, GRID)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CoefficientModel(0.0)
        with pytest.raises(ValueError):
            CoefficientModel(0.25, 0.5)  # above (1 - lam)/2

    def test_constant(self):
        a = constant_coefficients(GRID)
        assert np.allclose(a.a[0, 0], 1.0)
        assert np.allclose(a.a[0, 1], 0.0)
        assert a.lam_eff == 1.0

    def test_transpose(self):
        g1 = sample_gaussian(SPEC, GRID, SeedSpec(3, 0))
        g2 = sample_gaussian(SPEC, GRID, SeedSpec(3, 0, salt=1))
        a = to_coefficients(g1, CoefficientModel(0.3, 0.2), g2, GRID)
        at = a.transpose()
        assert np.array_equal(at.a[0, 1], a.a[1, 0])


def test_beta_effective():
    assert beta_effective(2.5, 2) == 0.0
    assert beta_effective(1.0, 2) == 0.5
    assert beta_effective(3.5, 3) == 0.0
    assert np.isclose(beta_effective(1.5, 3), 0.5)
