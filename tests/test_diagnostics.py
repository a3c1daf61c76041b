import tracemalloc

import numpy as np
import pytest

from homlab.corrector import build_corrector_set, extended_rows
from homlab.diagnostics import (DegenerateGramError, dyadic_radii, excess,
                                excess_decay_experiment, growth_profile,
                                harmonic_quadratic, minimal_radius,
                                regime_reference)
from homlab.elliptic import SolveOptions
from homlab.ensemble import fit_power_law
from homlab.lattice import (Ball, GridSpec, _offsets, ball_average,
                            ball_mask, ball_mean_field, grad)
from homlab.randomfield import (CoefficientModel, CovarianceSpec, SeedSpec,
                                constant_coefficients, sample_gaussian,
                                to_coefficients)

GRID = GridSpec(2, 64)
OPTS = SolveOptions(tol=1e-11)


def _corr(seed=0, grid=GRID):
    spec = CovarianceSpec(2.5, 0.0)
    g = sample_gaussian(spec, grid, SeedSpec(seed, 0))
    a = to_coefficients(g, CoefficientModel(0.25, 0.0), None, grid)
    return a, build_corrector_set(a, OPTS)


def _growth_by_ball_means(corr, radii):
    """Reference growth profile in real space: for each component c the
    torus mean of K_R * c^2 - (K_R * c)^2, by two ball-mean convolutions."""
    comps = list(extended_rows(corr))
    vals = []
    for r in radii:
        total = 0.0
        for comp in comps:
            m1 = ball_mean_field(comp, r, corr.a.grid)
            m2 = ball_mean_field(comp**2, r, corr.a.grid)
            total += float(np.mean(m2 - m1**2))
        vals.append(total)
    return np.array(vals)


def _excess_reference(grad_u, corr, ball):
    """(b, gram, excess) by one ``ball_average`` over the torus per entry:
    the reference for ``excess``, which masks the ball once."""
    grid = corr.a.grid
    d = grid.d
    gram, b = np.zeros((d, d)), np.zeros(d)
    basis = [grad(corr.phi[i]) for i in range(d)]
    for i in range(d):
        basis[i][i] += 1.0
    for i in range(d):
        b[i] = ball_average(np.einsum("j...,j...->...", grad_u, basis[i]),
                            ball, grid)
        for j in range(i, d):
            gram[i, j] = gram[j, i] = ball_average(
                np.einsum("k...,k...->...", basis[i], basis[j]), ball, grid)
    xi = np.linalg.solve(gram, b)
    exc = ball_average(np.einsum("j...,j...->...", grad_u, grad_u), ball,
                       grid) - float(xi @ b)
    return b, gram, max(exc, 0.0)


def _minimal_radius_values(corr, center):
    """One ``ball_mask`` per radius: the reference for ``minimal_radius``,
    which streams the rows through all radii; here the rows' variances are
    summed per radius, in order, one row at a time."""
    comps = list(extended_rows(corr))
    vals = []
    for r in dyadic_radii(corr.a.grid):
        mask = ball_mask(corr.a.grid, Ball(center, r))
        total = 0.0
        for comp in comps:
            inside = comp[mask]
            total += np.mean(inside**2) - np.mean(inside)**2
        vals.append(float(total) / r**2)
    return np.array(vals)


def _corr3d(seed=0):
    grid = GridSpec(3, 16)
    g = sample_gaussian(CovarianceSpec(3.5, 0.0), grid, SeedSpec(seed, 0))
    a = to_coefficients(g, CoefficientModel(0.25, 0.0), None, grid)
    return a, build_corrector_set(a, OPTS)


class TestBallMaskedOnce:
    """``excess`` and ``minimal_radius`` against today's formulas over the
    torus, compared with ==."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_excess_matches_ball_averages(self, d):
        a, corr = _corr(5) if d == 2 else _corr3d(5)
        grid = a.grid
        rng = np.random.default_rng(5)
        gu = rng.standard_normal((d,) + grid.shape)
        for center, r in (((0.0,) * d, 4.0), ((3.5,) + (-2.0,) * (d - 1),
                                                 grid.n / 4)):
            ball = Ball(center, r)
            rep = excess(gu, corr, ball)
            b, gram, exc = _excess_reference(gu, corr, ball)
            assert np.array_equal(rep.gram, gram)
            assert np.array_equal(rep.xi, np.linalg.solve(gram, b))
            assert rep.excess == exc

    @pytest.mark.parametrize("d", [2, 3])
    def test_minimal_radius_matches_ball_masks(self, d):
        a, corr = _corr(6) if d == 2 else _corr3d(6)
        for center in ((0.0,) * d, (5.5,) + (-3.0,) * (d - 1)):
            rep = minimal_radius(corr, center)
            assert np.array_equal(rep.values,
                                  _minimal_radius_values(corr, center))

    def test_excess_validates_ball(self):
        a, corr = _corr(5)
        gu = np.zeros((2,) + GRID.shape)
        with pytest.raises(ValueError, match="L/4"):
            excess(gu, corr, Ball((0.0, 0.0), 17.0))


def test_dyadic_radii():
    r = dyadic_radii(GRID)
    assert list(r) == [1.0, 2.0, 4.0, 8.0]


@pytest.mark.parametrize("lo", [0.0, -1.0, np.nan])
def test_dyadic_radii_rejects_nonpositive_lo(lo):
    # doubling a radius <= 0 never passes L/8: the list would grow forever
    with pytest.raises(ValueError, match="positive"):
        dyadic_radii(GRID, lo=lo)


class TestExcess:
    def test_corrected_affine_has_zero_excess(self):
        a, corr = _corr(1)
        xi = np.array([0.7, -0.4])
        gp = np.stack([grad(corr.phi[i]) for i in range(2)])
        gu = np.einsum("i,ij...->j...", xi, gp)
        gu += xi.reshape(2, 1, 1)
        rep = excess(gu, corr, Ball((0.0, 0.0), 8.0))
        assert rep.excess < 1e-12
        assert np.allclose(rep.xi, xi, atol=1e-6)

    def test_nonnegative(self):
        a, corr = _corr(2)
        gu = np.random.default_rng(0).standard_normal((2,) + GRID.shape)
        rep = excess(gu, corr, Ball((0.0, 0.0), 6.0))
        assert rep.excess >= 0.0

    def test_degenerate_gram(self):
        a, corr = _corr(3)
        # phi_1 = phi_0 + x_0 - x_1 makes basis_1 = grad phi_1 + e_1
        # coincide with basis_0 off the periodic seam, outside the ball
        x0, x1 = np.ix_(_offsets(GRID.n, 0.0), _offsets(GRID.n, 0.0))
        corr.phi[1] = corr.phi[0] + x0 - x1
        gu = np.zeros((2,) + GRID.shape)
        with pytest.raises(DegenerateGramError):
            excess(gu, corr, Ball((0.0, 0.0), 4.0))


class TestMinimalRadius:
    def test_constant_coefficients_smallest(self):
        a = constant_coefficients(GRID)
        corr = build_corrector_set(a, OPTS)
        rep = minimal_radius(corr)
        assert rep.r_star(1.0 / 16.0) == 1.0

    def test_sentinel_for_tiny_delta(self):
        a, corr = _corr(4)
        rep = minimal_radius(corr)
        assert np.isinf(rep.r_star(1e-12))

    def test_monotone_in_delta(self):
        a, corr = _corr(4)
        r_small = minimal_radius(corr).r_star(1.0 / 64.0)
        r_big = minimal_radius(corr).r_star(1.0)
        assert r_big <= r_small

    def test_delta_validation(self):
        a, corr = _corr(4)
        with pytest.raises(ValueError):
            minimal_radius(corr).r_star(0.0)

    def test_nan_delta_rejected(self):
        # nan fails every comparison: unchecked, it gives the inf sentinel
        a, corr = _corr(4)
        with pytest.raises(ValueError, match="positive"):
            minimal_radius(corr).r_star(np.nan)

    def test_infinite_delta_rejected(self):
        # every radius passes an infinite threshold: unchecked, r_* reads 1
        a, corr = _corr(4)
        with pytest.raises(ValueError, match="finite"):
            minimal_radius(corr).r_star(np.inf)

    @pytest.mark.parametrize("center", [(np.nan, 0.0), (np.inf, 0.0)])
    def test_non_finite_center_rejected(self, center):
        # unchecked, it gives the inf sentinel: "no admissible scale"
        a, corr = _corr(4)
        with pytest.raises(ValueError, match="not finite"):
            minimal_radius(corr, center)

    def test_rows_are_streamed_not_stacked(self):
        # the rows of (phi, sigma) are made and read one at a time; a
        # stored q and sigma with their stacked components put the traced
        # peak of one 3D n=32 call near 21 grid fields
        grid = GridSpec(3, 32)
        g = sample_gaussian(CovarianceSpec(3.5, 0.0), grid, SeedSpec(8, 0))
        a = to_coefficients(g, CoefficientModel(0.25, 0.0), None, grid)
        corr = build_corrector_set(a, OPTS)
        minimal_radius(corr)  # caches its multiplier untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            minimal_radius(corr)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 32**3 * 8


class TestHarmonicQuadratic:
    def test_trace_free_and_harmonic_for_identity(self):
        rng = np.random.default_rng(1)
        u = harmonic_quadratic(np.eye(2), GRID, (0.0, 0.0), rng)
        # discrete laplacian vanishes away from the periodic seam
        lap = sum(np.roll(u, -1, axis=j) - 2 * u + np.roll(u, 1, axis=j)
                  for j in range(2))
        interior = lap[2:30, 2:30]
        assert np.max(np.abs(interior)) < 1e-9

    def test_unit_normalization(self):
        rng = np.random.default_rng(2)
        a_hom = np.array([[0.6, 0.1], [0.1, 0.5]])
        u = harmonic_quadratic(a_hom, GRID, (0.0, 0.0), rng)
        assert np.isfinite(u).all()
        assert abs(u[0, 0]) < GRID.n**2  # bounded quadratic


class TestDecayExperiment:
    def test_constant_coefficient_quadratic_law(self):
        grid = GridSpec(2, 64)
        a = constant_coefficients(grid)
        corr = build_corrector_set(a, OPTS)
        rng = np.random.default_rng(3)
        rows = excess_decay_experiment(
            corr, R=16.0, r_list=[2.0, 4.0, 8.0], rng=rng, opts=OPTS)
        assert isinstance(rows, list)
        assert [row.radius for row in rows] == [2.0, 4.0, 8.0]
        slope = fit_power_law([(row.radius, row.excess)
                               for row in rows]).slope
        assert 1.8 < slope < 2.2


class TestGrowth:
    def test_regime_reference(self):
        r = np.array([2.0, 4.0, 8.0])
        ref, name = regime_reference(3, 0.0, r)
        assert name == "bounded" and np.allclose(ref, 1.0)
        ref, name = regime_reference(2, 0.0, r)
        assert name == "critical"
        ref, name = regime_reference(3, 0.6, r)
        assert name == "growing" and ref[-1] > ref[0]

    def test_profile_monotone(self):
        a, corr = _corr(6)
        radii = [2.0, 4.0, 8.0]
        values = growth_profile(corr, radii)
        assert regime_reference(corr.a.grid.d, 0.0, radii)[1] == "critical"
        assert np.all(np.diff(values) > 0.0)  # variance grows with R

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 32)])
    def test_matches_ball_mean_reference(self, d, n):
        grid = GridSpec(d, n)
        spec = CovarianceSpec(2.5 if d == 2 else 3.5, 0.0)
        g = sample_gaussian(spec, grid, SeedSpec(7, 0))
        a = to_coefficients(g, CoefficientModel(0.25, 0.0), None, grid)
        corr = build_corrector_set(a, OPTS)
        radii = [1.0, 2.0, n / 8]
        comps = list(extended_rows(corr))
        got = growth_profile(corr, radii)
        want = _growth_by_ball_means(corr, radii)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        # a single-cell ball has no variance
        total = sum(float(np.mean(c**2)) for c in comps)
        single = growth_profile(corr, [0.5])[0]
        assert abs(single) <= 1e-12 * total

    def test_radius_cap(self):
        a, corr = _corr(6)
        with pytest.raises(ValueError):
            growth_profile(corr, [32.0])

    @pytest.mark.parametrize("radius", [np.nan, -2.0, 0.25])
    def test_nan_or_small_radius_rejected(self, radius):
        # unchecked, -2 is read as a radius of 2, against a -inf reference
        a, corr = _corr(6)
        with pytest.raises(ValueError, match="L/8"):
            growth_profile(corr, [2.0, radius])
