import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.lattice import (Ball, GridSpec, ball_average, ball_mask,
                            ball_mean_field, bgrad, box_mollify, div, grad,
                            laplacian_symbol, load_field, periodic_dist_sq,
                            poisson_solve, save_field, spectral_solve)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(2, 64)
        assert g.shape == (64, 64)
        assert g.length == 64.0

    @pytest.mark.parametrize("d,n", [(1, 64), (4, 64), (2, 4), (2, 15)])
    def test_invalid(self, d, n):
        with pytest.raises(ValueError):
            GridSpec(d, n)

    def test_non_power_of_two_even_ok(self):
        assert GridSpec(3, 96).shape == (96, 96, 96)


class TestCalculus:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]))
    def test_grad_div_adjoint(self, seed, d):
        rng = _rng(seed)
        n = 8
        u = rng.standard_normal((n,) * d)
        f = rng.standard_normal((d,) + (n,) * d)
        lhs = float(np.sum(grad(u) * f))
        rhs = -float(np.sum(u * div(f)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_grad_of_constant_zero(self):
        assert np.all(grad(np.full((8, 8), 3.7)) == 0.0)

    def test_bgrad_is_shifted_grad(self):
        u = _rng(1).standard_normal((8, 8))
        g = grad(u)
        b = bgrad(u)
        for j in range(2):
            assert np.allclose(b[j], np.roll(g[j], 1, axis=j))

    def test_div_grad_is_laplacian_symbol(self):
        n = 16
        u = _rng(2).standard_normal((n, n))
        lap = -div(grad(u))
        sym = laplacian_symbol((n, n), rfft=True)
        lap_hat = np.fft.rfftn(u) * sym
        assert np.allclose(lap, np.fft.irfftn(lap_hat, s=(n, n), axes=(0, 1)), atol=1e-10)


class TestPoisson:
    def test_solves_and_zero_mean(self):
        rng = _rng(3)
        rhs = rng.standard_normal((32, 32))
        rhs -= rhs.mean()
        u = poisson_solve(rhs)
        assert abs(u.mean()) < 1e-12
        assert np.allclose(-div(grad(u)), rhs, atol=1e-10)

    def test_mean_projected(self):
        rhs = np.ones((16, 16))
        assert np.allclose(poisson_solve(rhs), 0.0, atol=1e-12)


class TestSpectralSolve:
    @pytest.mark.parametrize("shape", [(3, 16, 16), (2, 8, 8, 8)])
    def test_stacked_equals_per_component(self, shape):
        rhs = _rng(4).standard_normal(shape)
        sym = laplacian_symbol(shape[1:], rfft=True)
        got = spectral_solve(rhs, sym)
        assert np.array_equal(got, np.stack([spectral_solve(r, sym)
                                             for r in rhs]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_symbol_projects_mean(self, d):
        rhs = _rng(5).standard_normal((16,) * d) + 0.7
        u = spectral_solve(rhs, laplacian_symbol(rhs.shape, rfft=True))
        assert abs(u.mean()) < 1e-12
        assert np.max(np.abs(-div(grad(u)) - (rhs - rhs.mean()))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_massive_symbol(self, d):
        inv_t = 1.0 / 8.0
        rhs = _rng(6).standard_normal((16,) * d) + 0.7
        u = spectral_solve(rhs, inv_t + laplacian_symbol(rhs.shape,
                                                         rfft=True))
        assert np.max(np.abs(inv_t * u - div(grad(u)) - rhs)) < 1e-12


class TestBalls:
    def test_mask_counts(self):
        g = GridSpec(2, 32)
        mask = ball_mask(g, Ball((0.0, 0.0), 5.0))
        # area of the discrete disk is close to pi r^2
        assert abs(mask.sum() - np.pi * 25) < 12

    def test_radius_cap(self):
        g = GridSpec(2, 32)
        with pytest.raises(ValueError):
            ball_mask(g, Ball((0.0, 0.0), 9.0))

    def test_average_matches_mask(self):
        g = GridSpec(2, 32)
        u = _rng(4).standard_normal(g.shape)
        b = Ball((3.0, -2.0), 4.5)
        assert np.isclose(ball_average(u, b, g), u[ball_mask(g, b)].mean())

    def test_average_componentwise(self):
        g = GridSpec(2, 16)
        u = _rng(5).standard_normal((2,) + g.shape)
        b = Ball((0.0, 0.0), 3.0)
        out = ball_average(u, b, g)
        assert out.shape == (2,)
        assert np.isclose(out[1], ball_average(u[1], b, g))

    def test_average_dimension_from_ball(self):
        # a 2D field with one leading axis, no grid: d comes from the ball
        u = np.zeros((2, 64, 64))
        u[1] = 1.0
        out = ball_average(u, Ball((0, 0), 4))
        assert np.array_equal(out, [0.0, 1.0])

    def test_average_rejects_off_grid_shape(self):
        with pytest.raises(ValueError):
            ball_average(np.zeros((2, 64, 32)), Ball((0, 0), 4))

    def test_mollify_resolves_trailing_grid_axes(self):
        g = GridSpec(2, 16)
        u = _rng(8).standard_normal((3,) + g.shape)
        assert np.array_equal(box_mollify(u, 2.0), box_mollify(u, 2.0, g))

    @pytest.mark.parametrize("shape", [(64,), (2, 16), (8, 16),
                                       (16, 16, 16, 16)])
    def test_mollify_unresolvable_shape(self, shape):
        with pytest.raises(ValueError):
            box_mollify(np.zeros(shape), 2.0)

    def test_mean_field_matches_center_average(self):
        g = GridSpec(2, 32)
        u = _rng(6).standard_normal(g.shape)
        mf = ball_mean_field(u, 4.0, g)
        for c in [(0, 0), (5, 11), (31, 16)]:
            want = ball_average(u, Ball((float(c[0]), float(c[1])), 4.0), g)
            assert np.isclose(mf[c], want)

    def test_mollify_small_scale_identity(self):
        g = GridSpec(2, 16)
        u = _rng(7).standard_normal(g.shape)
        assert np.array_equal(box_mollify(u, 0.3, g), u)

    def test_periodic_distance_wraps(self):
        g = GridSpec(2, 16)
        d2 = periodic_dist_sq(g, (0.0, 0.0))
        assert d2[15, 0] == 1.0
        assert d2[8, 0] == 64.0


class TestIO:
    def test_roundtrip_scalar(self, tmp_path):
        u = _rng(8).standard_normal((16, 16))
        p = tmp_path / "u.bin"
        save_field(p, u, 2)
        assert np.array_equal(load_field(p), u)

    def test_roundtrip_tensor(self, tmp_path):
        u = _rng(9).standard_normal((2, 2, 8, 8, 8))
        p = tmp_path / "a.bin"
        save_field(p, u, 3)
        assert np.array_equal(load_field(p).reshape(u.shape), u)

    def test_corrupt_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        save_field(p, _rng(10).standard_normal((8, 8)), 2)
        with open(p, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            load_field(p)
