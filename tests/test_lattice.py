import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import irfftn, rfftn

from homlab.lattice import (Ball, GridSpec, _grad_at, _inverse_laplacian,
                            _pdiff, _spectral_multiply, ball_average,
                            ball_mask, ball_mean_field, div, grad,
                            laplacian_symbol, load_field, periodic_dist_sq,
                            poisson_solve, save_field)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(2, 64)
        assert g.shape == (64, 64)

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

    def test_div_grad_is_laplacian_symbol(self):
        n = 16
        u = _rng(2).standard_normal((n, n))
        lap = -div(grad(u))
        sym = laplacian_symbol((n, n))
        lap_hat = np.fft.rfftn(u) * sym
        assert np.allclose(lap, np.fft.irfftn(lap_hat, s=(n, n), axes=(0, 1)), atol=1e-10)


def _layouts(shape):
    """(name, array) pairs of one shape: C-contiguous, a strided slice, a
    transpose, and an a[i, j] block view of a cropped coefficient field."""
    rng = _rng(sum(shape))
    d = len(shape)
    strided = rng.standard_normal(tuple(2 * m + 1 for m in shape))[
        tuple(slice(1, None, 2) for _ in shape)]
    crop = tuple(slice(2, 2 + m) for m in shape)
    block = rng.standard_normal((d, d) + tuple(m + 3 for m in shape))[
        (slice(None), slice(None)) + crop][d - 1, 0]
    return [("contiguous", rng.standard_normal(shape)), ("strided", strided),
            ("transpose", np.ascontiguousarray(
                rng.standard_normal(shape[::-1])).T),
            ("block", block)]


def _roll_diff(u, axis, forward):
    return (np.roll(u, -1, axis=axis) - u if forward
            else u - np.roll(u, 1, axis=axis))


SHAPES = [(12, 10), (10, 12), (8, 6, 10), (6, 10, 8)]


class TestDifferencesMatchRoll:
    """The slice and flat differences against ``np.roll``, bit for bit, on
    non-cubic shapes and on views that are not C-contiguous."""

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_pdiff(self, shape, forward):
        for name, u in _layouts(shape):
            for axis in range(len(shape)):
                want = _roll_diff(u, axis, forward)
                assert np.array_equal(_pdiff(u, axis, forward), want), name
                for out in (np.empty(shape), np.empty(shape[::-1]).T,
                            np.empty(tuple(2 * m for m in shape))[
                                tuple(slice(None, None, 2) for _ in shape)]):
                    got = _pdiff(u, axis, forward, out)
                    assert got is out and np.array_equal(got, want), name

    @pytest.mark.parametrize("shape", SHAPES)
    def test_grad_bgrad(self, shape):
        d = len(shape)
        for name, u in _layouts(shape):
            assert np.array_equal(grad(u), np.stack(
                [_roll_diff(u, j, True) for j in range(d)])), name

    @pytest.mark.parametrize("d", [2, 3])
    def test_grad_at_cells_is_grad_on_the_mask(self, d):
        # index arrays as np.nonzero gives them, on fields with leading
        # axes: the ball's cells include ones on the periodic wrap
        grid = GridSpec(d, 16)
        mask = ball_mask(grid, Ball((0.0,) * d, 4.0))
        u = _rng(d).standard_normal((2, 3) + grid.shape)
        want = np.moveaxis(np.array([[grad(row)[:, mask] for row in rows]
                                     for rows in u]), 2, 0)
        got = _grad_at(u, np.nonzero(mask))
        assert got.shape == (d, 2, 3, int(mask.sum()))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_div(self, shape):
        d = len(shape)
        vshape = (d,) + shape
        rng = _rng(d)
        crop = tuple(slice(1, 1 + m) for m in shape)
        fields = {
            "contiguous": rng.standard_normal(vshape),
            "strided": rng.standard_normal(tuple(2 * m for m in vshape))[
                tuple(slice(None, None, 2) for _ in vshape)],
            "transpose": np.ascontiguousarray(
                rng.standard_normal(vshape[::-1])).T,
            "block": rng.standard_normal(
                (d, d) + tuple(m + 2 for m in shape))[
                    (d - 1, slice(None)) + crop],
        }
        for name, f in fields.items():
            want = _roll_diff(f[0], 0, False)
            for j in range(1, d):
                want += _roll_diff(f[j], j, False)
            assert np.array_equal(div(f), want), name


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
    """A solve is ``_spectral_multiply`` by a reciprocal symbol, as in
    ``poisson_solve`` and ``ensemble._constant_coefficient_solve``."""

    @pytest.mark.parametrize("shape", [(3, 16, 16), (2, 8, 8, 8)])
    def test_stacked_equals_per_component(self, shape):
        rhs = _rng(4).standard_normal(shape)
        mult = _inverse_laplacian(shape[1:])
        got = _spectral_multiply(rhs, mult)
        assert np.array_equal(got, np.stack([_spectral_multiply(r, mult)
                                             for r in rhs]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_symbol_projects_mean(self, d):
        rhs = _rng(5).standard_normal((16,) * d) + 0.7
        u = _spectral_multiply(rhs, _inverse_laplacian(rhs.shape))
        assert abs(u.mean()) < 1e-12
        assert np.max(np.abs(-div(grad(u)) - (rhs - rhs.mean()))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_massive_symbol(self, d):
        inv_t = 1.0 / 8.0
        rhs = _rng(6).standard_normal((16,) * d) + 0.7
        u = _spectral_multiply(
            rhs, 1.0 / (inv_t + laplacian_symbol(rhs.shape)))
        assert np.max(np.abs(inv_t * u - div(grad(u)) - rhs)) < 1e-12


class TestSpectralMultiply:
    @pytest.mark.parametrize("shape, grid_ndim", [
        ((64, 64), 2), ((24, 24, 24), 3), ((3, 32, 32), 2),
        ((2, 3, 16, 16, 16), 3), ((8, 8), 2)])
    def test_equals_irfftn_bit_for_bit(self, shape, grid_ndim):
        # the inverse in two steps, the first in place, is irfftn's own
        rng = _rng(7)
        rhs = rng.standard_normal(shape)
        half = shape[-grid_ndim:-1] + (shape[-1] // 2 + 1,)
        axes = tuple(range(-grid_ndim, 0))
        re, im = rng.standard_normal((2,) + half)
        for mult in (re, re + 1j * im):
            want = irfftn(rfftn(rhs, axes=axes) * mult,
                          s=shape[-grid_ndim:], axes=axes)
            assert np.array_equal(_spectral_multiply(rhs, mult), want)


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

    @pytest.mark.parametrize("radius", [np.nan, 0.25])
    def test_nan_or_empty_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="outside"):
            Ball((0.0, 0.0), radius).validate(GridSpec(2, 32))

    @pytest.mark.parametrize("center", [(np.nan, 0.0), (np.inf, 0.0),
                                        (0.0, -np.inf)])
    def test_non_finite_center_rejected(self, center):
        # unchecked, a nan center selects no cell at all
        with pytest.raises(ValueError, match="not finite"):
            ball_mask(GridSpec(2, 32), Ball(center, 2.0))

    def test_average_matches_mask(self):
        g = GridSpec(2, 32)
        u = _rng(4).standard_normal(g.shape)
        b = Ball((3.0, -2.0), 4.5)
        assert np.isclose(ball_average(u, b, g), u[ball_mask(g, b)].mean())

    def test_mean_field_matches_center_average(self):
        g = GridSpec(2, 32)
        u = _rng(6).standard_normal(g.shape)
        mf = ball_mean_field(u, 4.0, g)
        for c in [(0, 0), (5, 11), (31, 16)]:
            want = ball_average(u, Ball((float(c[0]), float(c[1])), 4.0), g)
            assert np.isclose(mf[c], want)

    @pytest.mark.parametrize("radius", [-2.0, np.nan, 0.25])
    def test_mean_field_rejects_radius_off_the_ball_range(self, radius):
        # unchecked, -2 gave the radius-2 field and nan an all-nan one
        g = GridSpec(2, 32)
        with pytest.raises(ValueError, match="outside"):
            ball_mean_field(np.zeros(g.shape), radius, g)

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

    @pytest.mark.parametrize("content", [
        np.array([10**18, 2, 1], dtype="<i8").tobytes() + bytes(128),
        b"r,covariance\n0,1.0\n1,0.5\n2,0.25\n3,0.125\n"])
    def test_header_checked_before_its_power(self, tmp_path, content):
        # n**d of a header that no data size can match would not end
        p = tmp_path / "bad.bin"
        p.write_bytes(content)
        with pytest.raises(ValueError, match="corrupt field file"):
            load_field(p)

    def test_corrupt_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        save_field(p, _rng(10).standard_normal((8, 8)), 2)
        with open(p, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            load_field(p)
