import numpy as np
import pytest

from homlab.elliptic import (SolveOptions, solve_dirichlet_ball,
                             solve_divform, solve_divform_rhs)
from homlab.lattice import Ball, GridSpec, ball_mask, div, grad, poisson_solve
from homlab.randomfield import (CoefficientField, CoefficientModel,
                                CovarianceSpec, SeedSpec,
                                constant_coefficients, sample_gaussian,
                                to_coefficients)

GRID = GridSpec(2, 32)
OPTS = SolveOptions(tol=1e-11)


def _random_field(seed=0, nu=0.0):
    spec = CovarianceSpec(2.5, 0.0)
    g1 = sample_gaussian(spec, GRID, SeedSpec(seed, 0))
    g2 = sample_gaussian(spec, GRID, SeedSpec(seed, 0, salt=1)) if nu else None
    return to_coefficients(g1, CoefficientModel(0.25, nu), g2, GRID)


def _laminate(vals, n=32):
    grid = GridSpec(2, n)
    prof = np.asarray(vals)[np.arange(n) % len(vals)]
    a = np.zeros((2, 2) + grid.shape)
    a[0, 0] = prof[:, None]
    a[1, 1] = prof[:, None]
    return CoefficientField(a, float(min(vals)), grid)


class TestOptions:
    def test_tol_range(self):
        with pytest.raises(ValueError):
            SolveOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(tol=1e-2)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)


class TestDivform:
    def test_zero_rhs(self):
        a = _random_field()
        u, rep = solve_divform(a, np.zeros((2,) + GRID.shape), 0.0, OPTS)
        assert np.all(u == 0.0)
        assert rep.converged and rep.iterations == 0

    def test_identity_matches_poisson(self):
        a = constant_coefficients(GRID)
        g = np.random.default_rng(1).standard_normal((2,) + GRID.shape)
        u, rep = solve_divform(a, g, 0.0, OPTS)
        want = poisson_solve(div(g))
        assert rep.converged
        assert np.allclose(u, want, atol=1e-9)

    def test_laminate_closed_form(self):
        # 1d problem along x0: flux alpha * du = g0 + const, exact quadrature
        n = 32
        a = _laminate([1.0, 0.5, 0.25, 0.5], n)
        rng = np.random.default_rng(2)
        prof_g = rng.standard_normal(n)
        g = np.zeros((2, n, n))
        g[0] = prof_g[:, None]
        u, rep = solve_divform(a, g, 0.0, SolveOptions(tol=1e-12))
        alpha = a.a[0, 0, :, 0]
        c = -np.sum(prof_g / alpha) / np.sum(1.0 / alpha)
        inc = -(prof_g + c) / alpha   # u(x+1) - u(x)
        u1d = np.concatenate([[0.0], np.cumsum(inc)[:-1]])
        u1d -= u1d.mean()
        assert rep.converged
        assert np.max(np.abs(u - u1d[:, None])) < 1e-8

    def test_massive_term(self):
        a = _random_field(3)
        rhs = np.random.default_rng(3).standard_normal(GRID.shape)
        u, rep = solve_divform_rhs(a, rhs, 1.0 / 8.0, OPTS)
        assert rep.converged
        # residual recomputed independently
        from homlab.kernels import divform_apply
        res = divform_apply(a.a, u, 1.0 / 8.0) - rhs
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)

    def test_nonsymmetric_converges(self):
        a = _random_field(4, nu=0.2)
        assert not a.is_symmetric()
        g = np.random.default_rng(4).standard_normal((2,) + GRID.shape)
        u, rep = solve_divform(a, g, 0.0, SolveOptions(tol=1e-9))
        assert rep.converged
        assert abs(u.mean()) < 1e-12

    def test_nonsymmetric_counts_iterations(self):
        a = _random_field(4, nu=0.2)
        g = np.random.default_rng(4).standard_normal((2,) + GRID.shape)
        opts = SolveOptions(tol=1e-10, max_iter=500)
        _, rep = solve_divform(a, g, 0.0, opts)
        assert rep.converged
        assert 0 < rep.iterations < opts.max_iter

    def test_nonsymmetric_iteration_cap_reported(self):
        a = _random_field(4, nu=0.2)
        g = np.random.default_rng(4).standard_normal((2,) + GRID.shape)
        _, rep = solve_divform(a, g, 0.0, SolveOptions(tol=1e-10, max_iter=2))
        assert not rep.converged
        assert rep.iterations == 2

    def test_report_residual_honest(self):
        a = _random_field(5)
        g = np.random.default_rng(5).standard_normal((2,) + GRID.shape)
        u, rep = solve_divform(a, g, 0.0, OPTS)
        from homlab.kernels import divform_apply
        rhs = div(g)
        rhs = rhs - rhs.mean()
        res = np.linalg.norm(divform_apply(a.a, u, 0.0) - rhs)
        assert np.isclose(rep.residual, res / np.linalg.norm(rhs))


class TestDirichletBall:
    def test_boundary_preserved(self):
        a = _random_field(6)
        ball = Ball((0.0, 0.0), 6.0)
        boundary = np.random.default_rng(6).standard_normal(GRID.shape)
        u, rep = solve_dirichlet_ball(a, ball, boundary, OPTS)
        mask = ball_mask(GRID, ball)
        assert np.array_equal(u[~mask], boundary[~mask])
        assert rep.converged

    def test_linear_is_harmonic_for_identity(self):
        # an affine function is a-harmonic for a == Id, so it is reproduced
        a = constant_coefficients(GRID)
        ball = Ball((0.0, 0.0), 6.0)
        x = np.arange(32, dtype=np.float64)
        off = (x + 16) % 32 - 16
        boundary = off[:, None] + 2.0 * off[None, :]
        u, rep = solve_dirichlet_ball(a, ball, boundary, OPTS)
        mask = ball_mask(GRID, ball)
        # away from the periodic seam the affine extension is exact
        assert np.max(np.abs((u - boundary)[mask])) < 1e-8

    def test_interior_residual(self):
        a = _random_field(7, nu=0.1)
        ball = Ball((2.0, -3.0), 5.0)
        boundary = np.random.default_rng(7).standard_normal(GRID.shape)
        u, rep = solve_dirichlet_ball(a, ball, boundary,
                                      SolveOptions(tol=1e-10))
        from homlab.kernels import divform_apply
        mask = ball_mask(GRID, ball)
        res = divform_apply(a.a, u, 0.0)[mask]
        assert np.linalg.norm(res) < 1e-7

    def test_nonsymmetric_counts_iterations(self):
        a = _random_field(8, nu=0.2)
        assert not a.is_symmetric()
        ball = Ball((1.0, 4.0), 7.0)
        boundary = np.random.default_rng(8).standard_normal(GRID.shape)
        opts = SolveOptions(tol=1e-10, max_iter=500)
        _, rep = solve_dirichlet_ball(a, ball, boundary, opts)
        assert rep.converged
        assert 0 < rep.iterations < opts.max_iter
