import numpy as np
import pytest
from scipy.sparse.linalg import bicgstab, cg, spsolve

from homlab import elliptic
from homlab.elliptic import (SolveError, SolveOptions, _ball_box,
                             solve_dirichlet_ball, solve_divform,
                             solve_divform_rhs)
from homlab.kernels import divform_apply
from homlab.lattice import Ball, GridSpec, ball_mask, div, grad, poisson_solve
from homlab.randomfield import (CoefficientField, CoefficientModel,
                                CovarianceSpec, SeedSpec,
                                constant_coefficients, sample_gaussian,
                                to_coefficients)
from stencil import assembled_operator

GRID = GridSpec(2, 32)
OPTS = SolveOptions(tol=1e-11)


def _random_field(seed=0, nu=0.0, grid=GRID):
    spec = CovarianceSpec(grid.d + 0.5, 0.0)
    g1 = sample_gaussian(spec, grid, SeedSpec(seed, 0))
    g2 = sample_gaussian(spec, grid, SeedSpec(seed, 0, salt=1)) if nu else None
    return to_coefficients(g1, CoefficientModel(0.25, nu), g2, grid)


def _laminate(vals, n=32):
    grid = GridSpec(2, n)
    prof = np.asarray(vals)[np.arange(n) % len(vals)]
    a = np.zeros((2, 2) + grid.shape)
    a[0, 0] = prof[:, None]
    a[1, 1] = prof[:, None]
    return CoefficientField(a, float(min(vals)), grid)


def _unpreconditioned(k, rhs, symmetric, opts):
    """(x, steps) of scipy's CG (symmetric) or BiCGStab on the sparse
    matrix ``k`` with no preconditioner, stopped at 0.1 tol relative
    residual: tighter than the solvers, which stop at tol, so a reference
    for their solutions."""
    steps = []
    x, info = (cg if symmetric else bicgstab)(
        k, rhs, rtol=0.1 * opts.tol, atol=0.0,
        callback=lambda xk: steps.append(None))
    assert info == 0
    return x, len(steps)


def _recording(fn, calls):
    """``fn``, appending its name to ``calls`` on each call."""
    def wrapped(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapped


class TestOptions:
    def test_tol_range(self):
        with pytest.raises(ValueError):
            SolveOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(tol=1e-2)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)
        # 2.5 would reach scipy and die there with TypeError; True would
        # run one step
        with pytest.raises(ValueError, match="integer"):
            SolveOptions(max_iter=2.5)
        with pytest.raises(ValueError, match="integer"):
            SolveOptions(max_iter=True)
        assert SolveOptions(max_iter=np.int64(5)).max_iter == 5


class TestDivform:
    def test_zero_rhs(self):
        a = _random_field()
        u, rep = solve_divform(a, np.zeros((2,) + GRID.shape), OPTS)
        assert np.all(u == 0.0)
        assert rep.converged and rep.iterations == 0

    def test_identity_matches_poisson(self):
        a = constant_coefficients(GRID)
        g = np.random.default_rng(1).standard_normal((2,) + GRID.shape)
        u, rep = solve_divform(a, g, OPTS)
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
        u, rep = solve_divform(a, g, SolveOptions(tol=1e-12))
        alpha = a.a[0, 0, :, 0]
        c = -np.sum(prof_g / alpha) / np.sum(1.0 / alpha)
        inc = -(prof_g + c) / alpha   # u(x+1) - u(x)
        u1d = np.concatenate([[0.0], np.cumsum(inc)[:-1]])
        u1d -= u1d.mean()
        assert rep.converged
        assert np.max(np.abs(u - u1d[:, None])) < 1e-8

    def test_nonsymmetric_converges(self):
        a = _random_field(4, nu=0.2)
        assert not a.is_symmetric()
        g = np.random.default_rng(4).standard_normal((2,) + GRID.shape)
        u, rep = solve_divform(a, g, SolveOptions(tol=1e-9))
        assert rep.converged
        assert abs(u.mean()) < 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_counts_iterations(self, nu):
        a = _random_field(4, nu=nu)
        assert a.is_symmetric() == (nu == 0.0)
        g = np.random.default_rng(4).standard_normal((2,) + GRID.shape)
        opts = SolveOptions(tol=1e-10, max_iter=500)
        _, rep = solve_divform(a, g, opts)
        assert rep.converged
        assert 0 < rep.iterations < opts.max_iter

    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_iteration_cap_reported(self, nu):
        a = _random_field(4, nu=nu)
        g = np.random.default_rng(4).standard_normal((2,) + GRID.shape)
        with pytest.raises(SolveError) as exc:
            solve_divform(a, g, SolveOptions(tol=1e-10, max_iter=2))
        rep = exc.value.report
        assert not rep.converged
        assert rep.iterations == 2
        assert isinstance(exc.value, RuntimeError)
        assert str(exc.value) == (
            f"{'cg' if nu == 0.0 else 'bicgstab'} did not converge: "
            f"residual {rep.residual:.3e} > tol 1e-10 after 2 steps")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_coefficient_stops_the_krylov_solve(self, bad):
        # a[0, 1] is not read by div(a e_1), so the right-hand side is
        # finite; the first non-finite iterate ends the solve, and the
        # recomputed residual raises (300 steps of max_iter=300 before)
        grid = GridSpec(2, 16)
        a = _random_field(3, grid=grid)
        a.a[0, 1, 5, 7] = bad
        with np.errstate(invalid="ignore"), pytest.raises(SolveError) as exc:
            solve_divform(a, a.a[:, 0], SolveOptions(max_iter=300))
        rep = exc.value.report
        assert rep.iterations <= 3
        assert rep.converged is False

    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_loose_first_call_continues(self, monkeypatch, nu):
        # scipy's first call is made to stop at 1e-3, far above tol: the
        # solve continues once from its iterate, reports converged from the
        # recomputed residual and counts the steps of both calls
        name = "cg" if nu == 0.0 else "bicgstab"
        real, calls = getattr(elliptic, name), []

        def loose_first(A, b, **kwargs):
            steps, callback = [], kwargs["callback"]

            def counting(xk):
                steps.append(None)
                callback(xk)

            rtol = 1e-3 if not calls else kwargs["rtol"]
            out = real(A, b, **dict(kwargs, rtol=rtol, callback=counting))
            calls.append((kwargs["x0"] is not None, len(steps)))
            return out

        monkeypatch.setattr(elliptic, name, loose_first)
        a = _random_field(4, nu=nu)
        g = np.random.default_rng(4).standard_normal((2,) + GRID.shape)
        opts = SolveOptions(tol=1e-10)
        u, rep = solve_divform(a, g, opts)
        assert [x0 for x0, _ in calls] == [False, True]
        assert calls[0][1] > 0 and calls[1][1] > 0
        assert rep.iterations == calls[0][1] + calls[1][1]
        rhs = div(g)
        rhs -= rhs.mean()
        res = np.linalg.norm(divform_apply(a.a, u) - rhs) / np.linalg.norm(rhs)
        assert rep.residual == pytest.approx(res, rel=1e-12)
        assert rep.converged and rep.residual <= opts.tol
        # one step after the loose call, the continuation stops at the cap
        # and the error's report says so
        loose = calls[0][1]
        calls.clear()
        capped = SolveOptions(tol=1e-10, max_iter=loose + 1)
        with pytest.raises(SolveError) as exc:
            solve_divform(a, g, capped)
        rep = exc.value.report
        assert [x0 for x0, _ in calls] == [False, True]
        assert rep.iterations == capped.max_iter
        assert not rep.converged and rep.residual > capped.tol

    def test_report_residual_honest(self):
        a = _random_field(5)
        g = np.random.default_rng(5).standard_normal((2,) + GRID.shape)
        u, rep = solve_divform(a, g, OPTS)
        from homlab.kernels import divform_apply
        rhs = div(g)
        rhs = rhs - rhs.mean()
        res = np.linalg.norm(divform_apply(a.a, u) - rhs)
        assert np.isclose(rep.residual, res / np.linalg.norm(rhs))

    def test_torus_preconditioners_agree(self):
        # the sandwich cuts the steps of plain CG on the assembled operator
        a = _random_field(10)
        g = np.random.default_rng(10).standard_normal((2,) + GRID.shape)
        u, rep = solve_divform(a, g, OPTS)
        rhs = div(g)
        want, steps = _unpreconditioned(assembled_operator(a.a),
                                        (rhs - rhs.mean()).ravel(), True, OPTS)
        want = (want - want.mean()).reshape(GRID.shape)
        assert rep.converged
        assert rep.iterations < steps
        assert np.max(np.abs(u - want)) < 1e-8 * np.max(np.abs(want))


class TestSpectralPreconditioner:
    """The torus preconditioner K^-1 (-div(b grad .)) K^-1, K = -lap."""

    def test_laminate_corrector_in_one_step(self):
        # the layered direction is a 1d problem, where the sandwich is exact
        a = _laminate([1.0, 0.5, 0.25, 0.5])
        _, rep = solve_divform(a, a.a[:, 0], SolveOptions(tol=1e-10))
        assert rep.converged
        assert rep.iterations == 1

    @pytest.mark.parametrize("shift", [0.0, 1.0 / 8.0])
    def test_constant_coefficients_in_one_step(self, shift):
        # a right-hand side of mean ``shift`` is solved as its zero-mean part
        a = constant_coefficients(GRID, 0.7 * np.eye(2))
        g = np.random.default_rng(7).standard_normal((2,) + GRID.shape)
        opts = SolveOptions(tol=1e-10)
        u, rep = solve_divform_rhs(a, div(g) + shift, opts)
        assert rep.converged
        assert rep.iterations <= 1
        want, _ = solve_divform(a, g, opts)
        assert np.max(np.abs(u - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("shift", [0.0, 1.0 / 8.0])
    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_symmetric_positive(self, nu, shift):
        # symmetric and positive on zero-mean inputs, blind to a constant
        apply = elliptic.operator(_random_field(6, nu=nu)).precond
        x, y = np.random.default_rng(6).standard_normal((2,) + GRID.shape)
        x -= x.mean()
        y -= y.mean()
        ax, ay = apply(x + shift), apply(y + shift)
        mxy, xmy = float(np.sum(ax * y)), float(np.sum(x * ay))
        assert abs(mxy - xmy) <= 1e-12 * abs(mxy)
        assert float(np.sum(ax * x)) > 0.0
        assert np.max(np.abs(ax - apply(x))) <= 1e-12 * np.max(np.abs(ax))

    def test_equal_diagonal_blocks_share_one_inverse(self, monkeypatch):
        # one 1 / a_ii serves every row when the blocks are equal, with the
        # values of the per-row inverse
        a = _random_field(6, grid=GridSpec(3, 16))
        x = np.random.default_rng(6).standard_normal(a.grid.shape)
        seen = []

        def spy(b, u, cols):
            seen.append(b)
            return divform_apply(b, u, cols)

        monkeypatch.setattr(elliptic.kernels, "divform_apply", spy)
        got = elliptic.operator(a).precond(x)
        a.a[2, 2, 0, 0] += 0.125  # now the blocks differ
        other = elliptic.operator(a).precond(x)
        a.a[2, 2, 0, 0] -= 0.125
        shared, each = seen
        assert np.shares_memory(shared[0, 0], shared[2, 2])
        assert not np.shares_memory(each[0, 0], each[2, 2])
        b = 1.0 / np.einsum("ii...->i...", a.a)
        b = np.broadcast_to(b[:, None], (3, 3) + a.grid.shape)
        inv = elliptic._inverse_laplacian(a.grid.shape)
        want = elliptic._spectral_multiply(divform_apply(
            b, elliptic._spectral_multiply(x, inv), ((0,), (1,), (2,))), inv)
        assert np.array_equal(got, want)
        assert not np.array_equal(other, want)

    @pytest.mark.parametrize("nu", [0.0, 0.2])
    @pytest.mark.parametrize("seed", range(4))
    def test_iteration_ceiling(self, seed, nu):
        # measured 9 steps (nu = 0) and 9-10 (nu = 0.2) on seeds 0-7
        a = _random_field(seed, nu=nu)
        g = np.random.default_rng(seed).standard_normal((2,) + GRID.shape)
        _, rep = solve_divform(a, g, SolveOptions(tol=1e-10))
        assert rep.converged
        assert rep.iterations <= 11


class TestDivformReference:
    """solve_divform_rhs against a sparse direct solve of the assembled
    operator with one cell pinned, re-centered to zero mean.  A right-hand
    side of mean ``shift`` is solved as its zero-mean part."""

    @pytest.mark.parametrize("shift", [0.0, 1.0 / 8.0])
    @pytest.mark.parametrize("nu", [0.0, 0.2])
    @pytest.mark.parametrize("d, n", [(2, 32), (3, 12)])
    def test_matches_sparse_direct_solve(self, d, n, nu, shift):
        grid = GridSpec(d, n)
        a = _random_field(12, nu=nu, grid=grid)
        assert a.is_symmetric() == (nu == 0.0)
        rhs = np.random.default_rng(12).standard_normal(grid.shape)
        rhs -= rhs.mean()
        u, rep = solve_divform_rhs(a, rhs + shift, OPTS)
        assert rep.converged
        k = assembled_operator(a.a)
        b = rhs.reshape(-1)
        want = np.zeros(n**d)
        want[1:] = spsolve(k[1:, 1:].tocsc(), b[1:])
        want -= want.mean()
        assert (np.max(np.abs(u.reshape(-1) - want))
                <= 1e-8 * np.max(np.abs(want)))


class TestDirichletBall:
    def test_nonfinite_boundary_fails_before_krylov(self):
        a = constant_coefficients(GRID)
        boundary = np.full(GRID.shape, np.nan)
        with pytest.raises(RuntimeError, match="not finite"):
            solve_dirichlet_ball(a, Ball((16.0, 16.0), 4.0), boundary,
                                 SolveOptions(max_iter=50))

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
        res = divform_apply(a.a, u)[mask]
        assert np.linalg.norm(res) < 1e-7

    @pytest.mark.parametrize("d, n, radius, nu, center", [
        (2, 32, 6.0, 0.0, (2.0, -3.0)),
        (2, 32, 7.0, 0.2, (30.5, 1.0)),
        (3, 16, 3.5, 0.2, (14.5, 1.0, 7.25)),
    ])
    def test_box_residual_is_the_torus_residual(self, monkeypatch, d, n,
                                                radius, nu, center):
        # the residual is taken on the box; it must equal the full-torus
        # formula, and u must be the Krylov solution placed into the
        # boundary data, bit for bit
        grid = GridSpec(d, n)
        a = _random_field(12, nu=nu, grid=grid)
        ball = Ball(center, radius)
        boundary = np.random.default_rng(12).standard_normal(grid.shape)
        solved = []

        def spy(solver):
            def run(*args, **kwargs):
                solved.append(solver(*args, **kwargs))
                return solved[-1]
            return run

        for name in ("cg", "bicgstab"):
            monkeypatch.setattr(elliptic, name, spy(getattr(elliptic, name)))
        u, rep = solve_dirichlet_ball(a, ball, boundary,
                                      SolveOptions(tol=1e-6))
        mask = ball_mask(grid, ball)
        box = _ball_box(grid, ball)
        want_u = boundary.copy()
        want_u[box] = np.where(mask[box],
                               solved[0][0].reshape(mask[box].shape),
                               boundary[box])
        assert np.array_equal(u, want_u)
        bc = np.where(mask, 0.0, boundary)
        bnorm = np.linalg.norm(divform_apply(a.a, bc)[mask])
        full = np.linalg.norm(np.where(mask, divform_apply(a.a, u),
                                       0.0)) / bnorm
        assert rep.residual > 0.0
        assert abs(rep.residual - full) <= 1e-14 * full

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    def test_data_unread_by_the_interior_give_zero_inside(self, d, n):
        # data nonzero only deep inside the ball give a zero right-hand
        # side; the a-harmonic extension of the zero data the stencil reads
        # is 0 inside, not the data's interior values
        grid = GridSpec(d, n)
        a = _random_field(13, nu=0.2, grid=grid)
        ball = Ball((n / 2,) * d, 3.5)
        boundary = np.zeros(grid.shape)
        boundary[(n // 2,) * d] = 1.0
        u, rep = solve_dirichlet_ball(a, ball, boundary, OPTS)
        mask = ball_mask(grid, ball)
        assert mask[(n // 2,) * d]
        assert np.all(u[mask] == 0.0)
        assert np.array_equal(u[~mask], boundary[~mask])
        assert np.all(divform_apply(a.a, u)[mask] == 0.0)
        assert (rep.iterations, rep.residual, rep.converged) == (0, 0.0, True)

    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_counts_iterations(self, nu):
        a = _random_field(8, nu=nu)
        assert a.is_symmetric() == (nu == 0.0)
        ball = Ball((1.0, 4.0), 7.0)
        boundary = np.random.default_rng(8).standard_normal(GRID.shape)
        opts = SolveOptions(tol=1e-10, max_iter=500)
        _, rep = solve_dirichlet_ball(a, ball, boundary, opts)
        assert rep.converged
        assert 0 < rep.iterations < opts.max_iter

    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_preconditioners_agree(self, nu):
        # the DST-I inverse cuts the steps of the plain Krylov method on the
        # assembled operator's ball rows and columns
        a = _random_field(9, nu=nu)
        ball = Ball((3.5, -2.0), 7.0)
        boundary = np.random.default_rng(9).standard_normal(GRID.shape)
        u, rep = solve_dirichlet_ball(a, ball, boundary, OPTS)
        inside = ball_mask(GRID, ball).reshape(-1)
        k = assembled_operator(a.a)
        want = boundary.reshape(-1).copy()
        want[inside], steps = _unpreconditioned(
            k[inside][:, inside], -k[inside][:, ~inside] @ want[~inside],
            nu == 0.0, OPTS)
        assert rep.converged
        assert rep.iterations < steps
        assert (np.max(np.abs(u.reshape(-1) - want))
                < 1e-8 * np.max(np.abs(want)))


    @pytest.mark.parametrize("cell, want", [((0, 0), "cg"),
                                            ((16, 16), "bicgstab")])
    def test_krylov_method_from_the_box(self, monkeypatch, cell, want):
        # a skew entry outside the ball's box leaves the box symmetric: CG,
        # and the solution of the symmetric field; one inside: BiCGStab
        a = _random_field(8)
        ball = Ball((16.0, 16.0), 5.0)
        boundary = np.random.default_rng(8).standard_normal(GRID.shape)
        plain, _ = solve_dirichlet_ball(a, ball, boundary, OPTS)
        a.a[0, 1][cell] += 0.05
        assert not a.is_symmetric()
        used = []
        for name in ("cg", "bicgstab"):
            monkeypatch.setattr(elliptic, name,
                                _recording(getattr(elliptic, name), used))
        u, rep = solve_dirichlet_ball(a, ball, boundary, OPTS)
        assert rep.converged and set(used) == {want}
        if want == "cg":
            assert np.array_equal(u, plain)


class TestDirichletBallReference:
    """solve_dirichlet_ball against a sparse direct solve of the assembled
    operator, restricted to the ball rows and columns."""

    @pytest.mark.parametrize("d, n, radius, nu, center", [
        (2, 32, 7.0, 0.0, (0.0, 0.0)),
        (2, 32, 7.0, 0.2, (0.0, 0.0)),
        (2, 32, 6.5, 0.0, (11.3, -4.7)),
        (2, 32, 8.0, 0.2, (11.3, -4.7)),
        (2, 32, 7.0, 0.0, (30.5, 1.0)),
        (2, 32, 8.0, 0.2, (30.5, 1.0)),
        (3, 16, 4.0, 0.0, (0.0, 0.0, 0.0)),
        (3, 16, 3.5, 0.2, (14.5, 1.0, 7.25)),
        (2, 8, 2.0, 0.0, (0.0, 0.0)),
        (2, 8, 2.0, 0.2, (7.5, 3.5)),
        (3, 8, 2.0, 0.0, (7.5, 0.5, 4.0)),
    ])
    def test_matches_sparse_direct_solve(self, d, n, radius, nu, center):
        grid = GridSpec(d, n)
        a = _random_field(11, nu=nu, grid=grid)
        ball = Ball(center, radius)
        boundary = np.random.default_rng(11).standard_normal(grid.shape)
        u, rep = solve_dirichlet_ball(a, ball, boundary, OPTS)
        assert rep.converged
        assert np.array_equal(u[~ball_mask(grid, ball)],
                              boundary[~ball_mask(grid, ball)])
        inside = ball_mask(grid, ball).reshape(-1)
        k = assembled_operator(a.a)
        g = boundary.reshape(-1)
        want = g.copy()
        want[inside] = spsolve(k[inside][:, inside].tocsc(),
                               -k[inside][:, ~inside] @ g[~inside])
        assert (np.max(np.abs(u.reshape(-1) - want))
                <= 1e-8 * np.max(np.abs(want)))
        assert all(len(ix.reshape(-1)) <= n for ix in _ball_box(grid, ball))

    def test_box_never_exceeds_the_torus(self):
        for n in (8, 10, 12, 16, 32, 34, 64):
            grid = GridSpec(2, n)
            for c in (0.0, 0.5, 0.25, n - 0.5):
                box = _ball_box(grid, Ball((c, 0.0), n / 4))
                for axis in box:
                    idx = axis.reshape(-1)
                    assert len(np.unique(idx)) == len(idx) <= n
