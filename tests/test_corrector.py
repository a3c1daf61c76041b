import json
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.fft import rfftn

import homlab.corrector
import homlab.ensemble
import homlab.kernels

from homlab.corrector import (CorrectorSet, SkewField, build_corrector_set,
                              compute_corrector, extended_rows,
                              extended_spectra, save_corrector_set,
                              sigma_component)
from homlab.elliptic import SolveError, SolveOptions, operator
from homlab.diagnostics import growth_profile
from homlab.lattice import (GridSpec, div, grad, load_field,
                            mean_ball_variance, poisson_solve)
from homlab.randomfield import (CoefficientField, CoefficientModel,
                                CovarianceSpec, SeedSpec,
                                constant_coefficients, sample_gaussian,
                                to_coefficients)

GRID = GridSpec(2, 32)
OPTS = SolveOptions(tol=1e-11)


def _random_field(seed=0, nu=0.0, grid=GRID):
    spec = CovarianceSpec(2.5 if grid.d == 2 else 3.5, 0.0)
    g1 = sample_gaussian(spec, grid, SeedSpec(seed, 0))
    g2 = (sample_gaussian(spec, grid, SeedSpec(seed, 0, salt=1))
          if nu else None)
    return to_coefficients(g1, CoefficientModel(0.25, nu), g2, grid)


def _flux_and_ahom(a, phi):
    """Fluxes q_i and a_hom by one loop over all d correctors, filling a
    whole q: the reference that ``corr.q`` and ``corr.a_hom`` match."""
    d = a.grid.d
    q = np.zeros((d, d) + a.grid.shape)
    a_hom = np.zeros((d, d))
    for i in range(d):
        q[i], a_hom[:, i] = homlab.corrector._flux(a, grad(phi[i]), i)
    return q, a_hom


def _spy_flux(monkeypatch):
    """Patch ``corrector._flux`` to record the name of each call's caller;
    returns that growing list."""
    callers = []
    flux = homlab.corrector._flux

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return flux(*args)

    monkeypatch.setattr(homlab.corrector, "_flux", spy)
    return callers


def _set_flux_and_ahom(a, opts=OPTS):
    """``corr.q`` and ``corr.a_hom`` of a's corrector set, each checked bit
    for bit against ``_flux_and_ahom`` of its phi."""
    corr = build_corrector_set(a, opts)
    q, a_hom = _flux_and_ahom(a, corr.phi)
    assert np.array_equal(corr.q, q)
    assert np.array_equal(corr.a_hom, a_hom)
    return q, a_hom


def _sigma_from_q(q):
    """The flux correctors by their own curl loop over a whole q: the
    formula ``CorrectorSet.sigma`` had when it took q."""
    d = q.shape[0]
    pairs = homlab.corrector._pairs(d)
    vals = np.zeros((d, len(pairs)) + q.shape[2:])
    for i in range(d):
        for p, (j, k) in enumerate(pairs):
            vals[i, p] = poisson_solve(homlab.corrector._curl(q[i], j, k))
    return SkewField(vals, d)


def _stacked(phi, sigma: SkewField):
    """phi's rows and sqrt(2) times the stored sigma rows, stacked: the
    extended components as a set that held sigma stacked them."""
    return np.stack(list(phi) + [
        values * np.sqrt(2.0)
        for values in sigma.values.reshape((-1,) + phi.shape[1:])])


def _laminate(vals, n=32):
    grid = GridSpec(2, n)
    prof = np.asarray(vals)[np.arange(n) % len(vals)]
    a = np.zeros((2, 2) + grid.shape)
    a[0, 0] = prof[:, None]
    a[1, 1] = prof[:, None]
    return CoefficientField(a, float(min(vals)), grid)


class TestCorrector:
    def test_nonfinite_coefficient_fails_before_krylov(self):
        # a nan cell makes the right-hand side div(a e_1) nan; the solve
        # raises at once instead of running its Krylov steps on it
        a = _random_field(1)
        a.a[0, 0, 5, 7] = np.nan
        with pytest.raises(RuntimeError, match="not finite"):
            compute_corrector(a, SolveOptions(max_iter=50))

    def test_unconverged_solve_raises(self):
        # the solve itself raises, with its report; compute_corrector has
        # no check of its own
        a = _random_field(1)
        with pytest.raises(SolveError) as exc:
            compute_corrector(a, SolveOptions(max_iter=2))
        rep = exc.value.report
        assert (rep.iterations, rep.converged) == (2, False)
        assert rep.residual > SolveOptions().tol

    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_operator_in_place_of_its_field(self, nu):
        # an Operator stands for its field, bit for bit, and is not rebuilt
        a = _random_field(2, nu=nu)
        op = operator(a)
        phi, reports = compute_corrector(a, OPTS)
        corr = build_corrector_set(op, OPTS)
        assert corr.a is a
        assert np.array_equal(corr.phi, phi)
        assert corr.reports == reports
        assert operator(op) is op

    def test_constant_coefficients_zero(self):
        a = constant_coefficients(GRID, 0.7 * np.eye(2))
        phi, reports = compute_corrector(a, OPTS)
        assert np.max(np.abs(phi)) < 1e-12
        assert all(r.converged for r in reports)

    def test_gradient_mean_zero(self):
        a = _random_field(1)
        phi, _ = compute_corrector(a, OPTS)
        for i in range(2):
            g = grad(phi[i])
            assert abs(g[0].mean()) < 1e-13
            assert abs(g[1].mean()) < 1e-13

    def test_laminate_gradient_closed_form(self):
        a = _laminate([1.0, 0.5, 0.25, 0.5])
        phi, _ = compute_corrector(a, SolveOptions(tol=1e-12))
        alpha = a.a[0, 0, :, 0]
        harm = 1.0 / np.mean(1.0 / alpha)
        want = harm / alpha - 1.0          # grad phi_1 + e_1 = harm/alpha
        got = grad(phi[0])[0][:, 0]
        assert np.max(np.abs(got - want)) < 1e-8
        assert np.max(np.abs(phi[1])) < 1e-8

    def test_partial_directions_return_requested_rows(self):
        a = _random_field(2)
        full, _ = compute_corrector(a, OPTS)
        phi, reports = compute_corrector(a, OPTS, directions=[1])
        assert phi.shape == (1,) + GRID.shape and len(reports) == 1
        assert np.array_equal(phi[0], full[1])
        phi, _ = compute_corrector(a, OPTS, directions=[1, 0])
        assert np.array_equal(phi, full[::-1])


    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_directions_share_one_operator(self, monkeypatch, nu):
        # the symmetry test and the coupled columns run once for d solves
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        a = _random_field(3, nu=nu, grid=GridSpec(3, 16))
        want, _ = compute_corrector(a, OPTS)
        monkeypatch.setattr(CoefficientField, "is_symmetric",
                            counting("is_symmetric",
                                     CoefficientField.is_symmetric))
        monkeypatch.setattr(homlab.kernels, "coupled_columns",
                            counting("coupled_columns",
                                     homlab.kernels.coupled_columns))
        phi, reports = compute_corrector(a, OPTS)
        assert sorted(calls) == ["coupled_columns", "is_symmetric"]
        assert len(reports) == 3 and all(r.converged for r in reports)
        assert np.array_equal(phi, want)


class TestFluxAndAhom:
    def test_corrector_set_columns_match_single_solves(self):
        # each a_hom column comes from its own corrector solve only
        grid = GridSpec(2, 64)
        a = _random_field(9, grid=grid)
        corr = build_corrector_set(a, OPTS)
        phi = np.concatenate([compute_corrector(a, OPTS, directions=[i])[0]
                              for i in range(2)])
        _, a_hom = _flux_and_ahom(a, phi)
        assert np.allclose(corr.a_hom, a_hom, rtol=1e-12, atol=0.0)

    def test_constant_tensor(self):
        mat = np.array([[0.8, 0.1], [-0.1, 0.6]])
        q, a_hom = _set_flux_and_ahom(constant_coefficients(GRID, mat))
        assert np.allclose(a_hom, mat, atol=1e-10)
        assert np.max(np.abs(q)) < 1e-9

    def test_laminate_oracle(self):
        _, a_hom = _set_flux_and_ahom(_laminate([1.0, 0.5, 0.25, 0.5]),
                                      SolveOptions(tol=1e-12))
        assert abs(a_hom[0, 0] - 4.0 / 9.0) < 1e-8
        assert abs(a_hom[1, 1] - 9.0 / 16.0) < 1e-8

    def test_flux_mean_zero_and_div_free(self):
        q, _ = _set_flux_and_ahom(_random_field(2))
        for i in range(2):
            assert np.max(np.abs(q[i].reshape(2, -1).mean(axis=1))) < 1e-15
            assert np.max(np.abs(div(q[i]))) < 1e-8

    def test_voigt_reuss(self):
        a = _random_field(3)
        _, a_hom = _set_flux_and_ahom(a)
        a11 = a.a[0, 0]
        harm = 1.0 / np.mean(1.0 / a11)
        arith = np.mean(a11)
        assert harm - 1e-9 <= a_hom[0, 0] <= arith + 1e-9

    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_flux_is_the_inline_expression(self, nu):
        # q_i = a (grad phi_i + e_i) minus its torus mean, bit for bit
        a = _random_field(9, nu)
        corr = build_corrector_set(a, OPTS)
        q, phi = corr.q, corr.phi
        assert np.array_equal(q, _flux_and_ahom(a, phi)[0])
        for i in range(2):
            gp = grad(phi[i])
            gp[i] += 1.0
            flux = np.einsum("pq...,q...->p...", a.a, gp)
            want = flux - flux.reshape(2, -1).mean(axis=1).reshape(2, 1, 1)
            assert np.array_equal(q[i], want)


class TestSigma:
    def test_skew_storage(self):
        a = _random_field(4)
        corr = build_corrector_set(a, OPTS)
        s = corr.sigma
        assert np.array_equal(s.component(0, 0, 1), -s.component(0, 1, 0))
        assert np.all(s.component(0, 1, 1) == 0.0)

    def test_single_component_matches_full_sigma(self):
        a = _random_field(10, nu=0.1)
        corr = build_corrector_set(a, OPTS)
        for i in range(2):
            assert np.array_equal(sigma_component(a, corr.phi[i], i, 0, 1),
                                  corr.sigma.component(i, 0, 1))

    def test_zero_mean(self):
        a = _random_field(4)
        corr = build_corrector_set(a, OPTS)
        assert abs(corr.sigma.values[0, 0].mean()) < 1e-12

    def test_divergence_identity(self):
        a = _random_field(5, nu=0.1)
        corr = build_corrector_set(a, SolveOptions(tol=1e-11))
        ds = corr.sigma.divergence()
        rel = np.linalg.norm(ds - corr.q) / np.linalg.norm(corr.q)
        assert rel < 1e-7

    def test_3d_divergence_identity(self):
        grid = GridSpec(3, 16)
        a = _random_field(6, grid=grid)
        corr = build_corrector_set(a, SolveOptions(tol=1e-11))
        ds = corr.sigma.divergence()
        rel = np.linalg.norm(ds - corr.q) / np.linalg.norm(corr.q)
        assert rel < 1e-7

    @pytest.mark.parametrize("shape", [(12, 10), (8, 6, 10)])
    def test_curl_matches_roll_formula(self, shape):
        d = len(shape)
        q_i = np.random.default_rng(d).standard_normal((d,) + shape)
        for j in range(d):
            for k in range(j + 1, d):
                want = (np.roll(q_i[k], -1, axis=j) - q_i[k]
                        - np.roll(q_i[j], -1, axis=k) + q_i[j])
                assert np.array_equal(homlab.corrector._curl(q_i, j, k),
                                      want)

    def test_constant_zero(self):
        a = constant_coefficients(GRID)
        zeros = np.zeros((2,) + GRID.shape)
        s = CorrectorSet(a, zeros, []).sigma
        assert np.all(s.values == 0.0)


class TestCorrectorSet:
    @pytest.mark.parametrize("grid", [GRID, GridSpec(3, 16)])
    def test_holds_phi_and_a_hom_only(self, grid):
        # beyond its coefficients a set holds d + a_hom's few cells; one
        # that stored q and sigma held 8 grid fields in 2D and 21 in 3D
        a = _random_field(12, grid=grid)
        corr = build_corrector_set(a, OPTS)
        held = 0
        for value in vars(corr).values():
            if isinstance(value, SkewField):
                value = value.values
            if isinstance(value, np.ndarray):
                held += value.nbytes
        assert held <= (grid.d + 1) * a.a[0, 0].nbytes

    @pytest.mark.parametrize("rows", ["first_missing", "one_extra"])
    def test_phi_without_d_rows_rejected(self, rows):
        # corr.q would read the first d rows of a longer phi without a word
        a = _random_field(15)
        corr = build_corrector_set(a, OPTS)
        bad = corr.phi[1:] if rows == "first_missing" else np.concatenate(
            [corr.phi, corr.phi[:1]])
        with pytest.raises(ValueError, match="need all 2 correctors"):
            CorrectorSet(a, bad, corr.reports)

    @pytest.mark.parametrize("grid", [GRID, GridSpec(3, 16)])
    def test_a_hom_is_made_once_on_first_access(self, monkeypatch, grid):
        corr = build_corrector_set(_random_field(17, grid=grid), OPTS)
        callers = _spy_flux(monkeypatch)
        assert callers == []  # building the set makes no flux
        first = corr.a_hom
        assert corr.a_hom is first
        assert len(callers) == grid.d

    @pytest.mark.parametrize("d, n, gamma", [(2, 32, 2.5), (3, 16, 3.5)])
    def test_growth_realization_never_makes_a_hom(self, monkeypatch, d, n,
                                                  gamma):
        # each q_i is made once, by the sigma stream the profile reads
        callers = _spy_flux(monkeypatch)
        plan = homlab.ensemble.ExperimentPlan(kind="growth", d=d, n=n,
                                              gamma=gamma, m=2)
        homlab.ensemble._run_growth(plan, 0)
        assert callers == ["_curls"] * d

    @pytest.mark.parametrize("nu", [0.0, 0.1])
    def test_q_and_sigma_are_made_from_phi(self, nu):
        a = _random_field(13, nu)
        corr = build_corrector_set(a, OPTS)
        q, a_hom = _flux_and_ahom(a, corr.phi)
        assert np.array_equal(corr.q, q)
        assert np.array_equal(corr.a_hom, a_hom)
        assert np.array_equal(corr.sigma.values, _sigma_from_q(q).values)

    def test_sigma_never_makes_the_whole_q(self):
        # corr.sigma makes each q_i from phi_i when reached: one access at
        # 3D n=32 peaks at 16.0 grid fields, 21.1 when made from a whole q
        grid = GridSpec(3, 32)
        corr = build_corrector_set(_random_field(16, grid=grid), OPTS)
        corr.sigma  # warm-up
        tracemalloc.start()
        try:
            corr.sigma
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18.5 * corr.phi[0].nbytes


class TestExtended:
    def test_component_count_and_norm(self):
        a = _random_field(9)
        corr = build_corrector_set(a, OPTS)
        comps = np.stack(list(extended_rows(corr)))
        assert comps.shape[0] == 4  # d phi components + d * (one pair) in d=2
        # sum of squares equals |phi|^2 + |sigma|^2 over the full skew tensor
        sigma = corr.sigma
        full = sum(np.sum(sigma.component(i, j, k) ** 2)
                   for i in range(2) for j in range(2) for k in range(2))
        got = np.sum(comps**2) - np.sum(corr.phi**2)
        assert np.isclose(got, full)

    @pytest.mark.parametrize("grid", [GRID, GridSpec(3, 16)])
    def test_rows_equal_the_stored_sigma_stack(self, grid):
        # the real-space stream makes each q_i from phi_i when reached and
        # gives the components a stored sigma gave, bit for bit
        a = _random_field(14, nu=0.1, grid=grid)
        phi, _ = compute_corrector(a, OPTS)
        q, _ = _flux_and_ahom(a, phi)
        want = _stacked(phi, _sigma_from_q(q))
        rows = list(extended_rows(CorrectorSet(a, phi, [])))
        assert len(rows) == len(want)
        assert all(np.array_equal(r, w) for r, w in zip(rows, want))

    def test_growth_profile_streams_the_same_components(self):
        # the profile reads half spectra one at a time: the stream, which
        # never makes sigma, gives mean_ball_variance of the stored
        # components' rfftn up to rounding
        a = _random_field(9, nu=0.1)
        corr = build_corrector_set(a, OPTS)
        comps = _stacked(corr.phi, corr.sigma)
        radii = (1.0, 2.0, 4.0)
        want = mean_ball_variance([rfftn(c) for c in comps], radii, GRID)
        got = growth_profile(corr, radii)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("grid", [GRID, GridSpec(3, 16)])
    def test_streamed_rows_equal_the_stacked_ones(self, grid):
        # the stream yields rfftn of each extended component, in order:
        # phi's rows bit for bit, and each sigma row from its own q_i by
        # CorrectorSet.sigma's curl and multiplier, up to rounding
        a = _random_field(11, nu=0.1, grid=grid)
        phi, _ = compute_corrector(a, OPTS)
        q, _ = _flux_and_ahom(a, phi)
        want = [rfftn(c) for c in _stacked(phi, _sigma_from_q(q))]
        rows = list(extended_spectra(CorrectorSet(a, phi, [])))
        assert len(rows) == len(want)
        d = grid.d
        assert all(np.array_equal(r, w) for r, w in zip(rows[:d], want))
        for r, w in zip(rows[d:], want[d:]):
            assert np.max(np.abs(r - w)) <= 1e-12 * np.max(np.abs(w))


class TestIO:
    @pytest.mark.parametrize("grid", [GRID, GridSpec(3, 16)])
    def test_saved_files_match_the_set(self, tmp_path, grid):
        a = _random_field(10, grid=grid)
        corr = build_corrector_set(a, OPTS)
        save_corrector_set(corr, tmp_path)
        for name, want in (("phi", corr.phi), ("q", corr.q),
                           ("sigma", corr.sigma.values)):
            got = load_field(tmp_path / f"{name}.bin")
            assert np.array_equal(got, want.reshape(got.shape))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["a_hom"] == corr.a_hom.tolist()
        assert summary["residuals"] == [r.residual for r in corr.reports]
        assert summary["residuals"][0] <= 1e-11
