import numpy as np
import pytest

from homlab import diagnostics, ensemble, kernels
from homlab.elliptic import SolveReport
from homlab.ensemble import (ExperimentPlan, bootstrap_slope, fit_linear,
                             fit_power_law, fit_tail, records_to_csv,
                             run_ensemble, sample_coefficients, summarize)


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(kind="bogus")
        with pytest.raises(ValueError):
            ExperimentPlan(kind="scaling", m=1)
        with pytest.raises(ValueError):
            ExperimentPlan(kind="scaling", n=32, radii=(16.0,))

    def test_growth_radii_capped_at_eighth(self):
        # growth_profile needs R <= L/8; L/4 stays valid for other kinds
        with pytest.raises(ValueError):
            ExperimentPlan(kind="growth", n=64, radii=(16,))
        ExperimentPlan(kind="growth", n=64, radii=(8,))
        ExperimentPlan(kind="scaling", n=64, radii=(16,))

    @pytest.mark.parametrize("bad", [
        dict(radii=(0.25,)), dict(grids=(16, 15)), dict(delta=0.0),
        dict(deltas=(0.1, -0.1)), dict(tol=0.1), dict(max_iter=0),
        dict(lam=1.5), dict(nu=0.5), dict(gamma=0.0), dict(gamma=1.5)])
    def test_config_values_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            ExperimentPlan(**dict(dict(kind="scaling", n=32), **bad))

    def test_constant_model_ignores_field_parameters(self):
        ExperimentPlan(kind="scaling", n=32, gamma=1.5, constant_model=True)

    def test_sampling_deterministic(self):
        plan = ExperimentPlan(kind="scaling", n=16, m=2, master_seed=3)
        a1 = sample_coefficients(plan, 0)
        a2 = sample_coefficients(plan, 0)
        assert np.array_equal(a1.a, a2.a)
        assert not np.array_equal(a1.a, sample_coefficients(plan, 1).a)


class TestFits:
    def test_power_law_exact(self):
        r = np.array([2.0, 4.0, 8.0, 16.0])
        fit = fit_power_law(list(zip(r, 1.0 / r)))
        assert np.isclose(fit.slope, -1.0)
        assert fit.r_squared == 1.0

    def test_power_law_noisy(self):
        rng = np.random.default_rng(0)
        r = np.geomspace(2.0, 64.0, 12)
        y = 3.0 * r**-1.5 * np.exp(0.01 * rng.standard_normal(12))
        fit = fit_power_law(list(zip(r, y)))
        assert abs(fit.slope + 1.5) < 0.05

    def test_two_points_flagged(self):
        fit = fit_power_law([(2.0, 1.0), (4.0, 0.5)])
        assert np.isnan(fit.stderr)
        assert np.isclose(fit.slope, -1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(2.0, 1.0), (4.0, -0.5)])

    def test_linear(self):
        x = np.arange(5.0)
        fit = fit_linear(x, 2.0 * x + 1.0)
        assert np.isclose(fit.slope, 2.0)
        assert fit.r_squared == 1.0

    def test_bootstrap_brackets_slope(self):
        rng = np.random.default_rng(1)
        r = np.geomspace(2.0, 64.0, 20)
        y = r**-1.0 * np.exp(0.05 * rng.standard_normal(20))
        lo, hi = bootstrap_slope(np.column_stack([r, y]))
        assert lo <= -1.0 <= hi


class TestTailFit:
    def test_synthetic_stretched_exponential(self):
        rng = np.random.default_rng(2)
        a, C = 2.0, 30.0
        u = rng.uniform(size=4000)
        t = (-C * np.log(u)) ** (1.0 / a)        # P(r >= t) = exp(-t^a/C)
        samples = 2.0 ** np.ceil(np.log2(np.maximum(t, 1.0)))  # dyadic
        fit = fit_tail(samples, a)
        # rounding up to powers of two: P(sample >= r) = P(t > r/2)
        # = exp(-r^a / (2^a C)), so the fitted slope is -1/(4C) for a = 2
        assert fit.r_squared >= 0.98
        assert abs(fit.slope + 1.0 / (4.0 * C)) < 0.1 / (4.0 * C)

    def test_constant_degenerate(self):
        fit = fit_tail(np.ones(64), 2.0)
        assert fit.degenerate

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            fit_tail(np.arange(8, dtype=float), 2.0)


class TestConstantCoefficientSolve:
    @pytest.mark.parametrize("a_hom", [
        np.array([[1.0, 0.3], [-0.1, 0.8]]),
        np.array([[1.0, 0.3, 0.0], [-0.1, 0.8, 0.2], [0.1, -0.2, 1.2]])])
    def test_inverts_the_stencil(self, a_hom):
        # the stencil with the constant field a_hom is an independent
        # construction of the operator whose symbol the solve divides by
        d = a_hom.shape[0]
        shape = (16,) * d
        f = np.random.default_rng(d).standard_normal(shape) + 0.5
        u = ensemble._constant_coefficient_solve(a_hom, f)
        field = np.broadcast_to(a_hom.reshape((d, d) + (1,) * d),
                                (d, d) + shape)
        assert abs(u.mean()) < 1e-12
        assert np.max(np.abs(kernels.divform_apply(field, u)
                             - (f - f.mean()))) < 1e-12


class TestRunEnsemble:
    def test_constant_model_zero_functionals(self):
        plan = ExperimentPlan(kind="scaling", n=16, m=2, master_seed=0,
                              constant_model=True, radii=(2.0, 4.0))
        recs = run_ensemble(plan)
        for rec in recs:
            assert all(abs(v) < 1e-12 for v in rec.values.values())

    def test_deterministic_csv(self):
        plan = ExperimentPlan(kind="tail", n=16, m=2, master_seed=4)
        csv1 = records_to_csv(run_ensemble(plan))
        csv2 = records_to_csv(run_ensemble(plan))
        assert csv1 == csv2
        assert csv1.startswith("index,key,value,failed,error\n")
        assert "\r" not in csv1

    def test_tail_constant_model_degenerate(self):
        plan = ExperimentPlan(kind="tail", n=16, m=40, master_seed=0,
                              constant_model=True)
        recs = run_ensemble(plan)
        out = summarize(plan, recs)
        assert out["fits"]["0.0625"]["degenerate"]

    def test_growth_summary(self):
        plan = ExperimentPlan(kind="growth", n=32, m=2, master_seed=1)
        out = summarize(plan, run_ensemble(plan))
        assert out["kind"] == "growth"
        assert len(out["V"]) == len(out["radii"])

    def test_fblock_summary(self):
        plan = ExperimentPlan(kind="fblock", n=32, m=2, master_seed=1,
                              radii=(2.0, 4.0))
        out = summarize(plan, run_ensemble(plan))
        assert "monotone_decreasing" in out

    def test_twoscale_small(self):
        plan = ExperimentPlan(kind="twoscale", n=16, m=2, master_seed=1,
                              grids=(16, 32))
        out = summarize(plan, run_ensemble(plan))
        assert len(out["errors"]) == 2
        assert out["errors"][1] < out["errors"][0]

    def test_unconverged_ball_solve_fails_realization(self, monkeypatch):
        def unconverged(a, ball, boundary, opts=None):
            return boundary.copy(), SolveReport(opts.max_iter, 0.5, False)

        monkeypatch.setattr(diagnostics, "solve_dirichlet_ball", unconverged)
        plan = ExperimentPlan(kind="excess", n=32, m=2, master_seed=0,
                              constant_model=True)
        with pytest.raises(RuntimeError, match="Dirichlet-ball solve failed"):
            run_ensemble(plan)

    def test_excess_realization_records(self):
        plan = ExperimentPlan(kind="excess", n=32, m=2, master_seed=0,
                              constant_model=True)
        recs = run_ensemble(plan)
        assert not any(rec.failed for rec in recs)
        assert all(np.isfinite(rec.values["exponent"]) for rec in recs)

    @pytest.mark.parametrize("exc", [RuntimeError, ValueError,
                                     np.linalg.LinAlgError,
                                     FloatingPointError])
    def test_numeric_failure_recorded(self, monkeypatch, exc):
        calls = []

        def runner(plan, index):
            calls.append(index)
            if index == 0:
                raise exc("boom")
            return {"x": 1.0}

        monkeypatch.setitem(ensemble._RUNNERS, "scaling", runner)
        plan = ExperimentPlan(kind="scaling", n=16, m=10)
        recs = run_ensemble(plan)
        assert calls == list(range(10))
        assert recs[0].failed and recs[0].error == "boom"
        assert not any(rec.failed for rec in recs[1:])

    @pytest.mark.parametrize("exc", [TypeError, AttributeError, KeyError])
    def test_programming_error_propagates(self, monkeypatch, exc):
        def runner(plan, index):
            raise exc("bug")

        monkeypatch.setitem(ensemble._RUNNERS, "scaling", runner)
        with pytest.raises(exc):
            run_ensemble(ExperimentPlan(kind="scaling", n=16, m=10))
