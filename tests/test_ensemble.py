import csv
import io
import sys
import tracemalloc

import numpy as np
import pytest

from homlab import diagnostics, ensemble, kernels, lattice
from homlab.elliptic import SolveError, SolveOptions
from homlab.ensemble import (ExperimentPlan, fit_linear, fit_power_law,
                             fit_tail, records_to_csv, run_ensemble,
                             sample_coefficients, summarize)


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(kind="bogus")
        with pytest.raises(ValueError):
            ExperimentPlan(kind="fblock")
        with pytest.raises(ValueError):
            ExperimentPlan(kind="scaling", m=1)
        with pytest.raises(ValueError):
            ExperimentPlan(kind="scaling", n=32, radii=(16.0,))
        with pytest.raises(ValueError):
            ExperimentPlan(kind="twoscale", grids=())

    def test_one_grid_twoscale_rejected(self):
        # a rate needs two grids: one grid used to run every realization
        # and then fail in summarize
        with pytest.raises(ValueError, match="two grids"):
            ExperimentPlan(kind="twoscale", grids=(16,))

    def test_growth_radii_capped_at_eighth(self):
        # growth_profile needs R <= L/8; L/4 stays valid for other kinds
        with pytest.raises(ValueError):
            ExperimentPlan(kind="growth", n=64, radii=(16,))
        ExperimentPlan(kind="growth", n=64, radii=(8,))
        ExperimentPlan(kind="scaling", n=64, radii=(16,))

    @pytest.mark.parametrize("bad", [
        dict(radii=(0.25,)), dict(grids=(16, 15)), dict(delta=0.0),
        dict(deltas=(0.1, -0.1)), dict(tol=0.1), dict(max_iter=0),
        dict(lam=1.5), dict(nu=0.5), dict(gamma=0.0), dict(gamma=1.5),
        dict(gamma=np.nan), dict(gamma=np.inf), dict(nu=np.nan),
        # repeated record labels: f"{r:g}" reads 2.0000001 as 2
        dict(radii=(2.0, 2.0)), dict(radii=(2.0, 2.0000001)),
        dict(grids=(16, 16)), dict(deltas=(0.1, 0.1)),
        # through plan.opts(): not an integer, or a bool
        dict(max_iter=2.5), dict(max_iter=True)])
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


class TestGrowthMemory:
    def test_realization_holds_no_stacked_sigma(self):
        # a growth realization keeps a, phi and a bounded number of grid
        # temporaries; stacking grad phi, q and sigma (27 grid fields in
        # 3D) put its traced peak near 43 grid fields
        plan = ExperimentPlan(kind="growth", d=3, n=32, gamma=3.5, m=2,
                              radii=(2.0, 4.0))
        ensemble._run_growth(plan, 0)  # caches its multipliers untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ensemble._run_growth(plan, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 32**3 * 8

    def test_excess_realization_holds_no_gradient_stack(self):
        # excess reads grad phi at the ball's cells only; a corrector set
        # that held its d x d gradient stack put the traced peak of one 2D
        # realization near 23.5 grid fields, against 19.5 without it
        plan = ExperimentPlan(kind="excess", d=2, n=64, m=2)
        ensemble._run_excess(plan, 0)  # caches its multipliers untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ensemble._run_excess(plan, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 21.5 * 64**2 * 8

    @pytest.mark.parametrize("d", [2, 3])
    def test_tail_makes_the_sigma_rows_once(self, d, monkeypatch):
        # one Poisson solve per sigma row, d * d(d-1)/2 of them, however
        # many thresholds the realization reads
        real = lattice.poisson_solve
        calls = []

        def counted(rhs):
            calls.append(None)
            return real(rhs)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("homlab")
                    and getattr(mod, "poisson_solve", None) is real):
                monkeypatch.setattr(mod, "poisson_solve", counted)
        plan = ExperimentPlan(kind="tail", d=d, n=16 if d == 3 else 32,
                              gamma=2.5 if d == 2 else 3.5, m=2,
                              deltas=(1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0))
        vals = ensemble._run_tail(plan, 0)
        assert sorted(vals) == ["rstar_d0.03125", "rstar_d0.0625",
                                "rstar_d0.125"]
        assert len(calls) == d * d * (d - 1) // 2


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
        assert np.isclose(fit.slope, -1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(2.0, 1.0), (4.0, -0.5)])

    def test_linear(self):
        x = np.arange(5.0)
        fit = fit_linear(x, 2.0 * x + 1.0)
        assert np.isclose(fit.slope, 2.0)
        assert fit.r_squared == 1.0

    @pytest.mark.parametrize("x", [[1.0, 1.0], [3.0], [2.0, 2.0, 2.0]])
    def test_linear_without_two_distinct_x_rejected(self, x):
        # [1, 1] against [1, 2] used to give slope 0.75 and R^2 0 with only
        # a RankWarning
        with pytest.raises(ValueError, match="2 distinct"):
            fit_linear(x, np.arange(1.0, len(x) + 1.0))


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

    @pytest.mark.parametrize("kind, grids", [("growth", ()),
                                             ("twoscale", (16, 32))])
    def test_csv_values_parse_as_floats(self, kind, grids):
        # these runners return numpy scalars, whose repr under numpy 2 is
        # np.float64(...), not a number
        plan = ExperimentPlan(kind=kind, n=32, m=2, master_seed=1,
                              grids=grids)
        text = records_to_csv(run_ensemble(plan))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows and all(row["failed"] == "0" for row in rows)
        for row in rows:
            float(row["value"])

    def test_tail_constant_model_degenerate(self):
        plan = ExperimentPlan(kind="tail", n=16, m=40, master_seed=0,
                              constant_model=True)
        recs = run_ensemble(plan)
        out = summarize(plan, recs)
        assert out["fits"]["0.0625"]["degenerate"]

    @pytest.mark.parametrize("kind", ["scaling", "growth"])
    def test_grid_16_default_radii_summarize(self, kind):
        # with the single radius 2, every realization would run and then
        # the fit would have one point
        plan = ExperimentPlan(kind=kind, n=16, m=3, master_seed=1)
        assert plan.effective_radii().tolist() == [1.0, 2.0]
        out = summarize(plan, run_ensemble(plan))
        assert out["radii"] == [1.0, 2.0] and out["failures"] == 0
        fitted = out["slope"] if kind == "scaling" else out["loglinear_slope"]
        assert np.isfinite(fitted)

    @pytest.mark.parametrize("n, want", [(32, [2.0, 4.0]),
                                         (64, [4.0, 8.0]),
                                         (128, [8.0, 16.0])])
    def test_default_radii_from_grid_32(self, n, want):
        plan = ExperimentPlan(kind="scaling", n=n)
        assert plan.effective_radii().tolist() == want

    def test_growth_summary(self):
        plan = ExperimentPlan(kind="growth", n=32, m=2, master_seed=1)
        out = summarize(plan, run_ensemble(plan))
        assert out["kind"] == "growth"
        assert len(out["V"]) == len(out["radii"])

    def test_twoscale_small(self):
        plan = ExperimentPlan(kind="twoscale", n=16, m=2, master_seed=1,
                              grids=(16, 32))
        out = summarize(plan, run_ensemble(plan))
        assert len(out["errors"]) == 2
        assert out["errors"][1] < out["errors"][0]

    def test_unconverged_ball_solve_fails_realization(self, monkeypatch):
        real = diagnostics.solve_dirichlet_ball

        def unconverged(a, ball, boundary, opts=None):
            return real(a, ball, boundary, SolveOptions(max_iter=1))

        monkeypatch.setattr(diagnostics, "solve_dirichlet_ball", unconverged)
        plan = ExperimentPlan(kind="excess", n=32, m=2, master_seed=0,
                              constant_model=True)
        with pytest.raises(SolveError) as exc:
            ensemble._run_excess(plan, 0)
        rep = exc.value.report
        assert (rep.iterations, rep.converged) == (1, False)
        assert rep.residual > plan.tol
        with pytest.raises(RuntimeError, match="2/2 realizations failed; "
                           "first error: cg did not converge"):
            run_ensemble(plan)

    @pytest.mark.parametrize("kind, module, name, plan", [
        ("excess", diagnostics, "solve_dirichlet_ball",
         dict(n=32, constant_model=True)),
        ("twoscale", ensemble, "solve_divform_rhs",
         dict(n=16, grids=(16, 32)))], ids=["excess", "twoscale"])
    def test_unconverged_solve_recorded_as_failed(self, monkeypatch, kind,
                                                  module, name, plan):
        # the first realization's ball (excess) or heterogeneous torus
        # (twoscale) solve stops after one step: that realization alone is
        # recorded as failed, with the solver's message; a = c Id would
        # make the torus preconditioner exact, so twoscale samples a field
        real, calls = getattr(module, name), []

        def first_capped(*args):
            calls.append(None)
            if len(calls) == 1:
                args = args[:-1] + (SolveOptions(max_iter=1),)
            return real(*args)

        monkeypatch.setattr(module, name, first_capped)
        plan = ExperimentPlan(kind=kind, m=10, master_seed=0, **plan)
        recs = run_ensemble(plan)
        assert [rec.failed for rec in recs] == [True] + [False] * 9
        assert recs[0].error.startswith("cg did not converge: residual ")
        assert recs[0].error.endswith(" after 1 steps")
        # one solve per realization and grid; the failed one stops at its
        # first grid
        assert len(calls) == (10 if kind == "excess" else 19)

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
