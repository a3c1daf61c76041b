import numpy as np
import pytest

import homlab.corrector
import homlab.kernels
import homlab.sensitivity
from homlab.corrector import build_corrector_set, compute_corrector
from homlab.elliptic import SolveError, SolveOptions
from homlab.lattice import GridSpec, grad
from homlab.partition import lattice_partition_labels
from homlab.randomfield import (CoefficientField, CoefficientModel,
                                CovarianceSpec, SeedSpec, sample_gaussian,
                                to_coefficients)
from homlab.sensitivity import (FunctionalSpec, carre_du_champ, fd_check,
                                functional_value, malliavin_derivative)

GRID = GridSpec(2, 32)
OPTS = SolveOptions(tol=1e-12)


def _field(seed=0, nu=0.1):
    spec = CovarianceSpec(2.5, 0.0)
    g1 = sample_gaussian(spec, GRID, SeedSpec(seed, 0))
    g2 = (sample_gaussian(spec, GRID, SeedSpec(seed, 0, salt=1))
          if nu else None)
    return to_coefficients(g1, CoefficientModel(0.25, nu), g2, GRID)


def _weight(seed=0):
    return np.random.default_rng(seed).standard_normal((2,) + GRID.shape)


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts with no shared corrector or cell-response solves
    (both live in the one memo)."""
    homlab.sensitivity._memo.clear()
    yield
    homlab.sensitivity._memo.clear()


def _count_solves(monkeypatch):
    """List that records "corrector" / "response" / "adjoint" for every
    torus solve the sensitivity layer makes from now on."""
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(homlab.corrector, "solve_divform",
                        counting("corrector", homlab.corrector.solve_divform))
    monkeypatch.setattr(homlab.sensitivity, "solve_divform",
                        counting("response",
                                 homlab.sensitivity.solve_divform))
    monkeypatch.setattr(homlab.sensitivity, "solve_divform_rhs",
                        counting("adjoint",
                                 homlab.sensitivity.solve_divform_rhs))
    return calls


class TestDigest:
    @pytest.mark.parametrize("kind", ["phi", "sigma"])
    def test_fd_check_reuses_the_derivative_digest(self, monkeypatch, kind):
        # given the derivative, fd_check hashes the coefficients 0 times and
        # returns what it returns without it; ``a`` itself is not perturbed
        a = _field(3)
        before = a.a.copy()
        spec = FunctionalSpec(kind, _weight(3))
        deriv = malliavin_derivative(a, spec, OPTS)
        hashed = []
        real = homlab.sensitivity._digest

        def spy(b):
            hashed.append(b)
            return real(b)

        monkeypatch.setattr(homlab.sensitivity, "_digest", spy)
        got = fd_check(a, spec, (5, 9), np.eye(2), 1e-5, OPTS, deriv)
        assert hashed == []
        want = fd_check(a, spec, (5, 9), np.eye(2), 1e-5, OPTS)
        assert len(hashed) == 1  # the derivative's own, made inside
        assert got == want
        assert np.array_equal(a.a, before)


    def test_cell_responses_share_one_operator(self, monkeypatch):
        # the d response solves of a cell run the symmetry test and the
        # coupled columns once
        a = _field(4)
        calls = []

        def counting(fn):
            def wrapped(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(CoefficientField, "is_symmetric",
                            counting(CoefficientField.is_symmetric))
        monkeypatch.setattr(homlab.kernels, "coupled_columns",
                            counting(homlab.kernels.coupled_columns))
        w = homlab.sensitivity._cell_responses(
            a, (5, 9), OPTS, homlab.sensitivity._digest(a))
        assert w.shape == (2,) + GRID.shape
        assert sorted(calls) == ["coupled_columns", "is_symmetric"]


class TestUnconverged:
    """A solve of the sensitivity layer that stops above tol raises
    SolveError; the layer has no check of its own."""

    CAPPED = SolveOptions(tol=OPTS.tol, max_iter=1)

    @pytest.mark.parametrize("kind", ["phi", "sigma"])
    def test_adjoint_solve_raises(self, monkeypatch, kind):
        real = homlab.sensitivity.solve_divform_rhs
        monkeypatch.setattr(homlab.sensitivity, "solve_divform_rhs",
                            lambda at, rhs, opts: real(at, rhs, self.CAPPED))
        with pytest.raises(SolveError) as exc:
            malliavin_derivative(_field(5), FunctionalSpec(kind, _weight(5)),
                                 OPTS)
        rep = exc.value.report
        assert (rep.iterations, rep.converged) == (1, False)
        assert rep.residual > OPTS.tol

    def test_cell_response_solve_raises_and_stores_nothing(self,
                                                          monkeypatch):
        a = _field(5)
        spec = FunctionalSpec("phi", _weight(5))
        deriv = malliavin_derivative(a, spec, OPTS)
        real = homlab.sensitivity.solve_divform
        monkeypatch.setattr(homlab.sensitivity, "solve_divform",
                            lambda op, g, opts: real(op, g, self.CAPPED))
        with pytest.raises(SolveError) as exc:
            fd_check(a, spec, (5, 9), np.eye(2), None, OPTS, deriv)
        rep = exc.value.report
        assert (rep.iterations, rep.converged) == (1, False)
        # only the corrector is stored, and a later check solves afresh
        assert [key[3] for key in homlab.sensitivity._memo] == ["phi"]
        monkeypatch.undo()
        err, _, _ = fd_check(a, spec, (5, 9), np.eye(2), None, OPTS, deriv)
        assert err < 1e-4


class TestSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            FunctionalSpec("flux", _weight())
        with pytest.raises(ValueError):
            FunctionalSpec("sigma", _weight(), pair=(1, 0))


class TestAdjoint:
    @pytest.mark.parametrize("kind", ["phi", "sigma"])
    def test_fd_agreement(self, kind):
        a = _field(1)
        spec = FunctionalSpec(kind, _weight(1))
        err, fd, adj = fd_check(a, spec, (5, 9), np.eye(2), 1e-5, OPTS)
        assert err < 1e-4

    def test_skew_perturbation(self):
        a = _field(2)
        da = np.array([[0.0, 1.0], [-1.0, 0.0]])
        spec = FunctionalSpec("phi", _weight(2))
        err, _, _ = fd_check(a, spec, (3, 3), da, 1e-5, OPTS)
        assert err < 1e-4

    def test_bias_is_first_order(self):
        a = _field(3)
        spec = FunctionalSpec("phi", _weight(3))
        deriv = malliavin_derivative(a, spec, OPTS)
        e1, _, _ = fd_check(a, spec, (7, 2), np.eye(2), 2e-4, OPTS, deriv)
        e2, _, _ = fd_check(a, spec, (7, 2), np.eye(2), 1e-4, OPTS, deriv)
        assert e2 < 0.75 * e1 + 1e-7

    @pytest.mark.parametrize("kind", ["phi", "sigma"])
    def test_error_scale_survives_orthogonal_perturbation(self, kind):
        # delta_a Frobenius-orthogonal to dF/da at the cell: the adjoint
        # prediction is ~0, yet the relative error stays small and O(t)
        a = _field(1)
        spec = FunctionalSpec(kind, _weight(1))
        deriv = malliavin_derivative(a, spec, OPTS)
        cell = (5, 9)
        local = deriv.deriv[(Ellipsis,) + cell]
        da = np.eye(2) - np.sum(local * np.eye(2)) / np.sum(local**2) * local
        da /= np.linalg.norm(da)
        e1, _, adj = fd_check(a, spec, cell, da, 2e-5, OPTS, deriv)
        e2, _, _ = fd_check(a, spec, cell, da, 1e-5, OPTS, deriv)
        assert abs(adj) < 1e-12
        assert e1 <= 1e-4
        assert 0.35 * e1 < e2 < 0.65 * e1

    def test_linearity_in_weight(self):
        a = _field(4)
        g1, g2 = _weight(4), _weight(5)
        d1 = malliavin_derivative(a, FunctionalSpec("phi", g1), OPTS)
        d2 = malliavin_derivative(a, FunctionalSpec("phi", g2), OPTS)
        d12 = malliavin_derivative(a, FunctionalSpec("phi", g1 + g2), OPTS)
        assert np.allclose(d12.deriv, d1.deriv + d2.deriv, atol=1e-7)

    def test_functional_value_matches_definition(self):
        from homlab.corrector import compute_corrector
        from homlab.lattice import grad
        a = _field(5)
        g = _weight(6)
        spec = FunctionalSpec("phi", g)
        phi, _ = compute_corrector(a, OPTS, directions=[0])
        want = float(np.sum(grad(phi[0]) * g))
        assert np.isclose(functional_value(a, spec, OPTS), want)


class TestValueReuse:
    SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)

    @pytest.mark.parametrize("kind", ["phi", "sigma"])
    def test_value_is_functional_value(self, kind):
        a = _field(7)
        spec = FunctionalSpec(kind, _weight(8))
        deriv = malliavin_derivative(a, spec, OPTS)
        assert deriv.value == functional_value(a, spec, OPTS)
        assert deriv.opts == OPTS

    def test_sigma_value_matches_full_corrector_set(self):
        a = _field(9)
        g = _weight(9)
        spec = FunctionalSpec("sigma", g, direction=1)
        corr = build_corrector_set(a, OPTS)
        want = float(np.sum(grad(corr.sigma.component(1, 0, 1)) * g))
        assert np.isclose(functional_value(a, spec, OPTS), want,
                          rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["phi", "sigma"])
    def test_fd_equals_fresh_difference_quotient(self, kind):
        # the fresh quotient re-solves the perturbed corrector; both carry
        # solve errors of order tol / t, and the largest gap measured over
        # 12 fields, 3 cells, both perturbations and t = 1e-5, 2e-5 was
        # 7.9e-9 in err's units
        a = _field(10)
        spec = FunctionalSpec(kind, _weight(10))
        cell, t = (4, 11), 1e-5
        deriv = malliavin_derivative(a, spec, OPTS)
        for da in (np.eye(2), self.SKEW):
            err, fd, adj = fd_check(a, spec, cell, da, t, OPTS, deriv)
            a2 = a.a.copy()
            a2[(Ellipsis,) + cell] += t * da
            pert = CoefficientField(a2, a.lam_eff, a.grid)
            want = (functional_value(pert, spec, OPTS)
                    - functional_value(a, spec, OPTS)) / t
            local = deriv.deriv[(Ellipsis,) + cell]
            want_adj = float(np.sum(local * da))
            assert adj == want_adj
            scale = float(np.linalg.norm(local) * np.linalg.norm(da))
            assert err == abs(fd - want_adj) / scale
            assert abs(fd - want) <= 5e-8 * scale
            assert (err, fd, adj) == fd_check(a, spec, cell, da, t, OPTS)

    @pytest.mark.parametrize("kind", ["phi", "sigma"])
    def test_first_check_on_a_cell_solves_d_responses(self, kind,
                                                      monkeypatch):
        a = _field(11)
        spec = FunctionalSpec(kind, _weight(11))
        deriv = malliavin_derivative(a, spec, OPTS)
        calls = _count_solves(monkeypatch)
        first = fd_check(a, spec, (2, 6), np.eye(2), 1e-5, OPTS, deriv)
        assert calls == ["response"] * 2
        repeat = fd_check(a, spec, (2, 6), np.eye(2), 1e-5, OPTS, deriv)
        fd_check(a, spec, (2, 6), self.SKEW, 2e-5, OPTS, deriv)
        assert calls == ["response"] * 2
        assert repeat == first

    def test_derivative_options_must_match(self):
        a = _field(12)
        spec = FunctionalSpec("phi", _weight(12))
        loose = malliavin_derivative(a, spec, SolveOptions(tol=1e-8))
        with pytest.raises(ValueError):
            fd_check(a, spec, (1, 1), np.eye(2), 1e-5, OPTS, loose)
        with pytest.raises(ValueError):
            fd_check(a, spec, (1, 1), np.eye(2), 1e-5, None, loose)


class TestSharedSolves:
    SKEW = TestValueReuse.SKEW

    def test_hit_equals_fresh_solve(self):
        a = _field(13)
        first = homlab.sensitivity._corrector(a, 1, OPTS)
        assert homlab.sensitivity._corrector(a, 1, OPTS) is first
        fresh, _ = compute_corrector(a, OPTS, directions=[1])
        assert np.array_equal(first, fresh[0])

    def test_options_and_coefficients_are_keyed(self, monkeypatch):
        a = _field(14)
        homlab.sensitivity._corrector(a, 0, OPTS)
        calls = _count_solves(monkeypatch)
        homlab.sensitivity._corrector(a, 0, OPTS)
        assert calls == []
        homlab.sensitivity._corrector(a, 0, SolveOptions(tol=1e-11))
        assert calls == ["corrector"]
        homlab.sensitivity._corrector(a, 1, OPTS)
        assert calls == ["corrector"] * 2
        a.a[0, 0, 3, 5] += 1e-3
        phi = homlab.sensitivity._corrector(a, 0, OPTS)
        assert calls == ["corrector"] * 3
        fresh, _ = compute_corrector(a, OPTS, directions=[0])
        assert np.array_equal(phi, fresh[0])

    def test_default_options_share_the_key(self, monkeypatch):
        a = _field(15)
        homlab.sensitivity._corrector(a, 0, None)
        calls = _count_solves(monkeypatch)
        homlab.sensitivity._corrector(a, 0, SolveOptions())
        assert calls == []

    def test_cached_arrays_are_read_only(self):
        a = _field(16)
        phi = homlab.sensitivity._corrector(a, 0, OPTS)
        with pytest.raises(ValueError):
            phi[0, 0] = 1.0

    def test_memo_is_bounded(self):
        a = _field(17)
        for step in range(8):
            a2 = a.a.copy()
            a2[0, 0, step, 0] += 1e-3
            homlab.sensitivity._corrector(
                CoefficientField(a2, a.lam_eff, a.grid), 0, OPTS)
            assert len(homlab.sensitivity._memo) <= 5
        assert len(homlab.sensitivity._memo) == 5

    def test_memo_holds_at_most_its_field_budget(self):
        # phi_i entries and response sets of several fields, counted by
        # the arrays the memo holds
        a = _field(22)
        memo = homlab.sensitivity._memo
        budget = homlab.sensitivity._MEMO_FIELDS * a.a[0, 0].size
        for step in range(3):
            a2 = a.a.copy()
            a2[0, 0, step, 0] += 1e-3
            b = CoefficientField(a2, a.lam_eff, a.grid)
            digest = homlab.sensitivity._digest(b)
            for call in (
                    lambda: homlab.sensitivity._corrector(b, 0, OPTS, digest),
                    lambda: homlab.sensitivity._cell_responses(
                        b, (step, 1), OPTS, digest),
                    lambda: homlab.sensitivity._corrector(b, 1, OPTS, digest)):
                call()
                assert sum(v.size for _, v in memo.values()) <= budget

    def test_phi_then_sigma_solves_five_times(self, monkeypatch):
        # criterion 3's sequence: for each kind one derivative, then fd
        # checks at t and t/2 for a symmetric and a skew perturbation.
        # phi_0 and the cell's 2 responses are solved once; each kind adds
        # one adjoint solve.
        a = _field(18)
        g = _weight(18)
        calls = _count_solves(monkeypatch)
        for kind in ("phi", "sigma"):
            spec = FunctionalSpec(kind, g)
            deriv = malliavin_derivative(a, spec, OPTS)
            for da in (np.eye(2), self.SKEW):
                for t in (2e-5, 1e-5):
                    fd_check(a, spec, (9, 4), da, t, OPTS, deriv)
        assert calls.count("corrector") == 1
        assert calls.count("response") == 2
        assert calls.count("adjoint") == 2
        assert len(calls) == 5


class TestRankUpdate:
    """The perturbed corrector from the cell responses against a fresh
    solve on the perturbed field."""

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("nu", [0.0, 0.1])
    @pytest.mark.parametrize("corner", [False, True],
                             ids=["interior", "last"])
    def test_matches_fresh_solve(self, d, n, nu, corner):
        grid = GridSpec(d, n)
        cov = CovarianceSpec(d + 0.5, 0.0)
        g1 = sample_gaussian(cov, grid, SeedSpec(19, d))
        g2 = (sample_gaussian(cov, grid, SeedSpec(19, d, salt=1))
              if nu else None)
        a = to_coefficients(g1, CoefficientModel(0.25, nu), g2, grid)
        cell = (n - 1,) * d if corner else (5, 9, 3)[:d]
        # a step large enough that ||fresh - phi|| dwarfs the solve error
        c = 0.1 * (np.eye(d) + 0.3 * np.random.default_rng(d).standard_normal(
            (d, d)))
        a2 = a.a.copy()
        a2[(Ellipsis,) + cell] += c
        pert = CoefficientField(a2, a.lam_eff, grid)
        digest = homlab.sensitivity._digest(a)
        for i in range(d):
            phi = homlab.sensitivity._corrector(a, i, OPTS, digest)
            upd = homlab.sensitivity._perturbed_corrector(a, i, cell, c, OPTS,
                                                          digest)
            fresh, _ = compute_corrector(pert, OPTS, directions=[i])
            assert (np.linalg.norm(upd - fresh[0])
                    <= 1e-8 * np.linalg.norm(fresh[0] - phi))


class TestValidation:
    @pytest.mark.parametrize("cell,delta_a,t", [
        ((5, 9), np.ones(2), 1e-5),
        ((5, 9), np.full((2, 2), np.nan), 1e-5),
        ((5, 9), np.full((3, 3), 1.0), 1e-5),
        ((5, 9), np.eye(2), 0.0),
        ((5, 9), np.eye(2), np.inf),
        ((5, 9), np.eye(2), np.nan),
        ((-1, 3), np.eye(2), 1e-5),
        ((32, 3), np.eye(2), 1e-5),
        ((1, 2, 3), np.eye(2), 1e-5),
        ((1,), np.eye(2), 1e-5),
        ((1.0, 2), np.eye(2), 1e-5),
    ], ids=["delta_a-vector", "delta_a-nan", "delta_a-3x3", "t-zero",
            "t-inf", "t-nan", "cell-negative", "cell-n", "cell-3d",
            "cell-1d", "cell-float"])
    def test_fd_check_rejects(self, cell, delta_a, t):
        a = _field(20)
        spec = FunctionalSpec("phi", _weight(20))
        with pytest.raises(ValueError):
            fd_check(a, spec, cell, delta_a, t, OPTS)


class TestCarreDuChamp:
    def _deriv(self):
        a = _field(6)
        return malliavin_derivative(a, FunctionalSpec("phi", _weight(7)),
                                    OPTS)

    def test_monotone_under_coarsening(self):
        deriv = self._deriv()
        finest = np.arange(GRID.n**2).reshape(GRID.shape)
        coarsest = np.zeros(GRID.shape, dtype=np.int64)
        labels = lattice_partition_labels(GRID, 0.3)
        v_fine = carre_du_champ(deriv, finest)
        v_mid = carre_du_champ(deriv, labels)
        v_coarse = carre_du_champ(deriv, coarsest)
        assert v_fine <= v_mid + 1e-12
        assert v_mid <= v_coarse + 1e-12

    def test_gap_rejected(self):
        deriv = self._deriv()
        labels = np.zeros(GRID.shape, dtype=np.int64)
        labels[0, 0] = -1
        with pytest.raises(ValueError):
            carre_du_champ(deriv, labels)

    def test_shape_mismatch_rejected(self):
        deriv = self._deriv()
        with pytest.raises(ValueError):
            carre_du_champ(deriv, np.zeros((8, 8), dtype=np.int64))

    def test_single_cell_value(self):
        deriv = self._deriv()
        labels = np.zeros(GRID.shape, dtype=np.int64)
        want = float(np.sum(np.abs(deriv.deriv)) ** 2)
        assert np.isclose(carre_du_champ(deriv, labels), want)
