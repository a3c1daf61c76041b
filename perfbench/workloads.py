"""The benchmark's three workloads, driven through homlab's public API.

Each workload makes its inputs from the run's seed and runs in rounds: a
round is one ``run_ensemble`` of two realizations plus ``summarize`` for the
ensemble workloads, and one realization for ``sensitivity-2d``.  Homlab
functions are looked up on their modules at call time, so the spans that
``spans.Tracer`` installs see every call.

``setup`` is one set-up: the inputs that do not change between rounds and
one warm-up realization at workload size.  ``round`` returns an ``Outcome``
per realization.  ``check_round`` and ``check_run`` compare outputs with
``reference`` and add the problems they find to the outcomes;
``check_run`` also returns the problems of the run as a whole.
"""

import math

import numpy as np

import reference as ref

# seeds of a run: round k of seed s uses master seed s * _STRIDE + k; the
# warm-up realization uses the last master seed of the run's block
_STRIDE = 1_000_000
_WARM = _STRIDE - 1


class _StopAfterOne(Exception):
    """Raised from the progress callback to end a warm-up ensemble after
    its first realization."""


def _stop_after_one(done, total):
    raise _StopAfterOne


class Outcome:
    """One realization: wall time (None if it did not complete), its
    outputs and the problems found in them."""

    def __init__(self, seconds, problems=(), data=None):
        self.seconds = seconds
        self.problems = list(problems)
        self.data = data

    @property
    def failed(self):
        return self.seconds is None or bool(self.problems)


class _Ensemble:
    """Rounds of ``run_ensemble`` with two realizations and ``summarize``;
    the realization time is read from the progress callback."""

    plan_args = {}
    per_round = 2

    def __init__(self, hl, seed):
        self.hl = hl
        self.seed = seed
        self.extra = {}

    def plan(self, master_seed):
        return self.hl.ensemble.ExperimentPlan(
            m=self.per_round, master_seed=master_seed, **self.plan_args)

    def setup(self):
        try:
            self.hl.ensemble.run_ensemble(
                self.plan(self.seed * _STRIDE + _WARM),
                progress=_stop_after_one)
        except _StopAfterOne:
            pass

    def round(self, k, clock):
        plan = self.plan(self.seed * _STRIDE + k)
        marks = [clock()]
        try:
            records = self.hl.ensemble.run_ensemble(
                plan, progress=lambda done, total: marks.append(clock()))
            self.hl.ensemble.summarize(plan, records)
        except RuntimeError as exc:
            return [Outcome(None, [f"run_ensemble raised: {exc}"])
                    for _ in range(self.per_round)]
        return [Outcome(None, [rec.error]) if rec.failed
                else Outcome(t1 - t0, data=(plan, rec))
                for rec, t0, t1 in zip(records, marks, marks[1:])]

    def check_round(self, outcomes):
        for o in outcomes:
            if o.data is not None:
                o.problems += self.check_values(o.data[1].values)


class Growth3D(_Ensemble):
    """Growth of (phi, sigma) in 3D: corrector set, sigma and the FFT
    growth profile of every realization."""

    name = "growth-3d"
    plan_args = dict(kind="growth", d=3, n=64, lam=0.25, gamma=3.5,
                     radii=(4.0, 8.0))

    def check_record(self, plan, rec):
        """Re-derive the realization from its seed and check the corrector
        residual, div sigma = q, the Voigt-Reuss bounds and the recorded
        V_r against Parseval."""
        hl = self.hl
        a = hl.ensemble.sample_coefficients(plan, rec.index)
        corr = hl.corrector.build_corrector_set(a, plan.opts())
        problems = []
        res = max(ref.corrector_residual(a.a, corr.phi[i], i)
                  for i in range(plan.d))
        if not res <= 2.0 * plan.tol:
            problems.append(f"corrector residual {res:.2e}")
        sig = ref.sigma_divergence_error(corr.sigma.values, corr.q)
        if not sig <= 1e-6:
            problems.append(f"div sigma - q relative error {sig:.2e}")
        margin = min(ref.voigt_reuss_margin(a.a[i, i], corr.a_hom[i, i])
                     for i in range(plan.d))
        if not margin >= -1e-9:
            problems.append(f"Voigt-Reuss margin {margin:.2e}")
        comps = ref.extended_components(corr.phi, corr.sigma.values)
        worst = 0.0
        for r in plan.radii:
            want = ref.growth_value_parseval(comps, r)
            got = rec.values[f"V_r{r:g}"]
            worst = max(worst, abs(got - want) / abs(want))
        if not worst <= 1e-9:
            problems.append(f"V_r differs from Parseval by {worst:.2e}")
        self.extra.update(residual=res, sigma_error=sig,
                          voigt_reuss_margin=margin, parseval_error=worst)
        return problems

    def check_values(self, values):
        vals = list(values.values())
        if all(math.isfinite(v) and v > 0.0 for v in vals):
            return []
        return [f"V_r not finite and positive: {vals}"]

    def check_run(self, outcomes, rng):
        """One seeded realization re-derived in full."""
        done = [o for o in outcomes if o.data is not None]
        if done:
            pick = int(rng.integers(len(done)))
            done[pick].problems += self.check_record(*done[pick].data)
            self.extra["checked_realization"] = pick
        return []


class Excess2D(_Ensemble):
    """Excess decay in 2D: corrector set, minimal radius and the
    Dirichlet-ball solve with excesses of every realization."""

    name = "excess-2d"
    plan_args = dict(kind="excess", d=2, n=256, lam=0.25, gamma=2.5)

    def check_values(self, v):
        exc = [x for key, x in v.items() if key.startswith("exc_r")]
        if (math.isfinite(v["rstar"]) and math.isfinite(v["exponent"])
                and exc and min(exc) > 0.0):
            return []
        return [f"r_*, exponent or excesses not finite and positive: {v}"]

    def check_run(self, outcomes, rng):
        """Median exponent over the run, and the a = I control."""
        exponents = [o.data[1].values["exponent"] for o in outcomes
                     if o.data is not None]
        problems = []
        if exponents:
            med = float(np.median(exponents))
            self.extra["median_exponent"] = med
            if not med >= 0.8:
                problems.append(f"median excess exponent {med:.3f} < 0.8")
        return problems + self.control(rng)

    def control(self, rng):
        """a = I: the ball solve returns the harmonic quadratic, and the
        excess is the closed-form ball variance of its gradient."""
        hl = self.hl
        plan = self.plan(0)
        grid = plan.grid()
        opts = plan.opts()
        a0 = hl.randomfield.constant_coefficients(grid)
        corr0 = hl.corrector.build_corrector_set(a0, opts)
        center = (0, 0)
        boundary = hl.diagnostics.harmonic_quadratic(corr0.a_hom, grid,
                                                     center, rng)
        q = ref.quadratic_coefficients(boundary, center, grid.d)
        problems = []
        size = float(np.max(np.abs(boundary)))
        if not np.allclose(ref.quadratic_field(q, center, grid.shape),
                           boundary, rtol=0.0, atol=1e-12 * size):
            problems.append("harmonic_quadratic is not x^T Q x")
        if not abs(np.trace(q)) <= 1e-12:
            problems.append(f"boundary quadratic not harmonic: tr Q = "
                            f"{np.trace(q):.2e}")
        big = grid.n / 4
        u, rep = hl.elliptic.solve_dirichlet_ball(
            a0, hl.lattice.Ball(center, big), boundary, opts)
        inside = ref.ball_offsets(big, grid.d) % grid.n
        scale = float(np.max(np.abs(boundary[tuple(inside.T)])))
        dev = float(np.max(np.abs(u - boundary))) / scale
        if not (rep.converged and dev <= 1e-6):
            problems.append(f"control ball solve moved the harmonic "
                            f"quadratic by {dev:.2e} ({rep})")
        gu = hl.lattice.grad(u)
        worst = 0.0
        for r in (4.0, 8.0, 16.0, 32.0):
            got = hl.diagnostics.excess(gu, corr0,
                                        hl.lattice.Ball(center, r)).excess
            want = ref.quadratic_gradient_variance(q, r)
            worst = max(worst, abs(got - want) / want)
        if not worst <= 1e-6:
            problems.append(f"control excess off the closed form by "
                            f"{worst:.2e}")
        self.extra.update(control_ball_deviation=dev,
                          control_excess_error=worst)
        return problems


class Sensitivity2D:
    """Adjoint derivatives of the phi and sigma functionals on a
    non-symmetric field, their finite-difference checks at steps t and t/2,
    and the carre du champ over the partition labels."""

    name = "sensitivity-2d"
    n = 256
    half_width = 364.5
    beta = 0.3
    gamma_partition = 1.9       # 2 (1 - beta) + 0.5, as in criterion 10
    steps = (1.0, 0.5)          # multiples of t = 1e-4 lam_eff

    def __init__(self, hl, seed):
        self.hl = hl
        self.seed = seed
        self.extra = {}
        self.gaps = []

    def setup(self):
        """Certify the partition, label the torus window, and run one
        warm-up realization."""
        part = self.hl.partition
        self.part = part.build_partition(self.half_width, self.beta, 2)
        self.refinement = part.check_refinement(self.part)
        self.sup = part.interaction_sum(self.part, self.gamma_partition)
        self.grid = self.hl.lattice.GridSpec(2, self.n)
        self.labels = part.lattice_partition_labels(self.grid, self.beta)
        self.extra["partition_cells"] = len(self.part.sides)
        self._realization(_WARM)

    def _realization(self, index):
        hl = self.hl
        rf, sens = hl.randomfield, hl.sensitivity
        cov = rf.CovarianceSpec(2.5)
        g_sym = rf.sample_gaussian(cov, self.grid, rf.SeedSpec(self.seed,
                                                               index))
        g_skew = rf.sample_gaussian(cov, self.grid,
                                    rf.SeedSpec(self.seed, index, salt=1))
        a = rf.to_coefficients(g_sym, rf.CoefficientModel(0.25, 0.1),
                               g_skew, self.grid)
        rng = np.random.default_rng([self.seed, index])
        g = rng.standard_normal((2,) + self.grid.shape)
        g /= np.sqrt(np.mean(np.sum(g**2, axis=0)))
        cell = tuple(int(c) for c in rng.integers(0, self.n, 2))
        opts = hl.elliptic.SolveOptions(tol=1e-12)
        t = 1e-4 * a.lam_eff
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
        out = []
        for kind in ("phi", "sigma"):
            spec = sens.FunctionalSpec(kind, g)
            deriv = sens.malliavin_derivative(a, spec, opts)
            fds = []
            for da in (np.eye(2), skew):
                vals = [sens.fd_check(a, spec, cell, da, s * t, opts,
                                      deriv)[1:] for s in self.steps]
                fds.append((da, vals))
            cdc = sens.carre_du_champ(deriv, self.labels)
            out.append((kind, deriv, cell, fds, cdc))
        return out

    def round(self, k, clock):
        t0 = clock()
        try:
            result = self._realization(k)
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            return [Outcome(None, [f"realization raised: {exc}"])]
        return [Outcome(clock() - t0, data=result)]

    def check_round(self, outcomes):
        for o in outcomes:
            if o.data is not None:
                o.problems += self._check(o.data)
                o.data = None   # the derivative fields are large

    def _check(self, result):
        """Adjoint against finite differences (gap <= 1e-4 relative to the
        derivative's size at the cell, and O(t): halving t halves it), and
        the carre du champ against per-label sums."""
        problems = []
        for kind, deriv, cell, fds, cdc in result:
            local = deriv.deriv[(Ellipsis,) + cell]
            for da, ((fd1, adj), (fd2, _)) in fds:
                scale = float(np.linalg.norm(local) * np.linalg.norm(da))
                g1, g2 = (fd1 - adj) / scale, (fd2 - adj) / scale
                self.gaps.append((float(g1), float(g2)))
                if not abs(g1) <= 1e-4:
                    problems.append(f"{kind}: fd gap {g1:.2e} > 1e-4")
                if not abs(g1 - 2.0 * g2) <= 0.25 * abs(g1) + 1e-6:
                    problems.append(f"{kind}: fd gap {g1:.2e} at t, "
                                    f"{g2:.2e} at t/2, not O(t)")
            l1 = np.sum(np.abs(deriv.deriv), axis=(0, 1))
            want = ref.label_square_sums(self.labels, l1)
            if not abs(cdc - want) <= 1e-10 * want:
                problems.append(f"{kind}: carre du champ {cdc!r} != "
                                f"{want!r}")
        return problems

    def check_run(self, outcomes, rng):
        """The partition: labels against cells, the interaction sum against
        brute force at a small width and against full sums at the
        workload width."""
        hl = self.hl
        problems = ref.label_cell_mismatches(self.labels, self.part.corners,
                                             self.part.sides)
        small = hl.partition.build_partition(40.5, self.beta, 2)
        got = hl.partition.interaction_sum(small, self.gamma_partition)
        want = ref.interaction_sup(small.corners, small.sides,
                                   self.gamma_partition)
        if not abs(got - want) <= 1e-12 * want:
            problems.append(f"interaction_sum {got!r} != brute force "
                            f"{want!r} at width 40.5")
        corners, sides = self.part.corners, self.part.sides
        central = np.nonzero(np.all((corners <= 0.0)
                                    & (corners + sides[:, None] > 0.0),
                                    axis=1))[0]
        if len(central) != 1:
            problems.append(f"{len(central)} partition cells hold the origin")
        cells = np.concatenate([central, rng.choice(len(sides), 4,
                                                    replace=False)])
        sums = ref.interaction_sums(corners, sides, self.gamma_partition,
                                    cells)
        if not np.all(sums <= self.sup * (1 + 1e-12)):
            problems.append(f"interaction_sum {self.sup!r} below a full "
                            f"sum {float(np.max(sums))!r}")
        self.extra.update(
            refinement_constant=self.refinement, interaction_sup=self.sup,
            central_sum=float(sums[0]), fd_gaps=self.gaps)
        return problems


WORKLOADS = {w.name: w for w in (Growth3D, Excess2D, Sensitivity2D)}
