"""Monte-Carlo orchestration across realizations and the statistical fits
turning per-realization functionals into scaling-law verdicts."""

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import fftfreq, rfftfreq

from .corrector import (build_corrector_set, compute_F_RT,
                        compute_corrector, compute_flux_and_ahom,
                        compute_modified, extended_components)
from .diagnostics import (dyadic_radii, excess_decay_experiment,
                          growth_profile, gradient_average, minimal_radius)
from .elliptic import SolveOptions, solve_divform_rhs
from .lattice import GridSpec, grad, spectral_solve
from .randomfield import (CoefficientModel, CovarianceSpec, SeedSpec,
                          beta_effective, constant_coefficients,
                          sample_gaussian, to_coefficients)

__all__ = [
    "ExperimentPlan",
    "ExperimentRecord",
    "FitResult",
    "run_ensemble",
    "fit_power_law",
    "fit_tail",
    "fit_linear",
    "bootstrap_slope",
    "records_to_csv",
]

KINDS = ("scaling", "growth", "tail", "twoscale", "excess", "fblock")


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str
    d: int = 2
    n: int = 64
    lam: float = 0.25
    gamma: float = 2.5
    nu: float = 0.0
    m: int = 8
    master_seed: int = 0
    delta: float = 1.0 / 16.0
    deltas: tuple = ()
    radii: tuple = ()
    grids: tuple = ()          # N ladder for the two-scale experiment
    tol: float = 1e-9
    max_iter: int = 100000
    constant_model: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.m < 2:
            raise ValueError("need at least 2 realizations")
        grid = GridSpec(self.d, self.n)
        frac = 8 if self.kind == "growth" else 4
        for r in self.radii:
            if not 0.5 <= r <= grid.n / frac:
                raise ValueError(f"{self.kind} radius {r} outside "
                                 f"[0.5, L/{frac}]")
        for n in self.grids:
            GridSpec(self.d, n)
        if not (self.delta > 0 and all(x > 0 for x in self.deltas)):
            raise ValueError("minimal-radius thresholds must be positive")
        self.opts()  # SolveOptions checks tol and max_iter
        if not self.constant_model:
            CoefficientModel(self.lam, self.nu)
            CovarianceSpec(self.gamma, self.beta_eff).validate(self.d)

    @property
    def beta_eff(self):
        return beta_effective(self.gamma, self.d)

    def grid(self, n=None):
        return GridSpec(self.d, n or self.n)

    def opts(self):
        return SolveOptions(tol=self.tol, max_iter=self.max_iter)

    def effective_radii(self, n=None):
        if self.radii:
            return np.asarray(self.radii, dtype=np.float64)
        grid = self.grid(n)
        lo = 8.0
        while lo > 2.0 and lo * 2.0 > grid.n / 8:
            lo /= 2.0  # keep at least two dyadic radii on small grids
        return dyadic_radii(grid, lo=lo)


@dataclass
class ExperimentRecord:
    index: int
    values: dict = field(default_factory=dict)
    failed: bool = False
    error: str = ""


def sample_coefficients(plan: ExperimentPlan, index, n=None):
    grid = plan.grid(n)
    if plan.constant_model:
        return constant_coefficients(grid)
    spec = CovarianceSpec(plan.gamma, plan.beta_eff)
    model = CoefficientModel(plan.lam, plan.nu)
    g_sym = sample_gaussian(spec, grid, SeedSpec(plan.master_seed, index))
    g_skew = None
    if plan.nu > 0.0:
        g_skew = sample_gaussian(spec, grid,
                                 SeedSpec(plan.master_seed, index, salt=1))
    return to_coefficients(g_sym, model, g_skew, grid)


def _aux_rng(plan, index):
    return SeedSpec(plan.master_seed, index, salt=2).rng()


def _run_scaling(plan, index):
    a = sample_coefficients(plan, index)
    opts = plan.opts()
    phi, _ = compute_corrector(a, opts, directions=[0])
    comp = grad(phi[0])[0]  # d_1 phi_1
    vals = {}
    for r in plan.effective_radii():
        vals[f"A_r{r:g}"] = gradient_average(comp, r, plan.grid())
    return vals


def _run_growth(plan, index):
    a = sample_coefficients(plan, index)
    corr = build_corrector_set(a, plan.opts())
    prof = growth_profile(corr, plan.effective_radii(), plan.beta_eff)
    return {f"V_r{r:g}": v for r, v in zip(prof.radii, prof.values)}


def _run_tail(plan, index):
    a = sample_coefficients(plan, index)
    corr = build_corrector_set(a, plan.opts())
    deltas = plan.deltas or (plan.delta,)
    vals = {}
    for delta in deltas:
        rep = minimal_radius(corr, delta)
        vals[f"rstar_d{delta:g}"] = rep.r_star
    return vals


def _run_twoscale(plan, index):
    grids = plan.grids or (16, 32, 64)
    vals = {}
    for n in grids:
        grid = plan.grid(n)
        a = sample_coefficients(plan, index, n=n)
        opts = plan.opts()
        corr = build_corrector_set(a, opts)
        ellip = float(np.min(np.linalg.eigvalsh(
            (corr.a_hom + corr.a_hom.T) / 2)))
        if ellip <= 1e-10:
            raise RuntimeError("homogenized tensor ill-conditioned")
        phi = corr.phi
        f = _product_sine(grid)
        u, rep = solve_divform_rhs(a, f, 0.0, opts)
        if not rep.converged:
            raise RuntimeError(f"heterogeneous solve failed: {rep}")
        u_hom = _constant_coefficient_solve(corr.a_hom, f)
        gu = grad(u)
        gh = grad(u_hom)
        twoscale = gh.copy()
        for i in range(grid.d):
            twoscale += gh[i] * grad(phi[i])
        num = float(np.sqrt(np.mean(np.sum((gu - twoscale) ** 2, axis=0))))
        hess = np.stack([grad(gh[i]) for i in range(grid.d)])
        # error bound prefactor: per-realization extended-corrector norm
        # (the random field C(x) controlling the local corrector size)
        comps = extended_components(corr.phi, corr.sigma)
        cnorm = float(np.sqrt(sum(np.mean(c**2) for c in comps)))
        # Hessian in macroscopic units (data varies on scale n = 1/eps)
        den = cnorm * n * float(np.sqrt(np.mean(np.sum(hess**2,
                                                       axis=(0, 1)))))
        vals[f"err_n{n}"] = num / den
        vals[f"critnorm_n{n}"] = num / den * n / np.sqrt(np.log(n))
    return vals


def _run_excess(plan, index):
    a = sample_coefficients(plan, index)
    corr = build_corrector_set(a, plan.opts())
    rep = minimal_radius(corr, plan.delta)
    r_star = rep.r_star if np.isfinite(rep.r_star) else None
    if r_star is None:
        raise RuntimeError("minimal radius sentinel: no admissible scale")
    grid = plan.grid()
    big_r = grid.n / 4
    r_lo = 2.0 * r_star
    r_list = [r for r in dyadic_radii(grid) if r_lo <= r <= grid.n / 8]
    if len(r_list) < 2:
        r_list = [r for r in dyadic_radii(grid) if r >= 2.0][-2:]
    rng = _aux_rng(plan, index)
    rows, slope, solve = excess_decay_experiment(a, corr, big_r, r_list, rng,
                                                 plan.opts())
    if not solve.converged:
        raise RuntimeError(f"Dirichlet-ball solve failed: {solve}")
    vals = {"rstar": r_star, "exponent": slope}
    for row in rows:
        vals[f"exc_r{row.radius:g}"] = row.excess
    return vals


def _run_fblock(plan, index):
    a = sample_coefficients(plan, index)
    vals = {}
    for r in plan.effective_radii():
        mod = compute_modified(a, max(r, 1.0), plan.opts())
        vals[f"F2_r{r:g}"] = compute_F_RT(mod, r) ** 2
    return vals


_RUNNERS = {
    "scaling": _run_scaling,
    "growth": _run_growth,
    "tail": _run_tail,
    "twoscale": _run_twoscale,
    "excess": _run_excess,
    "fblock": _run_fblock,
}


def _product_sine(grid: GridSpec):
    """Fixed mean-zero smooth torus data: product of single-mode sines."""
    out = np.ones(grid.shape)
    for j in range(grid.d):
        x = np.arange(grid.n, dtype=np.float64)
        sh = [1] * grid.d
        sh[j] = grid.n
        out = out * np.sin(2.0 * np.pi * x / grid.n).reshape(sh)
    return out


def _constant_coefficient_solve(a_hom, f):
    """Exact spectral solve of -div(a_hom grad u) = f - mean(f) with the
    discrete forward/backward symbols, zero-mean u.  The symbol
    conj(s_p) a_pq s_q lives on the rfft half spectrum: real a_hom makes it
    Hermitian, sym(-k) = conj(sym(k))."""
    d = f.ndim
    ss = []
    for j, n in enumerate(f.shape):
        freq = rfftfreq(n) if j == d - 1 else fftfreq(n)
        sh = [1] * d
        sh[j] = freq.size
        ss.append((np.exp(2j * np.pi * freq) - 1.0).reshape(sh))
    sym = sum(np.conj(ss[p]) * a_hom[p, q] * ss[q]
              for p in range(d) for q in range(d))
    return spectral_solve(f, sym)


def run_ensemble(plan: ExperimentPlan, progress=None):
    """One record per realization with deterministic per-index seeds;
    identical plans give bit-identical records.  Solver and numeric
    failures of a realization (RuntimeError, ValueError including
    LinAlgError, ArithmeticError) are recorded, and the run fails if more
    than 10% of realizations fail; any other exception is a programming
    error and propagates."""
    runner = _RUNNERS[plan.kind]
    records = []
    for index in range(plan.m):
        try:
            values = runner(plan, index)
            records.append(ExperimentRecord(index, values))
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            records.append(ExperimentRecord(index, {}, True, str(exc)))
        if progress is not None:
            progress(index + 1, plan.m)
    failures = sum(1 for r in records if r.failed)
    if failures > 0.1 * plan.m:
        raise RuntimeError(
            f"{failures}/{plan.m} realizations failed; first error: "
            + next(r.error for r in records if r.failed))
    return records


@dataclass
class FitResult:
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    kind: str
    degenerate: bool = False


def _least_squares(x, y, kind):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 points")
    coef, res = np.polyfit(x, y, 1), None
    slope, intercept = float(coef[0]), float(coef[1])
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    if x.size > 2:
        dof = x.size - 2
        sxx = float(np.sum((x - x.mean()) ** 2))
        stderr = float(np.sqrt(ss_res / dof / sxx))
    else:
        stderr = float("nan")  # exact interpolation, flagged undefined
    return FitResult(slope, intercept, stderr, min(r2, 1.0), kind)


def fit_power_law(pairs):
    """Least squares on (log r, log y); rejects nonpositive values."""
    pairs = [(float(r), float(y)) for r, y in pairs]
    if len(pairs) < 2:
        raise ValueError("need at least 2 pairs")
    if any(y <= 0 or r <= 0 for r, y in pairs):
        raise ValueError("power-law fit needs positive data")
    x = np.log([r for r, _ in pairs])
    y = np.log([y for _, y in pairs])
    return _least_squares(x, y, "log-log power law")


def fit_linear(x, y, kind="linear"):
    return _least_squares(x, y, kind)


def fit_tail(samples, exponent):
    """Empirical survival of r_* at dyadic levels regressed as
    log P(r_* >= r) against r**exponent."""
    samples = np.asarray([s for s in samples if np.isfinite(s)],
                         dtype=np.float64)
    if samples.size < 32:
        raise ValueError("need at least 32 finite samples")
    if np.all(samples == samples[0]):
        return FitResult(0.0, 0.0, float("nan"), 1.0,
                         "stretched-exponential tail", degenerate=True)
    levels = np.unique(samples)
    xs, ys = [], []
    for r in levels:
        p = float(np.mean(samples >= r))
        if p <= 0.0:
            continue
        xs.append(r**exponent)
        ys.append(np.log(p))
    fit = _least_squares(np.array(xs), np.array(ys),
                         "stretched-exponential tail")
    return fit


def bootstrap_slope(pairs, n_boot=1000, seed=0, log=True):
    """Bootstrap confidence interval for the fitted slope (no
    distributional assumption)."""
    rng = np.random.default_rng(seed)
    pairs = np.asarray(pairs, dtype=np.float64)
    m = pairs.shape[0]
    slopes = []
    for _ in range(n_boot):
        pick = rng.integers(0, m, size=m)
        sub = pairs[pick]
        if len(np.unique(sub[:, 0])) < 2:
            continue
        x = np.log(sub[:, 0]) if log else sub[:, 0]
        y = np.log(sub[:, 1]) if log else sub[:, 1]
        slopes.append(np.polyfit(x, y, 1)[0])
    slopes = np.sort(slopes)
    lo = slopes[int(0.025 * len(slopes))]
    hi = slopes[int(0.975 * len(slopes))]
    return float(lo), float(hi)


def records_to_csv(records):
    """Comma-separated, header row, '.' decimal, LF endings; one row per
    (realization, measured key)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "key", "value", "failed", "error"])
    for rec in records:
        if rec.failed:
            writer.writerow([rec.index, "", "", 1, rec.error])
            continue
        for key in sorted(rec.values):
            writer.writerow([rec.index, key, repr(rec.values[key]), 0, ""])
    return buf.getvalue()


def summarize(plan: ExperimentPlan, records):
    """Fit summary per experiment kind (plain dict, JSON-ready)."""
    ok = [r for r in records if not r.failed]
    out = {"schema": 1, "kind": plan.kind, "realizations": len(records),
           "failures": len(records) - len(ok), "beta_eff": plan.beta_eff}
    if plan.kind == "scaling":
        radii = plan.effective_radii()
        sds = []
        for r in radii:
            vals = [rec.values[f"A_r{r:g}"] for rec in ok]
            sds.append(float(np.std(vals, ddof=1)))
        fit = fit_power_law(list(zip(radii, sds)))
        out.update(radii=list(radii), sd=sds, slope=fit.slope,
                   r_squared=fit.r_squared,
                   expected_slope=-plan.d * (1.0 - plan.beta_eff) / 2.0)
    elif plan.kind == "growth":
        radii = plan.effective_radii()
        means = [float(np.mean([rec.values[f"V_r{r:g}"] for rec in ok]))
                 for r in radii]
        out.update(radii=list(radii), V=means)
        if all(v > 0 for v in means):
            logfit = fit_linear(np.log(radii), means, "V-vs-logR")
            out.update(loglinear_r_squared=logfit.r_squared,
                       loglinear_slope=logfit.slope,
                       ratio_last_first=means[-1] / means[0])
    elif plan.kind == "tail":
        deltas = plan.deltas or (plan.delta,)
        out["fits"] = {}
        for delta in deltas:
            samples = [rec.values[f"rstar_d{delta:g}"] for rec in ok]
            try:
                fit = fit_tail(samples, plan.d * (1.0 - plan.beta_eff))
                out["fits"][f"{delta:g}"] = {
                    "slope": fit.slope, "r_squared": fit.r_squared,
                    "degenerate": fit.degenerate,
                }
            except ValueError as exc:
                out["fits"][f"{delta:g}"] = {"error": str(exc)}
    elif plan.kind == "twoscale":
        grids = plan.grids or (16, 32, 64)
        errs = [float(np.sqrt(np.mean(
            [rec.values[f"err_n{n}"] ** 2 for rec in ok]))) for n in grids]
        crit = [float(np.median(
            [rec.values[f"critnorm_n{n}"] for rec in ok])) for n in grids]
        fit = fit_power_law([(1.0 / n, e) for n, e in zip(grids, errs)])
        out.update(grids=list(grids), errors=errs, rate=fit.slope,
                   critical_normalized=crit,
                   critical_spread=max(crit) / min(crit))
    elif plan.kind == "excess":
        exps = [rec.values["exponent"] for rec in ok
                if np.isfinite(rec.values["exponent"])]
        out.update(median_exponent=float(np.median(exps)),
                   exponents=[float(e) for e in exps])
    elif plan.kind == "fblock":
        radii = plan.effective_radii()
        means = [float(np.mean([rec.values[f"F2_r{r:g}"] for rec in ok]))
                 for r in radii]
        out.update(radii=list(radii), F2=means,
                   monotone_decreasing=all(
                       b <= a * 1.05 for a, b in zip(means, means[1:])))
    return out
