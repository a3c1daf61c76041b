"""Correctors, fluxes, the homogenized tensor, flux correctors, and their
massive-term modifications.

For each direction e_i the corrector phi_i is the zero-mean torus solution
of -div(a (grad phi_i + e_i)) = 0, the flux is
q_i = a (grad phi_i + e_i) - a_hom e_i with a_hom e_i the torus mean of
a (grad phi_i + e_i), and the flux corrector sigma_ijk solves
-lap sigma_ijk = d_j q_ik - d_k q_ij spectrally (forward differences on the
right, so that div sigma_i = q_i holds up to the corrector residual).
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .elliptic import SolveOptions, SolveReport, solve_divform
from .lattice import (Ball, GridSpec, ball_average, box_mollify, div, grad,
                      laplacian_symbol, load_field, poisson_solve, save_field,
                      spectral_solve)
from .randomfield import CoefficientField

__all__ = [
    "SkewField",
    "CorrectorSet",
    "ModifiedCorrectorSet",
    "HomogenizedTensor",
    "compute_corrector",
    "compute_flux_and_ahom",
    "compute_sigma",
    "sigma_component",
    "compute_modified",
    "compute_F_RT",
    "build_corrector_set",
    "extended_components",
]


def _pairs(d):
    return [(j, k) for j in range(d) for k in range(j + 1, d)]


@dataclass
class SkewField:
    """sigma_ijk skew in (j, k), stored only for j < k; shape
    (d, n_pairs) + grid."""

    values: np.ndarray
    d: int

    @property
    def pairs(self):
        return _pairs(self.d)

    def component(self, i, j, k):
        if j == k:
            return np.zeros(self.values.shape[2:])
        sign = 1.0
        if j > k:
            j, k, sign = k, j, -1.0
        p = self.pairs.index((j, k))
        return sign * self.values[i, p]

    def divergence(self):
        """(div sigma_i)_j = sum_k d_k sigma_ijk, backward differences;
        shape (d, d) + grid."""
        d = self.d
        shape = self.values.shape[2:]
        out = np.zeros((d, d) + shape)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if k == j:
                        continue
                    comp = self.component(i, j, k)
                    out[i, j] += comp - np.roll(comp, 1, axis=k)
        return out


@dataclass
class HomogenizedTensor:
    matrix: np.ndarray
    ellipticity: float
    op_norm: float


@dataclass
class CorrectorSet:
    grid: GridSpec
    phi: np.ndarray              # (d,) + grid
    grad_phi: np.ndarray         # (d, d) + grid, [i, j] = d_j phi_i
    q: np.ndarray                # (d, d) + grid, [i, j] = (q_i)_j
    a_hom: np.ndarray            # (d, d)
    sigma: SkewField
    lam_eff: float
    reports: list = field(default_factory=list)


@dataclass
class ModifiedCorrectorSet:
    grid: GridSpec
    T: float
    phi_T: np.ndarray            # (d,) + grid
    q_T: np.ndarray              # (d, d) + grid
    sigma_T: SkewField
    q_T_moll: np.ndarray         # (d, d) + grid
    reports: list = field(default_factory=list)


def compute_corrector(a: CoefficientField, opts: SolveOptions = None,
                      directions=None):
    """phi_i for the requested directions (all by default), stacked in
    the order requested: shape (len(directions),) + grid."""
    directions = range(a.grid.d) if directions is None else directions
    phi = np.empty((len(directions),) + a.grid.shape)
    reports = []
    for row, i in enumerate(directions):
        g = a.a[:, i]  # a e_i as a vector field
        u, rep = solve_divform(a, g, 0.0, opts)
        if not rep.converged:
            raise RuntimeError(
                f"corrector solve for direction {i} did not converge "
                f"(residual {rep.residual:.3e})")
        phi[row] = u
        reports.append(rep)
    return phi, reports


def _flux(a: CoefficientField, phi_i, i):
    """a (grad phi_i + e_i) and its torus mean."""
    d = a.grid.d
    gp = grad(phi_i)
    gp[i] += 1.0
    flux = np.einsum("pq...,q...->p...", a.a, gp)
    return flux, flux.reshape(d, -1).mean(axis=1)


def _curl(q_i, j, k):
    """d_j q_ik - d_k q_ij with forward differences: the right-hand side of
    the sigma_ijk equation."""
    return (np.roll(q_i[k], -1, axis=j) - q_i[k]
            - np.roll(q_i[j], -1, axis=k) + q_i[j])


def compute_flux_and_ahom(a: CoefficientField, phi):
    """Fluxes q_i (mean-zero exactly) and a_hom column i =
    mean of a (grad phi_i + e_i); ``phi`` must hold all d correctors."""
    d = a.grid.d
    if phi.shape[0] != d:
        raise ValueError(f"need all {d} correctors, got {phi.shape[0]}")
    q = np.zeros((d, d) + a.grid.shape)
    a_hom = np.zeros((d, d))
    for i in range(d):
        flux, mean = _flux(a, phi[i], i)
        a_hom[:, i] = mean
        q[i] = flux - mean.reshape((d,) + (1,) * d)
    sym = (a_hom + a_hom.T) / 2
    tensor = HomogenizedTensor(
        a_hom,
        ellipticity=float(np.linalg.eigvalsh(sym).min()),
        op_norm=float(np.linalg.norm(a_hom, 2)),
    )
    return q, tensor


def compute_sigma(q):
    """sigma_ijk solving -lap sigma_ijk = d_j q_ik - d_k q_ij with forward
    differences on the right; spectrally exact, zero mean."""
    d = q.shape[0]
    shape = q.shape[2:]
    pairs = _pairs(d)
    vals = np.zeros((d, len(pairs)) + shape)
    for i in range(d):
        for p, (j, k) in enumerate(pairs):
            vals[i, p] = poisson_solve(_curl(q[i], j, k))
    return SkewField(vals, d)


def sigma_component(a: CoefficientField, phi_i, i, j, k):
    """The one component sigma_ijk, from phi_i alone: the flux q_i and a
    single Poisson solve, equal to ``compute_sigma``'s."""
    d = a.grid.d
    flux, mean = _flux(a, phi_i, i)
    return poisson_solve(_curl(flux - mean.reshape((d,) + (1,) * d), j, k))


def compute_modified(a: CoefficientField, T, opts: SolveOptions = None):
    """Massive-term correctors: (1/T) phi_T - div(a(grad phi_T + e)) = 0,
    q_T = a(grad phi_T + e), (1/T) sigma_T - lap sigma_T = curl q_T
    (spectrally exact), and the sqrt(T)-scale moving average of q_T."""
    if T < 1.0:
        raise ValueError("cut-off T must be >= 1")
    grid = a.grid
    d = grid.d
    phi_T = np.zeros((d,) + grid.shape)
    q_T = np.zeros((d, d) + grid.shape)
    reports = []
    for i in range(d):
        u, rep = solve_divform(a, a.a[:, i], 1.0 / T, opts)
        if not rep.converged:
            raise RuntimeError(f"modified corrector solve failed: {rep}")
        phi_T[i] = u
        q_T[i] = _flux(a, u, i)[0]
        reports.append(rep)
    pairs = _pairs(d)
    vals = np.zeros((d, len(pairs)) + grid.shape)
    sym = 1.0 / T + laplacian_symbol(grid.shape, rfft=True)
    for i in range(d):
        for p, (j, k) in enumerate(pairs):
            vals[i, p] = spectral_solve(_curl(q_T[i], j, k), sym)
    sigma_T = SkewField(vals, d)
    scale = min(np.sqrt(T), grid.n / 4)
    q_moll = box_mollify(q_T, scale, grid)
    return ModifiedCorrectorSet(grid, float(T), phi_T, q_T, sigma_T,
                                q_moll, reports)


def extended_components(phi, sigma: SkewField):
    """Stacked components of the extended corrector (phi, sigma) scaled so
    that the plain sum of squares equals |(phi, sigma)|^2 (each unordered
    sigma pair stands for both orderings, hence the sqrt(2) weight)."""
    shape = phi.shape[1:]
    sig = sigma.values.reshape((-1,) + shape) * np.sqrt(2.0)
    return np.concatenate([phi, sig], axis=0)


def compute_F_RT(mod: ModifiedCorrectorSet, R, center=None):
    """Building-block functional: F^2 averages (1/T)|(phi_T, sigma_T)|^2
    plus the centered square fluctuation of the mollified flux over B_R."""
    grid = mod.grid
    if not np.sqrt(mod.T) <= R <= grid.n / 4:
        raise ValueError("need sqrt(T) <= R <= L/4")
    center = center or (0.0,) * grid.d
    ball = Ball(tuple(center), float(R))
    comps = extended_components(mod.phi_T, mod.sigma_T)
    sq = ball_average(np.sum(comps**2, axis=0), ball, grid)
    q = mod.q_T_moll.reshape((-1,) + grid.shape)
    means = ball_average(q, ball, grid).ravel()
    fluct = 0.0
    for comp, mean in zip(q, means):
        fluct += ball_average((comp - mean) ** 2, ball, grid)
    f_sq = sq / mod.T + fluct
    return float(np.sqrt(max(f_sq, 0.0)))


def build_corrector_set(a: CoefficientField, opts: SolveOptions = None):
    """Correctors of all d directions, their fluxes, a_hom and sigma."""
    phi, reports = compute_corrector(a, opts)
    q, tensor = compute_flux_and_ahom(a, phi)
    sigma = compute_sigma(q)
    gp = np.stack([grad(phi[i]) for i in range(a.grid.d)])
    return CorrectorSet(a.grid, phi, gp, q, tensor.matrix, sigma,
                        a.lam_eff, reports)


def save_corrector_set(corr: CorrectorSet, outdir):
    """Directory of binary fields plus a JSON summary."""
    os.makedirs(outdir, exist_ok=True)
    d = corr.grid.d
    save_field(os.path.join(outdir, "phi.bin"), corr.phi, d)
    save_field(os.path.join(outdir, "q.bin"), corr.q, d)
    save_field(os.path.join(outdir, "sigma.bin"), corr.sigma.values, d)
    energy = [float(np.mean(corr.grad_phi[i] ** 2) * d) for i in range(d)]
    summary = {
        "schema": 1,
        "d": d,
        "n": corr.grid.n,
        "a_hom": corr.a_hom.tolist(),
        "lambda_eff": corr.lam_eff,
        "residuals": [r.residual for r in corr.reports],
        "gradient_energy": energy,
    }
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    return summary


def load_corrector_set(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    d, n = summary["d"], summary["n"]
    grid = GridSpec(d, n)
    phi = load_field(os.path.join(outdir, "phi.bin")).reshape((d,) + grid.shape)
    q = load_field(os.path.join(outdir, "q.bin")).reshape((d, d) + grid.shape)
    sig = load_field(os.path.join(outdir, "sigma.bin"))
    sigma = SkewField(sig.reshape((d, len(_pairs(d))) + grid.shape), d)
    gp = np.stack([grad(phi[i]) for i in range(d)])
    return CorrectorSet(grid, phi, gp, q, np.array(summary["a_hom"]), sigma,
                        summary["lambda_eff"], [])
