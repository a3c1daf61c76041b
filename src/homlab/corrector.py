"""Correctors, fluxes, the homogenized tensor and flux correctors.

For each direction e_i the corrector phi_i is the zero-mean torus solution
of -div(a (grad phi_i + e_i)) = 0, the flux is
q_i = a (grad phi_i + e_i) - a_hom e_i with a_hom e_i the torus mean of
a (grad phi_i + e_i), and the flux corrector sigma_ijk solves
-lap sigma_ijk = d_j q_ik - d_k q_ij spectrally (forward differences on the
right, so that div sigma_i = q_i holds up to the corrector residual).
A ``CorrectorSet`` holds the coefficients, all d correctors phi and the
solve reports, and is the one input of everything made from them.  Its
a_hom is made once, on its first access; its q and sigma are made on each
access, and the gradients of phi where they are read.  Every sigma is made
from one stream of right-hand sides on the set, which makes each q_i when
it is reached: ``CorrectorSet.sigma`` stacks their Poisson solves, and the
components of (phi, sigma) come one at a time from ``extended_rows(corr)``
in real space and ``extended_spectra(corr)`` as rfft half spectra, each
sigma row's spectrum straight from its right-hand side.
"""

import json
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.fft import rfftn

from .elliptic import SolveOptions, operator, solve_divform
from .lattice import (_inverse_laplacian, _pdiff, grad, poisson_solve,
                      save_field)
from .randomfield import CoefficientField

__all__ = [
    "SkewField",
    "CorrectorSet",
    "compute_corrector",
    "sigma_component",
    "build_corrector_set",
    "extended_rows",
    "extended_spectra",
    "save_corrector_set",
]


def _pairs(d):
    return [(j, k) for j in range(d) for k in range(j + 1, d)]


@dataclass
class SkewField:
    """sigma_ijk skew in (j, k), stored only for j < k; shape
    (d, n_pairs) + grid."""

    values: np.ndarray
    d: int

    def component(self, i, j, k):
        if j == k:
            return np.zeros(self.values.shape[2:])
        sign = 1.0
        if j > k:
            j, k, sign = k, j, -1.0
        return sign * self.values[i, _pairs(self.d).index((j, k))]

    def divergence(self):
        """(div sigma_i)_j = sum_k d_k sigma_ijk, backward differences;
        shape (d, d) + grid."""
        d = self.d
        out = np.zeros((d, d) + self.values.shape[2:])
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if k == j:
                        continue
                    out[i, j] += _pdiff(self.component(i, j, k), k, False)
        return out


@dataclass
class CorrectorSet:
    """The d correctors of ``a`` and their solve reports; a_hom is made
    once, on first access, and q and sigma on each access."""

    a: CoefficientField
    phi: np.ndarray              # (d,) + grid
    reports: list

    def __post_init__(self):
        if len(self.phi) != self.a.grid.d:  # a row's position is its direction
            raise ValueError(f"need all {self.a.grid.d} correctors, "
                             f"got {len(self.phi)}")

    @cached_property
    def a_hom(self):
        """(d, d): column i is the torus mean of a (grad phi_i + e_i)."""
        return np.stack([_flux(self.a, grad(phi_i), i)[1]
                         for i, phi_i in enumerate(self.phi)], axis=1)

    @property
    def q(self):
        """(d, d) + grid, [i, j] = (q_i)_j, made on each access, one row
        at a time into the returned array."""
        d = self.a.grid.d
        q = np.empty((d, d) + self.a.grid.shape)
        for i in range(d):
            q[i] = _flux(self.a, grad(self.phi[i]), i)[0]
        return q

    @property
    def sigma(self):
        """The Poisson solves of the stream of sigma right-hand sides,
        stacked; spectrally exact, zero mean, made on each access."""
        d, shape = self.a.grid.d, self.a.grid.shape
        vals = np.empty((d, len(_pairs(d))) + shape)
        for row, curl in zip(vals.reshape((-1,) + shape), _curls(self)):
            row[...] = poisson_solve(curl)
        return SkewField(vals, d)


def compute_corrector(a: CoefficientField, opts: SolveOptions = None,
                      directions=None):
    """phi_i for the requested directions (all by default), stacked in
    the order requested: shape (len(directions),) + grid."""
    directions = range(a.grid.d) if directions is None else directions
    phi = np.empty((len(directions),) + a.grid.shape)
    reports = []
    op = operator(a)
    for row, i in enumerate(directions):
        phi[row], rep = solve_divform(op, a.a[:, i], opts)  # g = a e_i
        reports.append(rep)
    return phi, reports


def _flux(a: CoefficientField, dphi_i, i):
    """q_i = a (grad phi_i + e_i) minus its torus mean, and that mean, from
    ``dphi_i`` = grad phi_i, which is overwritten."""
    d = a.grid.d
    dphi_i[i] += 1.0
    flux = np.einsum("pq...,q...->p...", a.a, dphi_i)
    mean = flux.reshape(d, -1).mean(axis=1)
    flux -= mean.reshape((d,) + (1,) * d)
    return flux, mean


def _curl(q_i, j, k):
    """d_j q_ik - d_k q_ij with forward differences: the right-hand side of
    the sigma_ijk equation, as (d_j q_ik - q_ij(x + e_k)) + q_ij."""
    out = _pdiff(q_i[k], j)
    v, w = np.swapaxes(q_i[j], 0, k), np.swapaxes(out, 0, k)
    w[:-1] -= v[1:]
    w[-1:] -= v[:1]
    return np.add(out, q_i[j], out=out)


def _curls(corr: CorrectorSet):
    """The right-hand side of sigma_ijk for each i in turn and its pairs
    j < k in order, each made when it is reached from q_i, itself made from
    phi_i when reached."""
    for i, phi_i in enumerate(corr.phi):
        q_i = _flux(corr.a, grad(phi_i), i)[0]
        for j, k in _pairs(corr.a.grid.d):
            yield _curl(q_i, j, k)
        del q_i  # before the stream makes the next one


def sigma_component(a: CoefficientField, phi_i, i, j, k):
    """The one component sigma_ijk, from phi_i alone: the flux q_i and a
    single Poisson solve, equal to ``CorrectorSet.sigma``'s."""
    return poisson_solve(_curl(_flux(a, grad(phi_i), i)[0], j, k))


def extended_rows(corr: CorrectorSet):
    """The components of the extended corrector (phi, sigma), made when
    reached: phi's rows, then sqrt(2) sigma_ijk for each i and pair j < k,
    so that the plain sum of squares is |(phi, sigma)|^2 (each unordered
    pair stands for both orderings); neither q nor sigma is held whole."""
    return chain(corr.phi, (poisson_solve(c) * np.sqrt(2.0)
                            for c in _curls(corr)))


def extended_spectra(corr: CorrectorSet):
    """rfftn of each of ``extended_rows(corr)``, made when reached: each
    sigma row's spectrum is sqrt(2) K^-1 rfftn(curl)."""
    mult = np.sqrt(2.0) * _inverse_laplacian(corr.a.grid.shape)
    return chain(map(rfftn, corr.phi), (np.multiply(s, mult, out=s)
                                        for s in map(rfftn, _curls(corr))))


def build_corrector_set(a: CoefficientField, opts: SolveOptions = None):
    """The set of the correctors of all d directions; its a_hom is made on
    first access."""
    return CorrectorSet(a, *compute_corrector(a, opts))


def save_corrector_set(corr: CorrectorSet, outdir):
    """Directory of binary fields (phi, q and sigma) plus a JSON summary."""
    os.makedirs(outdir, exist_ok=True)
    d = corr.a.grid.d
    save_field(os.path.join(outdir, "phi.bin"), corr.phi, d)
    save_field(os.path.join(outdir, "q.bin"), corr.q, d)
    save_field(os.path.join(outdir, "sigma.bin"), corr.sigma.values, d)
    energy = [float(np.mean(grad(corr.phi[i]) ** 2) * d) for i in range(d)]
    summary = {
        "schema": 1,
        "d": d,
        "n": corr.a.grid.n,
        "a_hom": corr.a_hom.tolist(),
        "lambda_eff": corr.a.lam_eff,
        "residuals": [r.residual for r in corr.reports],
        "gradient_energy": energy,
    }
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    return summary

