"""Stationary Gaussian fields with prescribed covariance decay, and the
pointwise transform into admissible coefficient fields.

The decay exponent gamma labels the covariance envelope (1+r)^(-gamma).
For gamma < d the spectral density carries the matching power-law
singularity at k = 0 (long-range correlations); for gamma >= d a
Matern-type integrable spectrum is used, whose (exponentially decaying)
covariance satisfies the same envelope.  The coarseness label is
beta_eff = max(0, 1 - gamma/d).  White noise is filtered by real transforms,
with sqrt(density) on the rfft half spectrum cached per (spec, grid).
"""

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr  # standard normal CDF, vectorized

from .lattice import GridSpec, _spectral_multiply

__all__ = [
    "CovarianceSpec",
    "CoefficientModel",
    "CoefficientField",
    "SeedSpec",
    "sample_gaussian",
    "to_coefficients",
    "empirical_covariance",
    "beta_effective",
    "constant_coefficients",
    "check_admissible",
]

_KCUT = np.pi  # spectral cap: unit correlation length


def beta_effective(gamma, d):
    return max(0.0, 1.0 - gamma / d)


@dataclass(frozen=True)
class CovarianceSpec:
    gamma: float
    beta_target: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.gamma < np.inf:  # also false for nan
            raise ValueError(f"gamma must be positive and finite, got "
                             f"{self.gamma}")
        if not 0.0 <= self.beta_target < 1.0:
            raise ValueError("beta_target must lie in [0, 1)")

    def validate(self, d):
        # integrability of the covariance envelope against (1+r)^(-d*beta)
        if self.gamma <= d * (1.0 - self.beta_target):
            raise ValueError(
                f"need gamma > d(1-beta): gamma={self.gamma}, "
                f"d={d}, beta={self.beta_target}")


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream derivation: distinct (seed, index) pairs give
    independent streams, identical pairs reproduce bit-identical fields."""

    master_seed: int
    realization_index: int = 0
    salt: int = 0

    def rng(self):
        key = f"{self.master_seed}:{self.realization_index}:{self.salt}"
        digest = hashlib.sha256(key.encode()).digest()
        words = np.frombuffer(digest[:16], dtype=np.uint32)
        return np.random.default_rng(np.random.SeedSequence(list(words)))


@dataclass(frozen=True)
class CoefficientModel:
    lam: float = 0.25
    skew_amplitude: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        nu_max = (1.0 - self.lam) / 2.0
        if not 0.0 <= self.skew_amplitude <= nu_max:  # also false for nan
            raise ValueError(
                f"skew amplitude must lie in [0, {nu_max}] for lambda="
                f"{self.lam} to keep the symmetric part elliptic")


@dataclass
class CoefficientField:
    """Per-cell d x d matrices, shape (d, d) + grid; the symmetric part has
    ellipticity >= lam_eff and the operator norm is <= 1, per cell."""

    a: np.ndarray
    lam_eff: float
    grid: GridSpec

    def transpose(self):
        return CoefficientField(np.swapaxes(self.a, 0, 1).copy(),
                                self.lam_eff, self.grid)

    def is_symmetric(self):
        return _is_symmetric(self.a)


def _is_symmetric(a):
    """max |a_ij - a_ji| <= 1e-13 over cells and the pairs i > j."""
    return all(float(np.max(np.abs(a[i, j] - a[j, i]))) <= 1e-13
               for i in range(len(a)) for j in range(i))


def _spectral_density(spec: CovarianceSpec, grid: GridSpec):
    """Unnormalized radial spectral density on the discrete wavevector
    lattice, zero mode nulled."""
    d, n = grid.d, grid.n
    k2 = sum(f**2 for f in np.ix_(*[2.0 * np.pi * np.fft.fftfreq(n)] * d))
    kk = np.sqrt(k2)
    if spec.gamma < d:
        dens = np.minimum(np.maximum(kk, 1e-300), _KCUT) ** (spec.gamma - d)
    else:
        # Matern profile at unit correlation length; exponent tied to gamma
        # so the spectrum stays integrable and smooth across gamma >= d
        dens = (1.0 + k2) ** (-(spec.gamma + d) / 2.0)
    dens[(0,) * d] = 0.0
    total = dens.sum()
    return dens * (n**d / total)  # unit variance at the origin


@lru_cache(maxsize=4)
def _filter(spec: CovarianceSpec, grid: GridSpec):
    """Read-only sqrt of ``_spectral_density`` on the rfft half spectrum."""
    filt = np.sqrt(_spectral_density(spec, grid)[..., :grid.n // 2 + 1])
    filt.flags.writeable = False
    return filt


def sample_gaussian(spec: CovarianceSpec, grid: GridSpec, seed: SeedSpec):
    """Zero-mean unit-variance stationary Gaussian field, sampled by
    spectral filtering of white noise; the density is real and even in k,
    so the filtered field is real and a real transform pair suffices."""
    spec.validate(grid.d)
    white = seed.rng().standard_normal(grid.shape)
    return _spectral_multiply(white, _filter(spec, grid))


def to_coefficients(g_sym, model: CoefficientModel, g_skew, grid: GridSpec):
    """a(x) = [lam + (1-lam) Phi(g_sym)] Id + nu (2 Phi(g_skew) - 1) J,
    rescaled by the worst-case operator-norm bound so |a(x) xi| <= |xi|;
    ``g_skew`` is None when nu = 0."""
    d = grid.d
    nu = model.skew_amplitude
    if nu > 0.0 and g_skew is None:
        raise ValueError("skew amplitude > 0 requires a skew Gaussian field")
    scale = 1.0 / np.sqrt(1.0 + nu**2)  # applied before the blocks are set
    sym = (model.lam + (1.0 - model.lam) * ndtr(g_sym)) * scale
    a = np.zeros((d, d) + grid.shape)
    for i in range(d):
        a[i, i] = sym
    if nu > 0.0:
        w = nu * (2.0 * ndtr(g_skew) - 1.0) * scale
        a[0, 1] -= w  # J: the rotation generator (about e3 when d=3)
        a[1, 0] += w
    return CoefficientField(a, lam_eff=model.lam * scale, grid=grid)


def constant_coefficients(grid: GridSpec, matrix=None):
    """a == matrix (default identity) everywhere; handy control ensemble."""
    d = grid.d
    if matrix is None:
        matrix = np.eye(d)
    matrix = np.asarray(matrix, dtype=np.float64)
    a = np.empty((d, d) + grid.shape)
    a[...] = matrix.reshape((d, d) + (1,) * d)
    lam = float(np.min(np.linalg.eigvalsh((matrix + matrix.T) / 2)))
    return CoefficientField(a, lam_eff=lam, grid=grid)


def check_admissible(field: CoefficientField, tol=1e-12):
    """Per-cell symmetric-part ellipticity >= lam_eff and operator norm <= 1."""
    a = field.a
    d = a.shape[0]
    mats = np.moveaxis(a.reshape(d, d, -1), -1, 0)
    sym = (mats + np.swapaxes(mats, 1, 2)) / 2
    eig_min = np.linalg.eigvalsh(sym)[:, 0]
    op_norm = np.linalg.norm(mats, ord=2, axis=(1, 2))
    return (float(eig_min.min()) >= field.lam_eff - tol
            and float(op_norm.max()) <= 1.0 + tol)


def empirical_covariance(samples, max_lag=None):
    """c(r) along e1: average of u(x) u(x + r e1) over x and samples."""
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    n = samples[0].shape[0]
    if max_lag is None:
        max_lag = n // 2
    lags = np.arange(max_lag + 1)
    acc = np.zeros(max_lag + 1)
    for u in samples:
        for r in lags:
            acc[r] += float(np.mean(u * np.roll(u, -r, axis=0)))
    return lags, acc / len(samples)
