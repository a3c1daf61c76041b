"""Large-scale regularity functionals: excess, non-degeneracy, the minimal
radius and growth profiles.  The excess-decay table is returned unfitted;
``ensemble.fit_power_law`` fits its exponent."""

from dataclasses import dataclass

import numpy as np

from .corrector import CorrectorSet, extended_rows, extended_spectra
from .elliptic import SolveOptions, solve_dirichlet_ball
from .lattice import (Ball, GridSpec, _grad_at, _offsets, ball_mask, grad,
                      mean_ball_variance)

__all__ = [
    "ExcessReport",
    "MinimalRadiusReport",
    "GrowthProfile",
    "DegenerateGramError",
    "excess",
    "minimal_radius",
    "excess_decay_experiment",
    "growth_profile",
    "harmonic_quadratic",
    "dyadic_radii",
    "regime_reference",
]


_COND_LIMIT = 1e10  # Gram condition number beyond which excess raises


class DegenerateGramError(RuntimeError):
    """Gram matrix of the corrected coordinate gradients is singular;
    signals the r < r_* regime."""


@dataclass
class ExcessReport:
    radius: float
    excess: float
    xi: np.ndarray
    gram: np.ndarray


@dataclass
class MinimalRadiusReport:
    r_star: float          # dyadic, or inf sentinel
    delta: float
    radii: np.ndarray
    values: np.ndarray     # (1/R^2) * centered ball variance of (phi, sigma)


@dataclass
class GrowthProfile:
    radii: np.ndarray
    values: np.ndarray     # centered ball variance, averaged over centers
    reference: np.ndarray  # regime curve mu^2_{d, beta}
    regime: str


def dyadic_radii(grid: GridSpec, lo=1.0):
    """lo, 2 lo, 4 lo, ... up to L/8."""
    if not lo > 0:  # doubling would never pass L/8
        raise ValueError(f"lowest dyadic radius must be positive, got {lo}")
    radii = []
    r = float(lo)
    while r <= grid.n / 8 + 1e-9:
        radii.append(r)
        r *= 2.0
    return np.array(radii)


def excess(grad_u, corr: CorrectorSet, ball: Ball):
    """Deviation of grad u on the ball from the best corrected-affine
    gradient xi + grad phi_xi, via the d x d normal equations; grad phi
    is taken at the ball's cells only."""
    grid = corr.a.grid
    d = grid.d
    gram = np.zeros((d, d))
    b = np.zeros(d)
    mask = ball_mask(grid, ball)
    gu = grad_u[:, mask]
    # [i, j] = d_j phi_i on the ball, then [i] = e_i + grad phi_i
    basis = np.swapaxes(_grad_at(corr.phi, np.nonzero(mask)), 0, 1)
    for i in range(d):
        basis[i, i] += 1.0
    # np.sum over axis 0 adds the components in order; einsum need not
    for i in range(d):
        b[i] = np.sum(gu * basis[i], axis=0).mean()
        for j in range(i, d):
            gram[i, j] = gram[j, i] = np.sum(basis[i] * basis[j],
                                             axis=0).mean()
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise DegenerateGramError(
            f"Gram matrix singular at r = {ball.radius}")
    xi = np.linalg.solve(gram, b)
    exc = float(np.sum(gu * gu, axis=0).mean()) - float(xi @ b)
    return ExcessReport(ball.radius, max(exc, 0.0), xi, gram)


def _ball_variances(corr: CorrectorSet, center):
    """The dyadic radii R in [1, L/8] and, per R, (1/R^2) times the sum
    over the rows of ``extended_rows`` of their variance on B_R(center):
    the rows are made once, and each ball's mask once."""
    radii = dyadic_radii(corr.a.grid)
    masks = [ball_mask(corr.a.grid, Ball(center, r)) for r in radii]
    vals = np.zeros(len(radii))
    for row in extended_rows(corr):
        for m, mask in enumerate(masks):
            inside = row[mask]
            vals[m] += np.mean(inside**2) - np.mean(inside)**2
    return radii, vals / radii**2


def _smallest_radius(radii, vals, delta):
    """The report of the smallest dyadic r whose whole dyadic tail has
    ``vals`` <= delta; inf sentinel if none."""
    if not delta > 0:  # raises for nan too
        raise ValueError(f"delta must be positive, got {delta}")
    tail_ok = np.logical_and.accumulate((vals <= delta)[::-1])[::-1]
    hits = np.nonzero(tail_ok)[0]
    r_star = float(radii[hits[0]]) if hits.size else np.inf
    return MinimalRadiusReport(r_star, float(delta), radii, vals)


def minimal_radius(corr: CorrectorSet, delta, center=None):
    """Smallest dyadic r with (1/R^2) fint_{B_R} |(phi, sigma) - mean|^2
    <= delta for every dyadic R in [r, L/8]; inf sentinel if none."""
    center = tuple(center) if center is not None else (0.0,) * corr.a.grid.d
    return _smallest_radius(*_ball_variances(corr, center), delta)


def harmonic_quadratic(a_hom, grid: GridSpec, center, rng):
    """Random quadratic x.Qx (coordinates centered at ``center``, unwrapped)
    with tr(a_hom_sym Q) = 0, so it is a_hom-harmonic on the lattice away
    from the seam; normalized to unit coefficient norm."""
    d = grid.d
    sym = (a_hom + a_hom.T) / 2
    q = rng.standard_normal((d, d))
    q = (q + q.T) / 2
    q -= (np.sum(sym * q) / np.sum(sym * sym)) * sym
    q /= np.linalg.norm(q)
    coords = [_offsets(grid.n, center[j]).reshape(
        (1,) * j + (-1,) + (1,) * (d - 1 - j)) for j in range(d)]
    out = np.zeros(grid.shape)
    for i in range(d):
        for j in range(d):
            out += q[i, j] * coords[i] * coords[j]
    return out


def excess_decay_experiment(corr: CorrectorSet, R, r_list, rng,
                            opts: SolveOptions = None):
    """Excess-decay table for an a-harmonic function, a = ``corr.a``, with
    random a_hom-harmonic quadratic boundary data on B_R, balls at the
    origin: one ``ExcessReport`` per radius of ``r_list``; an unconverged
    Dirichlet-ball solve raises ``SolveError``."""
    grid = corr.a.grid
    center = (0.0,) * grid.d
    boundary = harmonic_quadratic(corr.a_hom, grid, center, rng)
    gu = grad(solve_dirichlet_ball(corr.a, Ball(center, float(R)), boundary,
                                   opts)[0])
    return [excess(gu, corr, Ball(center, float(r))) for r in r_list]


def regime_reference(d, beta, radii):
    """mu^2_{d,beta} curve: constant / log R / R^{d(beta - 1 + 2/d)}."""
    crit = 1.0 - 2.0 / d
    radii = np.asarray(radii, dtype=np.float64)
    if beta < crit - 1e-12:
        return np.ones_like(radii), "bounded"
    if abs(beta - crit) <= 1e-12:
        return np.log(2.0 + radii), "critical"
    return radii ** (d * (beta - 1.0 + 2.0 / d)), "growing"


def growth_profile(corr: CorrectorSet, radii, beta=0.0):
    """Centered ball variance of (phi, sigma) as a function of R, averaged
    over all torus centers (by Parseval, so every center contributes), from
    the rows' rfft half spectra, as ``extended_spectra`` yields them."""
    grid = corr.a.grid
    radii = np.asarray(radii, dtype=np.float64)
    if not np.all((radii >= 0.5) & (radii <= grid.n / 8)):  # nan fails too
        raise ValueError(f"growth radii must lie in [0.5, L/8 = "
                         f"{grid.n / 8}], got {radii.tolist()}")
    vals = mean_ball_variance(extended_spectra(corr), radii, grid)
    ref, regime = regime_reference(grid.d, beta, radii)
    return GrowthProfile(radii, vals, ref, regime)
