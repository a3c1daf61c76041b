"""Iterative solvers for the heterogeneous divergence-form operator on the
torus (with optional massive term) and Dirichlet problems on discrete balls.

Symmetric coefficients get preconditioned conjugate gradients, non-symmetric
ones BiCGStab.  The preconditioner inverts ``c0 (-lap)``, c0 the mean
diagonal: by FFT on the torus, by DST-I on the cropped box where a
Dirichlet-ball problem is solved.  Residuals are always recomputed from
scratch on the torus; iterations are the Krylov steps completed.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn, next_fast_len
from scipy.sparse.linalg import LinearOperator, bicgstab

from . import kernels
from .lattice import (Ball, GridSpec, ball_mask, div, laplacian_symbol,
                      spectral_solve)
from .randomfield import CoefficientField

__all__ = [
    "SolveOptions",
    "SolveReport",
    "solve_divform",
    "solve_divform_rhs",
    "solve_dirichlet_ball",
]


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-9
    max_iter: int = 100000
    preconditioner: str = "spectral"  # "spectral" | "none"

    def __post_init__(self):
        if not 0.0 < self.tol <= 1e-3:
            raise ValueError("tol must lie in (0, 1e-3]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.preconditioner not in ("spectral", "none"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool


def _mean_diagonal(field: CoefficientField):
    """c0 of the constant-coefficient preconditioners."""
    return float(np.mean([field.a[i, i].mean() for i in range(field.grid.d)]))


def _spectral_inverse(field: CoefficientField, inv_t):
    """Inverse of inv_t + c0 (-lap) via FFT, c0 the mean diagonal; for
    inv_t = 0 the zero mode is projected out."""
    sym = inv_t + _mean_diagonal(field) * laplacian_symbol(field.grid.shape,
                                                           rfft=True)
    return lambda r: spectral_solve(r, sym)


def _pcg(matvec, b, precond, tol, max_iter):
    """Preconditioned conjugate gradients; returns (x, iterations)."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0
    it = 0
    while it < max_iter:
        ap = matvec(p)
        alpha = rz / float(np.vdot(p, ap).real)
        x += alpha * p
        r -= alpha * ap
        it += 1
        if np.linalg.norm(r) <= tol * bnorm:
            break
        z = precond(r)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, it


def _bicgstab(matvec, b, precond, tol, max_iter):
    """scipy's preconditioned BiCGStab on grid-shaped arrays; returns
    (x, iterations), counting the steps scipy completes through its
    per-iteration callback.  A breakdown is not an error here: the caller's
    recomputed residual decides convergence."""
    shape, size = b.shape, b.size
    op = LinearOperator((size, size), dtype=np.float64,
                        matvec=lambda v: matvec(v.reshape(shape)).ravel())
    pre = LinearOperator((size, size), dtype=np.float64,
                         matvec=lambda v: precond(v.reshape(shape)).ravel())
    steps = [0]

    def count(xk):
        steps[0] += 1

    vec, _ = bicgstab(op, b.ravel(), rtol=tol, atol=0.0, maxiter=max_iter,
                      M=pre, callback=count)
    return vec.reshape(shape), steps[0]


def solve_divform_rhs(field: CoefficientField, rhs, inv_t=0.0,
                      opts: SolveOptions = None):
    """u with inv_t*u - div(a grad u) = rhs on the torus; zero-mean gauge
    for inv_t = 0 (rhs projected onto zero mean then)."""
    opts = opts or SolveOptions()
    grid = field.grid
    rhs = np.asarray(rhs, dtype=np.float64)
    if inv_t == 0.0:
        rhs = rhs - rhs.mean()
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros(grid.shape), SolveReport(0, 0.0, True)

    def matvec(u):
        return kernels.divform_apply(field.a, u, inv_t)

    precond = (_spectral_inverse(field, inv_t)
               if opts.preconditioner == "spectral" else lambda r: r)
    solver = _pcg if field.is_symmetric() else _bicgstab
    u, it = solver(matvec, rhs, precond, 0.1 * opts.tol, opts.max_iter)
    if inv_t == 0.0:
        u -= u.mean()
    res = float(np.linalg.norm(matvec(u) - rhs)) / bnorm
    return u, SolveReport(it, res, res <= opts.tol)


def solve_divform(field: CoefficientField, g, inv_t=0.0,
                  opts: SolveOptions = None):
    """u with inv_t*u - div(a grad u) = div g on the torus."""
    return solve_divform_rhs(field, div(np.asarray(g)), inv_t, opts)


def _dirichlet_inverse(c0, mask):
    """Inverse of c0 (-lap) on the box ``mask.shape`` with zero data on the
    cells just outside it, via DST-I, restricted to ``mask``.  The DST-I
    symbol of a side m is the torus symbol of period 2(m+1) at k = 1..m."""
    sym = c0 * laplacian_symbol(tuple(2 * (m + 1) for m in mask.shape))[
        tuple(slice(1, m + 1) for m in mask.shape)]

    def apply(r):
        return np.where(mask, idstn(dstn(r, type=1) / sym, type=1), 0.0)

    return apply


def _ball_box(grid: GridSpec, ball: Ball):
    """Wrapped ``np.ix_`` index of a box holding the ball and one free cell
    on each side, so that each ball row's stencil (x +- e_j, x - e_i + e_j)
    stays inside it and the box's own wrap reaches only rows outside the
    ball.  Each side m is rounded up to a fast DST-I (FFT length 2(m+1))."""
    axes = []
    for c in ball.center:
        lo = math.floor(c - ball.radius) - 1
        m = math.ceil(c + ball.radius) + 2 - lo
        # R <= L/4 keeps m <= n/2 + 4 <= n before rounding, so the cap at n
        # never cuts into the free cells
        m = min(next_fast_len(m + 1, real=True) - 1, grid.n)
        axes.append((lo + np.arange(m)) % grid.n)
    return np.ix_(*axes)


def solve_dirichlet_ball(field: CoefficientField, ball: Ball, boundary,
                         opts: SolveOptions = None):
    """a-harmonic extension into the discrete ball: u = boundary outside,
    div(a grad u) = 0 at every interior cell to tolerance; the Krylov
    solve runs on ``_ball_box``."""
    opts = opts or SolveOptions()
    mask = ball_mask(field.grid, ball)
    boundary = np.asarray(boundary, dtype=np.float64)
    box = _ball_box(field.grid, ball)
    a = field.a[(slice(None), slice(None)) + box]
    inside = mask[box]

    def matvec(u_masked):
        out = kernels.divform_apply(a, np.where(inside, u_masked, 0.0), 0.0)
        return np.where(inside, out, 0.0)

    bc = np.where(inside, 0.0, boundary[box])
    rhs = np.where(inside, -kernels.divform_apply(a, bc, 0.0), 0.0)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return boundary.copy(), SolveReport(0, 0.0, True)
    precond = (_dirichlet_inverse(_mean_diagonal(field), inside)
               if opts.preconditioner == "spectral" else lambda r: r)
    solver = _pcg if field.is_symmetric() else _bicgstab
    u_in, it = solver(matvec, rhs, precond, 0.1 * opts.tol, opts.max_iter)
    u = boundary.copy()
    u[box] = np.where(inside, u_in, boundary[box])
    full = kernels.divform_apply(field.a, u, 0.0)
    res = float(np.linalg.norm(np.where(mask, full, 0.0))) / bnorm
    return u, SolveReport(it, res, res <= opts.tol)
