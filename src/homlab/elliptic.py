"""Iterative solvers for the heterogeneous divergence-form operator on the
torus (with optional massive term) and Dirichlet problems on discrete balls.

Symmetric coefficients get preconditioned conjugate gradients with a
constant-coefficient spectral preconditioner; non-symmetric coefficients go
through BiCGStab with the same preconditioner.  Reported residuals are
always recomputed from scratch; reported iterations are the Krylov steps
completed, for BiCGStab too.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab

from . import kernels
from .lattice import Ball, GridSpec, ball_mask, div, laplacian_symbol
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


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool


class SolverError(RuntimeError):
    pass


def _spectral_inverse(field: CoefficientField, inv_t):
    """Inverse of inv_t + c0 (-lap) via FFT, c0 the mean diagonal."""
    grid = field.grid
    d = grid.d
    c0 = float(np.mean([field.a[i, i].mean() for i in range(d)]))
    sym = inv_t + c0 * laplacian_symbol(grid.shape, rfft=True)
    zero = (0,) * d
    if inv_t == 0.0:
        sym[zero] = 1.0  # zero mode projected out below

    def apply(r):
        rhat = np.fft.rfftn(r) / sym
        if inv_t == 0.0:
            rhat[zero] = 0.0
        return np.fft.irfftn(rhat, s=grid.shape, axes=range(grid.d))

    return apply


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
    a = np.ascontiguousarray(field.a)
    rhs = np.asarray(rhs, dtype=np.float64)
    if inv_t == 0.0:
        rhs = rhs - rhs.mean()
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros(grid.shape), SolveReport(0, 0.0, True)

    def matvec(u):
        return kernels.divform_apply(a, u, inv_t)

    if opts.preconditioner == "spectral":
        precond = _spectral_inverse(field, inv_t)
    else:
        precond = lambda r: r  # noqa: E731

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


def _diag_precond(field: CoefficientField, mask):
    a = field.a
    d = a.shape[0]
    diag = np.zeros(field.grid.shape)
    for i in range(d):
        diag += a[i, i] + np.roll(a[i, i], 1, axis=i)
    diag[~mask] = 1.0

    def apply(r):
        return r / diag

    return apply


def solve_dirichlet_ball(field: CoefficientField, ball: Ball, boundary,
                         opts: SolveOptions = None):
    """a-harmonic extension into the discrete ball: u = boundary outside,
    div(a grad u) = 0 at every interior cell to tolerance."""
    opts = opts or SolveOptions()
    grid = field.grid
    mask = ball_mask(grid, ball)
    a = np.ascontiguousarray(field.a)
    boundary = np.asarray(boundary, dtype=np.float64)

    def op_full(u):
        return kernels.divform_apply(a, u, 0.0)

    def matvec(u_masked):
        u = np.where(mask, u_masked, 0.0)
        out = op_full(u)
        return np.where(mask, out, 0.0)

    bc = np.where(mask, 0.0, boundary)
    rhs = np.where(mask, -op_full(bc), 0.0)
    precond = _diag_precond(field, mask)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return boundary.copy(), SolveReport(0, 0.0, True)
    solver = _pcg if field.is_symmetric() else _bicgstab
    u_in, it = solver(matvec, rhs, precond, 0.1 * opts.tol, opts.max_iter)
    u = np.where(mask, u_in, boundary)
    res = float(np.linalg.norm(np.where(mask, op_full(u), 0.0))) / bnorm
    return u, SolveReport(it, res, res <= opts.tol)
