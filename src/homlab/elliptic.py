"""Iterative solvers for the heterogeneous divergence-form operator on the
torus and Dirichlet problems on discrete balls.

Both go through one Krylov dispatch: scipy's CG for symmetric coefficients,
its BiCGStab for non-symmetric ones.  A torus solve, on a field or on the
``operator`` built once per field, returns the zero-mean solution; its
preconditioner is the sandwich K^-1 (-div(b grad .)) K^-1, K = -lap by FFT
and b = diag(1/a_ii): symmetric positive definite on mean-zero fields, and
the exact inverse for a = c Id and for a laminate's corrector in the
layered direction, both to float32 rounding.  A Dirichlet-ball problem is
solved on its cropped box, by CG if the box's coefficients are symmetric,
preconditioned by the inverse of ``c0 (-lap)`` by DST-I, c0 the mean
diagonal.  Both preconditioners run in float32, taking and returning
float64; the matvec, scipy's Krylov loop and the residual that decides
convergence stay float64, so every solution still meets tol.  The dispatch
owns the one epilogue: a non-finite rhs raises, a zero rhs is finished at
x = 0 after 0 steps (ball data the interior stencil never reads give 0
inside), and the residual, recomputed from scratch by each problem's
``finish``, is relative to |rhs|.  scipy stops at tol; a recomputed
residual above it, with a finite iterate and steps left, continues once
from that iterate to 0.1 tol.  Iterations are the Krylov steps of both
calls.  A final residual above tol raises ``SolveError``: every report a
solve returns converged.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn, next_fast_len
from scipy.sparse.linalg import LinearOperator, bicgstab, cg

from . import kernels
from .lattice import (Ball, GridSpec, _inverse_laplacian, _spectral_multiply,
                      ball_mask, div, laplacian_symbol)
from .randomfield import CoefficientField, _is_symmetric

__all__ = [
    "SolveOptions",
    "SolveReport",
    "SolveError",
    "operator",
    "solve_divform",
    "solve_divform_rhs",
    "solve_dirichlet_ball",
]


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-9
    max_iter: int = 100000

    def __post_init__(self):
        if not 0.0 < self.tol <= 1e-3:
            raise ValueError("tol must lie in (0, 1e-3]")
        if (not isinstance(self.max_iter, (int, np.integer))
                or isinstance(self.max_iter, bool) or self.max_iter < 1):
            raise ValueError("max_iter must be an integer >= 1")


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool


class SolveError(RuntimeError):
    """An unconverged solve; ``report`` is its final ``SolveReport``."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class _NonFinite(Exception):
    """Raised from the Krylov callback with a non-finite iterate."""


def _krylov(solver, matvec, rhs, precond, opts: SolveOptions, finish):
    """Solve ``matvec(x) = rhs`` on grid-shaped arrays by ``solver``,
    scipy's CG or BiCGStab, preconditioned by ``precond``.  ``finish(x)``
    turns an iterate into the solution and returns it with its residual
    norm; returns (solution, SolveReport), the residual relative to |rhs|.
    A zero ``rhs`` is finished at x = 0 after 0 steps.  A breakdown or a
    non-finite iterate stops scipy; a recomputed residual above tol raises
    ``SolveError``."""
    opts = opts or SolveOptions()
    bnorm = float(np.linalg.norm(rhs))
    if not math.isfinite(bnorm):  # a Krylov solve would not stop on it
        raise RuntimeError(f"right-hand side is not finite: {bnorm}")
    if bnorm == 0.0:
        return finish(np.zeros_like(rhs))[0], SolveReport(0, 0.0, True)
    shape, size = rhs.shape, rhs.size

    def linear(f):
        return LinearOperator((size, size), dtype=np.float64,
                              matvec=lambda v: f(v.reshape(shape)).ravel())

    steps = []  # one entry per step, appended by scipy's callback

    def callback(xk):
        steps.append(None)
        if not math.isfinite(xk[0]):  # non-finite spreads to every entry
            raise _NonFinite(xk)

    vec = None
    for rtol in (opts.tol, 0.1 * opts.tol):
        try:
            vec, _ = solver(linear(matvec), rhs.ravel(), x0=vec, rtol=rtol,
                            atol=0.0, maxiter=opts.max_iter - len(steps),
                            M=linear(precond), callback=callback)
        except _NonFinite as stop:
            vec = stop.args[0]
        u, res = finish(vec.reshape(shape))
        res /= bnorm
        if not (res > opts.tol and len(steps) < opts.max_iter
                and math.isfinite(vec[0])):
            break
    report = SolveReport(len(steps), res, res <= opts.tol)
    if not report.converged:
        raise SolveError(f"{solver.__name__} did not converge: residual "
                         f"{res:.3e} > tol {opts.tol:g} after {len(steps)} "
                         f"steps", report)
    return u, report


@dataclass(frozen=True)
class Operator:
    """What every torus solve on ``field`` shares, made by ``operator``."""

    field: CoefficientField
    cols: tuple                  # kernels.coupled_columns
    solver: object               # scipy's cg or bicgstab
    precond: object              # the torus preconditioner


def operator(field):
    """The ``Operator`` of a field, or ``field`` itself if it is one; its
    preconditioner drops the zero mode and runs in float32, taking and
    returning float64."""
    if isinstance(field, Operator):
        return field
    a, d = field.a, field.grid.d
    inv = _inverse_laplacian(field.grid.shape).astype(np.float32)
    # b[i, j] broadcasts 1/a_ii, the only blocks read; equal diagonal blocks,
    # as in every sampled field, share one
    same = all(np.array_equal(a[i, i], a[0, 0]) for i in range(1, d))
    diag = (1.0 / (a[0, 0][None] if same else np.einsum("ii...->i...", a))
            ).astype(np.float32)
    b = np.broadcast_to(diag[:, None], (d, d) + diag.shape[1:])
    rows = tuple((i,) for i in range(d))
    # float64 out: BiCGStab feeds it to the matvec, which keeps its dtype
    return Operator(field, kernels.coupled_columns(a),
                    cg if field.is_symmetric() else bicgstab,
                    lambda r: _spectral_multiply(kernels.divform_apply(
                        b, _spectral_multiply(r.astype(np.float32), inv),
                        rows), inv).astype(np.float64))


def solve_divform_rhs(field, rhs, opts: SolveOptions = None,
                      overwrite_rhs=False):
    """The zero-mean u with -div(a grad u) = rhs - mean(rhs) on the
    torus; ``overwrite_rhs`` subtracts the mean from ``rhs`` in place."""
    rhs = np.asarray(rhs, dtype=np.float64)
    rhs = np.subtract(rhs, rhs.mean(), out=rhs if overwrite_rhs else None)
    op = operator(field)

    def matvec(u):
        return kernels.divform_apply(op.field.a, u, op.cols)

    def finish(u):
        u -= u.mean()
        return u, float(np.linalg.norm(matvec(u) - rhs))

    return _krylov(op.solver, matvec, rhs, op.precond, opts, finish)


def solve_divform(field, g, opts: SolveOptions = None):
    """The zero-mean u with -div(a grad u) = div g on the torus."""
    return solve_divform_rhs(field, div(np.asarray(g)), opts, True)


def _dirichlet_inverse(c0, mask):
    """Inverse of c0 (-lap) on the box ``mask.shape`` with zero data on the
    cells just outside it, via DST-I, restricted to ``mask``.  The DST-I
    symbol of a side m is the torus symbol of period 2(m+1) at k = 1..m.
    The transforms run in float32; float64 in and out."""
    sym = laplacian_symbol(tuple(2 * (m + 1) for m in mask.shape))[
        tuple(slice(1, m + 1) for m in mask.shape)]
    inv = (1.0 / (c0 * sym)).astype(np.float32)

    def apply(r):
        u = idstn(dstn(r.astype(np.float32), type=1) * inv, type=1)
        return np.where(mask, u.astype(np.float64), 0.0)

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
    mask = ball_mask(field.grid, ball)
    boundary = np.asarray(boundary, dtype=np.float64)
    box = _ball_box(field.grid, ball)
    a = field.a[(slice(None), slice(None)) + box]
    inside = mask[box]
    cols = kernels.coupled_columns(a)

    def matvec(u_masked):
        out = kernels.divform_apply(a, np.where(inside, u_masked, 0.0), cols)
        return np.where(inside, out, 0.0)

    bc = np.where(inside, 0.0, boundary[box])
    rhs = np.where(inside, -kernels.divform_apply(a, bc, cols), 0.0)

    def finish(u_in):
        # every ball row's stencil lies in the box (see ``_ball_box``), so
        # the box residual at ball cells is the torus one
        u, u_box = boundary.copy(), np.where(inside, u_in, bc)
        u[box] = u_box
        res = np.where(inside, kernels.divform_apply(a, u_box, cols), 0.0)
        return u, float(np.linalg.norm(res))

    c0 = float(np.mean([field.a[i, i].mean() for i in range(field.grid.d)]))
    return _krylov(cg if _is_symmetric(a) else bicgstab, matvec, rhs,
                   _dirichlet_inverse(c0, inside), opts, finish)
