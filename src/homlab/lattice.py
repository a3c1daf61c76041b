"""Periodic lattice substrate: difference calculus, spectral solves, averaging.

Conventions: spacing h = 1 (unit correlation length), torus side L = N.
``grad`` is the forward difference, ``div`` the backward difference, so that
<grad u, v> = -<u, div v> holds exactly and the divergence-form operator is
exactly symmetric for symmetric coefficients.
"""

from dataclasses import dataclass

import numpy as np
from scipy.fft import fftfreq, irfftn, rfftfreq, rfftn

__all__ = [
    "GridSpec",
    "Ball",
    "grad",
    "div",
    "laplacian_symbol",
    "spectral_solve",
    "poisson_solve",
    "ball_mask",
    "ball_average",
    "box_mollify",
    "ball_mean_field",
    "mean_ball_variance",
    "save_field",
    "load_field",
]


@dataclass(frozen=True)
class GridSpec:
    """Periodic d-dimensional grid of n cells per axis, spacing 1."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 8:
            raise ValueError(f"grid size must be >= 8, got {self.n}")
        if self.n % 2:
            raise ValueError(f"grid size must be even, got {self.n}")

    @property
    def shape(self):
        return (self.n,) * self.d

    @property
    def length(self):
        return float(self.n)


@dataclass(frozen=True)
class Ball:
    """Discrete ball: cells whose centers lie within radius of center
    under the periodic metric."""

    center: tuple
    radius: float

    def validate(self, grid: GridSpec):
        if len(self.center) != grid.d:
            raise ValueError("ball center dimension mismatch")
        if self.radius > grid.n / 4:
            raise ValueError(
                f"ball radius {self.radius} exceeds L/4 = {grid.n / 4}")
        if self.radius < 0.5:
            raise ValueError("empty ball: radius below half a cell")


def grad(u):
    """Forward-difference gradient with periodic wrap, shape (d,) + grid."""
    d = u.ndim
    return np.stack([np.roll(u, -1, axis=j) - u for j in range(d)])


def bgrad(u):
    """Backward-difference gradient, shape (d,) + grid."""
    d = u.ndim
    return np.stack([u - np.roll(u, 1, axis=j) for j in range(d)])


def div(f):
    """Backward-difference divergence; exact negative adjoint of grad."""
    d = f.shape[0]
    out = f[0] - np.roll(f[0], 1, axis=0)
    for j in range(1, d):
        out += f[j] - np.roll(f[j], 1, axis=j)
    return out


def laplacian_symbol(shape, rfft=False):
    """Fourier symbol of -div(grad .): sum_j 4 sin^2(pi k_j / n)."""
    d = len(shape)
    sym = np.zeros(shape[:-1] + ((shape[-1] // 2 + 1) if rfft else shape[-1],))
    for j, n in enumerate(shape):
        freq = rfftfreq(n) if (rfft and j == d - 1) else fftfreq(n)
        s = (2.0 * np.sin(np.pi * freq)) ** 2
        sh = [1] * d
        sh[j] = s.size
        sym = sym + s.reshape(sh)
    return sym


def spectral_solve(rhs, sym):
    """irfftn(rfftn(rhs) / sym) over the trailing axes, batched over any
    leading axes of ``rhs``.  ``sym`` is a real or complex symbol on the
    rfft half spectrum of the grid, whose dimension is ``sym.ndim``.  A zero
    ``sym`` at k = 0 projects out the mean: the result then has zero mean."""
    d = sym.ndim
    axes = tuple(range(-d, 0))
    uhat = rfftn(rhs, axes=axes)
    with np.errstate(divide="ignore", invalid="ignore"):
        uhat /= sym
    zero = (0,) * d
    if sym[zero] == 0.0:
        uhat[(Ellipsis,) + zero] = 0.0
    return irfftn(uhat, s=rhs.shape[-d:], axes=axes, overwrite_x=True)


def poisson_solve(rhs):
    """Zero-mean u with -div(grad u) = rhs - mean(rhs), spectrally exact."""
    return spectral_solve(rhs, laplacian_symbol(rhs.shape, rfft=True))


def _offsets(n, center):
    """Signed periodic offsets of cell indices from a center coordinate."""
    idx = np.arange(n, dtype=np.float64)
    return (idx - center + n / 2) % n - n / 2


def periodic_dist_sq(grid: GridSpec, center):
    """Squared periodic distance of every cell center to ``center``."""
    d2 = np.zeros(grid.shape)
    for j in range(grid.d):
        off = _offsets(grid.n, center[j])
        sh = [1] * grid.d
        sh[j] = grid.n
        d2 = d2 + off.reshape(sh) ** 2
    return d2


def ball_mask(grid: GridSpec, ball: Ball):
    ball.validate(grid)
    return periodic_dist_sq(grid, ball.center) <= ball.radius**2


def _field_grid(u, d=None):
    """The grid of a field whose trailing axes are the grid axes.  Without
    ``d`` the grid axes are the trailing axes of length ``u.shape[-1]``;
    a shape where that leaves d outside {2, 3} cannot be resolved."""
    u = np.asarray(u)
    if d is None:
        d = 0
        while d < u.ndim and u.shape[-1 - d] == u.shape[-1]:
            d += 1
        if d not in (2, 3):
            raise ValueError(f"cannot tell the grid axes of a field of shape "
                             f"{u.shape}; pass grid")
    grid = GridSpec(d, u.shape[-1])
    if u.shape[u.ndim - d:] != grid.shape:
        raise ValueError(f"field of shape {u.shape} is not on a "
                         f"{d}D grid")
    return grid


def ball_average(u, ball: Ball, grid: GridSpec = None):
    """Arithmetic mean of u over the discrete ball; componentwise for
    fields with leading axes.  Without ``grid`` the dimension is that of
    the ball's center."""
    if grid is None:
        grid = _field_grid(u, len(ball.center))
    mask = ball_mask(grid, ball)
    if u.ndim == grid.d:
        return float(u[mask].mean())
    flat = u.reshape((-1,) + grid.shape)
    return np.array([comp[mask].mean() for comp in flat]).reshape(u.shape[:-grid.d])


def _ball_kernel_hat(grid: GridSpec, radius):
    """rfft of the normalized ball indicator centered at the origin."""
    mask = (periodic_dist_sq(grid, (0.0,) * grid.d) <= radius**2)
    kern = mask.astype(np.float64)
    kern /= kern.sum()
    return rfftn(kern)


def mean_ball_variance(comps, radii, grid: GridSpec):
    """Per radius R, sum over components u of the torus mean over x of the
    variance of u on B_R(x): sum_u mean(u^2) - mean((K_R * u)^2), the second
    mean by Parseval as sum_k |u_hat_k|^2 |K_hat_R,k|^2 / N^2 (N cells)."""
    power = sq = 0.0
    for comp in comps:
        sq += float(np.vdot(comp, comp))
        power += np.abs(rfftn(comp)) ** 2
    # the half spectrum stands for +-k_last, except at k_last = 0, n/2
    power[..., 1:-1] *= 2.0
    cells = float(grid.n**grid.d)
    return np.array([
        (sq - float(np.vdot(power, np.abs(_ball_kernel_hat(grid, r)) ** 2))
         / cells) / cells for r in radii])


def ball_mean_field(u, radius, grid: GridSpec):
    """At each x, the mean of u over the ball of given radius centered at x.

    Periodic convolution with the (symmetric) ball indicator, so this is
    exact up to floating point.
    """
    if radius > grid.n / 4:
        raise ValueError("mollification scale exceeds L/4")
    axes = tuple(range(-grid.d, 0))
    flat = u.reshape((-1,) + grid.shape)
    out = irfftn(rfftn(flat, axes=axes) * _ball_kernel_hat(grid, radius),
                 s=grid.shape, axes=axes)
    return out.reshape(u.shape)


def box_mollify(u, scale, grid: GridSpec = None):
    """Moving simple average over balls of radius ``scale``; linear and
    mass-preserving; the single-cell limit returns the field unchanged.
    Without ``grid`` the grid axes are the trailing axes of length
    ``u.shape[-1]``, and a shape that does not resolve raises ValueError."""
    if grid is None:
        grid = _field_grid(u)
    if scale < 0.5:
        return u.copy()
    return ball_mean_field(u, scale, grid)


_MAGIC_DTYPE = "<i8"


def save_field(path, arr, d):
    """Flat binary layout: int64-LE header (d, n, ncomp), then row-major
    float64 values."""
    n = arr.shape[-1]
    ncomp = int(np.prod(arr.shape[:-d], dtype=np.int64)) if arr.ndim > d else 1
    with open(path, "wb") as fh:
        np.array([d, n, ncomp], dtype=_MAGIC_DTYPE).tofile(fh)
        np.ascontiguousarray(arr, dtype="<f8").tofile(fh)


def load_field(path):
    """Inverse of save_field; returns array of shape (ncomp,) + grid
    (leading axis dropped when ncomp == 1)."""
    with open(path, "rb") as fh:
        header = np.fromfile(fh, dtype=_MAGIC_DTYPE, count=3)
        d, n, ncomp = (int(v) for v in header)
        data = np.fromfile(fh, dtype="<f8")
    expect = ncomp * n**d
    if data.size != expect:
        raise ValueError(f"corrupt field file {path}: {data.size} != {expect}")
    arr = data.reshape((ncomp,) + (n,) * d)
    return arr[0] if ncomp == 1 else arr
