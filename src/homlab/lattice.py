"""Periodic lattice substrate: difference calculus, spectral solves, averaging.

Conventions: spacing h = 1 (unit correlation length), torus side L = N.
``grad`` is the forward difference, ``div`` the backward difference, so that
<grad u, v> = -<u, div v> holds exactly and the divergence-form operator is
exactly symmetric for symmetric coefficients.  A difference of C-contiguous
arrays is one flat subtraction, its wrap slab then overwritten; the Laplacian
symbol lives on the rfft half spectrum, its inverse multiplier is built once
per grid shape, and ``_spectral_multiply``, the one Fourier multiply of
every spectral solve, inverts without a full-size complex temporary.  Ball
membership, with its center and radius checks, is ``ball_mask``'s alone.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import fftfreq, ifftn, irfft, rfftfreq, rfftn

__all__ = [
    "GridSpec",
    "Ball",
    "grad",
    "div",
    "laplacian_symbol",
    "poisson_solve",
    "ball_mask",
    "ball_average",
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
        for name, x in (("dimension", self.d), ("grid size", self.n)):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {x!r}")
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 8:
            raise ValueError(f"grid size must be >= 8, got {self.n}")
        if self.n % 2:
            raise ValueError(f"grid size must be even, got {self.n}")

    @property
    def shape(self):
        return (self.n,) * self.d


@dataclass(frozen=True)
class Ball:
    """Discrete ball: cells whose centers lie within radius of center
    under the periodic metric."""

    center: tuple
    radius: float

    def validate(self, grid: GridSpec):
        if len(self.center) != grid.d:
            raise ValueError("ball center dimension mismatch")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"ball center {self.center} is not finite")
        if not 0.5 <= self.radius <= grid.n / 4:  # raises for nan too
            raise ValueError(f"ball radius {self.radius} outside "
                             f"[0.5, L/4 = {grid.n / 4}]")


def _pdiff(u, axis, forward=True, out=None):
    """u(x + e) - u(x) along ``axis`` if ``forward``, else u(x) - u(x - e),
    periodic, by slices into ``out`` (fresh when None; never ``u``)."""
    out = np.empty_like(u) if out is None else out
    v, w = np.swapaxes(u, 0, axis), np.swapaxes(out, 0, axis)
    if u.flags.c_contiguous and out.flags.c_contiguous:
        # flat k + s is x + e off the wrap slab, which is overwritten below
        s = math.prod(u.shape[axis + 1:])
        uf, of = u.reshape(-1), out.reshape(-1)
        np.subtract(uf[s:], uf[:-s], out=of[:-s] if forward else of[s:])
    else:
        np.subtract(v[1:], v[:-1], out=w[:-1] if forward else w[1:])
    np.subtract(v[:1], v[-1:], out=w[-1:] if forward else w[:1])
    return out


def _grad_at(u, cells):
    """Forward differences of u's last d axes at ``cells``, periodic: d
    integers for one cell, or d index arrays as ``np.nonzero`` gives them.
    Shape (d,) + u[(Ellipsis,) + cells].shape, the new leading axis the
    direction; bit for bit the entries of ``grad`` at those cells."""
    shape = u.shape[-len(cells):]
    here = u[(Ellipsis,) + cells]
    return np.stack([
        u[(Ellipsis,) + tuple((c + (k == j)) % m
                              for k, (c, m) in enumerate(zip(cells, shape)))]
        - here for j in range(len(cells))])


def grad(u):
    """Forward-difference gradient with periodic wrap, shape (d,) + grid."""
    return np.stack([_pdiff(u, j) for j in range(u.ndim)])


def div(f):
    """Backward-difference divergence; exact negative adjoint of grad."""
    out = _pdiff(f[0], 0, False)
    for j in range(1, f.shape[0]):
        out += _pdiff(f[j], j, False)
    return out


def laplacian_symbol(shape):
    """Fourier symbol of -div(grad .), sum_j 4 sin^2(pi k_j / n), on the
    rfft half spectrum of ``shape``."""
    freqs = [fftfreq(n) for n in shape[:-1]] + [rfftfreq(shape[-1])]
    return sum((2.0 * np.sin(np.pi * f)) ** 2 for f in np.ix_(*freqs))


def _spectral_multiply(rhs, mult):
    """irfftn(rfftn(rhs) * mult) over the trailing ``mult.ndim`` axes, bit
    for bit by irfftn's own steps: the unscaled complex inverse over the
    leading grid axes (here in place), the real one along the last, 1/N."""
    axes = tuple(range(-mult.ndim, 0))
    uhat = rfftn(rhs, axes=axes)
    uhat *= mult
    out = irfft(ifftn(uhat, axes=axes[:-1], norm="forward", overwrite_x=True),
                n=rhs.shape[-1], norm="forward")
    out *= 1.0 / math.prod(rhs.shape[-mult.ndim:])
    return out


@lru_cache(maxsize=4)
def _inverse_laplacian(shape):
    """Read-only 1 / ``laplacian_symbol(shape)``, 0 at k = 0."""
    sym = laplacian_symbol(shape)
    sym[(0,) * len(shape)] = np.inf
    mult = 1.0 / sym
    mult.flags.writeable = False
    return mult


def poisson_solve(rhs):
    """The zero-mean u with -div(grad u) = rhs - mean(rhs), spectrally
    exact."""
    return _spectral_multiply(rhs, _inverse_laplacian(rhs.shape))


def _offsets(n, center):
    """Signed periodic offsets of cell indices from a center coordinate."""
    idx = np.arange(n, dtype=np.float64)
    return (idx - center + n / 2) % n - n / 2


def periodic_dist_sq(grid: GridSpec, center):
    """Squared periodic distance of every cell center to ``center``."""
    offsets = np.ix_(*[_offsets(grid.n, center[j]) for j in range(grid.d)])
    return sum(off**2 for off in offsets)


def ball_mask(grid: GridSpec, ball: Ball):
    ball.validate(grid)
    return periodic_dist_sq(grid, ball.center) <= ball.radius**2


def ball_average(u, ball: Ball, grid: GridSpec):
    """Arithmetic mean of the field u, of shape ``grid.shape``, over the
    discrete ball."""
    return float(u[ball_mask(grid, ball)].mean())


def _ball_kernel_hat(grid: GridSpec, radius):
    """rfft of the normalized ball indicator centered at the origin; raises
    for a radius outside [0.5, L/4], nan included."""
    kern = ball_mask(grid, Ball((0.0,) * grid.d, radius)).astype(np.float64)
    kern /= kern.sum()
    return rfftn(kern)


@lru_cache(maxsize=8)
def _ball_variance_weight(grid: GridSpec, radius):
    """Read-only 1 - |``_ball_kernel_hat(grid, radius)``|^2."""
    weight = np.abs(_ball_kernel_hat(grid, radius))
    np.square(weight, out=weight)  # in place: the cache holds one array
    np.subtract(1.0, weight, out=weight)
    weight.flags.writeable = False
    return weight


def mean_ball_variance(spectra, radii, grid: GridSpec):
    """Per radius R, sum over components u of the torus mean over x of the
    variance of u on B_R(x), from the rfft half spectra u_hat: by Parseval
    sum_k w_k |u_hat_k|^2 (1 - |K_hat_R,k|^2) / N^2 (N cells), with w_k = 2
    off the k_last = 0, n/2 planes (a half-spectrum entry stands for +-k);
    the weight 1 - |K_hat_R|^2 is made once per grid and radius."""
    power = 0.0
    for spec in spectra:
        power += np.abs(spec) ** 2
    power[..., 1:-1] *= 2.0
    cells = float(grid.n**grid.d)
    return np.array([float(np.vdot(power, _ball_variance_weight(grid, r)))
                     / cells**2 for r in radii])


def ball_mean_field(u, radius, grid: GridSpec):
    """At each x, the mean of u over the ball of given radius centered at x.

    Periodic convolution with the (symmetric) ball indicator, so this is
    exact up to floating point.
    """
    return _spectral_multiply(u, _ball_kernel_hat(grid, radius))


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
    size = data.size  # bounds d before n**d: n >= 2 makes n**d >= 2**d
    if not (0 < n <= size and 0 < ncomp <= size
            and 0 < d <= size.bit_length() and ncomp * n**d == size):
        raise ValueError(f"corrupt field file {path}: header "
                         f"{(d, n, ncomp)} for {size} values")
    arr = data.reshape((ncomp,) + (n,) * d)
    return arr[0] if ncomp == 1 else arr
