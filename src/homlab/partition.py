"""Triadic partition of a region around the origin whose cells grow like
(dist + 1)^beta, plus the refinement check and the interaction sum that
certify the coarseness window."""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .lattice import _offsets

__all__ = [
    "Partition",
    "build_partition",
    "check_refinement",
    "interaction_sum",
    "lattice_partition_labels",
]


@dataclass
class Partition:
    corners: np.ndarray   # (m, d) lower corners
    sides: np.ndarray     # (m,)
    n_sub: np.ndarray     # (m,) subdivision count of the parent triadic cube
    beta: float
    half_width: float
    d: int

    @property
    def diam(self):
        return np.sqrt(self.d) * self.sides

    @property
    def dist(self):
        """Euclidean distance of each cell to the origin."""
        gap = np.maximum.reduce([
            self.corners,
            -(self.corners + self.sides[:, None]),
            np.zeros_like(self.corners),
        ])
        return np.sqrt(np.einsum("ij,ij->i", gap, gap))

    def volume(self):
        return float(np.sum(self.sides**self.d))

    @property
    def wedge(self):
        """Indices of the cells whose centers lie in the canonical wedge
        c_1 >= c_2 >= ... >= c_d >= 0.

        The triadic family and its subdivision counts are invariant under
        the hyperoctahedral group (coordinate permutations and sign flips):
        the shells are symmetric and ``n_Q`` depends on Q only through
        dist(Q), which these isometries preserve.  Sorting the absolute
        values of a center's coordinates in decreasing order maps it into
        the wedge, so every orbit of cells meets the wedge; and an isometry
        preserves all box distances, hence the interaction sum of a cell.
        """
        centers = self.corners + 0.5 * self.sides[:, None]
        tol = 1e-9 * max(1.0, self.half_width)
        inside = np.all(np.diff(centers, axis=1) <= tol, axis=1)
        inside &= centers[:, -1] >= -tol
        return np.nonzero(inside)[0]


def _triadic_cubes(half_width, d):
    """Triadic family covering [-W, W)^d: the central unit cube plus the
    shells 3^k([-1/2, 1/2)^d + tau), tau in {0, +-1}^d \\ {0}."""
    levels = math.log(2.0 * half_width) / math.log(3.0) - 1.0
    k_max = round(levels)
    if abs(levels - k_max) > 1e-9 or k_max < -1:
        raise ValueError(
            f"half width {half_width} must equal 3**k / 2 for integer k >= 0")
    cubes = [(np.full(d, -0.5), 1.0)]
    for k in range(k_max + 1):
        side = 3.0**k
        for tau in np.ndindex(*(3,) * d):
            shift = np.array(tau) - 1
            if np.all(shift == 0):
                continue
            cubes.append((side * (shift - 0.5), side))
    return cubes


def _subdivision_count(side, corner, beta, d):
    if not 0.0 <= beta < 1.0:  # raises for nan too
        raise ValueError("beta must lie in [0, 1)")
    diam = math.sqrt(d) * side
    gap = np.maximum.reduce([corner, -(corner + side), np.zeros(d)])
    dist = math.sqrt(float(gap @ gap))
    target = (dist + 1.0) ** beta
    n = max(1, math.ceil(diam / target - 1e-12))
    return n


def build_partition(half_width, beta, d=2):
    """Split each triadic cube Q into n_Q^d equal subcubes, n_Q the unique
    integer with diam(Q)/n_Q <= (dist(Q)+1)^beta < diam(Q)/(n_Q - 1)."""
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")
    corners, sides, subs = [], [], []
    for corner, side in _triadic_cubes(half_width, d):
        n = _subdivision_count(side, corner, beta, d)
        sub = side / n
        # the n^d sub-cells in row-major (np.ndindex) order
        corners.append(corner + sub * np.indices((n,) * d).reshape(d, -1).T)
        sides.append(np.full(n**d, sub))
        subs.append(np.full(n**d, n, dtype=np.int64))
    return Partition(np.concatenate(corners), np.concatenate(sides),
                     np.concatenate(subs), float(beta), float(half_width), d)


def check_refinement(part: Partition):
    """Hard-assert diam(D) <= (dist(D)+1)^beta for every cell; return the
    smallest C with (dist(D)+1)^beta <= C diam(D)."""
    diam = part.diam
    target = (part.dist + 1.0) ** part.beta
    bad = diam > target * (1.0 + 1e-12)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise AssertionError(
            f"refinement violated at cell {i}: diam {diam[i]} > {target[i]}")
    return float(np.max(target / diam))


def interaction_sum(part: Partition, gamma):
    """sup over cells D of sum_{D'} (1 + dist(D, D'))^(-gamma), exactly.

    The sup is taken over ``part.wedge`` only, which loses nothing because
    the cell family is symmetric under coordinate permutations and sign
    flips (see ``Partition.wedge``); the inner sum runs over all cells.
    ``kernels.pair_interaction_sup`` bounds every wedge cell's sum from above
    over a tile hierarchy and sums in full only the cells whose bound
    exceeds the largest full sum found, so the value is the exact sup, equal
    to the brute-force ``kernels.pair_interaction_sup_numpy``.
    """
    if not gamma > part.d * (1.0 - part.beta):  # raises for nan too
        raise ValueError(
            f"gamma = {gamma} is not in the integrable range "
            f"(need > {part.d * (1.0 - part.beta)})")
    return float(kernels.pair_interaction_sup(
        part.corners, part.sides, gamma, part.wedge))


def lattice_partition_labels(grid, beta, center=None):
    """Label array over the torus assigning every cell its partition cell,
    via the periodic offset to ``center`` (d finite numbers; default origin).

    The triadic level, shift and corner of every offset, one subdivision
    count per distinct triadic cube, then the sub-cell index.  Labels number
    the partition cells in the row-major order of their first lattice cell.
    The central cube is the level-0 cube with shift 0 (shell cubes have a
    nonzero shift).
    """
    d, n = grid.d, grid.n
    center = (0.0,) * d if center is None else tuple(center)
    if len(center) != d or not all(map(math.isfinite, center)):
        raise ValueError(f"center must be {d} finite numbers, got {center}")
    axes = [_offsets(n, center[j]) for j in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    m = np.max(np.abs(pts), axis=1)
    # level k: the point lies in the shell 3^k([-3/2,3/2) \ [-1/2,1/2))
    levels = 1
    while 0.5 * 3.0**levels <= m.max():
        levels += 1
    level = np.searchsorted([0.5 * 3.0 ** (k + 1) for k in range(levels)],
                            m, side="right")
    side = np.array([3.0**k for k in range(levels)])[level]
    shift = np.floor(pts / side[:, None] + 0.5)
    corner = side[:, None] * (shift - 0.5)
    first, cube = kernels._distinct_rows(np.column_stack([level, shift]))
    n_sub = np.array([_subdivision_count(side[p], corner[p], beta, d)
                      for p in first])[cube]
    sub = side / n_sub
    idx = np.minimum(np.floor((pts - corner) / sub[:, None]),
                     (n_sub - 1)[:, None])
    first, cell = kernels._distinct_rows(np.column_stack([level, shift, idx]))
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[cell].reshape(grid.shape)
