"""Hot numeric kernels: operator application and partition interaction sums.

``divform_apply`` is the periodic stencil of ``inv_t - div(a grad .)`` in
numpy.  ``pair_interaction_sup`` prunes: a tile hierarchy bounds every
cell's interaction sum from above, and only the few cells whose bound beats
the best full sum so far are summed in full.  The brute-force
``pair_interaction_sup_numpy`` is its correctness reference.
"""

import numpy as np

# read by the benchmark's environment fingerprint; there is no compiled path
USE_NUMBA = False

__all__ = [
    "divform_apply",
    "pair_interaction_sup",
    "pair_interaction_sup_numpy",
]


def divform_apply(a, u, inv_t=0.0):
    """inv_t*u - div(a grad u) on the torus, with forward-difference grad
    and backward div.

    a has shape (d, d) + grid, u has shape grid; coefficients are applied
    cellwise to the forward-difference gradient.
    """
    d = a.shape[0]
    t = [np.roll(u, -1, axis=j) - u for j in range(d)]
    out = inv_t * u if inv_t != 0.0 else np.zeros_like(u)
    for i in range(d):
        f = a[i, 0] * t[0]
        for j in range(1, d):
            f += a[i, j] * t[j]
        out -= f - np.roll(f, 1, axis=i)
    return out


def _box_dist_sq_numpy(corners, upper, i):
    """Squared distance from box i to every box [corners, upper]."""
    gap = np.maximum(corners - upper[i][None, :], corners[i][None, :] - upper)
    np.maximum(gap, 0.0, out=gap)
    return np.einsum("ij,ij->i", gap, gap)


def _interaction_sums_numpy(corners, sides, gamma, idx):
    """sum_{D'} (1 + dist(D, D'))**(-gamma) for each cell D in ``idx``."""
    upper = corners + sides[:, None]
    sums = np.empty(len(idx))
    for n, i in enumerate(idx):
        d2 = _box_dist_sq_numpy(corners, upper, int(i))
        sums[n] = np.sum((1.0 + np.sqrt(d2)) ** (-gamma))
    return sums


def pair_interaction_sup_numpy(corners, sides, gamma, outer=None):
    """Brute-force sup over cells D of sum_{D'} (1 + dist(D, D'))**(-gamma).

    ``outer`` optionally restricts the cells over which the sup is taken
    (the inner sum always runs over all cells).  Every outer cell is summed
    in full, so the cost is O(len(outer) * m); this is the reference that
    the pruned ``pair_interaction_sup`` is tested against.
    """
    idx = range(corners.shape[0]) if outer is None else outer
    return float(np.max(_interaction_sums_numpy(corners, sides, gamma, idx),
                        initial=0.0))


def _box_dist(lo_a, hi_a, lo_b, hi_b):
    """Distance matrix between boxes [lo_a, hi_a] and boxes [lo_b, hi_b]."""
    gap = np.maximum(lo_b[None] - hi_a[:, None], lo_a[:, None] - hi_b[None])
    np.maximum(gap, 0.0, out=gap)
    return np.sqrt(np.einsum("ijk,ijk->ij", gap, gap))


def _tile_tree(corners, upper, tile):
    """Uniform tile hierarchy over the cells, all levels stacked.

    A cell belongs to the level-0 tile of edge ``tile`` holding its center;
    the level-(l+1) node with integer key k is the union of the level-l
    nodes whose keys shift right by one bit to k.  Returns, per node, its
    key (n, d), level, member count and the bounding box of its members'
    boxes; each cell's level-0 tile; and the level-0 tiles' members as
    ``order[starts[t]:starts[t + 1]]`` (level-0 nodes come first in the
    stacking).
    """
    centers = 0.5 * (corners + upper)
    key = np.floor((centers - centers.min(axis=0)) / tile).astype(np.int64)
    lo, hi, count = corners, upper, np.ones(len(key), dtype=np.int64)
    keys, levels, counts, los, his = [], [], [], [], []
    while True:
        key, inv = np.unique(key, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        order = np.argsort(inv, kind="stable")
        starts = np.searchsorted(inv[order], np.arange(len(key) + 1))
        lo = np.minimum.reduceat(lo[order], starts[:-1])
        hi = np.maximum.reduceat(hi[order], starts[:-1])
        count = np.add.reduceat(count[order], starts[:-1])
        if not keys:
            tile_of, cell_order, cell_starts = inv, order, starts
        keys.append(key)
        levels.append(np.full(len(key), len(levels)))
        counts.append(count)
        los.append(lo)
        his.append(hi)
        if len(key) == 1:
            break
        key = key >> 1
    return (np.concatenate(keys), np.concatenate(levels),
            np.concatenate(counts).astype(np.float64),
            np.concatenate(los), np.concatenate(his), tile_of, cell_order,
            cell_starts)


# level-0 tile edge, in median cell sides
_TILE_SIDES = 6.0
# nodes within this many node edges (per axis, at their own level) of the
# outer cell's tile are refined; the others are bounded as a whole
_NEAR = 2
# pair budget of one vectorized block of the bound
_BLOCK = 1 << 20


def _interaction_bounds(corners, sides, gamma, outer):
    """Upper bounds on sum_{D'} (1 + dist(D, D'))**(-gamma), D in ``outer``.

    The cells are grouped into the tile hierarchy of ``_tile_tree``.  A node
    is near an outer cell in level-0 tile a when its key is within ``_NEAR``
    per axis of the key of a's ancestor at the node's level.  Keys within
    ``_NEAR`` stay within ``_NEAR`` after a right shift, so along the
    ancestor chain of any cell nearness holds from some level upwards (the
    single top node is near).  Hence every cell D' lies either in a near
    level-0 tile, and is summed exactly, or in exactly one far node t: its
    coarsest ancestor that is not near, whose parent is.  A far node
    contributes count(t) * (1 + dist(D, box(t)))**(-gamma), with box(t) the
    bounding box of its members.  That is an upper bound on its members'
    terms because every member D' lies inside box(t), so
    dist(D, box(t)) <= dist(D, D'), and (1 + r)**(-gamma) is non-increasing
    in r for gamma >= 0.
    """
    upper = corners + sides[:, None]
    tile = _TILE_SIDES * float(np.median(sides))
    if not tile > 0.0:
        tile = 1.0
    key, level, count, lo, hi, tile_of, order, starts = _tile_tree(
        corners, upper, tile)
    n_tiles = len(starts) - 1
    own = tile_of[outer]
    by_tile = np.argsort(own, kind="stable")
    bounds = np.empty(len(outer))
    for rows in np.split(by_tile, np.nonzero(np.diff(own[by_tile]))[0] + 1):
        ka = key[own[rows[0]]] >> level[:, None]
        near = np.max(np.abs(key - ka), axis=1) <= _NEAR
        parent_near = np.max(np.abs((key >> 1) - (ka >> 1)), axis=1) <= _NEAR
        far = np.nonzero(parent_near & ~near)[0]
        tiles = np.nonzero(near[:n_tiles])[0]
        members = np.concatenate([order[starts[t]:starts[t + 1]]
                                  for t in tiles])
        step = max(1, _BLOCK // (len(members) + len(far)))
        for blk in np.array_split(rows, -(-len(rows) // step)):
            cells = outer[blk]
            lo_c, hi_c = corners[cells], upper[cells]
            exact = (1.0 + _box_dist(lo_c, hi_c, corners[members],
                                     upper[members])) ** (-gamma)
            coarse = (1.0 + _box_dist(lo_c, hi_c, lo[far], hi[far])
                      ) ** (-gamma)
            bounds[blk] = exact.sum(axis=1) + coarse @ count[far]
    return bounds


# batch of surviving cells summed exactly between two checks of the bound
_BATCH = 8


def pair_interaction_sup(corners, sides, gamma, outer=None):
    """Exact sup over cells D of sum_{D'} (1 + dist(D, D'))**(-gamma).

    ``outer`` optionally restricts the cells over which the sup is taken
    (the inner sum always runs over all cells).  Requires gamma >= 0.

    Bound and prune: ``_interaction_bounds`` gives every outer cell an upper
    bound on its sum from a tile hierarchy (exact over nearby tiles, count
    times the kernel at the bounding-box distance for far nodes).  Cells are
    then summed in full in order of decreasing bound, until the next bound
    is no larger than the largest full sum found; no cell that is skipped can
    exceed it, so the result equals ``pair_interaction_sup_numpy``.  The
    bounds are widened by a relative 1e-9 so that the rounding of the two
    summation orders cannot prune a maximizer.
    """
    corners = np.asarray(corners, dtype=np.float64)
    sides = np.asarray(sides, dtype=np.float64)
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"gamma = {gamma} < 0: the kernel must not increase")
    if outer is None:
        outer = np.arange(corners.shape[0], dtype=np.int64)
    else:
        outer = np.asarray(outer, dtype=np.int64)
    if outer.size == 0:
        return 0.0
    bounds = _interaction_bounds(corners, sides, gamma, outer) * (1.0 + 1e-9)
    rank = np.argsort(-bounds, kind="stable")
    bounds, outer = bounds[rank], outer[rank]
    best = 0.0
    for k in range(0, outer.size, _BATCH):
        if bounds[k] <= best:
            break
        sums = _interaction_sums_numpy(corners, sides, gamma,
                                       outer[k:k + _BATCH])
        best = max(best, float(np.max(sums)))
    return best
