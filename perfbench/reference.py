"""Reference computations the benchmark checks homlab's outputs against.

Everything here is written from the definitions, with numpy only, and calls
nothing from homlab: the divergence-form stencil, the divergence of the flux
corrector, Parseval's formula for the growth profile, the ball variance of a
quadratic's gradient, the brute-force partition interaction sum, the raster
of partition cells over the lattice and per-label sums.
"""

import numpy as np


def _fwd(u, axis):
    """Forward difference with periodic wrap."""
    return np.roll(u, -1, axis=axis) - u


def _bwd(u, axis):
    """Backward difference with periodic wrap."""
    return u - np.roll(u, 1, axis=axis)


def divform_stencil(a, u):
    """-div_b(a grad_f u) for coefficients a of shape (d, d) + grid."""
    d = u.ndim
    grads = [_fwd(u, j) for j in range(d)]
    out = np.zeros_like(u)
    for i in range(d):
        flux = sum(a[i, j] * grads[j] for j in range(d))
        out -= _bwd(flux, i)
    return out


def corrector_residual(a, phi_i, i):
    """||div_b(a (grad_f phi_i + e_i))|| / ||div_b(a e_i)||."""
    rhs = sum(_bwd(a[p, i], p) for p in range(phi_i.ndim))
    return float(np.linalg.norm(divform_stencil(a, phi_i) - rhs)
                 / np.linalg.norm(rhs))


def _pairs(d):
    return [(j, k) for j in range(d) for k in range(j + 1, d)]


def sigma_divergence_error(sigma_values, q):
    """max_i ||div_b sigma_i - q_i|| / ||q_i|| for sigma_ijk stored for
    j < k as (d, n_pairs) + grid, with sigma_ikj = -sigma_ijk."""
    d = q.shape[0]
    worst = 0.0
    for i in range(d):
        div = np.zeros_like(q[i])
        for p, (j, k) in enumerate(_pairs(d)):
            s = sigma_values[i, p]
            div[j] += _bwd(s, k)     # (div sigma_i)_j gets d_k sigma_ijk
            div[k] -= _bwd(s, j)     # (div sigma_i)_k gets d_j sigma_ikj
        worst = max(worst, float(np.linalg.norm(div - q[i])
                                 / np.linalg.norm(q[i])))
    return worst


def voigt_reuss_margin(a_diag, a_hom_ii):
    """min(a_hom_ii - harmonic mean, arithmetic mean - a_hom_ii) of the
    cell values a_diag; negative when a_hom_ii leaves the bounds."""
    harm = 1.0 / float(np.mean(1.0 / a_diag))
    arith = float(np.mean(a_diag))
    return min(a_hom_ii - harm, arith - a_hom_ii)


def ball_offsets(radius, d):
    """Integer offsets x with |x|^2 <= radius^2, shape (count, d)."""
    r = int(np.floor(radius))
    axes = np.meshgrid(*([np.arange(-r, r + 1)] * d), indexing="ij")
    pts = np.stack([ax.ravel() for ax in axes], axis=1)
    return pts[np.sum(pts**2, axis=1) <= radius**2]


def ball_kernel(shape, radius):
    """Normalized indicator of the periodic ball of given radius around
    the origin cell, on a torus of the given shape."""
    kern = np.zeros(shape)
    pts = ball_offsets(radius, len(shape))
    kern[tuple((pts % np.array(shape)).T)] = 1.0
    return kern / kern.sum()


def extended_components(phi, sigma_values):
    """phi_i and sqrt(2) sigma_ijk (j < k) stacked, so that the plain sum
    of squares is |(phi, sigma)|^2 with both orderings of every pair."""
    shape = phi.shape[1:]
    return np.concatenate(
        [phi, np.sqrt(2.0) * sigma_values.reshape((-1,) + shape)])


def growth_value_parseval(comps, radius):
    """Torus average over centers x of the ball variance of every component,
    summed: sum_c mean(c^2) - mean((K_R * c)^2), the second mean taken in
    Fourier space as sum_k |c_hat|^2 |K_hat_R|^2 / N^2."""
    shape = comps.shape[1:]
    cells = float(np.prod(shape))
    k2 = np.abs(np.fft.fftn(ball_kernel(shape, radius))) ** 2
    total = 0.0
    for c in comps:
        c2 = np.abs(np.fft.fftn(c)) ** 2
        total += float(np.mean(c**2)) - float(np.sum(c2 * k2)) / cells**2
    return total


def quadratic_coefficients(field, center, d):
    """Q with field(center + x) = x^T Q x, read off at x = e_i and e_i + e_j
    (the field is assumed quadratic; the caller checks that it is)."""
    c = np.asarray(center, dtype=np.int64)
    n = field.shape[0]

    def at(x):
        return float(field[tuple((c + x) % n)])

    eye = np.eye(d, dtype=np.int64)
    q = np.zeros((d, d))
    for i in range(d):
        q[i, i] = at(eye[i])
    for i in range(d):
        for j in range(i + 1, d):
            q[i, j] = q[j, i] = 0.5 * (at(eye[i] + eye[j]) - q[i, i]
                                       - q[j, j])
    return q


def quadratic_field(q, center, shape):
    """x^T Q x over the torus, x the periodic offset of each cell from
    ``center`` taken in [-n/2, n/2)."""
    d = len(shape)
    out = np.zeros(shape)
    offs = []
    for j in range(d):
        n = shape[j]
        x = (np.arange(n) - center[j] + n // 2) % n - n // 2
        sh = [1] * d
        sh[j] = n
        offs.append(x.reshape(sh).astype(np.float64))
    for i in range(d):
        for j in range(d):
            out = out + q[i, j] * offs[i] * offs[j]
    return out


def quadratic_gradient_variance(q, radius):
    """Ball variance, summed over components, of the forward-difference
    gradient 2 Q x + diag(Q) of x^T Q x over the integer ball |x| <= radius:
    4 tr(Q C Q) with C the covariance of the ball's offsets."""
    pts = ball_offsets(radius, q.shape[0]).astype(np.float64)
    cov = np.cov(pts.T, bias=True)
    return float(4.0 * np.trace(q @ cov @ q))


def interaction_sums(corners, sides, gamma, idx, block=256):
    """sum_{D'} (1 + dist(D, D'))**(-gamma) for every cell D in ``idx``,
    over all cells D', with dist the Euclidean distance between boxes."""
    upper = corners + sides[:, None]
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty(len(idx))
    for s in range(0, len(idx), block):
        rows = idx[s:s + block]
        gap = np.maximum(corners[None] - upper[rows][:, None],
                         corners[rows][:, None] - upper[None])
        np.maximum(gap, 0.0, out=gap)
        dist = np.sqrt(np.sum(gap**2, axis=2))
        out[s:s + block] = np.sum((1.0 + dist) ** (-gamma), axis=1)
    return out


def interaction_sup(corners, sides, gamma):
    """Brute-force sup over all cells of ``interaction_sums``."""
    return float(np.max(interaction_sums(corners, sides, gamma,
                                         np.arange(len(sides)))))


def raster_cells(corners, sides, n):
    """For the lattice offsets x in [-n/2, n/2)^2, the number of partition
    cells [corner, corner + side) holding x and the index of the last one.
    Offsets index the returned arrays as x + n/2 (2D only)."""
    half = n // 2
    count = np.zeros((n, n), dtype=np.int64)
    owner = np.full((n, n), -1, dtype=np.int64)
    eps = 1e-9
    lo = np.ceil(corners - eps).astype(np.int64)
    hi = np.ceil(corners + sides[:, None] - eps).astype(np.int64)
    lo = np.clip(lo + half, 0, n)
    hi = np.clip(hi + half, 0, n)
    live = np.nonzero(np.all(hi > lo, axis=1))[0]
    for c in live:
        sl = (slice(lo[c, 0], hi[c, 0]), slice(lo[c, 1], hi[c, 1]))
        count[sl] += 1
        owner[sl] = c
    return count, owner


def label_cell_mismatches(labels, corners, sides):
    """Check that the label array over the 2D torus window (origin at cell
    0, offsets wrapped into [-n/2, n/2)) puts every lattice cell in exactly
    one partition cell, and that labels and partition cells correspond one
    to one.  Returns a list of problems, empty when the labels agree."""
    n = labels.shape[0]
    count, owner = raster_cells(corners, sides, n)
    # label array index i holds offset ((i + n/2) mod n) - n/2
    shift = np.roll(np.roll(labels, n // 2, axis=0), n // 2, axis=1)
    problems = []
    if np.any(count != 1):
        problems.append(f"{int(np.sum(count != 1))} lattice cells not in "
                        f"exactly one partition cell")
        return problems
    pairs = np.unique(np.stack([shift.ravel(), owner.ravel()]), axis=1)
    if pairs.shape[1] != len(np.unique(shift)):
        problems.append("a label spans more than one partition cell")
    if pairs.shape[1] != len(np.unique(owner)):
        problems.append("a partition cell carries more than one label")
    return problems


def label_square_sums(labels, weights):
    """sum over labels of (sum of weights carrying that label)^2, by
    sorting (not bincount)."""
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")
    sorted_labels = flat[order]
    starts = np.concatenate(
        [[0], np.nonzero(np.diff(sorted_labels))[0] + 1])
    sums = np.add.reduceat(weights.ravel()[order], starts)
    return float(np.sum(sums**2))
