"""Tests of the benchmark's reference code against constructions of its own.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import reference as ref  # noqa: E402
from homlab import kernels  # noqa: E402
from homlab.partition import build_partition  # noqa: E402


def _forward_difference(shape, axis):
    """Sparse periodic forward difference along ``axis`` of a C-order grid."""
    n = shape[axis]
    shift = sp.diags([np.ones(n - 1), np.ones(1)], [1, -(n - 1)])
    one = sp.identity(n)
    factors = [sp.identity(m) for m in shape]
    factors[axis] = shift - one
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f)
    return out.tocsr()


@pytest.mark.parametrize("shape", [(6, 8), (4, 5, 6)])
def test_stencil_matches_sparse_assembly(shape):
    """-div_b(a grad_f u) = sum_ij D_i^T diag(a_ij) D_j u, with D_j the
    forward difference, for a non-symmetric field."""
    rng = np.random.default_rng(1)
    d = len(shape)
    a = rng.uniform(0.2, 1.0, (d, d) + shape)
    u = rng.standard_normal(shape)
    diffs = [_forward_difference(shape, j) for j in range(d)]
    op = sum(diffs[i].T @ sp.diags(a[i, j].ravel()) @ diffs[j]
             for i in range(d) for j in range(d))
    want = (op @ u.ravel()).reshape(shape)
    np.testing.assert_allclose(ref.divform_stencil(a, u), want,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape,radius", [((16, 16), 3.0), ((12, 12), 2.5),
                                          ((8, 8, 8), 1.5)])
def test_parseval_growth_matches_direct_ball_variances(shape, radius):
    """sum_c mean over centers x of the variance of c over B_R(x), with
    every ball enumerated cell by cell."""
    rng = np.random.default_rng(2)
    comps = rng.standard_normal((3,) + shape)
    offsets = ref.ball_offsets(radius, len(shape))
    total = 0.0
    for c in comps:
        acc = 0.0
        for x in np.ndindex(*shape):
            vals = c[tuple(((np.array(x) + offsets) % shape).T)]
            acc += np.mean(vals**2) - np.mean(vals) ** 2
        total += acc / c.size
    assert ref.growth_value_parseval(comps, radius) == pytest.approx(
        total, rel=1e-12)


def test_extended_components_norm():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((3, 4, 4, 4))
    sigma = rng.standard_normal((3, 3, 4, 4, 4))
    comps = ref.extended_components(phi, sigma)
    full = np.sum(phi**2, axis=0) + 2.0 * np.sum(sigma**2, axis=(0, 1))
    np.testing.assert_allclose(np.sum(comps**2, axis=0), full, rtol=1e-14)


@pytest.mark.parametrize("radius", [2.0, 4.0, 7.5])
def test_quadratic_gradient_variance_matches_direct(radius):
    """Ball variance of the forward-difference gradient of x^T Q x,
    differenced on the grid, against 4 tr(Q C Q)."""
    q = np.array([[0.7, 0.4], [0.4, -0.7]])
    n = 64
    field = ref.quadratic_field(q, (0, 0), (n, n))
    grads = [np.roll(field, -1, axis=j) - field for j in range(2)]
    pts = ref.ball_offsets(radius, 2) % n
    var = sum(np.var(g[tuple(pts.T)]) for g in grads)
    assert ref.quadratic_gradient_variance(q, radius) == pytest.approx(
        var, rel=1e-10)
    np.testing.assert_allclose(ref.quadratic_coefficients(field, (0, 0), 2),
                               q, atol=1e-12)


@pytest.mark.parametrize("width,beta,gamma", [(4.5, 0.0, 2.5),
                                              (13.5, 0.3, 1.9),
                                              (13.5, 0.6, 1.3)])
def test_brute_force_sup_matches_kernel_reference(width, beta, gamma):
    part = build_partition(width, beta, 2)
    want = kernels.pair_interaction_sup_numpy(part.corners, part.sides,
                                              gamma)
    got = ref.interaction_sup(part.corners, part.sides, gamma)
    assert got == pytest.approx(want, rel=1e-12)


def test_raster_and_label_sums():
    """Four cells of side 4 tiling [-4, 4)^2; labels that agree, one that
    straddles two cells, and the per-label square sums."""
    corners = np.array([[-4.0, -4.0], [-4.0, 0.0], [0.0, -4.0], [0.0, 0.0]])
    sides = np.full(4, 4.0)
    count, owner = ref.raster_cells(corners, sides, 8)
    assert np.all(count == 1)
    # label array in torus order: index i holds offset ((i + 4) mod 8) - 4
    x = (np.arange(8) + 4) % 8 - 4
    labels = 2 * (x[:, None] >= 0) + (x[None, :] >= 0)
    assert ref.label_cell_mismatches(labels, corners, sides) == []
    bad = labels.copy()
    bad[0, 0] = 3 - bad[0, 0]
    assert ref.label_cell_mismatches(bad, corners, sides)
    w = np.arange(64.0).reshape(8, 8)
    want = float(np.sum(np.bincount(labels.ravel(), weights=w.ravel()) ** 2))
    assert ref.label_square_sums(labels, w) == pytest.approx(want,
                                                             rel=1e-15)
