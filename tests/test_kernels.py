import numpy as np
import pytest

from homlab import kernels
from homlab.lattice import GridSpec
from homlab.partition import build_partition, interaction_sum
from homlab.randomfield import (CoefficientModel, CovarianceSpec, SeedSpec,
                                sample_gaussian, to_coefficients)
from stencil import assembled_operator


def _coeffs(d, n, seed=0, symmetric=True):
    rng = np.random.default_rng(seed)
    a = 0.25 + 0.75 * rng.random((d, d) + (n,) * d)
    if symmetric:
        a = (a + np.swapaxes(a, 0, 1)) / 2
    return a


class TestDivformParity:
    def test_symmetric_operator(self):
        a = _coeffs(2, 12, seed=5)
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal((2, 12, 12))
        lhs = np.sum(v * kernels.divform_apply(a, u))
        rhs = np.sum(u * kernels.divform_apply(a, v))
        assert np.isclose(lhs, rhs)

    def test_positive_semidefinite(self):
        a = _coeffs(2, 12, seed=6)
        u = np.random.default_rng(3).standard_normal((12, 12))
        assert np.sum(u * kernels.divform_apply(a, u)) >= 0.0


def _divform_roll(a, u):
    """The stencil as first written, by ``np.roll`` over every block: the
    reference that ``divform_apply`` must reproduce bit for bit."""
    d = a.shape[0]
    t = [np.roll(u, -1, axis=j) - u for j in range(d)]
    out = np.zeros_like(u)
    for i in range(d):
        f = a[i, 0] * t[0]
        for j in range(1, d):
            f += a[i, j] * t[j]
        out -= f - np.roll(f, 1, axis=i)
    return out


def _model_field(d, n, nu, seed=0):
    """``to_coefficients`` on a sampled Gaussian field: sym(x) Id, plus
    nu w(x) J on the (0, 1) pair when nu > 0."""
    grid = GridSpec(d, n)
    spec = CovarianceSpec(d + 0.5, 0.0)
    g1 = sample_gaussian(spec, grid, SeedSpec(seed, 0))
    g2 = sample_gaussian(spec, grid, SeedSpec(seed, 0, salt=1)) if nu else None
    return to_coefficients(g1, CoefficientModel(0.25, nu), g2, grid).a


def _skew_dir(d):
    da = np.zeros((d, d))
    da[0, 1], da[1, 0] = 1.0, -1.0
    return da / np.sqrt(2.0)


def _field(kind, d, n=(16, 8)):
    n = n[d - 2]
    if kind == "diagonal":
        return _model_field(d, n, 0.0)
    if kind == "skew":
        return _model_field(d, n, 0.2)
    if kind == "dense":
        return _coeffs(d, n, seed=d, symmetric=False)
    if kind == "one_cell":
        # fd_check's perturbation: one cell gains t J / sqrt 2
        a = _model_field(d, n, 0.0)
        a[(Ellipsis,) + (3,) * d] += 1e-4 * _skew_dir(d)
        return a
    # a non-cubic crop, like the boxes that Dirichlet-ball solves run on
    crop = tuple(slice(0, m) for m in (12, 10, 6)[:d])
    return _model_field(d, 16, 0.2)[(slice(None), slice(None)) + crop]


KINDS = ("diagonal", "skew", "dense", "one_cell", "non_cubic")


class TestDivformReference:
    """divform_apply against the ``np.roll`` formula and the assembled
    sparse operator, on inputs with zero mean and with a constant ``shift``
    added, which the operator annihilates."""

    @pytest.mark.parametrize("shift", [0.0, 1.0 / 8.0])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_roll_formula(self, d, kind, shift):
        a = _field(kind, d)
        u = np.random.default_rng(7).standard_normal(a.shape[2:]) + shift
        want = _divform_roll(a, u)
        assert np.array_equal(kernels.divform_apply(a, u), want)
        cols = kernels.coupled_columns(a)
        assert np.array_equal(kernels.divform_apply(a, u, cols), want)

    @pytest.mark.parametrize("shift", [0.0, 1.0 / 8.0])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_assembled_operator(self, d, kind, shift):
        a = _field(kind, d)
        u = np.random.default_rng(8).standard_normal(a.shape[2:])
        want = assembled_operator(a) @ u.reshape(-1)
        got = kernels.divform_apply(a, u + shift).reshape(-1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_input_untouched_and_output_fresh(self):
        a = _field("skew", 2)
        u = np.random.default_rng(9).standard_normal(a.shape[2:])
        a0, u0 = a.copy(), u.copy()
        out1 = kernels.divform_apply(a, u)
        out2 = kernels.divform_apply(a, u)
        assert np.array_equal(a, a0) and np.array_equal(u, u0)
        assert not np.shares_memory(out1, out2)
        assert not np.shares_memory(out1, u)


class TestSharedDifferences:
    @pytest.mark.parametrize("d", [2, 3])
    def test_dense_field_takes_d_forward_differences(self, d, monkeypatch):
        # every row reads every column's forward difference; each is taken
        # once, and each row takes one backward difference
        a = _field("dense", d)
        u = np.random.default_rng(10).standard_normal(a.shape[2:])
        want = _divform_roll(a, u)
        calls = []
        pdiff = kernels._pdiff

        def counting(v, axis, forward=True, out=None):
            calls.append((axis, forward))
            return pdiff(v, axis, forward, out)

        monkeypatch.setattr(kernels, "_pdiff", counting)
        assert np.array_equal(kernels.divform_apply(a, u), want)
        assert sorted(axis for axis, fw in calls if fw) == list(range(d))
        assert sorted(axis for axis, fw in calls if not fw) == list(range(d))


class TestCoupledColumns:
    def test_diagonal_field(self):
        assert kernels.coupled_columns(_field("diagonal", 3)) == (
            (0,), (1,), (2,))
        assert kernels.coupled_columns(_field("diagonal", 2)) == ((0,), (1,))

    def test_skew_field(self):
        assert kernels.coupled_columns(_field("skew", 2)) == ((0, 1), (0, 1))
        assert kernels.coupled_columns(_field("skew", 3)) == (
            (0, 1), (0, 1), (2,))

    def test_dense_field(self):
        assert kernels.coupled_columns(_field("dense", 3)) == ((0, 1, 2),) * 3

    def test_single_off_diagonal_cell(self):
        a = _field("diagonal", 3)
        a[1, 2, 5, 0, 7] = 1e-300
        assert kernels.coupled_columns(a) == ((0,), (1, 2), (2,))
        assert kernels.coupled_columns(_field("one_cell", 3)) == (
            (0, 1), (0, 1), (2,))

    def test_zero_diagonal_kept(self):
        a = np.zeros((2, 2, 8, 8))
        assert kernels.coupled_columns(a) == ((0,), (1,))


class TestInteractionParity:
    def test_touching_boxes_distance_zero(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0]])
        sides = np.array([1.0, 1.0])
        # dist = 0 for touching boxes: each term is 1
        v = kernels.pair_interaction_sup_numpy(corners, sides, 3.0)
        assert np.isclose(v, 2.0)


def _scattered_boxes(seed=0):
    """Boxes of mixed sizes spread over [-60, 60]^2 plus a dense cluster of
    small boxes near (45, -38), shuffled: the sup sits in the cluster, far
    from the origin and at no particular position in the input order."""
    rng = np.random.default_rng(seed)
    corners = np.concatenate([rng.uniform(-60.0, 60.0, (400, 2)),
                              [45.0, -38.0] + rng.uniform(0.0, 4.0, (300, 2))])
    sides = np.concatenate([rng.uniform(0.2, 6.0, 400),
                            rng.uniform(0.05, 0.3, 300)])
    perm = rng.permutation(len(sides))
    return corners[perm], sides[perm]


def _box_dist_reference(lo_a, hi_a, lo_b, hi_b):
    """The (rows, members, d) gap array and its einsum: the reference for
    the axis-by-axis ``kernels._box_dist``."""
    gap = np.maximum(lo_b[None] - hi_a[:, None], lo_a[:, None] - hi_b[None])
    np.maximum(gap, 0.0, out=gap)
    return np.sqrt(np.einsum("ijk,ijk->ij", gap, gap))


def _tile_tree_reference(corners, upper, tile):
    """``kernels._tile_tree`` with ``np.unique(key, axis=0)`` in place of the
    flat key codes: the reference for the returned arrays."""
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


class TestBoundHelperReferences:
    """The tile tree and the box distances against the formulas they
    replaced, equal bit for bit."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_box_dist_matches_einsum(self, d):
        rng = np.random.default_rng(d)
        lo = rng.uniform(-5.0, 5.0, (40, d))
        side = rng.uniform(0.0, 3.0, (40, 1))
        side[:8] = 0.0                       # zero-side (point) boxes
        hi = lo + side
        lo[8:12] = hi[12:16]                 # touching: corner on a corner
        hi[8:12] = lo[8:12] + 1.0
        lo[16:20], hi[16:20] = lo[20:24] + 0.1, hi[20:24] + 0.1  # overlap
        got = kernels._box_dist(lo[:25], hi[:25], lo, hi)
        want = _box_dist_reference(lo[:25], hi[:25], lo, hi)
        assert np.array_equal(got, want)
        for i in range(25):   # and the brute force's distances
            assert np.array_equal(
                got[i], np.sqrt(kernels._box_dist_sq_numpy(lo, hi, i)))
        assert np.all(got[np.arange(25), np.arange(25)] == 0.0)
        assert np.any(got[8:12, 12:16] == 0.0)

    @pytest.mark.parametrize("boxes", ["partition-2d", "partition-3d",
                                       "scattered", "point-stacks"])
    def test_tile_tree_matches_unique_rows(self, boxes):
        if boxes == "scattered":
            c, s = _scattered_boxes(seed=3)
        elif boxes == "point-stacks":
            c, s = np.zeros((50, 2)), np.zeros(50)
            c[20:] = [70.0, -30.0]
        else:
            d = 2 if boxes == "partition-2d" else 3
            part = build_partition(40.5 if d == 2 else 13.5, 0.3, d)
            c, s = part.corners, part.sides
        upper = c + s[:, None]
        tile = kernels._TILE_SIDES * float(np.median(s)) or 1.0
        got = kernels._tile_tree(c, upper, tile)
        want = _tile_tree_reference(c, upper, tile)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestPrunedInteraction:
    """The pruned ``pair_interaction_sup`` against the brute-force reference
    ``pair_interaction_sup_numpy``."""

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("w", [4.5, 13.5, 40.5])
    def test_partition_matches_brute_force(self, w, beta):
        part = build_partition(w, beta, 2)
        c, s = part.corners, part.sides
        # just above the integrability threshold d(1 - beta) and well above
        for gamma in (2.0 * (1.0 - beta) + 0.05, 2.0 * (1.0 - beta) + 1.5):
            full = kernels.pair_interaction_sup_numpy(c, s, gamma)
            wedge = kernels.pair_interaction_sup_numpy(c, s, gamma,
                                                       part.wedge)
            assert np.isclose(kernels.pair_interaction_sup(c, s, gamma),
                              full, rtol=1e-12, atol=0.0)
            assert np.isclose(
                kernels.pair_interaction_sup(c, s, gamma, part.wedge),
                wedge, rtol=1e-12, atol=0.0)
            # the wedge loses nothing: the symmetric sup is the full sup
            assert np.isclose(interaction_sum(part, gamma), full,
                              rtol=1e-12, atol=0.0)

    def test_three_dimensional_partition(self):
        part = build_partition(4.5, 0.3, 3)
        gamma = 3.0 * (1.0 - 0.3) + 0.5
        full = kernels.pair_interaction_sup_numpy(part.corners, part.sides,
                                                  gamma)
        assert np.isclose(interaction_sum(part, gamma), full, rtol=1e-12,
                          atol=0.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0])
    def test_scattered_boxes(self, gamma):
        c, s = _scattered_boxes()
        sums = kernels._interaction_sums_numpy(c, s, gamma, range(len(s)))
        i_max = int(np.argmax(sums))
        if gamma > 0.0:
            assert np.linalg.norm(c[i_max]) > 40.0   # far from the origin
        assert np.isclose(kernels.pair_interaction_sup(c, s, gamma),
                          sums[i_max], rtol=1e-12, atol=0.0)
        outer = np.random.default_rng(1).permutation(len(s))[:350]
        want = kernels.pair_interaction_sup_numpy(c, s, gamma, outer)
        assert np.isclose(kernels.pair_interaction_sup(c, s, gamma, outer),
                          want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0])
    def test_bounds_dominate_sums(self, gamma):
        c, s = _scattered_boxes(seed=2)
        idx = np.arange(len(s))
        sums = kernels._interaction_sums_numpy(c, s, gamma, idx)
        bounds = kernels._interaction_bounds(c, s, gamma, idx)
        assert np.all(bounds >= sums * (1.0 - 1e-12))

    def test_bound_exact_for_two_stacks(self):
        # two stacks of coincident point boxes: every far node of a cell is
        # the other stack, whose bounding box is a point, so the upper bound
        # equals the sum and any undercut of it shows
        corners = np.zeros((50, 2))
        corners[20:] = [70.0, -30.0]
        sides = np.zeros(50)
        idx = np.arange(50)
        for gamma in (0.5, 2.5):
            sums = kernels._interaction_sums_numpy(corners, sides, gamma, idx)
            bounds = kernels._interaction_bounds(corners, sides, gamma, idx)
            assert np.allclose(bounds, sums, rtol=1e-12, atol=0.0)
            want = 30.0 + 20.0 * (1.0 + np.hypot(70.0, 30.0)) ** (-gamma)
            assert np.isclose(kernels.pair_interaction_sup(corners, sides,
                                                           gamma),
                              want, rtol=1e-12, atol=0.0)

    def test_empty_outer_and_negative_gamma(self):
        c, s = _scattered_boxes()
        assert kernels.pair_interaction_sup(c, s, 2.0, []) == 0.0
        with pytest.raises(ValueError):
            kernels.pair_interaction_sup(c, s, -0.5)

    def test_nan_gamma_rejected(self):
        # the brute-force reference gives nan; a nan gamma must raise, not
        # let the pruning skip every cell and return a sup of 0
        c, s = _scattered_boxes()
        assert np.isnan(kernels.pair_interaction_sup_numpy(c, s, np.nan))
        with pytest.raises(ValueError, match="gamma = nan"):
            kernels.pair_interaction_sup(c, s, np.nan)
