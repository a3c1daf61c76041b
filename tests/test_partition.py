import numpy as np
import pytest

from homlab.lattice import GridSpec
from homlab.partition import (_subdivision_count, _triadic_cubes,
                              build_partition, check_refinement,
                              interaction_sum, lattice_partition_labels)


def locate_cell(point, beta, d=None):
    """Index-free location of the partition cell containing a point:
    returns (corner, side) of the cell from the triadic construction.  The
    per-point reference for the vectorized labels."""
    point = np.asarray(point, dtype=np.float64)
    d = d if d is not None else point.size
    m = float(np.max(np.abs(point)))
    if m < 0.5:
        corner, side = np.full(d, -0.5), 1.0
    else:
        # level k with the point inside the shell 3^k([-3/2,3/2) \ [-1/2,1/2))
        k = 0
        while 0.5 * 3.0 ** (k + 1) <= m:
            k += 1
        side = 3.0**k
        shift = np.floor(point / side + 0.5)
        corner = side * (shift - 0.5)
    n = _subdivision_count(side, corner, beta, d)
    sub = side / n
    idx = np.minimum(np.floor((point - corner) / sub), n - 1)
    return corner + sub * idx, sub


def _labels_reference(grid, beta, center=None):
    """One ``locate_cell`` call per lattice cell, labels in first-seen
    row-major order: the reference for the vectorized labels."""
    d, n = grid.d, grid.n
    center = center or (0.0,) * d
    key_to_label = {}
    labels = np.empty(grid.shape, dtype=np.int64)
    for idx in np.ndindex(*grid.shape):
        off = tuple(((idx[j] - center[j] + n / 2) % n) - n / 2
                    for j in range(d))
        corner, side = locate_cell(np.array(off), beta, d)
        key = (round(side * 2**24),) + tuple(round(c * 2**24) for c in corner)
        labels[idx] = key_to_label.setdefault(key, len(key_to_label))
    return labels


def _build_partition_reference(half_width, beta, d):
    """One ``np.ndindex`` step per cell: the reference for the vectorized
    ``build_partition``."""
    corners, sides, subs = [], [], []
    for corner, side in _triadic_cubes(half_width, d):
        n = _subdivision_count(side, corner, beta, d)
        sub = side / n
        for idx in np.ndindex(*(n,) * d):
            corners.append(corner + sub * np.array(idx))
            sides.append(sub)
            subs.append(n)
    return (np.array(corners), np.array(sides),
            np.array(subs, dtype=np.int64))


class TestConstruction:
    def test_smallest_region(self):
        # at beta = 0 the central unit cube (diam sqrt(2) > 1) is split
        # into 2 x 2 subcells of side 1/2
        part = build_partition(0.5, 0.0, 2)
        assert part.corners.shape[0] == 4
        assert np.allclose(part.sides, 0.5)
        assert check_refinement(part) >= 1.0

    def test_beta_zero_cell_sizes(self):
        # the finest cells are the central ones of side 1/2; subdivided
        # triadic cubes have side 3^k / ceil(sqrt(2) 3^k) < 1
        part = build_partition(13.5, 0.0, 2)
        assert np.max(part.sides) <= 1.0 + 1e-12
        assert np.min(part.sides) >= 0.5 - 1e-12

    def test_central_cube_subdivision(self):
        # dist = 0: n = ceil(sqrt(d)), side 1/n
        for d in (2, 3):
            part = build_partition(1.5, 0.0, d)
            central = np.all(
                (part.corners >= -0.5 - 1e-12)
                & (part.corners + part.sides[:, None] <= 0.5 + 1e-12), axis=1)
            n = int(np.ceil(np.sqrt(d)))
            assert np.allclose(part.sides[central], 1.0 / n)
            assert central.sum() == n**d

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.6])
    def test_tiling_volume(self, beta):
        for w in (4.5, 13.5):
            part = build_partition(w, beta, 2)
            assert np.isclose(part.volume(), (2.0 * w) ** 2, rtol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_partition(10.0, 0.0, 2)   # not 3^k/2
        with pytest.raises(ValueError):
            build_partition(4.5, 1.0, 2)    # beta out of range

    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_dimension_rejected(self, d):
        with pytest.raises(ValueError, match="dimension"):
            build_partition(4.5, 0.0, d)

    @pytest.mark.parametrize("d,w,beta", [
        (2, 0.5, 0.0), (2, 4.5, 0.6), (2, 40.5, 0.0), (2, 121.5, 0.0),
        (2, 364.5, 0.3), (3, 1.5, 0.0), (3, 13.5, 0.3), (3, 40.5, 0.6)])
    def test_matches_loop_reference(self, d, w, beta):
        part = build_partition(w, beta, d)
        corners, sides, subs = _build_partition_reference(w, beta, d)
        assert np.array_equal(part.corners, corners)
        assert np.array_equal(part.sides, sides)
        assert np.array_equal(part.n_sub, subs)
        assert part.n_sub.dtype == subs.dtype

    def test_growth_with_beta(self):
        part = build_partition(40.5, 0.6, 2)
        far = part.dist > 20.0
        assert np.min(part.sides[far]) > 1.0  # far cells are coarse


class TestRefinement:
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.6])
    def test_left_inequality_and_stability(self, beta):
        c1 = check_refinement(build_partition(4.5, beta, 2))
        c2 = check_refinement(build_partition(13.5, beta, 2))
        c3 = check_refinement(build_partition(40.5, beta, 2))
        assert abs(c2 - c3) <= 0.1 * max(c2, c3)
        assert c1 <= np.sqrt(2) * 2.0 + 1e-9 or beta > 0

    def test_beta_zero_bound(self):
        c = check_refinement(build_partition(13.5, 0.0, 2))
        assert c <= 2.0 * np.sqrt(2)


class TestInteraction:
    def test_single_cell(self):
        from homlab.partition import Partition
        part = Partition(np.array([[-0.5, -0.5]]), np.array([1.0]),
                         np.array([1]), 0.0, 0.5, 2)
        assert np.isclose(interaction_sum(part, 2.5), 1.0)

    def test_monotone_in_gamma(self):
        part = build_partition(13.5, 0.0, 2)
        a = interaction_sum(part, 2.2)
        b = interaction_sum(part, 3.0)
        assert b < a

    def test_truncation_convergence(self):
        # the truncation error decays like W^{-1/2}, so successive Cauchy
        # differences shrink by about 3^{-1/2} per tripling
        vals = [interaction_sum(build_partition(w, 0.0, 2), 2.5)
                for w in (4.5, 13.5, 40.5)]
        d1 = vals[1] - vals[0]
        d2 = vals[2] - vals[1]
        assert 0.0 < d2 < 0.75 * d1

    def test_nonintegrable_rejected(self):
        part = build_partition(4.5, 0.0, 2)
        with pytest.raises(ValueError):
            interaction_sum(part, 1.9)

    def test_nan_gamma_rejected(self):
        # nan fails every comparison, so only a negated check rejects it
        with pytest.raises(ValueError, match="gamma = nan"):
            interaction_sum(build_partition(4.5, 0.3, 2), np.nan)


class TestLocate:
    def test_points_land_in_their_cells(self):
        rng = np.random.default_rng(0)
        for beta in (0.0, 0.4):
            for _ in range(50):
                p = rng.uniform(-13.0, 13.0, 2)
                corner, side = locate_cell(p, beta, 2)
                assert np.all(corner - 1e-12 <= p)
                assert np.all(p < corner + side + 1e-12)

    def test_matches_constructed_partition(self):
        part = build_partition(4.5, 0.3, 2)
        rng = np.random.default_rng(1)
        corners = {(round(c[0], 9), round(c[1], 9), round(s, 9))
                   for c, s in zip(part.corners, part.sides)}
        for _ in range(50):
            p = rng.uniform(-4.4, 4.4, 2)
            corner, side = locate_cell(p, 0.3, 2)
            key = (round(corner[0], 9), round(corner[1], 9), round(side, 9))
            assert key in corners

    def test_labels_cover_grid(self):
        grid = GridSpec(2, 16)
        labels = lattice_partition_labels(grid, 0.3)
        assert labels.min() == 0
        assert labels.max() + 1 == len(np.unique(labels))

    @pytest.mark.parametrize("d,n,beta", [(2, 64, 0.0), (2, 64, 0.3),
                                          (2, 54, 0.0), (2, 54, 0.3),
                                          (3, 16, 0.3)])
    def test_labels_match_reference(self, d, n, beta):
        grid = GridSpec(d, n)
        assert np.array_equal(lattice_partition_labels(grid, beta),
                              _labels_reference(grid, beta))

    def test_labels_match_reference_off_center(self):
        grid = GridSpec(2, 32)
        for center in ((0.5, 0.5), (3.25, -1.5)):
            assert np.array_equal(
                lattice_partition_labels(grid, 0.6, center),
                _labels_reference(grid, 0.6, center))

    @pytest.mark.parametrize("beta", [1.5, 1.0, -0.5, np.inf, np.nan])
    def test_labels_reject_beta_as_build_partition_does(self, beta):
        # unchecked, the first four gave labels and nan an integer error
        for make in (lambda: build_partition(4.5, beta, 2),
                     lambda: lattice_partition_labels(GridSpec(2, 32), beta)):
            with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\)"):
                make()

    @pytest.mark.parametrize("center", [(0.0, 0.0, 5.0), (np.nan, 0.0),
                                        (0.0,)])
    def test_labels_reject_a_center_not_d_finite_numbers(self, center):
        with pytest.raises(ValueError, match="center must be 2 finite"):
            lattice_partition_labels(GridSpec(2, 32), 0.5, center)
