import numpy as np
import pytest

from homlab import kernels
from homlab.partition import build_partition, interaction_sum


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
        lhs = np.sum(v * kernels.divform_apply(a, u, 0.0))
        rhs = np.sum(u * kernels.divform_apply(a, v, 0.0))
        assert np.isclose(lhs, rhs)

    def test_positive_semidefinite(self):
        a = _coeffs(2, 12, seed=6)
        u = np.random.default_rng(3).standard_normal((12, 12))
        assert np.sum(u * kernels.divform_apply(a, u, 0.0)) >= 0.0


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
