"""Benchmark the operator kernel (numba against numpy), the pruned
partition interaction sup against its brute-force reference, and the
Parseval growth profile against the real-space ball-mean loop.

Run:  python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from homlab import kernels
from homlab.corrector import build_corrector_set, extended_components
from homlab.diagnostics import growth_profile
from homlab.lattice import GridSpec, ball_mean_field
from homlab.partition import build_partition
from homlab.randomfield import (CoefficientModel, CovarianceSpec, SeedSpec,
                                sample_gaussian, to_coefficients)


def _time(fn, *args, repeat=5):
    fn(*args)  # warm-up (JIT compile on the numba path)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_divform():
    rng = np.random.default_rng(0)
    print(f"{'divform_apply':<24}{'numpy':>12}{'numba':>12}{'speedup':>10}")
    for d, n in ((2, 256), (2, 512), (3, 64)):
        shape = (n,) * d
        a = 0.25 + 0.75 * rng.random((d, d) + shape)
        a = (a + np.swapaxes(a, 0, 1)) / 2
        u = rng.standard_normal(shape)
        t_np = _time(kernels.divform_apply_numpy, a, u, 0.0)
        if kernels.USE_NUMBA:
            t_nb = _time(kernels.divform_apply, a, u, 0.0)
            out_np = kernels.divform_apply_numpy(a, u, 0.0)
            out_nb = kernels.divform_apply(a, u, 0.0)
            assert np.allclose(out_np, out_nb, atol=1e-10)
            print(f"d={d} n={n:<18}{t_np * 1e3:>10.2f}ms"
                  f"{t_nb * 1e3:>10.2f}ms{t_np / t_nb:>9.1f}x")
        else:
            print(f"d={d} n={n:<18}{t_np * 1e3:>10.2f}ms"
                  f"{'-':>12}{'-':>10}")


def bench_interaction():
    print(f"\n{'pair_interaction_sup':<24}{'brute':>12}{'pruned':>12}"
          f"{'speedup':>10}")
    for beta, w in ((0.0, 13.5), (0.3, 40.5)):
        part = build_partition(w, beta, 2)
        args = (part.corners, part.sides, 2.5)
        t_bf = _time(kernels.pair_interaction_sup_numpy, *args, repeat=3)
        t_pr = _time(kernels.pair_interaction_sup, *args, repeat=3)
        v_bf = kernels.pair_interaction_sup_numpy(*args)
        v_pr = kernels.pair_interaction_sup(*args)
        assert abs(v_bf - v_pr) <= 1e-12 * abs(v_bf)
        print(f"{part.corners.shape[0]} cells{'':<10}"
              f"{t_bf * 1e3:>10.2f}ms{t_pr * 1e3:>10.2f}ms"
              f"{t_bf / t_pr:>9.1f}x")


def _growth_by_ball_means(corr, radii):
    """The growth profile as two ball-mean convolutions per component and
    radius: torus mean of K_R * c^2 - (K_R * c)^2."""
    comps = extended_components(corr.phi, corr.sigma)
    return np.array([
        sum(float(np.mean(ball_mean_field(c**2, r, corr.grid)
                          - ball_mean_field(c, r, corr.grid) ** 2))
            for c in comps)
        for r in radii])


def bench_growth():
    print(f"\n{'growth_profile':<24}{'ball means':>12}{'parseval':>12}"
          f"{'speedup':>10}")
    grid = GridSpec(3, 64)
    g = sample_gaussian(CovarianceSpec(3.5, 0.0), grid, SeedSpec(0, 0))
    corr = build_corrector_set(
        to_coefficients(g, CoefficientModel(0.25, 0.0), None, grid))
    radii = (4.0, 8.0)
    t_old = _time(_growth_by_ball_means, corr, radii, repeat=3)
    t_new = _time(growth_profile, corr, radii, repeat=3)
    want = _growth_by_ball_means(corr, radii)
    got = growth_profile(corr, radii).values
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    print(f"d=3 n=64 radii 4, 8{'':<5}{t_old * 1e3:>10.2f}ms"
          f"{t_new * 1e3:>10.2f}ms{t_old / t_new:>9.1f}x")


if __name__ == "__main__":
    print(f"numba path enabled: {kernels.USE_NUMBA}\n")
    bench_divform()
    bench_interaction()
    bench_growth()
