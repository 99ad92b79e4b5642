"""
Homodyne sampling and matrix-element estimation
===============================================

Draw quadrature data from a coherent state, estimate a few matrix
elements with the pattern-function kernels, and watch the scaled
statistical error saturate at sqrt(2) along the diagonal.
"""
import numpy as np

from losscomp import (error_saturation_profile, estimate_element,
                      evaluate_pattern, make_coherent, make_thermal,
                      sample_quadratures)

rng = np.random.default_rng(7)

# kernels are bounded oscillating functions; a few spot values
xs = np.array([0.0, 0.5, 1.3])
print("pattern function f_22 at x =", xs, "->", np.round(evaluate_pattern(2, 2, xs), 4))

alpha = 1.0
rho = make_coherent(alpha, 32)
data = sample_quadratures(rho, 100_000, rng)

print(f"\ncoherent |alpha={alpha}>, N = {len(data)} samples")
print("element      estimate              truth      pull")
for n, d in [(0, 0), (1, 0), (0, 1), (1, 1)]:
    ray = estimate_element(data, n, d)
    est, err = ray.estimate[0], ray.stderr[0]
    truth = rho.element(n, n + d)
    pull = abs(est - truth) / err
    print(f"({n},{n + d})   {est.real:+.4f}{est.imag:+.4f}j "
          f"+- {err:.4f}   {truth.real:+.4f}   {pull:.2f} sigma")

# the error of high-index elements is state independent: scaled by
# sqrt(N) it saturates at sqrt(2), which is the number that kills the
# compensation series at low efficiency
thermal = make_thermal(2.0, 64)
profile = error_saturation_profile(
    sample_quadratures(thermal, 8000, rng), range(0, 16, 3), 0, 0)
print("\nscaled errors eps_j * sqrt(N) on a thermal state (sqrt(2) = 1.414):")
for j, value in profile:
    print(f"  j = {j:2d}: {value:.3f}")
