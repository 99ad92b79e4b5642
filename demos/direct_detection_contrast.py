"""
Photocounting keeps compensation alive below eta = 1/2
======================================================

For diagonal elements the coefficients can come from direct detection
instead of homodyning.  Binomial errors shrink along the thermal ray
exactly fast enough to beat the growing series weights, so the same
reconstruction that just diverged under homodyne at eta = 0.45 now
converges.
"""
import numpy as np

from losscomp import (apply_loss, convergence_scan, estimate_probabilities,
                      make_thermal, sample_counts, sample_quadratures)

signal = make_thermal(2.0, 64)
damped = apply_loss(signal, 0.45)
truth = signal.element(2, 2).real

rng = np.random.default_rng(3)
hist = sample_counts(damped, 24_000, rng)
direct = convergence_scan(hist, 2, 0, 0.45, range(1, 41))

rng = np.random.default_rng(3)
data = sample_quadratures(damped, 24_000, rng)
homodyne = convergence_scan(data, 2, 0, 0.45,
                            list(range(1, 21)) + list(range(25, 101, 5)))

print(f"target <2|rho|2> = {truth:.6f}, eta = 0.45\n")
j_m, value, error = direct.trace[-1]
print(f"direct detection: verdict {direct.verdict}")
print(f"  at j_M = {j_m}: value {value.real:+.4f} +- {error:.4f}")
j_m, value, error = homodyne.trace[-1]
print(f"homodyne:         verdict {homodyne.verdict}")
print(f"  at j_M = {j_m}: value {value.real:+.3e} +- {error:.3e}")

# the reason sits in the per-coefficient errors
ray = estimate_probabilities(hist)
print("\nbinomial errors fall with the probability itself:")
for j in (2, 6, 10, 14):
    print(f"  p_{j:<2d} = {ray.estimate[j].real:.5f} +- {ray.stderr[j]:.5f}")
print("homodyne errors would sit near sqrt(2/N) =",
      f"{np.sqrt(2 / 24_000):.5f} for every index")
