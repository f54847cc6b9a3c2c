#!/usr/bin/env python3
"""How crossing-detection mode and oversampling shape the attack statistic.

The per-bit statistic is the mean-square wire voltage at current zero
crossings.  Its continuous-time expectation is u2 * (1 - rho^2), the
conditional variance of voltage given zero current; sample-aligned modes
sit slightly above it because the current at the chosen grid sample is not
exactly zero.  For the four-resistor scheme both secure cases share every
moment, so LH and HL means coincide at any mode and oversampling ratio.
"""

import numpy as np

from kljnsim import benchmark_scheme, conditional_zc_variance, level_table, simulate_bits
from kljnsim.protocol import CASES

scheme = benchmark_scheme("vmg2")   # 46.4k / 278 / 278 / 100
lh = level_table(scheme)["LH"]
target = conditional_zc_variance(lh)
print(f"scheme vmg2: u2 = {lh.u2:.4f} V^2, rho = {lh.rho:.4f}")
print(f"continuous-limit conditional value: u2*(1-rho^2) = {target:.4f} V^2")
print(f"(reference split for this row: 0.301 LH / 0.576 HL at an unspecified "
      "discretization)\n")

N_BITS = 150
SAMPLES = 16384

print(f"{'mode':<15}{'gamma':>6}{'u_zc2 LH':>12}{'u_zc2 HL':>12}{'crossings/bit':>15}")
for mode in ("interpolated", "sample_after", "sample_before", "nearest"):
    for gamma in (4, 16, 64):
        fs = 2.0 * scheme.bandwidth * gamma
        means = {}
        crossings = 0
        for case_idx, case in enumerate(("LH", "HL")):
            bits = simulate_bits(scheme, [CASES.index(case)] * N_BITS,
                                 [(88, case_idx, bit) for bit in range(N_BITS)],
                                 SAMPLES, fs, mode)
            crossings += bits.n_zc.sum()
            means[case] = np.mean(bits.u_zc2)
        print(f"{mode:<15}{gamma:>6}{means['LH']:>12.4f}{means['HL']:>12.4f}"
              f"{crossings/(2*N_BITS):>15.1f}")

print("""
Interpolated sampling converges to the conditional value from below as
gamma grows; the sample-aligned modes carry a small positive bias that
shrinks with gamma.  No mode/ratio combination separates LH from HL for
the solved scheme: the statistic's distribution is case-independent here,
so Eve gains nothing at these settings.""")
