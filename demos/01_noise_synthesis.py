#!/usr/bin/env python3
"""Band-limited Gaussian noise synthesis: levels, spectrum, Gaussianity.

The generators emulate resistor thermal noise.  A draw is fixed by the
target mean-square voltage, a ``Sampling`` (the length, and the band (0, B]
as the oversampling ratio FS / (2 B)), and a seed.  ``fill_band`` is the
draw the simulation itself makes: exact in the frequency domain, so the
spectrum is flat in band and empty above B, and the inverse FFT is the trace.
"""

import numpy as np
from scipy.stats import kurtosis

from kljnsim import Sampling, estimate_psd, fill_band, johnson_mean_square, noise_temperature

B = 500.0          # noise bandwidth, Hz
FS = 16_000.0      # sample rate, Hz (oversampling ratio gamma = FS / (2 B) = 16)
N = 2**20


def draw(seed: int) -> np.ndarray:
    """One 1 V^2 trace of N samples, band (0, B] at FS."""
    spectrum = fill_band(Sampling(N, FS / (2 * B)), [1.0], [np.random.default_rng(seed)])[0]
    return np.fft.irfft(spectrum, n=N)


print("=== Johnson noise levels ===")
print(f"A 10 kOhm resistor at 300 K in {B:g} Hz: "
      f"{johnson_mean_square(300.0, 10e3, B):.3e} V^2")
print(f"Temperature needed for 1 V^2 across 278 Ohm in {B:g} Hz: "
      f"{noise_temperature(1.0, 278.0, B):.4e} K  (emulated, not physical!)")

print("\n=== Synthesis ===")
trace = draw(42)
mean_square = float(np.mean(trace * trace))
n_eff = 2 * N * B / FS
print(f"{N} samples at {FS:g} Hz, target 1 V^2")
print(f"sample mean-square: {mean_square:.5f} V^2 "
      f"(standard error {np.sqrt(2/n_eff):.4f})")
print(f"sample mean:        {np.mean(trace):+.2e} V (DC bin is exactly zero)")
print(f"excess kurtosis:    {kurtosis(trace):+.4f} (Gaussian: 0)")

print("\n=== Spectrum ===")
freqs, density = estimate_psd(trace, FS, segments=16)
in_band = density[(freqs > 0.1 * B) & (freqs < 0.9 * B)]
out_band = density[freqs > 1.1 * B]
df = freqs[1] - freqs[0]
print(f"flat in-band density: {np.mean(in_band):.4e} V^2/Hz (expected U^2/B = {1/B:.4e})")
print(f"out-of-band density:  {np.max(out_band):.2e} V^2/Hz (max beyond 1.1 B)")
print(f"integrated density:   {np.sum(density)*df:.5f} V^2 (vs sample ms {mean_square:.5f})")

print("\n=== Determinism ===")
again = draw(42)
print(f"same spec, same seed, byte-identical: {again.tobytes() == trace.tobytes()}")
