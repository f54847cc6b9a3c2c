"""Band-limited Gaussian voltage noise and second-moment estimators.

Traces emulate the Johnson noise of a resistor: zero mean, Gaussian,
stationary, with a flat one-sided power spectrum on (0, B] and no power
above B.  Synthesis works in the frequency domain: independent Gaussian
real/imaginary coefficients on the in-band bins, zero everywhere else
(including DC), conjugate symmetry, inverse real FFT.  The scale is chosen
so the expected sample mean-square equals the requested level exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

#: Boltzmann constant, J/K (exact in the SI since 2019).
BOLTZMANN = 1.380649e-23

#: Identifier of the pseudo-random generator backing :func:`synthesize`.
#: Recorded in experiment output metadata so results can be reproduced.
GENERATOR_ID = f"numpy.random.PCG64/numpy-{np.__version__}"


def derive_seed(*entropy: int) -> int:
    """Collapse an entropy tuple into one 64-bit generator seed.

    The mapping is a pure function of the tuple (numpy ``SeedSequence``
    hashing), so parallel workers synthesizing different (run, bit, branch)
    tasks get independent streams regardless of scheduling order.
    """
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NoiseSpec:
    """Prescription for one synthetic thermal-noise trace.

    Attributes
    ----------
    mean_square : float
        Target mean-square voltage, V^2 (>= 0).
    bandwidth : float
        One-sided noise bandwidth B, Hz (> 0).
    sample_rate : float
        Sampling frequency, Hz; must satisfy Nyquist, >= 2 * bandwidth.
    num_samples : int
        Trace length (>= 2).
    seed : int
        64-bit generator seed; identical specs produce identical traces.
    """

    mean_square: float
    bandwidth: float
    sample_rate: float
    num_samples: int
    seed: int

    def __post_init__(self):
        if self.mean_square < 0:
            raise ConfigurationError(f"mean_square must be >= 0, got {self.mean_square}")
        if self.bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.sample_rate < 2.0 * self.bandwidth:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate} violates Nyquist for bandwidth {self.bandwidth}"
            )
        if self.num_samples < 2:
            raise ConfigurationError(f"num_samples must be >= 2, got {self.num_samples}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class NoiseTrace:
    """A uniformly sampled voltage waveform with its sample rate."""

    samples: np.ndarray
    sample_rate: float

    @property
    def mean_square(self) -> float:
        """Sample mean-square voltage of the trace, V^2."""
        return float(np.mean(self.samples * self.samples))


def johnson_mean_square(temperature: float, resistance: float, bandwidth: float) -> float:
    """Mean-square thermal noise voltage 4*k*T*R*B of a resistor, V^2."""
    if temperature < 0 or resistance < 0 or bandwidth < 0:
        raise ValueError("temperature, resistance, and bandwidth must all be >= 0")
    return 4.0 * BOLTZMANN * temperature * resistance * bandwidth


def noise_temperature(mean_square: float, resistance: float, bandwidth: float) -> float:
    """Effective temperature U^2 / (4*k*R*B) a resistor would need, K.

    Exact inverse of :func:`johnson_mean_square`.
    """
    if resistance <= 0:
        raise ValueError(f"resistance must be > 0, got {resistance}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    if mean_square < 0:
        raise ValueError(f"mean_square must be >= 0, got {mean_square}")
    return mean_square / (4.0 * BOLTZMANN * resistance * bandwidth)


def _in_band_bin_count(num_samples: int, sample_rate: float, bandwidth: float) -> int:
    """Number of positive-frequency DFT bins with frequency <= bandwidth."""
    # Tiny relative slack keeps exact band edges (e.g. Nyquist == B) in band
    # despite floating-point division.
    k_max = int(math.floor(bandwidth * num_samples / sample_rate * (1.0 + 1e-12)))
    return min(k_max, num_samples // 2)


def fill_band(band: np.ndarray, num_samples: int, mean_square: float, seed: int) -> None:
    """Draw one trace's in-band DFT coefficients into ``band``.

    ``band`` is the complex slice of bins 1..k_max of a length
    ``num_samples // 2 + 1`` spectrum; every element of it is overwritten.
    The draws are the real parts, then the imaginary parts, then the real
    Nyquist coefficient when the Nyquist bin is in band, all from one
    generator seeded with ``seed``.  The scale makes the expected sample
    mean-square of the inverse transform equal ``mean_square``.
    """
    n = num_samples
    k_max = band.size
    has_nyquist = (n % 2 == 0) and (k_max == n // 2)
    m = k_max - 1 if has_nyquist else k_max
    weight = 2 * m + (1 if has_nyquist else 0)
    # With X_k = s * z_k and E|z_k|^2 = 1, the expected sample mean-square
    # is s^2 * weight / n^2 (Parseval); solve for s.
    scale = n * math.sqrt(mean_square / weight)
    rng = np.random.default_rng(seed)
    parts = band.view(np.float64)  # real and imaginary parts interleaved
    np.multiply(rng.standard_normal(m), scale / math.sqrt(2.0), out=parts[0 : 2 * m : 2])
    np.multiply(rng.standard_normal(m), scale / math.sqrt(2.0), out=parts[1 : 2 * m : 2])
    if has_nyquist:
        # Nyquist coefficient must be real for a real-valued trace.
        parts[2 * m] = scale * rng.standard_normal()
        parts[2 * m + 1] = 0.0


def synthesize(spec: NoiseSpec) -> NoiseTrace:
    """Generate one band-limited Gaussian noise trace.

    The one-sided spectrum is flat on (0, B] and zero above B; the DC bin is
    zero (zero-mean process).  The expected sample mean-square equals
    ``spec.mean_square``; the realized value fluctuates with roughly
    ``2 * num_samples * bandwidth / sample_rate`` independent degrees of
    freedom.  Deterministic for a given seed.

    Parameters
    ----------
    spec : NoiseSpec

    Returns
    -------
    NoiseTrace
    """
    n = spec.num_samples
    coeffs = np.zeros(n // 2 + 1, dtype=np.complex128)
    if spec.mean_square > 0.0:
        k_max = _in_band_bin_count(n, spec.sample_rate, spec.bandwidth)
        if k_max == 0:
            raise ConfigurationError(
                "no DFT bin falls inside the noise band; increase num_samples"
            )
        fill_band(coeffs[1 : k_max + 1], n, spec.mean_square, spec.seed)
    samples = np.fft.irfft(coeffs, n=n)
    return NoiseTrace(samples=samples, sample_rate=float(spec.sample_rate))


def estimate_psd(trace: NoiseTrace, segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Averaged-periodogram estimate of the one-sided power spectral density.

    Welch's method with Hann windows and 50% overlap; segment length is
    ``len(trace) // segments``.  The integrated density matches the sample
    mean-square to within about a percent for stationary input.

    Returns
    -------
    (frequencies, density) : tuple of ndarray
        Frequencies in Hz and density in V^2/Hz.
    """
    from scipy.signal import welch  # deferred: costs most of the package's import time

    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    nperseg = trace.samples.size // segments
    if nperseg < 64:
        raise ValueError(
            f"trace too short: {trace.samples.size} samples give segments of "
            f"{nperseg} < 64 samples"
        )
    freqs, density = welch(
        trace.samples,
        fs=trace.sample_rate,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
    )
    return freqs, density


@dataclass(frozen=True)
class SampleMoments:
    """Time-averaged second moments of a pair of equally long sequences."""

    mean_square_x: float
    mean_square_y: float
    cross_moment: float
    correlation_coefficient: float  # NaN when either input has zero variance


def sample_moments(x, y) -> SampleMoments:
    """Second moments and correlation coefficient of two sequences.

    The correlation is the uncentered cross moment normalized by the root
    product of the mean squares (the sequences of interest here are zero
    mean).  A zero-variance input makes the coefficient undefined and it is
    reported as NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"inputs must be 1-d and equally long, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError(f"need at least 2 samples, got {x.size}")
    msx = float(np.mean(x * x))
    msy = float(np.mean(y * y))
    cross = float(np.mean(x * y))
    if np.var(x) == 0.0 or np.var(y) == 0.0:
        corr = math.nan
    else:
        corr = cross / math.sqrt(msx * msy)
    return SampleMoments(msx, msy, cross, corr)
