"""Key-exchange session simulation.

Each bit period, Alice and Bob independently pick their low or high
resistor, the connected branches get fresh synthetic noise, and both
parties classify the partner's choice from the measured wire mean-square
voltage.  The eavesdropper's zero-crossing statistics are recorded per bit.

Seeding contract: every random draw derives its seed from
(master_seed, run index, bit index, stream tag) so that results are
independent of execution order and per-bit traces are independent across
bits.  Stream tags 0-4 are used here; the attack module uses higher tags.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import attack
from .circuit import WireTrace
from .errors import ConfigurationError
from .noise import _in_band_bin_count, fill_band, stream_generators
from .schemes import CASES, SchemeConfig, case_branches, level_table

STREAM_CHOICES = 0
BRANCH_STREAMS = {"LA": 1, "HA": 2, "LB": 3, "HB": 4}


@dataclass(frozen=True)
class Sampling:
    """How each bit period is sampled: trace length, oversampling ratio and crossing mode.

    Construction checks every sampling rule, including that at least one
    DFT bin falls inside the noise band.  An experiment simulates all the
    cases it compares (a session, Eve's calibration, the moment tables)
    under one value.
    """

    samples_per_bit: int = 16384
    oversample: float = 16.0     # sample_rate / (2 * bandwidth)
    zc_mode: str = "sample_after"

    def __post_init__(self):
        if isinstance(self.samples_per_bit, bool) or not isinstance(self.samples_per_bit, Integral):
            raise ConfigurationError(
                f"samples_per_bit must be an integer, got {self.samples_per_bit!r}"
            )
        if self.samples_per_bit < 2:
            raise ConfigurationError(f"samples_per_bit must be >= 2, got {self.samples_per_bit}")
        if not self.oversample >= 1:
            raise ConfigurationError(f"oversample must be >= 1, got {self.oversample}")
        # The band edge falls at bin samples_per_bit / (2 * oversample).
        if _in_band_bin_count(self.samples_per_bit, self.sample_rate(1.0), 1.0) == 0:
            raise ConfigurationError(
                f"samples_per_bit ({self.samples_per_bit}) must be >= 2 * oversample "
                f"({self.oversample:g}), or no DFT bin falls inside the noise band"
            )
        if self.zc_mode not in attack.ZC_MODES:
            raise ConfigurationError(
                f"zc_mode must be one of {attack.ZC_MODES}, got {self.zc_mode!r}"
            )

    def sample_rate(self, bandwidth: float) -> float:
        """Samples per second for a noise band of ``bandwidth`` Hz."""
        return 2.0 * bandwidth * self.oversample


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of a simulated key-exchange session."""

    scheme: SchemeConfig
    sampling: Sampling = Sampling()
    bits_per_run: int = 1000
    runs: int = 10
    master_seed: int = 1

    def __post_init__(self):
        if self.bits_per_run < 1:
            raise ConfigurationError(f"bits_per_run must be >= 1, got {self.bits_per_run}")
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True, eq=False)
class BitColumns:
    """Per-bit wire statistics, one array element per simulated bit."""

    case: np.ndarray     # index into CASES
    u2: np.ndarray       # V^2
    i2: np.ndarray       # A^2
    p_ab: np.ndarray     # W
    n_zc: np.ndarray     # current zero crossings
    u_zc2: np.ndarray    # V^2, mean square of the voltage at the crossings

    @property
    def secure(self) -> np.ndarray:
        """Mask of the LH and HL bits."""
        return (self.case == 1) | (self.case == 2)


@dataclass(frozen=True, eq=False)
class SessionResult:
    """A whole session's bits, run-major: bit k of run r is row r * bits_per_run + k."""

    bits: BitColumns
    misclassified: np.ndarray    # either party misread the partner's choice
    bits_per_run: int

    def per_run(self, column: np.ndarray) -> np.ndarray:
        """``column`` as a (runs, bits_per_run) array."""
        return column.reshape(-1, self.bits_per_run)


#: simulate_bits inverse-transforms max(1, BLOCK_SAMPLES // samples_per_bit)
#: bits at a time, one at a time when a bit is longer than BLOCK_SAMPLES.
BLOCK_SAMPLES = 2**16


def simulate_bits(scheme: SchemeConfig, sampling: Sampling, cases, entropy_prefixes) -> BitColumns:
    """Simulate one bit per (case, entropy prefix) pair and return its statistics.

    ``sampling`` sets the trace length, the sample rate and the crossing
    mode.  ``cases`` holds indices into ``CASES``.  Each bit's two connected
    branches (:func:`schemes.case_branches`) draw their in-band noise
    coefficients (:func:`noise.fill_band`) from generators seeded as
    ``default_rng(derive_seed(*prefix, tag))``, where ``tag`` is the
    branch's stream tag; :func:`noise.stream_generators` hashes the seeds
    a chunk of bits at a time.  The wire is linear, so it is
    solved bin by bin in the frequency domain,

        I = (X_A - X_B) / (R_A + R_B),   U = (X_A * R_B + X_B * R_A) / (R_A + R_B),

    and u2, i2 and p_ab follow from Parseval's theorem over the in-band
    bins.  Blocks of bits are then inverse-transformed together to find the
    current's zero crossings and the mean square of the voltage sampled
    there.  The noise has no DC bin, so the current is zero-mean and crosses
    zero in every bit (n_zc >= 1).
    """
    case = np.asarray(cases, dtype=np.int64)
    n_bits = len(entropy_prefixes)
    if case.shape != (n_bits,) or not np.isin(case, np.arange(len(CASES))).all():
        raise ValueError("cases must hold one index into CASES per entropy prefix")
    n = sampling.samples_per_bit
    sample_rate = sampling.sample_rate(scheme.bandwidth)
    k_max = _in_band_bin_count(n, sample_rate, scheme.bandwidth)
    has_nyquist = (n % 2 == 0) and (k_max == n // 2)
    m2 = 2 * (k_max - 1 if has_nyquist else k_max)   # parts of the weight-2 bins

    wiring = []
    for label in CASES:
        a_id, b_id = case_branches(label)
        wiring.append((scheme.branches[a_id], scheme.branches[b_id],
                       (BRANCH_STREAMS[a_id], BRANCH_STREAMS[b_id])))
    case_list = case.tolist()
    # Bit k's two branch generators, in the order solve_bit takes them.
    streams = stream_generators(
        (*prefix, tag) for prefix, c in zip(entropy_prefixes, case_list) for tag in wiring[c][2]
    )

    def parseval(x: np.ndarray, y: np.ndarray) -> float:
        """Sample mean of the product of two traces, from their band parts."""
        s = 2.0 * float(np.dot(x[:m2], y[:m2]))
        if has_nyquist:
            s += float(x[m2] * y[m2])
        return s / (n * n)

    def solve_bit(k: int, bands: np.ndarray) -> tuple[float, float, float]:
        """Write bit k's U and I into ``bands`` (two rows of bins 1..k_max); return u2, i2, p_ab."""
        a, b, _ = wiring[case_list[k]]
        fill_band(bands[0], n, a.mean_square, next(streams))
        fill_band(bands[1], n, b.mean_square, next(streams))
        u, i = bands.view(np.float64)   # X_A and X_B, turned into U and I in place
        xb_ra = i * a.resistance
        np.subtract(u, i, out=i)
        i /= a.resistance + b.resistance
        u *= b.resistance
        u += xb_ra
        u /= a.resistance + b.resistance
        return parseval(u, u), parseval(i, i), parseval(u, i)

    u2 = np.empty(n_bits)
    i2 = np.empty(n_bits)
    p_ab = np.empty(n_bits)
    n_zc = np.empty(n_bits, dtype=np.int64)
    u_zc2 = np.empty(n_bits)
    rows = max(1, min(BLOCK_SAMPLES // n, n_bits))
    # Row 2j holds bit j's wire voltage U and row 2j + 1 its current I.  The
    # traces buffer is reused.  Each block's spectra are fresh, so they are
    # zero outside bins 1..k_max, and freed before the crossing search, so
    # that a long bit's spectra and crossing temporaries never coexist.
    traces = np.empty((2 * rows, n))
    for start in range(0, n_bits, rows):
        block = range(start, min(start + rows, n_bits))
        spectra = np.zeros((2 * len(block), n // 2 + 1), dtype=np.complex128)
        for j, k in enumerate(block):
            u2[k], i2[k], p_ab[k] = solve_bit(k, spectra[2 * j : 2 * j + 2, 1 : k_max + 1])
        np.fft.irfft(spectra, n=n, axis=-1, out=traces[: 2 * len(block)])
        del spectra
        for j, k in enumerate(block):
            wire = WireTrace(u_c=traces[2 * j], i_c=traces[2 * j + 1], sample_rate=sample_rate)
            v = attack.detect_zero_crossings(wire, sampling.zc_mode).values
            n_zc[k] = v.size
            u_zc2[k] = np.mean(v * v)
    return BitColumns(case=case, u2=u2, i2=i2, p_ab=p_ab, n_zc=n_zc, u_zc2=u_zc2)


def _infer_partner(own: np.ndarray, measured_u2: np.ndarray, levels: dict) -> np.ndarray:
    """Nearest-level decision per bit: does the partner share our choice or not?

    Choices are 0 (L) or 1 (H); returns the inferred partner choices.  Ties
    break toward L (a measure-zero event for noisy wires).
    """
    same_level = np.where(own == 0, levels["LL"].u2, levels["HH"].u2)
    secure_level = levels["LH"].u2
    degenerate = same_level == secure_level
    if degenerate.any():
        warnings.warn("degenerate level table: candidate levels coincide; defaulting to L")
    d_same = np.abs(measured_u2 - same_level)
    d_secure = np.abs(measured_u2 - secure_level)
    partner = np.where(d_same < d_secure, own, 1 - own)
    return np.where(degenerate | (d_same == d_secure), 0, partner)


def run_session(config: SessionConfig) -> SessionResult:
    """Simulate ``config.runs`` runs of ``config.bits_per_run`` bit exchanges.

    Per bit: draw independent fair choices for both parties, synthesize
    fresh branch noise, compute wire observables, classify both partners'
    views, and record the zero-crossing statistics for the attack harness.
    Deterministic for a fixed config.
    """
    seed = config.master_seed
    prefixes = [
        (seed, run_idx, bit_idx)
        for run_idx in range(config.runs)
        for bit_idx in range(config.bits_per_run)
    ]
    choices = np.array([
        rng.integers(0, 2, size=2)
        for rng in stream_generators((*prefix, STREAM_CHOICES) for prefix in prefixes)
    ]).T   # row 0: Alice, row 1: Bob
    bits = simulate_bits(config.scheme, config.sampling, 2 * choices[0] + choices[1], prefixes)
    inferred = _infer_partner(choices, bits.u2, level_table(config.scheme))
    return SessionResult(
        bits=bits,
        misclassified=(inferred != choices[::-1]).any(axis=0),
        bits_per_run=config.bits_per_run,
    )


def secure_bit_value(case_label: str, hl_value: int = 1) -> int:
    """Bit value of a secure case under the public HL-means-``hl_value`` convention."""
    if hl_value not in (0, 1):
        raise ValueError(f"hl_value must be 0 or 1, got {hl_value}")
    if case_label == "HL":
        return hl_value
    if case_label == "LH":
        return 1 - hl_value
    raise ValueError(f"case {case_label!r} is not a secure case")
