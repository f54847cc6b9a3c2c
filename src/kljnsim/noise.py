"""Band-limited Gaussian voltage noise: Johnson levels, seeding, synthesis and a PSD estimate.

Traces emulate the Johnson noise of a resistor: zero mean, Gaussian,
stationary, with a flat one-sided power spectrum on (0, B] and no power
above B.  Synthesis works in the frequency domain: independent Gaussian
real/imaginary coefficients on the in-band bins, zero everywhere else
(including DC), conjugate symmetry, inverse real FFT.  The scale is chosen
so the expected sample mean-square equals the requested level exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _check_integer

#: Boltzmann constant, J/K (exact in the SI since 2019).
BOLTZMANN = 1.380649e-23

#: Identifier of the pseudo-random generator backing :func:`synthesize`.
#: Recorded in experiment output metadata so results can be reproduced.
GENERATOR_ID = f"numpy.random.PCG64/numpy-{np.__version__}"


#: numpy ``SeedSequence`` hashing constants (numpy/random/bit_generator.pyx).
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
POOL_SIZE = 4
MASK32 = 0xFFFFFFFF

#: PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1
MASK64 = (1 << 64) - 1

#: Entropy rows hashed per vectorized pass by :func:`stream_generators`.
SEED_CHUNK = 1024


def _column_words(column, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``SeedSequence``'s uint32 words of ``n`` non-negative integers.

    Returns ``(words, counts)``: ``words[w, r]`` is word ``w`` (least
    significant first) of integer ``r``, zero past ``counts[r]``.  Zero
    takes one word.
    """
    try:
        values = np.fromiter(map(operator.index, column), np.uint64, n)
    except OverflowError:   # negative, or 2**64 and above
        ints = list(map(operator.index, column))
        if min(ints) < 0:
            raise ValueError("entropy must be non-negative integers") from None
        counts = np.array([max(1, -(-v.bit_length() // 32)) for v in ints])
        words = [[(v >> 32 * w) & MASK32 for v in ints] for w in range(counts.max())]
        return np.array(words, dtype=np.uint32), counts
    words = np.stack([values & MASK32, values >> 32]).astype(np.uint32)
    return words, 1 + (values > MASK32)


def _entropy_words(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Each row's integers as the concatenated uint32 words ``SeedSequence`` hashes.

    Returns ``(words, counts)``: column ``r`` of ``words`` holds row ``r``'s
    ``counts[r]`` words followed by zeros, and there are at least
    ``POOL_SIZE`` rows of words.
    """
    n = len(rows)
    lengths = np.fromiter(map(len, rows), np.intp, n)
    counts = np.zeros(n, np.intp)
    placed = []   # (row indices, words, word counts, first word's position)
    for length in set(map(len, rows)):
        idx = np.flatnonzero(lengths == length)
        group = rows if idx.size == n else [rows[i] for i in idx]
        for column in zip(*group):
            words, column_counts = _column_words(column, idx.size)
            placed.append((idx, words, column_counts, counts[idx]))
            counts[idx] += column_counts
    out = np.zeros((max(POOL_SIZE, int(counts.max(initial=0))), n), np.uint32)
    for idx, words, column_counts, first in placed:
        for w, word in enumerate(words):
            has = column_counts > w
            out[first[has] + w, idx[has]] = word[has]
    return out, counts


def _mix_entropy(words: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence``'s entropy pool for each column of uint32 ``words``.

    Column ``r`` holds one entropy row; rows of fewer than ``POOL_SIZE``
    words are zero-padded to it, and every row of one call has the same
    number of words.  Returns the ``POOL_SIZE`` pool words as arrays.
    """
    hash_const = INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * MULT_A & MASK32
        value *= hash_const
        return value ^ (value >> XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * MIX_MULT_L - y * MIX_MULT_R
        return result ^ (result >> XSHIFT)

    pool = [hashmix(words[i]) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(POOL_SIZE, len(words)):
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(words[i_src]))
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words, np.uint64)`` of each pool: shape (n_words, rows)."""
    hash_const = INIT_B
    state = []
    for i in range(2 * n_words):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value *= hash_const
        state.append((value ^ (value >> XSHIFT)).astype(np.uint64))
    return np.array([state[2 * i] | state[2 * i + 1] << 32 for i in range(n_words)])


def derive_seeds(entropy_rows) -> np.ndarray:
    """:func:`derive_seed` of every entropy row, hashed in one vectorized pass.

    Returns a uint64 array with one seed per row.  This is numpy's
    ``SeedSequence`` mixing on columns of uint32 words, so each seed equals
    ``SeedSequence(row).generate_state(1, np.uint64)[0]``.
    """
    words, counts = _entropy_words(list(entropy_rows))
    seeds = np.empty(counts.size, np.uint64)
    # A row's words past the pool size are mixed in one by one, so rows
    # are hashed in groups of one word count.
    hashed = np.maximum(counts, POOL_SIZE)
    for width in set(hashed.tolist()):
        rows = hashed == width
        seeds[rows] = _generate_state(_mix_entropy(words[:width, rows]), 1)[0]
    return seeds


def derive_seed(*entropy: int) -> int:
    """Collapse an entropy tuple into one 64-bit generator seed.

    The mapping is a pure function of the tuple (numpy ``SeedSequence``
    hashing, the scalar case of :func:`derive_seeds`), so results do not
    depend on the order in which tasks run.  Distinct tuples are not always
    distinct streams: the hash sees only the tuple's uint32 words, zero
    padded to four, so ``(1, 6)`` and ``(1, 6, 0, 0)`` give one seed, and an
    integer of 2**32 or more is split into words, so ``(2**32 + 5, 1)`` and
    ``(5, 1, 1)`` give one seed.  ROADMAP item 4 plans fixed-width keys.
    """
    return int(derive_seeds([entropy])[0])


def _pcg64_seeding(seeds) -> Iterator[tuple[int, int]]:
    """Yield, for each 64-bit seed, PCG64's 128-bit ``(state, inc)`` as ``default_rng(seed)`` sets it.

    All seeds are hashed in one vectorized pass to PCG64's four seeding
    words; the state and increment are then Python ints, one seed at a time.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.zeros((POOL_SIZE, seeds.size), np.uint32)
    words[0] = seeds & MASK32
    words[1] = seeds >> 32
    pcg_words = _generate_state(_mix_entropy(words), 4)
    # One row of Python ints at a time: only the compact array is held.
    for s_hi, s_lo, q_hi, q_lo in map(np.ndarray.tolist, pcg_words.T):
        # PCG64 seeding: inc = 2 * initseq + 1; from state 0 step, add initstate, step.
        inc = (q_hi << 65 | q_lo << 1 | 1) & MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * PCG64_MULT + inc) & MASK128, inc


def seeded_generators(seeds) -> Iterator[np.random.Generator]:
    """Yield, for each 64-bit seed, a generator in ``np.random.default_rng(seed)``'s first state.

    Each seed's 128-bit state (:func:`_pcg64_seeding`) is set on one reused
    generator, which is yielded every time.  Draw from it before taking the
    next one.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in _pcg64_seeding(seeds):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def stream_generators(entropy_rows) -> Iterator[np.random.Generator]:
    """Yield, for each entropy row, a generator in ``default_rng(derive_seed(*row))``'s first state.

    Rows are read and hashed ``SEED_CHUNK`` at a time, so only compact
    arrays are held.  As with :func:`seeded_generators`, one reused
    generator is yielded every time.
    """
    rows = iter(entropy_rows)
    while (seeds := derive_seeds(itertools.islice(rows, SEED_CHUNK))).size:
        yield from seeded_generators(seeds)


def _first_outputs(seeds) -> Iterator[int]:
    """Yield ``np.random.default_rng(seed).bit_generator.random_raw()`` of each 64-bit seed.

    PCG64 steps its LCG once from the seeded state (:func:`_pcg64_seeding`)
    and outputs XSL-RR of the new state: its high and low 64-bit halves
    xor-ed, rotated right by its top six bits.
    """
    for state, inc in _pcg64_seeding(seeds):
        state = (state * PCG64_MULT + inc) & MASK128
        word = (state >> 64) ^ (state & MASK64)
        rot = state >> 122
        yield (word >> rot | word << (64 - rot)) & MASK64


def first_outputs(entropy_rows) -> np.ndarray:
    """``default_rng(derive_seed(*row)).bit_generator.random_raw()`` of every entropy row.

    Returns a uint64 array, one 64-bit output per row, computed without
    building a generator (:func:`_first_outputs`).  Rows are hashed
    ``SEED_CHUNK`` at a time, as in :func:`stream_generators`.

    A fair bit numpy draws first from such a generator is one bit of this
    output: ``integers(0, 2)`` is bit 31, the top bit of the low 32-bit
    half, and ``integers(0, 2, size=2)`` is bits 31 and 63.  numpy's bounded
    draw for a range of two keeps the top bit of a 32-bit draw, and it takes
    a 64-bit output's low half first and keeps the high half for the next
    32-bit draw.
    """
    rows = iter(entropy_rows)
    outputs = []
    while (seeds := derive_seeds(itertools.islice(rows, SEED_CHUNK))).size:
        outputs.extend(_first_outputs(seeds))
    return np.array(outputs, dtype=np.uint64)


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
        _check_integer("num_samples", self.num_samples, 2)
        _check_integer("seed", self.seed, 0)


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


def fill_band(bands: np.ndarray, num_samples: int, mean_squares,
              rngs: Iterable[np.random.Generator]) -> None:
    """Draw the in-band DFT coefficients of a block of traces into ``bands``.

    Row r of ``bands`` is the complex slice of bins 1..k_max of a length
    ``num_samples // 2 + 1`` spectrum; every element of it is overwritten.
    Row r draws from the r-th generator of ``rngs``, which is taken only
    after row r - 1 has drawn, so one reused generator may be yielded
    throughout.  A row's draws are its real parts, then its imaginary
    parts, then its real Nyquist coefficient when the Nyquist bin is in
    band.  The scale makes the expected sample mean-square of row r's
    inverse transform equal ``mean_squares[r]``.
    """
    n = num_samples
    rows, k_max = bands.shape
    has_nyquist = (n % 2 == 0) and (k_max == n // 2)
    m = k_max - 1 if has_nyquist else k_max
    weight = 2 * m + (1 if has_nyquist else 0)
    # With X_k = s * z_k and E|z_k|^2 = 1, the expected sample mean-square
    # is s^2 * weight / n^2 (Parseval); solve for s.
    scale = n * np.sqrt(np.asarray(mean_squares, dtype=np.float64) / weight)
    # numpy's Generator keeps no normals in reserve, so one draw of
    # 2m (+ 1) values equals the m, m (and 1) it is made of.
    rngs = iter(rngs)
    draws = np.empty((rows, weight))
    for row in draws:
        next(rngs).standard_normal(out=row)
    # Bin k's real and imaginary parts are draws k and m + k of its row.
    part_scale = (scale / math.sqrt(2.0))[:, None]
    np.multiply(draws[:, :m], part_scale, out=bands[:, :m].real)
    np.multiply(draws[:, m : 2 * m], part_scale, out=bands[:, :m].imag)
    if has_nyquist:
        # Nyquist coefficient must be real for a real-valued trace.
        nyquist = bands[:, m]
        np.multiply(draws[:, 2 * m], scale, out=nyquist.real)
        nyquist.imag = 0.0


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
        fill_band(coeffs[None, 1 : k_max + 1], n, [spec.mean_square],
                  [np.random.default_rng(spec.seed)])
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

