"""Band-limited Gaussian voltage noise: Johnson levels, seeding, the draw and a PSD estimate.

Traces emulate the Johnson noise of a resistor: zero mean, Gaussian,
stationary, with a flat one-sided power spectrum on (0, B] and no power
above B.  :func:`fill_band`, the one draw path, works in the frequency
domain: independent Gaussian real/imaginary coefficients on the in-band
bins of a ``Sampling``, zero everywhere else (including DC); a row's
inverse real FFT is its trace.  The scale is chosen so the expected
sample mean-square equals the requested level exactly.

Seeding contract: every draw of a session, a calibration or a table comes
from the generator ``default_rng(derive_seed(*key))`` of an integer key, so
results do not depend on the order in which bits run.  Callers describe a
call's keys once, as shared integers and per-row integer arrays, and
:func:`key_words` turns them into the uint32 words ``SeedSequence`` hashes;
:func:`stream_generators` and :func:`fair_bits` read only that array.
Every stream tag is defined in this module, and the keys are laid out as
follows (``b`` names a branch, ``case`` indexes ``CASES``, ``h`` is 0 for
LH and 1 for HL):

- ``(master_seed, run, bit, STREAM_CHOICES)``: Alice's and Bob's choices
  for one bit of a session (:func:`fair_bits`);
- ``(master_seed, run, bit, BRANCH_STREAMS[b])``: branch ``b``'s noise in
  one bit of a session;
- ``(seed, STREAM_CALIBRATION, h, bit, BRANCH_STREAMS[b])``: branch noise
  in Eve's calibration;
- ``(seed, case, bit, BRANCH_STREAMS[b])``: branch noise in a fixed-case
  table, which meets a session's key when ``case == run`` (ROADMAP item 4);
- ``(guess_seed, run, bit, STREAM_EVE_TIE)``: Eve's coin for one secure
  bit under an ``indistinct`` calibration (:func:`fair_bits`);
- ``(master_seed, STREAM_CALIBRATION)`` and ``(master_seed, STREAM_EVE_TIE)``:
  the calibration ``seed`` and the ``guess_seed`` of an attack experiment;
- ``(seed, STREAM_TABLE, row)``: the seed of benchmark row ``row`` in the
  ``table1`` and ``table2`` commands.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, _check_integer

#: Boltzmann constant, J/K (exact in the SI since 2019).
BOLTZMANN = 1.380649e-23

#: Identifier of the pseudo-random generator behind every draw of the package.
#: Recorded in experiment output metadata so results can be reproduced.
GENERATOR_ID = f"numpy.random.PCG64/numpy-{np.__version__}"

#: Stream tags, one per kind of draw (see the module docstring).
STREAM_CHOICES = 0
BRANCH_STREAMS = {"LA": 1, "HA": 2, "LB": 3, "HB": 4}
STREAM_EVE_TIE = 5
STREAM_CALIBRATION = 6
STREAM_TABLE = 7


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

#: Key rows hashed per vectorized pass by :func:`_stream_words`.
SEED_CHUNK = 1024


def key_words(*fields) -> np.ndarray:
    """The uint32 words ``SeedSequence`` hashes for each row of a key, as a ``(rows, words)`` array.

    Each field is an integer shared by every row, or a 1-D integer array
    with one value per row.  A shared integer becomes its words, least
    significant first, and zero takes one word.  A per-row value becomes
    one word and must lie in [0, 2**32).  Row r of the result hashes as
    ``SeedSequence`` hashes row r's key as a tuple of integers.
    """
    columns, rows = [], set()
    for field in fields:
        if isinstance(field, Integral):
            value = operator.index(field)
            if value < 0:
                raise ValueError(f"key integers must be non-negative, got {value}")
            columns += [value >> s & MASK32 for s in range(0, max(1, value.bit_length()), 32)]
            continue
        column = np.asarray(field)
        if column.ndim != 1 or column.dtype.kind not in "iu":
            raise TypeError("a key field must be an integer or a 1-D integer array")
        if column.size and not (column.min() >= 0 and column.max() <= MASK32):
            raise ValueError("per-row key values must lie in [0, 2**32)")
        columns.append(column)
        rows.add(column.size)
    if len(rows) > 1:
        raise ValueError(f"per-row key fields must be of one length, got {sorted(rows)}")
    words = np.empty((rows.pop() if rows else 1, len(columns)), np.uint32)
    for w, column in enumerate(columns):
        words[:, w] = column
    return words


def _seed_sequence_state(keys: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words, np.uint64)`` of each row of uint32 ``keys``.

    numpy's ``SeedSequence`` hash, vectorized over the rows of a
    :func:`key_words` array: each row's words, zero-padded to ``POOL_SIZE``,
    are mixed into an entropy pool, and the pool is hashed to the state.
    Returns a uint64 array of shape ``(n_words, rows)``.
    """
    words = np.zeros((max(POOL_SIZE, keys.shape[1]), len(keys)), np.uint32)
    words[: keys.shape[1]] = keys.T

    def hasher(hash_const: int, mult: int):
        def hash_words(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * mult & MASK32
            value *= hash_const
            return value ^ (value >> XSHIFT)
        return hash_words

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * MIX_MULT_L - y * MIX_MULT_R
        return result ^ (result >> XSHIFT)

    hashmix = hasher(INIT_A, MULT_A)
    pool = [hashmix(word) for word in words[:POOL_SIZE]]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    # generate_state: 32-bit words from the pool in turn, paired low then high.
    hash_state = hasher(INIT_B, MULT_B)
    state = [hash_state(pool[i % POOL_SIZE]).astype(np.uint64) for i in range(2 * n_words)]
    return np.array([state[i] | state[i + 1] << 32 for i in range(0, 2 * n_words, 2)])


def derive_seed(*entropy: int) -> int:
    """Collapse a tuple of integers into one 64-bit generator seed.

    The mapping is a pure function of the tuple (numpy ``SeedSequence``
    hashing of ``key_words(*entropy)``), so results do not depend on the
    order in which tasks run.  Distinct tuples are not always distinct
    streams: the hash sees only the tuple's uint32 words, zero padded to
    four, so ``(1, 6)`` and ``(1, 6, 0, 0)`` give one seed, and an integer
    of 2**32 or more is split into words, so ``(2**32 + 5, 1)`` and
    ``(5, 1, 1)`` give one seed.  ROADMAP item 4 plans fixed-width keys.
    """
    return int(_seed_sequence_state(key_words(*entropy), 1)[0, 0])


def _pcg64_words(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each 64-bit seed, as C-ordered rows.

    All seeds are hashed in one vectorized pass, as their two 32-bit words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    halves = np.column_stack([seeds & MASK32, seeds >> 32]).astype(np.uint32)
    return np.ascontiguousarray(_seed_sequence_state(halves, 4).T, dtype=np.uint64)


def _stream_words(keys: np.ndarray) -> Iterator[np.ndarray]:
    """Yield PCG64's four seeding words for each row of ``keys``, as its key's default_rng has them.

    ``keys`` is a :func:`key_words` array; row r's generator is
    ``default_rng(derive_seed(*key))`` of its key.  Rows are hashed
    ``SEED_CHUNK`` at a time, so only compact arrays are held.
    """
    for lo in range(0, len(keys), SEED_CHUNK):
        yield from _pcg64_words(_seed_sequence_state(keys[lo : lo + SEED_CHUNK], 1)[0])


def stream_generators(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """Yield, for each row of a :func:`key_words` array, a new generator in its key's first state.

    numpy's PCG64 seeds each one from the row's words (:func:`_stream_words`).
    """
    # Imported here, so that fair_bits' callers never load numpy.random.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A seed sequence whose state is one row of seeding words, read by its data pointer."""

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    for row in _stream_words(keys):
        yield Generator(PCG64(Words(row)))


def fair_bits(keys: np.ndarray) -> np.ndarray:
    """The first two fair bits numpy draws from each row's generator, for a :func:`key_words` array.

    Returns a bool array of shape ``(rows, 2)``: row r holds
    ``integers(0, 2, size=2)`` of row r's generator, and its column 0 alone
    is that generator's ``integers(0, 2)``.  No generator is built, so the
    calling process need not load numpy.random, which raises its peak memory.

    Both bits come from PCG64's first 64-bit output (M. E. O'Neill, "PCG: A
    Family of Simple Fast Space-Efficient Statistically Good Algorithms for
    Random Number Generation", 2014), replayed in Python ints: PCG64's
    seeding from the row's four words (:func:`_stream_words`), one step of
    the LCG, then XSL-RR, the state's high and low 64-bit halves xor-ed and
    rotated right by its top six bits.  The first fair bit is bit 31 of that
    output and the second is bit 63: numpy's bounded draw for a range of two
    (D. Lemire, ACM TOMACS 2019) keeps the top bit of a 32-bit draw, and it
    takes a 64-bit output's low half first and keeps the high half for the
    next 32-bit draw.
    """
    def first_outputs():
        # One row of Python ints at a time: only the compact array is held.
        for s_hi, s_lo, q_hi, q_lo in map(np.ndarray.tolist, _stream_words(keys)):
            # PCG64 seeding: inc = 2 * initseq + 1; from state 0 step, add initstate, step.
            inc = (q_hi << 65 | q_lo << 1 | 1) & MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * PCG64_MULT + inc) & MASK128
            state = (state * PCG64_MULT + inc) & MASK128
            word, rot = (state >> 64) ^ (state & MASK64), state >> 122
            yield (word >> rot | word << (64 - rot)) & MASK64

    raw = np.fromiter(first_outputs(), np.uint64, len(keys))
    return np.stack([raw >> 31 & 1, raw >> 63], axis=1, dtype=bool, casting="unsafe")


def johnson_mean_square(temperature: float, resistance: float, bandwidth: float) -> float:
    """Mean-square thermal noise voltage 4*k*T*R*B of a resistor, V^2."""
    if not (temperature >= 0 and resistance >= 0 and bandwidth >= 0):
        raise ValueError("temperature, resistance, and bandwidth must all be >= 0")
    return 4.0 * BOLTZMANN * temperature * resistance * bandwidth


def noise_temperature(mean_square: float, resistance: float, bandwidth: float) -> float:
    """Effective temperature U^2 / (4*k*R*B) a resistor would need, K.

    Exact inverse of :func:`johnson_mean_square`.  Raises ConfigurationError
    when a nonzero ``mean_square`` has no positive finite temperature in
    floating point, as when 4*k*R*B underflows to zero.
    """
    if not resistance > 0:
        raise ValueError(f"resistance must be > 0, got {resistance}")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    if not mean_square >= 0:
        raise ValueError(f"mean_square must be >= 0, got {mean_square}")
    if mean_square == 0:
        return 0.0
    denominator = 4.0 * BOLTZMANN * resistance * bandwidth
    temperature = mean_square / denominator if denominator else math.inf
    if not 0.0 < temperature < math.inf:
        raise ConfigurationError(f"bandwidth {bandwidth!r} Hz leaves {mean_square!r} V^2 across "
                                 f"{resistance!r} ohm no positive finite noise temperature")
    return temperature


def fill_band(sampling, mean_squares, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Draw one trace spectrum per entry of ``mean_squares``, the one draw path of the package.

    ``sampling`` is a :class:`protocol.Sampling`.  Returns fresh complex
    spectra of shape ``(rows, n // 2 + 1)``, ``n`` being
    ``sampling.samples_per_bit``, zero outside bins 1 to
    ``sampling.band_bins``; a row's inverse real FFT is its trace.  Row r
    draws from the r-th generator of ``rngs``: its real parts, then its
    imaginary parts, then its real Nyquist coefficient when the Nyquist bin
    is in band.  The scale makes the expected sample mean-square of row r's
    trace equal ``mean_squares[r]``; a negative, infinite or NaN mean square
    is a ConfigurationError.
    """
    n, k_max, has_nyquist = sampling.samples_per_bit, sampling.band_bins, sampling.nyquist_in_band
    mean_squares = np.asarray(mean_squares, dtype=np.float64)
    refused = mean_squares[~((mean_squares >= 0) & (mean_squares < math.inf))]
    if refused.size:
        raise ConfigurationError(f"mean_square must be >= 0 and finite, got {refused[0]}")
    m = k_max - 1 if has_nyquist else k_max
    weight = 2 * m + (1 if has_nyquist else 0)
    # With X_k = s * z_k and E|z_k|^2 = 1, the expected sample mean-square
    # is s^2 * weight / n^2 (Parseval); solve for s.
    scale = n * np.sqrt(mean_squares / weight)
    spectra = np.zeros((mean_squares.size, n // 2 + 1), dtype=np.complex128)
    bands = spectra[:, 1 : k_max + 1]
    # numpy's Generator keeps no normals in reserve, so one draw of
    # 2m (+ 1) values equals the m, m (and 1) it is made of.
    rngs = iter(rngs)
    draws = np.empty((mean_squares.size, weight))
    for row in draws:
        next(rngs).standard_normal(out=row)
    # Bin k's real and imaginary parts are draws k and m + k of its row.
    part_scale = (scale / math.sqrt(2.0))[:, None]
    np.multiply(draws[:, :m], part_scale, out=bands[:, :m].real)
    np.multiply(draws[:, m : 2 * m], part_scale, out=bands[:, :m].imag)
    if has_nyquist:   # real, so that the trace is; its imaginary part stays 0
        np.multiply(draws[:, 2 * m], scale, out=bands[:, m].real)
    return spectra


def estimate_psd(samples: np.ndarray, sample_rate: float,
                 segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Averaged-periodogram estimate of the one-sided power spectral density.

    Welch's method with Hann windows and 50% overlap; segment length is
    ``len(samples) // segments``.  The integrated density matches the sample
    mean-square to within about a percent for stationary input.

    Returns
    -------
    (frequencies, density) : tuple of ndarray
        Frequencies in Hz and density in V^2/Hz.
    """
    from scipy.signal import welch  # deferred: costs most of the package's import time

    _check_integer("segments", segments, 1)
    nperseg = samples.size // segments
    if nperseg < 64:
        raise ValueError(
            f"trace too short: {samples.size} samples give segments of "
            f"{nperseg} < 64 samples"
        )
    return welch(samples, fs=sample_rate, window="hann", nperseg=nperseg,
                 noverlap=nperseg // 2, detrend=False)
