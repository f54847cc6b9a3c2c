"""Key-exchange session simulation.

Each bit period, Alice and Bob independently pick their low or high
resistor, the connected branches get fresh synthetic noise, and both
parties classify the partner's choice from the measured wire mean-square
voltage.  The eavesdropper's zero-crossing statistics are recorded per bit.

Every draw is seeded as the seeding contract in :mod:`noise` lays out.

A session's cases come from its choice draws alone, before any wire is
simulated, and each bit's columns depend only on its case and prefix.  So
:func:`run_session` (``kljnsim simulate``) simulates every bit, while
:func:`simulate_secure_bits` (``attack``, ``table2`` and ``hist``, which
read no LL or HH bit) simulates only the LH and HL bits, and their columns
are the same in both.
"""

from __future__ import annotations

import atexit
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .circuit import ZC_MODES, block_zero_crossings, solve_wire
from .errors import ConfigurationError, _check_integer
from .noise import (
    BRANCH_STREAMS,
    STREAM_CHOICES,
    _in_band_bin_count,
    fair_bits,
    fill_band,
    stream_generators,
)
from .schemes import CASES, SchemeConfig, case_branches, level_table


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
        _check_integer("samples_per_bit", self.samples_per_bit, 2)
        if not self.oversample >= 1:
            raise ConfigurationError(f"oversample must be >= 1, got {self.oversample}")
        if self.oversample == float("inf"):
            raise ConfigurationError(f"oversample must be finite, got {self.oversample}")
        # The band edge falls at bin samples_per_bit / (2 * oversample).
        if _in_band_bin_count(self.samples_per_bit, self.sample_rate(1.0), 1.0) == 0:
            raise ConfigurationError(
                f"samples_per_bit ({self.samples_per_bit}) must be >= 2 * oversample "
                f"({self.oversample:g}), or no DFT bin falls inside the noise band"
            )
        if self.zc_mode not in ZC_MODES:
            raise ConfigurationError(f"zc_mode must be one of {ZC_MODES}, got {self.zc_mode!r}")

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
        _check_integer("bits_per_run", self.bits_per_run, 1)
        _check_integer("runs", self.runs, 1)
        _check_integer("master_seed", self.master_seed, 0)


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
        return _is_secure(self.case)


def _is_secure(case: np.ndarray) -> np.ndarray:
    """Mask of the LH and HL entries of an array of indices into ``CASES``."""
    return (case == 1) | (case == 2)


@dataclass(frozen=True, eq=False)
class SessionResult:
    """A whole session's bits, run-major: bit k of run r is row r * bits_per_run + k."""

    bits: BitColumns
    misclassified: np.ndarray    # either party misread the partner's choice


#: simulate_bits inverse-transforms max(1, BLOCK_SAMPLES // samples_per_bit)
#: bits at a time, one at a time when a bit is longer than BLOCK_SAMPLES.
BLOCK_SAMPLES = 2**16

#: The Parseval sums take each row's dot product over column chunks of at
#: most this many parts, folded left to right.  numpy hands np.vecdot to
#: OpenBLAS ddot, which splits a vector longer than 10,000 elements over its
#: own threads (kernel/x86_64/ddot.c): the sum's rounding then depends on the
#: host's BLAS thread count, and the idle helper threads spin against the
#: pool's workers.  A chunk this size runs on the calling thread.
_DOT_CHUNK = 10_000

#: simulate_bits splits a call over up to WORKERS processes, one contiguous
#: chunk of bits each, once the call holds FAN_OUT_SAMPLES samples or more.
#: Below that the pool costs more than it saves.  WORKERS is the number of
#: CPUs this process may run on.  On a 2-vCPU host, with the pool already
#: open, a call took, inline -> on two workers (medians of 9-15 calls, range
#: over 2-3 runs, ms):
#:
#:     samples per bit, start   2**19            2**20            2**21
#:     1024, fork               32-34 -> 21-38   46-64 -> 36-48   102-131 -> 58-76
#:     1024, forkserver         30-32 -> 20-24   59-63 -> 35-36   116-128 -> 65-70
#:     1024, spawn              33-34 -> 21-27   65-67 -> 37-41   122-123 -> 65-71
#:     16384, fork              15-20 -> 12-14   33-35 -> 24-24   64-65 -> 36-40
#:     16384, forkserver        17-19 -> 12-14   29-34 -> 21-21   53-66 -> 38-38
#:     16384, spawn             18-19 -> 13-15   34-34 -> 22-22   67-70 -> 39-40
#:
#: With the pool open, two workers won every run from 2**20 samples up but
#: one (fork, 1024: 46 -> 48).  But the first pooled call in a process also
#: opens the pool: 60-80 ms with fork, 320 ms with forkserver and 360 ms
#: with spawn.  A lower floor loses where a process makes few calls between
#: it and 2**21: one `kljnsim simulate` of 600 bits of 2048 samples took
#: 0.39 s inline and 0.49 s pooled (fork, medians of 8).  So the floor stays
#: 2**21 for every start method.
FAN_OUT_SAMPLES = 2**21
try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:   # no affinity API (macOS, Windows)
    WORKERS = os.cpu_count() or 1

#: The process's worker pool, opened by the first call that fans out and
#: reused by every later one (see _worker_pool).  A worker keeps the module
#: state it started with: under fork, a constant patched after the pool
#: opened (BLOCK_SAMPLES, noise.SEED_CHUNK) keeps its old value there.  No
#: column depends on either, so the results do not change.  A worker also
#: keeps its peak heap between bits and calls (_keep_heap).
_pool = None
_pool_size = 0


def _keep_heap() -> None:
    """Pool initializer: let glibc's malloc keep freed buffers for reuse.

    By default glibc maps each buffer of 128 KiB or more afresh and trims the
    heap, so a 2**20-sample bit faulted in its spectra, draws and FFT scratch
    again: about 7,000 minor faults.  Now buffers under 32 MiB come from the
    heap, and up to 128 MiB of free heap is kept (either alone still faults).
    Does nothing where ``mallopt`` is missing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):   # no mallopt (macOS), no CDLL(None) (Windows)
        return
    mallopt(-3, 32 * 2**20)    # M_MMAP_THRESHOLD
    mallopt(-1, 128 * 2**20)   # M_TRIM_THRESHOLD


def _worker_pool(size: int):
    """The process's pool of ``size`` workers, replacing an open pool of another size."""
    global _pool, _pool_size
    if _pool is not None and _pool_size != size:
        # Shut down and joined first, so the next fork finds no manager thread alive.
        _close_pool()
    if _pool is None:
        # Imported here: at module level it would add tens of ms to every start-up.
        from concurrent.futures import ProcessPoolExecutor

        _pool, _pool_size = ProcessPoolExecutor(size, initializer=_keep_heap), size
    return _pool


def _close_pool() -> None:
    """Shut the worker pool down, if one is open, and wait for its workers to exit."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.shutdown(wait=True)


atexit.register(_close_pool)


def simulate_bits(scheme: SchemeConfig, sampling: Sampling, cases, entropy_prefixes) -> BitColumns:
    """Simulate one bit per (case, entropy prefix) pair and return its statistics.

    ``sampling`` sets the trace length, the sample rate and the crossing
    mode.  ``cases`` holds indices into ``CASES``.  Each bit's two connected
    branches (:func:`schemes.case_branches`) draw their in-band noise
    coefficients (:func:`noise.fill_band`) from generators seeded as
    ``default_rng(derive_seed(*prefix, tag))``, where ``tag`` is the
    branch's stream tag; :func:`noise.stream_generators` hashes the seeds
    a chunk of bits at a time.  The wire is linear, so
    :func:`circuit.solve_wire` solves it bin by bin in the frequency domain,

        I = (X_A - X_B) / (R_A + R_B),   U = (X_A * R_B + X_B * R_A) / (R_A + R_B),

    and u2, i2 and p_ab follow from Parseval's theorem over the in-band
    bins.  Blocks of bits are then inverse-transformed together to find the
    current's zero crossings and the mean square of the voltage sampled
    there.  The noise has no DC bin, so the current is zero-mean and crosses
    zero in every bit (n_zc >= 1).

    Each bit depends only on its case and prefix, so a call of at least
    ``FAN_OUT_SAMPLES`` samples is split into ``min(WORKERS, n_bits)``
    contiguous chunks that run in the process's pool of ``WORKERS`` workers;
    the columns are the same for any worker count and any BLAS thread count.
    The pool is opened by the first such call, kept for later ones and shut
    down at exit.  A pool that breaks raises ``BrokenProcessPool``, a
    ``RuntimeError``, and is replaced on the next call.
    """
    case = np.asarray(cases, dtype=np.int64)
    n_bits = len(entropy_prefixes)
    if case.shape != (n_bits,) or not np.isin(case, np.arange(len(CASES))).all():
        raise ValueError("cases must hold one index into CASES per entropy prefix")
    chunks = min(WORKERS, n_bits)
    if chunks < 2 or n_bits * sampling.samples_per_bit < FAN_OUT_SAMPLES:
        return _simulate_bits(scheme, sampling, case, entropy_prefixes)
    from concurrent.futures.process import BrokenProcessPool

    bounds = [n_bits * j // chunks for j in range(chunks + 1)]
    spans = list(zip(bounds[:-1], bounds[1:]))
    pool = _worker_pool(WORKERS)
    try:
        parts = list(pool.map(
            _simulate_bits, [scheme] * chunks, [sampling] * chunks,
            [case[lo:hi] for lo, hi in spans], [entropy_prefixes[lo:hi] for lo, hi in spans],
        ))
    except BrokenProcessPool:
        _close_pool()   # the next call opens a fresh pool
        raise
    return BitColumns(**{
        f.name: np.concatenate([getattr(part, f.name) for part in parts])
        for f in fields(BitColumns)
    })


def _simulate_bits(scheme: SchemeConfig, sampling: Sampling, case: np.ndarray,
                   entropy_prefixes) -> BitColumns:
    """:func:`simulate_bits` in this process, on cases it has checked."""
    n_bits = len(entropy_prefixes)
    n = sampling.samples_per_bit
    sample_rate = sampling.sample_rate(scheme.bandwidth)
    k_max = _in_band_bin_count(n, sample_rate, scheme.bandwidth)
    has_nyquist = (n % 2 == 0) and (k_max == n // 2)
    m2 = 2 * (k_max - 1 if has_nyquist else k_max)   # parts of the weight-2 bins

    # Per case: the A and B branches it connects, and their stream tags.
    pairs = [[scheme.branches[bid] for bid in case_branches(label)] for label in CASES]
    tags = [[BRANCH_STREAMS[bid] for bid in case_branches(label)] for label in CASES]
    r_a = np.array([a.resistance for a, _ in pairs])
    r_b = np.array([b.resistance for _, b in pairs])
    mean_square = np.array([[a.mean_square for a, _ in pairs], [b.mean_square for _, b in pairs]])
    case_list = case.tolist()
    rows = max(1, min(BLOCK_SAMPLES // n, n_bits))
    blocks = [slice(start, min(start + rows, n_bits)) for start in range(0, n_bits, rows)]
    # Each block's A branch generators, bit by bit, then its B branch generators.
    streams = stream_generators(
        (*entropy_prefixes[k], tags[case_list[k]][side])
        for block in blocks for side in (0, 1) for k in range(block.start, block.stop)
    )

    u2 = np.empty(n_bits)
    i2 = np.empty(n_bits)
    p_ab = np.empty(n_bits)

    def solve_block(block: slice) -> np.ndarray:
        """Draw a block's branch spectra, solve its wire; return the U rows, then the I rows."""
        c = case[block]
        width = c.size
        # Fresh, so zero outside bins 1..k_max.
        spectra = np.zeros((2 * width, n // 2 + 1), dtype=np.complex128)
        bands = spectra[:, 1 : k_max + 1]
        fill_band(bands, n, mean_square[:, c].ravel(), streams)
        parts = bands.view(np.float64)
        u, i = parts[:width], parts[width:]   # X_A and X_B, turned into U and I in place
        # One pass per column chunk of _DOT_CHUNK parts: solve the wire, then add
        # each row's Parseval sums over the chunk's weight-2 parts, left to right.
        # Past m2 a chunk holds only the Nyquist parts, which are solved too.
        sums = np.zeros((3, width))   # of u * u, i * i and u * i
        for lo in range(0, 2 * k_max, _DOT_CHUNK):
            hi = lo + _DOT_CHUNK
            solve_wire(u[:, lo:hi], i[:, lo:hi], r_a[c, None], r_b[c, None])
            if lo < m2:
                uc, ic = u[:, lo : min(hi, m2)], i[:, lo : min(hi, m2)]
                sums += (np.vecdot(uc, uc), np.vecdot(ic, ic), np.vecdot(uc, ic))
        # Parseval: each row's sample mean of x * y, from the band parts.
        sums *= 2.0
        if has_nyquist:
            sums += (u[:, m2] * u[:, m2], i[:, m2] * i[:, m2], u[:, m2] * i[:, m2])
        u2[block], i2[block], p_ab[block] = sums / (n * n)
        return spectra

    n_zc = np.empty(n_bits, dtype=np.int64)
    u_zc2 = np.empty(n_bits)

    def cross_block(block: slice, wire: np.ndarray) -> None:
        """Count each bit's current zero crossings; take the mean square of the voltage there."""
        width = block.stop - block.start
        counts, _, values = block_zero_crossings(wire[width:], wire[:width],
                                                 sampling.zc_mode, sample_rate)
        n_zc[block] = counts
        squares = values * values
        ends = np.cumsum(counts).tolist()
        for k, lo, hi in zip(range(block.start, block.stop), [0, *ends], ends):
            u_zc2[k] = np.add.reduce(squares[lo:hi]) / (hi - lo)

    # The traces buffer is reused.  A block's draws and spectra are freed
    # before its crossing search, and its crossings before the next block's
    # draws, so that a long bit's spectra and crossing temporaries never coexist.
    traces = np.empty((2 * rows, n))
    for block in blocks:
        wire = traces[: 2 * (block.stop - block.start)]
        np.fft.irfft(solve_block(block), n=n, axis=-1, out=wire)
        cross_block(block, wire)
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


def _draw_cases(config: SessionConfig) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Every bit's case and entropy prefix, run-major; no wire is simulated.

    Bit k of run r has prefix ``(master_seed, r, k)``; Alice and Bob each
    draw a fair choice, 0 for L and 1 for H, as
    ``default_rng(derive_seed(*prefix, STREAM_CHOICES)).integers(0, 2, size=2)``,
    and the case index is ``2 * alice + bob``.  :func:`noise.fair_bits`
    gives both draws without building a generator.
    """
    seed = config.master_seed
    prefixes = [
        (seed, run_idx, bit_idx)
        for run_idx in range(config.runs)
        for bit_idx in range(config.bits_per_run)
    ]
    choices = fair_bits((*prefix, STREAM_CHOICES) for prefix in prefixes)
    return 2 * choices[:, 0] + choices[:, 1], prefixes


def run_session(config: SessionConfig) -> SessionResult:
    """Simulate ``config.runs`` runs of ``config.bits_per_run`` bit exchanges.

    Per bit: draw independent fair choices for both parties, then let
    :func:`simulate_bits` draw fresh branch noise, solve the wire and take
    its moments and zero-crossing statistics; classify both partners' views
    from the wire's mean-square voltage.
    Deterministic for a fixed config.
    """
    cases, prefixes = _draw_cases(config)
    bits = simulate_bits(config.scheme, config.sampling, cases, prefixes)
    choices = np.stack(np.divmod(cases, 2))   # row 0: Alice, row 1: Bob
    inferred = _infer_partner(choices, bits.u2, level_table(config.scheme))
    return SessionResult(
        bits=bits,
        misclassified=(inferred != choices[::-1]).any(axis=0),
    )


def simulate_secure_bits(config: SessionConfig) -> tuple[np.ndarray, BitColumns]:
    """Draw a session's cases as :func:`run_session` does, but simulate only its LH and HL bits.

    Returns the ``(runs, bits_per_run)`` grid of case indices and the
    secure bits' columns, run-major: the LH and HL rows of
    ``run_session(config).bits``.
    """
    cases, prefixes = _draw_cases(config)
    secure = np.flatnonzero(_is_secure(cases))
    bits = simulate_bits(config.scheme, config.sampling, cases[secure],
                         [prefixes[k] for k in secure.tolist()])
    return cases.reshape(config.runs, config.bits_per_run), bits


def secure_bit_value(case_label: str) -> int:
    """Bit value of a secure case under the public convention: HL is 1, LH is 0."""
    if case_label == "HL":
        return 1
    if case_label == "LH":
        return 0
    raise ValueError(f"case {case_label!r} is not a secure case")
