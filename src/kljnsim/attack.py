"""Eve's passive zero-crossing attack.

Eve watches the wire, finds the instants where the current crosses zero,
samples the wire voltage there, and forms the per-bit mean-square of those
samples.  After calibrating both secure hypotheses offline (every parameter
except the bit choices is public), she thresholds the statistic to guess
each secure bit.  Calibration and scoring work on the per-bit columns that
:func:`protocol.simulate_bits` returns: one call rehearses both hypotheses,
and a session's guesses are scored as (runs, bits_per_run) arrays.
Aggregated over runs this yields her success probability p and its
run-to-run spread sigma_p.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CalibrationError, _check_integer
from .noise import stream_generators
from .schemes import CASES, SchemeConfig

if TYPE_CHECKING:
    from .protocol import Sampling

#: How the voltage at a detected crossing is read off.  A crossing exists
#: between samples k and k+1 iff i[k] and i[k+1] have opposite signs (an
#: exact zero sample is itself a crossing).  "interpolated" reads the
#: linearly interpolated voltage at the linear-interpolation zero of the
#: current; the three sample-aligned modes read a neighboring grid sample
#: instead.  Note the interpolant of a band-limited process has slightly
#: less variance than the process, so interpolated-mode mean squares run
#: low by roughly (1 - sinc(1/oversample)) / 3 until the oversampling ratio
#: is large; sample-aligned modes are free of that shrinkage.
ZC_MODES = ("interpolated", "sample_before", "sample_after", "nearest")

STREAM_EVE_TIE = 5
STREAM_CALIBRATION = 6


@dataclass(frozen=True)
class AttackCalibration:
    """Reference statistics Eve prepares before attacking."""

    mean_zc_lh: float
    mean_zc_hl: float
    threshold: float               # midpoint of the two means
    polarity: str                  # "hl_above", "lh_above", or "indistinct"


@dataclass(frozen=True)
class AttackOutcome:
    """Eve's guessing success over a whole session."""

    p: float
    sigma_p: float
    n_secure_bits: int
    n_runs: int
    per_run_p: tuple[float, ...]
    n_excluded_runs: int = 0


def block_zero_crossings(i: np.ndarray, u: np.ndarray, mode: str, sample_rate: float):
    """Locate each row's current zero crossings and sample its voltage there, in one pass.

    Row r of the 2-D arrays ``i`` and ``u`` is one trace's current and
    voltage, sampled at ``sample_rate``; each row is its own trace, so no
    crossing is reported between the end of one row and the start of the
    next.  ``mode`` is one of ``ZC_MODES``.  A row whose current keeps one
    sign has no crossing and counts 0.  Two crossings of a row at one time,
    such as two adjacent sign changes that elect the same sample in
    "nearest" mode, collapse into the first.  Returns ``(counts, times,
    values)``: ``counts[r]`` is row r's number of crossings, and ``times``
    and ``values`` hold every row's crossings, row after row, each row's
    times (from its first sample) strictly increasing.
    """
    if mode not in ZC_MODES:
        raise ValueError(f"mode must be one of {ZC_MODES}, got {mode!r}")
    if i.size == 0:
        raise ValueError("wire trace is empty")
    rows, n = i.shape
    i = i.ravel()
    u = u.ravel()
    dt = 1.0 / sample_rate

    exact = np.flatnonzero(i == 0.0)
    # Compare signs, not products: the product of two tiny currents rounds to 0.
    neg, pos = i < 0.0, i > 0.0
    change = (neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:])
    change[n - 1 :: n] = False   # the pairs that straddle two rows
    first, times, values = _sample_crossings(i, u, np.flatnonzero(change), rows, n, mode, dt)

    if exact.size:
        first = np.concatenate([first, exact - exact % n])
        times = np.concatenate([times, (exact % n) * dt])
        values = np.concatenate([values, u[exact]])
        # Stable: equal times in one row keep their order, so the first is kept below.
        order = np.lexsort((times, first))
        first = first[order]
        times = times[order]
        values = values[order]
    # Row r's crossings are bounds[r]:bounds[r + 1].
    bounds = np.searchsorted(first, np.arange(rows + 1) * n)
    # Drop a crossing at its predecessor's time, unless it starts a row.
    keep = np.concatenate([[True], np.diff(times) > 0.0])
    starts = bounds[:-1]
    keep[starts[starts < times.size]] = True
    if not keep.all():
        kept = np.flatnonzero(keep)
        times = times[kept]
        values = values[kept]
        bounds = np.searchsorted(kept, bounds)
    return np.diff(bounds), times, values


def _sample_crossings(i: np.ndarray, u: np.ndarray, kk: np.ndarray, rows: int, n: int,
                      mode: str, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sign change's row start, time (from that start) and voltage.

    ``kk`` holds the flat indices of the first samples of the sign changes of
    ``rows`` rows of ``n`` samples, in order, so each row's are contiguous.
    """
    per_row = np.diff(np.searchsorted(kk, np.arange(rows + 1) * n))
    first = np.repeat(np.arange(rows) * n, per_row)
    if mode == "interpolated":
        frac = i[kk] / (i[kk] - i[kk + 1])
        return first, (kk - first + frac) * dt, u[kk] + frac * (u[kk + 1] - u[kk])
    if mode == "sample_before":
        pick = kk
    elif mode == "sample_after":
        pick = kk + 1
    else:  # nearest
        pick = kk + (np.abs(i[kk + 1]) < np.abs(i[kk]))
    return first, (pick - first) * dt, u[pick]


#: Calibration aborts when crossings are scarcer than this per bit on average.
MIN_CROSSINGS_PER_BIT = 10.0

#: Fewest known-case bits Eve may rehearse each secure hypothesis with.
MIN_CALIBRATION_BITS = 100

#: The two hypothesis means count as distinct beyond this many combined
#: standard errors; below it Eve cannot orient a threshold.
POLARITY_SIGMAS = 4.0


def calibrate(
    scheme: SchemeConfig,
    sampling: Sampling,
    *,
    calibration_bits: int = 200,
    seed: int = 0,
) -> AttackCalibration:
    """Eve's offline rehearsal of both secure hypotheses.

    Simulates ``calibration_bits`` known-case bits for LH and for HL under
    ``sampling``, the settings the attack will face, in one
    :func:`protocol.simulate_bits` call (bit b of hypothesis h, 0 for LH and
    1 for HL, has entropy prefix ``(seed, STREAM_CALIBRATION, h, b)``),
    estimates the mean per-bit zero-crossing mean-square for each, and
    places the decision threshold at the arithmetic midpoint.  Polarity is
    "indistinct" when the two means differ by less than ``POLARITY_SIGMAS``
    combined standard errors.
    """
    from .protocol import simulate_bits  # deferred: protocol imports this module

    _check_integer("calibration_bits", calibration_bits, MIN_CALIBRATION_BITS)
    n = calibration_bits
    bits = simulate_bits(
        scheme, sampling, [CASES.index("LH")] * n + [CASES.index("HL")] * n,
        [(seed, STREAM_CALIBRATION, case_idx, bit) for case_idx in (0, 1) for bit in range(n)],
    )
    if int(bits.n_zc.sum()) / (2.0 * n) < MIN_CROSSINGS_PER_BIT:
        raise CalibrationError(
            "average crossings per bit below "
            f"{MIN_CROSSINGS_PER_BIT:g}; increase samples_per_bit"
        )
    mean_lh, se_lh = _mean_se(bits.u_zc2[:n])
    mean_hl, se_hl = _mean_se(bits.u_zc2[n:])
    diff = mean_hl - mean_lh
    if abs(diff) < POLARITY_SIGMAS * math.hypot(se_lh, se_hl):
        polarity = "indistinct"
    else:
        polarity = "hl_above" if diff > 0 else "lh_above"
    return AttackCalibration(
        mean_zc_lh=mean_lh,
        mean_zc_hl=mean_hl,
        threshold=0.5 * (mean_lh + mean_hl),
        polarity=polarity,
    )


def attack_statistics(session, cal: AttackCalibration, guess_seed: int = 0) -> AttackOutcome:
    """Aggregate Eve's per-run success probability over secure bits.

    Eve guesses HL for a secure bit when its ``u_zc2`` exceeds the threshold
    under "hl_above" polarity, and when it does not under "lh_above"; a NaN
    exceeds nothing.  Under "indistinct" calibration every guess is a fair
    coin from a stream disjoint from the simulation seeds, namespaced by
    ``guess_seed``: bit b of run r guesses HL when
    ``default_rng(derive_seed(guess_seed, r, b, STREAM_EVE_TIE)).integers(0, 2)``
    is 1.  Per run, p is the fraction of secure bits guessed correctly; the
    overall p is the unweighted mean of the per-run values and sigma_p their
    sample standard deviation.  Runs without secure bits are excluded
    (counted in ``n_excluded_runs``); RuntimeError when no run has one.
    """
    secure = session.per_run(session.bits.secure)
    if cal.polarity == "indistinct":
        guess_hl = np.zeros_like(secure)
        guess_hl[secure] = [
            rng.integers(0, 2) == 1
            for rng in stream_generators(
                (guess_seed, run_idx, bit_idx, STREAM_EVE_TIE)
                for run_idx, bit_idx in zip(*(a.tolist() for a in np.nonzero(secure)))
            )
        ]
    else:
        above = session.per_run(session.bits.u_zc2) > cal.threshold
        guess_hl = above if cal.polarity == "hl_above" else ~above
    is_hl = session.per_run(session.bits.case) == CASES.index("HL")
    correct = (secure & (guess_hl == is_hl)).sum(axis=1)
    n_secure = secure.sum(axis=1)
    scored = n_secure > 0
    for run_idx in np.flatnonzero(~scored).tolist():
        warnings.warn(f"run {run_idx} has no secure bits; excluded from attack statistics")
    if not scored.any():
        raise RuntimeError("no run contained a secure bit; increase bits_per_run or runs")
    per_run_p = (correct[scored] / n_secure[scored]).tolist()
    p = float(np.mean(per_run_p))
    sigma_p = float(np.std(per_run_p, ddof=1)) if len(per_run_p) > 1 else 0.0
    return AttackOutcome(
        p=p,
        sigma_p=sigma_p,
        n_secure_bits=int(n_secure.sum()),
        n_runs=len(per_run_p),
        per_run_p=tuple(per_run_p),
        n_excluded_runs=int((~scored).sum()),
    )


def _mean_se(values) -> tuple[float, float]:
    """Mean and its standard error; NaN where fewer than two values leave it undefined."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    if arr.size == 1:
        return float(arr[0]), math.nan
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def binomial_ci_halfwidth(p: float, n: int, z: float = 1.96) -> float:
    """Half-width of the normal-approximation binomial confidence interval."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return z * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def histogram(values, bins: int, value_range: tuple[float, float]):
    """Fixed-width binning with overflow sentinel bins.

    Returns ``bins + 2`` rows of (bin_lo, bin_hi, count): a (-inf, lo)
    underflow row, the interior bins, and a (hi, +inf) overflow row.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not lo < hi:
        raise ValueError(f"range must satisfy lo < hi, got ({lo}, {hi})")
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    rows = [(-math.inf, lo, int((values < lo).sum()))]
    rows.extend(
        (float(edges[j]), float(edges[j + 1]), int(counts[j])) for j in range(bins)
    )
    rows.append((hi, math.inf, int((values > hi).sum())))
    return rows
