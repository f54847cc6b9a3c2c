"""Eve's passive zero-crossing attack.

Eve watches the wire, finds the instants where the current crosses zero,
samples the wire voltage there, and forms the per-bit mean-square of those
samples.  After calibrating both secure hypotheses offline (every parameter
except the bit choices is public), she thresholds the statistic to guess
each secure bit.  Aggregated over runs this yields her success probability
p and its run-to-run spread sigma_p.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CalibrationError, ConfigurationError
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
    ``sampling``, the settings the attack will face, estimates the mean
    per-bit zero-crossing mean-square for each, and places the decision
    threshold at the arithmetic midpoint.  Polarity is "indistinct" when the
    two means differ by less than ``POLARITY_SIGMAS`` combined standard errors.
    """
    from .protocol import simulate_bits  # deferred: protocol imports this module

    if calibration_bits < MIN_CALIBRATION_BITS:
        raise ConfigurationError(
            f"calibration_bits must be >= {MIN_CALIBRATION_BITS}, got {calibration_bits}"
        )
    means = {}
    std_errs = {}
    total_crossings = 0
    for case_idx, case in enumerate(("LH", "HL")):
        bits = simulate_bits(
            scheme, sampling, [CASES.index(case)] * calibration_bits,
            [(seed, STREAM_CALIBRATION, case_idx, bit) for bit in range(calibration_bits)],
        )
        total_crossings += int(bits.n_zc.sum())
        means[case] = float(bits.u_zc2.mean())
        std_errs[case] = float(bits.u_zc2.std(ddof=1) / math.sqrt(calibration_bits))
    if total_crossings / (2.0 * calibration_bits) < MIN_CROSSINGS_PER_BIT:
        raise CalibrationError(
            "average crossings per bit below "
            f"{MIN_CROSSINGS_PER_BIT:g}; increase samples_per_bit"
        )
    diff = means["HL"] - means["LH"]
    combined_se = math.hypot(std_errs["LH"], std_errs["HL"])
    if abs(diff) < POLARITY_SIGMAS * combined_se:
        polarity = "indistinct"
    else:
        polarity = "hl_above" if diff > 0 else "lh_above"
    return AttackCalibration(
        mean_zc_lh=means["LH"],
        mean_zc_hl=means["HL"],
        threshold=0.5 * (means["LH"] + means["HL"]),
        polarity=polarity,
    )


def eve_guess_bit(u_zc2: float, cal: AttackCalibration, tie_seed) -> str:
    """Guess the secure case from one bit's zero-crossing statistic.

    Indistinct calibration falls back to a fair coin, drawn from
    ``default_rng(tie_seed)``: ``tie_seed`` is a seed or a ``Generator``,
    which is used as it is.  Otherwise the guess is a threshold comparison.
    """
    if cal.polarity == "indistinct":
        rng = np.random.default_rng(tie_seed)
        return "HL" if rng.integers(0, 2) else "LH"
    if cal.polarity == "hl_above":
        return "HL" if u_zc2 > cal.threshold else "LH"
    return "LH" if u_zc2 > cal.threshold else "HL"


def attack_statistics(session, cal: AttackCalibration, guess_seed: int = 0) -> AttackOutcome:
    """Aggregate Eve's per-run success probability over secure bits.

    Per run, p is the fraction of secure bits guessed correctly; the overall
    p is the unweighted mean of the per-run values and sigma_p their sample
    standard deviation.  Runs without secure bits are excluded (counted in
    ``n_excluded_runs``); RuntimeError when no run has one.  Coin-flip
    guesses draw from a stream disjoint from the simulation seeds,
    namespaced by ``guess_seed``: the coin of bit b in run r comes from
    ``default_rng(derive_seed(guess_seed, r, b, STREAM_EVE_TIE))``.
    """
    secure = session.per_run(session.bits.secure)
    coins = None
    if cal.polarity == "indistinct":
        coins = stream_generators(
            (guess_seed, run_idx, bit_idx, STREAM_EVE_TIE)
            for run_idx, bit_idx in zip(*(a.tolist() for a in np.nonzero(secure)))
        )
    case = session.per_run(session.bits.case)
    u_zc2 = session.per_run(session.bits.u_zc2)
    per_run_p = []
    n_secure = 0
    excluded = 0
    for run_idx, mask in enumerate(secure):
        bit_indices = np.flatnonzero(mask)
        if bit_indices.size == 0:
            warnings.warn(f"run {run_idx} has no secure bits; excluded from attack statistics")
            excluded += 1
            continue
        correct = 0
        for c, v in zip(case[run_idx, mask].tolist(), u_zc2[run_idx, mask].tolist()):
            guess = eve_guess_bit(v, cal, next(coins) if coins else None)
            correct += guess == CASES[c]
        per_run_p.append(correct / bit_indices.size)
        n_secure += bit_indices.size
    if not per_run_p:
        raise RuntimeError("no run contained a secure bit; increase bits_per_run or runs")
    p = float(np.mean(per_run_p))
    sigma_p = float(np.std(per_run_p, ddof=1)) if len(per_run_p) > 1 else 0.0
    return AttackOutcome(
        p=p,
        sigma_p=sigma_p,
        n_secure_bits=n_secure,
        n_runs=len(per_run_p),
        per_run_p=tuple(per_run_p),
        n_excluded_runs=excluded,
    )


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
