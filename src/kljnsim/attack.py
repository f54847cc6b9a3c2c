"""Eve's passive zero-crossing attack.

Eve samples the wire voltage where the current crosses zero and forms the
per-bit mean-square of those samples: the ``u_zc2`` column that
:func:`protocol.simulate_bits` fills with :func:`circuit.block_zero_crossings`.
After calibrating both secure hypotheses offline (every parameter except
the bit choices is public), she thresholds the statistic to guess each
secure bit.  One ``simulate_bits`` call rehearses both hypotheses, and a
session's secure bits are scored as arrays against its grid of cases.
Aggregated over runs this yields her success probability p and its
run-to-run spread sigma_p.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import protocol
from .errors import CalibrationError, _check_integer
from .noise import STREAM_CALIBRATION, STREAM_EVE_TIE, fair_bits, key_words
from .schemes import CASES, SchemeConfig


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
    per_run_p: tuple[float, ...]     # the runs with a secure bit only
    per_run_secure: tuple[int, ...]  # every run's secure bit count, 0 for an excluded run
    n_excluded_runs: int = 0


#: Calibration aborts when crossings are scarcer than this per bit on average.
MIN_CROSSINGS_PER_BIT = 10.0

#: Fewest known-case bits Eve may rehearse each secure hypothesis with.
MIN_CALIBRATION_BITS = 100

#: The two hypothesis means count as distinct beyond this many combined
#: standard errors; below it Eve cannot orient a threshold.
POLARITY_SIGMAS = 4.0


def calibrate(
    scheme: SchemeConfig,
    sampling: protocol.Sampling,
    *,
    calibration_bits: int = 200,
    seed: int = 0,
) -> AttackCalibration:
    """Eve's offline rehearsal of both secure hypotheses.

    Simulates ``calibration_bits`` known-case bits for LH and for HL under
    ``sampling``, the settings the attack will face, in one
    :func:`protocol.simulate_bits` call (bit b of hypothesis h, 0 for LH and
    1 for HL, has key ``(seed, STREAM_CALIBRATION, h, b)``),
    estimates the mean per-bit zero-crossing mean-square for each, and
    places the decision threshold at the arithmetic midpoint.  Polarity is
    "indistinct" when the two means differ by less than ``POLARITY_SIGMAS``
    combined standard errors.
    """
    _check_integer("calibration_bits", calibration_bits, MIN_CALIBRATION_BITS)
    _check_integer("seed", seed, 0)
    n = calibration_bits
    keys = key_words(seed, STREAM_CALIBRATION, *np.divmod(np.arange(2 * n), n))
    cases = np.repeat([CASES.index("LH"), CASES.index("HL")], n)
    bits = protocol.simulate_bits(scheme, sampling, cases, keys)
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


def attack_statistics(cases, u_zc2, cal: AttackCalibration, guess_seed: int = 0) -> AttackOutcome:
    """Aggregate Eve's per-run success probability over a session's secure bits.

    ``cases`` is the session's ``(runs, bits_per_run)`` grid of indices into
    ``CASES``, and ``u_zc2`` holds the statistic of its LH and HL bits only,
    run-major (:func:`protocol.simulate_secure_bits` returns both).  Eve
    guesses HL for a secure bit when its ``u_zc2`` exceeds the threshold
    under "hl_above" polarity, and when it does not under "lh_above"; a NaN
    exceeds nothing.  Under "indistinct" calibration every guess is a fair
    coin from a stream disjoint from the simulation seeds, namespaced by
    ``guess_seed``: bit b of run r guesses HL when
    ``default_rng(derive_seed(guess_seed, r, b, STREAM_EVE_TIE)).integers(0, 2)``
    is 1, read from :func:`noise.fair_bits` without building a generator.
    Per run, p is the fraction of secure bits guessed correctly; the overall
    p is the unweighted mean of the per-run values and sigma_p their sample
    standard deviation.  Runs without secure bits are excluded (counted in
    ``n_excluded_runs``); RuntimeError when no run has one.
    """
    _check_integer("guess_seed", guess_seed, 0)
    cases = np.asarray(cases)
    u_zc2 = np.asarray(u_zc2, dtype=float)
    if cases.ndim != 2:
        raise ValueError("cases must be a (runs, bits_per_run) grid of indices into CASES")
    secure_run, secure_bit = np.nonzero(protocol._is_secure(cases))
    if u_zc2.shape != secure_run.shape:
        raise ValueError("u_zc2 must hold one value per LH or HL bit of cases")
    if cal.polarity == "indistinct":
        guess_hl = fair_bits(key_words(guess_seed, secure_run, secure_bit, STREAM_EVE_TIE))[:, 0]
    else:
        above = u_zc2 > cal.threshold
        guess_hl = above if cal.polarity == "hl_above" else ~above
    is_hl = cases[secure_run, secure_bit] == CASES.index("HL")
    n_secure = np.bincount(secure_run, minlength=len(cases))
    correct = np.bincount(secure_run[guess_hl == is_hl], minlength=len(cases))
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
        per_run_secure=tuple(n_secure.tolist()),
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


def binomial_ci_halfwidth(p: float, n: int) -> float:
    """Normal-approximation binomial CI half-width; 1.96 is the two-sided 95% normal quantile."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)

