"""The quasi-static two-generator loop: the wire solve and closed-form moments.

Two noisy branches (one per party) drive an ideal wire.  With branch
resistances R_A, R_B and generator voltages U_A(t), U_B(t), Kirchhoff's loop
law gives the wire voltage and current

    U_c = (U_A * R_B + U_B * R_A) / (R_A + R_B)
    I_c = (U_A - U_B) / (R_A + R_B)

with positive current flowing from Alice to Bob.  The wire is ideal: zero
resistance, zero delay, lumped.  The law is linear, so :func:`solve_wire`
applies it to DFT coefficients as well as to samples; the simulation
solves it bin by bin.  :func:`block_zero_crossings` then counts the
current's zero crossings and samples the voltage there, the statistic whose
closed-form limit is :func:`conditional_zc_variance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Branch:
    """One resistor branch: resistance and generator mean-square."""

    resistance: float          # ohm, > 0
    mean_square: float         # V^2, >= 0

    def __post_init__(self):
        if not self.resistance > 0:
            raise ValueError(f"branch resistance must be > 0, got {self.resistance}")
        if not self.mean_square >= 0:
            raise ValueError(f"branch mean_square must be >= 0, got {self.mean_square}")


@dataclass(frozen=True)
class MomentSummary:
    """Second moments of the wire observables.

    u2 and i2 are the mean-square voltage (V^2) and current (A^2), p_ab the
    average power flowing from Alice to Bob (W), and rho the correlation
    coefficient p_ab / sqrt(u2 * i2).
    """

    u2: float
    i2: float
    p_ab: float
    rho: float


def solve_wire(x_a: np.ndarray, x_b: np.ndarray, r_a, r_b) -> None:
    """Turn generator voltages ``x_a`` into U_c and ``x_b`` into I_c, in place.

    ``x_a`` and ``x_b`` are float arrays of one shape with one wire per row:
    samples, or the real and imaginary parts of DFT coefficients.  ``r_a``
    and ``r_b`` are resistances, scalars or columns with one value per row.
    """
    r_sum = r_a + r_b
    xb_ra = x_b * r_a
    np.subtract(x_a, x_b, out=x_b)
    x_b /= r_sum
    x_a *= r_b
    x_a += xb_ra
    x_a /= r_sum


def analytic_moments(r_a: float, u2_a: float, r_b: float, u2_b: float) -> MomentSummary:
    """Closed-form wire moments for independent flat-band generators.

    u2  = (u2_a * r_b^2 + u2_b * r_a^2) / (r_a + r_b)^2
    i2  = (u2_a + u2_b) / (r_a + r_b)^2
    p   = (u2_a * r_b - u2_b * r_a) / (r_a + r_b)^2

    Raises ConfigurationError when a moment is not finite in floating point.
    """
    if not (r_a > 0 and r_b > 0):
        raise ValueError(f"resistances must be > 0, got {r_a}, {r_b}")
    if not (u2_a >= 0 and u2_b >= 0):
        raise ValueError(f"mean squares must be >= 0, got {u2_a}, {u2_b}")
    try:
        denom = (r_a + r_b) ** 2
        u2 = (u2_a * r_b * r_b + u2_b * r_a * r_a) / denom
        i2 = (u2_a + u2_b) / denom
        p_ab = (u2_a * r_b - u2_b * r_a) / denom
    except (OverflowError, ZeroDivisionError):
        u2 = i2 = p_ab = math.nan
    if not all(map(math.isfinite, (u2, i2, p_ab))):
        raise ConfigurationError(f"resistances {r_a!r} and {r_b!r} ohm with mean squares "
                                 f"{u2_a!r} and {u2_b!r} V^2 leave no finite wire moments")
    scale = _power_scale(u2, i2)
    rho = p_ab / scale if scale > 0 else 0.0
    return MomentSummary(u2=u2, i2=i2, p_ab=p_ab, rho=rho)


def _power_scale(u2: float, i2: float) -> float:
    """sqrt(u2 * i2) from mantissas and exponents apart, so no legal level under- or overflows."""
    (m, p), (k, q) = math.frexp(u2), math.frexp(i2)
    return math.ldexp(math.sqrt(m * k * 2 ** ((p + q) % 2)), (p + q) // 2)


def conditional_zc_variance(m: MomentSummary) -> float:
    """Variance of the wire voltage conditioned on zero wire current.

    For jointly Gaussian (U_c, I_c) this is u2 * (1 - rho^2): the
    continuous-time limit of the mean-square voltage sampled exactly at
    current zero crossings.  In equilibrium (rho = 0) it equals u2, i.e.
    crossing-time sampling is indistinguishable from independent sampling.
    """
    return m.u2 * (1.0 - m.rho * m.rho)


#: How the voltage at a detected crossing is read off.  A crossing exists
#: between samples k and k+1 iff i[k] and i[k+1] have opposite signs, and an
#: exact zero sample is itself a crossing.  "interpolated" reads the
#: linearly interpolated voltage at the linear-interpolation zero of the
#: current; the three sample-aligned modes read a neighboring grid sample
#: instead.  Only "nearest" and "interpolated" can put two sign changes at
#: one time; a zero shares its time with none.  The interpolant of a
#: band-limited process has slightly less variance than the process, so
#: interpolated-mode mean squares run low by about (1 - sinc(1/oversample)) / 3
#: until the oversampling ratio is large; sample-aligned modes do not.
ZC_MODES = ("interpolated", "sample_before", "sample_after", "nearest")


def block_zero_crossings(i: np.ndarray, u: np.ndarray, mode: str):
    """Count each row's current zero crossings and sample its voltage there, in one pass.

    Row r of the 2-D arrays ``i`` and ``u`` is one trace's current and
    voltage; each row is its own trace, so no crossing is reported between
    the end of one row and the start of the next.  ``mode`` is one of
    ``ZC_MODES``.  A row whose current keeps one sign has no crossing and
    counts 0.  Two crossings of a row at one time, such as two adjacent sign
    changes that elect the same sample in "nearest" mode, collapse into the
    first.  Returns ``(counts, values)``: ``counts[r]`` is row r's number of
    crossings, and ``values`` holds every row's crossing voltages, row after
    row, each row's in time order.
    """
    if mode not in ZC_MODES:
        raise ValueError(f"mode must be one of {ZC_MODES}, got {mode!r}")
    if i.size == 0:
        raise ValueError("wire trace is empty")
    rows, n = i.shape
    i, u = i.ravel(), u.ravel()
    # Compare signs, not products: the product of two tiny currents rounds to 0.
    zero = i == 0.0
    neg = i < 0.0
    change = neg[:-1] != neg[1:]
    change &= ~(zero[:-1] | zero[1:])   # a zero sample is its own crossing
    change[n - 1 :: n] = False          # the pairs that straddle two rows
    kk = np.flatnonzero(change)
    if mode == "interpolated":
        frac = i[kk] / (i[kk] - i[kk + 1])
        values = u[kk] + frac * (u[kk + 1] - u[kk])
        # Only neighbouring pairs, which share a row, can tie; the first is kept.
        # Times count from the row's first sample, which sets how they round.
        pair = np.flatnonzero(np.diff(kk) == 1)
        # A later fraction of at least ulp(n) puts the later time above rel + 1,
        # where the earlier one cannot reach, so only smaller ones can tie.
        pair = pair[frac[pair + 1] < np.spacing(float(n))]
        rel = kk[pair] % n
        tied = 1 + pair[rel + frac[pair] == rel + 1 + frac[pair + 1]]
        if tied.size:
            kk, values = np.delete(kk, tied), np.delete(values, tied)
    else:   # kk moves to the sample each crossing reads
        if mode == "nearest":
            kk = kk + (np.abs(i[kk + 1]) < np.abs(i[kk]))
            kk = kk[np.diff(kk, prepend=-1) > 0]   # neighbouring pairs can read one sample
        elif mode == "sample_after":
            kk = kk + 1
        values = u[kk]
    exact = np.flatnonzero(zero)
    if exact.size:   # merged by position, as no zero shares a time with a sign change
        order = np.argsort(np.concatenate([kk, exact]), kind="stable")
        kk = np.concatenate([kk, exact])[order]
        values = np.concatenate([values, u[exact]])[order]
    return np.diff(np.searchsorted(kk, np.arange(rows + 1) * n)), values
