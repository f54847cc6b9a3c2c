"""The quasi-static two-generator loop: the wire solve and closed-form moments.

Two noisy branches (one per party) drive an ideal wire.  With branch
resistances R_A, R_B and generator voltages U_A(t), U_B(t), Kirchhoff's loop
law gives the wire voltage and current

    U_c = (U_A * R_B + U_B * R_A) / (R_A + R_B)
    I_c = (U_A - U_B) / (R_A + R_B)

with positive current flowing from Alice to Bob.  The wire is ideal: zero
resistance, zero delay, lumped.  The law is linear, so :func:`solve_wire`
applies it to DFT coefficients as well as to samples; the simulation
solves it bin by bin.  :func:`block_zero_crossings` then finds the
current's zero crossings and samples the voltage there, the statistic whose
closed-form limit is :func:`conditional_zc_variance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Branch:
    """One resistor branch: resistance and generator mean-square."""

    resistance: float          # ohm, > 0
    mean_square: float         # V^2, >= 0

    def __post_init__(self):
        if self.resistance <= 0:
            raise ValueError(f"branch resistance must be > 0, got {self.resistance}")
        if self.mean_square < 0:
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
    """
    if r_a <= 0 or r_b <= 0:
        raise ValueError(f"resistances must be > 0, got {r_a}, {r_b}")
    if u2_a < 0 or u2_b < 0:
        raise ValueError("mean squares must be >= 0")
    denom = (r_a + r_b) ** 2
    u2 = (u2_a * r_b * r_b + u2_b * r_a * r_a) / denom
    i2 = (u2_a + u2_b) / denom
    p_ab = (u2_a * r_b - u2_b * r_a) / denom
    scale = math.sqrt(u2 * i2)
    rho = p_ab / scale if scale > 0 else 0.0
    return MomentSummary(u2=u2, i2=i2, p_ab=p_ab, rho=rho)


def conditional_zc_variance(m: MomentSummary) -> float:
    """Variance of the wire voltage conditioned on zero wire current.

    For jointly Gaussian (U_c, I_c) this is u2 * (1 - rho^2): the
    continuous-time limit of the mean-square voltage sampled exactly at
    current zero crossings.  In equilibrium (rho = 0) it equals u2, i.e.
    crossing-time sampling is indistinguishable from independent sampling.
    """
    return m.u2 * (1.0 - m.rho * m.rho)


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
