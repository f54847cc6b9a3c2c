"""The quasi-static two-generator loop: the wire solve and closed-form moments.

Two noisy branches (one per party) drive an ideal wire.  With branch
resistances R_A, R_B and generator voltages U_A(t), U_B(t), Kirchhoff's loop
law gives the wire voltage and current

    U_c = (U_A * R_B + U_B * R_A) / (R_A + R_B)
    I_c = (U_A - U_B) / (R_A + R_B)

with positive current flowing from Alice to Bob.  The wire is ideal: zero
resistance, zero delay, lumped.  The law is linear, so :func:`solve_wire`
applies it to DFT coefficients as well as to samples; the simulation
solves it bin by bin.
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
