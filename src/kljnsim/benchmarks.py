"""Benchmark configurations and experiment drivers.

Five reference operating points cover the scheme family: the classic
two-pair exchanger, three four-resistor (VMG) quadruples with increasing
power flow, and the zero-power (FCK1) variant.  Each row carries the
published wire moments and eavesdropper success statistics for side-by-side
comparison; those reference numbers are comparison labels, not assertions,
because they depend on the (unpublished) discretization that produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attack import AttackCalibration, AttackOutcome, _mean_se, attack_statistics, calibrate
from .errors import ConfigurationError, _check_integer
from .noise import STREAM_CALIBRATION, STREAM_EVE_TIE, derive_seed
from .protocol import BitColumns, Sampling, SessionConfig, simulate_bits, simulate_secure_bits
from .schemes import CASES, SchemeConfig, scheme_for_kind


@dataclass(frozen=True)
class BenchmarkRow:
    """One reference operating point with its published statistics.

    Units are SI: ohms, V^2, A^2, W.  ``u_zc2_*_ref`` are the reported
    per-case zero-crossing mean-squares; ``p_eve_ref``/``sigma_p_ref`` the
    reported eavesdropper success probability and its run-to-run spread.
    """

    name: str
    kind: str
    r_ha: float
    r_la: float
    r_hb: float
    r_lb: float
    u2_ref: float
    i2_ref: float
    p_ref: float
    u_zc2_lh_ref: float
    u_zc2_hl_ref: float
    p_eve_ref: float
    sigma_p_ref: float


BENCHMARKS: dict[str, BenchmarkRow] = {
    row.name: row
    for row in (
        BenchmarkRow(
            "kljn", "classic", 10_000.0, 1_000.0, 10_000.0, 1_000.0,
            0.908, 0.091e-6, 0.0, 0.907, 0.908, 0.5002, 0.0091,
        ),
        BenchmarkRow(
            "vmg1", "vmg", 16_700.0, 100.0, 16_700.0, 278.0,
            0.991, 0.314e-6, 0.026e-3, 0.989, 1.009, 0.5885, 0.0022,
        ),
        BenchmarkRow(
            "vmg2", "vmg", 46_416.0, 278.0, 278.0, 100.0,
            0.368, 4.786e-6, 0.471e-3, 0.301, 0.576, 0.7006, 0.0053,
        ),
        BenchmarkRow(
            "vmg3", "vmg", 360_000.0, 100.0, 6_000.0, 2_200.0,
            0.967, 0.073e-6, 0.156e-3, 0.675, 0.845, 0.6281, 0.0021,
        ),
        BenchmarkRow(
            "fck1", "fck1", 100_000.0, 10_000.0, 10_000.0, 1_000.0,
            0.500, 0.005e-6, 0.0, 0.498, 0.502, 0.5028, 0.0091,
        ),
    )
}

VMG_BENCHMARK_NAMES = ("vmg1", "vmg2", "vmg3")
EQUILIBRIUM_BENCHMARK_NAMES = ("kljn", "fck1")


def benchmark_scheme(name: str, bandwidth: float = 500.0, u2_la: float = 1.0) -> SchemeConfig:
    """Build the named benchmark configuration."""
    row = BENCHMARKS[name]
    return scheme_for_kind(row.kind, row.r_ha, row.r_la, row.r_hb, row.r_lb, u2_la, bandwidth)


def match_benchmark(scheme: SchemeConfig) -> BenchmarkRow | None:
    """The benchmark row whose resistor quadruple matches ``scheme``, if any."""
    quad = tuple(scheme.branches[bid].resistance for bid in ("HA", "LA", "HB", "LB"))
    for row in BENCHMARKS.values():
        ref = (row.r_ha, row.r_la, row.r_hb, row.r_lb)
        if all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(quad, ref)):
            return row
    return None


@dataclass(frozen=True)
class CaseMoments:
    """Aggregated per-case wire statistics with standard errors."""

    case: str
    n_bits: int
    u2: float
    u2_se: float
    i2: float
    i2_se: float
    p_ab: float
    p_ab_se: float
    u_zc2: float
    u_zc2_se: float


def _case_index(case: str) -> int:
    """Index of ``case`` in ``CASES``; ConfigurationError for any other value."""
    if case not in CASES:
        raise ConfigurationError(f"case must be one of {CASES}, got {case!r}")
    return CASES.index(case)


def case_moments(bits: BitColumns, case: str) -> CaseMoments:
    """Mean and standard error of each wire statistic over the ``case`` bits of ``bits``.

    ``bits`` must hold at least one bit of ``case``.
    """
    sel = bits.case == _case_index(case)
    u2_m, u2_se = _mean_se(bits.u2[sel])
    i2_m, i2_se = _mean_se(bits.i2[sel])
    p_m, p_se = _mean_se(bits.p_ab[sel])
    zc_m, zc_se = _mean_se(bits.u_zc2[sel])
    return CaseMoments(
        case=case, n_bits=int(sel.sum()),
        u2=u2_m, u2_se=u2_se, i2=i2_m, i2_se=i2_se, p_ab=p_m, p_ab_se=p_se,
        u_zc2=zc_m, u_zc2_se=zc_se,
    )


def measure_case_moments(
    scheme: SchemeConfig, sampling: Sampling, case: str, *, n_bits: int, seed: int = 0
) -> CaseMoments:
    """Fixed-case Monte Carlo aggregation of wire moments.

    Simulates ``n_bits`` independent bit periods of one case (e.g. "LH") and
    pools the per-bit sample moments; standard errors come from the per-bit
    dispersion.  Effective sample count per bit is roughly
    samples_per_bit / oversample.
    """
    case_idx = _case_index(case)
    _check_integer("n_bits", n_bits, 1)
    _check_integer("seed", seed, 0)
    bits = simulate_bits(scheme, sampling, [case_idx] * n_bits,
                         [(seed, case_idx, bit) for bit in range(n_bits)])
    return case_moments(bits, case)


def run_attack_experiment(
    session: SessionConfig, calibration_bits: int = 200
) -> tuple[AttackOutcome, AttackCalibration, BitColumns]:
    """Calibrate Eve, simulate the LH and HL bits of ``session``, and score her guesses.

    Returns the outcome, the calibration and the secure bits' columns
    (:func:`protocol.simulate_secure_bits`); Eve scores no other bit.
    Calibration, the session, and Eve's tie-break coins draw from three
    disjoint seed streams derived from the session's master seed.
    """
    seed = session.master_seed
    cal = calibrate(session.scheme, session.sampling, calibration_bits=calibration_bits,
                    seed=derive_seed(seed, STREAM_CALIBRATION))
    cases, bits = simulate_secure_bits(session)
    outcome = attack_statistics(cases, bits.u_zc2, cal,
                                guess_seed=derive_seed(seed, STREAM_EVE_TIE))
    return outcome, cal, bits
