"""Key-exchange session simulation.

Each bit period, Alice and Bob independently pick their low or high
resistor, the connected branches get fresh synthetic noise, and both
parties classify the partner's choice from the measured wire mean-square
voltage.  The eavesdropper's zero-crossing statistics are recorded per bit.

Seeding contract: every random draw derives its seed from
(master_seed, run index, bit index, stream tag) so that results are
independent of execution order and per-bit traces are independent across
bits.  Stream tags 0-4 are used here; the attack module uses higher tags.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import attack
from .circuit import WireTrace, wire_observables
from .errors import ConfigurationError
from .noise import NoiseSpec, derive_seed, synthesize
from .schemes import CASES, SchemeConfig, level_table

STREAM_CHOICES = 0
BRANCH_STREAMS = {"LA": 1, "HA": 2, "LB": 3, "HB": 4}


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of a simulated key-exchange session."""

    scheme: SchemeConfig
    samples_per_bit: int = 16384
    oversample: float = 16.0     # sample_rate / (2 * bandwidth)
    bits_per_run: int = 1000
    runs: int = 10
    master_seed: int = 1
    zc_mode: str = "sample_after"

    def __post_init__(self):
        if self.samples_per_bit < 2:
            raise ConfigurationError(f"samples_per_bit must be >= 2, got {self.samples_per_bit}")
        if self.oversample < 1:
            raise ConfigurationError(f"oversample must be >= 1, got {self.oversample}")
        if self.bits_per_run < 1:
            raise ConfigurationError(f"bits_per_run must be >= 1, got {self.bits_per_run}")
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.zc_mode not in attack.ZC_MODES:
            raise ConfigurationError(
                f"zc_mode must be one of {attack.ZC_MODES}, got {self.zc_mode!r}"
            )

    @property
    def sample_rate(self) -> float:
        return 2.0 * self.scheme.bandwidth * self.oversample


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
        return (self.case == 1) | (self.case == 2)


@dataclass(frozen=True, eq=False)
class SessionResult:
    """A whole session's bits, run-major: bit k of run r is row r * bits_per_run + k."""

    bits: BitColumns
    misclassified: np.ndarray    # either party misread the partner's choice
    bits_per_run: int

    def per_run(self, column: np.ndarray) -> np.ndarray:
        """``column`` as a (runs, bits_per_run) array."""
        return column.reshape(-1, self.bits_per_run)


def case_wire(
    scheme: SchemeConfig,
    case: str,
    samples_per_bit: int,
    sample_rate: float,
    entropy_prefix: tuple[int, ...],
) -> WireTrace:
    """Synthesize the two connected branches for a given case and solve the wire.

    The branch seeds extend ``entropy_prefix`` with the branch stream tag,
    honoring the deterministic seeding contract.
    """
    a_id = "LA" if case[0] == "L" else "HA"
    b_id = "LB" if case[1] == "L" else "HB"
    traced = {}
    for bid in (a_id, b_id):
        branch = scheme.branches[bid]
        spec = NoiseSpec(
            mean_square=branch.mean_square,
            bandwidth=scheme.bandwidth,
            sample_rate=sample_rate,
            num_samples=samples_per_bit,
            seed=derive_seed(*entropy_prefix, BRANCH_STREAMS[bid]),
        )
        traced[bid] = replace(branch, trace=synthesize(spec))
    return wire_observables(traced[a_id], traced[b_id])


def simulate_bits(
    scheme: SchemeConfig,
    cases,
    entropy_prefixes,
    samples_per_bit: int,
    sample_rate: float,
    zc_mode: str,
) -> BitColumns:
    """Simulate one bit per (case, entropy prefix) pair and return its statistics.

    ``cases`` holds indices into ``CASES``; each bit's branch noise is seeded
    from its entropy prefix as in :func:`case_wire`.  Per bit: solve the
    wire, take its second moments, find the current's zero crossings and the
    mean square of the voltage sampled there.  The noise has no DC bin, so
    the current is zero-mean and crosses zero in every bit (n_zc >= 1).
    """
    case = np.asarray(cases, dtype=np.int64)
    n = len(entropy_prefixes)
    if case.shape != (n,) or not np.isin(case, np.arange(len(CASES))).all():
        raise ValueError("cases must hold one index into CASES per entropy prefix")
    u2 = np.empty(n)
    i2 = np.empty(n)
    p_ab = np.empty(n)
    n_zc = np.empty(n, dtype=np.int64)
    u_zc2 = np.empty(n)
    for k, (c, prefix) in enumerate(zip(case.tolist(), entropy_prefixes)):
        wire = case_wire(scheme, CASES[c], samples_per_bit, sample_rate, prefix)
        u, i = wire.u_c, wire.i_c
        u2[k] = np.mean(u * u)
        i2[k] = np.mean(i * i)
        p_ab[k] = np.mean(u * i)
        v = attack.detect_zero_crossings(wire, zc_mode).values
        n_zc[k] = v.size
        u_zc2[k] = np.mean(v * v)
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


def run_session(config: SessionConfig) -> SessionResult:
    """Simulate ``config.runs`` runs of ``config.bits_per_run`` bit exchanges.

    Per bit: draw independent fair choices for both parties, synthesize
    fresh branch noise, compute wire observables, classify both partners'
    views, and record the zero-crossing statistics for the attack harness.
    Deterministic for a fixed config.
    """
    seed = config.master_seed
    prefixes = [
        (seed, run_idx, bit_idx)
        for run_idx in range(config.runs)
        for bit_idx in range(config.bits_per_run)
    ]
    choices = np.array([
        np.random.default_rng(derive_seed(*prefix, STREAM_CHOICES)).integers(0, 2, size=2)
        for prefix in prefixes
    ]).T   # row 0: Alice, row 1: Bob
    bits = simulate_bits(
        config.scheme, 2 * choices[0] + choices[1], prefixes,
        config.samples_per_bit, config.sample_rate, config.zc_mode,
    )
    inferred = _infer_partner(choices, bits.u2, level_table(config.scheme))
    return SessionResult(
        bits=bits,
        misclassified=(inferred != choices[::-1]).any(axis=0),
        bits_per_run=config.bits_per_run,
    )


def secure_bit_value(case_label: str, hl_value: int = 1) -> int:
    """Bit value of a secure case under the public HL-means-``hl_value`` convention."""
    if hl_value not in (0, 1):
        raise ValueError(f"hl_value must be 0 or 1, got {hl_value}")
    if case_label == "HL":
        return hl_value
    if case_label == "LH":
        return 1 - hl_value
    raise ValueError(f"case {case_label!r} is not a secure case")
