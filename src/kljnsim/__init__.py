"""kljnsim: a simulation laboratory for KLJN-family secure key exchangers.

Exposes band-limited Gaussian noise synthesis, the two-generator wire
circuit with closed-form moment oracles, scheme solvers (classic, VMG,
FCK1), key-exchange session simulation, and the passive zero-crossing
attack harness with benchmark comparisons.
"""

__version__ = "0.1.0"

from .attack import (
    AttackCalibration,
    AttackOutcome,
    CrossingSampleSet,
    ZC_MODES,
    attack_statistics,
    binomial_ci_halfwidth,
    calibrate,
    detect_zero_crossings,
    eve_guess_bit,
    histogram,
    zc_mean_square,
)
from .benchmarks import (
    BENCHMARKS,
    benchmark_scheme,
    measure_case_moments,
    run_attack_experiment,
)
from .circuit import (
    Branch,
    MomentSummary,
    WireTrace,
    analytic_moments,
    conditional_zc_variance,
    equilibrium_spectra,
    measure_moments,
    resultants,
    wire_observables,
)
from .errors import CalibrationError, ConfigurationError, UnphysicalSchemeError
from .noise import (
    BOLTZMANN,
    GENERATOR_ID,
    NoiseSpec,
    NoiseTrace,
    derive_seed,
    estimate_psd,
    johnson_mean_square,
    noise_temperature,
    sample_moments,
    synthesize,
)
from .protocol import (
    BitColumns,
    SessionConfig,
    run_session,
    secure_bit_value,
    simulate_bits,
)
from .schemes import (
    SchemeConfig,
    SecurityReport,
    branch_temperatures,
    classic_kljn,
    fck1_fourth_resistor,
    fck1_kljn,
    level_table,
    security_check,
    solve_vmg,
)
