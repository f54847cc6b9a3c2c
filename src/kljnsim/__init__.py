"""kljnsim: a simulation laboratory for KLJN-family secure key exchangers.

Exposes the band-limited Gaussian noise draw, the two-generator wire
circuit with closed-form moment oracles, scheme solvers (classic, VMG,
FCK1), key-exchange session simulation, and the passive zero-crossing
attack harness with benchmark comparisons.  The top level re-exports the
names the demos and the README use; everything else lives in the
submodules.
"""

__version__ = "0.1.0"

from .attack import binomial_ci_halfwidth
from .benchmarks import BENCHMARKS, benchmark_scheme
from .circuit import conditional_zc_variance
from .errors import CalibrationError, ConfigurationError, UnphysicalSchemeError
from .noise import estimate_psd, fill_band, johnson_mean_square, noise_temperature
from .protocol import Sampling, SessionConfig, run_session, simulate_bits
from .schemes import (
    branch_temperatures,
    classic_kljn,
    fck1_fourth_resistor,
    fck1_kljn,
    level_table,
    security_check,
    solve_vmg,
)
