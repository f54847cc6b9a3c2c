"""Exception types shared across the package, and the integer rule for counts and seeds."""

from numbers import Integral


class ConfigurationError(ValueError):
    """A noise spec, scheme, session, or experiment config violates an invariant."""


class UnphysicalSchemeError(ValueError):
    """A resistor quadruple admits no physical (positive) noise-level solution."""

    def __init__(self, branches):
        self.branches = tuple(branches)
        super().__init__("unphysical solution: non-positive mean-square voltage for branch(es) "
                         + ", ".join(self.branches))


class CalibrationError(RuntimeError):
    """Eavesdropper calibration could not produce usable statistics."""


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError unless ``value`` is an integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
