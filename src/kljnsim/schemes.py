"""Scheme construction and validation for the KLJN exchanger family.

Three kinds of configuration are supported:

* ``classic``  -- two identical resistor pairs at one common noise
  temperature (the original scheme).
* ``vmg``      -- four freely chosen resistors with generator levels solved
  so that the secure-case wire voltage and current statistics coincide
  (the Vadai-Mingesz-Gingl generalization).
* ``fck1``     -- the zero-power variant (Ferdous-Chamon-Kish): three free
  resistors, the fourth fixed by a geometric-mean condition so each
  connected pair sits in thermal equilibrium.

A configuration names four branches HA, LA (Alice's high/low resistor) and
HB, LB (Bob's), each with a resistance and a generator mean-square voltage.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .circuit import Branch, MomentSummary, _power_scale, analytic_moments
from .errors import ConfigurationError, UnphysicalSchemeError
from .noise import noise_temperature

BRANCH_IDS = ("HA", "LA", "HB", "LB")

#: The resistors each kind's builder takes, in its argument order.
_KIND_RESISTORS = {
    "classic": ("r_l", "r_h"),
    "vmg": ("r_ha", "r_la", "r_hb", "r_lb"),
    "fck1": ("r_ha", "r_la", "r_hb"),
}
SCHEME_KINDS = tuple(_KIND_RESISTORS)

#: Resistor pairings, Alice's choice first.  A bit's case is stored as its
#: index here, 2 * alice + bob with L = 0 and H = 1.
CASES = ("LL", "LH", "HL", "HH")

#: The secure cases, whose bits form the key: an HL bit is key bit 1, an LH bit key bit 0.
LH, HL = CASES.index("LH"), CASES.index("HL")
SECURE_CASES = (LH, HL)

#: Relative tolerance for the secure-case equality of u2, i2 and p_ab.
#: The closed forms are exact, so only rounding noise is tolerated.
SECURITY_RTOL = 1e-9

#: |p| below this fraction of sqrt(u2 * i2) counts as zero power flow.
ZERO_POWER_RTOL = 1e-12


def case_branches(case: str) -> tuple[str, str]:
    """Ids of the branches Alice and Bob connect in ``case``: "LH" connects LA and HB."""
    return case[0] + "A", case[1] + "B"


def _require_positive(**values: float) -> None:
    """Raise ConfigurationError naming the first argument that is not finite and > 0."""
    for name, value in values.items():
        if not value > 0:
            raise ConfigurationError(f"{name} must be > 0, got {value}")
        if value == math.inf:
            raise ConfigurationError(f"{name} must be finite, got {value}")


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


@dataclass(frozen=True)
class SchemeConfig:
    """A complete, validated exchanger configuration.

    Construction fails unless the secure-case (LH vs HL) analytic moments
    agree to ``SECURITY_RTOL`` and, for the classic and fck1 kinds, no net
    power flows in either secure case (``ZERO_POWER_RTOL``); use the
    ``classic_kljn`` / ``solve_vmg`` / ``fck1_kljn`` builders rather than
    assembling branches by hand.
    ``branches`` is stored as a read-only copy, so a checked scheme cannot
    be made unbalanced afterwards.
    """

    branches: Mapping[str, Branch]
    bandwidth: float
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "branches", MappingProxyType(dict(self.branches)))
        if set(self.branches) != set(BRANCH_IDS):
            raise ConfigurationError(
                f"branches must be exactly {BRANCH_IDS}, got {sorted(self.branches)}"
            )
        if self.kind not in SCHEME_KINDS:
            raise ConfigurationError(f"kind must be one of {SCHEME_KINDS}, got {self.kind!r}")
        _require_positive(bandwidth=self.bandwidth)
        for bid in BRANCH_IDS:
            b = self.branches[bid]
            if b.mean_square <= 0:
                raise ConfigurationError(
                    f"branch {bid} mean_square must be > 0, got {b.mean_square}"
                )
        mismatch = security_check(self)
        if not mismatch <= SECURITY_RTOL:  # NaN fails too
            raise ConfigurationError(
                "secure-case moment equality violated: relative mismatch "
                f"{mismatch:.3e} exceeds {SECURITY_RTOL:.0e}"
            )
        levels = level_table(self)
        lh, hl = levels["LH"], levels["HL"]
        zero_power = max(abs(lh.rho), abs(hl.rho)) <= ZERO_POWER_RTOL
        if self.kind in ("classic", "fck1") and not zero_power:
            raise ConfigurationError(
                f"kind {self.kind!r} requires zero net power, got p_ab {lh.p_ab:.3e} W "
                f"(LH) and {hl.p_ab:.3e} W (HL)"
            )

    def __reduce__(self):
        # A mapping proxy does not pickle.  Rebuilding through the constructor
        # reruns the security check on unpickling.  Kept for library users: the
        # package's workers take a wire table, never a scheme.
        return SchemeConfig, (dict(self.branches), self.bandwidth, self.kind)


def security_check(config: SchemeConfig) -> float:
    """The worst relative mismatch of the LH and HL moments; p_ab's is relative to sqrt(u2 * i2)."""
    levels = level_table(config)
    lh, hl = levels["LH"], levels["HL"]
    power_scale = _power_scale(lh.u2, lh.i2)
    return max(
        _relative(lh.u2, hl.u2),
        _relative(lh.i2, hl.i2),
        abs(lh.p_ab - hl.p_ab) / power_scale if power_scale > 0 else 0.0,
    )


def classic_kljn(r_l: float, r_h: float, u2_ref: float, bandwidth: float) -> SchemeConfig:
    """The original two-pair scheme at one common noise temperature.

    ``u2_ref`` is the mean-square voltage of the low resistor's generator;
    the high resistor's level scales with r_h / r_l so all four branches
    share the same noise temperature; ConfigurationError if it overflows.
    """
    _require_positive(r_l=r_l, r_h=r_h, u2_ref=u2_ref)
    if r_l >= r_h:
        raise ConfigurationError(f"level ordering requires r_l < r_h, got {r_l} >= {r_h}")
    u2_h = u2_ref * r_h / r_l
    if not math.isfinite(u2_h):
        raise ConfigurationError(f"resistors {r_l!r} and {r_h!r} ohm at {u2_ref!r} V^2 "
                                 "leave no finite high noise level in floating point")
    branches = {
        "LA": Branch(r_l, u2_ref),
        "LB": Branch(r_l, u2_ref),
        "HA": Branch(r_h, u2_h),
        "HB": Branch(r_h, u2_h),
    }
    return SchemeConfig(branches=branches, bandwidth=bandwidth, kind="classic")


def vmg_noise_levels(
    r_ha: float, r_la: float, r_hb: float, r_lb: float, u2_la: float
) -> tuple[float, float, float]:
    """Noise-level solution for four free resistors, expanded-polynomial form.

    Given the freely chosen level u2_la of branch LA, returns the generator
    mean squares (u2_ha, u2_hb, u2_lb) that equalize the secure-case wire
    voltage and current statistics.

    Raises ConfigurationError when r_ha == r_la (singular denominators).
    """
    den_hb = r_la * r_la + r_lb * (r_la - r_ha) - r_ha * r_la
    den_lb = r_la * r_la + r_la * (r_hb - r_ha) - r_ha * r_hb
    if den_hb == 0.0 or den_lb == 0.0:
        raise ConfigurationError(
            f"singular denominator: r_ha ({r_ha}) must differ from r_la ({r_la})"
        )
    u2_hb = u2_la * (r_lb * (r_ha + r_hb) - r_ha * r_hb - r_hb * r_hb) / den_hb
    u2_ha = (
        u2_la
        * (r_lb * (r_ha + r_hb) + r_ha * r_hb + r_ha * r_ha)
        / (r_la * r_la + r_lb * (r_la + r_hb) + r_hb * r_la)
    )
    u2_lb = u2_la * (r_lb * (r_ha - r_hb) - r_ha * r_hb + r_lb * r_lb) / den_lb
    return u2_ha, u2_hb, u2_lb


def solve_vmg(
    r_ha: float,
    r_la: float,
    r_hb: float,
    r_lb: float,
    u2_la: float,
    bandwidth: float,
    kind: str = "vmg",
) -> SchemeConfig:
    """Build a four-resistor scheme with solved generator levels.

    Raises UnphysicalSchemeError (naming the branches) when any solved mean
    square is non-positive, and ConfigurationError when one is not finite in
    floating point; never clamps.
    """
    _require_positive(r_ha=r_ha, r_la=r_la, r_hb=r_hb, r_lb=r_lb, u2_la=u2_la)
    u2_ha, u2_hb, u2_lb = vmg_noise_levels(r_ha, r_la, r_hb, r_lb, u2_la)
    if not all(map(math.isfinite, (u2_ha, u2_hb, u2_lb))):
        raise ConfigurationError(f"resistors {r_ha!r}, {r_la!r}, {r_hb!r} and {r_lb!r} ohm "
                                 "leave no finite noise levels in floating point")
    bad = [bid for bid, u2 in (("HA", u2_ha), ("HB", u2_hb), ("LB", u2_lb)) if u2 <= 0]
    if bad:
        raise UnphysicalSchemeError(bad)
    branches = {
        "HA": Branch(r_ha, u2_ha),
        "LA": Branch(r_la, u2_la),
        "HB": Branch(r_hb, u2_hb),
        "LB": Branch(r_lb, u2_lb),
    }
    return SchemeConfig(branches=branches, bandwidth=bandwidth, kind=kind)


def fck1_fourth_resistor(r_ha: float, r_la: float, r_hb: float) -> float:
    """Fourth resistor fixed by the zero-power (equal geometric means) condition.

    r_lb = r_hb * r_la / r_ha, so sqrt(r_ha * r_lb) = sqrt(r_la * r_hb).
    """
    _require_positive(r_ha=r_ha, r_la=r_la, r_hb=r_hb)
    return r_hb * r_la / r_ha


def fck1_kljn(
    r_ha: float, r_la: float, r_hb: float, u2_la: float, bandwidth: float
) -> SchemeConfig:
    """Zero-power four-resistor scheme: fourth resistor derived, then solved.

    The general noise-level solution specializes exactly to the
    per-connection-equilibrium levels under the geometric-mean condition,
    so one solver serves both kinds.
    """
    r_lb = fck1_fourth_resistor(r_ha, r_la, r_hb)
    return solve_vmg(r_ha, r_la, r_hb, r_lb, u2_la, bandwidth, kind="fck1")


def scheme_for_kind(
    kind: str, u2_la: float, bandwidth: float, *,
    r_l: float | None = None, r_h: float | None = None,
    r_ha: float | None = None, r_la: float | None = None,
    r_hb: float | None = None, r_lb: float | None = None,
) -> SchemeConfig:
    """Build a scheme of ``kind`` from the resistors it takes, by builder name.

    ``classic`` takes ``r_l`` and ``r_h``, ``vmg`` takes ``r_ha``, ``r_la``,
    ``r_hb`` and ``r_lb``, and ``fck1`` takes ``r_ha``, ``r_la`` and ``r_hb``,
    plus an optional ``r_lb`` that must equal ``fck1_fourth_resistor``'s.
    An unknown kind, a missing or inapplicable resistor, and a mismatched
    ``r_lb`` raise ConfigurationError naming the argument.
    """
    if kind not in SCHEME_KINDS:
        raise ConfigurationError(f"kind must be one of {SCHEME_KINDS}, got {kind!r}")
    takes = _KIND_RESISTORS[kind]
    resistors = {"r_l": r_l, "r_h": r_h, "r_ha": r_ha, "r_la": r_la, "r_hb": r_hb, "r_lb": r_lb}
    for name, value in resistors.items():
        if value is None and name in takes:
            raise ConfigurationError(f"{name} is required for kind {kind!r}")
        if value is not None and name not in takes and (kind, name) != ("fck1", "r_lb"):
            raise ConfigurationError(f"{name} does not apply to kind {kind!r}")
    if kind == "fck1" and r_lb is not None:
        derived = fck1_fourth_resistor(r_ha, r_la, r_hb)
        if not math.isclose(r_lb, derived, rel_tol=1e-9):
            raise ConfigurationError(
                f"r_lb = {r_lb} violates the zero-power condition (expected {derived!r})"
            )
    build = {"classic": classic_kljn, "vmg": solve_vmg, "fck1": fck1_kljn}[kind]
    return build(*(resistors[name] for name in takes), u2_la, bandwidth)


def branch_temperatures(config: SchemeConfig) -> dict[str, float]:
    """Effective noise temperature of each branch generator, K."""
    return {
        bid: noise_temperature(b.mean_square, b.resistance, config.bandwidth)
        for bid, b in config.branches.items()
    }


def level_table(config: SchemeConfig) -> dict[str, MomentSummary]:
    """Analytic wire moments for all four resistor pairings.

    Keys are case labels with Alice's choice first: LL, LH, HL, HH.  Only
    ``config.branches`` is read; a valid scheme's LH and HL entries coincide (the secure level).
    """
    table = {}
    for label in CASES:
        alice, bob = (config.branches[bid] for bid in case_branches(label))
        table[label] = analytic_moments(alice.resistance, alice.mean_square,
                                        bob.resistance, bob.mean_square)
    return table
