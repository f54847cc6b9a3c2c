#!/usr/bin/env python3
"""Scheme construction: classic, four-resistor (VMG), and zero-power (FCK1).

The four-resistor solver picks generator levels so that the two secure
pairings (LH and HL) are indistinguishable in wire voltage and current;
the zero-power variant additionally derives the fourth resistor so each
connected pair sits in thermal equilibrium.
"""

from kljnsim import (
    branch_temperatures,
    classic_kljn,
    conditional_zc_variance,
    fck1_fourth_resistor,
    fck1_kljn,
    level_table,
    security_check,
    solve_vmg,
)

B = 500.0


def show(scheme, title):
    print(f"\n=== {title} (kind={scheme.kind}) ===")
    temps = branch_temperatures(scheme)
    print(f"{'branch':<8}{'R [Ohm]':>12}{'U^2 [V^2]':>14}{'T [K]':>14}")
    for bid in ("HA", "LA", "HB", "LB"):
        br = scheme.branches[bid]
        print(f"{bid:<8}{br.resistance:>12.6g}{br.mean_square:>14.6g}{temps[bid]:>14.4g}")
    lt = level_table(scheme)
    lh = lt["LH"]
    print(f"secure levels: u2 = {lh.u2:.4g} V^2, i2 = {lh.i2:.4g} A^2, "
          f"p = {lh.p_ab:.4g} W   (LH = HL to {security_check(scheme):.1e})")
    if scheme.kind != "vmg":
        print("zero net power flow: yes")
    print("wire mean-square voltage per case:",
          "  ".join(f"{c}={lt[c].u2:.4g}" for c in ("LL", "LH", "HL", "HH")))


show(classic_kljn(1e3, 1e4, 1.0, B), "classic two-pair exchanger, 1k/10k")

vmg = solve_vmg(46_416.0, 278.0, 278.0, 100.0, 1.0, B)
show(vmg, "four-resistor scheme, 46.4k/278/278/100")
lh = level_table(vmg)["LH"]
print(f"correlation of wire voltage and current: rho = {lh.rho:.4f}")
print(f"voltage variance at current zero crossings (continuous limit): "
      f"{conditional_zc_variance(lh):.4f} V^2 vs unconditional {lh.u2:.4f} V^2")

r_lb = fck1_fourth_resistor(100e3, 10e3, 10e3)
print(f"\nzero-power fourth resistor for 100k/10k/10k: r_lb = {r_lb:g} Ohm")
show(fck1_kljn(100e3, 10e3, 10e3, 1.0, B), "zero-power scheme, 100k/10k/10k/1k")

print("\n=== unphysical quadruples are rejected ===")
from kljnsim import UnphysicalSchemeError

try:
    solve_vmg(1000.0, 100.0, 100.0, 200.0, 1.0, B)
except UnphysicalSchemeError as err:
    print(f"rejected: {err}")
