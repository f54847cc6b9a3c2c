"""The benchmark's workloads: generated configs, requested bit counts and output checks.

Each workload is one ``kljnsim`` subcommand at a fixed size.  The benchmark
writes a fresh config file per experiment (only the ``seed`` and the output
prefix change between experiments) and the program sees nothing else.  After
each experiment the output CSV is checked against the closed-form oracles of
the library (``analytic_moments`` via ``level_table``,
``conditional_zc_variance``, ``binomial_ci_halfwidth``); any failed check
counts the experiment as failed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Oracle checks on sums of many chi-square terms use this many standard
#: deviations, so a false failure has odds of about 1 in 10^6 per check.
SIGMAS = 5.0

#: Allowance for the offset of ``sample_after`` crossing voltages from the
#: continuous-time conditional variance at oversample 16 (measured within
#: +-0.7% over six calibration seeds of vmg2).
CAL_OFFSET_RTOL = 0.01

#: Eve's calibration means are within this many of their approximate
#: standard errors of the oracle, on top of ``CAL_OFFSET_RTOL``.
CAL_SIGMAS = 6.0

#: LH/HL crossing counts agree within this many combined standard errors
#: (acceptance criterion 6 of the test suite).
ZC_COUNT_SIGMAS = 4.0

#: The five benchmark rows ``table1`` reports, with the kind and the resistor
#: quadruple (r_ha, r_la, r_hb, r_lb) that the library's solvers turn into
#: branch levels for the oracle.
TABLE1_ROWS = {
    "kljn": ("classic", (10_000.0, 1_000.0, 10_000.0, 1_000.0)),
    "vmg1": ("vmg", (16_700.0, 100.0, 16_700.0, 278.0)),
    "vmg2": ("vmg", (46_416.0, 278.0, 278.0, 100.0)),
    "vmg3": ("vmg", (360_000.0, 100.0, 6_000.0, 2_200.0)),
    "fck1": ("fck1", (100_000.0, 10_000.0, 10_000.0, 1_000.0)),
}

ATTACK_FOOTER_KEYS = (
    "p", "sigma_p", "ci95_halfwidth", "n_secure_bits", "n_excluded_runs",
    "cal_mean_zc_lh", "cal_mean_zc_hl", "cal_threshold", "cal_polarity",
    "n_zc_lh_mean", "n_zc_lh_se", "n_zc_hl_mean", "n_zc_hl_se",
)
SIMULATE_HEADER = ["run", "bit", "alice", "bob", "case", "u2", "i2", "p_ab",
                   "n_zc", "u_zc2", "secure"]
TABLE1_HEADER = ["scheme", "case", "r_alice_ohm", "r_bob_ohm",
                 "u2_sim", "u2_se", "u2_ref", "i2_sim", "i2_se", "i2_ref",
                 "p_sim", "p_se", "p_ref", "u_zc2_sim", "u_zc2_se", "u_zc2_ref"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``settings`` are the full-size config keys; ``tiny`` overrides them for
    the smoke test.  ``output`` is the suffix the subcommand appends to the
    config's output prefix.  ``check(settings, path)`` returns a list of
    failed checks (empty when the output is correct).
    """

    name: str
    command: str
    output: str
    settings: dict
    tiny: dict
    requested_bits: Callable[[dict], int]
    check: Callable[[dict, Path], list]
    rerun_identical: bool = False

    def sized(self, size: str) -> dict:
        if size not in ("full", "tiny"):
            raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
        return {**self.settings, **(self.tiny if size == "tiny" else {})}


def experiment_seed(workload: str, seed: int, index: int) -> int:
    """Config seed of experiment ``index`` of a run: a pure function of its inputs."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def config_text(settings: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def degrees_of_freedom(samples_per_bit: int, oversample: float) -> int:
    """Real Gaussian coefficients behind one synthesized trace.

    A trace's sample mean-square is its level times chi-square(dof) / dof, so
    one bit's u2 has variance 2 u2^2 / dof; the wire is a linear mix of two
    traces with the same flat spectrum, so the same holds for u2 and i2.
    Mirrors the in-band bin count of the synthesizer: bins k <= B n / fs.
    """
    n = samples_per_bit
    k_max = min(int(math.floor(n / (2.0 * oversample) * (1.0 + 1e-12))), n // 2)
    has_nyquist = n % 2 == 0 and k_max == n // 2
    return 2 * (k_max - has_nyquist) + has_nyquist


def _scheme(kind: str, quad, u2_la: float, bandwidth: float):
    from kljnsim.schemes import classic_kljn, fck1_kljn, solve_vmg

    r_ha, r_la, r_hb, r_lb = quad
    if kind == "classic":
        return classic_kljn(r_la, r_ha, u2_la, bandwidth)
    if kind == "fck1":
        return fck1_kljn(r_ha, r_la, r_hb, u2_la, bandwidth)
    return solve_vmg(r_ha, r_la, r_hb, r_lb, u2_la, bandwidth)


def _levels(settings: dict) -> dict:
    from kljnsim.schemes import level_table

    quad = tuple(settings.get(key) for key in ("r_ha", "r_la", "r_hb", "r_lb"))
    return level_table(_scheme(settings["kind"], quad, settings["u_la_sq"],
                               settings["bandwidth_hz"]))


def read_csv(path: Path):
    """(header, rows, footer) of a small kljnsim CSV file; the metadata header is skipped."""
    footer, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                if header is not None:
                    key, _, value = line[2:].partition("=")
                    footer[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows, footer


def _within(name: str, measured: float, oracle: float, tol: float, errors: list) -> None:
    if not abs(measured - oracle) <= tol:
        errors.append(f"{name}: {measured!r} differs from oracle {oracle!r} by more than {tol:.3g}")


def check_attack(settings: dict, path: Path) -> list:
    from kljnsim.attack import binomial_ci_halfwidth
    from kljnsim.circuit import conditional_zc_variance

    header, rows, footer = read_csv(path)
    missing = [key for key in ATTACK_FOOTER_KEYS if key not in footer]
    if header != ["run", "n_secure", "p_run"] or missing:
        return [f"attack CSV: header {header}, missing footer keys {missing}"]
    errors = []
    if len(rows) != settings["runs"]:
        errors.append(f"{len(rows)} run rows, expected {settings['runs']}")
    p = float(footer["p"])
    n_secure = int(footer["n_secure_bits"])
    if not 0.0 <= p <= 1.0:
        errors.append(f"p = {p} outside [0, 1]")
    if n_secure != sum(int(row[1]) for row in rows):
        errors.append("n_secure_bits is not the sum of the per-run secure counts")
    per_run_p = [float(row[2]) for row in rows if row[2]]
    if per_run_p and not math.isclose(p, sum(per_run_p) / len(per_run_p), rel_tol=1e-12):
        errors.append("p is not the mean of the per-run p")
    if n_secure > 0 and not math.isclose(
        float(footer["ci95_halfwidth"]), binomial_ci_halfwidth(p, n_secure), rel_tol=1e-12
    ):
        errors.append("ci95_halfwidth != binomial_ci_halfwidth(p, n_secure_bits)")
    zc = {case: (float(footer[f"n_zc_{case}_mean"]), float(footer[f"n_zc_{case}_se"]))
          for case in ("lh", "hl")}
    _within("n_zc_lh_mean vs n_zc_hl_mean", zc["lh"][0], zc["hl"][0],
            ZC_COUNT_SIGMAS * math.hypot(zc["lh"][1], zc["hl"][1]), errors)
    levels = _levels(settings)
    for case in ("LH", "HL"):
        oracle = conditional_zc_variance(levels[case])
        n_zc = zc[case.lower()][0]
        rtol = CAL_OFFSET_RTOL + CAL_SIGMAS * math.sqrt(2.0 / (n_zc * settings["calibration_bits"]))
        _within(f"cal_mean_zc_{case.lower()}", float(footer[f"cal_mean_zc_{case.lower()}"]),
                oracle, rtol * oracle, errors)
    return errors


def check_table1(settings: dict, path: Path) -> list:
    from kljnsim.schemes import level_table

    header, rows, _ = read_csv(path)
    expected = [(name, case) for name in TABLE1_ROWS for case in ("LH", "HL")]
    if header != TABLE1_HEADER or [tuple(row[:2]) for row in rows] != expected:
        return [f"table1 CSV: header {header}, rows {[tuple(row[:2]) for row in rows]}"]
    n = settings["bits_per_run"] * degrees_of_freedom(settings["samples_per_bit"],
                                                      settings["oversample"])
    errors = []
    for row in rows:
        name, case = row[0], row[1]
        kind, quad = TABLE1_ROWS[name]
        m = level_table(_scheme(kind, quad, settings["u_la_sq"], settings["bandwidth_hz"]))[case]
        col = dict(zip(header, row))
        _within(f"{name}/{case} u2", float(col["u2_sim"]), m.u2,
                SIGMAS * m.u2 * math.sqrt(2.0 / n), errors)
        _within(f"{name}/{case} i2", float(col["i2_sim"]), m.i2,
                SIGMAS * m.i2 * math.sqrt(2.0 / n), errors)
        # p_ab is zero on the equilibrium rows, so its tolerance is in units
        # of sqrt(u2 * i2), not relative to p_ab.
        _within(f"{name}/{case} p_ab", float(col["p_sim"]), m.p_ab,
                SIGMAS * math.sqrt((m.u2 * m.i2 + m.p_ab ** 2) / n), errors)
    return errors


def check_simulate(settings: dict, path: Path) -> list:
    """Streams the per-bit CSV, so the check adds little to the process's peak RSS."""
    runs, bits = settings["runs"], settings["bits_per_run"]
    sums = {case: [0, 0.0] for case in ("LL", "LH", "HL", "HH")}
    errors = []
    n_rows = 0
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                continue
            fields = line.rstrip("\n").split(",")
            if header is None:
                header = fields
                if header != SIMULATE_HEADER:
                    return [f"simulate CSV header {header}"]
                continue
            run, bit, alice, bob, case, u2, _, _, n_zc, u_zc2, secure = fields
            if (int(run), int(bit)) != divmod(n_rows, bits):
                errors.append(f"row {n_rows}: run/bit {run}/{bit} out of order")
            if case != alice + bob or case not in sums:
                errors.append(f"row {n_rows}: case {case!r} for choices {alice!r}/{bob!r}")
                break
            if secure != ("1" if case in ("LH", "HL") else "0"):
                errors.append(f"row {n_rows}: secure={secure} for case {case}")
            if (u_zc2 == "") != (n_zc == "0"):
                errors.append(f"row {n_rows}: u_zc2 {u_zc2!r} with n_zc {n_zc}")
            sums[case][0] += 1
            sums[case][1] += float(u2)
            n_rows += 1
            if len(errors) > 10:
                break
    if n_rows != runs * bits:
        errors.append(f"{n_rows} rows, expected {runs * bits}")
    levels = _levels(settings)
    dof = degrees_of_freedom(settings["samples_per_bit"], settings["oversample"])
    for case, (count, total) in sums.items():
        if count:
            u2 = levels[case].u2
            _within(f"mean u2 of {count} {case} bits", total / count, u2,
                    SIGMAS * u2 * math.sqrt(2.0 / (dof * count)), errors)
    return errors


def _attack_bits(s: dict) -> int:
    return s["runs"] * s["bits_per_run"] + 2 * s["calibration_bits"]


def _table1_bits(s: dict) -> int:
    return len(TABLE1_ROWS) * 2 * s["bits_per_run"]


def _session_bits(s: dict) -> int:
    return s["runs"] * s["bits_per_run"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="attack_vmg2",
            command="attack",
            output="_attack.csv",
            # demos/vmg2.cfg: the headline end-to-end run of the project.
            settings=dict(kind="vmg", r_ha=46416.0, r_la=278.0, r_hb=278.0, r_lb=100.0,
                          u_la_sq=1.0, bandwidth_hz=500.0, oversample=16.0,
                          samples_per_bit=16384, bits_per_run=1000, runs=10,
                          zc_mode="sample_after", calibration_bits=200),
            tiny=dict(samples_per_bit=1024, bits_per_run=40, runs=2, calibration_bits=100),
            requested_bits=_attack_bits,
            check=check_attack,
        ),
        Workload(
            name="moments_longtrace",
            command="table1",
            output="_table1.csv",
            # The five benchmark rows at acceptance criterion 3's trace geometry.
            settings=dict(kind="classic", r_l=1000.0, r_h=10000.0, u_la_sq=1.0,
                          bandwidth_hz=500.0, oversample=1.0, samples_per_bit=2 ** 20,
                          bits_per_run=4, zc_mode="sample_after"),
            tiny=dict(samples_per_bit=2 ** 12, bits_per_run=3),
            requested_bits=_table1_bits,
            check=check_table1,
        ),
        Workload(
            name="simulate_shortbits",
            command="simulate",
            output="_bits.csv",
            settings=dict(kind="fck1", r_ha=100000.0, r_la=10000.0, r_hb=10000.0,
                          u_la_sq=1.0, bandwidth_hz=500.0, oversample=4.0,
                          samples_per_bit=1024, bits_per_run=1000, runs=20,
                          zc_mode="interpolated"),
            tiny=dict(bits_per_run=100, runs=2),
            requested_bits=_session_bits,
            check=check_simulate,
            rerun_identical=True,
        ),
    )
}
