"""Reproducible experiment driver.

Reads a flat ``key = value`` config file, runs scheme solving, session
simulation, attack scoring, or histogram extraction, and writes
machine-readable CSV with a provenance header (config hash, seed, generator
id, artifact version).  Identical configs produce byte-identical files.

The runner knows only the file format (keys, types, finite numbers); every
other rule, down to which resistors a scheme kind takes, is checked by the
library (``scheme_for_kind``, ``Sampling``, ``SessionConfig``) on reading.

Exit codes: 0 success, 2 configuration error, 3 unphysical scheme,
4 runtime/calibration failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .attack import MIN_CALIBRATION_BITS, _mean_se, binomial_ci_halfwidth
from .benchmarks import (
    BENCHMARKS,
    benchmark_scheme,
    case_moments,
    match_benchmark,
    measure_case_moments,
    run_attack_experiment,
)
from .errors import CalibrationError, ConfigurationError, UnphysicalSchemeError, _check_integer
from .noise import GENERATOR_ID, STREAM_TABLE, derive_seed
from .protocol import Sampling, SessionConfig, run_session, simulate_secure_bits
from .schemes import (
    BRANCH_IDS,
    CASES,
    HL,
    LH,
    SECURE_CASES,
    SchemeConfig,
    branch_temperatures,
    case_branches,
    level_table,
    scheme_for_kind,
    security_check,
)

HIST_STATISTICS = ("u2", "i2", "u_zc2")

#: Bits whose simulate rows are formatted at once, so that the row strings of
#: a long session never all exist together.
_SIMULATE_SLICE = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "classic"
    r_l: float | None = None
    r_h: float | None = None
    r_ha: float | None = None
    r_la: float | None = None
    r_hb: float | None = None
    r_lb: float | None = None
    u_la_sq: float = 1.0
    bandwidth_hz: float = 500.0
    oversample: float = Sampling.oversample
    samples_per_bit: int = Sampling.samples_per_bit
    bits_per_run: int = SessionConfig.bits_per_run
    runs: int = SessionConfig.runs
    seed: int = SessionConfig.master_seed
    zc_mode: str = Sampling.zc_mode
    calibration_bits: int = 200
    output_prefix: str = "kljn"


#: Value parser of each config key, taken from ExperimentConfig's annotations.
_PARSERS = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(ExperimentConfig).items()
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` config text ('#' starts a comment) and check it in full.

    Unknown keys and unparsable or non-finite values raise ConfigurationError
    naming the key and the line.  Every other rule is the library's: the
    scheme, sampling, session and calibration constructors raise
    ConfigurationError naming their argument.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        if key not in _PARSERS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        parse = _PARSERS[key]
        try:
            values[key] = parse(value)
        except ValueError:
            raise ConfigurationError(
                f"line {lineno}: key {key!r}: cannot parse {value!r} as {parse.__name__}"
            ) from None
        if parse is float and not math.isfinite(values[key]):
            raise ConfigurationError(f"line {lineno}: key {key!r}: must be finite, got {value!r}")
    config = ExperimentConfig(**values)
    # A resistor set without a physical solution is left to the commands
    # that solve it (exit 3); table1 and table2 never do.
    try:
        scheme = build_scheme(config)
    except UnphysicalSchemeError:
        scheme = None
    _check_integer("calibration_bits", config.calibration_bits, MIN_CALIBRATION_BITS)
    _session(config, scheme)
    return config


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; ``parse_config`` round-trips it exactly."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {value!r}" if isinstance(value, float) else f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the experiment content (the output location does not matter)."""
    canonical = serialize_config(replace(config, output_prefix=""))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_scheme(config: ExperimentConfig) -> SchemeConfig:
    return scheme_for_kind(config.kind, config.u_la_sq, config.bandwidth_hz,
                           r_l=config.r_l, r_h=config.r_h, r_ha=config.r_ha,
                           r_la=config.r_la, r_hb=config.r_hb, r_lb=config.r_lb)


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; empty string for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(config: ExperimentConfig, command: str, name: str, header: list[str], rows,
               meta: dict | None = None, footer: dict | None = None):
    """Write ``<output_prefix>_<name>.csv``: the provenance lines, the command's ``meta``
    lines, the header, ``rows`` (whose fields are formatted strings) and the ``footer`` lines."""
    path = Path(f"{config.output_prefix}_{name}.csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    head = {"artifact": f"kljnsim/{__version__}", "command": command,
            "config_hash": config_hash(config), "seed": config.seed, "generator": GENERATOR_ID,
            **(meta or {})}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {key}={_fmt(value)}\n" for key, value in head.items())
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
        fh.writelines(f"# {key}={_fmt(value)}\n" for key, value in (footer or {}).items())


def cmd_solve(config: ExperimentConfig) -> int:
    """Solve and print the scheme's branch levels, temperatures, and secure-case moments."""
    scheme = build_scheme(config)
    temps = branch_temperatures(scheme)
    levels = level_table(scheme)
    lh, hl = levels["LH"], levels["HL"]
    mismatch = security_check(scheme)
    print(f"scheme kind: {scheme.kind}   bandwidth: {scheme.bandwidth:g} Hz")
    print(f"{'branch':<8}{'resistance [ohm]':>18}{'mean square [V^2]':>20}{'temperature [K]':>18}")
    rows = []
    for bid in BRANCH_IDS:
        b = scheme.branches[bid]
        print(f"{bid:<8}{b.resistance:>18.6g}{b.mean_square:>20.6g}{temps[bid]:>18.6g}")
        rows.append((bid, b.resistance, b.mean_square, temps[bid]))
    print(
        f"security: u2 {lh.u2:.6g}/{hl.u2:.6g} V^2, "
        f"i2 {lh.i2:.6g}/{hl.i2:.6g} A^2, "
        f"p {lh.p_ab:.6g}/{hl.p_ab:.6g} W (LH/HL)"
    )
    print(f"max relative mismatch: {mismatch:.3e}")
    if scheme.kind != "vmg":
        print("equilibrium (zero net power): yes")
    _write_csv(config, "solve", "solution",
               ["branch", "resistance_ohm", "mean_square_v2", "temperature_k"],
               (map(_fmt, row) for row in rows),
               meta={"max_relative_mismatch": mismatch})
    return 0


def _sampling_keys(config: ExperimentConfig) -> dict:
    """``Sampling``'s arguments, in the order the commands that sample write them."""
    return {"zc_mode": config.zc_mode, "oversample": config.oversample,
            "samples_per_bit": config.samples_per_bit}


def _session(config: ExperimentConfig, scheme: SchemeConfig | None) -> SessionConfig:
    return SessionConfig(scheme, Sampling(**_sampling_keys(config)),
                         config.bits_per_run, config.runs, config.seed)


def cmd_simulate(config: ExperimentConfig) -> int:
    """Run the session and write one CSV row per exchanged bit."""
    scheme = build_scheme(config)
    session = run_session(_session(config, scheme))
    bits = session.bits
    secure = bits.secure

    def rows():
        """The rows' formatted fields, _SIMULATE_SLICE bits at a time, as _fmt would format them."""
        for lo in range(0, bits.case.size, _SIMULATE_SLICE):
            part = slice(lo, lo + _SIMULATE_SLICE)
            case = bits.case[part]
            run, bit = np.divmod(np.arange(lo, lo + case.size), config.bits_per_run)
            labels = [CASES[c] for c in case.tolist()]
            yield from zip(
                map(str, run.tolist()), map(str, bit.tolist()),
                [label[0] for label in labels], [label[1] for label in labels], labels,
                *(map(repr, column[part].tolist()) for column in (bits.u2, bits.i2, bits.p_ab)),
                map(str, bits.n_zc[part].tolist()), map(repr, bits.u_zc2[part].tolist()),
                np.where(secure[part], "1", "0").tolist(),
            )

    _write_csv(config, "simulate", "bits", ["run", "bit", "alice", "bob", "case",
                                            "u2", "i2", "p_ab", "n_zc", "u_zc2", "secure"],
               rows(), meta=_sampling_keys(config))
    print(f"{bits.case.size} bits simulated "
          f"({int(secure.sum())} secure, "
          f"{int(session.misclassified.sum())} classification errors)")
    for tag in np.flatnonzero(np.bincount(bits.case)).tolist():
        m = case_moments(bits, CASES[tag])
        print(
            f"{m.case}: n={m.n_bits:<6d} u2={m.u2:.4g}+-{m.u2_se:.2g} V^2  "
            f"i2={m.i2:.4g}+-{m.i2_se:.2g} A^2  p={m.p_ab:.4g}+-{m.p_ab_se:.2g} W  "
            f"u_zc2={m.u_zc2:.4g}+-{m.u_zc2_se:.2g} V^2"
        )
    return 0


def cmd_attack(config: ExperimentConfig) -> int:
    """Calibrate Eve, attack a session, and report p with its dispersion."""
    scheme = build_scheme(config)
    outcome, cal, bits = run_attack_experiment(_session(config, scheme),
                                               config.calibration_bits)
    run_ps = iter(outcome.per_run_p)
    rows = [(run_idx, n_secure, next(run_ps) if n_secure > 0 else None)
            for run_idx, n_secure in enumerate(outcome.per_run_secure)]
    hw = binomial_ci_halfwidth(outcome.p, outcome.n_secure_bits)
    zc_lh, zc_lh_se = _mean_se(bits.n_zc[bits.case == LH])
    zc_hl, zc_hl_se = _mean_se(bits.n_zc[bits.case == HL])
    footer = {
        "p": outcome.p,
        "sigma_p": outcome.sigma_p,
        "ci95_halfwidth": hw,
        "n_secure_bits": outcome.n_secure_bits,
        "n_excluded_runs": outcome.n_excluded_runs,
        "cal_mean_zc_lh": cal.mean_zc_lh,
        "cal_mean_zc_hl": cal.mean_zc_hl,
        "cal_threshold": cal.threshold,
        "cal_polarity": cal.polarity,
        "n_zc_lh_mean": zc_lh,
        "n_zc_lh_se": zc_lh_se,
        "n_zc_hl_mean": zc_hl,
        "n_zc_hl_se": zc_hl_se,
        "zc_mode": config.zc_mode,
        "oversample": config.oversample,
    }
    row = match_benchmark(scheme)
    if row is not None:
        footer["reference_p"] = row.p_eve_ref
        footer["reference_sigma_p"] = row.sigma_p_ref
    _write_csv(config, "attack", "attack", ["run", "n_secure", "p_run"],
               (map(_fmt, row) for row in rows), footer=footer)
    print(f"p = {outcome.p:.4f} (sigma_p {outcome.sigma_p:.4f}, 95% CI +-{hw:.4f}, "
          f"{outcome.n_secure_bits} secure bits over {outcome.n_runs} runs)")
    print(f"calibration: mean u_zc2 LH {cal.mean_zc_lh:.4g}, HL {cal.mean_zc_hl:.4g}, "
          f"threshold {cal.threshold:.4g} V^2, polarity {cal.polarity}")
    print(f"settings: zc_mode={config.zc_mode} oversample={config.oversample:g} "
          f"samples_per_bit={config.samples_per_bit}")
    if row is not None:
        print(f"reference for this configuration (not asserted): "
              f"p = {row.p_eve_ref} +- {row.sigma_p_ref}")
    return 0


def cmd_hist(config: ExperimentConfig, statistic: str, bins: int) -> int:
    """Write per-case histograms of a per-bit statistic for the LH/HL populations."""
    if bins < 1:
        raise ConfigurationError(f"bins must be >= 1, got {bins}")
    scheme = build_scheme(config)
    _, bits = simulate_secure_bits(_session(config, scheme))
    column = getattr(bits, statistic)
    if not column.size:
        raise RuntimeError(f"no per-bit values available for statistic {statistic!r}")
    lo, hi = column.min().item(), column.max().item()
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    if not (np.diff(np.linspace(lo, hi, bins + 1)) > 0).all():
        # Too few floats for `bins` distinct edges (from 2**53, lo - 0.5 == lo).
        half = 2 * bins * np.spacing(max(abs(lo), abs(hi)))
        lo, hi = lo - half, hi + half
    values = {CASES[c]: column[bits.case == c] for c in SECURE_CASES}
    rows = []
    for case in values:
        counts, edges = np.histogram(values[case], bins=bins, range=(lo, hi))
        rows.extend((statistic, case, edges[j].item(), edges[j + 1].item(), counts[j].item())
                    for j in range(bins))
    _write_csv(config, "hist", "hist", ["stat", "case", "bin_lo", "bin_hi", "count"],
               (map(_fmt, row) for row in rows), meta={"statistic": statistic, "bins": bins})
    print(f"{statistic}: {len(values['LH'])} LH and {len(values['HL'])} HL values "
          f"binned into {bins} bins over [{lo:.4g}, {hi:.4g}]")
    return 0


def _benchmark_rows(config: ExperimentConfig):
    """Each benchmark row's name, reference values, scheme and seed under ``config``."""
    for row_idx, (name, bench) in enumerate(BENCHMARKS.items()):
        yield (name, bench,
               benchmark_scheme(name, bandwidth=config.bandwidth_hz, u2_la=config.u_la_sq),
               derive_seed(config.seed, STREAM_TABLE, row_idx))


def cmd_table1(config: ExperimentConfig) -> int:
    """Simulated wire moments for all benchmark rows, beside the reference values."""
    rows = []
    print(f"{'scheme':<7}{'case':<6}{'u2 sim':>12}{'u2 ref':>9}{'i2 sim':>13}{'i2 ref':>11}"
          f"{'p sim':>13}{'p ref':>10}{'u_zc2 sim':>12}{'u_zc2 ref':>10}")
    sampling = Sampling(**_sampling_keys(config))
    for name, bench, scheme, seed in _benchmark_rows(config):
        for case in ("LH", "HL"):
            m = measure_case_moments(scheme, sampling, case, n_bits=config.bits_per_run, seed=seed)
            r_alice, r_bob = (scheme.branches[bid].resistance for bid in case_branches(case))
            zc_ref = bench.u_zc2_lh_ref if case == "LH" else bench.u_zc2_hl_ref
            rows.append((
                name, case, r_alice, r_bob,
                m.u2, m.u2_se, bench.u2_ref,
                m.i2, m.i2_se, bench.i2_ref,
                m.p_ab, m.p_ab_se, bench.p_ref,
                m.u_zc2, m.u_zc2_se, zc_ref,
            ))
            print(f"{name:<7}{case:<6}{m.u2:>12.4g}{bench.u2_ref:>9.3g}"
                  f"{m.i2:>13.4g}{bench.i2_ref:>11.3g}"
                  f"{m.p_ab:>13.4g}{bench.p_ref:>10.3g}"
                  f"{m.u_zc2:>12.4g}{zc_ref:>10.3g}")
    _write_csv(config, "table1", "table1",
               ["scheme", "case", "r_alice_ohm", "r_bob_ohm",
                "u2_sim", "u2_se", "u2_ref", "i2_sim", "i2_se", "i2_ref",
                "p_sim", "p_se", "p_ref", "u_zc2_sim", "u_zc2_se", "u_zc2_ref"],
               (map(_fmt, row) for row in rows),
               meta={**_sampling_keys(config), "n_bits_per_case": config.bits_per_run})
    return 0


def cmd_table2(config: ExperimentConfig) -> int:
    """Attack outcome for all benchmark rows, beside the reference values."""
    rows = []
    print(f"{'scheme':<7}{'p sim':>9}{'sigma':>9}{'ci95':>9}{'p ref':>9}{'sigma ref':>11}"
          f"{'polarity':>12}")
    for name, bench, scheme, seed in _benchmark_rows(config):
        session = replace(_session(config, scheme), master_seed=seed)
        outcome, cal, _ = run_attack_experiment(session, config.calibration_bits)
        hw = binomial_ci_halfwidth(outcome.p, outcome.n_secure_bits)
        rows.append((
            name, outcome.p, outcome.sigma_p, hw, outcome.n_secure_bits,
            cal.polarity, cal.threshold, bench.p_eve_ref, bench.sigma_p_ref,
        ))
        print(f"{name:<7}{outcome.p:>9.4f}{outcome.sigma_p:>9.4f}{hw:>9.4f}"
              f"{bench.p_eve_ref:>9.4f}{bench.sigma_p_ref:>11.4f}{cal.polarity:>12}")
    _write_csv(config, "table2", "table2",
               ["scheme", "p_sim", "sigma_p_sim", "ci95_halfwidth", "n_secure",
                "polarity", "threshold_v2", "p_ref", "sigma_p_ref"],
               (map(_fmt, row) for row in rows),
               meta={**_sampling_keys(config), "bits_per_run": config.bits_per_run,
                     "runs": config.runs})
    return 0


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def main(argv=None) -> int:
    import warnings

    parser = argparse.ArgumentParser(
        prog="kljnsim",
        description="KLJN-family key exchanger simulation and zero-crossing attack harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve branch noise levels and temperatures, check security equalities"),
        ("simulate", "simulate key-exchange bits and write per-bit CSV"),
        ("attack", "run the zero-crossing attack and report Eve's success probability"),
        ("hist", "histogram a per-bit statistic for the LH/HL populations"),
        ("table1", "simulated wire moments for all benchmark schemes vs reference values"),
        ("table2", "attack outcome for all benchmark schemes vs reference values"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--output-prefix", default=None,
                       help="override the config's output path prefix")
        if name == "hist":
            p.add_argument("--statistic", default="u_zc2", choices=HIST_STATISTICS)
            p.add_argument("--bins", type=int, default=30)
    args = parser.parse_args(argv)
    # A warning prints as one line, without the library's source path and line.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_args, **_kwargs: f"warning: {message}\n"
    try:
        config = _load_config(args.config)
        if args.output_prefix is not None:
            config = replace(config, output_prefix=args.output_prefix)
        if args.command == "solve":
            return cmd_solve(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "attack":
            return cmd_attack(config)
        if args.command == "hist":
            return cmd_hist(config, args.statistic, args.bins)
        if args.command == "table1":
            return cmd_table1(config)
        return cmd_table2(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except UnphysicalSchemeError as exc:
        print(f"unphysical scheme: {exc}", file=sys.stderr)
        return 3
    except (CalibrationError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
