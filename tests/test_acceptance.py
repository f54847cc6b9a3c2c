"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full gate takes
roughly ten minutes, dominated by the attack-harness grid (criterion 6).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from kljnsim.attack import binomial_ci_halfwidth
from kljnsim.benchmarks import (
    BENCHMARKS,
    VMG_BENCHMARK_NAMES,
    EQUILIBRIUM_BENCHMARK_NAMES,
    benchmark_scheme,
    measure_case_moments,
    run_attack_experiment,
)
from kljnsim.circuit import analytic_moments, conditional_zc_variance, solve_wire
from kljnsim.cli import main as cli_main
from kljnsim.errors import ConfigurationError, UnphysicalSchemeError
from kljnsim.noise import estimate_psd, fill_band
from kljnsim.protocol import CASES, Sampling, SessionConfig, run_session
from kljnsim.schemes import (
    branch_temperatures,
    classic_kljn,
    fck1_fourth_resistor,
    security_check,
    solve_vmg,
    vmg_noise_levels,
)
from conftest import band_trace
from test_schemes import vmg_noise_levels_factored

BANDWIDTH = 500.0


def _passline(text):
    print(f"\n[PASS] {text}")


def _close_to_printed(value, printed, half_ulp, rel=1e-3):
    """Within ``rel`` relative, or rounding to the printed figure exactly."""
    return abs(value - printed) <= rel * abs(printed) or abs(value - printed) <= half_ulp


# --------------------------------------------------------------------------
# criterion 1: solver golden values (Fig-5-style quadruple)
# --------------------------------------------------------------------------

def test_criterion_1_vmg_solver_golden_values():
    scheme = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, BANDWIDTH)
    temps = branch_temperatures(scheme)
    golden = [
        ("U_HB^2", scheme.branches["HB"].mean_square, 0.477, 0.0005),
        ("U_HA^2", scheme.branches["HA"].mean_square, 1.03e4, 50.0),
        ("U_LB^2", scheme.branches["LB"].mean_square, 0.323, 0.0005),
        ("T_HA", temps["HA"], 8.0671e18, 0.5e14),
        ("T_LA", temps["LA"], 1.3033e17, 0.5e13),
        ("T_HB", temps["HB"], 6.2112e16, 0.5e12),
        ("T_LB", temps["LB"], 1.1694e17, 0.5e13),
    ]
    for name, value, printed, half_ulp in golden:
        assert _close_to_printed(value, printed, half_ulp), (
            f"{name}: computed {value!r} vs printed {printed!r}"
        )
    _passline("criterion 1: solver reproduces the reference levels and temperatures "
              "(0.1% relative, or exact rounding to the printed precision)")


# --------------------------------------------------------------------------
# criterion 2: three-moment security identity on random quadruples
# --------------------------------------------------------------------------

def _random_quadruples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        r_la = 10 ** rng.uniform(1, 5)
        r_lb = 10 ** rng.uniform(1, 5)
        r_ha = r_la * 10 ** rng.uniform(math.log10(1.05), 2)
        r_hb = r_lb * 10 ** rng.uniform(math.log10(1.05), 2)
        u2_la = 10 ** rng.uniform(-1, 1)
        out.append((r_ha, r_la, r_hb, r_lb, u2_la))
    return out


def test_criterion_2_three_moment_identity_and_form_equivalence():
    worst_mismatch = 0.0
    worst_forms = 0.0
    for quad in _random_quadruples(1000, seed=20240101):
        scheme = solve_vmg(*quad, bandwidth=BANDWIDTH)
        worst_mismatch = max(worst_mismatch, security_check(scheme))
        expanded = vmg_noise_levels(*quad)
        factored = vmg_noise_levels_factored(*quad)
        for e, f in zip(expanded, factored):
            worst_forms = max(worst_forms, abs(e - f) / max(abs(e), abs(f)))
    assert worst_mismatch < 1e-9
    assert worst_forms < 1e-12
    _passline(f"criterion 2: LH/HL u2, i2, p_ab agree (worst {worst_mismatch:.2e} < 1e-9); "
              f"expanded vs factored forms agree (worst {worst_forms:.2e} < 1e-12) "
              "over 1000 random quadruples")


# --------------------------------------------------------------------------
# criterion 3: benchmark moment reproduction at >= 1e7 effective samples
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_3_moment_table_reproduction():
    n_bits, samples, gamma = 40, 2**20, 1.0   # 4.2e7 effective samples per case
    lines = []
    for row_idx, (name, row) in enumerate(BENCHMARKS.items()):
        scheme = benchmark_scheme(name, bandwidth=BANDWIDTH)
        for case in ("LH", "HL"):
            a_id = "LA" if case[0] == "L" else "HA"
            b_id = "LB" if case[1] == "L" else "HB"
            oracle = analytic_moments(
                scheme.branches[a_id].resistance, scheme.branches[a_id].mean_square,
                scheme.branches[b_id].resistance, scheme.branches[b_id].mean_square,
            )
            m = measure_case_moments(
                scheme, Sampling(samples, gamma), case, n_bits=n_bits, seed=3000 + row_idx,
            )
            assert abs(m.u2 - oracle.u2) <= 3 * m.u2_se, (name, case, "u2 vs oracle")
            assert abs(m.i2 - oracle.i2) <= 3 * m.i2_se, (name, case, "i2 vs oracle")
            assert abs(m.u2 - row.u2_ref) <= 0.015 * row.u2_ref, (name, case, "u2 vs ref")
            assert abs(m.i2 - row.i2_ref) <= 0.015 * row.i2_ref, (name, case, "i2 vs ref")
            if name in EQUILIBRIUM_BENCHMARK_NAMES:
                assert abs(m.p_ab) <= 3 * m.p_ab_se, (name, case, "p_ab vs 0")
            else:
                assert abs(m.p_ab - row.p_ref) <= 0.10 * row.p_ref, (name, case, "p vs ref")
            lines.append(f"{name}/{case}: u2 {m.u2:.4f} (ref {row.u2_ref}), "
                         f"i2 {m.i2:.3e} (ref {row.i2_ref:.3e}), p {m.p_ab:.3e}")
    print()
    for line in lines:
        print("   ", line)
    _passline("criterion 3: all five benchmark rows match the analytic oracle (3 SE) "
              "and the reference values (1.5% on u2/i2, 10% on p; equilibrium p at 0)")


# --------------------------------------------------------------------------
# criterion 4: equilibrium immunity at the published run structure
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_equilibrium_immunity():
    for idx, name in enumerate(EQUILIBRIUM_BENCHMARK_NAMES):
        scheme = benchmark_scheme(name, bandwidth=BANDWIDTH)
        config = SessionConfig(scheme, Sampling(16384, 16.0, "sample_after"),
                               bits_per_run=1000, runs=10, master_seed=4000 + idx)
        outcome, cal, bits = run_attack_experiment(config, calibration_bits=200)
        assert 0.48 <= outcome.p <= 0.52, (name, outcome.p)
        if name == "kljn":
            # the well-separated classic levels classify essentially error-free
            # at default sampling; the zero-power row's LL level sits closer to
            # the secure level and legitimately needs longer bit periods.  The
            # attack simulates only the secure bits, so the honest parties'
            # classification comes from the full session on the same config.
            session = run_session(config)
            n_bits = session.bits.case.size
            n_errors = int(session.misclassified.sum())
            assert n_errors / n_bits <= 1e-3, (name, n_errors, n_bits)
        for case in ("LH", "HL"):
            a_id = "LA" if case[0] == "L" else "HA"
            b_id = "LB" if case[1] == "L" else "HB"
            u2 = analytic_moments(
                scheme.branches[a_id].resistance, scheme.branches[a_id].mean_square,
                scheme.branches[b_id].resistance, scheme.branches[b_id].mean_square,
            ).u2
            vals = bits.u_zc2[(bits.case == CASES.index(case)) & (bits.n_zc > 0)]
            mean_zc = float(np.mean(vals))
            assert abs(mean_zc - u2) <= 0.02 * u2, (name, case, mean_zc, u2)
        print(f"\n    {name}: p = {outcome.p:.4f} (sigma {outcome.sigma_p:.4f}), "
              f"u_zc2 within 2% of u2, polarity {cal.polarity}")
    _passline("criterion 4: classic and zero-power schemes stay at p in [0.48, 0.52] "
              "with u_zc2 within 2% of the wire mean-square")


# --------------------------------------------------------------------------
# criterion 5: conditional-variance rejection-sampling oracle
# --------------------------------------------------------------------------

def _rejection_conditional_variance(m, seed, eps=0.1, n_draws=12_000_000):
    """Brute-force check: joint Gaussians with the analytic covariance, keep
    |I| < eps * rms(I), mean-square of U, Richardson-extrapolated to eps=0."""
    rng = np.random.default_rng(seed)
    l11 = math.sqrt(m.u2)
    l21 = m.p_ab / l11
    l22 = math.sqrt(m.i2 - l21 * l21)

    def estimate(eps_k):
        z = rng.standard_normal((n_draws, 2))
        u = l11 * z[:, 0]
        i = l21 * z[:, 0] + l22 * z[:, 1]
        keep = np.abs(i) < eps_k * math.sqrt(m.i2)
        return float(np.mean(u[keep] ** 2))

    v_eps = estimate(eps)
    v_half = estimate(eps / 2)
    return (4.0 * v_half - v_eps) / 3.0   # bias is O(eps^2)


@pytest.mark.slow
def test_criterion_5_conditional_variance_oracle():
    for idx, name in enumerate(VMG_BENCHMARK_NAMES):
        scheme = benchmark_scheme(name, bandwidth=BANDWIDTH)
        m = analytic_moments(
            scheme.branches["LA"].resistance, scheme.branches["LA"].mean_square,
            scheme.branches["HB"].resistance, scheme.branches["HB"].mean_square,
        )
        closed = conditional_zc_variance(m)
        brute = _rejection_conditional_variance(m, seed=5000 + idx)
        assert abs(brute - closed) <= 0.01 * closed, (name, brute, closed)
        print(f"\n    {name}: closed form {closed:.5f} V^2, rejection oracle {brute:.5f} V^2")
    for idx, name in enumerate(EQUILIBRIUM_BENCHMARK_NAMES):
        scheme = benchmark_scheme(name, bandwidth=BANDWIDTH)
        m = analytic_moments(
            scheme.branches["LA"].resistance, scheme.branches["LA"].mean_square,
            scheme.branches["HB"].resistance, scheme.branches["HB"].mean_square,
        )
        assert conditional_zc_variance(m) == m.u2   # rho = 0: exactly u2
        brute = _rejection_conditional_variance(m, seed=5100 + idx)
        assert abs(brute - m.u2) <= 0.01 * m.u2
    _passline("criterion 5: rejection-sampling oracle matches u2*(1-rho^2) within 1% "
              "for the VMG rows and equals u2 exactly in equilibrium")


# --------------------------------------------------------------------------
# criterion 6: VMG attack harness capability grid
# --------------------------------------------------------------------------

ATTACK_GRID = [(mode, gamma) for mode in ("sample_after", "interpolated")
               for gamma in (4, 16, 64)]


def _attack_config_text(name, mode, gamma, seed, prefix):
    row = BENCHMARKS[name]
    if row.kind == "classic":
        scheme_lines = f"kind = classic\nr_l = {row.r_la!r}\nr_h = {row.r_ha!r}\n"
    elif row.kind == "fck1":
        scheme_lines = (f"kind = fck1\nr_ha = {row.r_ha!r}\nr_la = {row.r_la!r}\n"
                        f"r_hb = {row.r_hb!r}\n")
    else:
        scheme_lines = (f"kind = vmg\nr_ha = {row.r_ha!r}\nr_la = {row.r_la!r}\n"
                        f"r_hb = {row.r_hb!r}\nr_lb = {row.r_lb!r}\n")
    return (scheme_lines
            + f"zc_mode = {mode}\noversample = {float(gamma)!r}\n"
            + "samples_per_bit = 16384\nbits_per_run = 2000\nruns = 10\n"
            + f"seed = {seed}\ncalibration_bits = 200\noutput_prefix = {prefix}\n")


def _read_meta(path):
    meta = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            meta[key] = value
    return meta


@pytest.mark.slow
def test_criterion_6_vmg_attack_harness(tmp_path):
    results = {}
    combo = 0
    for name in VMG_BENCHMARK_NAMES + EQUILIBRIUM_BENCHMARK_NAMES:
        for mode, gamma in ATTACK_GRID:
            combo += 1
            prefix = tmp_path / f"{name}_{mode}_{gamma}"
            cfg = tmp_path / f"{name}_{mode}_{gamma}.cfg"
            cfg.write_text(
                _attack_config_text(name, mode, gamma, seed=6000 + combo, prefix=prefix),
                encoding="utf-8",
            )
            assert cli_main(["attack", str(cfg)]) == 0
            meta = _read_meta(f"{prefix}_attack.csv")
            p = float(meta["p"])
            n_secure = int(meta["n_secure_bits"])
            hw = float(meta["ci95_halfwidth"])
            assert 0.0 <= p <= 1.0
            assert float(meta["sigma_p"]) >= 0.0
            assert hw <= 0.01, (name, mode, gamma, hw, n_secure)
            assert hw == pytest.approx(binomial_ci_halfwidth(p, n_secure), rel=1e-9)
            # crossing-count agreement between the secure cases (4 SE)
            lh, lh_se = float(meta["n_zc_lh_mean"]), float(meta["n_zc_lh_se"])
            hl, hl_se = float(meta["n_zc_hl_mean"]), float(meta["n_zc_hl_se"])
            assert abs(lh - hl) <= 4.0 * math.hypot(lh_se, hl_se), (name, mode, gamma)
            results[(name, mode, gamma)] = (p, hw)
            if name in VMG_BENCHMARK_NAMES:
                assert "reference_p" in meta  # labeled comparison emitted
                ref = float(meta["reference_p"])
                print(f"\n    {name} mode={mode} gamma={gamma}: p = {p:.4f} +- {hw:.4f} "
                      f"(reference {ref}, not asserted)")
            else:
                assert abs(p - 0.5) <= 0.02, (name, mode, gamma, p)
    # ordering check: zero-power scheme below any leaking VMG config
    for mode, gamma in ATTACK_GRID:
        p_fck1, _ = results[("fck1", mode, gamma)]
        leaking = [n for n in VMG_BENCHMARK_NAMES
                   if abs(results[(n, mode, gamma)][0] - 0.5) > results[(n, mode, gamma)][1]]
        for n in leaking:
            assert p_fck1 < results[(n, mode, gamma)][0], (n, mode, gamma)
        if not leaking:
            print(f"    note: no VMG config's CI excludes 0.5 at mode={mode} gamma={gamma} "
                  "(ideal flat-band synthesis equalizes the LH/HL joint law)")
    _passline("criterion 6: attack harness grid (3 VMG + 2 equilibrium schemes, "
              "2 modes x gamma in {4,16,64}) produced well-formed p estimates with "
              "CI half-width <= 0.01, equilibrium p within 0.02 of 0.5, and "
              "LH/HL crossing counts within 4 SE")


# --------------------------------------------------------------------------
# criterion 7: property suite
# --------------------------------------------------------------------------

def test_criterion_7_property_suite(tmp_path):
    # Kirchhoff pointwise identity to 1e-12 relative, for the wire solve the
    # simulation runs: solve_wire on the generators' spectra, then the inverse FFT.
    fs, n = 16000.0, 2**14
    x_a = band_trace(1.0, fs / (2 * BANDWIDTH), n, 71)
    x_b = band_trace(0.32, fs / (2 * BANDWIDTH), n, 72)
    spectra = fill_band(Sampling(n, fs / (2 * BANDWIDTH)), [1.0, 0.32],   # x_a and x_b
                        [np.random.default_rng(71), np.random.default_rng(72)])
    parts = spectra.view(np.float64)
    solve_wire(parts[0], parts[1], 278.0, 100.0)
    u_c, i_c = np.fft.irfft(spectra, n=n, axis=-1)
    scale = float(np.max(np.abs(u_c)))
    assert np.max(np.abs((x_a - i_c * 278.0) - u_c)) < 1e-12 * scale
    assert np.max(np.abs((x_b + i_c * 100.0) - u_c)) < 1e-12 * scale

    # spectral flatness and band limit
    trace = band_trace(1.0, fs / (2 * BANDWIDTH), 2**20, 73)
    freqs, density = estimate_psd(trace, fs, 16)
    in_band = density[(freqs > 0.1 * BANDWIDTH) & (freqs < 0.9 * BANDWIDTH)]
    assert np.mean(in_band) == pytest.approx(1.0 / BANDWIDTH, rel=0.03)
    assert np.max(density[freqs > 1.1 * BANDWIDTH]) < 1e-6 * np.mean(in_band)
    power = np.abs(np.fft.rfft(trace)) ** 2
    bin_freqs = np.fft.rfftfreq(trace.size, 1.0 / fs)
    assert power[bin_freqs > BANDWIDTH * (1 + 1e-9)].sum() < 1e-6 * power.sum()

    # Gaussianity at 2^20 samples
    from scipy.stats import kurtosis

    tr = band_trace(1.0, 2000.0 / (2 * BANDWIDTH), 2**20, 74)
    assert abs(kurtosis(tr)) < 0.05

    # seed determinism: byte-identical CSV
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "kind = classic\nr_l = 1e3\nr_h = 1e4\nsamples_per_bit = 2048\n"
        f"oversample = 4.0\nbits_per_run = 25\nruns = 2\nseed = 99\n"
        f"output_prefix = {tmp_path}/det\n",
        encoding="utf-8",
    )
    assert cli_main(["simulate", str(cfg)]) == 0
    first = (tmp_path / "det_bits.csv").read_bytes()
    assert cli_main(["simulate", str(cfg)]) == 0
    assert (tmp_path / "det_bits.csv").read_bytes() == first

    # geometric-mean identity of the derived fourth resistor
    rng = np.random.default_rng(75)
    for _ in range(500):
        r_ha, r_la, r_hb = 10 ** rng.uniform(1, 6, size=3)
        r_lb = fck1_fourth_resistor(r_ha, r_la, r_hb)
        lhs, rhs = math.sqrt(r_ha * r_lb), math.sqrt(r_la * r_hb)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    # unphysical-solution rejection on a curated quadruple set
    curated_rejects = [
        (1000.0, 100.0, 100.0, 200.0, {"HB", "LB"}),   # Bob inverted
        (100.0, 1000.0, 500.0, 50.0, {"HB", "LB"}),    # Alice inverted
        (5000.0, 50.0, 120.0, 3000.0, {"HB", "LB"}),   # Bob strongly inverted
    ]
    for r_ha, r_la, r_hb, r_lb, expect in curated_rejects:
        with pytest.raises(UnphysicalSchemeError) as err:
            solve_vmg(r_ha, r_la, r_hb, r_lb, 1.0, BANDWIDTH)
        assert set(err.value.branches) & expect
    with pytest.raises(ConfigurationError):
        solve_vmg(278.0, 278.0, 100.0, 50.0, 1.0, BANDWIDTH)   # singular
    # both sides inverted keeps all levels positive: accepted, never clamped
    ok = solve_vmg(100.0, 1000.0, 50.0, 500.0, 1.0, BANDWIDTH)
    assert all(br.mean_square > 0 for br in ok.branches.values())

    _passline("criterion 7: Kirchhoff identity, spectral flatness/band limit, "
              "Gaussianity, byte-identical CSV, geometric-mean identity, and "
              "unphysical-solution rejection all hold")
