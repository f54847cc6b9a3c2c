import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import src_env
from kljnsim import __version__, cli, protocol
from kljnsim.cli import (
    ExperimentConfig,
    _fmt,
    _session,
    build_scheme,
    config_hash,
    main,
    parse_config,
    serialize_config,
)
from kljnsim.errors import ConfigurationError
from kljnsim.noise import GENERATOR_ID
from kljnsim.protocol import CASES, run_session, simulate_secure_bits

CLASSIC_TEXT = """
# minimal classic scheme
kind = classic
r_l = 1e3
r_h = 1e4
"""

SMALL_COMMON = """
samples_per_bit = 2048
oversample = 4
bits_per_run = 30
runs = 2
seed = 7
"""


#: Sessions of one bit per run at seed 1: run 0's bit is LL, and runs 1 and 2 are secure.
ONE_BIT = CLASSIC_TEXT + """
samples_per_bit = 256
oversample = 4
calibration_bits = 100
seed = 1
bits_per_run = 1
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_minimal_classic_defaults(self):
        cfg = parse_config(CLASSIC_TEXT)
        assert cfg.kind == "classic"
        assert (cfg.r_l, cfg.r_h) == (1e3, 1e4)
        assert cfg.bandwidth_hz == 500.0
        assert cfg.u_la_sq == 1.0
        assert cfg.oversample == 16.0
        assert cfg.samples_per_bit == 16384
        assert cfg.bits_per_run == 1000
        assert cfg.runs == 10
        assert cfg.zc_mode == "sample_after"

    def test_fck1_without_r_lb(self):
        cfg = parse_config("kind = fck1\nr_ha = 1e5\nr_la = 1e4\nr_hb = 1e4\n")
        scheme = build_scheme(cfg)
        assert scheme.branches["LB"].resistance == pytest.approx(1e3, rel=1e-12)
        assert scheme.kind == "fck1"

    def test_fck1_inconsistent_r_lb(self):
        with pytest.raises(ConfigurationError, match="r_lb"):
            parse_config("kind = fck1\nr_ha = 1e5\nr_la = 1e4\nr_hb = 1e4\nr_lb = 2e3\n")

    def test_zero_oversample_names_key(self):
        with pytest.raises(ConfigurationError, match="oversample"):
            parse_config(CLASSIC_TEXT + "oversample = 0\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigurationError, match="line 2.*r_x"):
            parse_config("kind = classic\nr_x = 12\n")

    def test_non_finite_value_names_line(self):
        with pytest.raises(ConfigurationError, match="line 3: key 'r_l': must be finite"):
            parse_config("kind = classic\nr_h = 1e4\nr_l = nan\n")

    def test_unparsable_value(self):
        with pytest.raises(ConfigurationError, match="r_l"):
            parse_config("kind = classic\nr_l = twelve\nr_h = 1e4\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config("kind = classic\nr_l = 1\nr_l = 2\nr_h = 10\n")

    def test_missing_required(self):
        with pytest.raises(ConfigurationError, match="r_h"):
            parse_config("kind = classic\nr_l = 1e3\n")

    def test_inapplicable_key(self):
        with pytest.raises(ConfigurationError, match="r_ha"):
            parse_config("kind = classic\nr_l = 1e3\nr_h = 1e4\nr_ha = 5\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("\n# header\nkind = classic\nr_l = 1e3  # low\nr_h = 1e4\n\n")
        assert cfg.r_l == 1e3

    def test_round_trip(self):
        for text in (
            CLASSIC_TEXT,
            "kind = vmg\nr_ha = 46416\nr_la = 278\nr_hb = 278\nr_lb = 100\nseed = 3\n",
            "kind = fck1\nr_ha = 1e5\nr_la = 1e4\nr_hb = 1e4\nzc_mode = interpolated\n",
        ):
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_hash_stable_and_sensitive(self):
        a = parse_config(CLASSIC_TEXT)
        b = parse_config(CLASSIC_TEXT + "seed = 2\n")
        assert config_hash(a) == config_hash(parse_config(CLASSIC_TEXT))
        assert config_hash(a) != config_hash(b)


def test_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# Widerst\xe4nde\n" + CLASSIC_TEXT.encode())
    assert main(["solve", str(cfg), "--output-prefix", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: cannot read config file {cfg}: ")
    assert "can't decode byte 0xe4" in err[0]
    assert not list(tmp_path.glob("out*"))


def test_config_line_without_equals_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "kind classic\n")
    assert main(["solve", cfg_path, "--output-prefix", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: line 1: expected 'key = value', got 'kind classic'\n")


class TestSolveCommand:
    def test_solve_writes_solution(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            "kind = vmg\nr_ha = 46416\nr_la = 278\nr_hb = 278\nr_lb = 100\n"
            f"output_prefix = {tmp_path}/out\n",
        )
        assert main(["solve", cfg_path]) == 0
        text = (tmp_path / "out_solution.csv").read_text()
        assert "# config_hash=" in text
        assert "# generator=" in text
        row = next(line for line in text.splitlines() if line.startswith("HA,"))
        _, r, u2, temp = row.split(",")
        assert float(r) == 46416.0
        assert float(u2) == pytest.approx(10334.676, rel=1e-4)
        assert float(temp) == pytest.approx(8.0671e18, rel=1e-3)
        assert "equilibrium" not in capsys.readouterr().out  # vmg kind: no zero-power claim

    @pytest.mark.parametrize("text", [
        CLASSIC_TEXT,
        "kind = fck1\nr_ha = 1e5\nr_la = 1e4\nr_hb = 1e4\n",
        "kind = classic\nr_l = 1.2e3\nr_h = 3.3e4\nu_la_sq = 1e-160\n",   # u2 * i2 underflows
    ], ids=["classic", "fck1", "classic-1e-160"])
    def test_equilibrium_kinds_print_zero_power(self, tmp_path, capsys, text):
        cfg_path = write_config(tmp_path, text + f"output_prefix = {tmp_path}/out\n")
        assert main(["solve", cfg_path]) == 0
        assert "equilibrium (zero net power): yes\n" in capsys.readouterr().out

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Editors on Windows start a UTF-8 file with U+FEFF.
        text = f"kind = classic\nr_l = 1e3\nr_h = 1e4\noutput_prefix = {tmp_path}/out\n"
        plain = write_config(tmp_path, text, "plain.cfg")
        marked = write_config(tmp_path, "\ufeff" + text, "marked.cfg")
        a, b = cli._load_config(plain), cli._load_config(marked)
        assert a == b and config_hash(a) == config_hash(b)
        assert main(["solve", marked]) == 0

    def test_unphysical_exit_3(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            "kind = vmg\nr_ha = 1000\nr_la = 100\nr_hb = 100\nr_lb = 200\n",
        )
        assert main(["solve", cfg_path]) == 3
        assert "HB" in capsys.readouterr().err

    def test_singular_exit_2(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            "kind = vmg\nr_ha = 278\nr_la = 278\nr_hb = 100\nr_lb = 50\n",
        )
        assert main(["solve", cfg_path]) == 2

    @pytest.mark.parametrize("keys", [
        "bandwidth_hz = 1e-310\n",                      # 4*k*R*B underflows to 0
        "u_la_sq = 1e-300\nbandwidth_hz = 1e300\n",     # every temperature underflows to 0 K
    ], ids=["zero-denominator", "zero-kelvin"])
    def test_temperature_outside_float_range_exit_2(self, tmp_path, capsys, keys):
        cfg_path = write_config(tmp_path, CLASSIC_TEXT + keys + f"output_prefix = {tmp_path}/out\n")
        assert main(["solve", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bandwidth ") and err.count("\n") == 1, err
        assert not (tmp_path / "out_solution.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "simulate", "table1"])
    @pytest.mark.parametrize("text", [
        "kind = vmg\nr_ha = 1e160\nr_la = 1e159\nr_hb = 3e159\nr_lb = 2e159\n",   # NaN levels
        "kind = classic\nr_l = 1\nr_h = 1e300\n",        # (r_a + r_b) ** 2 overflows
        "kind = classic\nr_l = 1e-170\nr_h = 2e-170\n",  # (r_a + r_b) ** 2 underflows to 0
        "kind = classic\nr_l = 1\nr_h = 1e300\nu_la_sq = 1e10\n",   # u2_ref * r_h / r_l overflows
    ], ids=["vmg-nan-levels", "classic-overflow", "classic-underflow", "classic-level-overflow"])
    def test_moments_outside_float_range_exit_2(self, tmp_path, capsys, text, command):
        cfg_path = write_config(tmp_path, text + f"output_prefix = {tmp_path}/out\n")
        assert main([command, cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
        assert "finite" in err and not list(tmp_path.glob("out*")), err

    def test_missing_config_exit_2(self):
        assert main(["solve", "/nonexistent/path.cfg"]) == 2


BASE_CONFIGS = {
    "classic": {"kind": "classic", "r_l": "1e3", "r_h": "1e4"},
    "vmg": {"kind": "vmg", "r_ha": "46416", "r_la": "278", "r_hb": "278", "r_lb": "100"},
    "fck1": {"kind": "fck1", "r_ha": "1e5", "r_la": "1e4", "r_hb": "1e4"},
}

#: Library argument names that differ from the config key they check.
LIBRARY_NAMES = {"u_la_sq": "u2_la", "bandwidth_hz": "bandwidth"}

#: (base kind, overridden keys, exit code of ``main``, name the error must carry)
SINGLE_FAULTS = [
    *[(kind, {key: value}, 2, key)
      for kind, keys in (("classic", ("r_l", "r_h")),
                         ("vmg", ("r_ha", "r_la", "r_hb", "r_lb")),
                         ("fck1", ("r_ha", "r_la", "r_hb", "r_lb")))
      for key in keys for value in ("0", "-1")],
    *[("vmg", {key: value}, 2, key)
      for key in ("u_la_sq", "bandwidth_hz", "oversample", "samples_per_bit",
                  "bits_per_run", "runs", "seed", "calibration_bits")
      for value in ("0", "-1") if (key, value) != ("seed", "0")],
    ("vmg", {"zc_mode": "bogus"}, 2, "zc_mode"),
    ("vmg", {"calibration_bits": "99"}, 2, "calibration_bits"),
    ("fck1", {"r_lb": "2e3"}, 2, "r_lb"),
    ("classic", {"kind": "bogus"}, 2, "kind"),
    ("classic", {"r_l": "1e4"}, 2, "r_l"),
    ("vmg", {"r_la": "46416"}, 2, "r_la"),
    ("vmg", {"r_ha": "1000", "r_la": "100", "r_hb": "100", "r_lb": "200"}, 3, "HB"),
    ("classic", {"r_l": "nan"}, 2, "r_l"),
    ("vmg", {"bandwidth_hz": "nan"}, 2, "bandwidth_hz"),
    ("vmg", {"oversample": "inf"}, 2, "oversample"),
    ("vmg", {"samples_per_bit": "16", "oversample": "16"}, 2, "samples_per_bit"),
]


@pytest.mark.parametrize(
    "kind, overrides, code, name", SINGLE_FAULTS,
    ids=[f"{kind}-" + ",".join(f"{k}={v}" for k, v in o.items()) for kind, o, _, _ in SINGLE_FAULTS],
)
def test_single_fault_exit_code_names_parameter(tmp_path, capsys, kind, overrides, code, name):
    entries = {**BASE_CONFIGS[kind], **overrides, "output_prefix": str(tmp_path / "out")}
    cfg_path = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in entries.items()))
    assert main(["solve", cfg_path]) == code
    err = capsys.readouterr().err
    assert name in err or LIBRARY_NAMES.get(name, name) in err, err


class TestSimulateCommand:
    def test_writes_rows_and_is_byte_stable(self, tmp_path):
        cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON)
        assert main(["simulate", cfg_path, "--output-prefix", str(tmp_path / "a")]) == 0
        a = (tmp_path / "a_bits.csv").read_bytes()
        assert main(["simulate", cfg_path, "--output-prefix", str(tmp_path / "a")]) == 0
        b = (tmp_path / "a_bits.csv").read_bytes()
        assert a == b
        lines = a.decode().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "run,bit,alice,bob,case,u2,i2,p_ab,n_zc,u_zc2,secure"
        data = [l for l in lines[header_idx + 1:] if not l.startswith("#")]
        assert len(data) == 60  # 2 runs x 30 bits
        first = data[0].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[4] in ("LL", "LH", "HL", "HH")
        assert first[10] in ("0", "1")

    def test_one_bit_has_no_standard_errors(self, tmp_path, capsys):
        # One LL bit: each standard error of the summary is _mean_se of one value.
        cfg_path = write_config(tmp_path, ONE_BIT + "runs = 1\n")
        assert main(["simulate", cfg_path, "--output-prefix", str(tmp_path / "s")]) == 0
        summary = capsys.readouterr().out.splitlines()
        assert summary[0] == "1 bits simulated (0 secure, 0 classification errors)"
        assert summary[1].startswith("LL: n=1 ") and summary[1].count("+-nan") == 4
        assert len(summary) == 2


def reference_bits_csv(config: ExperimentConfig) -> bytes:
    """The ``simulate`` CSV written row by row, every field through ``_fmt``."""
    session = run_session(_session(config, build_scheme(config)))
    bits = session.bits
    rows = [
        (k // config.bits_per_run, k % config.bits_per_run, *CASES[c], CASES[c],
         u2, i2, p_ab, n_zc, u_zc2, secure)
        for k, (c, u2, i2, p_ab, n_zc, u_zc2, secure) in enumerate(zip(
            bits.case.tolist(), bits.u2.tolist(), bits.i2.tolist(), bits.p_ab.tolist(),
            bits.n_zc.tolist(), bits.u_zc2.tolist(), bits.secure.tolist()))
    ]
    meta = {"artifact": f"kljnsim/{__version__}", "command": "simulate",
            "config_hash": config_hash(config), "seed": config.seed, "generator": GENERATOR_ID,
            "zc_mode": config.zc_mode, "oversample": config.oversample,
            "samples_per_bit": config.samples_per_bit}
    lines = [f"# {key}={_fmt(value)}" for key, value in meta.items()]
    lines.append("run,bit,alice,bob,case,u2,i2,p_ab,n_zc,u_zc2,secure")
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "".join(line + "\n" for line in lines).encode("utf-8")


def test_simulate_csv_matches_row_by_row_writer(tmp_path, capsys):
    # 32 samples per bit at oversample 4 leave 4 in-band bins, so the level
    # classification fails on some bits; all four cases occur.
    cfg_path = write_config(tmp_path, CLASSIC_TEXT + "samples_per_bit = 32\noversample = 4\n"
                            "bits_per_run = 25\nruns = 3\nseed = 11\n"
                            f"output_prefix = {tmp_path}/sim\n")
    assert main(["simulate", cfg_path]) == 0
    assert "75 bits simulated (45 secure, 24 classification errors)" in capsys.readouterr().out
    config = parse_config(Path(cfg_path).read_text())
    text = (tmp_path / "sim_bits.csv").read_bytes()
    assert text == reference_bits_csv(config)
    assert {line.split(b",")[4] for line in text.splitlines()[-75:]} == {b"LL", b"LH", b"HL", b"HH"}
    # A session of more bits than one slice of formatted rows, ending in a part slice.
    assert cli._SIMULATE_SLICE < 5000 and 5000 % cli._SIMULATE_SLICE
    cfg_path = write_config(tmp_path, CLASSIC_TEXT + "samples_per_bit = 32\noversample = 4\n"
                            "bits_per_run = 1000\nruns = 5\nseed = 11\n"
                            f"output_prefix = {tmp_path}/long\n", name="long.cfg")
    assert main(["simulate", cfg_path]) == 0
    config = parse_config(Path(cfg_path).read_text())
    assert (tmp_path / "long_bits.csv").read_bytes() == reference_bits_csv(config)


class TestAttackCommand:
    def test_attack_reports_and_writes(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            CLASSIC_TEXT
            + "samples_per_bit = 4096\noversample = 4\nbits_per_run = 40\nruns = 2\n"
            + "seed = 5\ncalibration_bits = 100\n"
            + f"output_prefix = {tmp_path}/atk\n",
        )
        assert main(["attack", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "p = " in out and "polarity" in out
        text = (tmp_path / "atk_attack.csv").read_text()
        assert "# p=" in text
        assert "# cal_polarity=indistinct" in text
        assert "# n_zc_lh_mean=" in text
        # reference line appears because the classic 1k/10k quadruple is a benchmark
        assert "# reference_p=0.5002" in text

    def test_session_without_secure_bit_exit_4(self, tmp_path, capsys):
        # With this seed the session's one bit is not secure: nothing to score.
        cfg_path = write_config(
            tmp_path,
            CLASSIC_TEXT + "bits_per_run = 1\nruns = 1\nseed = 1\nsamples_per_bit = 1024\n"
            + f"oversample = 4\ncalibration_bits = 100\noutput_prefix = {tmp_path}/atk\n",
        )
        with pytest.warns(UserWarning, match="run 0 has no secure bits"):
            assert main(["attack", cfg_path]) == 4
        err = capsys.readouterr().err
        assert "runtime error: no run contained a secure bit" in err
        assert "Traceback" not in err

    def test_warning_prints_as_one_line(self, tmp_path):
        # The session of test_session_without_secure_bit_exit_4, run as a command.
        cfg_path = write_config(
            tmp_path,
            CLASSIC_TEXT + "bits_per_run = 1\nruns = 1\nseed = 1\nsamples_per_bit = 1024\n"
            + f"oversample = 4\ncalibration_bits = 100\noutput_prefix = {tmp_path}/atk\n",
        )
        proc = subprocess.run([sys.executable, "-m", "kljnsim", "attack", cfg_path], cwd=tmp_path,
                              env=src_env(), capture_output=True, text=True, timeout=300,
                              check=False)
        assert proc.returncode == 4, proc.stderr
        assert "warning: run 0 has no secure bits" in proc.stderr
        assert "attack.py" not in proc.stderr

    def test_run_without_secure_bit_is_excluded(self, tmp_path):
        # Run 0's one bit is LL: its row has no p_run, and it warns once.
        cfg_path = write_config(tmp_path, ONE_BIT + "runs = 3\n")
        proc = subprocess.run([sys.executable, "-m", "kljnsim", "attack", cfg_path,
                               "--output-prefix", str(tmp_path / "atk")], cwd=tmp_path,
                              env=src_env(), capture_output=True, text=True, timeout=300,
                              check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: run 0 has no secure bits; excluded from attack statistics\n"
        lines = (tmp_path / "atk_attack.csv").read_text().splitlines()
        header = lines.index("run,n_secure,p_run")
        assert lines[header + 1 : header + 4] == ["0,0,", "1,1,0.0", "2,1,0.0"]
        assert "# n_excluded_runs=1" in lines

    def test_attack_does_not_depend_on_the_noise_scale(self, tmp_path, capsys):
        # Eve's standard errors are scale-free: at 1e-300 an SE no longer
        # underflows to 0 (a false hl_above), at 1e300 no square overflows.
        scaled = ("# config_hash=", "# cal_mean_zc_lh=", "# cal_mean_zc_hl=", "# cal_threshold=")
        kept = []
        for u_la_sq in ("1e-300", "1.0", "1e300"):
            cfg_path = write_config(
                tmp_path,
                f"kind = classic\nr_l = 1\nr_h = 10\nu_la_sq = {u_la_sq}\nsamples_per_bit = 256\n"
                + "oversample = 4\nbits_per_run = 20\nruns = 2\ncalibration_bits = 100\nseed = 1\n",
                name=f"{u_la_sq}.cfg")
            assert main(["attack", cfg_path, "--output-prefix", str(tmp_path / u_la_sq)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out.startswith("p = 0.4141 ") and "polarity indistinct" in captured.out
            text = (tmp_path / f"{u_la_sq}_attack.csv").read_text()
            kept.append([line for line in text.splitlines() if not line.startswith(scaled)])
        assert kept[0] == kept[1] == kept[2]

    def test_calibration_failure_exit_4(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            CLASSIC_TEXT + "samples_per_bit = 128\ncalibration_bits = 100\n"
            + "bits_per_run = 10\nruns = 1\n",
        )
        assert main(["attack", cfg_path]) == 4
        assert "samples_per_bit" in capsys.readouterr().err


class TestHistCommand:
    def test_single_bin_per_case(self, tmp_path):
        cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON)
        assert main(["hist", cfg_path, "--statistic", "u2", "--bins", "1",
                     "--output-prefix", str(tmp_path / "h")]) == 0
        lines = [l for l in (tmp_path / "h_hist.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "stat,case,bin_lo,bin_hi,count"
        assert len(lines) == 3  # one interior row per case, sentinels suppressed
        cases = {l.split(",")[1] for l in lines[1:]}
        assert cases == {"LH", "HL"}

    def test_session_without_secure_bit_exit_4(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, ONE_BIT + "runs = 1\n")
        assert main(["hist", cfg_path, "--output-prefix", str(tmp_path / "h")]) == 4
        assert capsys.readouterr().err == (
            "runtime error: no per-bit values available for statistic 'u_zc2'\n")
        assert not list(tmp_path.glob("h*"))

    def test_u_zc2_histogram(self, tmp_path):
        cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON)
        assert main(["hist", cfg_path, "--statistic", "u_zc2", "--bins", "8",
                     "--output-prefix", str(tmp_path / "h2")]) == 0
        lines = [l for l in (tmp_path / "h2_hist.csv").read_text().splitlines()
                 if not l.startswith("#")]
        lh = [l for l in lines[1:] if l.split(",")[1] == "LH"]
        hl = [l for l in lines[1:] if l.split(",")[1] == "HL"]
        assert sum(int(l.split(",")[4]) for l in lh) > 0
        assert sum(int(l.split(",")[4]) for l in hl) > 0

    def test_bad_bins_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON)
        assert main(["hist", cfg_path, "--bins", "0"]) == 2

    TINY_SESSION = "samples_per_bit = 256\noversample = 2\nruns = 1\n"

    @pytest.mark.parametrize("session, statistic, bins", [
        (SMALL_COMMON, "u_zc2", 7),                             # LH and HL bits
        (TINY_SESSION + "bits_per_run = 3\nseed = 1\n", "u2", 5),  # 2 LH bits, no HL bit
        (TINY_SESSION + "bits_per_run = 1\nseed = 2\n", "i2", 3),  # one HL bit: range +-0.5
    ], ids=["both_cases", "lh_only", "one_bit"])
    def test_each_case_has_bins_rows_over_the_values_range(self, tmp_path, session,
                                                           statistic, bins):
        text = CLASSIC_TEXT + session
        cfg_path = write_config(tmp_path, text)
        assert main(["hist", cfg_path, "--statistic", statistic, "--bins", str(bins),
                     "--output-prefix", str(tmp_path / "h")]) == 0
        lines = [l for l in (tmp_path / "h_hist.csv").read_text().splitlines()
                 if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        cfg = parse_config(text)
        _, bits = simulate_secure_bits(_session(cfg, build_scheme(cfg)))
        column = getattr(bits, statistic)
        lo, hi = column.min().item(), column.max().item()
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        for case in ("LH", "HL"):
            values = column[bits.case == CASES.index(case)]
            counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
            got = [r for r in rows if r[1] == case]
            assert len(got) == bins
            assert all(r[0] == statistic for r in got)
            assert [float(r[2]) for r in got] == edges[:-1].tolist()
            assert [float(r[3]) for r in got] == edges[1:].tolist()
            assert [int(r[4]) for r in got] == counts.tolist()
            assert sum(int(r[4]) for r in got) == values.size
        assert len(rows) == 2 * bins

    @pytest.mark.parametrize("bins", [1, 3, 30])
    def test_one_value_past_2_to_the_53_gets_bins_distinct_bins(self, tmp_path, capsys, bins):
        # u2 of about 8e16 V^2: lo - 0.5 == lo, so +-0.5 leaves an empty range.
        text = (CLASSIC_TEXT + "u_la_sq = 1e17\n" + self.TINY_SESSION
                + "bits_per_run = 1\nseed = 2\n")
        cfg_path = write_config(tmp_path, text)
        assert main(["hist", cfg_path, "--statistic", "u2", "--bins", str(bins),
                     "--output-prefix", str(tmp_path / "h")]) == 0
        assert f"binned into {bins} bins" in capsys.readouterr().out
        cfg = parse_config(text)
        _, bits = simulate_secure_bits(_session(cfg, build_scheme(cfg)))
        (value,) = bits.u2.tolist()
        assert value >= 2.0**53
        lines = [l for l in (tmp_path / "h_hist.csv").read_text().splitlines()
                 if not l.startswith("#")]
        for case in ("LH", "HL"):
            got = [l.split(",") for l in lines[1:] if l.split(",")[1] == case]
            edges = [float(r[2]) for r in got] + [float(got[-1][3])]
            assert len(got) == bins
            assert all(a < b for a, b in zip(edges, edges[1:]))
            assert edges[0] < value < edges[-1]
            counts = [int(r[4]) for r in got]
            assert sum(counts) == (1 if case == CASES[bits.case[0]] else 0)


class TestTableCommands:
    TINY = (
        "samples_per_bit = 2048\noversample = 4\nbits_per_run = 20\nruns = 2\n"
        "seed = 3\ncalibration_bits = 100\n"
    )

    def test_table1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, CLASSIC_TEXT + self.TINY)
        assert main(["table1", cfg_path, "--output-prefix", str(tmp_path / "t1")]) == 0
        lines = (tmp_path / "t1_table1.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("scheme,case,")
        assert len(data) == 1 + 10  # header + 5 schemes x 2 cases
        out = capsys.readouterr().out
        assert "vmg2" in out and "fck1" in out

    def test_table2(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            CLASSIC_TEXT + "samples_per_bit = 4096\noversample = 4\nbits_per_run = 30\n"
            "runs = 2\nseed = 3\ncalibration_bits = 100\n",
        )
        assert main(["table2", cfg_path, "--output-prefix", str(tmp_path / "t2")]) == 0
        lines = (tmp_path / "t2_table2.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1 + 5
        for line in data[1:]:
            fields = line.split(",")
            p_sim = float(fields[1])
            assert 0.0 <= p_sim <= 1.0
            p_ref = float(fields[7])
            assert 0.4 < p_ref < 0.8


def test_simulate_rows_are_independent_of_the_bandwidth(tmp_path, capsys):
    # The bandwidth enters only the noise temperatures that solve prints: the
    # kernel counts the band in bins and the crossing times in samples.
    outputs = {}
    for bandwidth in ("500", "1e306"):
        cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON + f"bandwidth_hz = {bandwidth}\n")
        assert main(["simulate", cfg_path, "--output-prefix", str(tmp_path / bandwidth)]) == 0
        lines = (tmp_path / f"{bandwidth}_bits.csv").read_text().splitlines()
        assert lines[2].startswith("# config_hash=")
        outputs[bandwidth] = lines[:2], lines[3:], capsys.readouterr().out
    assert outputs["1e306"] == outputs["500"]


#: The file each command writes after its output prefix.
COMMAND_OUTPUT = {"solve": "solution", "simulate": "bits", "attack": "attack", "hist": "hist",
                  "table1": "table1", "table2": "table2"}


@pytest.mark.parametrize("command", sorted(COMMAND_OUTPUT))
def test_every_command_writes_its_file_under_the_provenance_lines(tmp_path, command):
    text = CLASSIC_TEXT + TestTableCommands.TINY
    cfg_path = write_config(tmp_path, text)
    assert main([command, cfg_path, "--output-prefix", str(tmp_path / "out")]) == 0
    name = f"out_{COMMAND_OUTPUT[command]}.csv"
    assert [p.name for p in tmp_path.glob("out*")] == [name]
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[:5] == [f"# artifact=kljnsim/{__version__}", f"# command={command}",
                         f"# config_hash={config_hash(parse_config(text))}", "# seed=3",
                         f"# generator={GENERATOR_ID}"]


#: Each command's line in ``kljnsim --help``.
COMMAND_HELP = {
    "solve": "solve branch noise levels and temperatures, check security equalities",
    "simulate": "simulate key-exchange bits and write per-bit CSV",
    "attack": "run the zero-crossing attack and report Eve's success probability",
    "hist": "histogram a per-bit statistic for the LH/HL populations",
    "table1": "simulated wire moments for all benchmark schemes vs reference values",
    "table2": "attack outcome for all benchmark schemes vs reference values",
}


def help_text(monkeypatch, capsys, argv) -> str:
    """What ``main(argv)`` prints for ``--help`` at 200 columns, after checking it exits 0."""
    monkeypatch.setenv("COLUMNS", "200")   # one line per command
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command_with_its_help_line(monkeypatch, capsys):
    out = help_text(monkeypatch, capsys, ["--help"])
    assert "{" + ",".join(COMMAND_HELP) + "}" in out
    for command, line in COMMAND_HELP.items():
        assert re.search(rf"^ +{command} +{re.escape(line)}$", out, re.MULTILINE), out


@pytest.mark.parametrize("command", COMMAND_HELP)
def test_only_hist_offers_statistic_and_bins(monkeypatch, capsys, command):
    out = help_text(monkeypatch, capsys, [command, "--help"])
    assert f"usage: kljnsim {command} " in out and "--output-prefix" in out
    assert ("--statistic" in out, "--bins" in out) == (command == "hist",) * 2


def test_main_runs_the_module_attribute_of_each_command(tmp_path, monkeypatch):
    # Replacing cli.cmd_<name> after import must change what main runs.
    cfg_path = write_config(tmp_path, CLASSIC_TEXT)
    calls = []
    for command in COMMAND_HELP:
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda config, *extra, command=command: calls.append((command, extra)))
    for command in COMMAND_HELP:
        assert main([command, cfg_path]) == 0
    assert main(["hist", cfg_path, "--statistic", "u2", "--bins", "5"]) == 0
    assert calls == [(command, ("u_zc2", 30) if command == "hist" else ())
                     for command in COMMAND_HELP] + [("hist", ("u2", 5))]


@pytest.mark.parametrize("command", sorted(set(COMMAND_OUTPUT) - {"solve"}))
def test_output_is_independent_of_worker_count(tmp_path, monkeypatch, capsys, command):
    # With the fan-out floor at one sample, every simulate_bits call of two or
    # more bits runs in the pool when there are two workers.
    cfg_path = write_config(
        tmp_path,
        "kind = vmg\nr_ha = 46416\nr_la = 278\nr_hb = 278\nr_lb = 100\n"
        "samples_per_bit = 1024\noversample = 4\nbits_per_run = 30\nruns = 2\nseed = 11\n"
        "calibration_bits = 100\nzc_mode = interpolated\n",
    )
    monkeypatch.setattr(protocol, "FAN_OUT_SAMPLES", 1)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(protocol, "WORKERS", workers)
        assert main([command, cfg_path, "--output-prefix", str(tmp_path / "out")]) == 0
        outputs.append(((tmp_path / f"out_{COMMAND_OUTPUT[command]}.csv").read_bytes(),
                        capsys.readouterr()))
    assert outputs[0] == outputs[1]


def _die(*args):
    os._exit(1)


def test_broken_worker_pool_exit_4(tmp_path, monkeypatch, capsys, pool_spy):
    cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON)
    monkeypatch.setattr(protocol, "FAN_OUT_SAMPLES", 1)
    monkeypatch.setattr(protocol, "WORKERS", 2)
    simulate_bits = protocol._simulate_bits
    monkeypatch.setattr(protocol, "_simulate_bits", _die)
    assert main(["simulate", cfg_path, "--output-prefix", str(tmp_path / "a")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Traceback" not in err
    # The broken pool is dropped: the next pooled call opens a fresh one.
    monkeypatch.setattr(protocol, "_simulate_bits", simulate_bits)
    assert main(["simulate", cfg_path, "--output-prefix", str(tmp_path / "b")]) == 0
    assert pool_spy == [2, 2]


def test_one_pool_serves_calibration_and_session(tmp_path, monkeypatch, pool_spy):
    # An attack simulates Eve's LH and HL calibration bits in one call, then
    # the session's LH and HL bits in a second.
    cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON + "calibration_bits = 100\n")
    monkeypatch.setattr(protocol, "FAN_OUT_SAMPLES", 1)
    monkeypatch.setattr(protocol, "WORKERS", 2)
    calls = []
    simulate_bits = protocol.simulate_bits

    def counted(*args):
        calls.append(len(args[3]))
        return simulate_bits(*args)

    monkeypatch.setattr(protocol, "simulate_bits", counted)
    assert main(["attack", cfg_path, "--output-prefix", str(tmp_path / "a")]) == 0
    assert len(calls) == 2 and calls[0] == 2 * 100 and min(calls) >= 2
    assert pool_spy == [2]


#: Runs one ``simulate`` with every call pooled on two workers and prints the
#: pid of each process it starts.  With ``die``, every worker exits at once.
POOLED_SIMULATE = """
import multiprocessing.process, os, sys
from kljnsim import protocol
from kljnsim.cli import main

def _die(*args):
    os._exit(1)

if __name__ == "__main__":
    start = multiprocessing.process.BaseProcess.start

    def start_and_report(process):
        start(process)
        print("worker", process.pid, flush=True)

    multiprocessing.process.BaseProcess.start = start_and_report
    protocol.FAN_OUT_SAMPLES = 1
    protocol.WORKERS = 2
    if sys.argv[1] == "die":
        protocol._simulate_bits = _die
    sys.exit(main(["simulate", sys.argv[2], "--output-prefix", sys.argv[3]]))
"""


@pytest.mark.parametrize("mode, code", [("run", 0), ("die", 4)])
def test_no_worker_outlives_the_command(tmp_path, mode, code):
    cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON)
    script = tmp_path / "pooled_simulate.py"
    script.write_text(POOLED_SIMULATE, encoding="utf-8")
    proc = subprocess.run([sys.executable, str(script), mode, cfg_path, str(tmp_path / "out")],
                          env=src_env(), capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == code, proc.stderr
    if mode == "run":   # the pool's exit prints nothing
        assert proc.stderr == ""
    pids = [int(line.split()[1]) for line in proc.stdout.splitlines() if line.startswith("worker ")]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


POOLED_COMMAND = """
import sys
from kljnsim import protocol
from kljnsim.cli import main

if __name__ == "__main__":
    protocol.FAN_OUT_SAMPLES = 1
    protocol.WORKERS = 2
    code = main([sys.argv[1], sys.argv[2], "--output-prefix", sys.argv[3]])
    assert "numpy.random" not in sys.modules
    sys.exit(code)
"""


@pytest.mark.parametrize("command", ["simulate", "attack"])
def test_pooled_command_leaves_numpy_random_unloaded(tmp_path, command):
    # Pooled, every generator is built in a worker, and the choices and
    # Eve's coins come from noise.fair_bits, which builds none: importing
    # numpy.random in the calling process would raise its peak memory.
    cfg_path = write_config(tmp_path, CLASSIC_TEXT + SMALL_COMMON)
    script = tmp_path / "pooled_command.py"
    script.write_text(POOLED_COMMAND, encoding="utf-8")
    proc = subprocess.run([sys.executable, str(script), command, cfg_path, str(tmp_path / "out")],
                          env=src_env(), capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures is imported only when a call fans out: at import time
    # it would add tens of milliseconds to every command's start-up.
    code = "import kljnsim.cli, sys; assert 'concurrent.futures' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=src_env(), check=True, timeout=120)
