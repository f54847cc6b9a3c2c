"""Every demo and every sample config runs to completion against the library in ``src/``."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from kljnsim.cli import main, parse_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = sorted((ROOT / "demos").glob("*.cfg"))


@pytest.mark.parametrize("config", CONFIGS, ids=[config.name for config in CONFIGS])
def test_sample_config_parses_and_solves(config, tmp_path):
    parse_config(config.read_text(encoding="utf-8"))
    assert main(["solve", str(config), "--output-prefix", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out_solution.csv").is_file()


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr


#: Runs a demo as ``__main__`` with processes started by "spawn", the default
#: on macOS: each pool worker imports the demo again, which must not rerun it.
RUN_UNDER_SPAWN = ("import multiprocessing, runpy, sys; multiprocessing.set_start_method('spawn'); "
                   "runpy.run_path(sys.argv[1], run_name='__main__')")


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_under_spawn(demo, tmp_path):
    proc = subprocess.run([sys.executable, "-c", RUN_UNDER_SPAWN, str(demo)], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True, timeout=600,
                          check=False)
    assert proc.returncode == 0, proc.stderr
