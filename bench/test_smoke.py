"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Every workload must emit every metric that ``BENCHMARK.json`` names, with
its unit, in both modes; a corrupted output must count as a failed
experiment.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name, trace=False, corrupt=None):
    return run.run_workload(WORKLOADS[name], seed=7, seconds=0.1, trace=trace, size="tiny",
                            setup_samples=1, corrupt=corrupt)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_with_its_unit(name, trace):
    result = _tiny(name, trace)
    assert (result["correct"], result["failed"]) == (True, 0), result["experiments"]
    assert result["attempted"] >= (2 if trace else 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_trace_counts_calls_through_names_imported_elsewhere():
    # protocol calls synthesize and derive_seed through names it imported
    # from noise; the counts show those copies were patched too.
    metrics = _tiny("simulate_shortbits", trace=True)["metrics"]
    assert metrics["noise.synthesize.calls_per_bit"]["value"] == 2
    assert metrics["noise.derive_seed.calls_per_bit"]["value"] == 3
    assert metrics["attack.attack_statistics.self_frac"]["value"] == 0

    import kljnsim.noise
    import kljnsim.protocol

    assert kljnsim.protocol.synthesize is kljnsim.noise.synthesize
    assert not hasattr(kljnsim.noise.synthesize, "__wrapped__")


def test_tracer_skips_a_module_that_does_not_exist(monkeypatch):
    monkeypatch.setattr(spans, "MODULES", spans.MODULES + ("removed",))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert not any(name.startswith("removed.") for name in tracer.names)


def _scale_field(path, column, factor):
    """Multiply ``column`` of the first data row of a kljnsim CSV by ``factor``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    header = lines[header_at].rstrip("\n").split(",")
    row = lines[header_at + 1].rstrip("\n").split(",")
    j = header.index(column)
    row[j] = repr(float(row[j]) * factor)
    lines[header_at + 1] = ",".join(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _scale_footer(path, key, factor):
    text = path.read_text(encoding="utf-8")
    line = next(line for line in text.splitlines() if line.startswith(f"# {key}="))
    value = float(line.partition("=")[2])
    path.write_text(text.replace(line, f"# {key}={value * factor!r}"), encoding="utf-8")


CORRUPTIONS = {
    "attack_vmg2": lambda path: _scale_footer(path, "cal_mean_zc_lh", 1.5),
    "moments_longtrace": lambda path: _scale_field(path, "u2_sim", 1.5),
    "simulate_shortbits": lambda path: _scale_field(path, "u2", 1000.0),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_raises_error_rate(name):
    result = _tiny(name, corrupt=CORRUPTIONS[name])
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False
