#!/usr/bin/env python3
"""kljnsim benchmark: bits/s on three Monte Carlo workloads, plus a traced per-layer run.

    python3 bench/run.py --workload attack_vmg2 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``.
One process runs one workload as a closed loop with one client: experiments
(one ``kljnsim`` CLI command each, through ``kljnsim.cli.main``) run back to
back until the next one would end after ``--seconds``.  Every output is
checked against the library's closed-form oracles.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``bench/README.md`` explains every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fnmatch import fnmatchcase
from pathlib import Path

from spans import ROOT as ROOT_SPAN, Tracer
from workloads import WORKLOADS, Workload, config_text, experiment_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 5


#: Layers reported as self time per simulated bit: metric prefix -> span name pattern.
PER_BIT_LAYERS = {
    name: name for name in (
        "noise.synthesize", "noise.derive_seed", "noise.sample_moments",
        "circuit.wire_observables", "circuit.measure_moments",
        "protocol.run_session", "protocol.case_wire",
        "attack.detect_zero_crossings", "attack.zc_mean_square",
        "benchmarks.measure_case_moments",
    )
} | {"cli.cmd": "cli.cmd_*"}

#: Layers reported as self time per secure bit Eve scores.
PER_SECURE_BIT_LAYERS = ("attack.attack_statistics", "attack.eve_guess_bit")


def _count_crossings(counts, args, result):
    counts["crossings"] += result.values.size


def _count_coin_flips(counts, args, result):
    u_zc2, cal = args[0], args[1]
    counts["coin_flips"] += cal.polarity == "indistinct" or u_zc2 is None


def _count_secure_bits(counts, args, result):
    counts["secure_bits"] += result.n_secure_bits
    counts["excluded_runs"] += result.n_excluded_runs


def _count_session(counts, args, result):
    for run in result:
        counts["session_bits"] += len(run.records)
        counts["session_secure"] += run.secure_count
        counts["classification_errors"] += run.classification_error_count


OBSERVERS = {
    "attack.detect_zero_crossings": _count_crossings,
    "attack.eve_guess_bit": _count_coin_flips,
    "attack.attack_statistics": _count_secure_bits,
    "protocol.run_session": _count_session,
}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    from kljnsim import noise

    cpu_model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), cpu_model)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=True)
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "kljnsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "generator_id": getattr(noise, "GENERATOR_ID", "unknown"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def probe_setup(cfg_path: Path) -> dict:
    """Set-up time of one fresh interpreter: import, config parse, scheme solve."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), str(cfg_path)],
                          env=env, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()}")
    stamps = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"setup_s": stamps["ready"] - t0, "import_s": stamps["import_done"] - t0,
            "parse_s": stamps["parse_s"], "build_s": stamps["build_s"]}


def run_cli(cli, argv: list) -> int | None:
    """Exit code of ``kljnsim.cli.main(argv)``; None if it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the benchmark counts the experiment as failed and goes on
        traceback.print_exc()
        return None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, *,
                 size: str = "full", setup_samples: int = SETUP_SAMPLES,
                 corrupt=None) -> dict:
    """Run one workload for ``seconds`` and return its result.

    ``corrupt(path)``, if given, is applied to each experiment's output
    before it is checked (the smoke test uses it to show checks fail).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        return _run(workload, seed, seconds, trace, workload.sized(size), setup_samples,
                    corrupt, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write_config(workload: Workload, settings: dict, work: Path, tag: str):
    settings = {**settings, "output_prefix": str(work / tag)}
    cfg = work / f"{tag}.cfg"
    cfg.write_text(config_text(settings), encoding="utf-8")
    return settings, cfg, Path(settings["output_prefix"] + workload.output)


def _run(workload, seed, seconds, trace, base, setup_samples, corrupt, work) -> dict:
    def settings_of(index: int) -> dict:
        return {**base, "seed": experiment_seed(workload.name, seed, index)}

    _, cfg0, _ = _write_config(workload, settings_of(0), work, "probe")
    setups = [probe_setup(cfg0) for _ in range(setup_samples)]

    from kljnsim import cli

    tracer = Tracer(OBSERVERS) if trace else None
    experiments = []
    t_start = time.perf_counter()
    while True:
        index = len(experiments)
        traced = trace and index % 2 == 1
        settings, cfg, out = _write_config(workload, settings_of(index), work, f"e{index}")
        argv = [workload.command, str(cfg)]
        t0 = time.perf_counter()
        code = tracer.call(index, run_cli, cli, argv) if traced else run_cli(cli, argv)
        wall = time.perf_counter() - t0
        errors = [] if code == 0 else [f"exit code {code}"]
        if corrupt is not None and out.exists():
            corrupt(out)
        if code == 0:
            try:
                errors += workload.check(settings, out)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                errors.append(f"output check raised {exc!r}")
        experiments.append({
            "seed": settings["seed"], "traced": traced, "wall_s": wall,
            "bits": workload.requested_bits(settings), "errors": errors,
            "output_bytes": out.stat().st_size if out.exists() else 0,
        })
        if index > 0:  # the first output is kept for the re-run comparison
            out.unlink(missing_ok=True)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(e["wall_s"] for e in experiments)
        both_kinds = not trace or len(experiments) >= 2
        if both_kinds and elapsed + typical > seconds:
            break

    if workload.rerun_identical:
        first = experiments[0]
        out0 = Path(str(work / "e0") + workload.output)
        _, cfg, rerun = _write_config(workload, settings_of(0), work, "rerun")
        if run_cli(cli, [workload.command, str(cfg)]) != 0 or not (
            out0.exists() and rerun.exists() and out0.read_bytes() == rerun.read_bytes()
        ):
            first["errors"].append("re-running the same seed did not give a byte-identical CSV")

    for index, e in enumerate(experiments):
        for err in e["errors"][:5]:
            print(f"experiment {index} (seed {e['seed']}) failed: {err}", file=sys.stderr)
    failed = sum(1 for e in experiments if e["errors"])
    if trace:
        metrics = layer_metrics(tracer, experiments, setups, base)
        spans_path = OUT / f"{workload.name}-seed{seed}-spans.npz"
        tracer.save(spans_path)
        if tracer.counts["observer_errors"]:
            print(f"warning: {tracer.counts['observer_errors']} observer errors", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(experiments, setups)
    return {
        "correct": failed == 0,
        "attempted": len(experiments),
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance(seed),
        "experiments": experiments,
        "setup_samples": setups,
    }


def end_to_end_metrics(experiments: list, setups: list) -> dict:
    walls = [e["wall_s"] for e in experiments]
    return {
        "bits_per_s": {"value": sum(e["bits"] for e in experiments) / sum(walls),
                       "unit": "bits/s"},
        "experiment_s_p50": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }


def layer_metrics(tracer, experiments: list, setups: list, settings: dict) -> dict:
    layers = tracer.layers()
    counts = tracer.counts
    traced = [e for e in experiments if e["traced"]]
    untraced = [e for e in experiments if not e["traced"]]
    bits = sum(e["bits"] for e in traced)
    secure = counts["secure_bits"]
    session_bits = counts["session_bits"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    wall = get(ROOT_SPAN, "total_s")
    metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": float(value), "unit": unit}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    put("kljnsim.import_s", statistics.median(s["import_s"] for s in setups), "s")
    put("cli.parse_config_us", 1e6 * statistics.median(s["parse_s"] for s in setups), "us")
    put("schemes.build_us", 1e6 * statistics.median(s["build_s"] for s in setups), "us")

    attributed = 0.0
    for prefix, pattern in PER_BIT_LAYERS.items():
        self_s = sum(v["self_s"] for name, v in layers.items() if fnmatchcase(name, pattern))
        attributed += self_s
        put(f"{prefix}.self_us_per_bit", 1e6 * ratio(self_s, bits), "us/bit")
        put(f"{prefix}.self_frac", ratio(self_s, wall), "fraction")
    for name in PER_SECURE_BIT_LAYERS:
        attributed += get(name, "self_s")
        put(f"{name}.self_us_per_secure_bit", 1e6 * ratio(get(name, "self_s"), secure),
            "us/secure_bit")
        put(f"{name}.self_frac", ratio(get(name, "self_s"), wall), "fraction")
    attributed += get("benchmarks.run_attack_experiment", "self_s")
    put("benchmarks.run_attack_experiment.self_us",
        1e6 * ratio(get("benchmarks.run_attack_experiment", "self_s"),
                    get("benchmarks.run_attack_experiment", "calls")), "us")

    n = settings["samples_per_bit"]
    synth_calls_per_bit = ratio(get("noise.synthesize", "calls"), bits)
    put("noise.synthesize.calls_per_bit", synth_calls_per_bit, "calls/bit")
    # Computed, not measured: a length-n real inverse FFT at 2.5 n log2 n
    # flops; bytes are the complex coefficient array written once and read
    # once by the FFT plus the real output written once.
    put("noise.synthesize.mflop_per_bit", synth_calls_per_bit * 2.5 * n * math.log2(n) / 1e6,
        "Mflop/bit")
    put("noise.synthesize.mb_per_bit",
        synth_calls_per_bit * (2 * 16 * (n // 2 + 1) + 8 * n) / 1e6, "MB/bit")
    put("noise.derive_seed.calls_per_bit", ratio(get("noise.derive_seed", "calls"), bits),
        "calls/bit")

    put("protocol.classification_error_frac",
        ratio(counts["classification_errors"], session_bits), "fraction")
    put("protocol.secure_frac", ratio(counts["session_secure"], session_bits), "fraction")
    put("attack.crossings_per_bit", ratio(counts["crossings"], bits), "crossings/bit")
    put("attack.calibrate.wall_s",
        ratio(get("attack.calibrate", "total_s"), get("attack.calibrate", "calls")), "s")
    put("attack.coin_flip_frac", ratio(counts["coin_flips"], secure), "fraction")
    put("attack.excluded_runs", counts["excluded_runs"], "count")
    put("attack.calibration_failures", counts["attack.calibrate.raised"], "count")
    put("cli.csv_bytes_per_bit",
        ratio(sum(e["output_bytes"] for e in traced), bits), "B/bit")

    put("trace.overhead_frac", statistics.median(e["wall_s"] for e in traced)
        / statistics.median(e["wall_s"] for e in untraced) - 1.0, "fraction")
    put("trace.unattributed_frac", 1.0 - ratio(attributed, wall), "fraction")
    return metrics


def report(workload: str, seed: int, trace: bool, result: dict) -> None:
    """Human-readable lines, the provenance stamp, then the JSON result line."""
    timed = [e for e in result["experiments"] if not e["traced"]]
    notes = {
        "experiment_s_p50": f"median of n={len(timed)} experiments; no tail percentile "
                            f"(fewer than 11 samples)",
        "setup_s": f"median of {len(result['setup_samples'])} fresh interpreters",
    }
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"experiments {result['attempted']} ({len(timed)} untraced)")
    for name, m in result["metrics"].items():
        note = notes.get(name, "")
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}   {note}".rstrip())
    print(f"  {'error_rate':<52} {result['failed'] / result['attempted']:>14.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']} experiments)")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "kljnsim" / "__init__.py").is_file():
        print(f"error: no kljnsim sources in {SRC}; run the benchmark inside a checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace)
    saved = {key: result[key] for key in
             ("correct", "attempted", "failed", "metrics", "provenance", "experiments",
              "setup_samples")}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    report(args.workload, args.seed, trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
