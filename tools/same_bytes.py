#!/usr/bin/env python3
"""Check that two source trees give the same CLI output, byte for byte.

    python3 tools/same_bytes.py PARENT CHANGE OUT

PARENT and CHANGE are checkouts of this repository, each with a ``src``
directory; OUT must not exist yet.  A fixed matrix of ``kljnsim`` commands
runs on each tree: ``solve``, ``simulate``, ``attack`` and ``hist`` (each
statistic) on a classic, a VMG (vmg2's quadruple) and an FCK1 scheme, and
``table1`` and ``table2`` (which build their own schemes), in every
``zc_mode`` at 1024 samples and oversample 4, 257 and 1.5, and 2048 and 1.
The matrix runs three times per tree, each in a subprocess that imports
that tree's ``src``: inline (``WORKERS = 1``), and with every
``simulate_bits`` call split over two workers (``WORKERS = 2``,
``FAN_OUT_SAMPLES = 1``) under the ``fork`` and the ``forkserver`` start
methods.  Every CSV, stdout, stderr and exit code is compared between
the trees, and within each tree the ``fork`` and ``forkserver`` outputs
with the inline ones, as the worker count must not change a byte.  Passing
one tree as both PARENT and CHANGE checks that two runs of it agree.  The
first differences are printed, and the exit status is 1 if there is any.
Standard library only.  About 35 s on a 2-vCPU host.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

SCHEMES = {   # name: (resistor keys, master seed)
    "classic": ("kind = classic\nr_l = 1000.0\nr_h = 10000.0\n", 2**64 + 5),
    "vmg": ("kind = vmg\nr_ha = 46416.0\nr_la = 278.0\nr_hb = 278.0\nr_lb = 100.0\n", 2**32),
    "fck1": ("kind = fck1\nr_ha = 100000.0\nr_la = 10000.0\nr_hb = 10000.0\n", 3),
}
ZC_MODES = ("interpolated", "sample_before", "sample_after", "nearest")
GEOMETRIES = ((1024, 4.0), (257, 1.5), (2048, 1.0))
SIZES = "bits_per_run = 20\nruns = 2\ncalibration_bits = 100\n"
VARIANTS = ("inline", "fork", "forkserver")
SHOWN = 10   # differing files printed in full


def cases():
    """Yield ``(name, config text, argv after the config path)`` for every run of the matrix."""
    for mode in ZC_MODES:
        for samples, oversample in GEOMETRIES:
            sampling = f"zc_mode = {mode}\nsamples_per_bit = {samples}\noversample = {oversample}\n"
            for scheme, (resistors, seed) in SCHEMES.items():
                config = resistors + sampling + SIZES + f"seed = {seed}\n"
                stem = f"{scheme}_{mode}_{samples}"
                commands = [("solve", []), ("simulate", []), ("attack", [])]
                commands += [(f"hist_{stat}", ["--statistic", stat]) for stat in ("u2", "i2", "u_zc2")]
                if scheme == "classic":   # the tables ignore the config's resistors
                    commands += [("table1", []), ("table2", [])]
                for command, extra in commands:
                    yield f"{stem}_{command}", config, [command.split("_")[0], *extra]


def run_matrix(variant: str) -> None:
    """Run every case in the current directory with the ``kljnsim`` on ``sys.path``."""
    import multiprocessing

    from kljnsim import protocol
    from kljnsim.cli import main

    if variant == "inline":
        protocol.WORKERS = 1
    else:
        multiprocessing.set_start_method(variant)
        protocol.WORKERS, protocol.FAN_OUT_SAMPLES = 2, 1
    for name, config, argv in cases():
        Path(f"{name}.cfg").write_text(config, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        # A fresh filter clears the warning registries, so each case warns
        # as a fresh process would.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = main([argv[0], f"{name}.cfg", "--output-prefix", name, *argv[1:]])
            except Exception as exc:   # recorded and compared, so the matrix runs on
                code = f"{type(exc).__name__}: {exc}"
        Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")
        Path(f"{name}.stderr").write_text(err.getvalue(), encoding="utf-8")
        Path(f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")


def first_difference(a: bytes, b: bytes, sides: tuple[str, str]) -> str:
    """The first line that differs between ``a`` and ``b``, from each of the named ``sides``."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for k in range(max(len(lines_a), len(lines_b))):
        left = lines_a[k] if k < len(lines_a) else b"<end of file>"
        right = lines_b[k] if k < len(lines_b) else b"<end of file>"
        if left != right:
            return (f"line {k + 1}:\n    {sides[0]}: {left[:200]!r}\n"
                    f"    {sides[1]}: {right[:200]!r}")
    return "same lines, different line endings"


def compare(left: Path, right: Path, sides: tuple[str, str]) -> list[str]:
    """One report per file that differs or exists on one side only, the two named ``sides``."""
    names = sorted({p.relative_to(left) for p in left.rglob("*") if p.is_file()}
                   | {p.relative_to(right) for p in right.rglob("*") if p.is_file()})
    reports = []
    for name in names:
        a, b = left / name, right / name
        if not (a.exists() and b.exists()):
            reports.append(f"{name}: only in {sides[0] if a.exists() else sides[1]}")
        elif a.read_bytes() != b.read_bytes():
            reports.append(f"{name}: {first_difference(a.read_bytes(), b.read_bytes(), sides)}")
    return reports


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--run":   # a subprocess on one tree
        os.chdir(argv[2])
        run_matrix(argv[1])
        return 0
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    out = Path(argv[2]).resolve()
    out.mkdir(parents=True)
    for variant in VARIANTS:
        for side, tree in trees.items():
            work = out / side / variant
            work.mkdir(parents=True)
            start = time.perf_counter()
            env = {**os.environ, "PYTHONPATH": str(tree / "src")}
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run", variant,
                            str(work)], env=env, check=True)
            print(f"{side} {variant}: {time.perf_counter() - start:.1f} s", flush=True)
    checks = [(out / "parent", out / "change", ("parent", "change"))]
    checks += [(out / side / "inline", out / side / variant,
                (f"{side} inline", f"{side} {variant}"))
               for side in trees for variant in VARIANTS[1:]]
    differ = 0
    for left, right, sides in checks:
        reports = compare(left, right, sides)
        for report in reports[:SHOWN]:
            print(report)
        files = sum(1 for p in left.rglob("*") if p.is_file())
        print(f"{sides[0]} vs {sides[1]}: {len(reports)} of {files} files differ")
        differ += len(reports)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
