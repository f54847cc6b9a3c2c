import concurrent.futures
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from kljnsim import protocol
from kljnsim.noise import fill_band

# A counterexample found in CI prints a @reproduce_failure blob: the runner's
# example database is lost with the runner.  GitHub Actions sets CI.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def src_env(**extra) -> dict:
    """The environment of a test's Python subprocess: ``src/`` importable, a RuntimeWarning an error.

    pyproject.toml's ``filterwarnings`` reaches only the pytest process, so a
    0/0 in a subprocess, or in its pool's workers, would otherwise pass
    silently.  ``extra`` sets further variables.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, **extra, "PYTHONWARNINGS": "error::RuntimeWarning",
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def band_trace(mean_square: float, oversample: float, n: int, seed: int) -> np.ndarray:
    """One noise trace as the kernel draws it: ``fill_band`` from ``default_rng(seed)``, inverse FFT.

    ``oversample`` is sample_rate / (2 * bandwidth), as in ``Sampling``.
    """
    spectrum = fill_band(protocol.Sampling(n, oversample), [mean_square],
                         [np.random.default_rng(seed)])[0]
    return np.fft.irfft(spectrum, n=n)


class PoolSpy(concurrent.futures.ProcessPoolExecutor):
    """A ProcessPoolExecutor that records the worker count of every pool opened."""

    opened: list = []

    def __init__(self, max_workers=None, *args, **kwargs):
        PoolSpy.opened.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)


@pytest.fixture
def pool_spy(monkeypatch):
    """The worker counts of the pools simulate_bits opens, in order.

    simulate_bits keeps its pool open between calls, so the pool is closed
    before the test, where one left open by an earlier test would hide from
    the spy, and after it.
    """
    protocol._close_pool()
    monkeypatch.setattr(PoolSpy, "opened", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolSpy)
    yield PoolSpy.opened
    protocol._close_pool()
