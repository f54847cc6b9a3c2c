import concurrent.futures
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from kljnsim import benchmarks, protocol
from kljnsim.attack import attack_statistics, calibrate
from kljnsim.circuit import ZC_MODES, MomentSummary
from kljnsim.errors import ConfigurationError
from kljnsim.noise import (
    BRANCH_STREAMS,
    STREAM_CHOICES,
    NoiseSpec,
    _in_band_bin_count,
    derive_seed,
    synthesize,
)
from kljnsim.protocol import (
    BLOCK_SAMPLES,
    CASES,
    Sampling,
    SessionConfig,
    _infer_partner,
    run_session,
    secure_bit_value,
    simulate_bits,
    simulate_secure_bits,
)
from kljnsim.schemes import case_branches, classic_kljn, fck1_kljn, level_table, solve_vmg


def case_wire(scheme, case, samples_per_bit, sample_rate, entropy_prefix):
    """Time-domain reference for one bit: synthesize both connected branches, solve the wire.

    Returns the wire voltage and current ``(u_c, i_c)``.  The branch seeds
    extend ``entropy_prefix`` with the branch stream tag, as in ``simulate_bits``.
    """
    a_id, b_id = case[0] + "A", case[1] + "B"
    u_a, u_b = (
        synthesize(NoiseSpec(
            mean_square=scheme.branches[bid].mean_square,
            bandwidth=scheme.bandwidth,
            sample_rate=sample_rate,
            num_samples=samples_per_bit,
            seed=derive_seed(*entropy_prefix, BRANCH_STREAMS[bid]),
        )).samples
        for bid in (a_id, b_id)
    )
    r_a, r_b = scheme.branches[a_id].resistance, scheme.branches[b_id].resistance
    return (u_a * r_b + u_b * r_a) / (r_a + r_b), (u_a - u_b) / (r_a + r_b)


def reference_zero_crossings(i, u, mode: str, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-trace reference for the crossing search: ``(values, times)`` of one wire."""
    dt = 1.0 / sample_rate
    exact = np.flatnonzero(i == 0.0)
    neg, pos = i < 0.0, i > 0.0
    kk = np.flatnonzero((neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:]))
    if mode == "interpolated":
        frac = i[kk] / (i[kk] - i[kk + 1])
        times = (kk + frac) * dt
        values = u[kk] + frac * (u[kk + 1] - u[kk])
    elif mode == "sample_before":
        times = kk * dt
        values = u[kk]
    elif mode == "sample_after":
        times = (kk + 1) * dt
        values = u[kk + 1]
    else:  # nearest
        pick = kk + (np.abs(i[kk + 1]) < np.abs(i[kk]))
        times = pick * dt
        values = u[pick]
    if exact.size:
        times = np.concatenate([times, exact * dt])
        values = np.concatenate([values, u[exact]])
        order = np.argsort(times, kind="stable")
        times = times[order]
        values = values[order]
    if times.size > 1:
        keep = np.concatenate([[True], np.diff(times) > 0.0])
        times = times[keep]
        values = values[keep]
    return values, times


def reference_fill_band(band, num_samples, mean_square, rng):
    """Per-trace reference for ``noise.fill_band``: three draws, real, imaginary, Nyquist."""
    n = num_samples
    k_max = band.size
    has_nyquist = (n % 2 == 0) and (k_max == n // 2)
    m = k_max - 1 if has_nyquist else k_max
    scale = n * math.sqrt(mean_square / (2 * m + (1 if has_nyquist else 0)))
    parts = band.view(np.float64)
    np.multiply(rng.standard_normal(m), scale / math.sqrt(2.0), out=parts[0 : 2 * m : 2])
    np.multiply(rng.standard_normal(m), scale / math.sqrt(2.0), out=parts[1 : 2 * m : 2])
    if has_nyquist:
        parts[2 * m] = scale * rng.standard_normal()
        parts[2 * m + 1] = 0.0


def reference_band_geometry(scheme, sampling) -> tuple[int, bool, int]:
    """``(k_max, has_nyquist, m2)``: in-band bins, whether the last is Nyquist, weight-2 parts."""
    n = sampling.samples_per_bit
    k_max = _in_band_bin_count(n, sampling.sample_rate(scheme.bandwidth), scheme.bandwidth)
    has_nyquist = (n % 2 == 0) and (k_max == n // 2)
    return k_max, has_nyquist, 2 * (k_max - 1 if has_nyquist else k_max)


def reference_wire_spectra(scheme, sampling, case, prefix) -> np.ndarray:
    """One bit's ``(2, n // 2 + 1)`` wire spectra, U then I, solved bin by bin as the kernel does."""
    n = sampling.samples_per_bit
    k_max, _, _ = reference_band_geometry(scheme, sampling)
    a_id, b_id = case_branches(CASES[case])
    a, b = scheme.branches[a_id], scheme.branches[b_id]
    spectra = np.zeros((2, n // 2 + 1), dtype=np.complex128)
    bands = spectra[:, 1 : k_max + 1]
    for band, (bid, branch) in zip(bands, ((a_id, a), (b_id, b))):
        rng = np.random.default_rng(derive_seed(*prefix, BRANCH_STREAMS[bid]))
        reference_fill_band(band, n, branch.mean_square, rng)
    u, i = bands.view(np.float64)
    xb_ra = i * a.resistance
    np.subtract(u, i, out=i)
    i /= a.resistance + b.resistance
    u *= b.resistance
    u += xb_ra
    u /= a.resistance + b.resistance
    return spectra


def reference_simulate_bits(scheme, sampling, cases, entropy_prefixes) -> dict:
    """Per-bit reference for ``simulate_bits``, with the same arithmetic: its columns by name.

    Each bit draws its two branch spectra, solves the wire bin by bin, takes
    the moments by Parseval and inverse-transforms its own two traces.  The
    Parseval sum adds one ``np.dot`` per chunk of ``protocol._DOT_CHUNK``
    parts, left to right, as the kernel folds its chunks.
    """
    n = sampling.samples_per_bit
    sample_rate = sampling.sample_rate(scheme.bandwidth)
    k_max, has_nyquist, m2 = reference_band_geometry(scheme, sampling)
    chunk = protocol._DOT_CHUNK

    def parseval(x, y):
        s = 0.0
        for lo in range(0, m2, chunk):
            s += float(np.dot(x[lo : min(lo + chunk, m2)], y[lo : min(lo + chunk, m2)]))
        s *= 2.0
        if has_nyquist:
            s += float(x[m2] * y[m2])
        return s / (n * n)

    columns = {name: [] for name in COLUMNS}
    for case, prefix in zip(cases, entropy_prefixes):
        spectra = reference_wire_spectra(scheme, sampling, case, prefix)
        u, i = spectra[:, 1 : k_max + 1].view(np.float64)
        u_c, i_c = np.fft.irfft(spectra, n=n, axis=-1)
        values, _ = reference_zero_crossings(i_c, u_c, sampling.zc_mode, sample_rate)
        for name, value in (("case", case), ("u2", parseval(u, u)), ("i2", parseval(i, i)),
                            ("p_ab", parseval(u, i)), ("n_zc", values.size),
                            ("u_zc2", np.mean(values * values))):
            columns[name].append(value)
    return {name: np.array(column) for name, column in columns.items()}


@pytest.fixture(scope="module")
def classic_scheme():
    return classic_kljn(1e3, 1e4, 1.0, 500.0)


class TestBitCase:
    def test_labels(self, classic_scheme):
        bits = simulate_bits(classic_scheme, Sampling(64, 16.0), [1, 2], [(9, 0, 0), (9, 0, 1)])
        assert [CASES[c] for c in bits.case] == ["LH", "HL"]

    def test_secure_flag(self, classic_scheme):
        bits = simulate_bits(classic_scheme, Sampling(64, 16.0), [0, 1, 2, 3],
                             [(9, 0, k) for k in range(4)])
        assert bits.secure.tolist() == [False, True, True, False]

    def test_validation(self, classic_scheme):
        with pytest.raises(ValueError):
            simulate_bits(classic_scheme, Sampling(64, 16.0), [4], [(9, 0, 0)])
        with pytest.raises(ValueError):
            simulate_bits(classic_scheme, Sampling(64, 16.0), [-1], [(9, 0, 0)])
        with pytest.raises(ValueError):
            simulate_bits(classic_scheme, Sampling(64, 16.0), [1, 2], [(9, 0, 0)])


#: (samples per bit, oversample, bits) of the reference fixtures: even n; odd
#: n; even n at oversample 1, so the Nyquist bin is in band; the two shortest
#: traces; a bit count that is not a multiple of the inverse-FFT block; and
#: rows of one, four and 14 chunks of Parseval sums.
REFERENCE_FIXTURES = [
    (256, 8.0, 20),
    (255, 8.0, 12),
    (256, 1.0, 12),
    (2, 1.0, 12),
    (3, 1.0, 12),
    (2**14, 16.0, BLOCK_SAMPLES // 2**14 * 2 + 2),
    (10001, 1.0, 8),   # 10,000 parts per row: the longest row summed in one chunk
    (40002, 1.0, 4),   # 40,000 weight-2 parts, then the Nyquist bin alone in a fifth chunk
    (2**17, 1.0, 4),   # one bit per block
]


@pytest.mark.parametrize("mode", ZC_MODES)
def test_simulate_bits_matches_per_bit_primitives(mode):
    # Every column equals the per-bit spectral reference exactly.  The
    # time-domain reference rounds differently, since the kernel solves the
    # wire before the inverse FFT and takes moments by Parseval: floats agree
    # to 1e-12 relative (p_ab, which is near 0 at equilibrium, relative to
    # sqrt(u2 * i2)), while the case and the crossing count are exact.
    schemes = (solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0),
               fck1_kljn(1e5, 1e4, 1e4, 1.0, 500.0))
    for scheme in schemes:
        for samples_per_bit, oversample, n_bits in REFERENCE_FIXTURES:
            sampling = Sampling(samples_per_bit, oversample, mode)
            sample_rate = sampling.sample_rate(scheme.bandwidth)
            cases = [k % 4 for k in range(n_bits)]
            prefixes = [(21, samples_per_bit, k) for k in range(n_bits)]
            bits = simulate_bits(scheme, sampling, cases, prefixes)
            exact = reference_simulate_bits(scheme, sampling, cases, prefixes)
            for name in COLUMNS:
                assert np.array_equal(getattr(bits, name), exact[name]), (samples_per_bit, name)
            ref = {name: np.empty(n_bits) for name in ("u2", "i2", "p_ab", "n_zc", "u_zc2")}
            for k, (case, prefix) in enumerate(zip(cases, prefixes)):
                u_c, i_c = case_wire(scheme, CASES[case], samples_per_bit, sample_rate, prefix)
                values, _ = reference_zero_crossings(i_c, u_c, mode, sample_rate)
                ref["u2"][k], ref["i2"][k] = np.mean(u_c * u_c), np.mean(i_c * i_c)
                ref["p_ab"][k] = np.mean(u_c * i_c)
                ref["n_zc"][k] = values.size
                ref["u_zc2"][k] = np.mean(values * values)
            assert bits.case.tolist() == cases
            assert bits.n_zc.tolist() == ref["n_zc"].tolist()
            for name in ("u2", "i2", "u_zc2"):
                np.testing.assert_allclose(getattr(bits, name), ref[name], rtol=1e-12, atol=0)
            np.testing.assert_array_less(np.abs(bits.p_ab - ref["p_ab"]),
                                         1e-12 * np.sqrt(ref["u2"] * ref["i2"]))


@pytest.mark.parametrize("samples_per_bit", [10003, 2**15])
def test_parseval_sums_over_chunks_match_exact_sums(samples_per_bit):
    # 10,002 and 32,766 parts per row: the kernel folds two and four chunk
    # sums.  Each column lies within 1e-12 of the correctly rounded sum of
    # the scaled products (p_ab, which is near 0, relative to sqrt(u2 * i2)).
    scheme = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
    sampling = Sampling(samples_per_bit, 1.0)
    n = samples_per_bit
    k_max, has_nyquist, m2 = reference_band_geometry(scheme, sampling)
    assert m2 > protocol._DOT_CHUNK
    cases = [0, 1, 2, 3]
    prefixes = [(24, samples_per_bit, k) for k in range(4)]
    bits = simulate_bits(scheme, sampling, cases, prefixes)

    def exact(x, y):
        terms = (2.0 * x[:m2] * y[:m2]).tolist()
        if has_nyquist:
            terms.append(x[m2] * y[m2])
        return math.fsum(terms) / (n * n)

    for k, (case, prefix) in enumerate(zip(cases, prefixes)):
        spectra = reference_wire_spectra(scheme, sampling, case, prefix)
        u, i = spectra[:, 1 : k_max + 1].view(np.float64)
        u2, i2, p_ab = exact(u, u), exact(i, i), exact(u, i)
        assert abs(bits.u2[k] - u2) <= 1e-12 * u2
        assert abs(bits.i2[k] - i2) <= 1e-12 * i2
        assert abs(bits.p_ab[k] - p_ab) <= 1e-12 * math.sqrt(u2 * i2)


BLAS_THREAD_RUN = """
import sys
from kljnsim import protocol
from kljnsim.protocol import Sampling, simulate_bits
from kljnsim.schemes import solve_vmg

protocol.FAN_OUT_SAMPLES = 1
protocol.WORKERS = int(sys.argv[1])
bits = simulate_bits(solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0), Sampling(2**15, 1.0),
                     [1, 2, 3], [(25, 0, k) for k in range(3)])
for name in ("case", "u2", "i2", "p_ab", "n_zc", "u_zc2"):
    print(name, getattr(bits, name).tobytes().hex())
"""


def test_columns_are_independent_of_the_blas_thread_count(tmp_path):
    # 32,766 parts per row: one np.vecdot per row would hand OpenBLAS ddot a
    # vector it splits over its threads, so the sums would round differently
    # with one BLAS thread and with two.  Each child sets its own thread count.
    script = tmp_path / "blas_threads.py"
    script.write_text(BLAS_THREAD_RUN, encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = {}
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                               os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, str(script), workers], env=env,
                                  capture_output=True, text=True, timeout=300, check=False)
            assert proc.returncode == 0, proc.stderr
            outputs[threads, workers] = proc.stdout
    assert len(outputs["1", "1"].splitlines()) == len(COLUMNS)
    for key, stdout in outputs.items():
        assert stdout == outputs["1", "1"], key


HEAP_RUN = """
import resource, sys
from kljnsim import protocol
from kljnsim.protocol import Sampling, simulate_bits
from kljnsim.schemes import classic_kljn

if __name__ == "__main__":
    protocol.WORKERS = 2
    assert 4 * 2**19 >= protocol.FAN_OUT_SAMPLES
    scheme = classic_kljn(1e3, 1e4, 1.0, 500.0)
    for call in range(int(sys.argv[1])):
        simulate_bits(scheme, Sampling(2**19, 1.0), [0, 1, 2, 3], [(26, call, k) for k in range(4)])
    protocol._close_pool()
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)
"""


def _has_mallopt() -> bool:
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except TypeError:   # Windows
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_pool_workers_reuse_their_heap(tmp_path):
    # A pooled call of 4 bits of 2**19 samples, 2 bits per worker.  Without
    # the workers' heap settings every bit faults in its FFT scratch and
    # draws afresh, about 4,000 pages.  The third call's faults are the
    # three-call run's minus the two-call run's: the workers' heaps still grow
    # during the second call (by about 4,000 pages in all) but not after it,
    # so the workers' start-up and their heaps' growth cancel out.
    script = tmp_path / "heap.py"
    script.write_text(HEAP_RUN, encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                                     os.environ.get("PYTHONPATH")]))}
    faults = {}
    for calls in ("2", "3"):
        proc = subprocess.run([sys.executable, str(script), calls], env=env,
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        faults[calls] = int(proc.stdout)
    assert faults["2"] > 0   # the workers were reaped and counted
    assert (faults["3"] - faults["2"]) / 4 < 1000


def test_heap_settings_do_nothing_without_mallopt(monkeypatch):
    import ctypes

    calls = []

    class Glibc:
        def mallopt(self, param, value):
            calls.append((param, value))

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Glibc())
    protocol._keep_heap()
    assert calls == [(-3, 32 * 2**20), (-1, 128 * 2**20)]
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    protocol._keep_heap()

    def no_library(name):
        raise TypeError(name)

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    protocol._keep_heap()
    assert len(calls) == 2


def test_simulate_bits_is_independent_of_blocking():
    scheme = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
    samples_per_bit = 1024
    rows = BLOCK_SAMPLES // samples_per_bit
    n_bits = 2 * rows + 5
    cases = [(3 * k) % 4 for k in range(n_bits)]
    prefixes = [(8, 0, k) for k in range(n_bits)]

    def run(lo, hi):
        return simulate_bits(scheme, Sampling(samples_per_bit, 4.0, "nearest"),
                             cases[lo:hi], prefixes[lo:hi])

    whole = run(0, n_bits)
    for split in (1, rows - 1, rows + 1):
        head, tail = run(0, split), run(split, n_bits)
        for name in ("case", "u2", "i2", "p_ab", "n_zc", "u_zc2"):
            joined = np.concatenate([getattr(head, name), getattr(tail, name)])
            assert np.array_equal(getattr(whole, name), joined), (split, name)


COLUMNS = ("case", "u2", "i2", "p_ab", "n_zc", "u_zc2")


@pytest.mark.parametrize("n_bits", [1, 2, 7])
def test_simulate_bits_is_independent_of_worker_count(monkeypatch, pool_spy, n_bits):
    scheme = fck1_kljn(1e5, 1e4, 1e4, 1.0, 500.0)
    sampling = Sampling(1024, 4.0, "interpolated")
    cases = [(5 * k + 1) % 4 for k in range(n_bits)]
    prefixes = [(6, 2, k) for k in range(n_bits)]
    monkeypatch.setattr(protocol, "FAN_OUT_SAMPLES", 1)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(protocol, "WORKERS", workers)
        runs.append(simulate_bits(scheme, sampling, cases, prefixes))
    # One pool of WORKERS workers per worker count that fans out, even when
    # it gets fewer chunks; one bit runs inline.
    assert pool_spy == ([2, 3] if n_bits > 1 else [])
    for bits in runs[1:]:
        for name in COLUMNS:
            assert np.array_equal(getattr(runs[0], name), getattr(bits, name)), name


@pytest.mark.parametrize("cases", [[0, 1, 2, 3, 0, 1, 2], [0, 1, 2, 4, 0, 1]],
                         ids=["one_case_too_many", "case_out_of_range"])
def test_simulate_bits_checks_the_whole_call_before_splitting(monkeypatch, pool_spy, cases):
    # 6 bits of 2**19 samples are above the fan-out floor; split in halves,
    # each chunk of the first call would pass its own shape check.
    monkeypatch.setattr(protocol, "WORKERS", 2)
    scheme = classic_kljn(1e3, 1e4, 1.0, 500.0)
    prefixes = [(1, 0, k) for k in range(6)]
    assert 6 * 2**19 >= protocol.FAN_OUT_SAMPLES
    with pytest.raises(ValueError, match="one index into CASES per entropy prefix"):
        simulate_bits(scheme, Sampling(2**19, 16.0), cases, prefixes)
    assert pool_spy == []


@pytest.mark.parametrize("workers, n_bits, pools", [(1, 1024, []), (2, 1023, []), (2, 1024, [2])])
def test_fan_out_needs_two_workers_and_the_sample_floor(monkeypatch, pool_spy, workers, n_bits,
                                                        pools):
    # 1024 bits of 2048 samples are exactly FAN_OUT_SAMPLES; one bit fewer runs inline.
    monkeypatch.setattr(protocol, "WORKERS", workers)
    bits = simulate_bits(classic_kljn(1e3, 1e4, 1.0, 500.0), Sampling(2048, 4.0),
                         [k % 4 for k in range(n_bits)], [(2, 0, k) for k in range(n_bits)])
    assert pool_spy == pools
    assert bits.u2.shape == (n_bits,)


def test_later_calls_reuse_the_pool_until_the_worker_count_changes(monkeypatch, pool_spy):
    scheme = classic_kljn(1e3, 1e4, 1.0, 500.0)
    monkeypatch.setattr(protocol, "FAN_OUT_SAMPLES", 1)
    for workers in (2, 2, 3, 3, 2):
        monkeypatch.setattr(protocol, "WORKERS", workers)
        simulate_bits(scheme, Sampling(256, 4.0), [0, 1, 2, 3], [(4, 0, k) for k in range(4)])
    assert pool_spy == [2, 3, 2]


def test_chunk_needs_no_state_from_the_parent():
    # Under "spawn" a worker starts a fresh interpreter, so _simulate_bits and
    # its arguments must pickle and the chunk must not rely on forked memory.
    scheme = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
    sampling = Sampling(2048, 8.0, "nearest")
    case = np.array([3, 1, 2, 0, 2])
    prefixes = [(9, 1, k) for k in range(20, 25)]
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
        remote = pool.submit(protocol._simulate_bits, scheme, sampling, case,
                             prefixes).result(timeout=300)
    local = protocol._simulate_bits(scheme, sampling, case, prefixes)
    for name in COLUMNS:
        assert np.array_equal(getattr(local, name), getattr(remote, name)), name


@pytest.mark.parametrize("master_seed", [0, 2**32 + 7])
def test_session_keeps_its_choices(classic_scheme, master_seed):
    # Each bit's choices are default_rng(derive_seed(seed, run, bit, STREAM_CHOICES))
    # .integers(0, 2, size=2): Alice's, then Bob's.
    session = run_session(SessionConfig(classic_scheme, Sampling(64, 4.0), bits_per_run=30,
                                        runs=2, master_seed=master_seed))
    expected = []
    for run in range(2):
        for bit in range(30):
            rng = np.random.default_rng(derive_seed(master_seed, run, bit, STREAM_CHOICES))
            alice, bob = rng.integers(0, 2, size=2)
            expected.append(2 * alice + bob)
    assert session.bits.case.tolist() == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_attack_simulates_the_session_secure_rows(monkeypatch, pool_spy, workers):
    # The attack draws the session's cases and simulates only its LH and HL
    # bits; each bit depends only on its case and prefix, so the columns are
    # the session's secure rows, pooled or not.
    config = SessionConfig(solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0),
                           Sampling(1024, 4.0, "interpolated"), bits_per_run=25, runs=3,
                           master_seed=11)
    monkeypatch.setattr(protocol, "FAN_OUT_SAMPLES", 1)
    monkeypatch.setattr(protocol, "WORKERS", workers)
    cases, secure_bits = simulate_secure_bits(config)
    _, _, attack_bits = benchmarks.run_attack_experiment(config, calibration_bits=100)
    session = run_session(config).bits
    assert pool_spy == ([2] if workers == 2 else [])
    assert cases.shape == (3, 25)
    assert np.array_equal(cases.ravel(), session.case)
    assert 0 < secure_bits.case.size < session.case.size
    for name in COLUMNS:
        expected = getattr(session, name)[session.secure]
        assert np.array_equal(getattr(secure_bits, name), expected), name
        assert np.array_equal(getattr(attack_bits, name), expected), name


def test_attack_without_secure_bit_simulates_none(classic_scheme, monkeypatch):
    # Seed 1's one bit is not secure (as in the CLI's exit-4 test): the
    # session's call gets no bit, and scoring still warns and raises.
    config = SessionConfig(classic_scheme, Sampling(1024, 4.0), bits_per_run=1, runs=1,
                           master_seed=1)
    assert not run_session(config).bits.secure.any()
    calls = []
    simulate = protocol.simulate_bits

    def counted(*args):
        calls.append(len(args[3]))
        return simulate(*args)

    monkeypatch.setattr(protocol, "simulate_bits", counted)
    with pytest.warns(UserWarning, match="run 0 has no secure bits"):
        with pytest.raises(RuntimeError, match="no run contained a secure bit"):
            benchmarks.run_attack_experiment(config, calibration_bits=100)
    assert calls == [200, 0]   # Eve's calibration, then the session


@pytest.mark.parametrize("mode", ZC_MODES)
@pytest.mark.parametrize("samples_per_bit", [2, 3, 8, 64])
def test_zero_mean_current_always_crosses_zero(mode, samples_per_bit):
    # The crossing statistic is defined on every bit because the current has
    # no DC component; the shortest traces are the hardest case.
    scheme = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
    for oversample in sorted({1, samples_per_bit // 2}):
        bits = simulate_bits(scheme, Sampling(samples_per_bit, oversample, mode),
                             [0, 1, 2, 3] * 10, [(13, oversample, k) for k in range(40)])
        assert bits.n_zc.min() >= 1
        assert np.isfinite(bits.u_zc2).all()


#: (Sampling arguments, the field its ConfigurationError must name)
SAMPLING_FAULTS = [
    ({"samples_per_bit": 1}, "samples_per_bit"),
    ({"samples_per_bit": 256.5, "oversample": 4.0}, "samples_per_bit"),
    ({"samples_per_bit": True}, "samples_per_bit"),
    ({"oversample": 0.5}, "oversample"),
    ({"oversample": math.nan}, "oversample"),
    ({"oversample": math.inf}, "oversample"),
    ({"samples_per_bit": 16, "oversample": 16}, "samples_per_bit"),
    ({"zc_mode": "bogus"}, "zc_mode"),
]


@pytest.mark.parametrize(
    "fault, field", SAMPLING_FAULTS,
    ids=[",".join(f"{k}={v}" for k, v in fault.items()) for fault, _ in SAMPLING_FAULTS],
)
def test_sampling_fault_names_its_field(fault, field):
    with pytest.raises(ConfigurationError, match=field):
        Sampling(**fault)


@pytest.mark.parametrize("field, value", [
    ("bits_per_run", 2.5), ("bits_per_run", True), ("runs", 2.0), ("runs", True),
    ("master_seed", 1.5), ("master_seed", False),
])
def test_session_counts_and_seed_must_be_integers(classic_scheme, field, value):
    # Sampling's rule: a float or a bool is refused, not truncated or read as 0/1.
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        SessionConfig(classic_scheme, **{field: value})


@pytest.mark.parametrize("build, message", [
    (lambda s: NoiseSpec(1.0, 500.0, 16000.0, 256.5, 0), "num_samples must be an integer"),
    (lambda s: NoiseSpec(1.0, 500.0, 16000.0, True, 0), "num_samples must be an integer"),
    (lambda s: NoiseSpec(1.0, 500.0, 16000.0, 1, 0), "num_samples must be >= 2, got 1"),
    (lambda s: NoiseSpec(1.0, 500.0, 16000.0, 256, 1.5), "seed must be an integer"),
    (lambda s: NoiseSpec(1.0, 500.0, 16000.0, 256, True), "seed must be an integer"),
    (lambda s: NoiseSpec(1.0, 500.0, 16000.0, 256, -1), "seed must be >= 0, got -1"),
    (lambda s: calibrate(s, Sampling(1024, 4.0), calibration_bits=150.5),
     "calibration_bits must be an integer"),
    (lambda s: calibrate(s, Sampling(1024, 4.0), calibration_bits=True),
     "calibration_bits must be an integer"),
    (lambda s: calibrate(s, Sampling(1024, 4.0), calibration_bits=99),
     "calibration_bits must be >= 100, got 99"),
    (lambda s: calibrate(s, Sampling(1024, 4.0), seed=1.5), "seed must be an integer"),
    (lambda s: calibrate(s, Sampling(1024, 4.0), seed=True), "seed must be an integer"),
    (lambda s: attack_statistics(None, None, None, guess_seed=1.5),
     "guess_seed must be an integer"),
    (lambda s: attack_statistics(None, None, None, guess_seed=True),
     "guess_seed must be an integer"),
    (lambda s: benchmarks.measure_case_moments(s, Sampling(1024, 4.0), "LH", n_bits=0),
     "n_bits must be >= 1, got 0"),
    (lambda s: benchmarks.measure_case_moments(s, Sampling(1024, 4.0), "LH", n_bits=-3),
     "n_bits must be >= 1, got -3"),
    (lambda s: benchmarks.measure_case_moments(s, Sampling(1024, 4.0), "LH", n_bits=2.5),
     "n_bits must be an integer"),
    (lambda s: benchmarks.measure_case_moments(s, Sampling(1024, 4.0), "LH", n_bits=True),
     "n_bits must be an integer"),
    (lambda s: benchmarks.measure_case_moments(s, Sampling(1024, 4.0), "LH", n_bits=4,
                                               seed=1.5), "seed must be an integer"),
    (lambda s: benchmarks.measure_case_moments(s, Sampling(1024, 4.0), "LH", n_bits=4,
                                               seed=-1), "seed must be >= 0, got -1"),
    (lambda s: benchmarks.measure_case_moments(s, Sampling(1024, 4.0), "XY", n_bits=4),
     re.escape(f"case must be one of {CASES}, got 'XY'")),
    (lambda s: benchmarks.case_moments(simulate_bits(s, Sampling(1024, 4.0), [1], [(0, 1, 0)]),
                                       "XY"), re.escape(f"case must be one of {CASES}, got 'XY'")),
], ids=["num_samples=256.5", "num_samples=True", "num_samples=1", "seed=1.5", "seed=True",
        "seed=-1", "calibration_bits=150.5", "calibration_bits=True", "calibration_bits=99",
        "calibrate-seed=1.5", "calibrate-seed=True", "guess_seed=1.5", "guess_seed=True",
        "n_bits=0", "n_bits=-3", "n_bits=2.5", "n_bits=True", "moments-seed=1.5",
        "moments-seed=-1", "moments-case=XY", "case_moments-case=XY"])
def test_library_counts_and_seeds_follow_one_integer_rule(classic_scheme, build, message):
    # The rule SessionConfig and Sampling follow: a float or a bool is
    # refused up front, not failed on later or read as 0/1.  A case label
    # outside CASES is refused the same way, naming the argument.
    with pytest.raises(ConfigurationError, match=message):
        build(classic_scheme)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no seed namespaces yet: a session's run r and a fixed-case "
                   "experiment's case tag r hash the same (seed, r, bit, branch) tuple")
def test_session_and_fixed_case_experiment_share_no_noise(monkeypatch):
    scheme = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
    sampling = Sampling(1024, 4.0)
    session = run_session(SessionConfig(scheme, sampling, bits_per_run=40, runs=2,
                                        master_seed=5))
    fixed_case = []

    def recording_simulate_bits(*args):
        fixed_case.append(simulate_bits(*args))
        return fixed_case[-1]

    monkeypatch.setattr(benchmarks, "simulate_bits", recording_simulate_bits)
    benchmarks.measure_case_moments(scheme, sampling, "LH", n_bits=40, seed=5)
    run_1 = slice(40, 80)
    lh_u2 = session.bits.u2[run_1][session.bits.case[run_1] == CASES.index("LH")]
    assert not np.isin(lh_u2, fixed_case[0].u2).any()


class TestSessionConfig:
    def test_invalid_counts(self, classic_scheme):
        with pytest.raises(ConfigurationError):
            SessionConfig(scheme=classic_scheme, bits_per_run=0)
        with pytest.raises(ConfigurationError):
            SessionConfig(scheme=classic_scheme, sampling=Sampling(oversample=0.5))
        with pytest.raises(ConfigurationError):
            SessionConfig(scheme=classic_scheme, sampling=Sampling(zc_mode="midpoint"))

    def test_noise_band_needs_a_bin(self, classic_scheme):
        with pytest.raises(ConfigurationError, match="samples_per_bit.*oversample"):
            SessionConfig(scheme=classic_scheme, sampling=Sampling(16, 16))
        SessionConfig(scheme=classic_scheme, sampling=Sampling(32, 16))

    def test_sample_rate(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(oversample=16))
        assert cfg.sampling.sample_rate(classic_scheme.bandwidth) == 2 * 500.0 * 16


class TestCaseWire:
    def test_deterministic(self, classic_scheme):
        a = case_wire(classic_scheme, "LH", 1024, 16000.0, (9, 0, 0))
        b = case_wire(classic_scheme, "LH", 1024, 16000.0, (9, 0, 0))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_cases_differ(self, classic_scheme):
        a = case_wire(classic_scheme, "LH", 1024, 16000.0, (9, 0, 0))
        b = case_wire(classic_scheme, "HL", 1024, 16000.0, (9, 0, 0))
        assert not np.array_equal(a[0], b[0])


class TestRunSession:
    def test_determinism(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(2048),
                            bits_per_run=20, runs=2, master_seed=5)
        a, b = run_session(cfg), run_session(cfg)
        for name in ("case", "u2", "i2", "p_ab", "n_zc", "u_zc2"):
            assert np.array_equal(getattr(a.bits, name), getattr(b.bits, name), equal_nan=True)
        assert np.array_equal(a.misclassified, b.misclassified)

    def test_secure_fraction(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(64, 1),
                            bits_per_run=1000, runs=1, master_seed=17)
        res = run_session(cfg)
        fraction = res.bits.secure.sum() / 1000
        assert abs(fraction - 0.5) < 4 * math.sqrt(0.25 / 1000)

    def test_choice_independence_chi2(self, classic_scheme):
        # choices do not depend on trace length, so keep the traces tiny
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(64, 1),
                            bits_per_run=10_000, runs=1, master_seed=23)
        res = run_session(cfg)
        counts = np.bincount(res.bits.case, minlength=4)
        n = res.bits.case.size
        stat = sum((c - n / 4) ** 2 / (n / 4) for c in counts)
        assert stat < chi2.ppf(1 - 1e-3, df=3)

    def test_classification_accuracy(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(16384, 16),
                            bits_per_run=2000, runs=2, master_seed=31)
        results = run_session(cfg)
        bits = results.bits.case.size
        errors = results.misclassified.sum()
        assert errors / bits <= 1e-3

    def test_record_invariants(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(2048),
                            bits_per_run=50, runs=1, master_seed=2)
        bits = run_session(cfg).bits
        assert bits.case.size == 50
        assert np.array_equal(bits.secure, np.isin(bits.case, [CASES.index("LH"), CASES.index("HL")]))
        assert (bits.n_zc >= 1).all()

    def test_no_cross_bit_leakage(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(2**14, 4),
                            bits_per_run=6, runs=1, master_seed=77)
        n_eff = 2**14 / 4
        voltages = [
            case_wire(classic_scheme, "LH", 2**14, cfg.sampling.sample_rate(500.0), (77, 0, bit))[0]
            for bit in range(6)
        ]
        for u1, u2 in zip(voltages, voltages[1:]):
            corr = np.mean(u1 * u2) / math.sqrt(np.mean(u1**2) * np.mean(u2**2))
            assert abs(corr) < 4 / math.sqrt(n_eff)


class TestClassification:
    def test_exact_secure_level_with_own_h_means_partner_l(self, classic_scheme):
        lt = level_table(classic_scheme)
        inferred = _infer_partner(np.array([1]), np.array([lt["HL"].u2]), lt)
        assert inferred.tolist() == [0]

    def test_tie_breaks_toward_l(self):
        def level(u2):
            return MomentSummary(u2=u2, i2=1.0, p_ab=0.0, rho=0.0)

        levels = {"LL": level(1.0), "LH": level(3.0), "HL": level(3.0), "HH": level(9.0)}
        # exact ties, own L then own H
        assert _infer_partner(np.array([0, 1]), np.array([2.0, 6.0]), levels).tolist() == [0, 0]

    def test_degenerate_levels_warn_and_default_l(self):
        m = MomentSummary(u2=1.0, i2=1.0, p_ab=0.0, rho=0.0)
        levels = {"LL": m, "LH": m, "HL": m, "HH": m}
        with pytest.warns(UserWarning, match="degenerate") as warned:
            inferred = _infer_partner(np.array([1, 0, 1]), np.array([1.0, 0.5, 2.0]), levels)
        assert inferred.tolist() == [0, 0, 0]
        assert len(warned) == 1

    def test_classify_full_wire(self, classic_scheme):
        u_c, _ = case_wire(classic_scheme, "LH", 16384, 16000.0, (3, 0, 0))
        u2 = np.mean(u_c * u_c)
        partner = _infer_partner(np.array([0]), np.array([u2]), level_table(classic_scheme))
        assert partner.tolist() == [1]


class TestSecureBitHandling:
    def test_filter_all_insecure(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(512, 1),
                            bits_per_run=30, runs=1, master_seed=8)
        bits = run_session(cfg).bits
        hh_only = bits.case == CASES.index("HH")
        assert hh_only.any()
        assert not (bits.secure & hh_only).any()

    def test_filter_preserves_order_and_count(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(512, 1),
                            bits_per_run=200, runs=1, master_seed=8)
        bits = run_session(cfg).bits
        secure = bits.case[bits.secure]
        assert secure.size == sum(1 for c in bits.case if CASES[c] in ("LH", "HL"))
        assert secure.tolist() == [c for c in bits.case.tolist() if c in (1, 2)]

    def test_bit_value_convention(self):
        assert secure_bit_value("HL") == 1
        assert secure_bit_value("LH") == 0
        with pytest.raises(ValueError):
            secure_bit_value("HH")
