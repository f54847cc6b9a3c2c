import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from kljnsim import benchmarks
from kljnsim.attack import ZC_MODES, detect_zero_crossings, zc_mean_square
from kljnsim.circuit import MomentSummary, WireTrace, measure_moments, wire_observables
from kljnsim.errors import ConfigurationError
from kljnsim.noise import NoiseSpec, derive_seed, synthesize
from kljnsim.protocol import (
    BLOCK_SAMPLES,
    BRANCH_STREAMS,
    CASES,
    STREAM_CHOICES,
    Sampling,
    SessionConfig,
    _infer_partner,
    run_session,
    secure_bit_value,
    simulate_bits,
)
from kljnsim.schemes import classic_kljn, fck1_kljn, level_table, solve_vmg


def case_wire(scheme, case, samples_per_bit, sample_rate, entropy_prefix) -> WireTrace:
    """Time-domain reference for one bit: synthesize both connected branches, solve the wire.

    The branch seeds extend ``entropy_prefix`` with the branch stream tag,
    as in ``simulate_bits``.
    """
    a_id = "LA" if case[0] == "L" else "HA"
    b_id = "LB" if case[1] == "L" else "HB"
    traced = {}
    for bid in (a_id, b_id):
        branch = scheme.branches[bid]
        spec = NoiseSpec(
            mean_square=branch.mean_square,
            bandwidth=scheme.bandwidth,
            sample_rate=sample_rate,
            num_samples=samples_per_bit,
            seed=derive_seed(*entropy_prefix, BRANCH_STREAMS[bid]),
        )
        traced[bid] = replace(branch, trace=synthesize(spec))
    return wire_observables(traced[a_id], traced[b_id])


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
#: traces; and a bit count that is not a multiple of the inverse-FFT block.
REFERENCE_FIXTURES = [
    (256, 8.0, 20),
    (255, 8.0, 12),
    (256, 1.0, 12),
    (2, 1.0, 12),
    (3, 1.0, 12),
    (2**14, 16.0, BLOCK_SAMPLES // 2**14 * 2 + 2),
]


@pytest.mark.parametrize("mode", ZC_MODES)
def test_simulate_bits_matches_per_bit_primitives(mode):
    # The kernel solves the wire before the inverse FFT and takes moments by
    # Parseval, so its rounding differs from the time-domain reference: floats
    # agree to 1e-12 relative (p_ab, which is near 0 at equilibrium, relative
    # to sqrt(u2 * i2)), while the case and the crossing count are exact.
    schemes = (solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0),
               fck1_kljn(1e5, 1e4, 1e4, 1.0, 500.0))
    for scheme in schemes:
        for samples_per_bit, oversample, n_bits in REFERENCE_FIXTURES:
            sampling = Sampling(samples_per_bit, oversample, mode)
            sample_rate = sampling.sample_rate(scheme.bandwidth)
            cases = [k % 4 for k in range(n_bits)]
            prefixes = [(21, samples_per_bit, k) for k in range(n_bits)]
            bits = simulate_bits(scheme, sampling, cases, prefixes)
            ref = {name: np.empty(n_bits) for name in ("u2", "i2", "p_ab", "n_zc", "u_zc2")}
            for k, (case, prefix) in enumerate(zip(cases, prefixes)):
                wire = case_wire(scheme, CASES[case], samples_per_bit, sample_rate, prefix)
                m = measure_moments(wire)
                crossings = detect_zero_crossings(wire, mode)
                ref["u2"][k], ref["i2"][k], ref["p_ab"][k] = m.u2, m.i2, m.p_ab
                ref["n_zc"][k] = crossings.values.size
                ref["u_zc2"][k] = zc_mean_square(crossings)
            assert bits.case.tolist() == cases
            assert bits.n_zc.tolist() == ref["n_zc"].tolist()
            for name in ("u2", "i2", "u_zc2"):
                np.testing.assert_allclose(getattr(bits, name), ref[name], rtol=1e-12, atol=0)
            np.testing.assert_array_less(np.abs(bits.p_ab - ref["p_ab"]),
                                         1e-12 * np.sqrt(ref["u2"] * ref["i2"]))


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
        assert np.array_equal(a.u_c, b.u_c)
        assert np.array_equal(a.i_c, b.i_c)

    def test_cases_differ(self, classic_scheme):
        a = case_wire(classic_scheme, "LH", 1024, 16000.0, (9, 0, 0))
        b = case_wire(classic_scheme, "HL", 1024, 16000.0, (9, 0, 0))
        assert not np.array_equal(a.u_c, b.u_c)


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
        wires = [
            case_wire(classic_scheme, "LH", 2**14, cfg.sampling.sample_rate(500.0), (77, 0, bit))
            for bit in range(6)
        ]
        for w1, w2 in zip(wires, wires[1:]):
            corr = np.mean(w1.u_c * w2.u_c) / math.sqrt(
                np.mean(w1.u_c**2) * np.mean(w2.u_c**2)
            )
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
        wire = case_wire(classic_scheme, "LH", 16384, 16000.0, (3, 0, 0))
        u2 = np.mean(wire.u_c * wire.u_c)
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
        assert secure_bit_value("HL", hl_value=0) == 0
        assert secure_bit_value("LH", hl_value=0) == 1
        with pytest.raises(ValueError):
            secure_bit_value("HH")
