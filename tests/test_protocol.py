import math

import numpy as np
import pytest
from scipy.stats import chi2

from kljnsim.circuit import MomentSummary
from kljnsim.errors import ConfigurationError
from kljnsim.attack import ZC_MODES, detect_zero_crossings, zc_mean_square
from kljnsim.circuit import measure_moments
from kljnsim.protocol import (
    CASES,
    SessionConfig,
    _infer_partner,
    case_wire,
    run_session,
    secure_bit_value,
    simulate_bits,
)
from kljnsim.schemes import classic_kljn, level_table, solve_vmg


@pytest.fixture(scope="module")
def classic_scheme():
    return classic_kljn(1e3, 1e4, 1.0, 500.0)


class TestBitCase:
    def test_labels(self, classic_scheme):
        bits = simulate_bits(classic_scheme, [1, 2], [(9, 0, 0), (9, 0, 1)],
                             64, 16000.0, "sample_after")
        assert [CASES[c] for c in bits.case] == ["LH", "HL"]

    def test_secure_flag(self, classic_scheme):
        bits = simulate_bits(classic_scheme, [0, 1, 2, 3], [(9, 0, k) for k in range(4)],
                             64, 16000.0, "sample_after")
        assert bits.secure.tolist() == [False, True, True, False]

    def test_validation(self, classic_scheme):
        with pytest.raises(ValueError):
            simulate_bits(classic_scheme, [4], [(9, 0, 0)], 64, 16000.0, "sample_after")
        with pytest.raises(ValueError):
            simulate_bits(classic_scheme, [-1], [(9, 0, 0)], 64, 16000.0, "sample_after")
        with pytest.raises(ValueError):
            simulate_bits(classic_scheme, [1, 2], [(9, 0, 0)], 64, 16000.0, "sample_after")


@pytest.mark.parametrize("mode", ZC_MODES)
def test_simulate_bits_matches_per_bit_primitives(mode):
    scheme = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
    cases = [0, 1, 2, 3] * 5
    prefixes = [(21, 0, k) for k in range(len(cases))]
    bits = simulate_bits(scheme, cases, prefixes, 256, 8000.0, mode)
    for k, (case, prefix) in enumerate(zip(cases, prefixes)):
        wire = case_wire(scheme, CASES[case], 256, 8000.0, prefix)
        m = measure_moments(wire)
        crossings = detect_zero_crossings(wire, mode)
        assert bits.case[k] == case
        assert (bits.u2[k], bits.i2[k], bits.p_ab[k]) == (m.u2, m.i2, m.p_ab)
        assert bits.n_zc[k] == crossings.values.size
        assert bits.u_zc2[k] == zc_mean_square(crossings)


@pytest.mark.parametrize("mode", ZC_MODES)
@pytest.mark.parametrize("samples_per_bit", [2, 3, 8, 64])
def test_zero_mean_current_always_crosses_zero(mode, samples_per_bit):
    # The crossing statistic is defined on every bit because the current has
    # no DC component; the shortest traces are the hardest case.
    scheme = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
    for oversample in sorted({1, samples_per_bit // 2}):
        bits = simulate_bits(scheme, [0, 1, 2, 3] * 10, [(13, oversample, k) for k in range(40)],
                             samples_per_bit, 1000.0 * oversample, mode)
        assert bits.n_zc.min() >= 1
        assert np.isfinite(bits.u_zc2).all()


class TestSessionConfig:
    def test_invalid_counts(self, classic_scheme):
        with pytest.raises(ConfigurationError):
            SessionConfig(scheme=classic_scheme, bits_per_run=0)
        with pytest.raises(ConfigurationError):
            SessionConfig(scheme=classic_scheme, oversample=0.5)
        with pytest.raises(ConfigurationError):
            SessionConfig(scheme=classic_scheme, zc_mode="midpoint")

    def test_sample_rate(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, oversample=16)
        assert cfg.sample_rate == 2 * 500.0 * 16


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
        cfg = SessionConfig(scheme=classic_scheme, samples_per_bit=2048,
                            bits_per_run=20, runs=2, master_seed=5)
        a, b = run_session(cfg), run_session(cfg)
        for name in ("case", "u2", "i2", "p_ab", "n_zc", "u_zc2"):
            assert np.array_equal(getattr(a.bits, name), getattr(b.bits, name), equal_nan=True)
        assert np.array_equal(a.misclassified, b.misclassified)

    def test_secure_fraction(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, samples_per_bit=64, oversample=1,
                            bits_per_run=1000, runs=1, master_seed=17)
        res = run_session(cfg)
        fraction = res.bits.secure.sum() / 1000
        assert abs(fraction - 0.5) < 4 * math.sqrt(0.25 / 1000)

    def test_choice_independence_chi2(self, classic_scheme):
        # choices do not depend on trace length, so keep the traces tiny
        cfg = SessionConfig(scheme=classic_scheme, samples_per_bit=64, oversample=1,
                            bits_per_run=10_000, runs=1, master_seed=23)
        res = run_session(cfg)
        counts = np.bincount(res.bits.case, minlength=4)
        n = res.bits.case.size
        stat = sum((c - n / 4) ** 2 / (n / 4) for c in counts)
        assert stat < chi2.ppf(1 - 1e-3, df=3)

    def test_classification_accuracy(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, samples_per_bit=16384, oversample=16,
                            bits_per_run=2000, runs=2, master_seed=31)
        results = run_session(cfg)
        bits = results.bits.case.size
        errors = results.misclassified.sum()
        assert errors / bits <= 1e-3

    def test_record_invariants(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, samples_per_bit=2048,
                            bits_per_run=50, runs=1, master_seed=2)
        bits = run_session(cfg).bits
        assert bits.case.size == 50
        assert np.array_equal(bits.secure, np.isin(bits.case, [CASES.index("LH"), CASES.index("HL")]))
        assert (bits.n_zc >= 1).all()

    def test_no_cross_bit_leakage(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, samples_per_bit=2**14, oversample=4,
                            bits_per_run=6, runs=1, master_seed=77)
        n_eff = 2**14 / 4
        wires = [
            case_wire(classic_scheme, "LH", 2**14, cfg.sample_rate, (77, 0, bit))
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
        cfg = SessionConfig(scheme=classic_scheme, samples_per_bit=512, oversample=1,
                            bits_per_run=30, runs=1, master_seed=8)
        bits = run_session(cfg).bits
        hh_only = bits.case == CASES.index("HH")
        assert hh_only.any()
        assert not (bits.secure & hh_only).any()

    def test_filter_preserves_order_and_count(self, classic_scheme):
        cfg = SessionConfig(scheme=classic_scheme, samples_per_bit=512, oversample=1,
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
