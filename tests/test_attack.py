import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim import protocol
from kljnsim.attack import (
    AttackCalibration,
    attack_statistics,
    binomial_ci_halfwidth,
    calibrate,
)
from kljnsim.circuit import ZC_MODES, analytic_moments, block_zero_crossings
from kljnsim.errors import CalibrationError
from kljnsim.noise import STREAM_CALIBRATION, STREAM_EVE_TIE, derive_seed
from kljnsim.protocol import CASES, Sampling, SessionConfig, simulate_bits, simulate_secure_bits
from kljnsim.schemes import classic_kljn, solve_vmg
from test_protocol import case_wire, reference_zero_crossings


def crossings(i, u, mode, fs=1.0):
    """``(values, times)`` of one trace: ``block_zero_crossings`` of a one-row block."""
    counts, times, values = block_zero_crossings(np.asarray(i, float)[None, :],
                                                 np.asarray(u, float)[None, :], mode, fs)
    assert counts.tolist() == [times.size]
    return values, times


@pytest.fixture(scope="module")
def classic_scheme():
    return classic_kljn(1e3, 1e4, 1.0, 500.0)


@pytest.fixture(scope="module")
def vmg_scheme():
    return solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)


class TestDetectZeroCrossings:
    def test_interpolated_midpoint(self):
        values, times = crossings([1.0, -1.0], [2.0, 4.0], "interpolated")
        assert times.tolist() == [0.5]
        assert values.tolist() == [3.0]

    def test_constant_sign_empty(self):
        values, _ = crossings([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], "interpolated")
        assert values.size == 0

    def test_exact_zero_counts_at_sample(self):
        values, times = crossings([1.0, 0.0, 2.0], [5.0, 7.0, 9.0], "sample_before")
        assert times.tolist() == [1.0]
        assert values.tolist() == [7.0]

    def test_modes_pick_expected_samples(self):
        i = [3.0, -1.0, 4.0]
        u = [10.0, 20.0, 30.0]
        assert crossings(i, u, "sample_before")[0].tolist() == [10.0, 20.0]
        assert crossings(i, u, "sample_after")[0].tolist() == [20.0, 30.0]
        # |i| is smallest at the middle sample for both crossings: dedupe to one
        nearest, _ = crossings(i, u, "nearest")
        assert nearest.tolist() == [20.0]

    def test_times_strictly_increasing(self, vmg_scheme):
        u_c, i_c = case_wire(vmg_scheme, "HL", 2**15, 16000.0, (4, 0, 0))
        for mode in ("interpolated", "sample_before", "sample_after", "nearest"):
            values, times = crossings(i_c, u_c, mode, 16000.0)
            assert values.size > 10
            assert np.all(np.diff(times) > 0)

    def test_interpolated_zero_is_exact(self):
        # linear current through zero: interpolation lands on the true root
        i = [2.0, -2.0]
        u = [1.0, 5.0]
        values, _ = crossings(i, u, "interpolated")
        assert values.tolist() == [3.0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            crossings([1.0, -1.0], [0.0, 0.0], "midpoint")

    def test_equilibrium_sampling_is_unbiased(self, classic_scheme):
        # In equilibrium the wire voltage and current are uncorrelated, so
        # crossing-time sampling reproduces the nominal mean square.
        bits = simulate_bits(classic_scheme, Sampling(2**17, 16.0, "interpolated"),
                             [CASES.index("LH")] * 8, [(6, 0, bit) for bit in range(8)])
        n_values = bits.n_zc.sum()
        assert n_values > 10_000
        u2 = analytic_moments(1e3, 1.0, 1e4, 10.0).u2
        se = u2 * math.sqrt(2.0 / (n_values / 2))  # conservative n_eff
        mean_square = np.sum(bits.n_zc * bits.u_zc2) / n_values   # over every crossing
        assert mean_square == pytest.approx(u2, abs=4 * se)


#: Current samples: exact zeros (with either sign) are frequent, so that
#: they meet crossings, each other and the trace ends.
CURRENT = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def sampled_wires(draw):
    """A wire's ``(i, u)`` at 1 Hz, so sample-aligned crossing times are sample indices."""
    i = draw(st.lists(CURRENT, min_size=1, max_size=40))
    u = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=len(i), max_size=len(i)))
    return np.array(i), np.array(u)


def expected_sample_indices(i, mode):
    """Indices a sample-aligned mode picks, from the definition in ``ZC_MODES``."""
    kk = np.array([k for k in range(i.size - 1) if i[k] < 0 < i[k + 1] or i[k + 1] < 0 < i[k]],
                  dtype=np.int64)
    if mode == "sample_before":
        picks = kk
    elif mode == "sample_after":
        picks = kk + 1
    else:
        picks = kk + (np.abs(i[kk + 1]) < np.abs(i[kk]))
    return sorted(set(picks.tolist()) | set(np.flatnonzero(i == 0.0).tolist()))


#: Nonzero currents with magnitudes down to 1e-300, where the product of two
#: neighbours underflows to zero.
TINY_CURRENT = st.builds(math.copysign, st.floats(1e-300, 1e3), st.sampled_from([1.0, -1.0]))


class TestDetectZeroCrossingsProperties:
    @settings(max_examples=300, deadline=None)
    @given(sampled_wires(), st.sampled_from(ZC_MODES))
    def test_times_strictly_increasing(self, w, mode):
        values, times = crossings(*w, mode)
        assert np.all(np.diff(times) > 0)
        assert values.size == times.size

    @settings(max_examples=300, deadline=None)
    @given(sampled_wires(), st.sampled_from(ZC_MODES))
    def test_every_exact_zero_counted(self, w, mode):
        times = set(crossings(*w, mode)[1].tolist())
        assert set(np.flatnonzero(w[0] == 0.0).astype(float).tolist()) <= times

    @settings(max_examples=300, deadline=None)
    @given(sampled_wires(), st.sampled_from(("sample_before", "sample_after", "nearest")))
    def test_sample_aligned_values_are_wire_samples(self, w, mode):
        values, times = crossings(*w, mode)
        index = times.astype(np.int64)
        assert np.array_equal(index, times)
        assert np.array_equal(values, w[1][index])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TINY_CURRENT, min_size=2, max_size=40),
           st.sampled_from(("sample_before", "sample_after")))
    def test_every_sign_change_counted_at_any_magnitude(self, i, mode):
        changes = [k for k in range(len(i) - 1) if (i[k] < 0) != (i[k + 1] < 0)]
        _, times = crossings(i, [0.0] * len(i), mode)
        assert times.tolist() == [float(k + (mode == "sample_after")) for k in changes]

    @settings(max_examples=300, deadline=None)
    @given(sampled_wires(), st.sampled_from(("sample_before", "sample_after", "nearest")))
    def test_dedupe_keeps_every_distinct_pick(self, w, mode):
        # Adjacent crossings (or a crossing and an exact zero) that elect the
        # same sample collapse into one; no other crossing is dropped.
        _, times = crossings(*w, mode)
        assert times.tolist() == [float(k) for k in expected_sample_indices(w[0], mode)]


#: Block currents: exact zeros, magnitudes from 1e-300 to 1e3, and anything in between.
BLOCK_CURRENT = st.one_of(st.sampled_from([0.0, -0.0]), TINY_CURRENT,
                          st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def current_blocks(draw):
    """A (rows, n) block of currents and voltages.

    Often one row ends negative and the next starts positive, a sign change
    that belongs to no trace.
    """
    rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    i = np.array(draw(st.lists(BLOCK_CURRENT, min_size=rows * n, max_size=rows * n)))
    u = np.array(draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                               min_size=rows * n, max_size=rows * n)))
    i, u = i.reshape(rows, n), u.reshape(rows, n)
    if rows > 1 and draw(st.booleans()):
        r = draw(st.integers(0, rows - 2))
        i[r, -1] = -abs(draw(TINY_CURRENT))
        i[r + 1, 0] = abs(draw(TINY_CURRENT))
    return i, u


#: Interpolated crossings whose times tie (a fraction that rounds to 1, then
#: one that rounds to 0) while their voltages differ in the last bit; the
#: exact zero sends the block through the sort.
TIED_CROSSINGS = (np.array([[1e3, -1e-300] * 12 + [1e3, 0.0]]),
                  np.array([[1.1, 0.3] * 12 + [0.5, 0.0]]))


class TestBlockZeroCrossings:
    @settings(max_examples=400, deadline=None)
    @given(current_blocks(), st.sampled_from(ZC_MODES), st.sampled_from([1.0, 3.0, 16000.0]))
    @example((np.array([[1.0, -2.0], [3.0, 1.0]]), np.array([[1.0, 2.0], [3.0, 4.0]])),
             "sample_after", 1.0)
    @example((np.array([[3.0, -1.0, 4.0, 0.0], [2.0, -1.0, 0.0, -1e-300]]),
              np.array([[10.0, 20.0, 30.0, 40.0], [1.0, 2.0, 3.0, 4.0]])), "nearest", 1.0)
    @example(TIED_CROSSINGS, "interpolated", 1.0)
    def test_each_row_is_its_own_trace(self, block, mode, fs):
        i, u = block
        counts, times, values = block_zero_crossings(i, u, mode, fs)
        ends = np.cumsum(counts)
        assert ends[-1] == times.size == values.size
        for r, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
            ref_values, ref_times = reference_zero_crossings(i[r], u[r], mode, fs)
            assert np.array_equal(times[lo:hi], ref_times), r
            assert np.array_equal(values[lo:hi], ref_values), r

    def test_tied_crossings_keep_the_first(self):
        # The reference keeps the first of two crossings at one time.
        values, times = reference_zero_crossings(TIED_CROSSINGS[0][0], TIED_CROSSINGS[1][0],
                                                 "interpolated", 1.0)
        assert times[0] == 1.0 and values[0] != 0.3


class TestCalibrate:
    def test_classic_indistinct(self, classic_scheme):
        cal = calibrate(classic_scheme, Sampling(8192, 8, "sample_after"),
                        calibration_bits=120, seed=42)
        assert cal.polarity == "indistinct"
        assert cal.mean_zc_lh == pytest.approx(0.909, rel=0.05)
        assert min(cal.mean_zc_lh, cal.mean_zc_hl) <= cal.threshold <= max(cal.mean_zc_lh, cal.mean_zc_hl)

    def test_vmg_lh_hl_means_match_conditional_value(self, vmg_scheme):
        # The solved quadruple equalizes the joint wire law, so both
        # hypotheses sit near the conditional-variance value; no polarity.
        cal = calibrate(vmg_scheme, Sampling(8192, 8, "interpolated"),
                        calibration_bits=150, seed=42)
        assert cal.mean_zc_lh == pytest.approx(0.3228, rel=0.05)
        assert cal.mean_zc_hl == pytest.approx(0.3228, rel=0.05)

    def test_insufficient_crossings(self, classic_scheme):
        with pytest.raises(CalibrationError, match="samples_per_bit"):
            calibrate(classic_scheme, Sampling(128, 16, "sample_after"),
                      calibration_bits=100, seed=1)

    @pytest.mark.parametrize("fan_out", [False, True])
    def test_means_are_those_of_two_per_case_calls(self, vmg_scheme, monkeypatch, fan_out):
        # One call over both hypotheses gives the columns of one call per hypothesis,
        # also when the merged call runs in the worker pool and the per-case ones do not.
        sampling, n, seed = Sampling(1024, 4, "interpolated"), 100, 42
        means = [
            float(simulate_bits(vmg_scheme, sampling, [CASES.index(case)] * n,
                                [(seed, STREAM_CALIBRATION, case_idx, bit) for bit in range(n)]
                                ).u_zc2.mean())
            for case_idx, case in enumerate(("LH", "HL"))
        ]
        if fan_out:
            monkeypatch.setattr(protocol, "FAN_OUT_SAMPLES", (n + 1) * 1024)
            monkeypatch.setattr(protocol, "WORKERS", 2)
        cal = calibrate(vmg_scheme, sampling, calibration_bits=n, seed=seed)
        assert [cal.mean_zc_lh, cal.mean_zc_hl] == means
        assert cal.threshold == 0.5 * (means[0] + means[1])

    def test_too_few_bits(self, classic_scheme):
        with pytest.raises(ValueError):
            calibrate(classic_scheme, Sampling(8192, 8, "sample_after"),
                      calibration_bits=50, seed=1)


class TestEveGuess:
    CAL = AttackCalibration(mean_zc_lh=0.301, mean_zc_hl=0.576,
                            threshold=0.4385, polarity="hl_above")

    def test_above_threshold(self):
        assert attack_statistics(*_scored([("HL", 0.55)]), self.CAL).p == 1.0

    def test_below_threshold(self):
        assert attack_statistics(*_scored([("LH", 0.30)]), self.CAL).p == 1.0

    def test_lh_above_polarity(self):
        cal = AttackCalibration(0.576, 0.301, 0.4385, "lh_above")
        assert attack_statistics(*_scored([("LH", 0.55)]), cal).p == 1.0

    def test_indistinct_is_fair_coin(self):
        # Every bit is HL, so p is the rate of HL guesses.
        cal = AttackCalibration(0.5, 0.5, 0.5, "indistinct")
        rate = attack_statistics(*_scored([("HL", 0.7)] * 2000), cal).p
        assert abs(rate - 0.5) < 4 * math.sqrt(0.25 / 2000)


def _scored(*runs):
    """Eve's scoring inputs for equally long runs, each a list of (case, u_zc2) bits.

    Returns the (runs, bits_per_run) grid of case indices and the u_zc2
    values of its LH and HL bits, run-major; the values of the other bits
    are dropped, as a session that simulates only its secure bits never has them.
    """
    cases = np.array([[CASES.index(case) for case, _ in run] for run in runs])
    u_zc2 = np.array([v for run in runs for case, v in run if case in ("LH", "HL")])
    return cases, u_zc2


class TestAttackStatistics:
    CAL = AttackCalibration(0.3, 0.6, 0.45, "hl_above")

    def test_all_correct(self):
        scored = _scored([("HL", 0.55), ("LH", 0.31)], [("HL", 0.62), ("LH", 0.29)])
        out = attack_statistics(*scored, self.CAL)
        assert out.p == 1.0
        assert out.sigma_p == 0.0
        assert out.n_secure_bits == 4
        assert out.n_runs == 2

    def test_insecure_bits_ignored(self):
        scored = _scored([("HH", 0.99), ("HL", 0.55)])
        out = attack_statistics(*scored, self.CAL)
        assert out.n_secure_bits == 1
        assert out.p == 1.0

    def test_run_without_secure_bits_excluded(self):
        scored = _scored([("HL", 0.55)], [("LL", 0.2)])
        with pytest.warns(UserWarning, match="no secure bits"):
            out = attack_statistics(*scored, self.CAL)
        assert out.n_runs == 1
        assert out.n_excluded_runs == 1

    def test_per_run_mean_and_std(self):
        scored = _scored(
            [("HL", 0.55), ("HL", 0.20)],  # p = 0.5
            [("LH", 0.31), ("LH", 0.30)],  # p = 1.0
        )
        out = attack_statistics(*scored, self.CAL)
        assert out.p == pytest.approx(0.75)
        assert out.sigma_p == pytest.approx(np.std([0.5, 1.0], ddof=1))

    def test_no_secure_bits_anywhere(self):
        with pytest.raises(RuntimeError, match="no run contained a secure bit"):
            with pytest.warns(UserWarning):
                attack_statistics(*_scored([("LL", 0.2)]), self.CAL)

    def test_no_secure_bits_under_indistinct_calibration(self):
        # No coin is drawn: every run is excluded with its warning, then the error.
        cal = AttackCalibration(0.5, 0.5, 0.5, "indistinct")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="no run contained a secure bit"):
                attack_statistics(*_scored([("LL", 0.2), ("HH", 0.9)], [("HH", 0.1), ("LL", 0.3)],
                                           [("LL", 0.5), ("LL", 0.6)]), cal)
        assert [str(w.message) for w in caught] == [
            f"run {r} has no secure bits; excluded from attack statistics" for r in range(3)]

    @pytest.mark.parametrize("cases, u_zc2, message", [
        ([1, 2], [0.5, 0.5], "cases must be a"),
        ([[1, 2, 0]], [0.5], "u_zc2 must hold one value per LH or HL bit"),
        ([[1, 0]], [0.5, 0.5], "u_zc2 must hold one value per LH or HL bit"),
    ], ids=["flat_cases", "value_short", "value_too_many"])
    def test_inputs_must_match(self, cases, u_zc2, message):
        with pytest.raises(ValueError, match=message):
            attack_statistics(cases, u_zc2, self.CAL)


@pytest.mark.parametrize("guess_seed", [0, 2**40 + 3])
def test_coin_flip_p_matches_per_bit_guesses(guess_seed):
    # Under indistinct calibration secure bit b of run r guesses HL when
    # default_rng(derive_seed(guess_seed, r, b, STREAM_EVE_TIE)).integers(0, 2) is 1.
    cal = AttackCalibration(0.5, 0.5, 0.5, "indistinct")
    rng = np.random.default_rng(21)
    runs = [[(CASES[c], 0.5) for c in rng.integers(0, 4, size=60)] for _ in range(4)]
    expected = []
    for run_idx, run in enumerate(runs):
        hits = [("HL" if np.random.default_rng(
                    derive_seed(guess_seed, run_idx, bit_idx, STREAM_EVE_TIE)).integers(0, 2)
                 else "LH") == case
                for bit_idx, (case, _) in enumerate(run) if case in ("LH", "HL")]
        expected.append(sum(hits) / len(hits))
    out = attack_statistics(*_scored(*runs), cal, guess_seed=guess_seed)
    assert out.per_run_p == tuple(expected)
    assert out.p == float(np.mean(expected))


def reference_attack_statistics(runs, cal, guess_seed):
    """Eve's score bit by bit: ``(per_run_p, n_secure_bits, warnings)``.

    ``runs`` is a list of equally long runs, each a list of (case, u_zc2) bits.
    """
    per_run_p, n_secure, messages = [], 0, []
    for run_idx, run in enumerate(runs):
        hits = []
        for bit_idx, (case, v) in enumerate(run):
            if case not in ("LH", "HL"):
                continue
            if cal.polarity == "indistinct":
                coin = np.random.default_rng(
                    derive_seed(guess_seed, run_idx, bit_idx, STREAM_EVE_TIE)).integers(0, 2)
                guess = "HL" if coin else "LH"
            elif cal.polarity == "hl_above":
                guess = "HL" if v > cal.threshold else "LH"
            else:
                guess = "LH" if v > cal.threshold else "HL"
            hits.append(guess == case)
        if not hits:
            messages.append(f"run {run_idx} has no secure bits; excluded from attack statistics")
            continue
        per_run_p.append(sum(hits) / len(hits))
        n_secure += len(hits)
    return per_run_p, n_secure, messages


@st.composite
def scored_sessions(draw):
    """A session of 1-5 runs of 1-11 bits, with a calibration and a guess seed."""
    threshold = draw(st.sampled_from([0.45, 0.0, 1e-300]))
    value = st.one_of(st.sampled_from([math.nan, threshold, np.nextafter(threshold, 1.0),
                                       np.nextafter(threshold, -1.0)]),
                      st.floats(0.0, 1.0))
    bits_per_run = draw(st.integers(1, 11))
    runs = [[(draw(st.sampled_from(CASES)), draw(value)) for _ in range(bits_per_run)]
            for _ in range(draw(st.integers(1, 5)))]
    polarity = draw(st.sampled_from(["hl_above", "lh_above", "indistinct"]))
    cal = AttackCalibration(0.3, 0.6, threshold, polarity)
    return runs, cal, draw(st.integers(0, 2**64))


@settings(max_examples=300, deadline=None)
@given(scored_sessions())
def test_scoring_matches_per_bit_reference(scored):
    runs, cal, guess_seed = scored
    per_run_p, n_secure, messages = reference_attack_statistics(runs, cal, guess_seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = attack_statistics(*_scored(*runs), cal, guess_seed=guess_seed)
        except RuntimeError as exc:
            assert not per_run_p
            assert str(exc) == "no run contained a secure bit; increase bits_per_run or runs"
            out = None
    assert [str(w.message) for w in caught] == messages
    assert all(w.category is UserWarning for w in caught)
    if out is None:
        return
    assert out.per_run_p == tuple(per_run_p)
    assert out.p == float(np.mean(per_run_p))
    assert out.sigma_p == (float(np.std(per_run_p, ddof=1)) if len(per_run_p) > 1 else 0.0)
    assert out.n_secure_bits == n_secure
    assert out.per_run_secure == tuple(
        sum(case in ("LH", "HL") for case, _ in run) for run in runs)
    assert out.n_runs == len(per_run_p)
    assert out.n_excluded_runs == len(messages)


class TestEndToEndEquilibrium:
    def test_classic_attack_near_half(self, classic_scheme):
        cal = calibrate(classic_scheme, Sampling(4096, 4, "sample_after"),
                        calibration_bits=100, seed=9)
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(4096, 4),
                            bits_per_run=400, runs=2, master_seed=9)
        cases, bits = simulate_secure_bits(cfg)
        out = attack_statistics(cases, bits.u_zc2, cal, guess_seed=123)
        assert cal.polarity == "indistinct"
        assert abs(out.p - 0.5) < 4 * math.sqrt(0.25 / out.n_secure_bits)


class TestInterpolatedModeConsistency:
    @staticmethod
    def _interp_mean(scheme, case, gamma, entropy_tag, n_bits=150):
        vals = simulate_bits(scheme, Sampling(16384, gamma, "interpolated"),
                             [CASES.index(case)] * n_bits,
                             [(entropy_tag, gamma, bit) for bit in range(n_bits)]).u_zc2
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    def test_equilibrium_mean_converges_to_u2_with_oversampling(self, classic_scheme):
        # A linear interpolant of a band-limited process has slightly less
        # variance than the process; for a flat band the relative shortfall
        # of the crossing statistic is about (1 - sinc(1/gamma)) / 3, which
        # is 3.3% at gamma = 4 and negligible at gamma = 64.
        u2 = analytic_moments(1e3, 1.0, 1e4, 10.0).u2
        mean4, se4 = self._interp_mean(classic_scheme, "LH", 4, 55)
        mean64, se64 = self._interp_mean(classic_scheme, "LH", 64, 55)
        assert abs(mean64 - u2) < 4 * se64, (mean64, u2)
        assert abs(mean4 - u2) > abs(mean64 - u2)
        shortfall = (1.0 - math.sin(math.pi / 4) / (math.pi / 4)) / 3.0
        assert mean4 == pytest.approx(u2 * (1.0 - shortfall), rel=0.005)

    def test_vmg_means_reported_beside_conditional_oracle(self, vmg_scheme, capsys):
        lh_moments = analytic_moments(278.0, 1.0, 278.0,
                                      vmg_scheme.branches["HB"].mean_square)
        from kljnsim.circuit import conditional_zc_variance

        oracle = conditional_zc_variance(lh_moments)
        for gamma in (4, 64):
            means = {}
            for tag, case in enumerate(("LH", "HL")):
                means[case], _ = self._interp_mean(vmg_scheme, case, gamma, 560 + tag)
            print(f"gamma={gamma}: interpolated u_zc2 LH {means['LH']:.4f}, "
                  f"HL {means['HL']:.4f}, conditional oracle {oracle:.4f}")
            # reported, not asserted against the oracle; sanity only
            assert 0.0 < means["LH"] < lh_moments.u2 * 1.5
            assert 0.0 < means["HL"] < lh_moments.u2 * 1.5


def test_binomial_ci_halfwidth():
    assert binomial_ci_halfwidth(0.5, 10_000) == pytest.approx(1.96 * 0.5 / 100.0)
    assert binomial_ci_halfwidth(0.0, 100) == 0.0
    with pytest.raises(ValueError):
        binomial_ci_halfwidth(0.5, 0)
