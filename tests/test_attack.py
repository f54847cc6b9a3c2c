import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim.attack import (
    STREAM_EVE_TIE,
    ZC_MODES,
    AttackCalibration,
    attack_statistics,
    binomial_ci_halfwidth,
    block_zero_crossings,
    calibrate,
    detect_zero_crossings,
    eve_guess_bit,
    histogram,
    zc_mean_square,
)
from kljnsim.circuit import WireTrace, analytic_moments
from kljnsim.errors import CalibrationError
from kljnsim.noise import derive_seed
from kljnsim.protocol import (
    CASES,
    BitColumns,
    Sampling,
    SessionConfig,
    SessionResult,
    run_session,
)
from kljnsim.schemes import classic_kljn, solve_vmg
from test_protocol import case_wire, reference_zero_crossings


def wire(i, u, fs=1.0):
    return WireTrace(u_c=np.asarray(u, float), i_c=np.asarray(i, float), sample_rate=fs)


@pytest.fixture(scope="module")
def classic_scheme():
    return classic_kljn(1e3, 1e4, 1.0, 500.0)


@pytest.fixture(scope="module")
def vmg_scheme():
    return solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)


class TestDetectZeroCrossings:
    def test_interpolated_midpoint(self):
        cs = detect_zero_crossings(wire([1.0, -1.0], [2.0, 4.0]), "interpolated")
        assert cs.times.tolist() == [0.5]
        assert cs.values.tolist() == [3.0]

    def test_constant_sign_empty(self):
        cs = detect_zero_crossings(wire([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), "interpolated")
        assert cs.values.size == 0

    def test_exact_zero_counts_at_sample(self):
        cs = detect_zero_crossings(wire([1.0, 0.0, 2.0], [5.0, 7.0, 9.0]), "sample_before")
        assert cs.times.tolist() == [1.0]
        assert cs.values.tolist() == [7.0]

    def test_modes_pick_expected_samples(self):
        i = [3.0, -1.0, 4.0]
        u = [10.0, 20.0, 30.0]
        assert detect_zero_crossings(wire(i, u), "sample_before").values.tolist() == [10.0, 20.0]
        assert detect_zero_crossings(wire(i, u), "sample_after").values.tolist() == [20.0, 30.0]
        # |i| is smallest at the middle sample for both crossings: dedupe to one
        nearest = detect_zero_crossings(wire(i, u), "nearest")
        assert nearest.values.tolist() == [20.0]

    def test_times_strictly_increasing(self, vmg_scheme):
        w = case_wire(vmg_scheme, "HL", 2**15, 16000.0, (4, 0, 0))
        for mode in ("interpolated", "sample_before", "sample_after", "nearest"):
            cs = detect_zero_crossings(w, mode)
            assert cs.values.size > 10
            assert np.all(np.diff(cs.times) > 0)

    def test_interpolated_zero_is_exact(self):
        # linear current through zero: interpolation lands on the true root
        i = [2.0, -2.0]
        u = [1.0, 5.0]
        cs = detect_zero_crossings(wire(i, u), "interpolated")
        assert cs.values.tolist() == [3.0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            detect_zero_crossings(wire([1.0, -1.0], [0.0, 0.0]), "midpoint")

    def test_equilibrium_sampling_is_unbiased(self, classic_scheme):
        # In equilibrium the wire voltage and current are uncorrelated, so
        # crossing-time sampling reproduces the nominal mean square.
        values = []
        for bit in range(8):
            w = case_wire(classic_scheme, "LH", 2**17, 16000.0, (6, 0, bit))
            values.append(detect_zero_crossings(w, "interpolated").values)
        values = np.concatenate(values)
        assert values.size > 10_000
        u2 = analytic_moments(1e3, 1.0, 1e4, 10.0).u2
        se = u2 * math.sqrt(2.0 / (values.size / 2))  # conservative n_eff
        assert np.mean(values**2) == pytest.approx(u2, abs=4 * se)


#: Current samples: exact zeros (with either sign) are frequent, so that
#: they meet crossings, each other and the trace ends.
CURRENT = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def sampled_wires(draw):
    """A wire at 1 Hz, so a crossing's time is its sample index in sample-aligned modes."""
    i = draw(st.lists(CURRENT, min_size=1, max_size=40))
    u = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=len(i), max_size=len(i)))
    return wire(i, u)


def expected_sample_indices(w, mode):
    """Indices a sample-aligned mode picks, from the definition in ``ZC_MODES``."""
    i = w.i_c
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
        cs = detect_zero_crossings(w, mode)
        assert np.all(np.diff(cs.times) > 0)
        assert cs.values.size == cs.times.size

    @settings(max_examples=300, deadline=None)
    @given(sampled_wires(), st.sampled_from(ZC_MODES))
    def test_every_exact_zero_counted(self, w, mode):
        times = set(detect_zero_crossings(w, mode).times.tolist())
        assert set(np.flatnonzero(w.i_c == 0.0).astype(float).tolist()) <= times

    @settings(max_examples=300, deadline=None)
    @given(sampled_wires(), st.sampled_from(("sample_before", "sample_after", "nearest")))
    def test_sample_aligned_values_are_wire_samples(self, w, mode):
        cs = detect_zero_crossings(w, mode)
        index = cs.times.astype(np.int64)
        assert np.array_equal(index, cs.times)
        assert np.array_equal(cs.values, w.u_c[index])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TINY_CURRENT, min_size=2, max_size=40),
           st.sampled_from(("sample_before", "sample_after")))
    def test_every_sign_change_counted_at_any_magnitude(self, i, mode):
        changes = [k for k in range(len(i) - 1) if (i[k] < 0) != (i[k + 1] < 0)]
        times = detect_zero_crossings(wire(i, [0.0] * len(i)), mode).times
        assert times.tolist() == [float(k + (mode == "sample_after")) for k in changes]

    @settings(max_examples=300, deadline=None)
    @given(sampled_wires(), st.sampled_from(("sample_before", "sample_after", "nearest")))
    def test_dedupe_keeps_every_distinct_pick(self, w, mode):
        # Adjacent crossings (or a crossing and an exact zero) that elect the
        # same sample collapse into one; no other crossing is dropped.
        times = detect_zero_crossings(w, mode).times
        assert times.tolist() == [float(k) for k in expected_sample_indices(w, mode)]


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
            ref_values, ref_times = reference_zero_crossings(wire(i[r], u[r], fs), mode)
            assert np.array_equal(times[lo:hi], ref_times), r
            assert np.array_equal(values[lo:hi], ref_values), r

    def test_tied_crossings_keep_the_first(self):
        # The reference keeps the first of two crossings at one time.
        values, times = reference_zero_crossings(wire(*TIED_CROSSINGS[0], *TIED_CROSSINGS[1]),
                                                 "interpolated")
        assert times[0] == 1.0 and values[0] != 0.3


class TestZcMeanSquare:
    def test_values(self):
        cs = detect_zero_crossings(wire([1.0, -1.0, 1.0], [3.0, -3.0, 3.0]), "sample_before")
        assert zc_mean_square(cs) == 9.0

    def test_empty_absent(self):
        cs = detect_zero_crossings(wire([1.0, 2.0], [0.0, 0.0]), "sample_before")
        assert zc_mean_square(cs) is None


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

    def test_too_few_bits(self, classic_scheme):
        with pytest.raises(ValueError):
            calibrate(classic_scheme, Sampling(8192, 8, "sample_after"),
                      calibration_bits=50, seed=1)


class TestEveGuess:
    CAL = AttackCalibration(mean_zc_lh=0.301, mean_zc_hl=0.576,
                            threshold=0.4385, polarity="hl_above")

    def test_above_threshold(self):
        assert eve_guess_bit(0.55, self.CAL, tie_seed=0) == "HL"

    def test_below_threshold(self):
        assert eve_guess_bit(0.30, self.CAL, tie_seed=0) == "LH"

    def test_lh_above_polarity(self):
        cal = AttackCalibration(0.576, 0.301, 0.4385, "lh_above")
        assert eve_guess_bit(0.55, cal, tie_seed=0) == "LH"

    def test_indistinct_is_fair_coin(self):
        cal = AttackCalibration(0.5, 0.5, 0.5, "indistinct")
        guesses = [eve_guess_bit(0.7, cal, tie_seed=s) for s in range(2000)]
        rate = guesses.count("HL") / len(guesses)
        assert abs(rate - 0.5) < 4 * math.sqrt(0.25 / 2000)


def _session(*runs):
    """A session of equally long runs, each a list of (case, u_zc2) bits."""
    bits = [bit for run in runs for bit in run]
    ones = np.ones(len(bits))
    columns = BitColumns(
        case=np.array([CASES.index(case) for case, _ in bits]),
        u2=ones, i2=ones, p_ab=0.0 * ones,
        n_zc=np.full(len(bits), 5),
        u_zc2=np.array([v for _, v in bits]),
    )
    return SessionResult(bits=columns, misclassified=np.zeros(len(bits), dtype=bool),
                         bits_per_run=len(runs[0]))


class TestAttackStatistics:
    CAL = AttackCalibration(0.3, 0.6, 0.45, "hl_above")

    def test_all_correct(self):
        runs = _session([("HL", 0.55), ("LH", 0.31)], [("HL", 0.62), ("LH", 0.29)])
        out = attack_statistics(runs, self.CAL)
        assert out.p == 1.0
        assert out.sigma_p == 0.0
        assert out.n_secure_bits == 4
        assert out.n_runs == 2

    def test_insecure_bits_ignored(self):
        runs = _session([("HH", 0.99), ("HL", 0.55)])
        out = attack_statistics(runs, self.CAL)
        assert out.n_secure_bits == 1
        assert out.p == 1.0

    def test_run_without_secure_bits_excluded(self):
        runs = _session([("HL", 0.55)], [("LL", 0.2)])
        with pytest.warns(UserWarning, match="no secure bits"):
            out = attack_statistics(runs, self.CAL)
        assert out.n_runs == 1
        assert out.n_excluded_runs == 1

    def test_per_run_mean_and_std(self):
        runs = _session(
            [("HL", 0.55), ("HL", 0.20)],  # p = 0.5
            [("LH", 0.31), ("LH", 0.30)],  # p = 1.0
        )
        out = attack_statistics(runs, self.CAL)
        assert out.p == pytest.approx(0.75)
        assert out.sigma_p == pytest.approx(np.std([0.5, 1.0], ddof=1))

    def test_no_secure_bits_anywhere(self):
        with pytest.raises(RuntimeError, match="no run contained a secure bit"):
            with pytest.warns(UserWarning):
                attack_statistics(_session([("LL", 0.2)]), self.CAL)


@pytest.mark.parametrize("guess_seed", [0, 2**40 + 3])
def test_coin_flip_p_matches_per_bit_guesses(guess_seed):
    # Under indistinct calibration each secure bit's guess is
    # eve_guess_bit with tie seed derive_seed(guess_seed, run, bit, STREAM_EVE_TIE).
    cal = AttackCalibration(0.5, 0.5, 0.5, "indistinct")
    rng = np.random.default_rng(21)
    runs = [[(CASES[c], 0.5) for c in rng.integers(0, 4, size=60)] for _ in range(4)]
    expected = []
    for run_idx, run in enumerate(runs):
        hits = [eve_guess_bit(v, cal, derive_seed(guess_seed, run_idx, bit_idx, STREAM_EVE_TIE))
                == case
                for bit_idx, (case, v) in enumerate(run) if case in ("LH", "HL")]
        expected.append(sum(hits) / len(hits))
    out = attack_statistics(_session(*runs), cal, guess_seed=guess_seed)
    assert out.per_run_p == tuple(expected)
    assert out.p == float(np.mean(expected))


class TestEndToEndEquilibrium:
    def test_classic_attack_near_half(self, classic_scheme):
        cal = calibrate(classic_scheme, Sampling(4096, 4, "sample_after"),
                        calibration_bits=100, seed=9)
        cfg = SessionConfig(scheme=classic_scheme, sampling=Sampling(4096, 4),
                            bits_per_run=400, runs=2, master_seed=9)
        out = attack_statistics(run_session(cfg), cal, guess_seed=123)
        assert cal.polarity == "indistinct"
        assert abs(out.p - 0.5) < 4 * math.sqrt(0.25 / out.n_secure_bits)


class TestInterpolatedModeConsistency:
    @staticmethod
    def _interp_mean(scheme, case, gamma, entropy_tag, n_bits=150):
        fs = 2 * 500.0 * gamma
        vals = []
        for bit in range(n_bits):
            w = case_wire(scheme, case, 16384, fs, (entropy_tag, gamma, bit))
            v = zc_mean_square(detect_zero_crossings(w, "interpolated"))
            if v is not None:
                vals.append(v)
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


class TestHistogram:
    def test_single_bin(self):
        rows = histogram([1.0, 1.0, 1.0], 1, (0.5, 1.5))
        assert rows == [(-math.inf, 0.5, 0), (0.5, 1.5, 3), (1.5, math.inf, 0)]

    def test_uniform_grid_equal_counts(self):
        values = np.linspace(0.05, 3.95, 40)
        rows = histogram(values, 4, (0.0, 4.0))
        assert [r[2] for r in rows[1:-1]] == [10, 10, 10, 10]

    def test_overflow_sentinels(self):
        rows = histogram([-5.0, 0.5, 99.0, 100.0], 2, (0.0, 1.0))
        assert rows[0][2] == 1      # below range
        assert rows[-1][2] == 2     # above range
        assert sum(r[2] for r in rows) == 4

    def test_empty_input(self):
        rows = histogram([], 3, (0.0, 1.0))
        assert all(r[2] == 0 for r in rows)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([1.0], 0, (0.0, 1.0))


def test_binomial_ci_halfwidth():
    assert binomial_ci_halfwidth(0.5, 10_000) == pytest.approx(1.96 * 0.5 / 100.0)
    assert binomial_ci_halfwidth(0.0, 100) == 0.0
    with pytest.raises(ValueError):
        binomial_ci_halfwidth(0.5, 0)
