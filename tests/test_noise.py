import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kurtosis

from conftest import band_trace
from kljnsim import noise
from kljnsim.errors import ConfigurationError
from kljnsim.noise import (
    BOLTZMANN,
    derive_seed,
    estimate_psd,
    fair_bits,
    fill_band,
    johnson_mean_square,
    key_words,
    noise_temperature,
    stream_generators,
)
from kljnsim.protocol import Sampling
from test_protocol import reference_fill_band


def n_eff(n: int, oversample: float) -> float:
    """Independent degrees of freedom behind the sample mean-square: 2 n B / fs."""
    return n / oversample


def mean_square(x: np.ndarray) -> float:
    """Sample mean-square of a trace."""
    return float(np.mean(x * x))


class TestJohnsonFormulas:
    def test_boltzmann_is_the_si_value(self):
        from scipy.constants import k

        assert BOLTZMANN == k

    def test_fig5_level(self):
        # 1.3033e17 K at 278 ohm / 500 Hz is the unit-level operating point
        assert johnson_mean_square(1.3033e17, 278.0, 500.0) == pytest.approx(1.000, rel=1e-3)

    def test_zero_temperature(self):
        assert johnson_mean_square(0.0, 278.0, 500.0) == 0.0

    def test_room_temperature(self):
        # direct evaluation: 4 * 1.380649e-23 * 300 * 1e4 * 500 = 8.2839e-14
        assert johnson_mean_square(300.0, 10e3, 500.0) == pytest.approx(8.2839e-14, rel=1e-4, abs=0)
        assert johnson_mean_square(300.0, 10.0, 500.0) == pytest.approx(8.2839e-17, rel=1e-4, abs=0)

    def test_temperature_inversion(self):
        assert noise_temperature(1.0, 278.0, 500.0) == pytest.approx(1.3033e17, rel=1e-3)
        assert noise_temperature(0.477, 278.0, 500.0) == pytest.approx(6.21e16, rel=1e-2)
        assert noise_temperature(0.0, 278.0, 500.0) == 0.0

    def test_round_trip(self):
        u2 = johnson_mean_square(300.0, 1234.5, 678.0)
        assert noise_temperature(u2, 1234.5, 678.0) == pytest.approx(300.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            noise_temperature(1.0, 0.0, 500.0)
        with pytest.raises(ValueError):
            noise_temperature(1.0, 278.0, -1.0)
        with pytest.raises(ValueError):
            johnson_mean_square(-1.0, 278.0, 500.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                                      (1.0, 1.0, math.nan)])
    def test_johnson_refuses_nan(self, args):
        with pytest.raises(ValueError, match="must all be >= 0"):
            johnson_mean_square(*args)

    @pytest.mark.parametrize("args, name", [((math.nan, 1.0, 1.0), "mean_square"),
                                            ((1.0, math.nan, 1.0), "resistance"),
                                            ((1.0, 1.0, math.nan), "bandwidth")])
    def test_temperature_blames_the_nan_argument(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            noise_temperature(*args)


class TestFillBand:
    @pytest.mark.parametrize("sampling", [Sampling(1024, 4), Sampling(257, 1.5),
                                          Sampling(256, 1), Sampling(2, 1)],
                             ids=["1024-4", "257-1.5", "256-1-nyquist", "2-1"])
    def test_rows_are_the_per_trace_reference(self, sampling):
        n, k_max = sampling.samples_per_bit, sampling.band_bins
        levels = [1.0, 0.32, 0.0, 7.5]
        rng = np.random.Generator(np.random.PCG64(0))
        spectra = fill_band(sampling, levels, (rng for _ in levels))
        assert spectra.shape == (len(levels), n // 2 + 1) and spectra.dtype == np.complex128
        rng.bit_generator.state = np.random.PCG64(0).state
        for row, level in zip(spectra, levels):
            expected = np.zeros(n // 2 + 1, dtype=np.complex128)
            reference_fill_band(expected[1 : k_max + 1], n, level, rng)
            assert row.tobytes() == expected.tobytes()
            parts = row.view(np.float64)
            assert not parts[:2].any() and not parts[2 * k_max + 2 :].any()
            if n % 2 == 0:
                assert row[-1].imag == 0.0

    @pytest.mark.parametrize("level", [-1.0, math.nan, math.inf])
    def test_negative_or_nan_level_refused(self, level):
        with pytest.raises(ConfigurationError, match="mean_square must be >= 0"):
            fill_band(Sampling(1024, 4), [1.0, level], [np.random.default_rng(0)] * 2)


class TestSynthesize:
    """Single traces drawn as the kernel draws them (``band_trace``)."""

    def test_zero_level_gives_zero_trace(self):
        x = band_trace(0.0, 16.0, 4096, 3)
        assert np.all(x == 0.0)

    def test_seed_determinism(self):
        a = band_trace(1.0, 16.0, 8192, 1234)
        b = band_trace(1.0, 16.0, 8192, 1234)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = band_trace(1.0, 16.0, 8192, 1)
        b = band_trace(1.0, 16.0, 8192, 2)
        assert not np.array_equal(a, b)

    def test_mean_square_within_4_standard_errors(self):
        x = band_trace(1.0, 16.0, 2**20, 99)
        se = 1.0 * math.sqrt(2.0 / n_eff(2**20, 16.0))
        assert abs(mean_square(x) - 1.0) < 4.0 * se

    def test_zero_mean(self):
        x = band_trace(1.0, 16.0, 2**16, 5)
        # DC bin is exactly zero, so the sample mean is rounding noise only
        assert abs(np.mean(x)) < 1e-12

    def test_moment_calibration_100_seeds(self):
        se = math.sqrt(2.0 / n_eff(2**16, 4.0))
        values = []
        for seed in range(100):
            values.append(mean_square(band_trace(1.0, 4.0, 2**16, derive_seed(777, seed))))
            assert abs(values[-1] - 1.0) < 4.0 * se
        pooled = float(np.mean(values))
        assert abs(pooled - 1.0) < 4.0 * se / math.sqrt(100)

    def test_gaussianity_excess_kurtosis(self):
        x = band_trace(1.0, 2.0, 2**20, 2024)
        assert abs(kurtosis(x, fisher=True)) < 0.05

    def test_band_limit_exact_spectrum(self):
        fs, bandwidth, n = 8000.0, 500.0, 2**16
        x = band_trace(1.0, fs / (2 * bandwidth), n, 17)
        power = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        out_of_band = power[freqs > bandwidth * (1 + 1e-9)].sum()
        assert out_of_band < 1e-6 * power.sum()

    def test_critical_sampling_works(self):
        # sample_rate == 2 * bandwidth puts the band edge on the Nyquist bin
        x = band_trace(1.0, 1.0, 2**16, 8)
        assert abs(mean_square(x) - 1.0) < 4.0 * math.sqrt(2.0 / 2**16)

    def test_no_in_band_bins_rejected(self):
        # 128 samples at sample_rate / (2 * bandwidth) = 8000 reach no bin of the band
        with pytest.raises(ConfigurationError):
            band_trace(1.0, 8000.0, 128, 0)


class TestEstimatePsd:
    def test_all_zero_trace(self):
        x = band_trace(0.0, 16.0, 2**14, 0)
        _, density = estimate_psd(x, 16000.0, 4)
        assert np.all(density == 0.0)

    def test_flat_in_band_and_dark_out_of_band(self):
        bandwidth = 500.0
        x = band_trace(1.0, 16.0, 2**20, 12)
        freqs, density = estimate_psd(x, 16000.0, 16)
        in_band = density[(freqs > 0.1 * bandwidth) & (freqs < 0.9 * bandwidth)]
        expected = 1.0 / bandwidth  # flat density U^2 / B
        assert np.mean(in_band) == pytest.approx(expected, rel=0.03)
        out_band = density[freqs > 1.1 * bandwidth]
        assert np.max(out_band) < 1e-6 * np.mean(in_band)

    def test_integral_matches_mean_square(self):
        x = band_trace(1.0, 4.0, 2**20, 4)
        freqs, density = estimate_psd(x, 4000.0, 8)
        total = float(np.sum(density) * (freqs[1] - freqs[0]))
        assert total == pytest.approx(mean_square(x), rel=0.01)

    def test_sine_concentrates(self):
        fs = 16000.0
        t = np.arange(2**14) / fs
        freqs, density = estimate_psd(np.sin(2 * np.pi * 400.0 * t), fs, 4)
        assert abs(freqs[np.argmax(density)] - 400.0) < 2 * (freqs[1] - freqs[0])

    def test_too_short_trace(self):
        x = band_trace(1.0, 16.0, 256, 0)
        with pytest.raises(ValueError):
            estimate_psd(x, 16000.0, 8)

    @pytest.mark.parametrize("segments", [2.5, True, 0])
    def test_segments_follow_the_integer_rule(self, segments):
        # A float or a bool is refused, not used as a divisor or read as 1.
        with pytest.raises(ConfigurationError, match="segments must be"):
            estimate_psd(np.zeros(4096), 16000.0, segments)


class TestSampleMoments:
    def test_independent_traces_fisher_bound(self):
        a = band_trace(1.0, 4.0, 2**18, 100)
        b = band_trace(1.0, 4.0, 2**18, 200)
        corr = np.mean(a * b) / math.sqrt(mean_square(a) * mean_square(b))
        assert abs(corr) < 4.0 / math.sqrt(n_eff(2**18, 4.0))


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seeds = {derive_seed(1, run, bit, tag) for run in range(4) for bit in range(4) for tag in range(4)}
    assert len(seeds) == 64


def seed_sequence_seed(entropy) -> int:
    """The seed numpy's own ``SeedSequence`` derives from ``entropy``."""
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


#: Integers at the uint32 word boundaries, which take 1, 2 or 3 words.
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]

#: Entropy integers: word edges, and any integer up to 2**70.
ENTROPY_INT = st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**70))

#: 64-bit seeds at the word and sign-bit edges.
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@st.composite
def key_calls(draw):
    """Fields of one ``key_words`` call, and each of its rows as a tuple of integers.

    Fields are shared integers from ``ENTROPY_INT`` (1 to 3 words each) and
    per-row columns in [0, 2**32) of one length, possibly zero.
    """
    n = draw(st.integers(0, 12))
    column = st.builds(np.array, st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n),
                       st.sampled_from([np.int64, np.uint32, np.uint64]))
    fields = draw(st.lists(ENTROPY_INT | column, max_size=8))
    rows = n if any(isinstance(f, np.ndarray) for f in fields) else 1
    keys = [tuple(int(f[r]) if isinstance(f, np.ndarray) else f for f in fields)
            for r in range(rows)]
    return fields, keys


def session_keys(seed, runs, bits, tag) -> tuple[np.ndarray, list]:
    """The key words of ``runs`` x ``bits`` bits of one stream, and the same keys as tuples."""
    run, bit = np.divmod(np.arange(runs * bits), bits)
    rows = [(seed, r, b, tag) for r, b in zip(run.tolist(), bit.tolist())]
    return key_words(seed, run, bit, tag), rows


class TestVectorizedSeeding:
    @settings(max_examples=300, deadline=None)
    @given(key_calls(), st.sampled_from([1, 3, noise.SEED_CHUNK]), st.integers(1, 8))
    def test_derive_seeds_is_seed_sequence(self, call, chunk, width):
        # Every key_words row hashes as SeedSequence hashes its key (0 to 24
        # words per row, 0 to 12 rows) at every state width from 1 to 8, and
        # each stream matches default_rng of its seed, also where the rows
        # cross SEED_CHUNK.
        fields, rows = call
        keys = key_words(*fields)
        assert keys.dtype == np.uint32 and keys.ndim == 2 and len(keys) == len(rows)
        states = noise._seed_sequence_state(keys, width)
        assert states.dtype == np.uint64 and states.shape == (width, len(rows))
        for row, state in zip(rows, states.T.tolist()):
            assert state == np.random.SeedSequence(row).generate_state(width, np.uint64).tolist()
        seeds = [seed_sequence_seed(row) for row in rows]
        with mock.patch.object(noise, "SEED_CHUNK", chunk):
            draws = [rng.standard_normal(3) for rng in stream_generators(keys)]
            bits = fair_bits(keys)
        assert len(draws) == len(rows) and bits.shape == (len(rows), 2)
        for seed, got, pair in zip(seeds, draws, bits.tolist()):
            assert np.array_equal(got, np.random.default_rng(seed).standard_normal(3))
            assert pair == np.random.default_rng(seed).integers(0, 2, size=2).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ENTROPY_INT, min_size=1, max_size=8))
    def test_derive_seed_is_the_scalar_case(self, entropy):
        assert derive_seed(*entropy) == seed_sequence_seed(entropy)

    @settings(max_examples=100, deadline=None)
    @given(key_calls(), st.integers(1, 9))
    def test_reseeded_generator_is_default_rng(self, call, k):
        fields, rows = call
        for row, rng in zip(rows, stream_generators(key_words(*fields)), strict=True):
            reference = np.random.default_rng(derive_seed(*row))
            assert np.array_equal(rng.standard_normal(k), reference.standard_normal(k))
            assert np.array_equal(rng.integers(0, 2, size=2), reference.integers(0, 2, size=2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    @example(SEED_EDGES)
    def test_seeding_of_each_seed(self, seeds):
        words = noise._pcg64_words(seeds)
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        assert words.flags.c_contiguous
        for seed, row in zip(seeds, words, strict=True):
            assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))

    def test_each_row_has_its_own_generator(self, monkeypatch):
        # All generators are taken before any draws: each is its key's own
        # stream, also across SEED_CHUNK.
        monkeypatch.setattr(noise, "SEED_CHUNK", 3)
        keys, rows = session_keys(9, 2, 4, 2)
        rngs = list(stream_generators(keys))
        assert len({id(rng) for rng in rngs}) == len(rows)
        for row, rng in zip(rows, rngs, strict=True):
            assert np.array_equal(rng.standard_normal(5),
                                  np.random.default_rng(derive_seed(*row)).standard_normal(5))

    def test_stream_generators_cross_chunks(self, monkeypatch):
        monkeypatch.setattr(noise, "SEED_CHUNK", 3)
        keys, rows = session_keys(2**40 + 1, 2, 4, 4)
        draws = [rng.standard_normal(3) for rng in stream_generators(keys)]
        assert len(draws) == len(rows)
        for row, got in zip(rows, draws):
            assert np.array_equal(got, np.random.default_rng(derive_seed(*row)).standard_normal(3))

    def test_known_collisions_are_reproduced(self):
        # SeedSequence pads entropy with zero words and splits integers into
        # words; fixed-width keys (ROADMAP item 4) would remove both.
        a, b = derive_seed(1, 6), derive_seed(1, 6, 0, 0)
        c, d = derive_seed(2**32 + 5, 1), derive_seed(5, 1, 1)
        assert a == b == seed_sequence_seed((1, 6))
        assert c == d == seed_sequence_seed((5, 1, 1))

    def test_entropy_must_be_non_negative_integers(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seed(1, -1)
        with pytest.raises(TypeError):
            derive_seed(1, 2.5)
        with pytest.raises(TypeError):
            key_words(1, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("value", [-1, 2**32])
    def test_per_row_values_must_be_one_word(self, value):
        # A per-row value is one uint32 word: below 0 or from 2**32 up it is refused,
        # not wrapped or split into words.
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            key_words(1, np.array([0, value], dtype=np.int64))

    def test_per_row_fields_must_share_a_length(self):
        with pytest.raises(ValueError, match="one length"):
            key_words(np.arange(2), np.arange(3))


def assert_fair_bits_rule(row: tuple, bits: list) -> None:
    """``bits`` are the first fair bits numpy draws from ``default_rng(derive_seed(*row))``."""
    seed = derive_seed(*row)
    assert bits == np.random.default_rng(seed).integers(0, 2, size=2).tolist()
    assert bits[0] == np.random.default_rng(seed).integers(0, 2)


class TestFirstOutputs:
    """``fair_bits`` reads numpy's first fair bits from PCG64's first output."""

    @settings(max_examples=200, deadline=None)
    @given(key_calls())
    def test_first_output_of_each_row(self, call):
        fields, rows = call
        got = fair_bits(key_words(*fields))
        assert got.dtype == bool and got.shape == (len(rows), 2)
        for row, bits in zip(rows, got.tolist()):
            assert_fair_bits_rule(row, bits)

    def test_rows_cross_chunks(self, monkeypatch):
        monkeypatch.setattr(noise, "SEED_CHUNK", 3)
        keys, rows = session_keys(2**40 + 1, 2, 4, 0)
        got = fair_bits(keys)
        assert got.shape == (len(rows), 2)
        for row, bits in zip(rows, got.tolist()):
            assert_fair_bits_rule(row, bits)

    def test_no_rows(self):
        got = fair_bits(key_words(1, np.arange(0), 0))
        assert got.dtype == bool and got.shape == (0, 2)


def test_stream_tags_are_distinct():
    tags = [value for name, value in vars(noise).items() if name.startswith("STREAM_")]
    tags += noise.BRANCH_STREAMS.values()
    assert len(tags) == 8 and len(set(tags)) == len(tags)
