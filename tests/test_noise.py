import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kurtosis

from kljnsim import noise

from kljnsim.errors import ConfigurationError
from kljnsim.noise import (
    BOLTZMANN,
    NoiseSpec,
    NoiseTrace,
    derive_seed,
    derive_seeds,
    estimate_psd,
    first_outputs,
    johnson_mean_square,
    noise_temperature,
    seeded_generators,
    stream_generators,
    synthesize,
)


def n_eff(spec: NoiseSpec) -> float:
    """Independent degrees of freedom behind the sample mean-square."""
    return 2.0 * spec.num_samples * spec.bandwidth / spec.sample_rate


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


class TestNoiseSpec:
    def test_nyquist_violation(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(1.0, 500.0, 900.0, 1024, 0)

    def test_negative_mean_square(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(-1.0, 500.0, 16000.0, 1024, 0)

    def test_too_short(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(1.0, 500.0, 16000.0, 1, 0)


class TestSynthesize:
    def test_zero_level_gives_zero_trace(self):
        tr = synthesize(NoiseSpec(0.0, 500.0, 16000.0, 4096, 3))
        assert np.all(tr.samples == 0.0)

    def test_seed_determinism(self):
        spec = NoiseSpec(1.0, 500.0, 16000.0, 8192, 1234)
        a = synthesize(spec)
        b = synthesize(spec)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_different_seeds_differ(self):
        a = synthesize(NoiseSpec(1.0, 500.0, 16000.0, 8192, 1))
        b = synthesize(NoiseSpec(1.0, 500.0, 16000.0, 8192, 2))
        assert not np.array_equal(a.samples, b.samples)

    def test_mean_square_within_4_standard_errors(self):
        spec = NoiseSpec(1.0, 500.0, 16000.0, 2**20, 99)
        tr = synthesize(spec)
        se = 1.0 * math.sqrt(2.0 / n_eff(spec))
        assert abs(tr.mean_square - 1.0) < 4.0 * se

    def test_zero_mean(self):
        tr = synthesize(NoiseSpec(1.0, 500.0, 16000.0, 2**16, 5))
        # DC bin is exactly zero, so the sample mean is rounding noise only
        assert abs(np.mean(tr.samples)) < 1e-12

    def test_moment_calibration_100_seeds(self):
        spec0 = NoiseSpec(1.0, 500.0, 4000.0, 2**16, 0)
        se = math.sqrt(2.0 / n_eff(spec0))
        values = []
        for seed in range(100):
            tr = synthesize(NoiseSpec(1.0, 500.0, 4000.0, 2**16, derive_seed(777, seed)))
            values.append(tr.mean_square)
            assert abs(values[-1] - 1.0) < 4.0 * se
        pooled = float(np.mean(values))
        assert abs(pooled - 1.0) < 4.0 * se / math.sqrt(100)

    def test_gaussianity_excess_kurtosis(self):
        tr = synthesize(NoiseSpec(1.0, 500.0, 2000.0, 2**20, 2024))
        assert abs(kurtosis(tr.samples, fisher=True)) < 0.05

    def test_band_limit_exact_spectrum(self):
        spec = NoiseSpec(1.0, 500.0, 8000.0, 2**16, 17)
        tr = synthesize(spec)
        power = np.abs(np.fft.rfft(tr.samples)) ** 2
        freqs = np.fft.rfftfreq(spec.num_samples, 1.0 / spec.sample_rate)
        out_of_band = power[freqs > spec.bandwidth * (1 + 1e-9)].sum()
        assert out_of_band < 1e-6 * power.sum()

    def test_critical_sampling_works(self):
        # sample_rate == 2 * bandwidth puts the band edge on the Nyquist bin
        spec = NoiseSpec(1.0, 500.0, 1000.0, 2**16, 8)
        tr = synthesize(spec)
        assert abs(tr.mean_square - 1.0) < 4.0 * math.sqrt(2.0 / 2**16)

    def test_no_in_band_bins_rejected(self):
        with pytest.raises(ConfigurationError):
            synthesize(NoiseSpec(1.0, 1.0, 16000.0, 128, 0))


class TestEstimatePsd:
    def test_all_zero_trace(self):
        tr = synthesize(NoiseSpec(0.0, 500.0, 16000.0, 2**14, 0))
        _, density = estimate_psd(tr, 4)
        assert np.all(density == 0.0)

    def test_flat_in_band_and_dark_out_of_band(self):
        spec = NoiseSpec(1.0, 500.0, 16000.0, 2**20, 12)
        tr = synthesize(spec)
        freqs, density = estimate_psd(tr, 16)
        in_band = density[(freqs > 0.1 * spec.bandwidth) & (freqs < 0.9 * spec.bandwidth)]
        expected = 1.0 / spec.bandwidth  # flat density U^2 / B
        assert np.mean(in_band) == pytest.approx(expected, rel=0.03)
        out_band = density[freqs > 1.1 * spec.bandwidth]
        assert np.max(out_band) < 1e-6 * np.mean(in_band)

    def test_integral_matches_mean_square(self):
        spec = NoiseSpec(1.0, 500.0, 4000.0, 2**20, 4)
        tr = synthesize(spec)
        freqs, density = estimate_psd(tr, 8)
        total = float(np.sum(density) * (freqs[1] - freqs[0]))
        assert total == pytest.approx(tr.mean_square, rel=0.01)

    def test_sine_concentrates(self):
        fs = 16000.0
        t = np.arange(2**14) / fs
        tr = NoiseTrace(samples=np.sin(2 * np.pi * 400.0 * t), sample_rate=fs)
        freqs, density = estimate_psd(tr, 4)
        assert abs(freqs[np.argmax(density)] - 400.0) < 2 * (freqs[1] - freqs[0])

    def test_too_short_trace(self):
        tr = synthesize(NoiseSpec(1.0, 500.0, 16000.0, 256, 0))
        with pytest.raises(ValueError):
            estimate_psd(tr, 8)


class TestSampleMoments:
    def test_independent_traces_fisher_bound(self):
        spec = NoiseSpec(1.0, 500.0, 4000.0, 2**18, 0)
        a = synthesize(NoiseSpec(1.0, 500.0, 4000.0, 2**18, 100))
        b = synthesize(NoiseSpec(1.0, 500.0, 4000.0, 2**18, 200))
        corr = np.mean(a.samples * b.samples) / math.sqrt(a.mean_square * b.mean_square)
        assert abs(corr) < 4.0 / math.sqrt(n_eff(spec))


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

#: 64-bit seeds, word edges included.
SEED = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestVectorizedSeeding:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples() | st.lists(ENTROPY_INT, min_size=1, max_size=8).map(tuple),
                    min_size=1, max_size=12))
    def test_derive_seeds_is_seed_sequence(self, rows):
        # One call mixes tuple lengths and word counts (1 to 14 words per row).
        assert derive_seeds(rows).tolist() == [seed_sequence_seed(row) for row in rows]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ENTROPY_INT, min_size=1, max_size=8))
    def test_derive_seed_is_the_scalar_case(self, entropy):
        assert derive_seed(*entropy) == seed_sequence_seed(entropy)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(SEED, min_size=1, max_size=6), st.integers(1, 9))
    def test_reseeded_generator_is_default_rng(self, seeds, k):
        for seed, rng in zip(seeds, seeded_generators(seeds), strict=True):
            reference = np.random.default_rng(seed)
            assert np.array_equal(rng.standard_normal(k), reference.standard_normal(k))
            assert np.array_equal(rng.integers(0, 2, size=2), reference.integers(0, 2, size=2))

    def test_stream_generators_cross_chunks(self, monkeypatch):
        monkeypatch.setattr(noise, "SEED_CHUNK", 3)
        rows = [(2**40 + 1, run, bit, 4) for run in range(2) for bit in range(4)]
        draws = [rng.standard_normal(3) for rng in stream_generators(iter(rows))]
        assert len(draws) == len(rows)
        for row, got in zip(rows, draws):
            assert np.array_equal(got, np.random.default_rng(derive_seed(*row)).standard_normal(3))

    def test_known_collisions_are_reproduced(self):
        # SeedSequence pads entropy with zero words and splits integers into
        # words; fixed-width keys (ROADMAP item 4) would remove both.
        a, b, c, d = derive_seeds([(1, 6), (1, 6, 0, 0), (2**32 + 5, 1), (5, 1, 1)]).tolist()
        assert a == b == seed_sequence_seed((1, 6))
        assert c == d == seed_sequence_seed((5, 1, 1))

    def test_entropy_must_be_non_negative_integers(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds([(1, -1)])
        with pytest.raises(TypeError):
            derive_seeds([(1, 2.5)])


def assert_first_output_rule(seed: int, raw: int) -> None:
    """``raw`` is ``default_rng(seed)``'s first output, and its bits 31 and 63 are numpy's fair bits."""
    assert raw == int(np.random.default_rng(seed).bit_generator.random_raw())
    pair = np.random.default_rng(seed).integers(0, 2, size=2).tolist()
    assert pair == [raw >> 31 & 1, raw >> 63]
    assert np.random.default_rng(seed).integers(0, 2) == raw >> 31 & 1


class TestFirstOutputs:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(ENTROPY_INT, min_size=1, max_size=6).map(tuple), max_size=12))
    def test_first_output_of_each_row(self, rows):
        got = first_outputs(iter(rows))
        assert got.dtype == np.uint64 and got.shape == (len(rows),)
        for row, raw in zip(rows, got.tolist()):
            assert_first_output_rule(derive_seed(*row), raw)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    @example(SEED_EDGES)
    def test_first_output_of_each_seed(self, seeds):
        for seed, raw in zip(seeds, noise._first_outputs(seeds), strict=True):
            assert_first_output_rule(seed, raw)

    def test_rows_cross_chunks(self, monkeypatch):
        monkeypatch.setattr(noise, "SEED_CHUNK", 3)
        rows = [(2**40 + 1, run, bit, 0) for run in range(2) for bit in range(4)]
        got = first_outputs(iter(rows))
        assert got.tolist() == [
            int(np.random.default_rng(derive_seed(*row)).bit_generator.random_raw())
            for row in rows
        ]

    def test_no_rows(self):
        got = first_outputs(iter([]))
        assert got.dtype == np.uint64 and got.shape == (0,)
