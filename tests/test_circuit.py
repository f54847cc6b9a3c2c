import math

import numpy as np
import pytest

from kljnsim.circuit import (
    MomentSummary,
    analytic_moments,
    conditional_zc_variance,
    solve_wire,
)
from kljnsim.noise import BOLTZMANN, NoiseSpec, johnson_mean_square, synthesize


def solved(x_a, x_b, r_a, r_b):
    """``(u_c, i_c)`` of the wire that generator voltages ``x_a``, ``x_b`` drive."""
    u_c, i_c = np.array(x_a, float), np.array(x_b, float)
    solve_wire(u_c, i_c, r_a, r_b)
    return u_c, i_c


class TestWireObservables:
    def test_constant_divider(self):
        u_c, i_c = solved([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 1.0, 1.0)
        assert np.allclose(u_c, 0.5)
        assert np.allclose(i_c, 0.5)

    def test_coincidence_identity(self):
        # equal generator voltages mean zero current and U_c == U_A
        samples = [0.3, -1.2, 0.7]
        u_c, i_c = solved(samples, samples, 100.0, 250.0)
        assert np.all(i_c == 0.0)
        assert np.allclose(u_c, samples)

    def test_length_mismatch(self):
        # a one-sample generator is not broadcast over a two-sample wire
        with pytest.raises(ValueError):
            solved([1.0, 2.0], [1.0], 1.0, 1.0)

    def test_kirchhoff_pointwise_identity(self):
        fs = 16000.0
        x_a = synthesize(NoiseSpec(1.0, 500.0, fs, 4096, 11)).samples
        x_b = synthesize(NoiseSpec(0.32, 500.0, fs, 4096, 22)).samples
        u_c, i_c = solved(x_a, x_b, 278.0, 100.0)
        lhs_a = x_a - i_c * 278.0
        lhs_b = x_b + i_c * 100.0
        scale = np.max(np.abs(u_c))
        assert np.max(np.abs(lhs_a - u_c)) < 1e-12 * scale
        assert np.max(np.abs(lhs_b - u_c)) < 1e-12 * scale

    def test_power_antisymmetry(self):
        x_a = synthesize(NoiseSpec(1.0, 500.0, 16000.0, 4096, 1)).samples
        x_b = synthesize(NoiseSpec(0.5, 500.0, 16000.0, 4096, 2)).samples
        u_fwd, i_fwd = solved(x_a, x_b, 278.0, 100.0)
        u_rev, i_rev = solved(x_b, x_a, 100.0, 278.0)
        assert np.array_equal(i_fwd, -i_rev)
        assert np.mean(u_fwd * i_fwd) == pytest.approx(-np.mean(u_rev * i_rev), abs=1e-18)

    def test_sampled_moments_match_oracle_50_pairs(self):
        rng = np.random.default_rng(42)
        fs, n = 4000.0, 2**16
        n_eff = 2 * n * 500.0 / fs
        for trial in range(50):
            r_a, r_b = 10 ** rng.uniform(2, 5, size=2)
            u2_a, u2_b = 10 ** rng.uniform(-1, 1, size=2)
            u_c, i_c = solved(synthesize(NoiseSpec(u2_a, 500.0, fs, n, 1000 + trial)).samples,
                              synthesize(NoiseSpec(u2_b, 500.0, fs, n, 2000 + trial)).samples,
                              r_a, r_b)
            oracle = analytic_moments(r_a, u2_a, r_b, u2_b)
            tol = 4.0 * math.sqrt(2.0 / n_eff)
            assert np.mean(u_c * u_c) == pytest.approx(oracle.u2, rel=tol, abs=0)
            assert np.mean(i_c * i_c) == pytest.approx(oracle.i2, rel=tol, abs=0)
            p_se = math.sqrt((oracle.u2 * oracle.i2 + oracle.p_ab**2) / n_eff)
            assert abs(np.mean(u_c * i_c) - oracle.p_ab) < 4.0 * p_se


class TestAnalyticMoments:
    def test_classic_levels(self):
        m = analytic_moments(1e3, 1.0, 1e4, 10.0)
        assert m.u2 == pytest.approx(0.9091, rel=1e-3)
        assert m.i2 == pytest.approx(9.091e-8, rel=1e-3, abs=0)
        assert m.p_ab == 0.0

    def test_vmg_row(self):
        m = analytic_moments(278.0, 1.0, 278.0, 0.4766)
        assert m.u2 == pytest.approx(0.3691, rel=1e-3)
        assert m.i2 == pytest.approx(4.776e-6, rel=1e-3, abs=0)
        assert m.p_ab == pytest.approx(4.707e-4, rel=1e-3, abs=0)

    def test_symmetric_pair_has_zero_power(self):
        m = analytic_moments(778.0, 2.5, 778.0, 2.5)
        assert m.p_ab == 0.0
        assert m.rho == 0.0

    def test_equal_temperature_zero_power(self):
        # u2_a / r_a == u2_b / r_b is the equilibrium condition
        m = analytic_moments(200.0, 3.0, 500.0, 7.5)
        assert m.p_ab == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            analytic_moments(0.0, 1.0, 1.0, 1.0)


class TestEquilibriumSpectra:
    """In thermal equilibrium the wire's noise is the Johnson noise of the two
    resistors in parallel (voltage) and in series (current): per hertz,
    s_u = 4kT R_A R_B / (R_A + R_B) and s_i = 4kT / (R_A + R_B)."""

    @staticmethod
    def spectra(temperature, r_a, r_b):
        """``(s_u, s_i)``: the oracle's u2 and i2 per hertz for two resistors at ``temperature``."""
        m = analytic_moments(r_a, johnson_mean_square(temperature, r_a, 1.0),
                             r_b, johnson_mean_square(temperature, r_b, 1.0))
        return m.u2, m.i2

    def test_equal_resistors(self):
        s_u, s_i = self.spectra(300.0, 1e3, 1e3)
        assert s_u == pytest.approx(2 * BOLTZMANN * 300.0 * 1e3, rel=1e-12, abs=0)
        assert s_i == pytest.approx(2 * BOLTZMANN * 300.0 / 1e3, rel=1e-12, abs=0)

    def test_room_temperature_pair(self):
        s_u, s_i = self.spectra(300.0, 1e3, 1e4)
        assert s_u == pytest.approx(1.506e-17, rel=1e-3, abs=0)
        assert s_i == pytest.approx(4 * BOLTZMANN * 300.0 / 11e3, rel=1e-12, abs=0)

    def test_product_invariant_under_swap(self):
        a = self.spectra(123.0, 1e3, 1e4)
        b = self.spectra(123.0, 1e4, 1e3)
        assert a[0] * a[1] == pytest.approx(b[0] * b[1], rel=1e-12, abs=0)


class TestConditionalZcVariance:
    def test_equilibrium_returns_u2_exactly(self):
        m = MomentSummary(u2=0.908, i2=9.09e-8, p_ab=0.0, rho=0.0)
        assert conditional_zc_variance(m) == 0.908

    def test_vmg_row2_value(self):
        m = analytic_moments(278.0, 1.0, 278.0, 8311532.0 / 17440164.0)
        assert conditional_zc_variance(m) == pytest.approx(0.3228, abs=5e-5)

    def test_lh_hl_symmetry(self):
        # both secure pairings of the solved quadruple share the value
        lh = analytic_moments(278.0, 1.0, 278.0, 8311532.0 / 17440164.0)
        hl = analytic_moments(46416.0, 2172018104.0 / 210168.0, 100.0, 8279848.0 / 25652728.0)
        assert conditional_zc_variance(lh) == pytest.approx(conditional_zc_variance(hl), rel=1e-9)
