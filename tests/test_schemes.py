import math
import pickle

import numpy as np
import pytest

from kljnsim.benchmarks import BENCHMARKS, benchmark_scheme
from kljnsim.circuit import Branch, analytic_moments
from kljnsim.errors import ConfigurationError, UnphysicalSchemeError
from kljnsim.noise import noise_temperature
from kljnsim.schemes import (
    SchemeConfig,
    branch_temperatures,
    classic_kljn,
    fck1_fourth_resistor,
    fck1_kljn,
    level_table,
    scheme_for_kind,
    security_check,
    solve_vmg,
    vmg_noise_levels,
)


def vmg_noise_levels_factored(
    r_ha: float, r_la: float, r_hb: float, r_lb: float, u2_la: float
) -> tuple[float, float, float]:
    """The solution of ``vmg_noise_levels`` in rational-product form: an
    algebraic oracle for the expanded polynomials."""
    if r_ha == r_la:
        raise ConfigurationError(
            f"singular denominator: r_ha ({r_ha}) must differ from r_la ({r_la})"
        )
    u2_hb = u2_la * (r_hb - r_lb) * (r_ha + r_hb) / ((r_la + r_lb) * (r_ha - r_la))
    u2_ha = u2_la * (r_ha + r_hb) * (r_ha + r_lb) / ((r_la + r_lb) * (r_la + r_hb))
    u2_lb = u2_la * (r_hb - r_lb) * (r_ha + r_lb) / ((r_ha - r_la) * (r_la + r_hb))
    return u2_ha, u2_hb, u2_lb


def random_valid_quadruples(n, seed=0):
    """Well-separated resistor quadruples that admit physical solutions."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        r_la = 10 ** rng.uniform(1, 5)
        r_lb = 10 ** rng.uniform(1, 5)
        r_ha = r_la * 10 ** rng.uniform(math.log10(1.05), 2)
        r_hb = r_lb * 10 ** rng.uniform(math.log10(1.05), 2)
        u2_la = 10 ** rng.uniform(-1, 1)
        out.append((r_ha, r_la, r_hb, r_lb, u2_la))
    return out


class TestClassicKljn:
    def test_levels(self):
        sch = classic_kljn(1e3, 1e4, 1.0, 500.0)
        assert sch.branches["HA"].mean_square == pytest.approx(10.0)
        assert sch.branches["HB"].mean_square == pytest.approx(10.0)
        rep = security_check(sch)
        assert rep.u2_lh == pytest.approx(0.909, rel=1e-3)
        assert rep.i2_lh == pytest.approx(9.09e-8, rel=1e-3, abs=0)

    def test_equal_temperatures(self):
        sch = classic_kljn(1e3, 1e4, 1.0, 500.0)
        temps = set(branch_temperatures(sch).values())
        t0 = temps.pop()
        assert all(t == pytest.approx(t0, rel=1e-12) for t in temps)

    def test_exact_zero_power(self):
        rep = security_check(classic_kljn(1e3, 1e4, 1.0, 500.0))
        assert rep.p_lh == 0.0
        assert rep.p_hl == 0.0

    def test_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            classic_kljn(1e4, 1e3, 1.0, 500.0)


class TestSolveVmg:
    def test_reference_quadruple(self):
        sch = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
        assert sch.branches["HB"].mean_square == pytest.approx(0.477, rel=1e-3)
        assert sch.branches["HA"].mean_square == pytest.approx(1.0335e4, rel=1e-3)
        assert sch.branches["LB"].mean_square == pytest.approx(0.323, rel=1e-3)

    def test_reduces_to_classic(self):
        u2_ha, u2_hb, u2_lb = vmg_noise_levels(1e4, 1e3, 1e4, 1e3, 1.0)
        assert u2_hb == pytest.approx(10.0, rel=1e-12)
        assert u2_ha == pytest.approx(10.0, rel=1e-12)
        assert u2_lb == pytest.approx(1.0, rel=1e-12)

    def test_against_linear_system_oracle(self):
        # Solve the three moment-equality equations directly and compare.
        for r_ha, r_la, r_hb, r_lb, u2_la in [(1e5, 1e4, 1e4, 1e3, 1.0)] + random_valid_quadruples(20, seed=5):
            d_lh = (r_la + r_hb) ** 2
            d_hl = (r_ha + r_lb) ** 2
            a = np.array([
                [r_lb**2 / d_hl, -(r_la**2) / d_lh, r_ha**2 / d_hl],
                [1.0 / d_hl, -1.0 / d_lh, 1.0 / d_hl],
                [r_lb / d_hl, r_la / d_lh, -r_ha / d_hl],
            ])
            b = u2_la * np.array([r_hb**2 / d_lh, 1.0 / d_lh, r_hb / d_lh])
            u2_ha_or, u2_hb_or, u2_lb_or = np.linalg.solve(a, b)
            u2_ha, u2_hb, u2_lb = vmg_noise_levels(r_ha, r_la, r_hb, r_lb, u2_la)
            assert u2_ha == pytest.approx(u2_ha_or, rel=1e-9)
            assert u2_hb == pytest.approx(u2_hb_or, rel=1e-9)
            assert u2_lb == pytest.approx(u2_lb_or, rel=1e-9)

    def test_fck1_row_solution(self):
        u2_ha, u2_hb, u2_lb = vmg_noise_levels(1e5, 1e4, 1e4, 1e3, 1.0)
        assert u2_hb == pytest.approx(1.0, rel=1e-12)
        assert u2_ha == pytest.approx(50.5, rel=1e-12)
        assert u2_lb == pytest.approx(0.505, rel=1e-12)

    def test_expanded_vs_factored_1000_quadruples(self):
        for quad in random_valid_quadruples(1000, seed=11):
            expanded = vmg_noise_levels(*quad)
            factored = vmg_noise_levels_factored(*quad)
            for e, f in zip(expanded, factored):
                assert e == pytest.approx(f, rel=1e-12)

    def test_three_moment_equality(self):
        for quad in random_valid_quadruples(200, seed=23):
            sch = solve_vmg(*quad, bandwidth=500.0)
            rep = security_check(sch)
            assert rep.max_relative_mismatch < 1e-9

    def test_singular_denominator(self):
        with pytest.raises(ConfigurationError, match="singular"):
            solve_vmg(278.0, 278.0, 100.0, 50.0, 1.0, 500.0)

    def test_unphysical_rejection_names_branches(self):
        # Bob's levels inverted while Alice's are ordered: HB and LB go negative.
        with pytest.raises(UnphysicalSchemeError) as err:
            solve_vmg(1000.0, 100.0, 100.0, 200.0, 1.0, 500.0)
        assert "HB" in err.value.branches
        assert "LB" in err.value.branches

    def test_unphysical_rejection_alice_inverted(self):
        with pytest.raises(UnphysicalSchemeError):
            solve_vmg(100.0, 1000.0, 500.0, 50.0, 1.0, 500.0)

    def test_doubly_inverted_is_physical(self):
        # Both parties inverted (H below L) keeps all signs aligned: accepted.
        sch = solve_vmg(100.0, 1000.0, 50.0, 500.0, 1.0, 500.0)
        assert all(b.mean_square > 0 for b in sch.branches.values())


class TestFck1:
    def test_fourth_resistor(self):
        assert fck1_fourth_resistor(100e3, 10e3, 10e3) == pytest.approx(1e3, rel=1e-12)
        assert fck1_fourth_resistor(778.0, 778.0, 778.0) == pytest.approx(778.0, rel=1e-12)
        assert fck1_fourth_resistor(46416.0, 278.0, 278.0) == pytest.approx(1.665, rel=1e-3)

    def test_geometric_mean_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r_ha, r_la, r_hb = 10 ** rng.uniform(1, 6, size=3)
            r_lb = fck1_fourth_resistor(r_ha, r_la, r_hb)
            assert math.sqrt(r_ha * r_lb) == pytest.approx(math.sqrt(r_la * r_hb), rel=1e-12)

    def test_zero_power_scheme(self):
        sch = fck1_kljn(100e3, 10e3, 10e3, 1.0, 500.0)
        rep = security_check(sch)
        assert rep.u2_lh == pytest.approx(0.500, rel=1e-9)
        assert rep.i2_lh == pytest.approx(5e-9, rel=1e-9, abs=0)
        scale = math.sqrt(rep.u2_lh * rep.i2_lh)
        assert abs(rep.p_lh) <= 1e-12 * scale
        assert abs(rep.p_hl) <= 1e-12 * scale

    def test_pairwise_equilibrium_temperatures(self):
        sch = fck1_kljn(100e3, 10e3, 10e3, 1.0, 500.0)
        t = branch_temperatures(sch)
        assert t["LA"] == pytest.approx(t["HB"], rel=1e-12)
        assert t["HA"] == pytest.approx(t["LB"], rel=1e-12)
        ratio = (100e3 + 1e3) / (10e3 + 10e3)
        assert t["HA"] / t["LA"] == pytest.approx(ratio, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fck1_fourth_resistor(0.0, 1.0, 1.0)


#: Each kind's resistors, by builder name, and the scheme its builder makes of them.
KIND_RESISTORS = {
    "classic": ({"r_l": 1e3, "r_h": 1e4}, classic_kljn(1e3, 1e4, 1.0, 500.0)),
    "vmg": ({"r_ha": 46416.0, "r_la": 278.0, "r_hb": 278.0, "r_lb": 100.0},
            solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)),
    "fck1": ({"r_ha": 1e5, "r_la": 1e4, "r_hb": 1e4}, fck1_kljn(1e5, 1e4, 1e4, 1.0, 500.0)),
}
RESISTOR_NAMES = ("r_l", "r_h", "r_ha", "r_la", "r_hb", "r_lb")
MISSING = [(kind, name) for kind, (given, _) in KIND_RESISTORS.items() for name in given]
INAPPLICABLE = [(kind, name) for kind, (given, _) in KIND_RESISTORS.items()
                for name in RESISTOR_NAMES
                if name not in given and (kind, name) != ("fck1", "r_lb")]


class TestSchemeForKind:
    def test_dispatch_matches_builders(self):
        for kind, (given, scheme) in KIND_RESISTORS.items():
            assert scheme_for_kind(kind, 1.0, 500.0, **given) == scheme

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            scheme_for_kind("other", 1.0, 500.0, r_l=1e3, r_h=1e4)

    @pytest.mark.parametrize("kind, name", MISSING)
    def test_missing_resistor_is_named(self, kind, name):
        given = dict(KIND_RESISTORS[kind][0])
        del given[name]
        with pytest.raises(ConfigurationError, match=f"{name} is required for kind '{kind}'"):
            scheme_for_kind(kind, 1.0, 500.0, **given)

    @pytest.mark.parametrize("kind, name", INAPPLICABLE)
    def test_inapplicable_resistor_is_named(self, kind, name):
        given = {**KIND_RESISTORS[kind][0], name: 500.0}
        with pytest.raises(ConfigurationError, match=f"{name} does not apply to kind '{kind}'"):
            scheme_for_kind(kind, 1.0, 500.0, **given)

    @pytest.mark.parametrize("r_lb", [2e3, 0.0, -1e3, math.nan])
    def test_fck1_refuses_a_mismatched_r_lb(self, r_lb):
        with pytest.raises(ConfigurationError, match="r_lb .* zero-power condition"):
            scheme_for_kind("fck1", 1.0, 500.0, r_ha=1e5, r_la=1e4, r_hb=1e4, r_lb=r_lb)

    def test_fck1_accepts_the_derived_r_lb(self):
        given, scheme = KIND_RESISTORS["fck1"]
        r_lb = fck1_fourth_resistor(1e5, 1e4, 1e4)
        assert scheme_for_kind("fck1", 1.0, 500.0, **given, r_lb=r_lb) == scheme
        assert scheme_for_kind("fck1", 1.0, 500.0, **given, r_lb=r_lb * (1 + 1e-12)) == scheme

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmark_scheme_matches_its_builder(self, name):
        row = BENCHMARKS[name]
        if row.kind == "classic":
            direct = classic_kljn(row.r_la, row.r_ha, 2.0, 300.0)
        elif row.kind == "fck1":
            direct = fck1_kljn(row.r_ha, row.r_la, row.r_hb, 2.0, 300.0)
        else:
            direct = solve_vmg(row.r_ha, row.r_la, row.r_hb, row.r_lb, 2.0, 300.0)
        assert benchmark_scheme(name, bandwidth=300.0, u2_la=2.0) == direct


BUILDER_ARGS = {
    classic_kljn: {"r_l": 1e3, "r_h": 1e4, "u2_ref": 1.0, "bandwidth": 500.0},
    solve_vmg: {"r_ha": 46416.0, "r_la": 278.0, "r_hb": 278.0, "r_lb": 100.0, "u2_la": 1.0,
                "bandwidth": 500.0},
    fck1_kljn: {"r_ha": 1e5, "r_la": 1e4, "r_hb": 1e4, "u2_la": 1.0, "bandwidth": 500.0},
}
NON_FINITE = [(build, name, value) for build, args in BUILDER_ARGS.items() for name in args
              for value in (math.nan, math.inf)]


@pytest.mark.parametrize("build, name, value", NON_FINITE,
                         ids=[f"{b.__name__}-{n}={v}" for b, n, v in NON_FINITE])
def test_builders_refuse_non_finite_values(build, name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        build(**{**BUILDER_ARGS[build], name: value})


class TestBranchTemperatures:
    def test_reference_quadruple(self):
        sch = solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)
        t = branch_temperatures(sch)
        assert t["HA"] == pytest.approx(8.0671e18, rel=1e-3)
        assert t["LA"] == pytest.approx(1.3033e17, rel=1e-3)
        assert t["HB"] == pytest.approx(6.2112e16, rel=1e-3)
        assert t["LB"] == pytest.approx(1.1694e17, rel=1e-3)

    def test_consistent_with_noise_temperature(self):
        sch = classic_kljn(1e3, 1e4, 1.0, 500.0)
        t = branch_temperatures(sch)
        b = sch.branches["HA"]
        assert t["HA"] == noise_temperature(b.mean_square, b.resistance, 500.0)


class TestLevelTable:
    def test_classic_levels(self):
        lt = level_table(classic_kljn(1e3, 1e4, 1.0, 500.0))
        assert lt["LL"].u2 == pytest.approx(0.5, rel=1e-12)
        assert lt["LH"].u2 == pytest.approx(0.90909, rel=1e-4)
        assert lt["HL"].u2 == lt["LH"].u2
        assert lt["HH"].u2 == pytest.approx(5.0, rel=1e-12)

    def test_secure_levels_identical_for_vmg(self):
        lt = level_table(solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0))
        assert lt["LH"].u2 == pytest.approx(lt["HL"].u2, rel=1e-12)
        assert lt["LH"].i2 == pytest.approx(lt["HL"].i2, rel=1e-12, abs=0)

    def test_four_distinct_levels(self):
        lt = level_table(classic_kljn(1e3, 1e4, 1.0, 500.0))
        u2s = {round(lt[c].u2, 12) for c in ("LL", "LH", "HH")}
        assert len(u2s) == 3


class TestSchemeConfigValidation:
    def test_hand_built_violation_rejected(self):
        branches = {
            "HA": Branch(1e4, 10.0),
            "LA": Branch(1e3, 1.0),
            "HB": Branch(1e4, 10.0),
            "LB": Branch(1e3, 2.0),  # breaks the secure-level equality
        }
        with pytest.raises(ConfigurationError, match="mismatch"):
            SchemeConfig(branches=branches, bandwidth=500.0, kind="classic")

    def test_vmg_labelled_fck1_rejected(self):
        # Balanced, but p_ab is about 4.7e-4 W in both secure cases.
        assert security_check(solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0)).p_lh > 1e-4
        with pytest.raises(ConfigurationError, match="zero net power"):
            solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0, kind="fck1")

    def test_hand_built_classic_with_power_flow_rejected(self):
        branches = dict(solve_vmg(46416.0, 278.0, 278.0, 100.0, 1.0, 500.0).branches)
        with pytest.raises(ConfigurationError, match="kind 'classic' requires zero net power"):
            SchemeConfig(branches=branches, bandwidth=500.0, kind="classic")

    def test_branches_are_read_only(self):
        branches = {"HA": Branch(1e4, 10.0), "LA": Branch(1e3, 1.0),
                    "HB": Branch(1e4, 10.0), "LB": Branch(1e3, 1.0)}
        sch = SchemeConfig(branches=branches, bandwidth=500.0, kind="classic")
        with pytest.raises(TypeError):
            sch.branches["LB"] = Branch(1e3, 2.0)
        branches["LB"] = Branch(1e3, 2.0)   # the scheme keeps its own copy
        assert sch.branches["LB"] == Branch(1e3, 1.0)

    @pytest.mark.parametrize("kind", sorted(KIND_RESISTORS))
    def test_pickle_round_trip_keeps_the_branches(self, kind):
        sch = KIND_RESISTORS[kind][1]
        copy = pickle.loads(pickle.dumps(sch))
        assert copy == sch
        assert dict(copy.branches) == dict(sch.branches)
        with pytest.raises(TypeError):
            copy.branches["HA"] = copy.branches["LA"]

    def test_zero_mean_square_rejected(self):
        sch = classic_kljn(1e3, 1e4, 1.0, 500.0)
        branches = dict(sch.branches)
        branches["LA"] = Branch(1e3, 0.0)
        with pytest.raises(ConfigurationError):
            SchemeConfig(branches=branches, bandwidth=500.0, kind="classic")

    def test_bad_kind(self):
        sch = classic_kljn(1e3, 1e4, 1.0, 500.0)
        with pytest.raises(ConfigurationError):
            SchemeConfig(branches=sch.branches, bandwidth=500.0, kind="other")
