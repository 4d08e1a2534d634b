"""Index computation, threshold decisions, and the Dinkelbach solver."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aoisched import cli
from aoisched import (CostTable, IndexTable, LossSurface, Modality, StationaryPolicy,
                      SurfaceSpec, SystemConfig, brute_force_optimal,
                      build_index_table, cycle_cost, generate_surface, g_value,
                      required_domain, solve_threshold, stationary_average_cost,
                      tau_opt)
from helpers import (GENERATOR_PARAMS, monotone_random_surface, random_instance,
                     reference_tau_opt)


def _memo_gamma(surface, config, modality):
    """Reference index: raw differences of independently computed cycle costs."""
    t = config.transmission_time(modality)
    costs = [cycle_cost(surface, config, modality, tau)
             for tau in range(config.tau_max + 1)]
    gammas, witnesses = [], []
    for theta in range(config.tau_max):
        rates = [(costs[theta + k] - costs[theta]) / (k * t)
                 for k in range(1, config.tau_max - theta + 1)]
        best = min(rates)
        gammas.append(best)
        witnesses.append(rates.index(best) + 1)
    return gammas, witnesses


class TestIndexTable:
    def test_unit_time_sum_surface(self):
        config = SystemConfig(1, 1, 3)
        s = generate_surface(SurfaceSpec("aoi_sum", 5, 5, {}))
        table = build_index_table(s, config)
        assert table.gamma1 == (4.0, 5.0, 6.0)
        assert table.gamma2 == (4.0, 5.0, 6.0)
        assert table.witness1 == (1, 1, 1)
        assert table.witness2 == (1, 1, 1)

    def test_constant_surface_index_is_the_constant(self):
        config = SystemConfig(1, 1, 5)
        s = generate_surface(SurfaceSpec("constant", 7, 7, {"value": 2.5}))
        table = build_index_table(s, config)
        assert table.gamma1 == (2.5,) * 5
        assert table.gamma2 == (2.5,) * 5
        assert table.witness1 == (1,) * 5  # ties break toward the shortest extension

    def test_empty_at_tau_max_zero(self):
        config = SystemConfig(2, 3, 0)
        s = generate_surface(SurfaceSpec("aoi_sum", *required_domain(config), {}))
        table = build_index_table(s, config)
        assert table.gamma1 == () and table.gamma2 == ()

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_cost_difference_reference(self, seed):
        """The telescoped sums must agree with raw cost differences."""
        rng = np.random.default_rng(1000 + seed)
        surface, config, _ = random_instance(rng)
        table = build_index_table(surface, config)
        for modality in (Modality.M1, Modality.M2):
            ref_g, ref_w = _memo_gamma(surface, config, modality)
            got_g = table.gamma(modality)
            got_w = table.witness(modality)
            for theta in range(config.tau_max):
                assert got_g[theta] == pytest.approx(ref_g[theta], abs=1e-9, rel=1e-9)
                # witnesses may differ only between exactly tied rates
                if got_w[theta] != ref_w[theta]:
                    t = config.transmission_time(modality)
                    costs_theta = cycle_cost(surface, config, modality, theta)
                    k = got_w[theta]
                    rate = (cycle_cost(surface, config, modality, theta + k)
                            - costs_theta) / (k * t)
                    assert rate == pytest.approx(ref_g[theta], abs=1e-9, rel=1e-9)

    def test_monotone_unit_time_index_reads_off_the_surface(self):
        """With t1 = t2 = 1 and a non-decreasing surface, gamma1(theta) is a
        single surface value, reproduced bitwise."""
        rng = np.random.default_rng(42)
        config = SystemConfig(1, 1, 12)
        s = monotone_random_surface(rng, *required_domain(config))
        table = build_index_table(s, config)
        for theta in range(config.tau_max):
            assert table.gamma1[theta] == s.eval(1, theta + 3)
            assert table.witness1[theta] == 1


class TestTauOpt:
    @pytest.fixture
    def unit_table(self):
        config = SystemConfig(1, 1, 3)
        s = generate_surface(SurfaceSpec("aoi_sum", 5, 5, {}))
        return config, build_index_table(s, config)

    def test_threshold_examples(self, unit_table):
        config, table = unit_table
        assert tau_opt(table, config, Modality.M1, 3.5) == 0
        assert tau_opt(table, config, Modality.M1, 4.0) == 0  # inclusive comparison
        assert tau_opt(table, config, Modality.M1, 4.5) == 1
        assert tau_opt(table, config, Modality.M1, 6.0) == 2
        assert tau_opt(table, config, Modality.M1, 7.0) == 3  # saturates at tau_max

    def test_tau_max_zero_always_zero(self):
        config = SystemConfig(2, 3, 0)
        s = generate_surface(SurfaceSpec("aoi_sum", *required_domain(config), {}))
        table = build_index_table(s, config)
        assert tau_opt(table, config, Modality.M1, -1e9) == 0
        assert tau_opt(table, config, Modality.M2, 1e9) == 0

    def test_table_config_mismatch_rejected(self, unit_table):
        config, table = unit_table
        other = SystemConfig(1, 1, 5)
        with pytest.raises(ValueError):
            tau_opt(table, other, Modality.M1, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
               st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
               st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))),
           st.lists(st.floats(), max_size=8))
    @example(([-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]), [])
    @example(([], []), [])
    def test_matches_the_scan(self, gammas, extra):
        """searchsorted on the running maximum returns the scan's first theta, for
        every gamma, both zeros, both infinities, NaN and arbitrary betas."""
        gamma1, gamma2 = gammas
        tau_max = len(gamma1)
        config = SystemConfig(1, 1, tau_max)
        table = IndexTable(tau_max, tuple(gamma1), tuple(gamma2), (1,) * tau_max, (1,) * tau_max)
        betas = [*gamma1, *gamma2, *extra, 0.0, -0.0, math.inf, -math.inf, math.nan]
        for modality in (Modality.M1, Modality.M2):
            for beta in betas:
                got = tau_opt(table, config, modality, beta)
                assert type(got) is int
                assert got == reference_tau_opt(table, config, modality, beta), beta

    @pytest.mark.parametrize("seed", range(8))
    def test_non_decreasing_in_beta(self, seed):
        rng = np.random.default_rng(2000 + seed)
        surface, config, _ = random_instance(rng)
        table = build_index_table(surface, config)
        betas = np.sort(rng.uniform(-surface.bound_m - 1, surface.bound_m + 1, 40))
        for modality in (Modality.M1, Modality.M2):
            taus = [tau_opt(table, config, modality, float(b)) for b in betas]
            assert taus == sorted(taus)


class TestBalanceFunction:
    def test_unit_time_values(self):
        config = SystemConfig(1, 1, 3)
        s = generate_surface(SurfaceSpec("aoi_sum", 5, 5, {}))
        table = build_index_table(s, config)
        costs = CostTable(s, config)
        assert g_value(s, config, table, 0.0, costs=costs) == 6.0
        assert g_value(s, config, table, 3.0, costs=costs) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_strictly_decreasing(self, seed):
        rng = np.random.default_rng(3000 + seed)
        surface, config, _ = random_instance(rng)
        table = build_index_table(surface, config)
        m = surface.bound_m
        betas = np.linspace(-m, m, 80) if m > 0 else np.linspace(-1, 1, 80)
        costs = CostTable(surface, config)
        values = [g_value(surface, config, table, float(b), costs=costs) for b in betas]
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1))


class TestSolveThreshold:
    def test_unit_time_sum_surface(self):
        config = SystemConfig(1, 1, 3)
        s = generate_surface(SurfaceSpec("aoi_sum", 5, 5, {}))
        sol = solve_threshold(s, config)
        assert sol.l_opt == 3.0
        assert sol.policy == StationaryPolicy(0, 0)
        assert sol.residual == 0.0
        assert sol.iterations == 1
        assert not sol.saturated

    @pytest.mark.parametrize("c", [2.5, -1.25, 0.5])
    def test_constant_surface(self, c):
        config = SystemConfig(1, 1, 3)
        s = generate_surface(SurfaceSpec("constant", 5, 5, {"value": c}))
        sol = solve_threshold(s, config)
        assert sol.l_opt == pytest.approx(c, abs=1e-8)
        assert sol.policy == StationaryPolicy(0, 0)

    def test_tau_max_zero(self):
        config = SystemConfig(2, 3, 0)
        s = generate_surface(SurfaceSpec("aoi_sum", *required_domain(config), {}))
        sol = solve_threshold(s, config)
        expected = stationary_average_cost(s, config, StationaryPolicy(0, 0))
        assert sol.l_opt == pytest.approx(expected, abs=1e-8)
        assert sol.policy == StationaryPolicy(0, 0)
        assert not sol.saturated

    def test_saturation_flag(self):
        # loss ignores modality 1, so modality 2 is transmitted as often as allowed
        config = SystemConfig(1, 1, 4)
        s = generate_surface(SurfaceSpec(
            "aoi_weighted", *required_domain(config), {"w1": 0.001, "w2": 5.0}))
        sol = solve_threshold(s, config)
        assert sol.policy.tau2 == config.tau_max
        assert sol.saturated

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(4000 + seed)
        surface, config, _ = random_instance(rng)
        sol = solve_threshold(surface, config)
        best = min(
            stationary_average_cost(
                surface, config, StationaryPolicy(a, b))
            for a in range(config.tau_max + 1)
            for b in range(config.tau_max + 1))
        assert sol.l_opt == pytest.approx(best, abs=1e-8)
        got = stationary_average_cost(surface, config, sol.policy)
        assert got == pytest.approx(best, abs=1e-9)

    def test_small_surface_gets_the_exact_optimum(self):
        """nonmono_nonsep with every amplitude times 2**-30: an absolute
        tolerance no longer separates the policies, a ratio still does."""
        config = SystemConfig(2, 3, 60)
        params = {name: value * 2.0 ** -30 for name, value in
                  {"base": 1.0, "a1": 6.0, "a2": 1.5, "cross": 2.0, "dip": 1.2}.items()}
        s = generate_surface(SurfaceSpec("nonmono_nonsep", *required_domain(config), params))
        sol = solve_threshold(s, config)
        assert sol.policy == StationaryPolicy(2, 0)
        assert sol.l_opt == brute_force_optimal(s, config).best_avg_cost

    @settings(max_examples=60, deadline=None)
    @given(GENERATOR_PARAMS, st.integers(1, 6), st.integers(1, 6), st.integers(0, 40))
    @example(("constant", {"value": 37.31}), 2, 8, 40)  # every policy ties
    @example(("constant", {"value": -0.0}), 3, 2, 7)
    def test_l_opt_is_the_oracle_entry_of_a_tie(self, gen, t1, t2, tau_max):
        name, params = gen
        config = SystemConfig(t1, t2, tau_max)
        s = generate_surface(SurfaceSpec(name, *required_domain(config), params))
        sol = solve_threshold(s, config)
        oracle = brute_force_optimal(s, config)
        entry = float(oracle.table[sol.policy.tau1, sol.policy.tau2])
        assert repr(sol.l_opt) == repr(entry)
        assert oracle.is_tie(sol.policy)


def _verify_verdict(surface, config):
    """Exit code and per-check verdicts of ``verify`` run on `surface`."""
    argv = ["verify", "--gen", "aoi_sum", "--t1", str(config.t1), "--t2", str(config.t2),
            "--tau-max", str(config.tau_max)]
    with mock.patch.object(cli, "generate_surface", return_value=surface):
        result = CliRunner().invoke(cli.main, argv, catch_exceptions=False)
    report = json.loads(result.stdout)
    return result.exit_code, {name: check["ok"] for name, check in report["checks"].items()}


class TestScaleEquivariance:
    """Multiplying a surface by 2**k is exact, and so is every sum, ratio and
    comparison the solver and verify make on it: nothing but l_opt may change."""

    @settings(max_examples=25, deadline=None)
    @given(GENERATOR_PARAMS, st.integers(1, 6), st.integers(1, 6), st.integers(0, 40),
           st.integers(-40, 40))
    @example(("nonmono_nonsep", {}), 2, 3, 60, -30)  # bisection's wrong answer
    @example(("constant", {"value": 37.31}), 2, 8, 40, 40)  # every policy ties
    def test_scaling_by_a_power_of_two(self, gen, t1, t2, tau_max, k):
        name, params = gen
        config = SystemConfig(t1, t2, tau_max)
        surface = generate_surface(SurfaceSpec(name, *required_domain(config), params))
        magnitudes = np.abs(surface.values)
        # scaled by 2**-40, values this small would lose bits to subnormals
        assume(not (magnitudes > 0.0).any() or magnitudes[magnitudes > 0.0].min() >= 2.0 ** -900)
        scaled = LossSurface(surface.values * 2.0 ** k)
        base, sol = solve_threshold(surface, config), solve_threshold(scaled, config)
        assert sol.policy == base.policy
        assert sol.iterations == base.iterations
        assert repr(sol.l_opt) == repr(base.l_opt * 2.0 ** k)
        assert _verify_verdict(scaled, config) == _verify_verdict(surface, config)
