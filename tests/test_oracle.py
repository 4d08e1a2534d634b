"""Exhaustive-search oracle and the dynamic-programming certificate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import (IndexTable, StationaryPolicy, SurfaceSpec, SystemConfig,
                      brute_force_optimal, generate_surface, required_domain,
                      solve_threshold, stationary_average_cost, verify_bellman)
from aoisched.cli import _check_threshold_minimizer
from helpers import (GENERATOR_PARAMS, random_instance, reference_bellman,
                     reference_brute_force, reference_threshold_minimizer)


@pytest.fixture
def unit_instance():
    config = SystemConfig(1, 1, 3)
    surface = generate_surface(SurfaceSpec("aoi_sum", 5, 5, {}))
    return surface, config


class TestBruteForce:
    def test_unit_time_sum_surface(self, unit_instance):
        surface, config = unit_instance
        report = brute_force_optimal(surface, config)
        assert report.best_policy == StationaryPolicy(0, 0)
        assert report.best_avg_cost == 3.0
        assert report.table.shape == (4, 4)
        assert report.table[1, 0] == pytest.approx(10.0 / 3.0)

    def test_table_matches_stationary_average(self, unit_instance):
        surface, config = unit_instance
        report = brute_force_optimal(surface, config)
        for a in range(4):
            for b in range(4):
                assert report.table[a, b] == stationary_average_cost(
                    surface, config, StationaryPolicy(a, b))

    def test_constant_surface_everything_ties(self):
        config = SystemConfig(1, 1, 3)
        surface = generate_surface(SurfaceSpec("constant", 5, 5, {"value": 1.5}))
        report = brute_force_optimal(surface, config)
        assert report.best_policy == StationaryPolicy(0, 0)  # lexicographic winner
        assert len(report.ties) == 16
        assert report.is_tie(StationaryPolicy(3, 2))

    def test_strict_optimum_has_one_tie(self, unit_instance):
        surface, config = unit_instance
        report = brute_force_optimal(surface, config)
        assert report.ties == (StationaryPolicy(0, 0),)
        assert not report.is_tie(StationaryPolicy(1, 0))

    def test_large_constant_surface_everything_ties(self):
        """The long cycle sums round apart by more than 1e-12, but within the
        a-priori bound the tolerance is derived from."""
        config = SystemConfig(2, 8, 250)
        surface = generate_surface(SurfaceSpec("constant", *required_domain(config),
                                               {"value": 37.31}))
        report = brute_force_optimal(surface, config)
        n = (config.tau_max + 1) * (config.t1 + config.t2)
        eps = float(np.finfo(np.float64).eps)
        assert report.tie_tolerance == pytest.approx(2.0 * n * eps * 37.31, rel=1e-12)
        assert len(report.ties) == (config.tau_max + 1) ** 2

    def test_excess_beyond_tolerance_is_not_a_tie(self):
        config = SystemConfig(2, 3, 12)
        surface = generate_surface(SurfaceSpec("nonmono_nonsep", *required_domain(config), {}))
        report = brute_force_optimal(surface, config)
        excess = report.table - report.best_avg_cost
        beyond = np.where(excess > report.tie_tolerance, excess, np.inf)
        a, b = np.unravel_index(np.argmin(beyond), beyond.shape)
        assert np.isfinite(beyond[a, b])
        assert not report.is_tie(StationaryPolicy(int(a), int(b)))
        assert StationaryPolicy(int(a), int(b)) not in report.ties

    def test_table_is_read_only(self, unit_instance):
        surface, config = unit_instance
        report = brute_force_optimal(surface, config)
        with pytest.raises(ValueError):
            report.table[0, 0] = 0.0


class TestVerifyBellman:
    def test_certifies_the_solver(self, unit_instance):
        surface, config = unit_instance
        sol = solve_threshold(surface, config)
        check = verify_bellman(surface, config, sol.policy, sol.l_opt)
        assert check.ok
        assert check.h2 == 0.0
        assert all(gap <= 1e-8 for gap in check.attainment_gap)
        assert all(gap <= 1e-8 for gap in check.fixpoint_gap)
        assert check.argmin == (0, 0)

    def test_perturbed_gain_fails(self, unit_instance):
        surface, config = unit_instance
        sol = solve_threshold(surface, config)
        check = verify_bellman(surface, config, sol.policy, sol.l_opt + 0.5)
        assert not check.ok
        assert max(check.fixpoint_gap) > 1e-8

    def test_wrong_policy_fails_attainment(self, unit_instance):
        surface, config = unit_instance
        sol = solve_threshold(surface, config)
        check = verify_bellman(surface, config, StationaryPolicy(3, 3), sol.l_opt)
        assert not check.ok
        assert max(check.attainment_gap) > 1e-8

    def test_policy_beyond_tau_max_rejected(self, unit_instance):
        surface, config = unit_instance
        with pytest.raises(ValueError):
            verify_bellman(surface, config, StationaryPolicy(4, 0), 3.0)

    def test_to_dict_shape(self, unit_instance):
        surface, config = unit_instance
        sol = solve_threshold(surface, config)
        d = verify_bellman(surface, config, sol.policy, sol.l_opt).to_dict()
        assert set(d) == {"ok", "tol", "l_opt", "h", "minimum", "argmin",
                          "attainment_gap", "fixpoint_gap"}
        assert d["h"][1] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_certify(self, seed):
        rng = np.random.default_rng(5000 + seed)
        surface, config, _ = random_instance(rng)
        sol = solve_threshold(surface, config)
        check = verify_bellman(surface, config, sol.policy, sol.l_opt)
        assert check.ok, (config, check.to_dict())

    def test_tau_max_zero_trivially_certifies(self):
        config = SystemConfig(3, 2, 0)
        surface = generate_surface(SurfaceSpec("aoi_sum", *required_domain(config), {}))
        sol = solve_threshold(surface, config)
        check = verify_bellman(surface, config, sol.policy, sol.l_opt)
        assert check.ok
        assert check.argmin == (0, 0)


class TestMatchesTheLoops:
    """The array searches equal the loops in tests/helpers.py bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(GENERATOR_PARAMS, st.integers(1, 6), st.integers(1, 6), st.integers(0, 40),
           st.tuples(st.integers(0, 40), st.integers(0, 40)), st.floats(-2.0, 2.0),
           st.integers(0, 2 ** 31), st.integers(0, 60),
           st.sampled_from(["solver", "reversed", "flat"]))
    @example(("constant", {"value": -0.0}), 2, 3, 7, (7, 0), 0.0, 0, 0, "flat")
    @example(("constant", {"value": 37.31}), 2, 8, 40, (3, 40), 0.0, 1, 50, "solver")  # all tie
    @example(("nonmono_nonsep", {}), 3, 2, 0, (0, 0), 0.5, 2, 50, "reversed")
    def test_oracle_certificate_and_minimizer(self, gen, t1, t2, tau_max, other, offset,
                                              seed, n_betas, index_kind):
        name, params = gen
        config = SystemConfig(t1, t2, tau_max)
        surface = generate_surface(SurfaceSpec(name, *required_domain(config), params))

        report = brute_force_optimal(surface, config)
        reference = reference_brute_force(surface, config)
        assert np.array_equal(report.table.view(np.uint64), reference.table.view(np.uint64))
        assert not report.table.flags.writeable
        assert report.best_policy == reference.best_policy
        assert type(report.best_avg_cost) is float
        assert repr(report.best_avg_cost) == repr(reference.best_avg_cost)
        assert report.ties == reference.ties
        assert report.tie_tolerance == reference.tie_tolerance

        solution = solve_threshold(surface, config)
        for policy in (solution.policy, StationaryPolicy(min(other[0], tau_max),
                                                         min(other[1], tau_max))):
            # at the oracle's best every decision ties exactly on a zero surface
            for l_opt in (solution.l_opt, solution.l_opt + offset, report.best_avg_cost):
                assert repr(verify_bellman(surface, config, policy, l_opt)) \
                    == repr(reference_bellman(surface, config, policy, l_opt))

        index = solution.index_table
        if index_kind == "reversed":  # a wrong index table, so mismatches are listed
            index = IndexTable(tau_max, index.gamma1[::-1], index.gamma2[::-1],
                               index.witness1, index.witness2)
        elif index_kind == "flat":  # the forced low beta is the optimum: a zero surface ties
            flat = (report.best_avg_cost + 2.0,) * tau_max
            index = IndexTable(tau_max, flat, flat, index.witness1, index.witness2)
        args = (surface, config, solution.costs, index, seed, n_betas)
        assert repr(_check_threshold_minimizer(*args)) == repr(reference_threshold_minimizer(*args))
