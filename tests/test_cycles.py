"""Cycle costs, durations, and stationary averages."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import (CostTable, Modality, RestartState, StationaryPolicy,
                      SurfaceSpec, SystemConfig, build_index_table, cycle_cost,
                      cycle_duration, full_cycle_length, generate_surface,
                      required_domain, stationary_average_cost)
from helpers import (GENERATOR_PARAMS, make_surface, monotone_random_surface,
                     reference_index_column)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.fixture
def unit_config():
    return SystemConfig(1, 1, 3)


@pytest.fixture
def sum_surface():
    return generate_surface(SurfaceSpec("aoi_sum", 8, 8, {}))


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(0, 1)
        with pytest.raises(ValueError):
            SystemConfig(1, -2)
        with pytest.raises(ValueError):
            SystemConfig(1, 1, -1)
        with pytest.raises(ValueError):
            SystemConfig(1.5, 1)

    def test_transmission_time(self):
        config = SystemConfig(2, 6)
        assert config.transmission_time(Modality.M1) == 2
        assert config.transmission_time(Modality.M2) == 6

    def test_other_modality(self):
        assert Modality.M1.other is Modality.M2
        assert Modality.M2.other is Modality.M1


class TestRestartState:
    def test_aoi_vectors(self):
        config = SystemConfig(2, 6)
        assert RestartState(Modality.M1).aoi_vector(config) == (2, 8)
        assert RestartState(Modality.M2).aoi_vector(config) == (8, 6)


class TestCycleDuration:
    def test_examples(self):
        config = SystemConfig(2, 6)
        assert cycle_duration(config, Modality.M1, 3) == 12
        assert cycle_duration(config, Modality.M2, 3) == 20
        assert cycle_duration(config, Modality.M1, 0) == 6
        assert cycle_duration(config, Modality.M2, 0) == 2

    def test_full_cycle_is_sum_of_half_cycles(self):
        config = SystemConfig(3, 4, 10)
        policy = StationaryPolicy(2, 5)
        assert full_cycle_length(config, policy) == (
            cycle_duration(config, Modality.M1, 2)
            + cycle_duration(config, Modality.M2, 5))
        assert full_cycle_length(config, policy) == 3 * 3 + 6 * 4


class TestCycleCost:
    def test_unit_time_sum_surface(self, sum_surface, unit_config):
        assert cycle_cost(sum_surface, unit_config, Modality.M1, 0) == 3.0
        assert cycle_cost(sum_surface, unit_config, Modality.M1, 1) == 7.0
        assert cycle_cost(sum_surface, unit_config, Modality.M1, 2) == 12.0
        assert cycle_cost(sum_surface, unit_config, Modality.M2, 0) == 3.0

    @pytest.mark.parametrize("t1,t2,tau_max", [(1, 1, 4), (2, 6, 3), (3, 2, 5)])
    def test_summand_count_equals_duration(self, t1, t2, tau_max):
        """With unit losses the cost counts the slots in the half cycle."""
        config = SystemConfig(t1, t2, tau_max)
        from aoisched import required_domain
        d1, d2 = required_domain(config)
        ones = make_surface(lambda a, b: 1.0, d1, d2)
        for modality in (Modality.M1, Modality.M2):
            for tau in range(tau_max + 1):
                assert cycle_cost(ones, config, modality, tau) == float(
                    cycle_duration(config, modality, tau))

    def test_symmetric_instance_has_symmetric_costs(self):
        config = SystemConfig(3, 3, 6)
        from aoisched import required_domain
        d1, d2 = required_domain(config)
        s = make_surface(lambda a, b: (a + b) ** 2 + a * b, d1, d2)
        for tau in range(7):
            assert cycle_cost(s, config, Modality.M1, tau) == cycle_cost(
                s, config, Modality.M2, tau)

    def test_tau_bounds_enforced(self, sum_surface, unit_config):
        with pytest.raises(ValueError):
            cycle_cost(sum_surface, unit_config, Modality.M1, -1)
        with pytest.raises(ValueError):
            cycle_cost(sum_surface, unit_config, Modality.M1, 4)

    def test_restart_slot_is_included_and_final_delivery_excluded(self):
        """tau=0 cost for modality 1 covers ages (t1+i, t1+t2+i), i < t2."""
        config = SystemConfig(2, 3, 2)
        seen = []

        class Spy:
            def eval(self, a, b):
                seen.append((a, b))
                return 0.0

        cycle_cost(Spy(), config, Modality.M1, 0)
        assert seen == [(2, 5), (3, 6), (4, 7)]


class TestCostTable:
    @settings(max_examples=60, deadline=None)
    @given(GENERATOR_PARAMS, st.integers(1, 6), st.integers(1, 6), st.integers(0, 24))
    @example(("constant", {"value": -0.0}), 2, 3, 7)  # an unseeded sum gives -0.0
    @example(("nonmono_nonsep", {}), 2, 3, 0)
    @example(("aoi_sum", {}), 5, 2, 9)
    def test_matches_cycle_cost_bitwise(self, generator, t1, t2, tau_max):
        """Both gathered tables equal the scalar references bit for bit, as Python
        floats: a numpy scalar would change the CLI's repr output."""
        config = SystemConfig(t1, t2, tau_max)
        name, params = generator
        s = generate_surface(SurfaceSpec(name, *required_domain(config), params))
        table = CostTable(s, config)
        index = build_index_table(s, config)
        for modality, costs, gamma, witness in (
                (Modality.M1, table.c1, index.gamma1, index.witness1),
                (Modality.M2, table.c2, index.gamma2, index.witness2)):
            scalar = [cycle_cost(s, config, modality, tau) for tau in range(tau_max + 1)]
            assert np.array_equal(_bits(costs), _bits(scalar))
            ref_gamma, ref_witness = reference_index_column(s, config, modality)
            assert np.array_equal(_bits(gamma), _bits(ref_gamma))
            assert witness == ref_witness
            assert all(type(v) is float for v in costs + gamma)
            assert all(type(k) is int for k in witness)


class TestStationaryAverage:
    def test_unit_time_examples(self, sum_surface, unit_config):
        assert stationary_average_cost(sum_surface, unit_config,
                                       StationaryPolicy(0, 0)) == 3.0
        assert stationary_average_cost(sum_surface, unit_config,
                                       StationaryPolicy(1, 0)) == pytest.approx(10.0 / 3.0)

    def test_rejects_policy_beyond_tau_max(self, sum_surface, unit_config):
        with pytest.raises(ValueError):
            stationary_average_cost(sum_surface, unit_config, StationaryPolicy(4, 0))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StationaryPolicy(-1, 0)
        with pytest.raises(ValueError):
            StationaryPolicy(0, 2.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 6), st.integers(0, 2 ** 31))
def test_average_cost_is_a_mean_of_surface_values(t1, t2, tau, seed):
    """Every stationary average lies within the surface's value range."""
    config = SystemConfig(t1, t2, max(tau, 1))
    from aoisched import required_domain
    rng = np.random.default_rng(seed)
    s = monotone_random_surface(rng, *required_domain(config))
    policy = StationaryPolicy(tau if tau <= config.tau_max else config.tau_max, 0)
    avg = stationary_average_cost(s, config, policy)
    assert s.values.min() - 1e-12 <= avg <= s.values.max() + 1e-12
