"""Discrete-event simulation: age dynamics, policies, traces, comparisons."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import (IndexThreshold, Modality, OutOfDomain, RestartState,
                      RoundRobin, StationaryPolicy, SurfaceSpec, SystemConfig,
                      UniformRandom, compare_policies, cycle_cost,
                      full_cycle_length, generate_surface, required_domain,
                      run, solve_threshold, stationary_average_cost)
from helpers import (GENERATOR_PARAMS, InFlight, SimState, make_surface,
                     random_instance, reference_run, step_aoi)


@pytest.fixture
def unit_instance():
    config = SystemConfig(1, 1, 3)
    surface = generate_surface(SurfaceSpec("aoi_sum", 8, 8, {}))
    return surface, config


class TestStepAoi:
    def test_delivery_resets_one_age(self):
        config = SystemConfig(1, 1)
        state = SimState(0, (1, 2), InFlight(Modality.M2, 0, 1))
        nxt = step_aoi(state, config)
        assert nxt.t == 1
        assert nxt.aoi == (2, 1)
        assert nxt.in_flight is None

    def test_no_delivery_ages_both(self):
        config = SystemConfig(2, 6)
        tx = InFlight(Modality.M1, 0, 2)
        state = SimState(0, (2, 8), tx)
        nxt = step_aoi(state, config)
        assert nxt.aoi == (3, 9)
        assert nxt.in_flight is tx

    def test_idle_channel_ages_both(self):
        config = SystemConfig(1, 1)
        nxt = step_aoi(SimState(5, (3, 4), None), config)
        assert nxt.aoi == (4, 5)

    def test_delivery_uses_transmission_time(self):
        config = SystemConfig(2, 6)
        state = SimState(1, (3, 9), InFlight(Modality.M2, 0, 2))
        nxt = step_aoi(state, config)
        assert nxt.aoi == (4, 6)


class TestRunBasics:
    def test_initial_state_defaults_to_modality_one_restart(self, unit_instance):
        surface, config = unit_instance
        trace = run(surface, config, RoundRobin(), 4)
        assert (trace.delta1[0], trace.delta2[0]) == (1, 2)

    def test_explicit_initial_state(self, unit_instance):
        surface, config = unit_instance
        trace = run(surface, config, RoundRobin(), 4,
                    initial_state=RestartState(Modality.M2))
        assert (trace.delta1[0], trace.delta2[0]) == (2, 1)

    def test_round_robin_unit_times_is_three_per_slot(self, unit_instance):
        """Alternation holds the age vector on the (1,2)/(2,1) orbit."""
        surface, config = unit_instance
        trace = run(surface, config, RoundRobin(), 2000)
        assert trace.summary.avg_loss == 3.0
        assert set(zip(trace.delta1.tolist(), trace.delta2.tolist())) == {(1, 2), (2, 1)}

    def test_work_conservation(self, unit_instance):
        surface, config = unit_instance
        trace = run(surface, config, UniformRandom(3), 200)
        txs = trace.transmissions
        assert txs[0, 1] == 0
        assert np.array_equal(txs[1:, 1], txs[:-1, 2])  # the channel never idles

    def test_age_never_below_transmission_time(self):
        config = SystemConfig(2, 3, 5)
        surface = generate_surface(SurfaceSpec("aoi_sum", 60, 60, {}))
        trace = run(surface, config, UniformRandom(9), 300)
        assert trace.delta1.min() >= config.t1
        assert trace.delta2.min() >= config.t2

    def test_horizon_and_warmup_validation(self, unit_instance):
        surface, config = unit_instance
        with pytest.raises(ValueError):
            run(surface, config, RoundRobin(), 0)
        with pytest.raises(ValueError):
            run(surface, config, RoundRobin(), 5, warmup=-1)

    def test_policy_beyond_tau_max_rejected(self, unit_instance):
        surface, config = unit_instance
        with pytest.raises(ValueError):
            run(surface, config, IndexThreshold(StationaryPolicy(9, 0)), 10)

    def test_horizon_one(self, unit_instance):
        surface, config = unit_instance
        trace = run(surface, config, RoundRobin(), 1)
        assert trace.slots == 1
        assert trace.summary.avg_loss == trace.loss[0]


class TestWarmup:
    def test_summary_covers_only_the_tail(self, unit_instance):
        surface, config = unit_instance
        trace = run(surface, config, UniformRandom(5), 100, warmup=40)
        assert trace.slots == 140
        total = 0.0
        for x in trace.loss[40:].tolist():
            total += x
        assert trace.summary.total_loss == total
        assert trace.summary.avg_loss == total / 100
        assert trace.summary.warmup == 40

    def test_warmup_slots_still_traced(self, unit_instance):
        surface, config = unit_instance
        a = run(surface, config, UniformRandom(5), 140)
        b = run(surface, config, UniformRandom(5), 100, warmup=40)
        assert np.array_equal(a.loss, b.loss)


class TestCycleIdentity:
    @pytest.mark.parametrize("t1,t2,tau1,tau2", [
        (1, 1, 0, 0), (1, 1, 3, 1), (2, 3, 1, 2), (2, 6, 3, 0), (4, 1, 2, 5),
    ])
    def test_one_cycle_reproduces_cycle_costs_bitwise(self, t1, t2, tau1, tau2):
        """A simulated cycle's two segments fold to the two half-cycle costs."""
        config = SystemConfig(t1, t2, max(tau1, tau2, 1))
        surface = generate_surface(SurfaceSpec("nonmono_nonsep",
                                               *required_domain(config), {}))
        policy = StationaryPolicy(tau1, tau2)
        cyclelen = full_cycle_length(config, policy)
        trace = run(surface, config, IndexThreshold(policy), cyclelen + 1)

        d1 = tau1 * t1 + t2  # slots in the first half cycle
        seg1 = 0.0
        for x in trace.loss[:d1].tolist():
            seg1 += x
        seg2 = 0.0
        for x in trace.loss[d1:cyclelen].tolist():
            seg2 += x
        assert seg1 == cycle_cost(surface, config, Modality.M1, tau1)
        assert seg2 == cycle_cost(surface, config, Modality.M2, tau2)
        # the cycle closes: the next slot is the modality-1 restart state again
        assert (trace.delta1[cyclelen], trace.delta2[cyclelen]) == (t1, t1 + t2)
        assert (trace.delta1[d1], trace.delta2[d1]) == (t1 + t2, t2)

    def test_long_run_average_approaches_stationary(self):
        config = SystemConfig(2, 3, 6)
        surface = generate_surface(SurfaceSpec("nonmono_nonsep",
                                               *required_domain(config), {}))
        policy = StationaryPolicy(2, 1)
        stationary = stationary_average_cost(surface, config, policy)
        horizon = 50_000
        trace = run(surface, config, IndexThreshold(policy), horizon)
        cyclelen = full_cycle_length(config, policy)
        slack = 2 * surface.bound_m * cyclelen / horizon
        assert abs(trace.summary.avg_loss - stationary) <= slack


class TestPolicies:
    def test_index_pattern_from_modality_two_restart(self, unit_instance):
        surface, config = unit_instance
        trace = run(surface, config, IndexThreshold(StationaryPolicy(1, 2)), 8,
                    initial_state=RestartState(Modality.M2))
        kinds = trace.transmissions[:, 0].tolist()
        # from a modality-2 restart: tau2 more of 2, switch to 1, tau1 more of 1, switch
        assert kinds[:7] == [2, 2, 1, 1, 2, 2, 2]

    def test_round_robin_first_decision_complements_restart(self, unit_instance):
        surface, config = unit_instance
        a = run(surface, config, RoundRobin(), 3)
        b = run(surface, config, RoundRobin(), 3, initial_state=RestartState(Modality.M2))
        assert a.transmissions[0, 0] == 2
        assert b.transmissions[0, 0] == 1

    def test_uniform_random_is_seed_deterministic(self, unit_instance):
        surface, config = unit_instance
        a = run(surface, config, UniformRandom(11), 400)
        b = run(surface, config, UniformRandom(11), 400)
        c = run(surface, config, UniformRandom(12), 400)
        assert np.array_equal(a.loss, b.loss)
        assert np.array_equal(a.transmissions, b.transmissions)
        assert not np.array_equal(a.loss, c.loss)

    def test_uniform_random_matches_pcg_stream(self, unit_instance):
        """Decisions are exactly the PCG64 integer stream for the seed."""
        surface, config = unit_instance
        trace = run(surface, config, UniformRandom(7), 64)
        expected = np.random.Generator(np.random.PCG64(7)).integers(
            0, 2, size=len(trace.transmissions))
        got = (trace.transmissions[:, 0] - 1).tolist()
        assert got == expected.tolist()

    def test_constant_surface_average_is_exact(self):
        config = SystemConfig(2, 3, 4)
        surface = generate_surface(SurfaceSpec("constant", 40, 40, {"value": 2.5}))
        for policy in (RoundRobin(), UniformRandom(1),
                       IndexThreshold(StationaryPolicy(2, 2))):
            trace = run(surface, config, policy, 777)
            assert trace.summary.avg_loss == 2.5


class TestClampAccounting:
    def test_out_of_grid_lookups_are_counted_not_fatal(self):
        config = SystemConfig(1, 1, 3)
        small = generate_surface(SurfaceSpec("aoi_sum", 3, 3, {}))
        trace = run(small, config, UniformRandom(0), 500)
        assert trace.summary.clamp_count > 0
        # the caller's surface still refuses out-of-grid lookups
        with pytest.raises(OutOfDomain):
            small.eval(4, 1)

    def test_covered_run_never_clamps(self, unit_instance):
        surface, config = unit_instance
        trace = run(surface, config, IndexThreshold(StationaryPolicy(2, 1)), 400)
        assert trace.summary.clamp_count == 0

    def test_out_of_grid_slot_reads_the_edge_cell(self):
        surface = make_surface(lambda a, b: 10 * a + b, 3, 4)
        trace = run(surface, SystemConfig(2, 3, 4), UniformRandom(1), 60)
        d1, d2 = trace.delta1.tolist(), trace.delta2.tolist()
        for a, b, x in zip(d1, d2, trace.loss.tolist()):
            assert x == 10 * min(a, 3) + min(b, 4)
        # the run leaves the grid in each age alone and in both at once
        assert any(a > 3 and b <= 4 for a, b in zip(d1, d2))
        assert any(a <= 3 and b > 4 for a, b in zip(d1, d2))
        assert any(a > 3 and b > 4 for a, b in zip(d1, d2))

    def test_slot_clamped_in_both_ages_counts_once(self):
        # ages never drop below (t1, t2) = (2, 3), beyond a 1x1 grid in both
        surface = generate_surface(SurfaceSpec("constant", 1, 1, {"value": 2.5}))
        trace = run(surface, SystemConfig(2, 3, 4), UniformRandom(0), 90, warmup=10)
        assert trace.summary.clamp_count == 100
        assert trace.summary.avg_loss == 2.5

    def test_each_run_counts_from_zero(self):
        surface = generate_surface(SurfaceSpec("aoi_sum", 2, 2, {}))
        config = SystemConfig(1, 1, 3)
        first = run(surface, config, UniformRandom(3), 50).summary.clamp_count
        assert first > 0
        assert run(surface, config, UniformRandom(3), 50).summary.clamp_count == first


@st.composite
def _sim_cases(draw):
    """A run's arguments: any policy and restart state, often an undersized grid."""
    generator = draw(GENERATOR_PARAMS)
    config = SystemConfig(draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                          draw(st.integers(0, 12)))
    d1_req, d2_req = required_domain(config)
    grid = (draw(st.integers(1, d1_req)), draw(st.integers(1, d2_req)))
    kind = draw(st.sampled_from(["index", "rr", "rand"]))
    if kind == "index":
        policy = IndexThreshold(StationaryPolicy(draw(st.integers(0, config.tau_max)),
                                                 draw(st.integers(0, config.tau_max))))
    elif kind == "rr":
        policy = RoundRobin()
    else:
        policy = UniformRandom(draw(st.integers(0, 2 ** 32)))
    restart = RestartState(draw(st.sampled_from([Modality.M1, Modality.M2])))
    return (generator, grid, config, policy, restart,
            draw(st.integers(0, 49)), draw(st.integers(1, 400)))


class TestRunMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(_sim_cases())
    # an unseeded cumulative sum gives -0.0
    @example((("constant", {"value": -0.0}), (4, 5), SystemConfig(2, 3, 0),
              IndexThreshold(StationaryPolicy(0, 0)), RestartState(Modality.M1), 13, 200))
    # every slot beyond the grid in both ages: a per-coordinate count doubles
    @example((("aoi_sum", {}), (1, 1), SystemConfig(2, 3, 4), UniformRandom(7),
              RestartState(Modality.M2), 0, 50))
    @example((("nonmono_nonsep", {}), (9, 9), SystemConfig(1, 1, 0), RoundRobin(),
              RestartState(Modality.M1), 0, 1))
    def test_run_equals_the_slot_loop_bitwise(self, case):
        (name, params), grid, config, policy, restart, warmup, horizon = case
        surface = generate_surface(SurfaceSpec(name, *grid, params))
        got = run(surface, config, policy, horizon, initial_state=restart, warmup=warmup)
        ref = reference_run(surface, config, policy, horizon,
                            initial_state=restart, warmup=warmup)
        assert np.array_equal(got.delta1, ref.delta1)
        assert np.array_equal(got.delta2, ref.delta2)
        assert np.array_equal(got.loss.view(np.uint64), ref.loss.view(np.uint64))
        assert got.transmissions.dtype == np.int64
        assert np.array_equal(got.transmissions, ref.transmissions)
        assert repr(got.summary.total_loss) == repr(ref.summary.total_loss)
        assert got.summary == ref.summary


class TestRunMatchesStepAoi:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_trace_replay(self, seed):
        """The vectorized run and the single-step kernel tell the same story."""
        rng = np.random.default_rng(6000 + seed)
        surface, config, _ = random_instance(rng)
        trace = run(surface, config, UniformRandom(seed), 120)
        pending = trace.transmissions.tolist()
        m, start, delivery = pending.pop(0)
        state = SimState(0, RestartState(Modality.M1).aoi_vector(config),
                         InFlight(Modality(m), start, delivery))
        for t in range(120):
            assert state.aoi == (trace.delta1[t], trace.delta2[t])
            state = step_aoi(state, config)
            if state.in_flight is None and pending:
                m, start, delivery = pending.pop(0)
                assert start == state.t
                state = SimState(state.t, state.aoi, InFlight(Modality(m), start, delivery))


class TestSummary:
    def test_to_dict_field_presence(self, unit_instance):
        surface, config = unit_instance
        rand = run(surface, config, UniformRandom(2), 10).summary.to_dict()
        assert rand["seed"] == 2 and "tau1" not in rand
        rr = run(surface, config, RoundRobin(), 10).summary.to_dict()
        assert "seed" not in rr and "tau1" not in rr
        idx = run(surface, config, IndexThreshold(StationaryPolicy(1, 0)), 10)
        d = idx.summary.to_dict()
        assert d["tau1"] == 1 and d["tau2"] == 0 and "seed" not in d


class TestTraceFiles:
    def test_csv_outputs(self, tmp_path, unit_instance):
        surface, config = unit_instance
        trace = run(surface, config, UniformRandom(1), 25)
        tpath = tmp_path / "trace.csv"
        xpath = tmp_path / "tx.csv"
        from aoisched import write_trace_csv, write_transmissions_csv
        write_trace_csv(trace, tpath)
        write_transmissions_csv(trace, xpath)
        tlines = tpath.read_text().strip().splitlines()
        assert tlines[0] == "t,delta1,delta2,loss"
        assert len(tlines) == 26
        # repr round-trip: the loss column reparses to the exact float
        for t, line in enumerate(tlines[1:]):
            assert float(line.split(",")[3]) == trace.loss[t]
        xlines = xpath.read_text().strip().splitlines()
        assert xlines[0] == "n,modality,start,delivery"
        assert len(xlines) == len(trace.transmissions) + 1


class TestComparePolicies:
    def test_index_row_matches_l_opt(self):
        config = SystemConfig(2, 3, 8)
        surface = generate_surface(SurfaceSpec("nonmono_nonsep",
                                               *required_domain(config), {}))
        comp = compare_policies(surface, config, 5000)
        sol = solve_threshold(surface, config)
        assert comp.l_opt == sol.l_opt
        assert comp.index_policy == sol.policy
        # whole-cycle measurement makes the simulated average exactly stationary
        assert comp.row("index").avg_loss == pytest.approx(sol.l_opt, abs=1e-8)

    def test_rr_row_is_the_alternating_stationary_average(self, unit_instance):
        surface, config = unit_instance
        comp = compare_policies(surface, config, 3000, include=("rr",))
        expected = stationary_average_cost(surface, config, StationaryPolicy(0, 0))
        assert comp.row("rr").avg_loss == pytest.approx(expected, rel=1e-12)

    def test_rand_row_averages_the_seeds(self, unit_instance):
        surface, config = unit_instance
        seeds = (3, 4)
        comp = compare_policies(surface, config, 600, seeds=seeds, include=("rand",))
        singles = [run(surface, config, UniformRandom(s), 600).summary.avg_loss
                   for s in seeds]
        assert comp.row("rand").avg_loss == pytest.approx(sum(singles) / 2, rel=1e-15)
        assert comp.row("rand").runs == 2

    def test_reductions_and_ordering(self, unit_instance):
        surface, config = unit_instance
        comp = compare_policies(surface, config, 2000, seeds=(1, 2))
        assert [r.policy for r in comp.rows] == ["index", "rr", "rand"]
        idx = comp.row("index").avg_loss
        for label in ("rr", "rand"):
            base = comp.row(label).avg_loss
            assert comp.reductions[label] == pytest.approx((base - idx) / base)
        assert comp.reductions["rr"] >= -1e-12  # index never loses to alternation

    def test_zero_baseline_reduction_is_zero(self):
        config = SystemConfig(1, 1, 2)
        surface = generate_surface(SurfaceSpec("constant", 5, 5, {"value": 0.0}))
        comp = compare_policies(surface, config, 100, seeds=(1,))
        assert comp.reductions["rr"] == 0.0
        assert comp.reductions["rand"] == 0.0

    def test_subset_and_unknown_labels(self, unit_instance):
        surface, config = unit_instance
        comp = compare_policies(surface, config, 500, include=("rr", "rand"),
                                seeds=(1,))
        assert [r.policy for r in comp.rows] == ["rr", "rand"]
        assert comp.reductions == {}
        assert comp.index_policy is None
        with pytest.raises(ValueError):
            compare_policies(surface, config, 500, include=("bogus",))

    def test_short_horizon_still_covers_one_cycle(self, unit_instance):
        surface, config = unit_instance
        comp = compare_policies(surface, config, 1, include=("rr",))
        expected = stationary_average_cost(surface, config, StationaryPolicy(0, 0))
        assert comp.row("rr").avg_loss == pytest.approx(expected, rel=1e-12)
