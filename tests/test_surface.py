"""Surface storage, generators, file formats, and domain accounting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import (BadSpec, HoleError, LossSurface, Modality,
                      NonFiniteError, OutOfDomain, ParseError, SurfaceSpec,
                      SystemConfig, cycle_cost, generate_surface, load_surface,
                      parse_generator_spec, required_domain, save_surface)
from aoisched.surface import _GRID_BUDGET
from helpers import make_surface


class TestLossSurface:
    def test_eval_is_one_based(self):
        s = make_surface(lambda a, b: 10 * a + b, 3, 4)
        assert s.eval(1, 1) == 11.0
        assert s.eval(3, 4) == 34.0

    def test_eval_rejects_ages_below_one(self):
        s = make_surface(lambda a, b: 0.0, 2, 2)
        with pytest.raises(ValueError):
            s.eval(0, 1)
        with pytest.raises(ValueError):
            s.eval(1, -3)

    def test_strict_raises_out_of_domain(self):
        s = make_surface(lambda a, b: 1.0, 3, 3)
        with pytest.raises(OutOfDomain) as exc:
            s.eval(4, 2)
        assert exc.value.d1_max == 3 and exc.value.d2_max == 3

    def test_values_are_read_only(self):
        s = make_surface(lambda a, b: a + b, 2, 2)
        with pytest.raises(ValueError):
            s.values[0, 0] = 99.0

    def test_rejects_non_finite_grid(self):
        grid = np.ones((2, 2))
        grid[1, 0] = np.inf
        with pytest.raises(NonFiniteError):
            LossSurface(grid)

    def test_rejects_empty_or_misshapen_grid(self):
        with pytest.raises(ValueError):
            LossSurface(np.ones((0, 3)))
        with pytest.raises(ValueError):
            LossSurface(np.ones(4))

    def test_covers(self):
        s = make_surface(lambda a, b: 0.0, 5, 7)
        assert s.covers(5, 7)
        assert not s.covers(6, 7)
        assert not s.covers(5, 8)

    def test_bound_is_max_abs(self):
        s = make_surface(lambda a, b: -3.0 if (a, b) == (2, 2) else 1.0, 3, 3)
        assert s.bound_m == 3.0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
def test_bound_dominates_every_lookup(d1, d2, seed):
    rng = np.random.default_rng(seed)
    s = LossSurface(rng.normal(scale=50.0, size=(d1, d2)))
    for i in range(1, d1 + 1):
        for j in range(1, d2 + 1):
            assert abs(s.eval(i, j)) <= s.bound_m


class TestGenerators:
    def test_aoi_sum(self):
        s = generate_surface(SurfaceSpec("aoi_sum", 4, 4, {}))
        assert s.eval(1, 2) == 3.0
        assert s.eval(4, 4) == 8.0

    def test_aoi_weighted(self):
        s = generate_surface(SurfaceSpec("aoi_weighted", 4, 5, {"w1": 2.0, "w2": 0.5}))
        assert s.eval(3, 4) == 8.0

    def test_monotone_power(self):
        s = generate_surface(SurfaceSpec("monotone_power", 4, 4, {"p1": 2.0, "p2": 3.0}))
        assert s.eval(2, 2) == 12.0

    def test_monotone_power_rejects_negative_exponent(self):
        with pytest.raises(BadSpec):
            generate_surface(SurfaceSpec("monotone_power", 3, 3, {"p1": -1.0, "p2": 2.0}))

    def test_constant_requires_value(self):
        with pytest.raises(BadSpec):
            generate_surface(SurfaceSpec("constant", 3, 3, {}))

    def test_unknown_generator_and_unknown_param(self):
        with pytest.raises(BadSpec):
            generate_surface(SurfaceSpec("mystery", 3, 3, {}))
        with pytest.raises(BadSpec):
            generate_surface(SurfaceSpec("aoi_sum", 3, 3, {"w1": 1.0}))

    def test_nonmono_nonsep_is_non_monotone_both_axes(self):
        """The dip term must produce decreasing stretches along each age axis."""
        s = generate_surface(SurfaceSpec("nonmono_nonsep", 50, 50, {}))
        along_d1 = np.diff(s.values, axis=0)
        along_d2 = np.diff(s.values, axis=1)
        assert (along_d1 > 0).any() and (along_d1 < 0).any()
        assert (along_d2 > 0).any() and (along_d2 < 0).any()

    def test_nonmono_nonsep_couples_the_modalities(self):
        # non-separable: the delta2-profile depends on delta1
        s = generate_surface(SurfaceSpec("nonmono_nonsep", 30, 30, {"dip": 0.0}))
        prof_a = np.diff([s.eval(1, j) for j in range(1, 31)])
        prof_b = np.diff([s.eval(20, j) for j in range(1, 31)])
        assert not np.allclose(prof_a, prof_b)

    def test_grid_over_the_budget_is_refused_before_allocation(self):
        d1, d2 = required_domain(SystemConfig(1, 1, 5000))
        assert d1 * d2 * 8 <= _GRID_BUDGET
        with pytest.raises(BadSpec, match="over the budget"):
            generate_surface(SurfaceSpec("aoi_sum", 2 ** 20, 2 ** 20, {}))
        with pytest.raises(BadSpec, match="over the budget"):  # one cell over
            generate_surface(SurfaceSpec("constant", _GRID_BUDGET // 8 + 1, 1, {"value": 1.0}))

    def test_generation_is_deterministic(self):
        spec = SurfaceSpec("nonmono_nonsep", 40, 30, {"dip": 1.7})
        a = generate_surface(spec)
        b = generate_surface(spec)
        assert np.array_equal(a.values, b.values)


class TestParseGeneratorSpec:
    def test_bare_name(self):
        assert parse_generator_spec("aoi_sum") == ("aoi_sum", {})

    def test_positional(self):
        assert parse_generator_spec("constant:3.0") == ("constant", {"value": 3.0})
        name, params = parse_generator_spec("aoi_weighted:2,0.5")
        assert name == "aoi_weighted"
        assert params == {"w1": 2.0, "w2": 0.5}

    def test_named(self):
        name, params = parse_generator_spec("aoi_weighted:w2=0.5,w1=2")
        assert params == {"w1": 2.0, "w2": 0.5}

    def test_mixed_styles_rejected(self):
        with pytest.raises(BadSpec):
            parse_generator_spec("aoi_weighted:2,w2=0.5")

    def test_too_many_positional(self):
        with pytest.raises(BadSpec):
            parse_generator_spec("constant:1,2")

    def test_unknown_name(self):
        with pytest.raises(BadSpec):
            parse_generator_spec("swirl:1")

    def test_bad_value(self):
        with pytest.raises(BadSpec):
            parse_generator_spec("constant:abc")
        with pytest.raises(BadSpec):
            parse_generator_spec("")


class TestFileFormats:
    def test_csv_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        s = LossSurface(rng.normal(scale=123.0, size=(6, 9)))
        path = tmp_path / "grid.csv"
        save_surface(s, path)
        back = load_surface(path)
        assert np.array_equal(back.values, s.values)

    def test_json_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        s = LossSurface(rng.normal(scale=1e-7, size=(4, 3)))
        path = tmp_path / "grid.json"
        save_surface(s, path)
        back = load_surface(path)
        assert np.array_equal(back.values, s.values)

    def test_csv_row_order_is_canonical(self, tmp_path):
        s = make_surface(lambda a, b: 10 * a + b, 2, 2)
        path = tmp_path / "g.csv"
        save_surface(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].replace(" ", "") == "delta1,delta2,loss"
        assert [ln.split(",")[:2] for ln in lines[1:]] == [
            ["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]

    def test_csv_accepts_shuffled_rows_and_padding(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("delta1, delta2, loss\n2,1,21\n1,2,12\n\n1,1,11\n2,2,22\n")
        s = load_surface(path)
        assert s.eval(2, 1) == 21.0
        assert (s.d1_max, s.d2_max) == (2, 2)

    def test_csv_missing_cell_is_a_hole(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("delta1,delta2,loss\n1,1,1\n1,2,2\n2,2,4\n")
        with pytest.raises(HoleError) as exc:
            load_surface(path)
        assert "(2, 1)" in str(exc.value)

    def test_csv_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("delta1,delta2,loss\n1,1,1\n1,1,2\n")
        with pytest.raises(ParseError):
            load_surface(path)

    def test_csv_non_finite_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("delta1,delta2,loss\n1,1,nan\n")
        with pytest.raises(NonFiniteError):
            load_surface(path)

    def test_csv_bad_header_and_bad_rows(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b,c\n1,1,1\n")
        with pytest.raises(ParseError):
            load_surface(path)
        path.write_text("delta1,delta2,loss\n1,1\n")
        with pytest.raises(ParseError):
            load_surface(path)
        path.write_text("delta1,delta2,loss\n0,1,5\n")
        with pytest.raises(ParseError):
            load_surface(path)
        path.write_text("delta1,delta2,loss\n1.5,1,5\n")
        with pytest.raises(ParseError):
            load_surface(path)
        path.write_text("")
        with pytest.raises(ParseError):
            load_surface(path)

    def test_json_shape_must_match_dims(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"d1_max": 2, "d2_max": 2, "values": [[1, 2]]}))
        with pytest.raises(ParseError):
            load_surface(path)

    def test_json_nan_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"d1_max": 1, "d2_max": 2, "values": [[1.0, NaN]]}')
        with pytest.raises(NonFiniteError):
            load_surface(path)

    def test_json_requires_mapping_with_keys(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ParseError):
            load_surface(path)
        path.write_text('{"values": [[1.0]]}')
        with pytest.raises(ParseError):
            load_surface(path)

    def test_json_rejects_boolean_cells(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"d1_max": 1, "d2_max": 1, "values": [[true]]}')
        with pytest.raises(ParseError):
            load_surface(path)


class _Spy:
    """Duck-typed surface recording every age pair the cycle costs touch."""

    def __init__(self):
        self.calls = []

    def eval(self, delta1, delta2):
        self.calls.append((delta1, delta2))
        return 0.0


class TestRequiredDomain:
    @pytest.mark.parametrize("t1,t2,tau_max,expected", [
        (1, 1, 3, (5, 5)),
        (2, 6, 10, (69, 33)),
        (1, 1, 0, (2, 2)),
    ])
    def test_known_values(self, t1, t2, tau_max, expected):
        assert required_domain(SystemConfig(t1, t2, tau_max)) == expected

    @pytest.mark.parametrize("t1,t2,tau_max", [
        (1, 1, 3), (2, 6, 10), (3, 2, 7), (5, 5, 0), (1, 6, 1), (4, 1, 12),
    ])
    def test_matches_enumerated_lookups(self, t1, t2, tau_max):
        """The closed form equals the max age each cycle cost ever evaluates."""
        config = SystemConfig(t1, t2, tau_max)
        spy = _Spy()
        for tau in range(tau_max + 1):
            cycle_cost(spy, config, Modality.M1, tau)
            cycle_cost(spy, config, Modality.M2, tau)
        d1_seen = max(a for a, _ in spy.calls)
        d2_seen = max(b for _, b in spy.calls)
        assert required_domain(config) == (d1_seen, d2_seen)

    def test_solver_rejects_undersized_surface(self):
        from aoisched import solve_threshold
        config = SystemConfig(1, 1, 3)
        s = generate_surface(SurfaceSpec("aoi_sum", 4, 5, {}))
        with pytest.raises(OutOfDomain):
            solve_threshold(s, config)


def test_pickle_round_trip():
    import pickle
    s = generate_surface(SurfaceSpec("nonmono_nonsep", 3, 4, {}))
    back = pickle.loads(pickle.dumps(s))
    assert np.array_equal(back.values.view(np.uint64), s.values.view(np.uint64))
    assert back.bound_m == s.bound_m
    assert not back.values.flags.writeable


def test_out_of_domain_pickle_round_trip():
    import pickle
    err = OutOfDomain(9, 7, 6, 6, "surface too small")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is OutOfDomain
    assert (back.delta1, back.delta2, back.d1_max, back.d2_max, back.note) == (9, 7, 6, 6,
                                                                               "surface too small")
    assert str(back) == str(err) == "age pair (9, 7) outside stored grid 6x6 (surface too small)"


def test_saved_json_has_finite_repr_floats(tmp_path):
    s = make_surface(lambda a, b: a / 3.0, 2, 2)
    path = tmp_path / "g.json"
    save_surface(s, path)
    payload = json.loads(path.read_text())
    assert payload["d1_max"] == 2
    assert math.isclose(payload["values"][1][0], 2.0 / 3.0)
