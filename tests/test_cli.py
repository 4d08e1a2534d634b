"""End-to-end CLI behavior through click's test runner."""

import filecmp
import json

import numpy as np
import pytest
from click.testing import CliRunner

from aoisched import (CostTable, Modality, SurfaceSpec, SystemConfig,
                      generate_surface, load_surface, required_domain,
                      solve_threshold, tau_opt)
from aoisched.cli import _check_g_properties, main


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


UNIT = ["--t1", "1", "--t2", "1", "--tau-max", "3"]


class TestSolve:
    def test_stdout_payload(self, runner):
        result = _invoke(runner, ["solve", "--gen", "aoi_sum"] + UNIT)
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["l_opt"] == pytest.approx(3.0, abs=1e-8)
        assert payload["policy"] == {"tau1": 0, "tau2": 0}
        assert payload["index"]["m1"]["gamma"] == [4.0, 5.0, 6.0]
        assert payload["config"]["tau_max"] == 3
        assert abs(payload["residual"]) <= 1e-9
        assert len(payload["surface_sha256"]) == 64

    def test_out_directory(self, runner, tmp_path):
        out = tmp_path / "sol"
        result = _invoke(runner, ["solve", "--gen", "aoi_sum"] + UNIT
                         + ["--out", str(out)])
        assert result.exit_code == 0
        solution = json.loads((out / "solution.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert solution == json.loads(result.output)
        assert manifest["subcommand"] == "solve"
        assert "--out" not in manifest["argv"]
        assert manifest["outputs"] == ["solution.json"]

    def test_missing_surface_file(self, runner, tmp_path):
        result = runner.invoke(main, ["solve", "--surface",
                                      str(tmp_path / "nope.csv")] + UNIT)
        assert result.exit_code == 1
        assert "error:" in result.output or "error:" in (result.stderr or "")

    def test_surface_and_gen_are_exclusive(self, runner, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("delta1,delta2,loss\n1,1,1\n")
        result = runner.invoke(main, ["solve", "--surface", str(path),
                                      "--gen", "aoi_sum"] + UNIT)
        assert result.exit_code == 1
        result = runner.invoke(main, ["solve"] + UNIT)
        assert result.exit_code == 1

    def test_grid_over_the_budget_is_refused(self, runner):
        result = _invoke(runner, ["solve", "--gen", "aoi_sum", "--t1", "1", "--t2", "1",
                                  "--tau-max", "1000000"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == ("error: grid 1000002x1000002 needs 8000032000032 bytes, "
                                 "over the budget of 1073741824\n")

    def test_undersized_generated_grid(self, runner):
        result = runner.invoke(main, ["solve", "--gen", "aoi_sum",
                                      "--d1", "3", "--d2", "3"] + UNIT)
        assert result.exit_code == 1

    def test_loads_surface_file(self, runner, tmp_path):
        gen = _invoke(runner, ["gen-surface", "--gen", "aoi_sum",
                               "--d1", "5", "--d2", "5",
                               "--out", str(tmp_path / "s.csv")])
        assert gen.exit_code == 0
        result = _invoke(runner, ["solve", "--surface", str(tmp_path / "s.csv")] + UNIT)
        assert json.loads(result.output)["l_opt"] == pytest.approx(3.0, abs=1e-8)


class TestSimulate:
    def test_index_policy_one_cycle_average(self, runner):
        result = _invoke(runner, ["simulate", "--gen", "aoi_sum"] + UNIT
                         + ["--policy", "index", "--horizon", "2"])
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert summary["avg_loss"] == 3.0
        assert summary["tau1"] == 0 and summary["tau2"] == 0

    def test_outputs_are_deterministic(self, runner, tmp_path):
        args = (["simulate", "--gen", "nonmono_nonsep"] + UNIT
                + ["--policy", "rand", "--seed", "5", "--horizon", "300"])
        a = _invoke(runner, args + ["--out", str(tmp_path / "a")])
        b = _invoke(runner, args + ["--out", str(tmp_path / "b")])
        assert a.exit_code == 0 and b.exit_code == 0
        for name in ("trace.csv", "transmissions.csv", "summary.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)

    def test_summary_records_seed_for_rand_only(self, runner):
        result = _invoke(runner, ["simulate", "--gen", "aoi_sum"] + UNIT
                         + ["--policy", "rr", "--horizon", "10"])
        assert "seed" not in json.loads(result.output)

    def test_manifest_lists_outputs(self, runner, tmp_path):
        out = tmp_path / "simout"
        _invoke(runner, ["simulate", "--gen", "aoi_sum"] + UNIT
                + ["--policy", "rand", "--seed", "2", "--horizon", "50",
                   "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [2]
        assert set(manifest["outputs"]) == {"trace.csv", "transmissions.csv",
                                            "summary.json"}


class TestSweep:
    def test_rows_sorted_and_reductions_on_index_only(self, runner):
        result = _invoke(runner, ["sweep", "--gen", "nonmono_nonsep",
                                  "--t1-list", "2,1", "--t2-list", "2",
                                  "--tau-max", "5", "--horizon", "400",
                                  "--seeds", "1,2"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "t1,t2,policy,avg_loss,clamp_count,reduction_vs_rr,reduction_vs_rand"
        cells = [ln.split(",") for ln in lines[1:]]
        assert [(c[0], c[1], c[2]) for c in cells] == [
            ("1", "2", "index"), ("1", "2", "rr"), ("1", "2", "rand"),
            ("2", "2", "index"), ("2", "2", "rr"), ("2", "2", "rand")]
        for c in cells:
            if c[2] == "index":
                assert c[5] != "" and c[6] != ""
            else:
                assert c[5] == "" and c[6] == ""

    def test_policy_subset(self, runner):
        result = _invoke(runner, ["sweep", "--gen", "aoi_sum",
                                  "--t1-list", "1", "--t2-list", "1",
                                  "--tau-max", "2", "--horizon", "100",
                                  "--policies", "rr"])
        lines = result.output.strip().splitlines()
        assert len(lines) == 2 and lines[1].split(",")[2] == "rr"

    def test_parallel_matches_serial(self, runner, tmp_path):
        base = ["sweep", "--gen", "nonmono_nonsep", "--t1-list", "1,2",
                "--t2-list", "1,2", "--tau-max", "4", "--horizon", "300",
                "--seeds", "1"]
        a = _invoke(runner, base + ["--jobs", "1", "--out", str(tmp_path / "s1")])
        b = _invoke(runner, base + ["--jobs", "2", "--out", str(tmp_path / "s2")])
        assert a.exit_code == 0 and b.exit_code == 0
        assert filecmp.cmp(tmp_path / "s1" / "sweep.csv",
                           tmp_path / "s2" / "sweep.csv", shallow=False)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_undersized_surface_is_a_clean_error(self, runner, jobs):
        """A worker's OutOfDomain reaches the parent intact, so both paths exit alike."""
        result = _invoke(runner, ["sweep", "--gen", "aoi_sum", "--d1", "6", "--d2", "6",
                                  "--t1-list", "1,2", "--t2-list", "2", "--tau-max", "3",
                                  "--horizon", "3000", "--seeds", "1,2", "--jobs", jobs])
        assert result.exit_code == 1
        assert result.stderr == ("error: age pair (9, 7) outside stored grid 6x6 "
                                 "(surface too small for t1=1, t2=2, tau_max=3)\n")

    def test_bad_lists_rejected(self, runner):
        result = runner.invoke(main, ["sweep", "--gen", "aoi_sum",
                                      "--t1-list", "1,x", "--t2-list", "1"])
        assert result.exit_code == 1
        result = runner.invoke(main, ["sweep", "--gen", "aoi_sum",
                                      "--t1-list", "1", "--t2-list", "1",
                                      "--policies", "index,warp"])
        assert result.exit_code == 1


class TestVerify:
    def test_clean_instance_passes(self, runner):
        result = _invoke(runner, ["verify", "--gen", "nonmono_nonsep",
                                  "--t1", "3", "--t2", "2", "--tau-max", "12"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["ok"] is True
        assert all(c["ok"] for c in report["checks"].values())

    def test_injected_perturbation_fails_bellman(self, runner):
        result = _invoke(runner, ["verify", "--gen", "nonmono_nonsep",
                                  "--t1", "3", "--t2", "2", "--tau-max", "12",
                                  "--inject-perturb", "0.5"])
        assert result.exit_code == 2
        report = json.loads(result.output)
        assert report["ok"] is False
        assert report["checks"]["bellman"]["ok"] is False
        assert max(report["checks"]["bellman"]["fixpoint_gap"]) > 1e-8

    def test_tau_max_zero_passes(self, runner):
        result = _invoke(runner, ["verify", "--gen", "aoi_sum",
                                  "--t1", "2", "--t2", "3", "--tau-max", "0"])
        assert result.exit_code == 0
        assert json.loads(result.output)["policy"] == {"tau1": 0, "tau2": 0}

    def test_report_written_even_on_failure(self, runner, tmp_path):
        out = tmp_path / "rep"
        result = _invoke(runner, ["verify", "--gen", "aoi_sum"] + UNIT
                         + ["--inject-perturb", "1.0", "--out", str(out)])
        assert result.exit_code == 2
        assert json.loads((out / "report.json").read_text())["ok"] is False

    @pytest.mark.parametrize("args", [
        # g reaches 1e6, where one ulp is far above an absolute 1e-10
        ["--gen", "aoi_sum", "--t1", "2", "--t2", "3", "--tau-max", "150"],
        # every policy ties exactly; the long cycle sums round apart by more than 1e-12
        ["--gen", "constant:value=37.31", "--t1", "2", "--t2", "8", "--tau-max", "250"],
        # nonmono_nonsep's amplitudes times 1e9: the Bellman gaps are rounding of about 1e-5
        ["--gen", "nonmono_nonsep:base=1e9,a1=6e9,a2=1.5e9,cross=2e9,dip=1.2e9",
         "--t1", "5", "--t2", "7", "--tau-max", "100"],
    ])
    def test_rounding_is_not_a_failure(self, runner, args):
        result = _invoke(runner, ["verify"] + args)
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("option, value, error", [
        ("--grid", "0", "error: --grid must be >= 2, got 0\n"),
        ("--grid", "1", "error: --grid must be >= 2, got 1\n"),
        ("--grid", "2", ""),
        ("--betas", "-1", "error: --betas must be >= 0, got -1\n"),
        ("--betas", "0", ""),
    ])
    def test_sample_counts_are_validated(self, runner, option, value, error):
        result = _invoke(runner, ["verify", "--gen", "aoi_sum"] + UNIT + [option, value])
        assert result.stderr == error
        if error:
            assert result.exit_code == 1 and result.stdout == ""
        else:
            assert result.exit_code == 0 and json.loads(result.stdout)["ok"] is True

    def test_cost_offset_beyond_rounding_fails_concavity(self):
        """On this constant surface g is linear on the beta grid past its first
        point, where the policy switches from (0, 0) to (tau_max, tau_max).
        Lowering the cost of tau1 = tau_max by more than twice the per-value
        rounding allowance makes the second grid point break concavity."""
        config = SystemConfig(2, 3, 40)
        surface = generate_surface(SurfaceSpec("constant", *required_domain(config),
                                               {"value": -0.5}))
        solution = solve_threshold(surface, config)
        index = solution.index_table
        assert tau_opt(index, config, Modality.M1, -0.5) == 0
        assert tau_opt(index, config, Modality.M1, -0.49) == config.tau_max
        n = (config.tau_max + 1) * (config.t1 + config.t2)
        per_value = n * float(np.finfo(np.float64).eps) * n * 2.0 * surface.bound_m

        def check(offset):
            costs = CostTable(surface, config)
            costs.c1 = costs.c1[:-1] + (costs.c1[-1] - offset,)
            return _check_g_properties(surface, config, costs, index, 200)

        assert check(0.0)["ok"]
        assert check(per_value)["ok"]
        report = check(5.0 * per_value)
        assert not report["midpoint_concave"] and report["strictly_decreasing"]


def _alternating_surface(path, magnitude) -> str:
    """12x12 JSON surface whose even rows are -magnitude and odd rows +magnitude."""
    rows = [[-magnitude if i % 2 == 0 else magnitude] * 12 for i in range(12)]
    path.write_text(json.dumps({"d1_max": 12, "d2_max": 12, "values": rows}))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestOverflowingSurface:
    COMMANDS = [["solve"], ["verify"], ["simulate", "--policy", "index", "--horizon", "100"]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rejected_before_any_output(self, runner, tmp_path, command):
        path = _alternating_surface(tmp_path / "s.json", 1e308)
        result = _invoke(runner, command + ["--surface", path] + UNIT)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == ("error: surface bound_m=1e+308 too large for t1=1, t2=1, "
                                 "tau_max=3: sums over 8 slots overflow\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_just_under_the_limit_prints_finite_json(self, runner, tmp_path, command):
        # 16 * n * bound_m = 16 * 8 * 1.4e306 is just below the largest float
        path = _alternating_surface(tmp_path / "s.json", 1.4e306)
        result = _invoke(runner, command + ["--surface", path] + UNIT)
        assert result.exit_code == 0
        assert result.stderr == ""
        json.loads(result.stdout, parse_constant=_reject_constant)

    def test_verify_certifies_rows_of_1e306(self, runner, tmp_path):
        """All gammas are equal and near 1e306; the sampled betas must stay off
        that value, where every decision ties."""
        path = _alternating_surface(tmp_path / "s.json", 1e306)
        result = _invoke(runner, ["verify", "--surface", path] + UNIT)
        assert result.exit_code == 0, result.stdout

    SIMULATE = ["simulate", "--gen", "constant:value=1e305", "--policy", "rr"] + UNIT

    def test_simulated_sum_that_can_overflow_is_rejected(self, runner):
        result = _invoke(runner, self.SIMULATE + ["--horizon", "10000"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == ("error: surface bound_m=1e+305 too large for horizon=10000: "
                                 "the sum over 10000 slots can overflow\n")

    def test_simulated_sum_just_under_the_bound_prints_finite_json(self, runner):
        # 1797 * 1e305 is just below the largest float, 1798 * 1e305 above it
        result = _invoke(runner, self.SIMULATE + ["--horizon", "1797"])
        assert result.exit_code == 0
        assert result.stderr == ""
        json.loads(result.stdout, parse_constant=_reject_constant)
        assert _invoke(runner, self.SIMULATE + ["--horizon", "1798"]).exit_code == 1


class TestOutDirectory:
    COMMANDS = [
        ["solve", "--gen", "aoi_sum"] + UNIT,
        ["simulate", "--gen", "aoi_sum", "--policy", "rr", "--horizon", "10"] + UNIT,
        ["verify", "--gen", "aoi_sum"] + UNIT,
        ["sweep", "--gen", "aoi_sum", "--t1-list", "1", "--t2-list", "1", "--tau-max", "3"],
    ]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("below", [False, True])
    def test_out_through_a_file_fails_before_any_output(self, runner, tmp_path, command, below):
        """--out naming an existing file, or a path below one, exits 1 before the work."""
        existing = tmp_path / "F"
        existing.write_text("kept")
        out = existing / "sub" if below else existing
        result = _invoke(runner, command + ["--out", str(out)])
        assert (result.exit_code, result.stdout) == (1, "")
        reason = "Not a directory" if below else "File exists"
        assert result.stderr == f"error: [Errno {20 if below else 17}] {reason}: '{out}'\n"
        assert existing.read_text() == "kept"


class TestGenSurface:
    def test_small_grid_csv(self, runner, tmp_path):
        path = tmp_path / "g.csv"
        result = _invoke(runner, ["gen-surface", "--gen", "aoi_sum",
                                  "--d1", "3", "--d2", "3", "--out", str(path)])
        assert result.exit_code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 10  # header + 9 cells
        surface = load_surface(path)
        assert surface.eval(2, 3) == 5.0

    def test_fit_config(self, runner, tmp_path):
        path = tmp_path / "fit.json"
        result = _invoke(runner, ["gen-surface", "--gen", "aoi_sum",
                                  "--fit-config", "--t1", "2", "--t2", "6",
                                  "--tau-max", "10", "--out", str(path)])
        assert result.exit_code == 0
        surface = load_surface(path)
        assert (surface.d1_max, surface.d2_max) == (69, 33)

    def test_fit_config_requires_times(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-surface", "--gen", "aoi_sum",
                                      "--fit-config", "--out",
                                      str(tmp_path / "x.csv")])
        assert result.exit_code == 1

    def test_dims_required_without_fit(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-surface", "--gen", "aoi_sum",
                                      "--d1", "3", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 1

    def test_manifest_sidecar(self, runner, tmp_path):
        path = tmp_path / "g.csv"
        _invoke(runner, ["gen-surface", "--gen", "constant:2.0",
                         "--d1", "2", "--d2", "2", "--out", str(path)])
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "gen-surface"
        assert manifest["argv"][:2] == ["gen-surface", "--gen"]


class TestManifestRerun:
    @pytest.mark.parametrize("args,outputs", [
        (["solve", "--gen", "nonmono_nonsep", "--t1", "2", "--t2", "3",
          "--tau-max", "6"], ["solution.json"]),
        (["simulate", "--gen", "nonmono_nonsep", "--t1", "2", "--t2", "3",
          "--tau-max", "6", "--policy", "rand", "--seed", "3",
          "--horizon", "200"], ["trace.csv", "transmissions.csv", "summary.json"]),
        (["verify", "--gen", "aoi_sum", "--t1", "1", "--t2", "2",
          "--tau-max", "4"], ["report.json"]),
    ])
    def test_rerun_reproduces_outputs_bitwise(self, runner, tmp_path, args, outputs):
        first = tmp_path / "first"
        result = _invoke(runner, args + ["--out", str(first)])
        assert result.exit_code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["outputs"] == outputs

        second = tmp_path / "second"
        rerun = _invoke(runner, manifest["argv"] + ["--out", str(second)])
        assert rerun.exit_code == 0
        for name in outputs:
            assert filecmp.cmp(first / name, second / name, shallow=False)
