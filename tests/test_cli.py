import json

import numpy as np
import pytest

from stealthpath import (ALGORITHMS, ExperimentConfig, bench, build_environment,
                         compute_exposure_field, config_from_mapping,
                         field_cache_path, load_heightmap, result_record, search)
from stealthpath.cli import build_parser, main
from stealthpath.render import load_pgm


def make_map(tmp_path, name="map.txt", kind="boxes", seed=3, size=12):
    path = tmp_path / name
    code = main(["gen", kind, "--seed", str(seed), "--size", str(size),
                 "--out", str(path)])
    assert code == 0
    return path


class TestGen:
    def test_writes_loadable_map(self, tmp_path):
        p = make_map(tmp_path)
        elev, cell = load_heightmap(p)
        assert elev.shape == (12, 12)
        assert cell == 10.0

    def test_reserialization_is_identical(self, tmp_path):
        from stealthpath.mapio import format_heightmap
        p = make_map(tmp_path, kind="hills", seed=2, size=15)
        elev, cell = load_heightmap(p)
        assert format_heightmap(elev, cell) == p.read_text()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "swamp", "--seed", "1", "--size", "12",
                  "--out", str(tmp_path / "x.txt")])
        assert exc.value.code == 2

    def test_reports_the_size_the_map_has(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert main(["gen", "boxes", "--seed", "1", "--size", "12.0", "--out", str(out)]) == 0
        assert capsys.readouterr().err == f"wrote boxes 12x12 map to {out}\n"
        assert load_heightmap(out)[0].shape == (12, 12)

    def test_too_small_map_fails_cleanly(self, tmp_path, capsys):
        code = main(["gen", "boxes", "--seed", "1", "--size", "5",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "size" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["201", "1e5", str(10**22)])
    def test_a_size_past_the_bound_writes_no_map(self, tmp_path, capsys, size):
        out = tmp_path / "big.txt"
        code = main(["gen", "boxes", "--seed", "1", "--size", size, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: size must be at most 200, got ")
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["-5", "0", "inf", "nan"])
    def test_bad_cell_size_writes_no_map(self, tmp_path, capsys, cell):
        # every later command would reject such a map with exit 2
        out = tmp_path / "x.txt"
        code = main(["gen", "boxes", "--seed", "1", "--size", "12",
                     "--cell-size", cell, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cell_size must be positive")
        assert not out.exists()


class TestPlan:
    def test_fixture_exact_objective(self, capsys):
        code = main(["plan", "--fixture", "--alg", "exact",
                     "--start", "F", "--goal", "H"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["obj_bin"] == 12
        assert rec["status"] == "found"

    def test_start_equals_goal(self, tmp_path, capsys):
        p = make_map(tmp_path)
        code = main(["plan", "--map", str(p), "--alg", "binary",
                     "--start", "0,0", "--goal", "0,0"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["path"] == [0]

    def test_no_path_exit_code(self, tmp_path, capsys):
        p = tmp_path / "split.txt"
        p.write_text("3 1 1.0\n0.0 9.0 0.0\n")
        code = main(["plan", "--map", str(p), "--alg", "shortest",
                     "--start", "0,0", "--goal", "0,2"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["status"] == "no_path"

    def test_budget_exit_code(self, tmp_path, capsys):
        p = make_map(tmp_path)
        code = main(["plan", "--map", str(p), "--alg", "exact",
                     "--start", "0,0", "--goal", "11,11", "--budget", "1"])
        assert code == 4
        assert json.loads(capsys.readouterr().out)["status"] == "budget_exceeded"

    @pytest.mark.parametrize("flags", [["--tau", "5.0"], ["--tau", "5", "--budget", "1e5"]])
    def test_a_whole_float_flag_runs_as_its_int(self, capsys, flags):
        # the CI fixture record of saturation at tau 5
        code = main(["plan", "--fixture", "--alg", "saturation", "--start", "F",
                     "--goal", "H", *flags])
        rec = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (rec["path"], rec["cost"]) == ([5, 2, 1, 0, 3, 7], 0.6682918413345676)
        assert rec["params"]["tau"] == 5 and type(rec["params"]["tau"]) is int

    def test_a_non_number_is_a_usage_error_naming_its_flag(self, capsys):
        # even where the command ignores the flag: the fixture has no grid
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--fixture", "--alg", "shortest", "--start", "F", "--goal", "H",
                  "--connectivity", "abc"])
        assert exc.value.code == 2
        assert "argument --connectivity: invalid" in capsys.readouterr().err

    def test_a_usage_error_names_no_private_function(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--fixture", "--alg", "saturation", "--start", "F", "--goal", "H",
                  "--tau", "abc"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "argument --tau: invalid number value: 'abc'" in err
        assert "_number" not in err

    @pytest.mark.parametrize("value, message", [
        ("6", "4 or 8, got 6"), ("2", "an integer of at least 4"),
        ("4.5", "an integer of at least 4")])
    def test_connectivity_has_terrain_s_rule(self, tmp_path, capsys, value, message):
        p = make_map(tmp_path)
        capsys.readouterr()
        code = main(["plan", "--map", str(p), "--alg", "shortest", "--start", "0,0",
                     "--goal", "1,1", "--connectivity", value])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: connectivity must be {message}")

    @pytest.mark.parametrize("cell, message", [
        ("1.5,0", "row must be an integer, got 1.5"), ("0,inf", "col must be an integer, got inf"),
        ("0,x", "could not convert string to float: 'x'")])
    def test_a_cell_that_is_no_integer_is_usage_error(self, tmp_path, capsys, cell, message):
        # the grid's own region rule judges a cell's row and column
        p = make_map(tmp_path)
        capsys.readouterr()
        code = main(["plan", "--map", str(p), "--alg", "shortest", "--start", cell,
                     "--goal", "0,0"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_tau_is_usage_error(self, tmp_path, capsys):
        p = make_map(tmp_path)
        code = main(["plan", "--map", str(p), "--alg", "saturation",
                     "--tau", "0", "--start", "0,0", "--goal", "0,3"])
        assert code == 2
        assert "tau" in capsys.readouterr().err

    def test_a_tau_past_its_bound_is_usage_error(self, capsys):
        code = main(["plan", "--fixture", "--alg", "saturation", "--tau", str(10**22),
                     "--start", "F", "--goal", "H"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: tau must be at most")

    def test_a_term_that_underflows_prints_as_json(self, capsys):
        # 0.01 ** 200 underflows to 0.0: the record still holds a finite
        # obj_acc, 2 per clamped sighting. The planner's cost leaves out the
        # start's own 406: F saturates (200) and C, I and J see it once.
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        code = main(["plan", "--fixture", "--alg", "saturation", "--tau", "200",
                     "--p-success", "0.01", "--start", "F", "--goal", "H"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rec["obj_acc"] == pytest.approx(rec["cost"] + 406.0, rel=1e-12)

    def test_missing_tau_is_usage_error(self, tmp_path, capsys):
        p = make_map(tmp_path)
        code = main(["plan", "--map", str(p), "--alg", "saturation",
                     "--start", "0,0", "--goal", "0,3"])
        assert code == 2
        assert "--tau" in capsys.readouterr().err

    def test_bad_cell_spec_is_usage_error(self, tmp_path, capsys):
        p = make_map(tmp_path)
        code = main(["plan", "--map", str(p), "--alg", "shortest",
                     "--start", "nowhere", "--goal", "0,0"])
        assert code == 2

    def test_saturation_plans(self, tmp_path, capsys):
        p = make_map(tmp_path)
        code = main(["plan", "--map", str(p), "--alg", "saturation",
                     "--tau", "5", "--start", "0,0", "--goal", "11,11"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["params"]["tau"] == 5


# non-default parameters per planner, as CLI flags and as keyword arguments
PLAN_PARAMS = {
    "shortest": ([], {}),
    "ess": ([], {}),
    "binary": (["--m", "0.002"], {"m": 0.002}),
    "saturation": (["--tau", "3", "--p-success", "0.9"], {"tau": 3, "p_success": 0.9}),
    "exact": (["--budget", "4000"], {"node_budget": 4000}),
}


GRID_FLAGS = [["--d", "5"], ["--max-step", "2"], ["--connectivity", "8"],
              ["--cache-dir", "cache"], ["--no-cache"]]
FIXTURE_RUNS = {"plan": ["plan", "--fixture", "--alg", "shortest", "--start", "F", "--goal", "H"],
                "corridor": ["corridor", "--fixture", "--path", "FCBADE"]}


class TestFixtureTakesNoGridFlag:
    @pytest.mark.parametrize("flag", GRID_FLAGS, ids=[f[0] for f in GRID_FLAGS])
    @pytest.mark.parametrize("command", FIXTURE_RUNS)
    def test_a_grid_flag_is_a_usage_error(self, capsys, command, flag):
        code = main(FIXTURE_RUNS[command] + flag)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --fixture takes no grid flag, got {flag[0]}\n"

    @pytest.mark.parametrize("command", FIXTURE_RUNS)
    def test_every_grid_flag_given_is_named(self, capsys, command):
        code = main(FIXTURE_RUNS[command] + [x for flag in GRID_FLAGS for x in flag])
        assert code == 2
        assert capsys.readouterr().err == ("error: --fixture takes no grid flag, got "
                                           "--d, --max-step, --connectivity, --cache-dir, "
                                           "--no-cache\n")

    @pytest.mark.parametrize("command", FIXTURE_RUNS)
    def test_the_fixture_runs_without_them(self, capsys, command):
        assert main(FIXTURE_RUNS[command]) == 0
        assert json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("command", ["plan", "corridor", "render"])
    def test_help_shows_each_grid_flag(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert all(flag[0] in out for flag in GRID_FLAGS)
        assert "(default 1)" in out and "(default 1.0)" in out and "(default 4)" in out


class TestPlanDispatch:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_cli_matches_direct_planner_call(self, tmp_path, capsys, alg):
        p = make_map(tmp_path, kind="hills", seed=5)
        flags, kwargs = PLAN_PARAMS[alg]
        code = main(["plan", "--map", str(p), "--alg", alg,
                     "--start", "0,0", "--goal", "11,9", *flags])
        got = json.loads(capsys.readouterr().out)
        elev, cell = load_heightmap(p)
        env = build_environment(elev, cell_size=cell, max_step=bench.DEFAULT_MAX_STEP)
        field = compute_exposure_field(env)
        res = getattr(search, f"plan_{alg}")(env, field, 0, env.index(11, 9), **kwargs)
        want = result_record(field, res)
        assert code == {"found": 0, "no_path": 3, "budget_exceeded": 4}[res.status]
        got.pop("runtime_s"), want.pop("runtime_s")
        assert got == want
        for key, value in kwargs.items():
            assert got["params"][key] == value

    def test_algorithm_names_agree(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        (alg,) = [a for a in sub.choices["plan"]._actions if a.dest == "alg"]
        assert tuple(alg.choices) == ALGORITHMS
        assert bench.ALGORITHMS == search.ALGORITHMS == ALGORITHMS
        accepted = config_from_mapping({"algorithms": ", ".join(ALGORITHMS)})
        assert accepted.algorithms == ExperimentConfig().algorithms == ALGORITHMS


class TestFieldCache:
    def test_cache_file_appears_and_is_reused(self, tmp_path, capsys):
        p = make_map(tmp_path)
        args = ["plan", "--map", str(p), "--alg", "shortest",
                "--start", "0,0", "--goal", "5,5"]
        assert main(args) == 0
        caches = list(tmp_path.glob("*.expf"))
        assert len(caches) == 1
        stamp = caches[0].read_bytes()
        out1 = capsys.readouterr().out
        assert main(args) == 0
        assert caches[0].read_bytes() == stamp
        assert json.loads(capsys.readouterr().out)["path"] == json.loads(out1)["path"]

    def test_truncated_cache_is_rebuilt(self, tmp_path, capsys):
        p = make_map(tmp_path)
        out = tmp_path / "img.pgm"
        assert main(["render", "--map", str(p), "--out", str(out)]) == 0
        (cache,) = tmp_path.glob("*.expf")
        good = cache.read_bytes()
        cache.write_bytes(good[:20])
        capsys.readouterr()
        assert main(["render", "--map", str(p), "--out", str(out)]) == 0
        assert "invalid field cache" in capsys.readouterr().err
        assert cache.read_bytes() == good
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            [cache.name, "img.pgm", "map.txt"])

    def test_unwritable_cache_dir_warns_and_plans(self, tmp_path, capsys):
        p = make_map(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, so no directory can sit under it")
        args = ["plan", "--map", str(p), "--alg", "shortest",
                "--start", "0,0", "--goal", "5,5"]
        assert main(args + ["--cache-dir", str(blocker / "sub")]) == 0
        out, err = capsys.readouterr()
        assert "warning: cannot write field cache" in err
        rec = json.loads(out)
        assert main(args + ["--no-cache"]) == 0
        assert rec["status"] == "found"
        assert rec["path"] == json.loads(capsys.readouterr().out)["path"]
        assert list(tmp_path.glob("**/*.expf")) == []

    def test_unreadable_cache_entry_warns_and_plans(self, tmp_path, capsys):
        p = make_map(tmp_path)
        entry = field_cache_path(p.read_bytes(), 1.0, tmp_path)
        entry.mkdir()
        assert main(["plan", "--map", str(p), "--alg", "shortest",
                     "--start", "0,0", "--goal", "5,5"]) == 0
        out, err = capsys.readouterr()
        assert "invalid field cache" in err and "cannot write field cache" in err
        assert json.loads(out)["status"] == "found"
        assert entry.is_dir()

    def test_no_cache_flag(self, tmp_path):
        p = make_map(tmp_path)
        assert main(["plan", "--map", str(p), "--alg", "shortest",
                     "--start", "0,0", "--goal", "1,1", "--no-cache"]) == 0
        assert list(tmp_path.glob("*.expf")) == []


class TestCorridor:
    def test_flat_map_corridor_covers_everything(self, tmp_path, capsys):
        p = tmp_path / "flat.txt"
        rows = "\n".join(" ".join(["0.0"] * 4) for _ in range(4))
        p.write_text(f"4 4 1.0\n{rows}\n")
        code = main(["corridor", "--map", str(p),
                     "--path", "0,0;0,1;0,2;0,3"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["corridor"] == list(range(16))
        assert rec["avg_width"] == 4.0

    def test_fixture_p2(self, capsys):
        code = main(["corridor", "--fixture", "--path", "FCBADE"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert len(rec["exposed"]) == 9

    def test_invalid_path_names_transition(self, tmp_path, capsys):
        p = make_map(tmp_path)
        code = main(["corridor", "--map", str(p), "--path", "0,0;5,5"])
        assert code == 2
        assert "step 0" in capsys.readouterr().err

    @pytest.mark.parametrize("source, path, message", [
        ("fixture", "123", "no region letters in path '123'"),
        ("map", ";;", "empty path"),
    ])
    def test_a_path_with_no_region_is_usage_error(self, tmp_path, capsys, source, path,
                                                  message):
        flags = ["--fixture"] if source == "fixture" else [
            "--map", str(make_map(tmp_path)), "--no-cache"]
        capsys.readouterr()
        assert main(["corridor", *flags, "--path", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_path_file(self, tmp_path, capsys):
        p = make_map(tmp_path)
        pf = tmp_path / "path.txt"
        pf.write_text("0,0\n0,1\n0,2\n")
        assert main(["corridor", "--map", str(p), "--path-file", str(pf)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["seed_path"] == [0, 1, 2]

    def test_requires_exactly_one_path_source(self, tmp_path, capsys):
        p = make_map(tmp_path)
        assert main(["corridor", "--map", str(p)]) == 2
        assert "--path" in capsys.readouterr().err

    def test_render_output(self, tmp_path):
        p = make_map(tmp_path)
        out = tmp_path / "cor.pgm"
        code = main(["corridor", "--map", str(p), "--path", "0,0;0,1",
                     "--render-out", str(out)])
        assert code == 0
        img = load_pgm(out)
        assert img.shape == (12, 12)
        assert img[0, 0] == 0  # path cell painted black

    def test_fixture_render_is_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "x.pgm"
        code = main(["corridor", "--fixture", "--path", "FCBADE",
                     "--render-out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out.exists()


class TestRender:
    def test_flat_is_black_and_deterministic(self, tmp_path):
        p = tmp_path / "flat.txt"
        rows = "\n".join(" ".join(["0.0"] * 4) for _ in range(4))
        p.write_text(f"4 4 1.0\n{rows}\n")
        out = tmp_path / "img.pgm"
        assert main(["render", "--map", str(p), "--out", str(out)]) == 0
        img = load_pgm(out)
        assert (img == 0).all()
        first = out.read_bytes()
        assert main(["render", "--map", str(p), "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_corridor_needs_path(self, tmp_path, capsys):
        p = make_map(tmp_path)
        code = main(["render", "--map", str(p), "--corridor",
                     "--out", str(tmp_path / "x.pgm")])
        assert code == 2
        assert "--path" in capsys.readouterr().err

    def test_path_and_corridor_overlay(self, tmp_path):
        p = make_map(tmp_path)
        out = tmp_path / "img.pgm"
        code = main(["render", "--map", str(p), "--path", "0,0;0,1;0,2",
                     "--corridor", "--out", str(out)])
        assert code == 0
        img = load_pgm(out)
        assert img[0, 0] == 0 and img[0, 1] == 0


class TestExperiment:
    def test_runs_tiny_protocol(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "maps = boxes\nsizes = 12\nseeds = 1\nqueries = 2\n"
            "algorithms = shortest, binary\n")
        out = tmp_path / "results"
        code = main(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        lines = (out / "records.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == "exposure-bench-records"
        assert len(lines) == 1 + 2 * 2
        assert (out / "summary.csv").exists()
        err = capsys.readouterr().err
        assert "boxes-12x12-seed1" in err

    def test_bad_config_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("maps = boxes\nvolume = 11\n")
        code = main(["experiment", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "volume" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [("max_step = -1", "max_step"),
                                           ("seeds = 1, 1", "seeds")])
    def test_config_error_is_raised_before_the_out_dir_is_made(self, tmp_path, capsys,
                                                              text, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"maps = boxes\nsizes = 10\nqueries = 1\n{text}\n")
        out = tmp_path / "r"
        code = main(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config key '{key}'")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["experiment", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 1


class TestStdoutDiscipline:
    def test_stdout_is_pure_json(self, tmp_path, capsys):
        p = make_map(tmp_path)
        capsys.readouterr()
        assert main(["plan", "--map", str(p), "--alg", "ess",
                     "--start", "0,0", "--goal", "0,5"]) == 0
        out = capsys.readouterr().out
        json.loads(out)  # the whole payload parses as one JSON document
