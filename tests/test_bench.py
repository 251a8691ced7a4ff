import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stealthpath import (DEFAULT_MAX_STEP, ExperimentConfig, FOUND,
                         OracleOverflowError, brute_force_min_exposure,
                         build_environment, component_labels,
                         compute_exposure_field, config_from_mapping,
                         gen_boxes, gen_hills, generate_map, lemma1_fixture,
                         obj_bin, optimality_gap, parse_config_text,
                         plan_exact, run_experiment, sample_query,
                         traversable, write_records_jsonl, write_summary_csv)
import stealthpath
from stealthpath import bench, search
from stealthpath.bench import BOX_HEIGHT, MIN_MAP_SIZE, ConfigError, load_records_jsonl

STUDIES = Path(__file__).resolve().parents[1] / "studies"

TINY = dict(kinds=("boxes",), sizes=(12,), seeds=(1,), queries=2,
            algorithms=("shortest", "ess", "binary", "saturation", "exact"),
            taus=(1, 3), cell_size=10.0)


def strip_timing(records):
    return [{k: v for k, v in r.items() if k not in ("runtime_s", "runtime_ratio")}
            for r in records]


class TestGenerators:
    def test_deterministic(self):
        assert np.array_equal(gen_boxes(4, 20), gen_boxes(4, 20))
        assert np.array_equal(gen_hills(4, 20), gen_hills(4, 20))
        assert not np.array_equal(gen_boxes(4, 20), gen_boxes(5, 20))

    def test_boxes_structure(self):
        elev = gen_boxes(1, 30)
        assert elev.shape == (30, 30)
        assert set(np.unique(elev)) == {0.0, BOX_HEIGHT}
        # boxes never touch the border
        assert elev[0].sum() == 0 and elev[-1].sum() == 0
        assert elev[:, 0].sum() == 0 and elev[:, -1].sum() == 0

    def test_box_walls_block_movement(self):
        elev = gen_boxes(2, 20)
        env = build_environment(elev, max_step=DEFAULT_MAX_STEP)
        walls = 0
        for r, c in zip(*np.nonzero(elev)):
            i = env.index(int(r), int(c))
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                j = env.index(int(r) + dr, int(c) + dc)
                if elev[divmod(j, env.width)] == 0.0:
                    assert not traversable(env, i, j)
                    walls += 1
        assert walls > 0

    def test_boxes_occlude(self):
        elev = gen_boxes(1, 15)
        env = build_environment(elev, cell_size=10.0)
        field = compute_exposure_field(env)
        assert field.min_score() < 1.0

    def test_hills_fully_traversable(self):
        elev = gen_hills(1, 50)
        steps = max(np.abs(np.diff(elev, axis=0)).max(),
                    np.abs(np.diff(elev, axis=1)).max())
        assert steps <= 0.9 + 1e-12
        env = build_environment(elev, max_step=DEFAULT_MAX_STEP)
        assert (component_labels(env) == 0).all()

    def test_size_validation(self):
        with pytest.raises(ValueError, match="size"):
            gen_boxes(1, 9)
        with pytest.raises(ValueError, match="size"):
            gen_hills(1, 5)
        with pytest.raises(ValueError, match="kind"):
            generate_map("swamp", 1, 20)


class TestFixture:
    def test_field_is_well_formed(self):
        fx = lemma1_fixture()
        fx.field.validate()
        assert fx.graph.n == 13

    def test_proof_counts(self):
        fx = lemma1_fixture()
        p1 = [fx.index(c) for c in "FJIEDH"]
        assert obj_bin(fx.field, p1) == 12
        assert obj_bin(fx.field, p1[:4]) == 11
        assert obj_bin(fx.field, p1[3:]) == 10
        assert obj_bin(fx.field, [fx.index(c) for c in "FCBADE"]) == 9

    def test_unreachable_watchers_exist(self):
        # some regions see the world but cannot be walked to
        fx = lemma1_fixture()
        labels = component_labels(fx.graph)
        for name in "GKLM":
            assert not fx.graph.neighbors(fx.index(name))
            assert labels[fx.index(name)] != labels[fx.index("F")]

    def test_name_round_trip(self):
        fx = lemma1_fixture()
        assert fx.index("a") == 0
        assert fx.path_names([0, 3, 7]) == "ADH"
        with pytest.raises(ValueError, match="region name"):
            fx.index("Z")


class TestBruteForce:
    def test_start_equals_goal(self):
        fx = lemma1_fixture()
        s = fx.index("F")
        assert brute_force_min_exposure(fx.graph, fx.field, s, s) == 4

    def test_fixture_optima(self):
        fx = lemma1_fixture()
        assert brute_force_min_exposure(fx.graph, fx.field,
                                        fx.index("F"), fx.index("H")) == 12
        assert brute_force_min_exposure(fx.graph, fx.field,
                                        fx.index("F"), fx.index("E")) == 9

    def test_overflow_is_loud(self):
        fx = lemma1_fixture()
        with pytest.raises(OracleOverflowError):
            brute_force_min_exposure(fx.graph, fx.field, fx.index("F"),
                                     fx.index("H"), step_limit=3)

    def test_disconnected_returns_none(self):
        fx = lemma1_fixture()
        assert brute_force_min_exposure(fx.graph, fx.field,
                                        fx.index("F"), fx.index("G")) is None

    def test_agrees_with_exact_planner(self):
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            elev = rng.uniform(0.0, 3.0, (4, 4))
            env = build_environment(elev, cell_size=2.0, max_step=1.0)
            field = compute_exposure_field(env)
            labels = component_labels(env)
            s, g = sample_query(env, rng, labels)
            res = plan_exact(env, field, s, g)
            assert res.status == FOUND
            assert res.cost == brute_force_min_exposure(env, field, s, g)
            hits += 1
        assert hits == 30


class TestOptimalityGap:
    def test_arithmetic(self):
        assert optimality_gap(120, 100, 2500) == pytest.approx(0.8)
        assert optimality_gap(9, 9, 13) == 0.0
        with pytest.raises(ValueError):
            optimality_gap(1, 1, 0)


class _BoundedRng:
    """A Generator that fails the test after `draws` draws instead of
    letting a sampling loop that never ends hang the suite."""

    def __init__(self, rng, draws):
        self._rng = rng
        self._left = draws

    def integers(self, *args, **kwargs):
        self._left -= 1
        if self._left < 0:
            raise AssertionError("sampler kept drawing without finding a pair")
        return self._rng.integers(*args, **kwargs)


class TestQuerySampling:
    def test_pairs_are_connected_and_distinct(self, boxes12):
        env, _ = boxes12
        labels = component_labels(env)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, g = sample_query(env, rng, labels)
            assert s != g
            assert labels[s] == labels[g]
            assert env.neighbors(s)

    def test_raises_when_no_region_can_move(self):
        # 5 m between neighbours, 1 m climbable: every region is isolated
        ramp = 5.0 * np.add.outer(np.arange(10), np.arange(10))
        env = build_environment(ramp, cell_size=10.0, max_step=1.0)
        rng = _BoundedRng(np.random.default_rng(0), draws=10_000)
        with pytest.raises(ValueError, match="traversable neighbour"):
            sample_query(env, rng)

    def test_deterministic(self, boxes12):
        env, _ = boxes12
        a = [sample_query(env, np.random.default_rng(1)) for _ in range(5)]
        b = [sample_query(env, np.random.default_rng(1)) for _ in range(5)]
        assert a == b


class TestRunExperiment:
    def test_record_completeness(self):
        cfg = ExperimentConfig(**TINY)
        records = run_experiment(cfg)
        # 2 queries x (4 single cells + 2 saturation taus)
        assert len(records) == 2 * 6
        assert {r["algorithm"] for r in records} == set(TINY["algorithms"])
        sat = [r for r in records if r["algorithm"] == "saturation"]
        assert sorted({r["tau"] for r in sat}) == [1, 3]
        for rec in records:
            assert rec["runtime_ratio"] > 0
            if rec["optimality_gap"] is not None:
                assert rec["optimality_gap"] >= 0.0

    def test_zero_queries(self):
        cfg = ExperimentConfig(**{**TINY, "queries": 0})
        assert run_experiment(cfg) == []

    def test_deterministic_modulo_timing(self):
        cfg = ExperimentConfig(**TINY)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert strip_timing(a) == strip_timing(b)

    def test_budget_failures_recorded_not_raised(self):
        cfg = ExperimentConfig(**{**TINY, "node_budget": 1, "queries": 1})
        records = run_experiment(cfg)
        exact = [r for r in records if r["algorithm"] == "exact"]
        assert exact[0]["status"] == "budget_exceeded"
        assert exact[0]["obj_bin"] is None
        assert all(r["optimality_gap"] is None for r in records)

    def test_config_parameters_reach_the_planners(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(search, name)

            def wrapped(*args):
                calls.append((name, args[4:]))
                return real(*args)
            return wrapped

        for name in ("plan_saturation", "plan_exact"):
            monkeypatch.setattr(search, name, spy(name))
        cfg = ExperimentConfig(**{**TINY, "queries": 1, "p_success": 0.8,
                                  "node_budget": 777})
        records = run_experiment(cfg)
        assert sorted(calls) == [("plan_exact", (777,)),
                                 ("plan_saturation", (1, 0.8)),
                                 ("plan_saturation", (3, 0.8))]
        sat = [r for r in records if r["algorithm"] == "saturation"]
        assert [r["p_success"] for r in sat] == [0.8, 0.8]

    def test_a_failing_cell_is_recorded_and_the_others_run(self, monkeypatch):
        cfg = ExperimentConfig(**{**TINY, "queries": 1})
        clean = run_experiment(cfg)
        real = bench.plan

        def plan(alg, *args, **kwargs):
            if alg == "binary":
                raise RuntimeError("boom")
            return real(alg, *args, **kwargs)

        monkeypatch.setattr(bench, "plan", plan)
        records = run_experiment(cfg)
        [failed] = [r for r in records if r["algorithm"] == "binary"]
        assert (failed["status"], failed["error"], failed["expansions"]) == (
            "error", "RuntimeError: boom", 0)
        for key in ("runtime_s", "runtime_ratio", "path_len", "obj_bin", "obj_acc",
                    "optimality_gap", "avg_width"):
            assert failed[key] is None, key
        others = [r for r in records if r["algorithm"] != "binary"]
        assert strip_timing(others) == strip_timing(
            [r for r in clean if r["algorithm"] != "binary"])
        assert len(others) == len(clean) - 1

    def test_parallel_pool_matches_sequential(self):
        base = dict(TINY, seeds=(1, 2), queries=1, timing=False,
                    algorithms=("shortest", "binary"))
        seq = run_experiment(ExperimentConfig(**base))
        par = run_experiment(ExperimentConfig(**{**base, "workers": 2}))
        assert strip_timing(seq) == strip_timing(par)

    def test_progress_names_every_map_without_queries(self):
        # with no queries a map yields no record to take its name from
        cfg = ExperimentConfig(**{**TINY, "sizes": (12, 14), "seeds": (1, 2), "queries": 0,
                                  "algorithms": ("shortest",), "taus": ()})
        seen = []
        assert run_experiment(cfg, progress=lambda *call: seen.append(call)) == []
        assert seen == [("boxes-12x12-seed1", 1, 4), ("boxes-12x12-seed2", 2, 4),
                        ("boxes-14x14-seed1", 3, 4), ("boxes-14x14-seed2", 4, 4)]

    def test_gap_is_relative_to_exact(self):
        cfg = ExperimentConfig(**{**TINY, "queries": 3})
        records = run_experiment(cfg)
        by_query = {}
        for r in records:
            by_query.setdefault(r["query"], {})[
                (r["algorithm"], r["tau"])] = r
        for cells in by_query.values():
            exact = cells[("exact", None)]
            if exact["status"] != "found":
                continue
            assert exact["optimality_gap"] == 0.0
            for rec in cells.values():
                if rec["obj_bin"] is not None:
                    expect = optimality_gap(rec["obj_bin"], exact["obj_bin"], 144)
                    assert rec["optimality_gap"] == pytest.approx(expect)


class TestRecordIO:
    def test_jsonl_round_trip(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY, "queries": 1})
        records = run_experiment(cfg)
        out = tmp_path / "records.jsonl"
        write_records_jsonl(out, records, cfg)
        header, loaded = load_records_jsonl(out)
        assert header["schema"] == "exposure-bench-records"
        assert header["version"] == 1
        assert header["config"]["queries"] == 1
        assert loaded == json.loads(json.dumps(records))

    def test_load_rejects_an_empty_file_and_another_schema(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ValueError, match="missing header line$"):
            load_records_jsonl(empty)
        other = tmp_path / "other.jsonl"
        other.write_text(json.dumps({"schema": "something-else", "version": 1}) + "\n")
        with pytest.raises(ValueError, match="unexpected schema 'something-else'$"):
            load_records_jsonl(other)

    def test_zero_query_files(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY, "queries": 0})
        records = run_experiment(cfg)
        write_records_jsonl(tmp_path / "r.jsonl", records, cfg)
        write_summary_csv(tmp_path / "s.csv", records)
        assert len((tmp_path / "r.jsonl").read_text().splitlines()) == 1
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 1

    def test_summary_groups(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY, "queries": 2})
        records = run_experiment(cfg)
        out = tmp_path / "summary.csv"
        write_summary_csv(out, records)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kind,algorithm,tau,cells,found")
        # 4 single-parameter algorithms + 2 saturation tau groups
        assert len(lines) == 1 + 6


class TestConfigParsing:
    def test_text_round_trip(self):
        text = """
        # comment
        maps = boxes, hills
        sizes = 20
        queries = 5   # inline comment
        taus = 1, 2, 3
        p_success = 0.9
        timing = off
        """
        cfg = config_from_mapping(parse_config_text(text))
        assert cfg.kinds == ("boxes", "hills")
        assert cfg.sizes == (20,)
        assert cfg.queries == 5
        assert cfg.taus == (1, 2, 3)
        assert cfg.p_success == 0.9
        assert cfg.timing is False

    def test_parse_errors_name_the_problem(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("nonsense line")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("sizes = 20\nsizes = 30")
        with pytest.raises(ConfigError, match="'volume'"):
            config_from_mapping({"volume": "11"})
        with pytest.raises(ConfigError, match="'queries'"):
            config_from_mapping({"queries": "lots"})
        with pytest.raises(ConfigError, match="'maps'"):
            config_from_mapping({"maps": "swamp"})
        with pytest.raises(ConfigError, match="'algorithms'"):
            config_from_mapping({"algorithms": "dijkstra"})
        with pytest.raises(ConfigError, match="'p_success'"):
            config_from_mapping({"p_success": "1.5"})
        with pytest.raises(ConfigError, match="'taus'"):
            config_from_mapping({"taus": "0, 1"})
        # each is caught before the first map is built
        with pytest.raises(ConfigError, match="'sizes'.*at least 10"):
            config_from_mapping({"sizes": "12, 5"})
        with pytest.raises(ConfigError, match="'budget'"):
            config_from_mapping({"budget": "0"})
        with pytest.raises(ConfigError, match="'seeds'"):
            config_from_mapping({"seeds": "1, -2"})
        with pytest.raises(ConfigError, match="'query_seed'"):
            config_from_mapping({"query_seed": "-1"})
        for key, value in (("cell_size", "-1"), ("cell_size", "0"), ("cell_size", "inf"),
                           ("max_step", "-1"), ("max_step", "nan"),
                           ("d", "-2"), ("d", "inf"), ("d", "nan")):
            with pytest.raises(ConfigError, match=f"'{key}'"):
                config_from_mapping({key: value})
        # an unbounded climb and a sensor on the ground are valid worlds
        assert config_from_mapping({"max_step": "inf", "d": "0"}).max_step == math.inf
        # an empty list would drop cells or whole runs without a word
        with pytest.raises(ConfigError, match="'taus'.*saturation"):
            config_from_mapping({"taus": "", "algorithms": "shortest, saturation"})
        for key in ("algorithms", "maps", "sizes", "seeds"):
            with pytest.raises(ConfigError, match=f"'{key}'"):
                config_from_mapping({key: ""})
        for workers in ("0", "-3"):
            with pytest.raises(ConfigError, match="'workers'"):
                config_from_mapping({"workers": workers})
        # taus may stay empty when no saturation cell needs one
        assert config_from_mapping({"taus": "", "algorithms": "shortest"}).taus == ()
        # timed runs stay sequential, so several workers need timing off
        for mapping in ({"workers": "2", "timing": "on"}, {"workers": "3"}):
            with pytest.raises(ConfigError, match="'workers'.*timing"):
                config_from_mapping(mapping)
        for timing in ("on", "off"):
            assert config_from_mapping({"workers": "1", "timing": timing}).workers == 1
        assert config_from_mapping({"workers": "2", "timing": "off"}).workers == 2
        # a key named apart from its field does not answer to the field's name
        for key in ("kinds", "node_budget"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                config_from_mapping({key: "1"})

    @pytest.mark.parametrize("kwargs, match", [
        ({"workers": 2}, "'workers'.*timing"),
        ({"workers": 0}, "'workers'"),
        ({"sizes": (5,)}, "'sizes'.*at least 10"),
        ({"sizes": ()}, "'sizes'"),
        ({"kinds": ("swamp",)}, "'maps'"),
        ({"kinds": ()}, "'maps'"),
        ({"algorithms": ("dijkstra",)}, "'algorithms'"),
        ({"taus": (0, 1)}, "'taus'"),
        ({"taus": (), "algorithms": ("shortest", "saturation")}, "'taus'.*saturation"),
        ({"p_success": 1.5}, "'p_success'"),
        ({"node_budget": 0}, "'budget'"),
        ({"seeds": (1, -2)}, "'seeds'"),
        ({"queries": -1}, "'queries'"),
        ({"query_seed": -1}, "'query_seed'"),
        ({"cell_size": math.inf}, "'cell_size'"),
        ({"max_step": math.nan}, "'max_step'"),
        ({"d": -2.0}, "'d'"),
        ({"sizes": (10.5,)}, "'sizes'.*integers"),
        ({"queries": 2.5}, "'queries'.*integer"),
        ({"seeds": (1.5,)}, "'seeds'.*integers"),
        ({"query_seed": 0.5}, "'query_seed'.*integer"),
        ({"node_budget": 2.5}, "'budget'.*integer"),
        ({"node_budget": math.inf}, "'budget'.*integer"),
        ({"workers": 1.5, "timing": False}, "'workers'.*integer"),
    ])
    def test_a_config_built_in_python_is_checked_at_construction(self, kwargs, match):
        # the same checks as a config file gets, before any map is built
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("true", [True, np.bool_(True)], ids=["bool", "np.bool_"])
    @pytest.mark.parametrize("match, call", [
        ("tau", lambda world, b: search.plan_saturation(*world, 0, 1, tau=b)),
        ("node_budget", lambda world, b: plan_exact(*world, 0, 1, node_budget=b)),
        ("'workers'", lambda world, b: ExperimentConfig(workers=b)),
        ("'queries'", lambda world, b: ExperimentConfig(queries=b)),
        ("'taus'", lambda world, b: ExperimentConfig(taus=(b,))),
        ("'sizes'", lambda world, b: ExperimentConfig(sizes=(b,))),
        ("'seeds'", lambda world, b: ExperimentConfig(seeds=(b,))),
        ("'budget'", lambda world, b: ExperimentConfig(node_budget=b)),
        ("'query_seed'", lambda world, b: ExperimentConfig(query_seed=b)),
    ], ids=["tau", "node_budget", "workers", "queries", "taus", "sizes", "seeds",
            "config-budget", "query_seed"])
    def test_integer_parameters_reject_bools(self, flat5, match, call, true):
        # as a region does: True would otherwise run as 1
        with pytest.raises(ValueError, match=match):
            call(flat5, true)

    def test_importing_the_package_loads_no_process_pool(self):
        # run_experiment imports it only for workers > 1
        code = ("import sys, stealthpath; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        src = str(Path(stealthpath.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_every_key_parses_as_its_field(self):
        text = """
        maps = hills
        sizes = 10, 12
        seeds = 4
        queries = 7
        algorithms = exact, binary
        taus = 2
        p_success = 0.5
        budget = 99
        cell_size = 2.5
        max_step = 3
        d = 0
        query_seed = 8
        workers = 2
        timing = no
        """
        cfg = config_from_mapping(parse_config_text(text))
        assert cfg == ExperimentConfig(
            kinds=("hills",), sizes=(10, 12), seeds=(4,), queries=7,
            algorithms=("exact", "binary"), taus=(2,), p_success=0.5,
            node_budget=99, cell_size=2.5, max_step=3.0, d=0.0, query_seed=8,
            workers=2, timing=False)
        assert [type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)] == [
            tuple, tuple, tuple, int, tuple, tuple, float, int, float, float,
            float, int, int, bool]
        with pytest.raises(ConfigError, match="'timing'.*boolean"):
            config_from_mapping({"timing": "maybe"})

    @pytest.mark.parametrize("value, stored", [
        (True, True), (False, False), (np.bool_(True), True), (np.bool_(False), False),
        (1, True), (0, False), (np.int64(1), True),
        ("on", True), ("Yes", True), ("TRUE", True), ("1", True),
        ("off", False), ("No", False), ("False", False), ("0", False),
    ])
    def test_timing_is_stored_as_a_bool(self, value, stored):
        assert ExperimentConfig(timing=value, workers=1).timing is stored

    @pytest.mark.parametrize("value", ["maybe", 2, -1, 1.0, 0.5, None, "", "y"])
    def test_timing_rejects_a_non_boolean(self, value):
        with pytest.raises(ConfigError, match="^config key 'timing': .*boolean"):
            ExperimentConfig(timing=value)

    def test_timing_words_reach_its_rule(self):
        for text, stored in (("on", True), ("OFF", False), ("1", True), ("0", False)):
            assert config_from_mapping({"timing": text}).timing is stored
        # a word read as a number still gets the boolean rule's verdict
        for text in ("2", "1.0", "maybe"):
            with pytest.raises(ConfigError, match="^config key 'timing': .*boolean"):
                config_from_mapping({"timing": text})
        assert ExperimentConfig(timing="off").timing is False
        assert ExperimentConfig(timing="off", workers=2).workers == 2

    def test_a_whole_float_word_runs_as_its_int(self):
        cfg = config_from_mapping({"budget": "1e5", "sizes": "10.0", "queries": "2.0"})
        assert (cfg.node_budget, cfg.sizes, cfg.queries) == (100000, (10,), 2)
        assert [type(v) for v in (cfg.node_budget, cfg.sizes[0], cfg.queries)] == [int] * 3
        with pytest.raises(ConfigError, match="^config key 'taus': 1 is listed twice"):
            config_from_mapping({"taus": "1, 1.0"})
        with pytest.raises(ConfigError, match="^config key 'queries': queries must be an "
                                              "integer .*got 'lots'"):
            config_from_mapping({"queries": "lots"})
        # a list of names keeps its words; a word that spells a number is no name
        with pytest.raises(ConfigError, match="^config key 'maps': unknown kind '1'"):
            config_from_mapping({"maps": "boxes, 1"})

    def test_study_configs_parse(self):
        names = sorted(path.name for path in STUDIES.glob("*.cfg"))
        assert names == ["gap.cfg", "runtime-boxes.cfg", "runtime-hills.cfg",
                         "width-boxes.cfg", "width-hills.cfg"]
        studies = {name: config_from_mapping(parse_config_text((STUDIES / name).read_text()))
                   for name in names}
        # the two maps of a study differ in their kind and seed only
        for study in ("runtime", "width"):
            boxes, hills = studies[f"{study}-boxes.cfg"], studies[f"{study}-hills.cfg"]
            assert (boxes.kinds, boxes.seeds, hills.kinds, hills.seeds) == (
                ("boxes",), (7,), ("hills",), (11,))
            assert dataclasses.replace(boxes, kinds=hills.kinds, seeds=hills.seeds) == hills

    def test_gap_study_is_criterion_4(self):
        cfg = config_from_mapping(parse_config_text((STUDIES / "gap.cfg").read_text()))
        assert cfg.timing
        assert dataclasses.replace(cfg, timing=False) == ExperimentConfig(
            kinds=("boxes", "hills"), sizes=(20,), seeds=(1, 2, 3), queries=30,
            algorithms=("shortest", "ess", "binary", "exact"),
            node_budget=500_000, query_seed=0, timing=False)

    def test_size_floor_is_the_generators_floor(self):
        assert config_from_mapping({"sizes": str(MIN_MAP_SIZE)}).sizes == (MIN_MAP_SIZE,)
        for gen in (gen_boxes, gen_hills):
            with pytest.raises(ValueError, match="size"):
                gen(1, MIN_MAP_SIZE - 1)

    @pytest.mark.parametrize("key, text, entry", [
        ("maps", "boxes, hills, boxes", "'boxes'"),
        ("sizes", "10, 12, 10", "10"),
        ("seeds", "1, 1", "1"),
        ("algorithms", "shortest, shortest", "'shortest'"),
        ("taus", "1, 1", "1"),
    ])
    def test_a_repeated_entry_is_an_error(self, key, text, entry):
        # a repeated seed ran two query sets under one map id, and a repeated
        # algorithm or tau counted its cells twice in summary.csv
        with pytest.raises(ConfigError, match=f"^config key '{key}': {entry} is listed twice"):
            config_from_mapping({key: text})

    def test_entries_repeat_as_the_values_they_store(self):
        # 10.0 is stored as 10, so it repeats 10
        with pytest.raises(ConfigError, match="'sizes': 10 is listed twice"):
            ExperimentConfig(sizes=(10, 10.0))
        with pytest.raises(ConfigError, match="'seeds': 1 is listed twice"):
            ExperimentConfig(seeds=(np.int64(1), 1))
