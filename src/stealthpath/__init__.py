"""Terrain-aware path planning that minimizes line-of-sight exposure."""

from .terrain import (ExplicitGraph, ExposureField, GridEnvironment,
                      build_environment, compute_exposure_field,
                      line_of_sight, traversable)
from .search import (ALGORITHMS, BUDGET_EXCEEDED, DEFAULT_NODE_BUDGET,
                     DEFAULT_P_SUCCESS, FOUND, NO_PATH, PlanResult, obj_acc,
                     obj_bin, path_counts, plan, plan_binary, plan_ess,
                     plan_exact, plan_saturation, plan_shortest,
                     result_record, validate_path)
from .corridor import (Corridor, average_width, build_corridor, corridor,
                       corridor_record, exposed_set)
from .bench import (DEFAULT_CELL_SIZE, DEFAULT_MAX_STEP, ExperimentConfig,
                    FixtureGraph, MAP_KINDS, TAU_SWEEP, OracleOverflowError,
                    brute_force_min_exposure, component_labels,
                    config_from_mapping, gen_boxes, gen_hills, generate_map,
                    lemma1_fixture, optimality_gap, parse_config_text,
                    run_experiment, sample_query, write_records_jsonl,
                    write_summary_csv)
from .mapio import (field_cache_path, load_exposure_field, load_heightmap,
                    load_or_compute_field, parse_heightmap,
                    save_exposure_field, save_heightmap)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BUDGET_EXCEEDED", "Corridor", "DEFAULT_CELL_SIZE",
    "DEFAULT_MAX_STEP", "DEFAULT_NODE_BUDGET", "DEFAULT_P_SUCCESS",
    "ExperimentConfig", "ExplicitGraph", "ExposureField", "FOUND",
    "FixtureGraph", "GridEnvironment", "MAP_KINDS", "NO_PATH",
    "OracleOverflowError", "PlanResult", "TAU_SWEEP", "average_width",
    "brute_force_min_exposure", "build_corridor", "build_environment",
    "component_labels", "compute_exposure_field", "config_from_mapping",
    "corridor", "corridor_record", "exposed_set", "field_cache_path",
    "gen_boxes", "gen_hills", "generate_map", "lemma1_fixture",
    "line_of_sight", "load_exposure_field", "load_heightmap",
    "load_or_compute_field", "obj_acc", "obj_bin", "optimality_gap",
    "parse_config_text", "parse_heightmap", "path_counts", "plan",
    "plan_binary", "plan_ess", "plan_exact", "plan_saturation",
    "plan_shortest", "result_record", "run_experiment", "sample_query",
    "save_exposure_field", "save_heightmap", "traversable", "validate_path",
    "write_records_jsonl", "write_summary_csv",
]
