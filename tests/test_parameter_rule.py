"""One rule per parameter, stated in the module whose code reads the value
(search._check_p, _check_tau and _check_m; terrain._integer, _check_cell_size,
_check_d and _check_max_step; bench._check_size), applied at every entry
point that takes the parameter. ExplicitGraph's region count n passes the
integer rule too.

Each rule takes a number, never a bool or a string, and returns it in the
type its code needs: an int for a count, size or seed (a whole float such as
5.0 included), a float for a length or a probability. A rejection is a
ValueError naming the parameter; ExperimentConfig raises it as a ConfigError
naming the config key.

The text front ends keep no rule of their own: a config word or CLI flag that
spells a number reaches the rule as that number, and any other word stays a
word (the config) or a usage error naming the flag (the CLI)."""

import math
import re

import numpy as np
import pytest

from stealthpath import (ExperimentConfig, ExplicitGraph, ExposureField, GridEnvironment,
                         bench, build_environment,
                         compute_exposure_field, config_from_mapping, gen_boxes, gen_hills,
                         generate_map, obj_acc, path_counts, plan, plan_binary, plan_exact,
                         plan_saturation, run_experiment)
from stealthpath.bench import ConfigError
from stealthpath.cli import main
from stealthpath.mapio import format_heightmap
from stealthpath.search import binary_step_cost, saturation_step_cost, score_path


def values(k):
    """The table's values for a parameter whose whole test value is k."""
    return {"True": True, "np.bool_": np.bool_(True), "np.int64": np.int64(k),
            "float": float(k), "half": k + 0.5, "nan": math.nan, "inf": math.inf,
            "-1": -1, "None": None, "str": "1"}


# parameter -> (k, the values the rule accepts, the name a rejection gives,
# the config field and key, the type the config stores, the CLI flag); m and
# connectivity are no config keys, and the experiment's counts no flags
PARAMETERS = {
    "p_success": (0, {"half"}, "p_success", "p_success", "p_success", float, "--p-success"),
    "tau": (2, {"np.int64", "float"}, "tau", "taus", "taus", int, "--tau"),
    "node_budget": (5, {"np.int64", "float"}, "node_budget", "node_budget", "budget", int,
                    "--budget"),
    "cell_size": (1, {"np.int64", "float", "half"}, "cell_size", "cell_size", "cell_size",
                  float, "--cell-size"),
    "d": (1, {"np.int64", "float", "half"}, "sensor offset d", "d", "d", float, "--d"),
    "max_step": (1, {"np.int64", "float", "half", "inf"}, "max_step", "max_step",
                 "max_step", float, "--max-step"),
    "size": (10, {"np.int64", "float"}, "size", "sizes", "sizes", int, "--size"),
    "seeds": (1, {"np.int64", "float"}, "seed", "seeds", "seeds", int, "--seed"),
    "queries": (1, {"np.int64", "float"}, "queries", "queries", "queries", int, None),
    "query_seed": (1, {"np.int64", "float"}, "query_seed", "query_seed", "query_seed", int,
                   None),
    "workers": (1, {"np.int64", "float"}, "workers", "workers", "workers", int, None),
    # on a one-region world, where m is in (0, 1)
    "m": (0, {"half"}, "m", None, None, float, "--m"),
    "connectivity": (4, {"np.int64", "float"}, "connectivity", None, None, int,
                     "--connectivity"),
    "n": (2, {"np.int64", "float"}, "n", None, None, int, None),
}
VALUES = sorted(values(0))
CONFIG_PARAMETERS = [param for param, row in PARAMETERS.items() if row[3] is not None]
FLAG_PARAMETERS = [param for param, row in PARAMETERS.items() if row[6] is not None]

# (parameter, entry) -> the value that means its default there, accepted
DEFAULTS = {("m", "plan"): "None", ("m", "plan_binary"): "None"}


def entry_points(param, env, field):
    """name -> call with the parameter's value v, for every entry point other
    than ExperimentConfig that takes it."""
    elev = np.zeros((3, 3))
    table = {
        "p_success": {
            "plan": lambda v: plan("saturation", env, field, 0, 6, tau=2, p_success=v),
            "plan_saturation": lambda v: plan_saturation(env, field, 0, 6, 2, v),
            "obj_acc": lambda v: obj_acc([0, 1], v, 2),
            "score_path": lambda v: score_path(field, [0, 1], 2, v),
            "saturation_step_cost": lambda v: saturation_step_cost(field, np.zeros(env.n, int),
                                                                   1, 2, v),
        },
        "tau": {
            "plan": lambda v: plan("saturation", env, field, 0, 6, tau=v),
            "plan_saturation": lambda v: plan_saturation(env, field, 0, 6, v),
            "path_counts": lambda v: path_counts(field, [0, 1], v),
            "obj_acc": lambda v: obj_acc([0, 1], 0.9, v),
            # score_path is left out here: its tau of None means 1
            "saturation_step_cost": lambda v: saturation_step_cost(field, np.zeros(env.n, int),
                                                                   1, v, 0.9),
        },
        "node_budget": {
            "plan": lambda v: plan("exact", env, field, 0, 6, node_budget=v),
            "plan_exact": lambda v: plan_exact(env, field, 0, 6, v),
        },
        "cell_size": {
            "build_environment": lambda v: build_environment(elev, cell_size=v),
            "GridEnvironment": lambda v: GridEnvironment(elev, cell_size=v),
            "format_heightmap": lambda v: format_heightmap(elev, v),
        },
        "d": {
            "build_environment": lambda v: build_environment(elev, d=v),
            "GridEnvironment": lambda v: GridEnvironment(elev, d=v),
        },
        "max_step": {
            "build_environment": lambda v: build_environment(elev, max_step=v),
            "GridEnvironment": lambda v: GridEnvironment(elev, max_step=v),
        },
        "size": {
            "gen_boxes": lambda v: gen_boxes(1, v),
            "gen_hills": lambda v: gen_hills(1, v),
            "generate_map-boxes": lambda v: generate_map("boxes", 1, v),
            "generate_map-hills": lambda v: generate_map("hills", 1, v),
        },
        "seeds": {
            "gen_boxes": lambda v: gen_boxes(v, 10),
            "gen_hills": lambda v: gen_hills(v, 10),
            "generate_map-boxes": lambda v: generate_map("boxes", v, 10),
            "generate_map-hills": lambda v: generate_map("hills", v, 10),
        },
        "m": {
            "plan": lambda v: plan("binary", *one_region(), 0, 0, m=v),
            "plan_binary": lambda v: plan_binary(*one_region(), 0, 0, v),
            "binary_step_cost": lambda v: binary_step_cost(one_region()[1], 0, 0, v),
        },
        "connectivity": {
            "build_environment": lambda v: build_environment(elev, connectivity=v),
            "GridEnvironment": lambda v: GridEnvironment(elev, connectivity=v),
        },
        "n": {"ExplicitGraph": lambda v: ExplicitGraph(v, [])},
    }
    return table.get(param, {})


def one_region():
    env = GridEnvironment([[0.0]])
    return env, compute_exposure_field(env)


ENTRIES = [(param, name) for param in PARAMETERS
           for name in sorted(entry_points(param, None, None))]


def _config(param, v):
    """An ExperimentConfig of one 10x10 map and one query, with v in the
    parameter's field (a one-entry tuple for a tuple field)."""
    name = PARAMETERS[param][3]
    kwargs = {"kinds": ("boxes",), "sizes": (10,), "seeds": (1,), "queries": 1,
              "algorithms": ("shortest", "binary"), "timing": False}
    if param in ("tau", "p_success"):
        kwargs.update(algorithms=("shortest", "saturation"), taus=(2,))
    if param == "node_budget":
        kwargs["algorithms"] = ("shortest", "exact")
    kwargs[name] = (v,) if isinstance(kwargs.get(name), tuple) else v
    return ExperimentConfig(**kwargs)


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("param, entry", ENTRIES, ids=["-".join(e) for e in ENTRIES])
def test_entry_points_give_one_verdict(flat5, param, entry, value):
    k, accepted, named = PARAMETERS[param][:3]
    call = entry_points(param, *flat5)[entry]
    v = values(k)[value]
    if value in accepted or DEFAULTS.get((param, entry)) == value:
        call(v)
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} must "):
            call(v)


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("param", CONFIG_PARAMETERS)
def test_the_config_gives_the_same_verdict(param, value):
    k, accepted, _, name, key, kind = PARAMETERS[param][:6]
    v = values(k)[value]
    if value not in accepted:
        with pytest.raises(ConfigError, match=rf"^config key '{key}': "):
            _config(param, v)
        return
    cfg = _config(param, v)
    stored = getattr(cfg, name)
    stored = stored[0] if isinstance(stored, tuple) else stored
    assert type(stored) is kind and stored == v
    # the value as stored runs: one 10x10 map, one query, every cell done
    records = run_experiment(cfg)
    assert records and all(rec["status"] != "error" for rec in records)


@pytest.mark.parametrize("value", ["np.int64", "float"])
def test_connectivity_is_stored_as_an_int(value):
    env = GridEnvironment(np.zeros((2, 2)), connectivity=values(8)[value])
    assert type(env.connectivity) is int and env.connectivity == 8


def test_m_is_read_as_a_float():
    env, field = one_region()
    assert type(plan_binary(env, field, 0, 0, np.float32(0.5)).params["m"]) is float
    assert binary_step_cost(field, 0, 0, np.float32(0.25)) == 1.25


def test_an_int_seed_draws_the_same_map():
    assert np.array_equal(gen_boxes(np.int64(3), 12), gen_boxes(3, 12))
    assert np.array_equal(gen_hills(3.0, 12), gen_hills(3, 12))


def test_a_whole_float_region_count_is_stored_as_an_int():
    graph = ExplicitGraph(2.0, [(0, 1)])
    assert type(graph.n) is int and graph.n == 2 and graph.adjacency == ((1,), (0,))


# values past a rule's bound, per parameter and not in the shared VALUES
# table: there, 10**400 would make queries loop. Each passed its rule and
# overflowed later (tau, cell_size 1e308), failed late inside numpy (size,
# whose map would not fit in memory), or made the rule's own float() raise
# OverflowError (10**400 as a length).
PAST_THE_BOUND = {
    "tau": (2**31, 10**22, 10**400),
    "cell_size": (1e308, 10**400),
    "d": (10**400,),
    "max_step": (10**400,),
    "size": (201, 10**22, 10**400),
}
PAST_ENTRIES = [(param, name, v) for param, vs in PAST_THE_BOUND.items()
                for name in sorted(entry_points(param, None, None)) for v in vs]


def _label(v):
    return f"10**{len(str(v)) - 1}" if isinstance(v, int) and v > 10**12 else repr(v)


@pytest.mark.parametrize("param, entry, v", PAST_ENTRIES,
                         ids=[f"{p}-{e}-{_label(v)}" for p, e, v in PAST_ENTRIES])
def test_a_value_past_the_bound_is_rejected(flat5, param, entry, v):
    named = PARAMETERS[param][2]
    with pytest.raises(ValueError, match=rf"^{re.escape(named)} must "):
        entry_points(param, *flat5)[entry](v)


@pytest.mark.parametrize("param, v", [(p, v) for p, vs in PAST_THE_BOUND.items() for v in vs],
                         ids=[f"{p}-{_label(v)}" for p, vs in PAST_THE_BOUND.items() for v in vs])
def test_the_config_rejects_a_value_past_the_bound(param, v):
    with pytest.raises(ConfigError, match=rf"^config key '{PARAMETERS[param][4]}': "):
        _config(param, v)


def test_tau_at_its_bound_runs_everywhere(flat5):
    tau = 2**31 - 1
    for call in entry_points("tau", *flat5).values():
        call(tau)
    assert score_path(flat5[1], [0, 1], tau)[1] > 0
    assert ExperimentConfig(taus=(tau,)).taus == (tau,)


def test_the_largest_cell_size_keeps_every_coordinate_finite():
    env = GridEnvironment([[0.0, 0.0, 0.0]], cell_size=1e150)
    assert np.isfinite(env.points).all() and math.isfinite(env.manhattan3(0, 2))


@pytest.mark.parametrize("counts", [np.array([0]), [-1, 0, 0], np.zeros(3), np.zeros((1, 3), int)],
                         ids=["short", "negative", "float", "2D"])
def test_saturation_step_cost_checks_its_counts(counts):
    field = ExposureField([0b011, 0b111, 0b110])
    with pytest.raises(ValueError, match="^counts must be 3 non-negative integers"):
        saturation_step_cost(field, counts, 1, 2, 0.9)


# config words and flag values, with k the parameter's whole test value
WORDS = ["k", "k.0", "k.5", "1e5", "-1", "nan", "inf", str(10**22), "abc"]


def _spell(k, word):
    return word.replace("k", str(k), 1) if word.startswith("k") else word


def _spelled(text):
    """The number a word spells (int() first, then float()), else the word."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("word", WORDS)
@pytest.mark.parametrize("param", CONFIG_PARAMETERS)
def test_a_config_word_gets_the_verdict_of_the_number_it_spells(param, word):
    k, _, _, name, key = PARAMETERS[param][:5]
    text = _spell(k, word)
    v = _spelled(text)
    try:
        expected = ExperimentConfig(**{name: (v,) if name in ("sizes", "seeds", "taus") else v})
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            config_from_mapping({key: text})
    else:
        # repr tells 5 from 5.0: the same values, stored as the same types
        assert repr(config_from_mapping({key: text})) == repr(expected)


def _accepted(param, v, flat5):
    """The rule's verdict on v, asked of the parameter's first library entry
    point; for size, of its rule, since a generator would build the map."""
    call = bench._check_size if param == "size" else next(
        iter(entry_points(param, *flat5).values()))
    try:
        call(v)
    except ValueError:
        return False
    return True


def _cli_args(param, value, tmp_path):
    """A command that reads the parameter's flag, with the flag set to value.
    A map or field flag runs on a one-cell map, where m is in (0, 1)."""
    flag = PARAMETERS[param][6]
    if param in ("cell_size", "size", "seeds"):
        args = {"--seed": "1", "--size": "10", flag: value}
        return ["gen", "boxes", *(x for item in args.items() for x in item),
                "--out", str(tmp_path / "gen.txt")]
    if param in ("p_success", "tau", "node_budget"):
        alg = "exact" if param == "node_budget" else "saturation"
        tau = [] if param != "p_success" else ["--tau", "2"]
        return ["plan", "--fixture", "--alg", alg, "--start", "F", "--goal", "H", *tau,
                flag, value]
    one = tmp_path / "one.txt"
    one.write_text("1 1 1.0\n0.0\n")
    alg = "binary" if param == "m" else "shortest"
    return ["plan", "--map", str(one), "--no-cache", "--alg", alg, "--start", "0,0",
            "--goal", "0,0", flag, value]


@pytest.mark.parametrize("word", WORDS)
@pytest.mark.parametrize("param", FLAG_PARAMETERS)
def test_a_flag_gets_the_verdict_of_the_number_it_spells(param, word, flat5, tmp_path,
                                                          capsys):
    k, flag = PARAMETERS[param][0], PARAMETERS[param][6]
    text = _spell(k, word)
    v = _spelled(text)
    args = _cli_args(param, text, tmp_path)
    if isinstance(v, str):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        return
    code = main(args)
    err = capsys.readouterr().err
    if _accepted(param, v, flat5):
        assert code in (0, 4), err  # 4: a small budget ran out
    else:
        assert code == 2 and err.startswith("error: "), err
