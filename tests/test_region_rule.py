"""The one rule for a region a caller hands in (terrain.region_id, and
terrain.path_ids for a path), applied at every entry point that takes one.

A region is an int or a numpy integer, never a bool or a float, in [0, n).
Callers' entry points raise ValueError naming the position they reject; the
accessors raise IndexError out of range, as a sequence does. A grid cell's
row and col (GridEnvironment.index) take the same types."""

import re

import numpy as np
import pytest

from stealthpath import (ALGORITHMS, ExplicitGraph, brute_force_min_exposure,
                         build_corridor, line_of_sight, obj_bin, path_counts, plan,
                         traversable, validate_path)
from stealthpath.corridor import exposed_set
from stealthpath.render import compose, exposure_image, overlay_path
from stealthpath.search import binary_step_cost, saturation_step_cost, score_path

BAD = [True, np.bool_(True), 1.0, 1.5, None, -1, "n"]  # "n": the region count


def _plan(alg, env, field, s, g):
    res = plan(alg, env, field, s, g, tau=2)
    return res.start, res.goal, res.status, res.path, res.cost


def caller_entries(env, field):
    """name -> (call with region r at the tested position, that position).
    Building the table calls nothing, so its names can parametrize tests."""
    entries = {}
    for a in ALGORITHMS:
        entries[f"plan-{a}-start"] = (lambda r, a=a: _plan(a, env, field, r, 6), "start region")
        entries[f"plan-{a}-goal"] = (lambda r, a=a: _plan(a, env, field, 0, r), "goal region")
    entries.update({
        "validate_path": (lambda r: validate_path(env, [0, r]), "path[1]"),
        "path_counts": (lambda r: path_counts(field, [0, r], 2).tolist(), "path[1]"),
        "obj_bin": (lambda r: obj_bin(field, [0, r]), "path[1]"),
        "score_path": (lambda r: score_path(field, [0, r], 2), "path[1]"),
        "exposed_set": (lambda r: exposed_set(field, [0, r]), "path[1]"),
        "build_corridor": (lambda r: build_corridor(env, field, [0, r]).corridor, "path[1]"),
        "build_corridor-connected": (
            lambda r: build_corridor(env, field, [0, r], connected_only=True).corridor,
            "path[1]"),
        "overlay_path": (lambda r: overlay_path(exposure_image(env, field), env,
                                                [0, r]).tolist(), "path[1]"),
        "compose": (lambda r: compose(env, field, path=[0, r]).tolist(), "path[1]"),
        "brute_force-start": (lambda r: brute_force_min_exposure(env, field, r, 6),
                              "start region"),
        "brute_force-goal": (lambda r: brute_force_min_exposure(env, field, 0, r),
                             "goal region"),
        "traversable-from": (lambda r: traversable(env, r, 0), "from region"),
        "traversable-to": (lambda r: traversable(env, 0, r), "to region"),
        "ExplicitGraph-edge": (lambda r: ExplicitGraph(env.n, [(0, 5), (0, r)]).adjacency,
                               "edges[1][1]"),
        "binary_step_cost": (lambda r: binary_step_cost(field, 1, r, 0.01), "dest region"),
        "saturation_step_cost": (
            lambda r: saturation_step_cost(field, np.ones(env.n, int), r, 2, 0.9),
            "dest region"),
    })
    return entries


def accessors(env, field):
    """name -> call with region r; the accessors' position is "region"."""
    table = {
        "grid.neighbors": lambda r: env.neighbors(r),
        "graph.neighbors": lambda r: ExplicitGraph(env.n, [(0, 1)]).neighbors(r),
        "rowcol": lambda r: env.rowcol(r),
        "line_of_sight-a": lambda r: line_of_sight(env, r, 0),
        "line_of_sight-b": lambda r: line_of_sight(env, 0, r),
        "exposure_set": lambda r: field.exposure_set(r),
        "exposure_count": lambda r: field.exposure_count(r),
        "exposure_score": lambda r: field.exposure_score(r),
        "members": lambda r: field.members(r).tolist(),
    }
    # the distance heuristics, on the grid and on a graph with its points
    worlds = {"grid": lambda: env,
              "graph": lambda: ExplicitGraph(env.n, [(0, 1)], points=env.points)}
    for name, world in worlds.items():
        table.update({
            f"{name}.min_steps-a": lambda r, w=world: w().min_steps(r, 0),
            f"{name}.min_steps-b": lambda r, w=world: w().min_steps(0, r),
            f"{name}.min_steps_to": lambda r, w=world: w().min_steps_to(r).tolist(),
            f"{name}.manhattan3-a": lambda r, w=world: w().manhattan3(r, 0),
            f"{name}.manhattan3-b": lambda r, w=world: w().manhattan3(0, r),
            f"{name}.manhattan3_to": lambda r, w=world: w().manhattan3_to(r).tolist(),
        })
    return table


CALLERS = sorted(caller_entries(None, None))
ACCESSORS = sorted(accessors(None, None))


def _raises(position, bad, n, out_of_range=ValueError):
    """pytest.raises for what the rule gives bad at position."""
    if isinstance(bad, bool) or not isinstance(bad, int):
        return pytest.raises(ValueError,
                             match=re.escape(f"{position} must be an integer, got {bad!r}"))
    return pytest.raises(out_of_range, match=re.escape(
        f"{position} out of range: region {bad} outside [0, {n})"))


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", CALLERS)
def test_caller_entry_points_name_the_position(flat5, entry, bad):
    env, field = flat5
    call, position = caller_entries(env, field)[entry]
    bad = env.n if isinstance(bad, str) else bad
    with _raises(position, bad, env.n):
        call(bad)


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", ACCESSORS)
def test_accessors_keep_index_error_out_of_range(flat5, entry, bad):
    env, field = flat5
    bad = env.n if isinstance(bad, str) else bad
    with _raises("region", bad, env.n, IndexError):
        accessors(env, field)[entry](bad)


@pytest.mark.parametrize("entry", CALLERS + ACCESSORS)
def test_numpy_integers_are_regions(flat5, entry):
    env, field = flat5
    table = {name: call for name, (call, _) in caller_entries(env, field).items()}
    call = {**table, **accessors(env, field)}[entry]
    want = call(1)
    for kind in (np.int64, np.int32, np.uint8):
        assert call(kind(1)) == want


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("position", ["row", "col"])
def test_grid_index_checks_its_integers(flat5, position, bad):
    # a cell's row and col: the region rule's types, IndexError off the grid
    env, _ = flat5
    bad = env.height if isinstance(bad, str) else bad
    cell = {"row": 2, "col": 3, position: bad}
    if isinstance(bad, bool) or not isinstance(bad, int):
        error = pytest.raises(ValueError,
                              match=re.escape(f"{position} must be an integer, got {bad!r}"))
    else:
        error = pytest.raises(IndexError, match=re.escape(
            f"cell ({cell['row']}, {cell['col']}) outside 5x5 grid"))
    with error:
        env.index(**cell)


def test_grid_index_is_a_python_int(flat5):
    env, _ = flat5
    for kind in (int, np.int64, np.int32, np.uint8):
        region = env.index(kind(2), kind(3))
        assert region == 13 and type(region) is int


def test_an_empty_path_is_rejected(flat5):
    env, field = flat5
    image = exposure_image(env, field)
    for call in (lambda: validate_path(env, []), lambda: obj_bin(field, []),
                 lambda: path_counts(field, [], 2), lambda: build_corridor(env, field, []),
                 lambda: overlay_path(image, env, [])):
        with pytest.raises(ValueError, match="empty path"):
            call()
