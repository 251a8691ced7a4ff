"""One rule each for the two data objects that cross the library boundary,
applied wherever a caller makes, reads or writes one.

A heightmap grid passes terrain._check_elevations: a non-empty 2D grid of
finite numbers (never bools, strings or complex numbers) of magnitude at
most 1e150. GridEnvironment,
build_environment, format_heightmap, save_heightmap and parse_heightmap all
apply it, so no writer produces a file its reader rejects.

An exposure relation passes ExposureField.validate: every row an int or a
numpy integer, non-negative with no bit at or past n, and the relation
reflexive and symmetric. ExposureField(rows), from_packed and
load_exposure_field all apply it, so save_exposure_field only ever writes a
field that loads back."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthpath import (ExposureField, GridEnvironment, build_environment,
                         compute_exposure_field, line_of_sight, load_exposure_field,
                         parse_heightmap, save_exposure_field, save_heightmap)
from stealthpath.mapio import EXPF_MAGIC, format_heightmap
from stealthpath.terrain import _check_elevations

# name -> (grid, its heightmap text or None when no text can spell it, the
# message a rejection matches)
BAD_GRIDS = {
    "nan": ([[math.nan, 1.0]], "2 1 1.0\nnan 1.0\n", "finite"),
    "inf": ([[math.inf]], "1 1 1.0\ninf\n", "finite"),
    "-inf": ([[0.0], [-math.inf]], "1 2 1.0\n0.0\n-inf\n", "finite"),
    "None": ([[None, 1.0]], "2 1 1.0\nNone 1.0\n", "finite|row 0"),
    "no columns": (np.zeros((2, 0)), "0 2 1.0\n\n\n", "2D|positive"),
    "no rows": ([], "1 0 1.0\n", "2D|positive"),
    "1D": ([1.0, 2.0], None, "2D"),
    "3D": (np.zeros((2, 2, 2)), None, "2D"),
    "ragged": ([[1.0, 2.0], [3.0]], "2 2 1.0\n1.0 2.0\n3.0\n", "2D|row 1"),
    "bool": ([[True, False]], "2 1 1.0\nTrue False\n", "2D grid of numbers|row 0"),
    "str": ([["1", "2"]], None, "2D grid of numbers"),
    "complex": (np.array([[1 + 2j]]), "1 1 1.0\n(1+2j)\n", "2D grid of numbers|row 0"),
    # finite, but past the bound that keeps every height and distance finite
    "huge": ([[1e308, 0.0]], "2 1 1.0\n1e+308 0.0\n", "finite, at most 1e150"),
    "overflowing range": ([[1.7e308, -1.7e308, 0.0]], "3 1 1.0\n1.7e+308 -1.7e+308 0.0\n",
                          "finite, at most 1e150"),
}


def grid_entries(tmp_path):
    """name -> call with a bad grid, for every entry point that takes one."""
    out = tmp_path / "map.txt"
    return {
        "GridEnvironment": lambda grid: GridEnvironment(grid),
        "build_environment": lambda grid: build_environment(grid),
        "format_heightmap": lambda grid: format_heightmap(grid, 1.0),
        "save_heightmap": lambda grid: save_heightmap(out, grid, 1.0),
    }


GRID_ENTRIES = sorted(grid_entries(Path()))


@pytest.mark.parametrize("case", sorted(BAD_GRIDS))
@pytest.mark.parametrize("entry", GRID_ENTRIES)
def test_a_bad_grid_is_rejected_everywhere(tmp_path, entry, case):
    grid, _, message = BAD_GRIDS[case]
    with pytest.raises(ValueError, match=message):
        grid_entries(tmp_path)[entry](grid)
    # a writer that rejects writes nothing
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", sorted(c for c, (_, text, _) in BAD_GRIDS.items() if text))
def test_a_bad_grid_is_rejected_as_text(case):
    _, text, message = BAD_GRIDS[case]
    with pytest.raises(ValueError, match=message):
        parse_heightmap(text)


def test_a_good_grid_is_a_new_float_array():
    for grid in ([[1, 2], [3, 4]], np.arange(4, dtype=np.int32).reshape(2, 2),
                 np.ones((2, 2), np.float32)):
        elev = GridEnvironment(grid).elevations
        assert elev.dtype == np.float64 and elev.shape == (2, 2)
    source = np.zeros((2, 2))
    env = GridEnvironment(source)
    source[0, 0] = 5.0
    assert env.elevations[0, 0] == 0.0


def test_the_bounds_keep_heights_and_distances_finite():
    """At the bounds of the grid rule and of d's rule, every point height,
    manhattan3 and ray height is finite; past them, a ValueError names the
    rule that failed."""
    with pytest.raises(ValueError, match="elevations must be finite, at most 1e150"):
        GridEnvironment([[1e308, 0.0]], d=1e308)
    with pytest.raises(ValueError, match="elevations must be finite, at most 1e150"):
        compute_exposure_field(GridEnvironment([[1.7e308, -1.7e308, 0.0]]))
    with pytest.raises(ValueError, match="sensor offset d .* at most 1e150"):
        GridEnvironment([[0.0, 1.0]], d=1e151)
    env = GridEnvironment([[1e150, -1e150, 0.0], [-1e150, 1e150, 1e150]], d=1e150)
    with np.errstate(all="raise"):
        field = compute_exposure_field(env)
        assert np.isfinite(env.points).all()
        assert np.isfinite(env.manhattan3_to(1)).all()
        assert line_of_sight(env, 1, 2) == bool(field.rows[1] >> 2 & 1)


elements = st.one_of(st.floats(allow_nan=True, allow_infinity=True, width=64), st.none(),
                     st.integers(-10**6, 10**6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(elements, max_size=4), max_size=4))
def test_every_written_grid_parses_back_equal(grid):
    """format_heightmap gives the grid rule's verdict, and a grid it accepts
    parses back equal."""
    try:
        want = _check_elevations(grid)
    except ValueError:
        with pytest.raises(ValueError):
            format_heightmap(grid, 2.5)
        return
    elev, cell = parse_heightmap(format_heightmap(grid, 2.5))
    assert cell == 2.5
    assert elev.dtype == np.float64 and np.array_equal(elev, want)


# name -> (rows, the packed matrix, or None when no bytes can spell the rows,
# the message a rejection matches)
BAD_RELATIONS = {
    "asymmetric": ([0b011, 0b010, 0b101], [[0b011], [0b010], [0b101]],
                   r"not symmetric at pair \(0, 1\)"),
    "not reflexive": ([0b01, 0b01], [[0b01], [0b01]], "not reflexive at region 1"),
    "stray bit in the last byte": ([0b101, 0b010], [[0b101], [0b010]],
                                   "bits beyond the region count"),
    # two bytes a row where the matrix has one: a shape the reader rejects
    "bit past the packed row": ([0b1 | 1 << 9, 0b10], [[0b1, 0b10], [0b10, 0]],
                                r"bits beyond the region count|expected uint8 \(2, 1\)"
                                r"|expected 2 row bytes"),
    "negative row": ([0b01, -2], None, "row 1 must be a non-negative integer"),
    "float row": ([1.0, 0b10], None, "row 0 must be a non-negative integer"),
    "bool row": ([True], None, "row 0 must be a non-negative integer"),
}


def _load(n, packed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.expf"
        path.write_bytes(EXPF_MAGIC + struct.pack("<I", n) + packed.tobytes())
        return load_exposure_field(path)


RELATION_ENTRIES = {
    "ExposureField": lambda rows, packed: ExposureField(rows),
    "from_packed": lambda rows, packed: ExposureField.from_packed(packed, len(rows)),
    "load_exposure_field": lambda rows, packed: _load(len(rows), packed),
}


# every entry point with every case it can be handed: rows that no bytes
# spell go to the rows constructor only
RELATION_CASES = [(entry, case) for entry in sorted(RELATION_ENTRIES)
                  for case, (_, packed, _) in sorted(BAD_RELATIONS.items())
                  if packed is not None or entry == "ExposureField"]


@pytest.mark.parametrize("entry, case", RELATION_CASES, ids=["-".join(c) for c in RELATION_CASES])
def test_a_bad_relation_is_rejected_everywhere(entry, case):
    rows, packed, message = BAD_RELATIONS[case]
    packed = None if packed is None else np.array(packed, dtype=np.uint8)
    with pytest.raises(ValueError, match=message):
        RELATION_ENTRIES[entry](rows, packed)


def test_numpy_integer_rows_are_plain_ints():
    field = ExposureField([np.int64(0b011), np.uint8(0b011)])
    assert field.rows == (0b011, 0b011)
    assert all(type(r) is int for r in field.rows)


@st.composite
def rows_of_some_relation(draw):
    """Rows over n regions of a reflexive, symmetric relation, as drawn or
    with one bit flipped or one row replaced by any integer."""
    n = draw(st.integers(1, 20))
    upper = np.triu(np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                             dtype=bool).reshape(n, n), 1)
    sees = upper | upper.T | np.eye(n, dtype=bool)
    rows = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in sees]
    fault = draw(st.sampled_from(["none", "flip", "row"]))
    k = draw(st.integers(0, n - 1))
    if fault == "flip":
        rows[k] ^= 1 << draw(st.integers(0, n + 9))
    elif fault == "row":
        rows[k] = draw(st.integers(-2, 1 << (n + 9)))
    return rows


@settings(max_examples=200, deadline=None)
@given(rows_of_some_relation())
def test_every_written_field_loads_back_equal(rows):
    try:
        field = ExposureField(rows)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.expf"
        save_exposure_field(path, field)
        loaded = load_exposure_field(path)
    assert loaded == field and loaded.rows == tuple(rows)
    assert np.array_equal(loaded.to_packed(), field.to_packed())
