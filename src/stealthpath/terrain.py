"""Grid environments and line-of-sight exposure fields.

The world is a rectangular grid of square cells over a heightmap. Each cell
is one planning region and carries a single representative point: the cell
centre in the horizontal plane, lifted to the cell's elevation plus a sensor
offset ``d`` (a camera about a metre off the ground for a typical surface
robot). Row 0 is the northernmost row; region indices run row-major.

Two regions share line of sight when the straight segment between their
representative points clears the terrain. The segment is walked in steps of
a quarter cell of horizontal distance and is considered blocked as soon as
the elevation of the cell under a sample rises strictly above the ray.
Samples that land inside either endpoint cell are skipped, so a region never
occludes itself and grazing contact counts as visible.

The all-pairs relation is the exposure field: one bitset row per region,
reflexive (a region always sees itself) and symmetric. Its packed form, rows
of ceil(n/8) bytes in little-endian bit order, is stated once, in the
functions from _set_bits to _check_packed; no other module states it (mapio
knows only the row width of its file container). An ExposureField builds its
counts and packed view once, when it is made. Every structure here is
immutable once built and safe to share across concurrent planner runs.

Movement is separate from sight: regions are traversable neighbours when
they are grid-adjacent (4- or 8-connectivity) and their elevation difference
is within ``max_step``. A region is never traversable to itself.

Every region a caller hands in, here or to any other module, is checked by
one rule, region_id (path_ids for a path), and every set of regions, a
bitmask, by one rule, region_set. The grid's parameters have one rule each,
_check_cell_size, _check_d and _check_max_step, which take a number (_real:
never a bool or a string) that float() can represent and return it as a
float (_bounded, every real-valued rule's check); connectivity and an
ExplicitGraph's n pass the integer rule, _integer. The cell size, d
and the elevations are at most 1e150 in magnitude, so no coordinate, height
or distance overflows. The two data objects that cross the library boundary
have one rule each, applied wherever a caller makes, reads or writes one:
_check_elevations for a heightmap grid (a non-empty 2D grid of finite
numbers) and ExposureField.validate for an exposure relation (reflexive,
symmetric, no bit past n).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

LOS_SAMPLES_PER_CELL = 4

# (pairs x evaluated samples) elements per block of the field builder's run
# test and per batch of its boundary samples: small enough that its scratch
# arrays stay in cache.
_LOS_CHUNK_ELEMENTS = 25_000

# pairs the field builder enumerates, certifies and run-tests at once
# (rounded down to whole batches): its per-pair arrays, 64 KB of intp each,
# then stay under glibc's mmap threshold
_CERTIFY_PAIRS = 8192

# rows per strip of the walk (_strips) that mirrors and checks a packed
# matrix; a multiple of 8, so each strip of columns starts on a byte boundary
_VALIDATE_ROWS = 64

_OFFSETS_4 = ((-1, 0), (0, -1), (0, 1), (1, 0))
_OFFSETS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def _int(value) -> bool:
    """Whether value is an int or a numpy integer, never a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def region_id(n: int, r, name: str, out_of_range: type = ValueError) -> int:
    """r as a Python int if it is a region: an int or numpy integer (_int) in
    [0, n). Else a ValueError naming `name` ("path[1]", "start region"), or
    out_of_range, which the accessors set to IndexError."""
    if not _int(r):
        raise ValueError(f"{name} must be an integer, got {r!r}")
    if not 0 <= r < n:
        raise out_of_range(f"{name} out of range: region {r} outside [0, {n})")
    return int(r)


def path_ids(n: int, path: Sequence[int]) -> list[int]:
    """A non-empty path's regions as Python ints (region_id). The name path[k]
    is built only for the first bad region: one per region slows every call."""
    if len(path) == 0:
        raise ValueError("empty path")
    try:
        return [region_id(n, r, "path") for r in path]
    except ValueError as exc:
        error = exc
    for k, r in enumerate(path):
        region_id(n, r, f"path[{k}]")
    raise error


def region_set(mask, name: str) -> int:
    """mask as a Python int if it is a set of regions: an int or numpy
    integer (_int) of at least 0, bit i for region i. Else a ValueError
    naming `name` ("exposed", "exposure row 3"). Bits at or past n are left
    to the caller."""
    if not _int(mask) or mask < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {mask!r}")
    return int(mask)


def _real(value) -> bool:
    """Whether value is a number: an int, float or numpy number, never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _bounded(value, within, message: str) -> float:
    """Every real-valued rule's check: value as a float if it is a number
    (_real) that float() represents (10**400 is not) and passes `within`;
    else a ValueError, the message followed by the value."""
    try:
        number = float(value) if _real(value) else math.nan
    except OverflowError:
        number = math.nan
    if not within(number):  # nan fails every bound
        raise ValueError(f"{message}, got {value!r}")
    return number


def _integer(name: str, value, least: int = 1, most=math.inf) -> int:
    """The integer rule, for connectivity, a graph's n, tau, node_budget, the
    map size and seeds and the experiment's counts: value as an int if it is
    a whole number (5, np.int64(5) or 5.0; never a bool, 5.5, nan, inf, None
    or a string) of at least `least` and at most `most`."""
    if not (_real(value) and least <= value < math.inf and value % 1 == 0):
        raise ValueError(f"{name} must be an integer of at least {least} "
                         f"(integers or whole floats), got {value!r}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def _check_elevations(elevations) -> np.ndarray:
    """The grid rule, for a GridEnvironment and every heightmap file read or
    written: a non-empty 2D grid of finite numbers of magnitude at most 1e150,
    as a new float64 array. With d's bound (_check_d), every point height,
    ray height and manhattan3, sums of a few such values, stays far below
    the float maximum of 1.8e308."""
    try:  # a ragged grid, or an element float() rejects
        grid = np.asarray(elevations)
        elev = np.array(grid, dtype=np.float64) if grid.dtype.kind in "iufO" else np.empty(0)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"elevations must be a non-empty 2D grid of numbers ({exc})") from None
    if elev.ndim != 2 or elev.size == 0:  # also a grid of bools, strings or complex numbers
        raise ValueError("elevations must be a non-empty 2D grid of numbers")
    if not (np.abs(elev) <= 1e150).all():  # also false for nan
        raise ValueError("elevations must be finite, at most 1e150 in magnitude")
    return elev


def _check_cell_size(cell_size) -> float:
    """The cell-size rule, for a GridEnvironment and every heightmap file
    read or written, so no command writes a map that the others reject: a
    number in (0, 1e150], bounded as the elevations are (_check_elevations),
    so no point coordinate overflows."""
    return _bounded(cell_size, lambda x: 0 < x <= 1e150,
                    "cell_size must be positive and finite, at most 1e150")


def _check_d(d) -> float:
    """The sensor-offset rule: a number in [0, 1e150], bounded as the
    elevations are (_check_elevations)."""
    return _bounded(d, lambda x: 0 <= x <= 1e150,
                    "sensor offset d must be non-negative and finite, at most 1e150")


def _check_max_step(max_step) -> float:
    """The max-step rule: a number in [0, inf]; inf, the default, lets any
    height difference pass."""
    return _bounded(max_step, lambda x: x >= 0, "max_step must be non-negative")


def _checked(n: int, region) -> int:
    """region_id for the accessors of ExplicitGraph and ExposureField."""
    return region_id(n, region, "region", IndexError)


class ExplicitGraph:
    """A planning graph: n regions, their traversable neighbours and
    optionally a representative point each, the surface every planner reads.

    Built directly, it holds a hand-made scenario: edges are symmetrized,
    and points only feed the distance heuristics (without them those are 0,
    which keeps every planner correct, just less guided). A GridEnvironment
    is an ExplicitGraph built from a heightmap. Planners read min_steps_to
    and manhattan3_to once per query; min_steps and manhattan3 read one entry.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], points=None):
        n = _integer("n", n)
        adj: list[set[int]] = [set() for _ in range(n)]
        for k, (a, b) in enumerate(edges):
            a, b = region_id(n, a, f"edges[{k}][0]"), region_id(n, b, f"edges[{k}][1]")
            if a == b:
                raise ValueError(f"self-edge at region {a}")
            adj[a].add(b)
            adj[b].add(a)
        if points is not None:
            # a read-only copy, as on a grid: the heuristics read it on every
            # query, so a later write to the caller's array must not reach it
            points = np.array(points, dtype=np.float64)
            if points.shape != (n, 3):
                raise ValueError(f"points must be ({n}, 3)")
            if not np.isfinite(points).all():
                raise ValueError("points must be finite")
            points.setflags(write=False)
        self._set_graph(tuple(tuple(sorted(s)) for s in adj), points)

    def _set_graph(self, adjacency: tuple[tuple[int, ...], ...], points) -> None:
        """adjacency[r]: sorted traversable neighbours of region r. Planners
        read it once per query; neighbors() is the range-checked accessor."""
        self.n = len(adjacency)
        self.adjacency = adjacency
        self.points = points
        # manhattan3_to's one table; without points every region is at the origin
        self._heuristic_points = np.zeros((self.n, 3)) if points is None else points

    def neighbors(self, region: int) -> tuple[int, ...]:
        return self.adjacency[_checked(self.n, region)]

    def min_steps(self, a: int, b: int) -> int:
        """Admissible lower bound on the number of moves between two regions."""
        return int(self.min_steps_to(b)[_checked(self.n, a)])

    def min_steps_to(self, b: int) -> np.ndarray:
        """min_steps(a, b) of every region a, as a new float array: zeros here."""
        _checked(self.n, b)
        return np.zeros(self.n)

    def manhattan3(self, a: int, b: int) -> float:
        """3D Manhattan distance between two regions' points."""
        return float(self.manhattan3_to(b)[_checked(self.n, a)])

    def manhattan3_to(self, b: int) -> np.ndarray:
        """manhattan3(a, b) of every region a, as a new float array."""
        points, b = self._heuristic_points, _checked(self.n, b)
        dist = np.abs(points[:, 0] - points[b, 0])
        dist += np.abs(points[:, 1] - points[b, 1])
        dist += np.abs(points[:, 2] - points[b, 2])
        return dist


class GridEnvironment(ExplicitGraph):
    """An ExplicitGraph built from a heightmap (see the module docstring) with
    numpy, not the edge loop; points is read-only, min_steps_to the grid distance."""

    def __init__(self, elevations, cell_size: float = 1.0, d: float = 1.0,
                 max_step: float = math.inf, connectivity: int = 4):
        elev = _check_elevations(elevations)
        self.cell_size = _check_cell_size(cell_size)
        self.d = _check_d(d)
        self.max_step = _check_max_step(max_step)
        self.connectivity = _integer("connectivity", connectivity, 4)
        if self.connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {connectivity!r}")

        elev.setflags(write=False)
        self.elevations = elev
        self.height, self.width = elev.shape

        n = elev.size
        rows, cols = np.divmod(np.arange(n), self.width)
        flat = elev.ravel()
        pts = np.empty((n, 3))
        pts[:, 0] = (cols + 0.5) * self.cell_size
        pts[:, 1] = (rows + 0.5) * self.cell_size
        pts[:, 2] = flat + self.d
        pts.setflags(write=False)
        self._elev_flat = flat

        # one column per offset; the offsets are in row-major order, so each
        # cell's neighbours come out sorted
        offsets = np.array(_OFFSETS_4 if self.connectivity == 4 else _OFFSETS_8)
        nr, nc = rows[:, None] + offsets[:, 0], cols[:, None] + offsets[:, 1]
        inside = (nr >= 0) & (nr < self.height) & (nc >= 0) & (nc < self.width)
        nbr = np.where(inside, nr * self.width + nc, 0)
        keep = inside & (np.abs(flat[nbr] - flat[:, None]) <= self.max_step)
        found = nbr[keep].tolist()
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        self._set_graph(tuple(tuple(found[a:b]) for a, b in zip([0] + ends, ends)), pts)

    def index(self, row: int, col: int) -> int:
        """The region of a cell; row and col are ints or numpy integers (_int)."""
        for name, value in (("row", row), ("col", col)):
            if not _int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise IndexError(f"cell ({row}, {col}) outside {self.height}x{self.width} grid")
        return int(row) * self.width + int(col)

    def rowcol(self, region: int) -> tuple[int, int]:
        return divmod(_checked(self.n, region), self.width)

    def min_steps_to(self, b: int) -> np.ndarray:
        rb, cb = divmod(_checked(self.n, b), self.width)
        dr = np.abs(np.arange(self.height, dtype=np.float64) - rb)[:, None]
        dc = np.abs(np.arange(self.width, dtype=np.float64) - cb)
        return (dr + dc if self.connectivity == 4 else np.maximum(dr, dc)).ravel()


def build_environment(elevations, cell_size: float = 1.0, d: float = 1.0,
                      max_step: float = math.inf, connectivity: int = 4) -> GridEnvironment:
    """Validate a heightmap and assemble the planning environment."""
    return GridEnvironment(elevations, cell_size=cell_size, d=d,
                           max_step=max_step, connectivity=connectivity)


def check_field_matches(env, field) -> None:
    """Raise ValueError unless the field covers exactly the env's regions."""
    if field.n != env.n:
        raise ValueError(f"exposure field covers {field.n} regions, "
                         f"environment has {env.n}")


def traversable(env, a: int, b: int) -> bool:
    """True when a robot may move directly from region a to region b."""
    a = region_id(env.n, a, "from region")
    return region_id(env.n, b, "to region") in env.adjacency[a]


# -- line of sight ----------------------------------------------------------

# A planned ray sample this close to a cell boundary, in cells, is
# ambiguous, and the field builder leaves it to the full sighting rule. The
# position a pair computes for a sample in floats is off the planned one by
# a few ulps of the pair's largest cell coordinate, about 1e-12 cells on any
# grid whose field fits in memory, so a sample farther out floors into its
# planned cell for every pair. Planned samples lie within 1e-14 cells of a
# boundary (axis rays, Pythagorean displacements) or, up to 100x100, at
# least 2e-7 cells from one: any value in between gives the same bytes.
_BOUNDARY_TOL = 1e-9

# The visible certificate compares terrain against min(sz, tz) minus this
# fraction of M = max(|sz|, |tz|). A sample's height z = sz + frac * (tz -
# sz), with frac = ks / span in [0, 1] since ks < span, takes three rounded
# operations on values at most 2M in magnitude, each off by at most 2^-53
# of that, so the computed z is at least min(sz, tz) - 6 * 2^-53 * M; taking
# off the margin rounds by at most 2^-53 * M more. 2^-40 * M is over a
# thousand times that at any finite magnitude. A cell within the margin
# only goes on to the run test: a wide margin costs work, never bytes.
_CERTIFY_MARGIN = 2.0 ** -40


def _work_arrays(size: int):
    """Scratch arrays for _visible_pairs and the field builder: three
    float, one index, two bool.

    Fresh temporaries of a batch's size lie above glibc's mmap threshold,
    so each would be mapped, faulted in and unmapped again; the field
    builder reuses one set instead.
    """
    return (np.empty(size), np.empty(size), np.empty(size), np.empty(size, np.intp),
            np.empty(size, bool), np.empty(size, bool))


def _visible_pairs(env: GridEnvironment, src: np.ndarray, tgt: np.ndarray,
                   work=None, ks=None) -> np.ndarray:
    """Visibility of each (src[i], tgt[i]) pair under the full sighting rule.

    This is the one implementation of the per-sample rule: floor the sample
    into a cell, clip it to the grid, skip it when it lies past the target
    or in either endpoint cell, and block when that cell rises strictly
    above the ray. Each pair is evaluated from its own endpoints with the
    same float expression whatever else shares the call, so a pair's answer
    does not depend on how the pairs are grouped.

    `ks` gives the distances along the ray of the samples to test. By
    default that is every quarter-cell sample, as line_of_sight and the
    reference builder in the tests use. The field builder passes one row
    per pair, (pairs, m), holding only the samples that lie on a cell
    boundary (see compute_exposure_field); everything else it decides from
    one sample per crossed cell. Rows are padded to the longest in the call:
    the default row with samples past the target, the builder's rows with
    distance 0, which lies in the source cell; padding never blocks. `work`
    (from _work_arrays) is used when it is large enough for the call.
    """
    pts = env.points
    cell = env.cell_size
    width, height = env.width, env.height
    elev = env._elev_flat
    step = cell / LOS_SAMPLES_PER_CELL

    sx, sy, sz = (pts[src, k, None] for k in range(3))
    dx, dy, dz = (pts[tgt, k, None] - pts[src, k, None] for k in range(3))
    span = np.hypot(dx, dy)

    if ks is None:
        ks = np.arange(1, int(span.max() / step) + 2) * step
    shape = (len(src), ks.shape[-1])
    size = shape[0] * shape[1]
    if work is None or work[0].size < size:
        work = _work_arrays(size)
    frac, col, row, under, blocking, test = (a[:size].reshape(shape) for a in work)
    # in place, the same float operations as
    #   col = clip(floor((sx + frac * dx) / cell), 0, width - 1), row alike,
    #   under = intp(row * width + col), z = sz + frac * dz
    np.divide(ks, span, out=frac)
    for out, start, delta, top in ((col, sx, dx, width - 1), (row, sy, dy, height - 1)):
        np.multiply(frac, delta, out=out)
        out += start
        out /= cell
        np.floor(out, out=out)
        np.clip(out, 0, top, out=out)
    # row and col hold small whole numbers, so this float sum is exact
    row *= width
    row += col
    np.copyto(under, row, casting="unsafe")
    z = np.multiply(frac, dz, out=col)
    z += sz
    # under is in range by the clips above, so "clip" changes no index; it
    # lets take write straight into out instead of through a buffer
    np.greater(np.take(elev, under, out=row, mode="clip"), z, out=blocking)
    blocking &= np.less(ks, span, out=test)
    blocking &= np.not_equal(under, src[:, None], out=test)
    blocking &= np.not_equal(under, tgt[:, None], out=test)
    return ~np.any(blocking, axis=1)


def line_of_sight(env: GridEnvironment, a: int, b: int) -> bool:
    """Whether regions a and b see each other, as the exposure field says.

    The sampled rule is not symmetric in floating point, so the pair is
    evaluated from its lower-indexed region, as compute_exposure_field does.
    """
    a, b = _checked(env.n, a), _checked(env.n, b)
    if a == b:
        return True
    lo, hi = min(a, b), max(a, b)
    return bool(_visible_pairs(env, np.array([lo]), np.array([hi]))[0])


def _ray_plans(drs: np.ndarray, dcs: np.ndarray, width: int):
    """The samples that decide rays of displacement (drs[i], dcs[i]) cells.

    Sample k of a ray L cells long lies at fraction f = k / (4 L) of the way
    between the two centres, in cell offset floor(0.5 + f * delta) on each
    axis. A sample within _BOUNDARY_TOL of a cell boundary on either axis is
    ambiguous. The others form runs of consecutive samples in one cell, and
    runs in the source or the target cell are dropped. Nothing here depends
    on the heights or the cell size.

    Returns tables with one column per ray, padded with 0: the first and
    the last k of each run, the offset of the run's cell from the source as
    a flat index into rows of `width` cells, and the k of each ambiguous
    sample.
    """
    lengths = np.hypot(drs, dcs) * LOS_SAMPLES_PER_CELL
    counts = lengths.astype(np.intp)
    ray = np.repeat(np.arange(len(drs)), counts)
    k = np.arange(1, len(ray) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    frac = k / lengths[ray]
    dr, dc = drs[ray], dcs[ray]
    pos_r = frac * dr + 0.5
    pos_c = frac * dc + 0.5
    ambiguous = ((np.abs(pos_r - np.round(pos_r)) <= _BOUNDARY_TOL)
                 | (np.abs(pos_c - np.round(pos_c)) <= _BOUNDARY_TOL))
    row = np.floor(pos_r).astype(np.intp)
    col = np.floor(pos_c).astype(np.intp)
    keep = ~ambiguous & ((row != 0) | (col != 0)) & ((row != dr) | (col != dc))
    # within one ray |col| < width, so equal flat offsets mean equal cells
    ray_k, k_k, offset = ray[keep], k[keep], (row * width + col)[keep]
    start = np.ones(len(k_k), bool)
    start[1:] = (ray_k[1:] != ray_k[:-1]) | (offset[1:] != offset[:-1])
    end = np.ones(len(k_k), bool)
    end[:-1] = start[1:]
    return (*_padded(len(drs), ray_k[start], k_k[start], k_k[end], offset[start]),
            *_padded(len(drs), ray[ambiguous], k[ambiguous]))


def _padded(count: int, rays: np.ndarray, *values: np.ndarray):
    """One column per ray of each value array (grouped by ray, in order),
    padded with 0."""
    per_ray = np.bincount(rays, minlength=count)
    at = (np.arange(len(rays)) - (np.cumsum(per_ray) - per_ray)[rays], rays)
    tables = []
    for v in values:
        table = np.zeros((per_ray.max(initial=0), count), v.dtype)
        table[at] = v
        tables.append(table)
    return tables


class _GroupPlan(NamedTuple):
    """The rays of one group of displacements and the samples that decide
    them; everything depends only on the grid shape. Per-ray arrays hold one
    entry per ray, rays with ambiguous samples first (`mixed` of them)."""
    pairs: int  # source cells over all rays of the group
    batch: int  # pairs per boundary-sample batch
    chunk: int  # pairs enumerated, certified and run-tested at once, a multiple of batch
    starts: np.ndarray  # number of the ray's first pair in the group, per ray
    ends: np.ndarray  # starts plus the ray's pairs
    row_width: np.ndarray  # sources per grid row, per ray
    first_col: np.ndarray  # column of the first source, per ray
    shift: np.ndarray  # flat index of the target minus the source, per ray
    corners: np.ndarray  # (4, rays) box-maximum table offsets, see _box_max_table
    mixed: int
    lows: np.ndarray  # (runs, 2 * rays): first k of each run, then last k
    offset: np.ndarray  # (runs, rays) flat cell offset of each run
    ambiguous: np.ndarray  # (samples, rays) k of each ambiguous sample


def _compact(a: np.ndarray) -> np.ndarray:
    """Integer array `a` in the smallest integer type that holds its values."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    for kind in (np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32):
        if np.iinfo(kind).min <= lo and hi <= np.iinfo(kind).max:
            return a.astype(kind)
    return a


@functools.lru_cache(maxsize=1)
def _group_plans(height: int, width: int) -> tuple[_GroupPlan, ...]:
    """Every pair of cells src < tgt, as groups of ray displacements with
    the samples that decide them.

    A ray of displacement (dr, dc) crosses dr + |dc| cell boundaries, which
    bounds both its runs and its ambiguous samples. Displacements are taken
    in families of equal crossings, in increasing order, and consecutive
    families are merged while their pairs fit in one batch of
    _LOS_CHUNK_ELEMENTS evaluated samples. Each group is planned at once
    with _ray_plans, and its pairs are numbered ray by ray, rays with
    ambiguous samples first so that few chunks need the full rule. Each
    ray's runs are ordered midpoint-first, padding last: the run test sweeps
    the rows in that order and drops a pair once it is blocked, which
    happens sooner than in ray order.

    Cached for the latest shape, since re-planning would add about a quarter
    to each 30x30 build; builds share the plans and never write to them. A
    new shape is planned before the old shape's plans are freed.
    """
    drs, dcs = np.mgrid[0:height, -(width - 1):width]
    crossings = np.where((drs > 0) | (dcs > 0), drs + np.abs(dcs), 0)
    pairs = (height - drs) * (width - np.abs(dcs))
    family_pairs = np.bincount(crossings.ravel(), pairs.ravel()).astype(int).tolist()
    levels = width.bit_length()
    plans = []
    lo = 1
    while lo < len(family_pairs):
        hi, count = lo + 1, family_pairs[lo]
        while hi < len(family_pairs) and (count + family_pairs[hi]) * hi <= _LOS_CHUNK_ELEMENTS:
            count += family_pairs[hi]
            hi += 1
        group = (crossings >= lo) & (crossings < hi)
        first, last, offset, ambiguous = _ray_plans(drs[group], dcs[group], width)
        order = np.argsort(~ambiguous.any(axis=0), kind="stable")
        dr, dc = drs[group][order], dcs[group][order]
        first, last, offset, ambiguous = (t[:, order] for t in (first, last, offset, ambiguous))
        runs = (first > 0).sum(axis=0)
        # run i of a ray with R runs goes to the row ranked by |2i - (R - 1)|,
        # its distance from the ray's middle run; padding rows go after them
        row = np.arange(len(first))[:, None]
        rank = np.where(row < runs, np.abs(2 * row - (runs - 1)), len(first) + row)
        middle = np.argsort(rank, axis=0, kind="stable")
        first, last, offset = (np.take_along_axis(t, middle, axis=0)
                               for t in (first, last, offset))
        row_width = width - np.abs(dc)
        ray_pairs = (height - dr) * row_width
        # the ray's bounding box: rows [0, dr] and columns [min(0, dc),
        # max(0, dc)] from the source, covered by four windows of 2^a rows
        # and 2^b columns at its corners
        a = np.frexp(dr + 1)[1] - 1  # floor(log2)
        b = np.frexp(np.abs(dc) + 1)[1] - 1
        left = np.minimum(dc, 0)
        bottom = (dr + 1 - (1 << a)) * width
        right = left + np.abs(dc) + 1 - (1 << b)
        level = (a * levels + b) * (height * width)
        corners = np.stack((level + left, level + right,
                            level + bottom + left, level + bottom + right))
        batch = max(1, _LOS_CHUNK_ELEMENTS // (hi - 1))
        # tables that are only read through gathers are stored compact; the
        # pair numbers take part in arithmetic and stay intp
        tables = dict(row_width=row_width, first_col=np.maximum(-dc, 0),
                      shift=dr * width + dc, corners=corners,
                      lows=np.concatenate((first, last), axis=1), offset=offset,
                      ambiguous=ambiguous)
        plans.append(_GroupPlan(count, batch, batch * max(1, _CERTIFY_PAIRS // batch),
                                np.cumsum(ray_pairs) - ray_pairs, np.cumsum(ray_pairs),
                                mixed=int(ambiguous.any(axis=0).sum()),
                                **{key: _compact(t) for key, t in tables.items()}))
        lo = hi
    return tuple(plans)


def _box_max_table(elev: np.ndarray) -> np.ndarray:
    """Sparse table of window maxima (Bender & Farach-Colton 2000), flat.

    Entry (a, b, r, c), at ((a * B + b) * height + r) * width + c with
    B = width.bit_length(), is the highest cell of the window of 2^a rows
    and 2^b columns at (r, c), cut at the grid's edge. Four windows at the
    corners of any box give its maximum.
    """
    height, width = elev.shape
    table = np.empty((height.bit_length(), width.bit_length(), height, width))
    table[0, 0] = elev
    for a in range(1, table.shape[0]):
        half = 1 << (a - 1)
        table[a, 0] = table[a - 1, 0]
        np.maximum(table[a - 1, 0, :-half], table[a - 1, 0, half:], out=table[a, 0, :-half])
    for b in range(1, table.shape[1]):
        half = 1 << (b - 1)
        table[:, b] = table[:, b - 1]
        np.maximum(table[:, b - 1, :, :-half], table[:, b - 1, :, half:],
                   out=table[:, b, :, :-half])
    return table.ravel()


@dataclass(frozen=True)
class BuildStats:
    """Work counts of one compute_exposure_field call: the pairs src < tgt,
    those the box certificate decided and those that went to the run test,
    the run samples evaluated and the boundary samples sent through the full
    rule. certified_pairs + run_tested_pairs == pairs.

    run_samples counts each kept run of a pair in every row block the pair
    took part in, padding excluded. A pair found blocked leaves the sweep
    after its block, so its remaining runs are not counted: the count falls
    as the sweep drops blocked pairs sooner, and it depends on the block
    size (_LOS_CHUNK_ELEMENTS) and the row order."""
    pairs: int
    certified_pairs: int
    run_tested_pairs: int
    run_samples: int
    boundary_samples: int


def compute_exposure_field(env: GridEnvironment) -> "ExposureField":
    """All-pairs visibility as an ExposureField.

    Each unordered pair is sampled once, from its lower-indexed region, and
    mirrored, so symmetry holds by construction. The answer is bit-identical
    to evaluating every quarter-cell sample with _visible_pairs; the builder
    gets there in three stages, cheapest first.

    Visible certificate. Every sample of a pair lies in a cell of the box
    spanned by its two endpoint cells, and its ray height z lies between the
    endpoint heights up to rounding (_CERTIFY_MARGIN). So a pair whose box,
    read from a sparse table of window maxima in four lookups, lies strictly
    below min(sz, tz) minus the margin is visible, and is never run-tested.

    Run test. Along a ray, ks = k * step, ks / span, that times dz, and that
    plus sz are each monotone in k in IEEE arithmetic, so the ray height z
    is monotone along the ray, lowest at a run's first sample when dz >= 0
    and at its last when dz < 0. Within a run the cell, and so the terrain
    height, is fixed; the run blocks if and only if that one sample does,
    and the builder tests only it, in the kernel's operation order. Off the
    boundaries a pair floors every sample into its planned cell (see
    _BOUNDARY_TOL), so the cell index is the source plus the planned offset.

    The builder run-tests a chunk of pairs at a time, sweeping the run rows
    in blocks of at most _LOS_CHUNK_ELEMENTS tests, each ray's runs ordered
    midpoint-first (_group_plans). A pair that a block finds blocked leaves
    the chunk before the next block: any() over a pair's run tests does not
    depend on the order they are made in.

    Boundary samples of the pairs that survive every block go through
    _visible_pairs. Each visible pair sets its bit (src, tgt) only, and the
    matrix is mirrored once at the end (_mirror).

    The ray plans behind all three stages depend only on the grid shape and
    are cached for the most recent shape (_group_plans), so repeated builds
    of one shape plan once. The field carries the work counts as
    `build_stats` (BuildStats).

    O(n^2) pairs with rays O(sqrt(n)) cells long: cache the field, see the
    mapio module.
    """
    n = env.n
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    _set_bits(packed, *np.diag_indices(n))
    stats = _add_visible_pairs(env, packed)
    packed.setflags(write=False)
    field = ExposureField._of_matrix(packed)
    field.build_stats = stats
    return field


def _certified_pairs(plan: _GroupPlan, start: int, stop: int, width: int,
                     heights: np.ndarray, box_max: np.ndarray):
    """Pairs start..stop-1 of a group as (src, tgt, ray, sz, tz, certified):
    ray is each pair's column in the plan, sz and tz the heights of its
    ends, and certified whether the box certificate proves it visible. Its
    other arrays go when it returns, which keeps the builder's peak down."""
    # the rays holding pairs start..stop-1: from the one whose pairs end past
    # start to the last one starting before stop
    r0 = np.searchsorted(plan.ends, start, "right")
    r1 = np.searchsorted(plan.starts, stop, "left")
    ray = np.repeat(np.arange(r0, r1), np.minimum(plan.ends[r0:r1], stop)
                    - np.maximum(plan.starts[r0:r1], start))
    # pair p of the group is source number p - starts[ray] of its ray; the
    # row and column of that source go into src and tgt in place
    src = np.arange(start, stop) - plan.starts[ray]
    tgt = np.empty_like(src)
    np.divmod(src, plan.row_width[ray], out=(src, tgt))
    src *= width
    src += tgt
    src += plan.first_col[ray]
    np.add(src, plan.shift[ray], out=tgt)
    sz, tz = heights[src], heights[tgt]
    corner, *others = plan.corners
    box = box_max[src + corner[ray]]
    for corner in others:
        np.maximum(box, box_max[src + corner[ray]], out=box)
    low = np.maximum(np.abs(sz), np.abs(tz))
    low *= -_CERTIFY_MARGIN
    low += np.minimum(sz, tz)
    return src, tgt, ray, sz, tz, box < low


def _add_visible_pairs(env: GridEnvironment, packed: np.ndarray) -> BuildStats:
    """Set the bits of every visible pair src < tgt, both ways, in `packed`
    (see compute_exposure_field); its scratch arrays go when it returns."""
    height, width = env.height, env.width
    pts = env.points
    xs, ys, heights = (np.ascontiguousarray(pts[:, k]) for k in range(3))
    elev = env._elev_flat
    step = env.cell_size / LOS_SAMPLES_PER_CELL
    box_max = _box_max_table(env.elevations)
    plans = _group_plans(height, width)
    # the largest run-test block holds max(_LOS_CHUNK_ELEMENTS, chunk) and a
    # boundary batch at most max(_LOS_CHUNK_ELEMENTS, height + width) elements
    most = max(_LOS_CHUNK_ELEMENTS, _CERTIFY_PAIRS, height + width)
    work = _work_arrays(most)
    certified = run_samples = boundary_samples = 0
    for plan in plans:
        rays = len(plan.starts)
        # the k tables in distances along the ray, as _visible_pairs computes them
        lows = plan.lows * step
        offsets = np.empty(most, plan.offset.dtype)
        for start in range(0, plan.pairs, plan.chunk):
            src, tgt, ray, sz, tz, seen = _certified_pairs(
                plan, start, min(start + plan.chunk, plan.pairs), width, heights, box_max)
            rest = np.flatnonzero(~seen)
            certified += len(seen) - len(rest)
            # the run-tested pairs, one column each: (source, target, ray,
            # column of its lowest samples in lows) and (span, dz, sz).
            # Each pair's lowest sample of every run is the first when the
            # ray climbs and the last when it falls.
            ints, floats = np.empty((4, len(rest)), np.intp), np.empty((3, len(rest)))
            s, t, r, col = ints
            span, dz, sz0 = floats
            for whole, part in ((src, s), (tgt, t), (ray, r), (tz, dz), (sz, sz0)):
                np.take(whole, rest, out=part)
            dz -= sz0
            np.multiply(dz < 0, rays, out=col)
            col += r
            np.hypot(xs[t] - xs[s], ys[t] - ys[s], out=span)
            # the run rows in blocks of at most _LOS_CHUNK_ELEMENTS tests (or
            # one row); the pairs a block finds blocked drop out before the
            # next, so only the survivors reach the boundary samples
            b0 = 0
            while b0 < len(plan.lows) and ints.shape[1]:
                alive = ints.shape[1]
                b1 = min(len(plan.lows), b0 + max(1, _LOS_CHUNK_ELEMENTS // alive))
                s, _, r, col = ints
                span, dz, sz0 = floats
                shape = (b1 - b0, alive)
                size = shape[0] * shape[1]
                z, ground, under, blocking = (work[i][:size].reshape(shape) for i in (0, 1, 3, 4))
                cell = offsets[:size].reshape(shape)
                # padding (k = 0, offset 0) tests the source centre, which
                # never blocks: sz is its elevation plus d >= 0. The indices
                # are in range, so "clip" only lets take write into out.
                np.take(lows[b0:b1], col, axis=1, out=z, mode="clip")
                z /= span
                z *= dz
                z += sz0
                np.take(plan.offset[b0:b1], r, axis=1, out=cell, mode="clip")
                # every kept run lies outside the source cell, at a nonzero offset
                run_samples += int(np.count_nonzero(cell))
                np.add(cell, s, out=under)
                np.greater(np.take(elev, under, out=ground, mode="clip"), z, out=blocking)
                keep = np.flatnonzero(~blocking.any(axis=0))
                if len(keep) < alive:
                    ints, floats = ints.take(keep, axis=1), floats.take(keep, axis=1)
                b0 = b1
            s, t, r, _ = ints
            # boundary samples of the pairs still visible on rays that have
            # them (r ascends: those rays come first)
            visible = np.ones(len(s), bool)
            check = np.flatnonzero(r < plan.mixed)
            for c0 in range(0, len(check), plan.batch):
                pick = check[c0:c0 + plan.batch]
                ks = plan.ambiguous[:, r[pick]].T
                boundary_samples += int(np.count_nonzero(ks))
                visible[pick] = _visible_pairs(env, s[pick], t[pick], work, ks * step)
            src = np.concatenate((src[seen], s[visible]))
            tgt = np.concatenate((tgt[seen], t[visible]))
            _set_bits(packed, src, tgt)
    _mirror(packed, env.n)
    pairs = env.n * (env.n - 1) // 2
    return BuildStats(pairs, certified, pairs - certified, run_samples, boundary_samples)


# -- the packed bit layout ---------------------------------------------------
#
# Row i of an n-region relation is ceil(n/8) uint8 bytes, bit j in bit j & 7
# of byte j >> 3: its int bitset in little-endian order. Only the functions
# from here to _check_packed know this.

def _set_bits(packed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set bit (rows[k], cols[k]) of a packed matrix for every k, in place.
    Several bits can share one byte of a row: ufunc.at applies every one,
    where a fancy-indexed |= would keep only the last."""
    np.bitwise_or.at(packed, (rows, cols >> 3), (1 << (cols & 7)).astype(np.uint8))


def _unpack(packed: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits of each packed row (the last axis), one 0 or 1
    uint8 each."""
    return np.unpackbits(packed, axis=-1, count=count, bitorder="little")


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of bits (the last axis) as packed rows, _unpack's inverse."""
    return np.packbits(bits, axis=-1, bitorder="little")


def _pack_ints(ints: Sequence[int], n: int) -> np.ndarray:
    """Non-negative int bitsets below 2**n as a read-only packed matrix."""
    width = (n + 7) // 8
    raw = b"".join(i.to_bytes(width, "little") for i in ints)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(ints), width)


def _ints_of(packed: np.ndarray) -> tuple[int, ...]:
    """Each row of a packed matrix as an int bitset, _pack_ints' inverse."""
    raw, width = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width))


def _strips(packed: np.ndarray, n: int, combine):
    """Walk the (n, ceil(n/8)) bit matrix one strip of _VALIDATE_ROWS rows
    at a time, yielding (i0, i1, combine(rows, cols)) for the bits of rows
    i0..i1-1 and, transposed to the same shape, of columns i0..i1-1. A strip
    is read once the caller is done with the one before, and only what
    combine returns outlives it: O(_VALIDATE_ROWS * n) unpacked bits are
    held at once, never the n x n matrix."""
    for i0 in range(0, n, _VALIDATE_ROWS):
        i1 = min(i0 + _VALIDATE_ROWS, n)
        # i0 is a multiple of 8, so the columns start on a byte boundary
        yield i0, i1, combine(_unpack(packed[i0:i1], n),
                              _unpack(packed[:, i0 >> 3:(i1 + 7) >> 3], i1 - i0).T)


def _mirror(packed: np.ndarray, n: int) -> None:
    """Copy every bit (i, j) with i < j of the (n, ceil(n/8)) bit matrix to
    (j, i), in place, one strip at a time (_strips)."""
    for i0, i1, bits in _strips(packed, n, np.bitwise_or):
        # the strip's columns hold only bits i < j yet: earlier strips wrote
        # their rows at columns below i0 only
        packed[i0:i1] = _pack(bits)


def _check_packed(packed: np.ndarray, n: int) -> None:
    """Raise ValueError unless the (n, ceil(n/8)) bit matrix, laid out as
    ExposureField.to_packed gives it, is a valid exposure relation.

    Checks, in this order: reflexivity, symmetry and no bits beyond column
    n. Symmetry is checked one strip of rows at a time against the matching
    strip of columns (_strips).
    """
    ids = np.arange(n)
    diagonal = (packed[ids, ids >> 3] >> (ids & 7)) & 1
    if not diagonal.all():
        bad = int(np.flatnonzero(diagonal == 0)[0])
        raise ValueError(f"exposure relation not reflexive at region {bad}")

    for i0, _, diff in _strips(packed, n, np.not_equal):
        if diff.any():
            i, j = (int(v[0]) for v in np.nonzero(diff))
            raise ValueError(f"exposure relation not symmetric at pair ({i + i0}, {j})")
    if n & 7 and (packed[:, -1] >> (n & 7)).any():
        raise ValueError("exposure row has bits beyond the region count")


# -- exposure field ----------------------------------------------------------

class ExposureField:
    """Symmetric, reflexive visibility relation over n regions.

    Row i is an int bitset of every region sharing line of sight with i,
    including i itself. Exposure scores therefore live in [1/n, 1]. Every
    field a caller builds is checked. ExposureField(rows) requires each row
    to be a region set (region_set) with no bit at or past n, then runs
    validate(); from_packed runs validate's _check_packed.

    The int rows are the storage the planners read. Every constructor goes
    through _init_views, which checks the region count, then builds every
    derived view once: the counts, which every planner's step costs read,
    their minimum, which ess's heuristic reads through min_score(), and the
    read-only packed matrix of to_packed(), taken as given from
    compute_exposure_field and from_packed. A score is its count over n,
    divided when asked: int / int rounds once, and min commutes with / n.

    build_stats holds the builder's work counts (BuildStats) on a field from
    compute_exposure_field and is None otherwise; equality and hashing
    ignore it.
    """

    __slots__ = ("n", "rows", "build_stats", "_counts", "_min_count", "_packed")

    def __init__(self, rows: Sequence[int]):
        # plain ints, never numpy integers: rows must not overflow at n > 63
        rows = tuple(region_set(r, f"exposure row {k}") for k, r in enumerate(rows))
        if any(r >> len(rows) for r in rows):
            raise ValueError("exposure row has bits beyond the region count")
        self._init_views(_pack_ints(rows, len(rows)), rows)
        self.validate()

    def _init_views(self, packed: np.ndarray, rows: tuple[int, ...] | None = None) -> None:
        """The constructor core: the read-only packed matrix, its int rows
        (read from it unless given) and every view derived from them."""
        if not len(packed):
            raise ValueError("exposure field needs at least one region")
        self.rows = rows = _ints_of(packed) if rows is None else rows
        self.n = len(rows)
        self._counts = tuple(r.bit_count() for r in rows)
        self._min_count = min(self._counts)
        self._packed = packed
        self.build_stats = None

    def exposure_set(self, region: int) -> int:
        """Bitset of regions visible from `region` (reflexive)."""
        return self.rows[_checked(self.n, region)]

    def exposure_count(self, region: int) -> int:
        return self._counts[_checked(self.n, region)]

    def exposure_score(self, region: int) -> float:
        """Fraction of the map visible from a region, in [1/n, 1]."""
        return self._counts[_checked(self.n, region)] / self.n

    def scores(self) -> np.ndarray:
        """Every region's exposure score, as a new float array."""
        return np.array(self._counts) / self.n

    def min_score(self) -> float:
        return self._min_count / self.n

    def members(self, region: int) -> np.ndarray:
        """Visible regions as a sorted index array."""
        return np.flatnonzero(_unpack(self._packed[_checked(self.n, region)], self.n))

    def _rows_within(self, mask: int) -> int:
        """Bitset of the regions whose rows lie inside the bitset `mask`.
        The relation is symmetric (validate), so row i leaves mask exactly
        when some region outside mask sees i: the answer is the complement
        of the union of the rows outside mask, read from the packed view.
        That reads one row per region outside mask, never more than all n.
        Bits of mask at or past n meet no row and are dropped first."""
        every = (1 << self.n) - 1
        outside = np.flatnonzero(_unpack(_pack_ints([every ^ (mask & every)], self.n), self.n)[0])
        seen = np.bitwise_or.reduce(self._packed[outside], axis=0)
        return every ^ _ints_of(seen[None])[0]

    def to_packed(self) -> np.ndarray:
        """Rows as a read-only (n, ceil(n/8)) uint8 matrix, laid out as
        stated from _set_bits to _check_packed."""
        return self._packed

    @classmethod
    def from_packed(cls, packed: np.ndarray, n: int) -> "ExposureField":
        """Field from a uint8 (n, ceil(n/8)) to_packed() matrix, checked."""
        if packed.shape != (n, (n + 7) // 8) or packed.dtype != np.uint8:
            raise ValueError(f"packed matrix is {packed.dtype} {packed.shape}, "
                             f"expected uint8 ({n}, {(n + 7) // 8})")
        _check_packed(packed, n)
        return cls._of_matrix(packed)

    @classmethod
    def _of_matrix(cls, packed: np.ndarray) -> "ExposureField":
        """from_packed unchecked, for a matrix known valid. It becomes the
        field's packed view, copied first if writable, so later writes by
        the caller cannot reach the field."""
        if packed.flags.writeable:
            packed = packed.copy()
            packed.setflags(write=False)
        field = cls.__new__(cls)
        field._init_views(packed)
        return field

    def validate(self) -> None:
        """Raise ValueError unless the field is reflexive, symmetric and has
        no bits beyond region n - 1 (see _check_packed)."""
        _check_packed(self._packed, self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExposureField) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)
