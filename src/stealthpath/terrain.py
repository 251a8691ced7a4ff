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
reflexive (a region always sees itself) and symmetric. Every structure here
is immutable once built and safe to share across concurrent planner runs.

Movement is separate from sight: regions are traversable neighbours when
they are grid-adjacent (4- or 8-connectivity) and their elevation difference
is within ``max_step``. A region is never traversable to itself.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

LOS_SAMPLES_PER_CELL = 4

# (pairs x samples) elements per call of the sighting kernel in the field
# builder: small enough that its scratch arrays stay in cache.
_LOS_CHUNK_ELEMENTS = 25_000

# rows per strip when ExposureField.validate checks symmetry; a multiple of
# 8, so each strip of columns starts on a byte boundary of the packed rows
_VALIDATE_ROWS = 64

_OFFSETS_4 = ((-1, 0), (0, -1), (0, 1), (1, 0))
_OFFSETS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


class GridEnvironment:
    """A heightmap with precomputed representative points and adjacency."""

    def __init__(self, elevations, cell_size: float = 1.0, d: float = 1.0,
                 max_step: float = math.inf, connectivity: int = 4):
        elev = np.array(elevations, dtype=np.float64)
        if elev.ndim != 2 or elev.size == 0:
            raise ValueError("elevations must be a non-empty 2D grid")
        if not np.isfinite(elev).all():
            raise ValueError("elevations must be finite")
        if not (cell_size > 0 and math.isfinite(cell_size)):
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        if not (d >= 0 and math.isfinite(d)):
            raise ValueError(f"sensor offset d must be non-negative and finite, got {d}")
        if not (isinstance(max_step, (int, float)) and max_step >= 0):
            raise ValueError(f"max_step must be non-negative, got {max_step}")
        if connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")

        elev.setflags(write=False)
        self.elevations = elev
        self.height, self.width = elev.shape
        self.n = elev.size
        self.cell_size = float(cell_size)
        self.d = float(d)
        self.max_step = float(max_step)
        self.connectivity = connectivity

        rows, cols = np.divmod(np.arange(self.n), self.width)
        flat = elev.ravel()
        pts = np.empty((self.n, 3))
        pts[:, 0] = (cols + 0.5) * self.cell_size
        pts[:, 1] = (rows + 0.5) * self.cell_size
        pts[:, 2] = flat + self.d
        pts.setflags(write=False)
        self.points = pts
        # python floats: the per-push heuristic reads these, and indexing
        # a numpy array per coordinate costs several times the arithmetic
        self._point_list = pts.tolist()
        self._elev_flat = flat

        offsets = _OFFSETS_4 if connectivity == 4 else _OFFSETS_8
        nbrs = []
        for i in range(self.n):
            r, c = divmod(i, self.width)
            adj = []
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if 0 <= rr < self.height and 0 <= cc < self.width:
                    j = rr * self.width + cc
                    if abs(flat[j] - flat[i]) <= self.max_step:
                        adj.append(j)
            adj.sort()
            nbrs.append(tuple(adj))
        self._neighbors = tuple(nbrs)

    # -- region bookkeeping ------------------------------------------------

    def index(self, row: int, col: int) -> int:
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise IndexError(f"cell ({row}, {col}) outside {self.height}x{self.width} grid")
        return row * self.width + col

    def rowcol(self, region: int) -> tuple[int, int]:
        self._check(region)
        return divmod(region, self.width)

    def _check(self, region: int) -> None:
        if not (0 <= region < self.n):
            raise IndexError(f"region {region} outside [0, {self.n})")

    def neighbors(self, region: int) -> tuple[int, ...]:
        self._check(region)
        return self._neighbors[region]

    # -- heuristic support -------------------------------------------------

    def min_steps(self, a: int, b: int) -> int:
        """Admissible lower bound on the number of moves between two regions."""
        ra, ca = divmod(a, self.width)
        rb, cb = divmod(b, self.width)
        if self.connectivity == 4:
            return abs(ra - rb) + abs(ca - cb)
        return max(abs(ra - rb), abs(ca - cb))

    def manhattan3(self, a: int, b: int) -> float:
        pa = self._point_list[a]
        pb = self._point_list[b]
        return abs(pa[0] - pb[0]) + abs(pa[1] - pb[1]) + abs(pa[2] - pb[2])


class ExplicitGraph:
    """Planning environment given directly as an adjacency list.

    Used for hand-built scenarios that bypass terrain geometry. Edges are
    symmetrized; representative points are optional and only feed the
    distance heuristics (absent points degrade them to zero, which keeps
    every planner correct, just less guided).
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], points=None):
        if n <= 0:
            raise ValueError("need at least one region")
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) outside [0, {n})")
            if a == b:
                raise ValueError(f"self-edge at region {a}")
            adj[a].add(b)
            adj[b].add(a)
        self.n = n
        self._neighbors = tuple(tuple(sorted(s)) for s in adj)
        if points is not None:
            points = np.asarray(points, dtype=np.float64)
            if points.shape != (n, 3):
                raise ValueError(f"points must be ({n}, 3)")
        self.points = points
        self._point_list = None if points is None else points.tolist()

    def neighbors(self, region: int) -> tuple[int, ...]:
        if not (0 <= region < self.n):
            raise IndexError(f"region {region} outside [0, {self.n})")
        return self._neighbors[region]

    def min_steps(self, a: int, b: int) -> int:
        return 0

    def manhattan3(self, a: int, b: int) -> float:
        if self._point_list is None:
            return 0.0
        pa, pb = self._point_list[a], self._point_list[b]
        return abs(pa[0] - pb[0]) + abs(pa[1] - pb[1]) + abs(pa[2] - pb[2])


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
    if a == b:
        return False
    return b in env.neighbors(a)


# -- line of sight ----------------------------------------------------------

def _work_arrays(size: int):
    """Scratch arrays for _visible_pairs: three float, one index, two bool.

    Fresh temporaries of a batch's size lie above glibc's mmap threshold,
    so each would be mapped, faulted in and unmapped again; the field
    builder reuses one set instead, which makes a build in a fresh process
    about 1.8x faster.
    """
    return (np.empty(size), np.empty(size), np.empty(size), np.empty(size, np.intp),
            np.empty(size, bool), np.empty(size, bool))


def _visible_pairs(env: GridEnvironment, src: np.ndarray, tgt: np.ndarray,
                   work=None) -> np.ndarray:
    """Sampled visibility of each (src[i], tgt[i]) pair, as a bool array.

    This is the single implementation of the sighting rule; the scalar
    line_of_sight wrapper and the field builder both call it, so the two can
    never disagree. Each pair is evaluated from its own endpoints with the
    same float expression whatever else shares the call, so a pair's answer
    does not depend on how the pairs are grouped. Rows are padded to the
    longest ray in the call and the padding is masked out, so callers keep
    the pairs of one call close in length. `work` (from _work_arrays) is
    used when it is large enough for the call.
    """
    pts = env.points
    cell = env.cell_size
    width, height = env.width, env.height
    elev = env._elev_flat
    step = cell / LOS_SAMPLES_PER_CELL

    sx, sy, sz = (pts[src, k, None] for k in range(3))
    dx, dy, dz = (pts[tgt, k, None] - pts[src, k, None] for k in range(3))
    span = np.hypot(dx, dy)

    ks = np.arange(1, int(span.max() / step) + 2) * step
    shape = (len(src), len(ks))
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
    env._check(a)
    env._check(b)
    if a == b:
        return True
    lo, hi = min(a, b), max(a, b)
    return bool(_visible_pairs(env, np.array([lo]), np.array([hi]))[0])


def _pair_batches(height: int, width: int):
    """Every unordered pair of cells as (src, tgt) batches with src < tgt.

    Pairs are grouped by displacement tgt - src, so all pairs of a
    displacement need the same number of ray samples. Displacements run in
    order of length and are packed into batches of about
    _LOS_CHUNK_ELEMENTS (pair x sample) elements; a displacement with more
    than that is split across batches.
    """
    grid = np.arange(height * width).reshape(height, width)
    drs, dcs = np.mgrid[0:height, -(width - 1):width]
    keep = (drs > 0) | (dcs > 0)
    drs, dcs = drs[keep], dcs[keep]
    lengths = np.hypot(drs, dcs)
    srcs: list[np.ndarray] = []
    tgts: list[np.ndarray] = []
    count = 0
    for i in np.argsort(lengths, kind="stable"):
        dr, dc = int(drs[i]), int(dcs[i])
        samples = int(lengths[i] * LOS_SAMPLES_PER_CELL) + 1
        per_batch = max(1, _LOS_CHUNK_ELEMENTS // samples)
        sources = grid[:height - dr, max(0, -dc):width - max(0, dc)].ravel()
        for lo in range(0, len(sources), per_batch):
            piece = sources[lo:lo + per_batch]
            if count and (count + len(piece)) * samples > _LOS_CHUNK_ELEMENTS:
                yield np.concatenate(srcs), np.concatenate(tgts)
                srcs, tgts, count = [], [], 0
            srcs.append(piece)
            tgts.append(piece + (dr * width + dc))
            count += len(piece)
    if srcs:
        yield np.concatenate(srcs), np.concatenate(tgts)


def compute_exposure_field(env: GridEnvironment) -> "ExposureField":
    """All-pairs visibility as an ExposureField.

    Each unordered pair is sampled once, from its lower-indexed region, and
    mirrored, so symmetry holds by construction. O(n^2) pairs with rays
    O(sqrt(n)) samples long: on a 2-core Xeon (Python 3.11, numpy 2.4) a
    30x30 map takes under a second, 50x50 about 11 s and 100x100 five to
    nine minutes (cache it, see the mapio module).
    """
    n = env.n
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    ids = np.arange(n)
    packed[ids, ids >> 3] = (1 << (ids & 7)).astype(np.uint8)
    work = _work_arrays(_LOS_CHUNK_ELEMENTS)
    for src, tgt in _pair_batches(env.height, env.width):
        seen = _visible_pairs(env, src, tgt, work)
        src, tgt = src[seen], tgt[seen]
        # a batch can hold several targets in one byte of a row: ufunc.at
        # applies every one, where a fancy-indexed |= would keep only the last
        np.bitwise_or.at(packed, (src, tgt >> 3), (1 << (tgt & 7)).astype(np.uint8))
        np.bitwise_or.at(packed, (tgt, src >> 3), (1 << (src & 7)).astype(np.uint8))
    rows = [int.from_bytes(packed[i].tobytes(), "little") for i in range(n)]
    return ExposureField(rows)


# -- exposure field ----------------------------------------------------------

class ExposureField:
    """Symmetric, reflexive visibility relation over n regions.

    Row i is an int bitset of every region sharing line of sight with i,
    including i itself. Exposure scores therefore live in [1/n, 1].
    """

    __slots__ = ("n", "rows", "_counts", "_scores", "_members")

    def __init__(self, rows: Sequence[int], validate: bool = False):
        self.n = len(rows)
        if self.n == 0:
            raise ValueError("exposure field needs at least one region")
        # plain ints, never numpy integers: rows must not overflow at n > 63
        self.rows = tuple(int(r) for r in rows)
        self._counts = tuple(r.bit_count() for r in self.rows)
        self._scores = None
        self._members: dict[int, np.ndarray] = {}
        if validate:
            self.validate()

    def _check(self, region: int) -> None:
        if not (0 <= region < self.n):
            raise IndexError(f"region {region} outside [0, {self.n})")

    def exposure_set(self, region: int) -> int:
        """Bitset of regions visible from `region` (reflexive)."""
        self._check(region)
        return self.rows[region]

    def exposure_count(self, region: int) -> int:
        self._check(region)
        return self._counts[region]

    def exposure_score(self, region: int) -> float:
        """Fraction of the map visible from a region, in [1/n, 1]."""
        self._check(region)
        return self._counts[region] / self.n

    def scores(self) -> np.ndarray:
        if self._scores is None:
            arr = np.array(self._counts, dtype=np.float64) / self.n
            arr.setflags(write=False)
            self._scores = arr
        return self._scores

    def min_score(self) -> float:
        return float(min(self._counts)) / self.n

    def members(self, region: int) -> np.ndarray:
        """Visible regions as a sorted index array (cached per region)."""
        self._check(region)
        got = self._members.get(region)
        if got is None:
            nbytes = (self.n + 7) // 8
            raw = np.frombuffer(self.rows[region].to_bytes(nbytes, "little"), dtype=np.uint8)
            got = np.flatnonzero(np.unpackbits(raw, bitorder="little")[:self.n])
            self._members[region] = got
        return got

    def to_packed(self) -> np.ndarray:
        """Rows as a (n, ceil(n/8)) uint8 matrix, little-endian bit order."""
        nbytes = (self.n + 7) // 8
        out = np.empty((self.n, nbytes), dtype=np.uint8)
        for i, row in enumerate(self.rows):
            out[i] = np.frombuffer(row.to_bytes(nbytes, "little"), dtype=np.uint8)
        return out

    @classmethod
    def from_packed(cls, packed: np.ndarray, n: int, validate: bool = True) -> "ExposureField":
        rows = [int.from_bytes(packed[i].tobytes(), "little") for i in range(n)]
        return cls(rows, validate=validate)

    def validate(self) -> None:
        """Check reflexivity and symmetry, raising ValueError on violation.

        Symmetry is checked one strip of _VALIDATE_ROWS rows at a time
        against the matching strip of columns, so the check holds
        O(_VALIDATE_ROWS * n) unpacked bits at once, never the n x n matrix.
        """
        n = self.n
        packed = self.to_packed()
        ids = np.arange(n)
        diagonal = (packed[ids, ids >> 3] >> (ids & 7)) & 1
        if not diagonal.all():
            bad = int(np.flatnonzero(diagonal == 0)[0])
            raise ValueError(f"exposure relation not reflexive at region {bad}")

        def strip(r0, r1, c0, c1):
            raw = packed[r0:r1, c0 >> 3:(c1 + 7) >> 3]
            return np.unpackbits(raw, axis=1, bitorder="little")[:, :c1 - c0]

        for i0 in range(0, n, _VALIDATE_ROWS):
            i1 = min(i0 + _VALIDATE_ROWS, n)
            diff = strip(i0, i1, 0, n) != strip(0, n, i0, i1).T
            if diff.any():
                i, j = (int(v[0]) for v in np.nonzero(diff))
                raise ValueError(f"exposure relation not symmetric at pair ({i + i0}, {j})")
        if any(r >> n for r in self.rows):
            raise ValueError("exposure row has bits beyond the region count")

    def __eq__(self, other) -> bool:
        return isinstance(other, ExposureField) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)
