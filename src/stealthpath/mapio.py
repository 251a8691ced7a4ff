"""Reading and writing heightmaps and exposure fields.

Heightmaps are plain text: a header line "width height cell_size" followed
by `height` rows of `width` elevations, northernmost row first. Floats are
serialized with repr() so save/load round-trips are byte-identical.

Exposure fields use a small binary container (magic "EXPF"): a u32
little-endian region count, then one ceil(n/8)-byte little-endian bitset row
per region. The loader re-validates reflexivity and symmetry, since a stale
or corrupt cache would silently poison every planner that consumes it.

Every writer applies its reader's rules, so no file written here is
rejected when read back: the cell size (_check_cell_size) and the grid
(_check_elevations) for heightmaps, and the relation (ExposureField.validate,
which every field passes when it is built) for fields.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from .terrain import (ExposureField, GridEnvironment, _check_cell_size, _check_elevations,
                      check_field_matches, compute_exposure_field)

EXPF_MAGIC = b"EXPF"


def format_heightmap(elevations, cell_size: float) -> str:
    cell_size = _check_cell_size(cell_size)
    elev = _check_elevations(elevations)
    height, width = elev.shape
    lines = [f"{width} {height} {cell_size!r}"]
    for r in range(height):
        lines.append(" ".join(repr(float(v)) for v in elev[r]))
    return "\n".join(lines) + "\n"


def save_heightmap(path, elevations, cell_size: float) -> None:
    Path(path).write_text(format_heightmap(elevations, cell_size))


def parse_heightmap(text: str) -> tuple[np.ndarray, float]:
    """Parse heightmap text into (elevations, cell_size)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty heightmap file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"header must be 'width height cell_size', got {lines[0]!r}")
    try:
        width, height = int(head[0]), int(head[1])
        cell_size = float(head[2])
    except ValueError as exc:
        raise ValueError(f"bad heightmap header {lines[0]!r}: {exc}") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"grid dimensions must be positive, got {width}x{height}")
    _check_cell_size(cell_size)
    if len(lines) - 1 != height:
        raise ValueError(f"expected {height} elevation rows, found {len(lines) - 1}")
    elev = np.empty((height, width))
    for r, line in enumerate(lines[1:]):
        vals = line.split()
        if len(vals) != width:
            raise ValueError(f"row {r} has {len(vals)} values, expected {width}")
        try:
            elev[r] = [float(v) for v in vals]
        except ValueError as exc:
            raise ValueError(f"row {r}: {exc}") from None
    return _check_elevations(elev), cell_size


def load_heightmap(path) -> tuple[np.ndarray, float]:
    return parse_heightmap(Path(path).read_text())


def save_exposure_field(path, field: ExposureField) -> None:
    """Write the field atomically: readers see the old file or the whole new
    one, never a partial write."""
    path = Path(path)
    payload = EXPF_MAGIC + struct.pack("<I", field.n) + field.to_packed().tobytes()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_exposure_field(path) -> ExposureField:
    raw = Path(path).read_bytes()
    if raw[:4] != EXPF_MAGIC:
        raise ValueError(f"{path}: not an exposure field file (bad magic)")
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header")
    (n,) = struct.unpack("<I", raw[4:8])
    nbytes = (n + 7) // 8
    body = raw[8:]
    if len(body) != n * nbytes:
        raise ValueError(f"{path}: expected {n * nbytes} row bytes, found {len(body)}")
    packed = np.frombuffer(body, dtype=np.uint8).reshape(n, nbytes)
    return ExposureField.from_packed(packed, n)


def field_cache_path(map_bytes: bytes, d: float, cache_dir) -> Path:
    """Cache location keyed by map content and sensor offset."""
    digest = hashlib.sha256(map_bytes + repr(float(d)).encode()).hexdigest()[:16]
    return Path(cache_dir) / f"{digest}.expf"


def load_or_compute_field(env: GridEnvironment, map_bytes: bytes,
                          cache_dir=None) -> ExposureField:
    """Fetch the environment's exposure field, going through the cache
    keyed by the map's raw bytes unless cache_dir is None.

    A cache entry that does not load as a valid field of the right size is
    a miss: it is reported on stderr and overwritten with a fresh build. A
    cache that cannot be written is reported on stderr too, and the field
    built is returned all the same."""
    cache_path = None if cache_dir is None else field_cache_path(map_bytes, env.d, cache_dir)
    if cache_path is not None and cache_path.exists():
        try:
            field = load_exposure_field(cache_path)
            check_field_matches(env, field)
        except (OSError, ValueError) as exc:
            print(f"warning: ignoring invalid field cache ({exc}); recomputing",
                  file=sys.stderr)
        else:
            return field
    field = compute_exposure_field(env)
    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            save_exposure_field(cache_path, field)
        except OSError as exc:
            print(f"warning: cannot write field cache ({exc})", file=sys.stderr)
    return field
