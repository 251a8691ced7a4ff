"""Grayscale rendering of exposure maps as binary PGM images.

One pixel per region, pixel value = round(255 * (1 - exposure score)), so
heavily seen basins come out dark and sheltered pockets light. Overlays
paint path cells pure black and corridor cells pure white; the path is
painted last so it stays visible inside its own corridor.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bitset import bit_indices
from .terrain import check_field_matches, path_ids, region_id

PATH_PIXEL = 0
CORRIDOR_PIXEL = 255


def exposure_image(env, field) -> np.ndarray:
    """Exposure scores as a (height, width) uint8 image."""
    check_field_matches(env, field)
    levels = np.rint(255.0 * (1.0 - field.scores())).astype(np.uint8)
    return levels.reshape(env.height, env.width)


def overlay_corridor(image: np.ndarray, env, corridor_mask: int) -> np.ndarray:
    out = image.copy()
    for r in bit_indices(corridor_mask):
        out[divmod(region_id(env.n, r, "corridor region"), env.width)] = CORRIDOR_PIXEL
    return out


def overlay_path(image: np.ndarray, env, path: Sequence[int]) -> np.ndarray:
    out = image.copy()
    for r in path_ids(env.n, path):
        out[divmod(r, env.width)] = PATH_PIXEL
    return out


def compose(env, field, path: Optional[Sequence[int]] = None,
            corridor_mask: Optional[int] = None) -> np.ndarray:
    image = exposure_image(env, field)
    if corridor_mask is not None:
        image = overlay_corridor(image, env, corridor_mask)
    if path is not None:
        image = overlay_path(image, env, path)
    return image


def write_pgm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("image must be a 2D uint8 array")
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())


def load_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    # P5 header: magic, width, height, maxval as whitespace-separated ASCII
    # tokens, optional '#' comment lines, then a single whitespace byte
    match = re.match(rb"P5\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s",
                     raw)
    if not match:
        raise ValueError(f"{path}: not a binary PGM file")
    width, height, maxval = (int(match.group(i)) for i in (1, 2, 3))
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    body = raw[match.end():]
    if len(body) != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width)
