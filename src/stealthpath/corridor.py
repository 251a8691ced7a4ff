"""Equal-exposure corridors around a seed path.

A path pays for every region it is seen from; that bill is the exposed set
K. Any region whose entire exposure set already lies inside K can be walked
without being seen from anywhere new, so the corridor C collects exactly
those regions. A teammate moving inside C never leaks line of sight past
what the seed path has already spent.

C is a pure visibility construct: by default it is not filtered down to the
regions actually reachable from the seed path, since unreachable-but-silent
regions are still silent. build_corridor(connected_only=True) applies the
reachability filter for consumers that need to move through the corridor.

exposed_set and build_corridor check the seed path once, by terrain's one
region rule (path_ids); everything after it reads the raw tables and the
checked Python ints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .bitset import bit_indices, mask_from_indices
from .terrain import check_field_matches, path_ids


def exposed_set(field, path: Sequence[int]) -> int:
    """Bitset of every region the path is visible from (the set K)."""
    return _union(field.rows, path_ids(field.n, path))


def _union(rows, ids: Sequence[int]) -> int:
    acc = 0
    for r in ids:
        acc |= rows[r]
    return acc


def corridor(field, exposed: int) -> int:
    """Bitset of regions whose exposure sets fit inside the exposed set,
    tested by the field on its packed view (ExposureField._rows_within).
    The relation is symmetric, so a region fits exactly when no region
    outside the exposed set sees it: the test ORs only the rows outside."""
    if exposed == 0:
        raise ValueError("exposed set is empty")
    return field._rows_within(exposed)


def average_width(corridor_mask: int, path: Sequence[int]) -> float:
    """Corridor cells per seed-path step: |C| / len(path)."""
    if len(path) == 0:
        raise ValueError("empty path")
    return corridor_mask.bit_count() / len(path)


@dataclass(frozen=True)
class Corridor:
    seed_path: tuple[int, ...]
    exposed: int
    corridor: int
    avg_width: float


def build_corridor(env, field, path: Sequence[int],
                   connected_only: bool = False) -> Corridor:
    """Compute K, C and the width statistic for a seed path.

    connected_only keeps only corridor regions reachable from the path by
    moves that stay inside the corridor.
    """
    check_field_matches(env, field)
    path = path_ids(field.n, path)
    k_mask = _union(field.rows, path)
    c_mask = corridor(field, k_mask)
    if connected_only:
        c_mask = _reachable_within(env, c_mask, path)
    return Corridor(tuple(path), k_mask, c_mask, average_width(c_mask, path))


def _reachable_within(env, mask: int, seeds: Sequence[int]) -> int:
    queue = deque(set(seeds))
    reached = mask_from_indices(seeds)
    while queue:
        r = queue.popleft()
        for nb in env.adjacency[r]:
            bit = 1 << nb
            if mask & bit and not reached & bit:
                reached |= bit
                queue.append(nb)
    return reached


def corridor_record(c: Corridor) -> dict:
    return {
        "seed_path": list(c.seed_path),
        "exposed": bit_indices(c.exposed),
        "corridor": bit_indices(c.corridor),
        "avg_width": c.avg_width,
    }
