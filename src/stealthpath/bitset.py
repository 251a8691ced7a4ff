"""Region sets as plain int bitmasks.

Bit i set means region i is a member. Python ints give us arbitrary width,
cheap union/intersection, popcount via int.bit_count, and hashability for
search-state keys. A set a caller hands in passes terrain's region-set rule
(region_set): bit_indices applies it, so a negative int, a bool or a float
is a ValueError rather than a set.
"""

from __future__ import annotations

from typing import Iterable

from .terrain import region_set


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << int(i)  # numpy ints would wrap past bit 63
    return mask


def bit_indices(mask: int, name: str = "mask") -> list[int]:
    """Set-bit positions of the region set mask (region_set, naming `name`)
    in ascending order."""
    mask = region_set(mask, name)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
