"""Output checks and stored expected values.

Every check raises CheckError with a message naming what was wrong; the
workload counts the operation whose output failed as failed. Checks run
outside the timed parts and with tracing switched off.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# The binary and saturation cost identities held to 3e-14 when this
# benchmark was written; anything past this is a wrong cost, not rounding.
COST_TOL = 1e-9

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
RUNTIME_FIELDS = ("runtime_s", "runtime_ratio")
# workloads whose inputs do not depend on the seed, so their stored
# values apply to every seed, not only to seed 0
SEED_FREE = ("experiment-small",)


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_path(sp, env, result, s: int, g: int) -> list[int]:
    """A found result whose path is traversable and runs from s to g."""
    require(result.status == sp.search.FOUND,
            f"{result.algorithm} {s}->{g}: status {result.status}")
    path = result.path
    require(len(path) >= 1 and path[0] == s and path[-1] == g,
            f"{result.algorithm} {s}->{g}: path does not run from start to goal")
    try:
        sp.search.validate_path(env, path)
    except ValueError as exc:
        raise CheckError(f"{result.algorithm} {s}->{g}: {exc}") from None
    return path


def binary_identity(sp, env, field, result) -> None:
    """cost == obj_bin(path) - |E(s)| + m * (len - 1), m = 1 / (2n)."""
    path = result.path
    m = result.params.get("m", 1.0 / (2 * env.n))
    want = (sp.search.obj_bin(field, path) - field.exposure_count(path[0])
            + m * (len(path) - 1))
    require(abs(result.cost - want) <= COST_TOL,
            f"binary {path[0]}->{path[-1]}: cost {result.cost!r} != {want!r}")


def saturation_identity(sp, field, result, tau: int, p_success: float) -> None:
    """cost == obj_acc(path_counts(path)) - obj_acc(path_counts([s]))."""
    path = result.path
    obj = sp.search.obj_acc
    counts = sp.search.path_counts
    want = (obj(counts(field, path, tau), p_success, tau)
            - obj(counts(field, path[:1], tau), p_success, tau))
    require(abs(result.cost - want) <= COST_TOL,
            f"saturation {path[0]}->{path[-1]}: cost {result.cost!r} != {want!r}")


def check_corridor(field, path, cor) -> None:
    """The corridor holds its path and every corridor row fits inside K."""
    exposed = 0
    for r in path:
        exposed |= field.rows[r]
    require(cor.exposed == exposed, "corridor: exposed set is not the union along the path")
    for r in path:
        require(cor.corridor >> r & 1, f"corridor misses path region {r}")
    rest = ~exposed
    mask = cor.corridor
    while mask:
        low = mask & -mask
        r = low.bit_length() - 1
        require(field.rows[r] & rest == 0, f"corridor region {r} sees outside the exposed set")
        mask ^= low


def field_digest(field) -> str:
    return hashlib.sha256(field.to_packed().tobytes()).hexdigest()


def record_digest(rec: dict) -> str:
    """Digest of a records.jsonl row minus its timing fields and its gap."""
    kept = {k: v for k, v in rec.items()
            if k not in RUNTIME_FIELDS and k != "optimality_gap"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


class PathDigest:
    """Running sha256 over one planner's paths on one map."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, s: int, g: int, path) -> None:
        self._h.update(f"{s},{g}:{','.join(map(str, path))};".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def compare_expected(workload: str, got: dict) -> list[str]:
    """Mismatches between this run's values and the stored ones.

    Exact optima and records may gain entries (the exact planner may solve
    more queries), but no stored entry may change or disappear.
    """
    path = EXPECTED_DIR / f"{workload}.json"
    try:
        want = json.loads(path.read_text())
    except FileNotFoundError:
        return [f"no stored expected values at {path.name}"]
    problems = []
    for key in ("fields", "paths"):
        for name, value in want.get(key, {}).items():
            if got.get(key, {}).get(name) != value:
                problems.append(f"{key}/{name}: {got.get(key, {}).get(name)} != stored {value}")
    for name, value in want.get("exact_optima", {}).items():
        if got.get("exact_optima", {}).get(name) != value:
            problems.append(f"exact optimum {name}: {got.get('exact_optima', {}).get(name)} "
                            f"!= stored {value}")
    for name, (digest, gap) in want.get("records", {}).items():
        now = got.get("records", {}).get(name)
        if now is None or now[0] != digest:
            problems.append(f"record {name} differs from the stored one")
        elif gap is not None and now[1] != gap:
            problems.append(f"record {name}: optimality gap {now[1]} != stored {gap}")
    return problems


def write_expected(workload: str, got: dict) -> Path:
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    return path
