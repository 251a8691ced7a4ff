"""Benchmark harness: map families, oracles, and the experiment protocol.

Two procedural map families exercise opposite terrain regimes. Boxes maps
are flat plains with tall rectangular blocks: zero gradient almost
everywhere, hard occlusion edges, movement blocked at the walls. Hills maps
are sums of smooth Gaussian bumps, rescaled so every adjacent step stays
climbable: no hard walls, but plenty of local visibility minima to hide in.

Generated maps default to a 10 m cell pitch (DEFAULT_CELL_SIZE); the box
and bump heights above are tuned to occlude a sensor 1 m off the ground at
that pitch. A 1 m elevation step (DEFAULT_MAX_STEP) is the climbability
limit used by the experiment harness, which box walls exceed and rescaled
hills never hit.

The harness also carries a small hand-authored 13-region fixture whose
optimal paths differ from their own optimal sub-paths, plus a brute-force
path enumerator used as the independent oracle for plan_exact.

run_experiment executes the full query protocol: seeded start/goal pairs,
every requested planner (the saturation planner fanned out over a tau
sweep), per-query runtime ratios against the exposure-agnostic baseline,
optimality gaps where the exact planner finished, and corridor widths.
ExperimentConfig checks only what is its own: known names, lists that are
non-empty and repeat no entry, and workers against timing. Every other value
passes the rule of the code that reads it (_KEY_RULES); the map size's is
_check_size here, which both generators call, and both check their seed
with the integer rule _integer, as _KEY_RULES does.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bitset import mask_from_indices
from .corridor import build_corridor
from .search import (ALGORITHMS, DEFAULT_NODE_BUDGET, DEFAULT_P_SUCCESS, FOUND,
                     _check_p, _check_tau, obj_bin, plan, plan_shortest, score_path)
# Bound here though unused: perfbench/tracing.py wraps the planners and
# objectives by name in this module as well as in search.
from .search import (obj_acc, path_counts, plan_binary, plan_ess,  # noqa: F401
                     plan_exact, plan_saturation)
from .terrain import (ExplicitGraph, ExposureField, _check_cell_size, _check_d,
                      _check_max_step, _integer, build_environment, compute_exposure_field,
                      region_id)

DEFAULT_CELL_SIZE = 10.0
DEFAULT_MAX_STEP = 1.0
BOX_HEIGHT = 3.0
MIN_MAP_SIZE = 10
MAX_MAP_SIZE = 200  # 40,000 regions, whose packed field is 200 MB
TAU_SWEEP = (1, 2, 3, 4, 5, 10, 15, 20, 25, 50, 100, 200)

MAP_KINDS = ("boxes", "hills")


# -- map generators -----------------------------------------------------------

def _check_size(size) -> int:
    """The map-size rule, for both generators and the experiment's sizes: an
    integer (terrain's _integer) in [MIN_MAP_SIZE, MAX_MAP_SIZE]."""
    return _integer("size", size, MIN_MAP_SIZE, MAX_MAP_SIZE)


def gen_boxes(seed: int, size: int) -> np.ndarray:
    """Flat plain studded with solid rectangular blocks.

    Blocks are BOX_HEIGHT tall (well past DEFAULT_MAX_STEP, so their walls
    stop movement), rest fully inside the border, and keep a one-cell gap
    from each other so every wall cell stays reachable. The first block
    drawn has nothing to clear, so every map has at least one.
    """
    size = _check_size(size)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    elev = np.zeros((size, size))
    placed: list[tuple[int, int, int, int]] = []
    want = max(3, size * size // 250)
    side_max = max(3, size // 8)
    tries = 0
    while len(placed) < want and tries < 1000:
        tries += 1
        w = int(rng.integers(2, side_max + 1))
        h = int(rng.integers(2, side_max + 1))
        r = int(rng.integers(1, size - h))
        c = int(rng.integers(1, size - w))
        clear = all(not (r - 1 <= pr + ph and pr - 1 <= r + h
                         and c - 1 <= pc + pw and pc - 1 <= c + w)
                    for pr, pc, ph, pw in placed)
        if clear:
            placed.append((r, c, h, w))
            elev[r:r + h, c:c + w] = BOX_HEIGHT
    return elev


def gen_hills(seed: int, size: int) -> np.ndarray:
    """Smooth terrain from random Gaussian bumps.

    Bump heights are drawn uniformly from [5, 15). After summing the bumps,
    elevations are rescaled if needed so the steepest adjacent step is 0.9,
    keeping the whole map traversable under DEFAULT_MAX_STEP.
    """
    size = _check_size(size)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    x, y = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    elev = np.zeros((size, size))
    for _ in range(max(3, size // 6)):
        cx, cy = rng.uniform(0, size, 2)
        amp = rng.uniform(5.0, 15.0)
        sig2 = rng.uniform(size / 20, size / 10) ** 2
        elev += amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sig2))
    dmax = max(np.abs(np.diff(elev, axis=0)).max(),
               np.abs(np.diff(elev, axis=1)).max())
    if dmax > 0.9:
        elev *= 0.9 / dmax
    return elev


def generate_map(kind: str, seed: int, size: int) -> np.ndarray:
    if kind == "boxes":
        return gen_boxes(seed, size)
    if kind == "hills":
        return gen_hills(seed, size)
    raise ValueError(f"unknown map kind {kind!r}, expected one of {MAP_KINDS}")


# -- 13-region fixture --------------------------------------------------------

# Sight and movement relations for the built-in fixture. Obstacles in it
# block only movement, which is what makes optimal paths non-Markovian:
# the best F->H route and the best F->E route disagree about how to leave F.
_FIXTURE_SIGHT = {
    "A": "ABDH",
    "B": "ABC",
    "C": "BCF",
    "D": "ADE",
    "E": "DEIJ",
    "F": "CFIJ",
    "G": "GHI",
    "H": "AGHIKLM",
    "I": "EFGHI",
    "J": "EFJKLM",
    "K": "HJKLM",
    "L": "HJKLM",
    "M": "HJKLM",
}
_FIXTURE_MOVES = ("AB", "AD", "BC", "CF", "DE", "DH", "EI", "IJ", "JF")

FIXTURE_NAMES = "ABCDEFGHIJKLM"


@dataclass(frozen=True)
class FixtureGraph:
    """The 13-region demonstration world, regions named A through M."""

    graph: ExplicitGraph
    field: ExposureField
    names: str = FIXTURE_NAMES

    def index(self, name: str) -> int:
        name = name.upper()
        if len(name) != 1 or name not in self.names:
            raise ValueError(f"region name must be one of {self.names}, got {name!r}")
        return self.names.index(name)

    def path_names(self, path: Sequence[int]) -> str:
        return "".join(self.names[r] for r in path)


def lemma1_fixture() -> FixtureGraph:
    idx = {c: i for i, c in enumerate(FIXTURE_NAMES)}
    rows = [mask_from_indices(idx[c] for c in _FIXTURE_SIGHT[name])
            for name in FIXTURE_NAMES]
    edges = [(idx[a], idx[b]) for a, b in _FIXTURE_MOVES]
    graph = ExplicitGraph(len(FIXTURE_NAMES), edges)
    return FixtureGraph(graph, ExposureField(rows))


# -- oracles ------------------------------------------------------------------

class OracleOverflowError(RuntimeError):
    """Raised when brute-force path enumeration exceeds its step limit."""


def brute_force_min_exposure(env, field, s: int, g: int,
                             step_limit: int = 5_000_000) -> Optional[int]:
    """Minimum obj_bin over every simple traversable path from s to g.

    Depth-first enumeration with a branch-and-bound cut (unions only grow,
    so a partial path already at the incumbent can be dropped). Exponential;
    meant for cross-checking plan_exact on instances of toy size. Returns
    None when no path exists.
    """
    s, g = region_id(env.n, s, "start region"), region_id(env.n, g, "goal region")
    best: Optional[int] = None
    steps = 0

    def dfs(region: int, visited: int, union: int) -> None:
        nonlocal best, steps
        steps += 1
        if steps > step_limit:
            raise OracleOverflowError(
                f"path enumeration exceeded {step_limit} steps")
        exposed = union.bit_count()
        if best is not None and exposed >= best:
            return
        if region == g:
            best = exposed
            return
        for nb in env.adjacency[region]:
            bit = 1 << nb
            if visited & bit:
                continue
            dfs(nb, visited | bit, union | field.rows[nb])

    dfs(s, 1 << s, field.rows[s])
    return best


def optimality_gap(exposed_alg: float, exposed_exact: float, n: int) -> float:
    """Extra exposure relative to the optimum, in percent of the map."""
    if n <= 0:
        raise ValueError(f"region count must be positive, got {n}")
    return 100.0 * (exposed_alg - exposed_exact) / n


# -- query sampling -----------------------------------------------------------

def component_labels(env) -> np.ndarray:
    """Traversability component id per region (each isolated region its own)."""
    labels = np.full(env.n, -1, dtype=np.int64)
    nxt = 0
    for i in range(env.n):
        if labels[i] >= 0:
            continue
        labels[i] = nxt
        stack = [i]
        while stack:
            u = stack.pop()
            for v in env.adjacency[u]:
                if labels[v] < 0:
                    labels[v] = nxt
                    stack.append(v)
        nxt += 1
    return labels


def sample_query(env, rng: np.random.Generator,
                 labels: Optional[np.ndarray] = None) -> tuple[int, int]:
    """Uniform start/goal pair over distinct, mutually reachable regions.

    Raises ValueError when there is no such pair, i.e. when no region has a
    traversable neighbour.
    """
    if not any(env.adjacency):
        raise ValueError("no region has a traversable neighbour, so no "
                         "start/goal pair is reachable")
    if labels is None:
        labels = component_labels(env)
    while True:
        s, g = (int(v) for v in rng.integers(0, env.n, 2))
        if s != g and env.adjacency[s] and labels[s] == labels[g]:
            return s, g


# -- experiment protocol ------------------------------------------------------

class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad key."""


@dataclass(frozen=True)
class ExperimentConfig:
    kinds: tuple[str, ...] = MAP_KINDS
    sizes: tuple[int, ...] = (50,)
    seeds: tuple[int, ...] = (1, 2, 3)
    queries: int = 10
    algorithms: tuple[str, ...] = ALGORITHMS
    taus: tuple[int, ...] = TAU_SWEEP
    p_success: float = DEFAULT_P_SUCCESS
    node_budget: int = DEFAULT_NODE_BUDGET
    cell_size: float = DEFAULT_CELL_SIZE
    max_step: float = DEFAULT_MAX_STEP
    d: float = 1.0
    query_seed: int = 0
    workers: int = 1
    timing: bool = True

    def __post_init__(self):
        """Raise ConfigError, naming the config file's key, for a value no
        experiment can run with: every value is checked here, before the
        first map is built, and stored as its field's rule returns it."""
        for key, rule in _KEY_RULES.items():
            name = _CONFIG_KEYS.get(key, key)
            try:
                object.__setattr__(self, name, rule(getattr(self, name)))
            except ValueError as exc:
                raise ConfigError(f"config key '{key}': {exc}") from None
        for kind in self.kinds:
            if kind not in MAP_KINDS:
                raise ConfigError(f"config key 'maps': unknown kind '{kind}'")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(f"config key 'algorithms': unknown algorithm '{alg}'")
        for key, values in (("maps", self.kinds), ("sizes", self.sizes), ("seeds", self.seeds),
                            ("algorithms", self.algorithms), ("taus", self.taus)):
            if not values and (key != "taus" or "saturation" in self.algorithms):
                raise ConfigError(f"config key '{key}': must list at least one entry"
                                  + " when algorithms include saturation" * (key == "taus"))
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"config key '{key}': {value!r} is listed twice")
        if self.workers > 1 and self.timing:
            raise ConfigError(f"config key 'workers': must be 1 while timing is on, "
                              f"got {self.workers}")


_TRUE_WORDS, _FALSE_WORDS = ("true", "yes", "on", "1"), ("false", "no", "off", "0")


def _check_timing(timing) -> bool:
    """The timing rule: a bool, 0 or 1, or a word above in any case, as a bool."""
    word = str(timing).lower() if isinstance(timing, (str, int, np.integer, np.bool_)) else ""
    if word not in _TRUE_WORDS + _FALSE_WORDS:
        raise ValueError(f"timing must be a boolean: {'/'.join(_TRUE_WORDS)} or "
                         f"{'/'.join(_FALSE_WORDS)}, got {timing!r}")
    return word in _TRUE_WORDS


# Each key's rule, from the code that reads its value, for every key but the
# lists of names: the value as that code takes it (a whole float as an int),
# else a ValueError. A list's rule checks each entry.
_KEY_RULES = {
    "sizes": lambda sizes: tuple(map(_check_size, sizes)),
    "seeds": lambda seeds: tuple(_integer("seed", seed, 0) for seed in seeds),
    "queries": lambda queries: _integer("queries", queries, 0),
    "taus": lambda taus: tuple(map(_check_tau, taus)),
    "p_success": _check_p,
    "budget": lambda budget: _integer("node_budget", budget),
    "cell_size": _check_cell_size,
    "max_step": _check_max_step,
    "d": _check_d,
    "query_seed": lambda seed: _integer("query_seed", seed, 0),
    "workers": lambda workers: _integer("workers", workers),
    "timing": _check_timing,
}

# Each config key names an ExperimentConfig field, but for these two.
_CONFIG_KEYS = {"maps": "kinds", "budget": "node_budget"}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment."""
    mapping: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise ConfigError(f"duplicate config key '{key}'")
        mapping[key] = value
    return mapping


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    kwargs: dict = {}
    for key, value in mapping.items():
        field_name = _CONFIG_KEYS.get(key, key)
        if field_name not in defaults or key in _CONFIG_KEYS.values():
            raise ConfigError(f"unknown config key '{key}'")
        kwargs[field_name] = _parse_config_value(defaults[field_name], value)
    return ExperimentConfig(**kwargs)


def _parse_config_value(default, value: str):
    """A value, split at commas if its field is a list (a tuple default), each
    word the number it spells (number) or else the word itself."""
    if isinstance(default, tuple):
        return tuple(_parse_config_value(None, v.strip()) for v in value.split(",") if v.strip())
    with contextlib.suppress(ValueError):
        return number(value)
    return value


def number(word: str):
    """The number a word spells, for its rule to judge: an int if int() reads
    it, else a float if float() does (1e5, inf, nan), else a ValueError."""
    try:
        return int(word)
    except ValueError:
        return float(word)


def _query_cells(config: ExperimentConfig) -> list[tuple[str, Optional[int]]]:
    """(algorithm, tau) of each planner call per query: saturation once per tau."""
    return [(alg, tau) for alg in config.algorithms
            for tau in (config.taus if alg == "saturation" else [None])]


def _map_records(args: tuple[ExperimentConfig, int, tuple[str, str, int, int]]) -> list[dict]:
    config, map_index, (map_id, kind, size, seed) = args
    elev = generate_map(kind, seed, size)
    env = build_environment(elev, cell_size=config.cell_size, d=config.d,
                            max_step=config.max_step)
    field = compute_exposure_field(env)
    labels = component_labels(env)
    rng = np.random.default_rng([config.query_seed, map_index])
    cells = _query_cells(config)

    records: list[dict] = []
    for qi in range(config.queries):
        s, g = sample_query(env, rng, labels)
        base = plan_shortest(env, field, s, g)
        base_time = max(base.runtime, 1e-9)

        results = []
        exact_obj: Optional[int] = None
        for alg, tau in cells:
            if alg == "shortest":
                res, err = base, None
            else:
                try:
                    res, err = plan(alg, env, field, s, g, tau=tau,
                                    p_success=config.p_success,
                                    node_budget=config.node_budget), None
                except Exception as exc:  # per-cell failures must not abort the batch
                    res, err = None, f"{type(exc).__name__}: {exc}"
            if res is not None and alg == "exact" and res.status == FOUND:
                exact_obj = obj_bin(field, res.path)
            results.append((alg, tau, res, err))

        for alg, tau, res, err in results:
            rec = {
                "map": map_id,
                "kind": kind,
                "size": size,
                "map_seed": seed,
                "query": qi,
                "start": s,
                "goal": g,
                "algorithm": alg,
                "tau": tau,
                "p_success": config.p_success if alg == "saturation" else None,
                "status": "error" if res is None else res.status,
                "error": err,
                "path_len": None,
                "obj_bin": None,
                "obj_acc": None,
                "optimality_gap": None,
                "runtime_ratio": None,
                "avg_width": None,
                "expansions": 0 if res is None else res.expansions,
                "runtime_s": None if res is None else res.runtime,
            }
            if res is not None:
                rec["runtime_ratio"] = res.runtime / base_time
                if res.status == FOUND:
                    rec["path_len"] = len(res.path)
                    rec["obj_bin"], rec["obj_acc"] = score_path(
                        field, res.path, tau, config.p_success)
                    rec["avg_width"] = build_corridor(env, field, res.path).avg_width
                    if exact_obj is not None:
                        rec["optimality_gap"] = optimality_gap(
                            rec["obj_bin"], exact_obj, env.n)
            records.append(rec)
    return records


def run_experiment(config: ExperimentConfig,
                   progress: Optional[Callable[[str, int, int], None]] = None) -> list[dict]:
    """Run the full protocol; one record per (query, algorithm-parameter) cell.

    Records arrive in deterministic cell order: maps in config order, then
    query index, then algorithm cell. With workers > 1 and timing disabled,
    maps run in a process pool; timed runs stay sequential so runtime ratios
    are not distorted by core contention (the config rejects workers > 1
    with timing on).
    """
    maps = [(f"{kind}-{size}x{size}-seed{seed}", kind, size, seed)
            for kind in config.kinds for size in config.sizes for seed in config.seeds]
    jobs = [(config, mi, m) for mi, m in enumerate(maps)]
    parallel = config.workers > 1
    if parallel:
        # imported here: it adds 10-30 ms to a plain `import stealthpath`
        from concurrent.futures import ProcessPoolExecutor
    records: list[dict] = []
    with ProcessPoolExecutor(config.workers) if parallel else contextlib.nullcontext() as pool:
        for i, chunk in enumerate(pool.map(_map_records, jobs) if parallel
                                  else map(_map_records, jobs)):
            records.extend(chunk)
            if progress is not None:
                progress(maps[i][0], i + 1, len(maps))
    return records


# -- record output ------------------------------------------------------------

JSONL_SCHEMA = "exposure-bench-records"
JSONL_VERSION = 1


def write_records_jsonl(path, records: list[dict], config: ExperimentConfig) -> None:
    header = {
        "schema": JSONL_SCHEMA,
        "version": JSONL_VERSION,
        "config": dataclasses.asdict(config),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def load_records_jsonl(path) -> tuple[dict, list[dict]]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: missing header line")
    header = json.loads(lines[0])
    if header.get("schema") != JSONL_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {header.get('schema')!r}")
    return header, [json.loads(ln) for ln in lines[1:]]


def write_summary_csv(path, records: list[dict]) -> None:
    """Median and quartiles of gap, runtime ratio, and width per
    (kind, algorithm, tau) group."""
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["kind"], rec["algorithm"], rec["tau"]), []).append(rec)

    def quartiles(values: list) -> list[str]:
        vals = [v for v in values if v is not None]
        if not vals:
            return ["", "", ""]
        return [f"{np.percentile(vals, q):.6g}" for q in (50, 25, 75)]

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "algorithm", "tau", "cells", "found",
                         "gap_median", "gap_q1", "gap_q3",
                         "ratio_median", "ratio_q1", "ratio_q3",
                         "width_median", "width_q1", "width_q3"])
        order = sorted(groups, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2]))
        for key in order:
            recs = groups[key]
            found = [r for r in recs if r["status"] == FOUND]
            row = [key[0], key[1], "" if key[2] is None else key[2],
                   len(recs), len(found)]
            row += quartiles([r["optimality_gap"] for r in found])
            row += quartiles([r["runtime_ratio"] for r in recs])
            row += quartiles([r["avg_width"] for r in found])
            writer.writerow(row)
