"""The three workloads, run in a child process of perfbench/run.py.

    python3 perfbench/workloads.py --phase {prep,measure} --workload NAME
        --seed N --seconds S --trace {0,1} --work DIR --cache DIR --budget-s B

Writes DIR/<phase>.json. `prep` only builds the query-warm caches in
--cache; its time and memory stay out of every metric because it is its
own process.
`measure` repeats the workload's fixed round while the next round is
expected to end within S seconds (and within B), checks the outputs outside
the timed part, and with --trace 1 adds one traced round.

One process, one thread, one closed-loop client: each call starts only
after the previous one has returned.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stealthpath  # noqa: E402
from stealthpath import bench, cli, mapio, render, search, terrain  # noqa: E402

# the package re-exports a function named `corridor` over its submodule
corridor = importlib.import_module("stealthpath.corridor")

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError, require  # noqa: E402

# checks.py and tracing.py take the modules as an argument: run.py imports
# them too and must not load the program itself
SP = SimpleNamespace(bench=bench, cli=cli, corridor=corridor, mapio=mapio,
                     render=render, search=search, terrain=terrain)

WORKLOADS = ("field-cold", "query-warm", "experiment-small")

# Fixed here rather than read from the program, so the inputs stay put.
CELL_SIZE = 10.0
MAX_STEP = 1.0
SENSOR_D = 1.0
P_SUCCESS = 0.95
LARGE = 40
# field-cold opens four mid-size maps rather than two 40x40 ones, so that the
# reference kernel, sampled after each map, is never more than about 2 s away
# from the work it scales
FIELD_SIZE = 30
FIELD_MAPS = 4
QW_MAP_SEED = 7
SMALL = 20
QUERIES_PER_MAP = 500
SAT_TAU = 5
# candidates drawn per query kept, see draw_queries
QUERY_STRATA = 8
EX_SETUP_REPS = 3
EX_MAP_SEEDS = 3
EX_QUERIES = 10
EX_TAUS = (1, 5, 25)
EX_BUDGET = 60000
MAX_FAILURE_NOTES = 50
# query-warm samples the reference kernel every REF_EVERY queries
REF_EVERY = 100
# the field builder streams large arrays, the planners work in cache
REF_KIND = {"field-cold": "memory", "query-warm": "cache", "experiment-small": "cache"}


def _now() -> float:
    return time.perf_counter()


class Run:
    """Timings, counts and failures of one measuring process."""

    def __init__(self, args):
        self.args = args
        self.work = Path(args.work)
        self.times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.expected: dict = {}
        # filled by the workload's rounds and checks
        self.counts: dict[str, int] = {}
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.corridor_cells: list[int] = []
        self.query_walls: list[float] = []
        self.query_calls: list[int] = []
        self.ex_opened: list = []
        self.cache_bytes: dict[str, int] = {}
        self.tracer = None  # set during the traced round
        self.kernel = None  # the "memory" kernel's process while measuring
        self.ref_samples: list[float] = []
        self.ref_spent = 0.0  # reference time inside rounds, left out of walls
        # the first and the traced round are checked in full; later rounds
        # must reproduce the first round's digests exactly
        self.full_checks = True

    def reference(self) -> None:
        """Sample the reference kernel, except in the traced round."""
        if self.tracer is None:
            t0 = _now()
            if self.kernel is None:
                self.ref_samples.append(reference.kernel_seconds("cache"))
            else:
                self.ref_samples.append(self.kernel.seconds())
            self.ref_spent += _now() - t0

    def call(self, key: str, fn, *a, **kw):
        t0 = _now()
        out = fn(*a, **kw)
        self.times[key].append(_now() - t0)
        return out

    def count_plan(self, alg: str, expansions: int) -> None:
        for key, add in ((f"search.{alg}.calls", 1), (f"search.{alg}.expansions", expansions)):
            self.counts[key] = self.counts.get(key, 0) + add

    def fail(self, what: str, exc: BaseException, ops: int = 1) -> None:
        self.failed += ops
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def check(self, what: str, fn, *a, **kw):
        """Check an attempted operation's output; a raise fails the operation."""
        try:
            return fn(*a, **kw)
        except Exception as exc:  # a failing operation must not end the run
            self.fail(what, exc)
            return None

    def note_expected(self, key: str, name: str, value) -> None:
        """Keep a value for the stored-value comparison; rounds must agree."""
        slot = self.expected.setdefault(key, {})
        if name in slot and slot[name] != value:
            self.check(f"rounds agree on {key}/{name}", require, False,
                       "a later round produced a different value")
        slot[name] = value


# -- inputs ------------------------------------------------------------------

def map_specs(workload: str, seed: int) -> list[tuple[str, int, int]]:
    """(kind, map seed, size) of every map the workload opens.

    Only field-cold draws its maps from the seed: its cost is set by the
    grid size alone. The cost of query-warm and experiment-small depends
    strongly on the map (and, for the exact planner, on which queries hit
    the budget), so they keep fixed maps; query-warm draws its queries from
    the seed and experiment-small is the same fixed config for every seed.
    """
    if workload == "experiment-small":
        return [(kind, k, SMALL) for kind in ("boxes", "hills")
                for k in range(1, EX_MAP_SEEDS + 1)]
    if workload == "query-warm":
        return [("boxes", QW_MAP_SEED, LARGE), ("hills", QW_MAP_SEED, LARGE)]
    return [(("boxes", "hills")[k % 2], 1000 * seed + k + 1, FIELD_SIZE)
            for k in range(FIELD_MAPS)]


def write_maps(run: Run) -> list[tuple[str, Path]]:
    """Generate the workload's heightmaps and write them as text files."""
    out = []
    folder = run.work / "maps"
    folder.mkdir(parents=True, exist_ok=True)
    for kind, map_seed, size in map_specs(run.args.workload, run.args.seed):
        name = f"{kind}-{size}x{size}-seed{map_seed}"
        path = folder / f"{name}.txt"
        path.write_text(mapio.format_heightmap(bench.generate_map(kind, map_seed, size),
                                               CELL_SIZE))
        out.append((name, path))
    return out


def experiment_config(run: Run) -> Path:
    seeds = ", ".join(str(k) for k in range(1, EX_MAP_SEEDS + 1))
    text = "\n".join([
        "maps = boxes, hills",
        f"sizes = {SMALL}",
        f"seeds = {seeds}",
        f"queries = {EX_QUERIES}",
        "algorithms = shortest, ess, binary, saturation, exact",
        f"taus = {', '.join(map(str, EX_TAUS))}",
        f"p_success = {P_SUCCESS}",
        f"budget = {EX_BUDGET}",
        "query_seed = 0",
        "workers = 1",
        "timing = on",
    ]) + "\n"
    path = run.work / "experiment.cfg"
    path.write_text(text)
    return path


def components(env) -> list[int]:
    label = [-1] * env.n
    for root in range(env.n):
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            u = stack.pop()
            for v in env.neighbors(u):
                if label[v] < 0:
                    label[v] = root
                    stack.append(v)
    return label


def draw_queries(env, rng: np.random.Generator, count: int) -> list[tuple[int, int]]:
    """Distinct, mutually reachable start/goal pairs, stratified by distance.

    Candidates are uniform over regions that can move and share a component
    with another such region. QUERY_STRATA * count of them are sorted by
    their distance in moves, and one is kept at random from each run of
    QUERY_STRATA. A query's cost grows with its distance, so the kept set
    costs nearly the same for every seed; a uniform draw of 400 queries
    varied by about 7% in planner expansions from seed to seed.
    """
    label = components(env)
    groups: dict[int, list[int]] = defaultdict(list)
    for r in range(env.n):
        if env.neighbors(r):
            groups[label[r]].append(r)
    pool = [r for members in groups.values() if len(members) > 1 for r in members]
    if not pool:
        raise ValueError("no region has a reachable partner")
    pool.sort()
    candidates = []
    for _ in range(QUERY_STRATA * count):
        s = pool[int(rng.integers(len(pool)))]
        members = groups[label[s]]
        k = int(rng.integers(len(members) - 1))
        if k >= members.index(s):
            k += 1
        candidates.append((s, members[k]))
    candidates.sort(key=lambda q: (env.min_steps(*q), q))
    kept = [candidates[k * QUERY_STRATA + int(rng.integers(QUERY_STRATA))]
            for k in range(count)]
    return [kept[k] for k in rng.permutation(count)]


# -- shared steps ------------------------------------------------------------

def open_map(run: Run, path: Path, cache_dir: Path):
    """Heightmap file to a planner-ready (env, field), as the CLI does it."""
    raw = path.read_bytes()
    elev, cell_size = run.call("mapio.parse_heightmap", mapio.parse_heightmap,
                               raw.decode("utf-8"))
    env = run.call("terrain.build_environment", terrain.build_environment, elev,
                   cell_size=cell_size, d=SENSOR_D, max_step=MAX_STEP)
    field = run.call("mapio.load_or_compute_field", mapio.load_or_compute_field,
                     env, raw, cache_dir)
    return env, field, raw


def check_field(run: Run, name: str, env, field, raw: bytes, cache_dir: Path) -> None:
    """Field well formed, its cache written and loading back equal."""
    require(field.n == env.n, f"{name}: field covers {field.n} regions, map has {env.n}")
    run.call("terrain.validate", field.validate)
    cache = mapio.field_cache_path(raw, env.d, cache_dir)
    require(cache.is_file(), f"{name}: no cache file at {cache.name}")
    loaded = run.call("mapio.load_exposure_field", mapio.load_exposure_field, cache)
    require(loaded == field, f"{name}: cache does not load back as the same field")
    run.cache_bytes[name] = cache.stat().st_size
    run.note_expected("fields", name, checks.field_digest(field))


def geometry_counts(env) -> tuple[int, int]:
    """Unordered pairs and the ray samples the quarter-cell rule implies.

    A ray between cells (dr, dc) apart takes a sample every quarter cell
    strictly between its endpoints: ceil(4 * hypot(dr, dc)) - 1 samples.
    Computed from geometry, not counted inside the program.
    """
    h, w = env.height, env.width
    pairs = env.n * (env.n - 1) // 2
    samples = 0
    for dr in range(h):
        for dc in range(-(w - 1), w):
            if dr == 0 and dc <= 0:
                continue
            reps = (h - dr) * (w - abs(dc))
            samples += reps * (math.ceil(terrain.LOS_SAMPLES_PER_CELL * math.hypot(dr, dc)) - 1)
    return pairs, samples


def add_geometry(run: Run, envs) -> None:
    pairs = samples = 0
    for env in envs:
        p, s = geometry_counts(env)
        pairs += p
        samples += s
    run.counts["terrain.pairs"] = pairs
    run.counts["terrain.ray_samples_computed"] = samples


# -- field-cold ---------------------------------------------------------------

def field_cold_round(run: Run, maps, rnd):
    cache_dir = run.work / f"fc-cache-{rnd}"
    opened = []
    setup = 0.0
    ref0 = run.ref_spent
    t_start = _now()
    for name, path in maps:
        run.attempted += 1
        try:
            t0 = _now()
            env, field, raw = open_map(run, path, cache_dir)
            setup += _now() - t0
            image = run.call("render.compose", render.compose, env, field)
            pgm = run.work / f"fc-{rnd}-{name}.pgm"
            run.call("render.write_pgm", render.write_pgm, pgm, image)
            opened.append((name, env, field, raw, image, pgm))
        except Exception as exc:
            run.fail(f"cold open {name}", exc)
        run.reference()
    wall = _now() - t_start - (run.ref_spent - ref0)
    return wall, setup, lambda: field_cold_check(run, cache_dir, opened)


def field_cold_check(run: Run, cache_dir: Path, opened) -> None:
    envs = []
    for name, env, field, raw, image, pgm in opened:
        envs.append(env)
        run.check(f"check {name}", _field_cold_check_one, run, cache_dir,
                  name, env, field, raw, image, pgm)
    add_geometry(run, envs)


def _field_cold_check_one(run, cache_dir, name, env, field, raw, image, pgm):
    check_field(run, name, env, field, raw, cache_dir)
    want = np.rint(255.0 * (1.0 - field.scores())).astype(np.uint8)
    require(np.array_equal(image, want.reshape(env.height, env.width)),
            f"{name}: rendered image is not the exposure-score image")
    require(np.array_equal(render.load_pgm(pgm), image),
            f"{name}: PGM file does not hold the rendered image")


# -- query-warm ---------------------------------------------------------------

def query_warm_prep(run: Run) -> None:
    """Build the fixed maps' caches, unless an earlier run in this checkout
    left valid ones (the cache directory is keyed by a hash of src/)."""
    cache_dir = Path(run.args.cache)
    for _, path in write_maps(run):
        cache = mapio.field_cache_path(path.read_bytes(), SENSOR_D, cache_dir)
        if cache.is_file():
            try:
                mapio.load_exposure_field(cache)
                continue
            except ValueError:
                cache.unlink()
        open_map(run, path, cache_dir)


def query_warm_inputs(run: Run, maps):
    """Untimed: open each map once to draw its queries."""
    cache_dir = Path(run.args.cache)
    inputs = []
    for mi, (name, path) in enumerate(maps):
        cache = mapio.field_cache_path(path.read_bytes(), SENSOR_D, cache_dir)
        require(cache.is_file(), f"{name}: prepared cache missing")
        env, _, _ = open_map(run, path, cache_dir)
        rng = np.random.default_rng([run.args.seed, mi, 7])
        inputs.append((name, path, cache, draw_queries(env, rng, QUERIES_PER_MAP)))
    run.times.clear()
    return cache_dir, inputs


def query_warm_round(run: Run, cache_dir: Path, inputs):
    """Warm-open both maps (the round's set-up), then run every query."""
    lat = run.latency
    outputs = []
    opened = []
    setup = 0.0
    stamps = [cache.stat().st_mtime_ns for _, _, cache, _ in inputs]
    ref0 = run.ref_spent
    t_start = _now()
    for (name, path, cache, queries), stamp in zip(inputs, stamps):
        run.attempted += 1
        try:
            t0 = _now()
            env, field, raw = open_map(run, path, cache_dir)
            setup += _now() - t0
            opened.append((name, env, field, raw, cache, stamp, queries))
        except Exception as exc:
            run.fail(f"warm open {name}", exc)
    t_queries = _now()
    calls = 0
    for name, env, field, raw, cache, stamp, queries in opened:
        for qi, (s, g) in enumerate(queries):
            if qi % REF_EVERY == 0:
                run.reference()
            if run.tracer is not None:
                run.tracer.qid = f"{name}/{qi}"
            run.attempted += 5
            t = [_now()]
            try:
                r_sh = search.plan_shortest(env, field, s, g)
                t.append(_now())
                r_es = search.plan_ess(env, field, s, g)
                t.append(_now())
                r_bi = search.plan_binary(env, field, s, g)
                t.append(_now())
                cor = corridor.build_corridor(env, field, r_bi.path)
                t.append(_now())
                r_sa = search.plan_saturation(env, field, s, g, SAT_TAU, P_SUCCESS)
                t.append(_now())
            except Exception as exc:
                run.fail(f"query {name}/{qi}", exc, ops=6 - len(t))
                continue
            calls += 4
            lat["search.plan_shortest"].append(t[1] - t[0])
            lat["search.plan_ess"].append(t[2] - t[1])
            lat["search.plan_binary"].append(t[3] - t[2])
            lat["corridor.build_corridor"].append(t[4] - t[3])
            lat["search.plan_saturation"].append(t[5] - t[4])
            lat["stealth"].append(t[4] - t[2])
            outputs.append((name, env, field, s, g, r_sh, r_es, r_bi, cor, r_sa))
    t_end = _now() - (run.ref_spent - ref0)
    if run.tracer is not None:
        run.tracer.qid = None
    run.query_walls.append(t_end - t_queries)
    run.query_calls.append(calls)
    return t_end - t_start, setup, lambda: query_warm_check(run, cache_dir, opened, outputs)


def query_warm_check(run: Run, cache_dir: Path, opened, outputs) -> None:
    envs = []
    for name, env, field, raw, cache, stamp, _ in opened:
        envs.append(env)
        run.check(f"check {name}", _warm_field_check, run, cache_dir, name, env, field,
                  raw, cache, stamp)
    digests: dict[str, checks.PathDigest] = defaultdict(checks.PathDigest)
    for name, env, field, s, g, r_sh, r_es, r_bi, cor, r_sa in outputs:
        if run.full_checks:
            run.check(f"check query {name} {s}->{g}", _query_check, env, field, s, g,
                      r_sh, r_es, r_bi, cor, r_sa)
        for res in (r_sh, r_es, r_bi, r_sa):
            if res.path is not None:
                digests[f"{name}/{res.algorithm}"].add(s, g, res.path)
            run.count_plan(res.algorithm, res.expansions)
        run.corridor_cells.append(cor.corridor.bit_count())
    for key, digest in digests.items():
        run.note_expected("paths", key, digest.hexdigest())
    add_geometry(run, envs)


def _warm_field_check(run, cache_dir, name, env, field, raw, cache, stamp):
    require(cache.stat().st_mtime_ns == stamp, f"{name}: warm open rewrote its cache")
    check_field(run, name, env, field, raw, cache_dir)


def _query_check(env, field, s, g, r_sh, r_es, r_bi, cor, r_sa):
    path = checks.check_path(SP, env, r_sh, s, g)
    require(r_sh.cost == len(path) - 1, f"shortest {s}->{g}: cost is not the step count")
    path = checks.check_path(SP, env, r_es, s, g)
    scores = field.scores()
    want = sum(float(scores[r]) for r in path[1:])
    require(abs(r_es.cost - want) <= checks.COST_TOL,
            f"ess {s}->{g}: cost is not the sum of entered scores")
    path = checks.check_path(SP, env, r_bi, s, g)
    checks.binary_identity(SP, env, field, r_bi)
    checks.check_corridor(field, path, cor)
    checks.check_path(SP, env, r_sa, s, g)
    checks.saturation_identity(SP, field, r_sa, SAT_TAU, P_SUCCESS)


# -- experiment-small -----------------------------------------------------------

def experiment_setup(run: Run, maps, rep):
    """Cold-open the six maps of the experiment config.

    Returns (seconds, cache dir, [(name, env, field, raw)])."""
    cache_dir = run.work / f"ex-cache-{rep}"
    opened = []
    t0 = _now()
    for name, path in maps:
        run.attempted += 1
        try:
            env, field, raw = open_map(run, path, cache_dir)
            opened.append((name, env, field, raw))
        except Exception as exc:
            run.fail(f"set-up open {name}", exc)
    return _now() - t0, cache_dir, opened


def experiment_round(run: Run, cfg: Path, rnd):
    out_dir = run.work / f"ex-out-{rnd}"
    t0 = _now()
    code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)])
    wall = _now() - t0
    return wall, None, lambda: experiment_check(run, code, out_dir)


def experiment_check(run: Run, code: int, out_dir: Path) -> None:
    run.attempted += 1
    if code != 0:
        run.fail("experiment", CheckError(f"cli exited with {code}"))
        return
    records = run.check("read records.jsonl", _read_records, out_dir)
    if records is None:
        return
    run.check("check summary.csv", _check_summary, out_dir, records)
    worlds = {name: (env, field) for name, env, field, _ in run.ex_opened}
    by_query: dict[tuple, dict] = defaultdict(dict)
    for rec in records:
        by_query[(rec["map"], rec["query"])][(rec["algorithm"], rec["tau"])] = rec
    exact_solved = exact_total = budget_hits = 0
    for (map_id, qi), cells in by_query.items():
        env, field = worlds[map_id]
        for (alg, tau), rec in cells.items():
            run.count_plan(alg, rec["expansions"])
            if rec["runtime_s"] is not None:
                run.latency[f"search.plan_{alg}"].append(rec["runtime_s"])
            run.attempted += 1
            if run.full_checks:
                try:
                    _record_check(run, env, field, rec, cells)
                except Exception as exc:
                    run.fail(f"record {map_id}/{qi}/{alg}/{tau}", exc)
            if alg == "exact":
                exact_total += 1
                exact_solved += rec["status"] == search.FOUND
                budget_hits += rec["status"] == search.BUDGET_EXCEEDED
                if rec["status"] == search.FOUND:
                    run.note_expected("exact_optima", f"{map_id}/{qi}", rec["obj_bin"])
            else:
                run.note_expected("records", f"{map_id}/{qi}/{alg}/{tau}",
                                  [checks.record_digest(rec), rec["optimality_gap"]])
    run.counts["search.exact.solved"] = exact_solved
    run.counts["search.exact.attempted"] = exact_total
    run.counts["search.exact.budget_exceeded"] = budget_hits


def _read_records(out_dir: Path) -> list[dict]:
    lines = (out_dir / "records.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    require(header.get("schema") == "exposure-bench-records", "records.jsonl: bad header")
    records = [json.loads(ln) for ln in lines[1:] if ln.strip()]
    cells = len(EX_TAUS) + 4
    want = 2 * EX_MAP_SEEDS * EX_QUERIES * cells
    require(len(records) == want, f"records.jsonl: {len(records)} records, expected {want}")
    return records


def _check_summary(out_dir: Path, records) -> None:
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == 2 * (len(EX_TAUS) + 4), f"summary.csv: {len(rows)} groups")
    require(sum(int(r["cells"]) for r in rows) == len(records),
            "summary.csv: group cell counts do not add up to the records")


def _record_check(run: Run, env, field, rec, cells) -> None:
    """Re-run the record's planner directly and compare (untimed)."""
    alg, tau, s, g = rec["algorithm"], rec["tau"], rec["start"], rec["goal"]
    require(rec["error"] is None, f"planner raised: {rec['error']}")
    if alg == "exact" and rec["status"] == search.BUDGET_EXCEEDED:
        require(rec["expansions"] == EX_BUDGET, "budget hit at the wrong expansion count")
        return
    if alg == "shortest":
        res = search.plan_shortest(env, field, s, g)
    elif alg == "ess":
        res = search.plan_ess(env, field, s, g)
    elif alg == "binary":
        res = search.plan_binary(env, field, s, g)
    elif alg == "saturation":
        res = search.plan_saturation(env, field, s, g, tau, P_SUCCESS)
    else:
        res = search.plan_exact(env, field, s, g, EX_BUDGET)
    path = checks.check_path(SP, env, res, s, g)
    obj = search.obj_bin(field, path)
    t = tau if tau is not None else 1
    require(rec["status"] == res.status and rec["path_len"] == len(path)
            and rec["obj_bin"] == obj and rec["expansions"] == res.expansions,
            "record does not match a direct planner call")
    require(rec["obj_acc"] == search.obj_acc(search.path_counts(field, path, t), P_SUCCESS, t),
            "record obj_acc does not match its path")
    cor = corridor.build_corridor(env, field, path)
    checks.check_corridor(field, path, cor)
    run.corridor_cells.append(cor.corridor.bit_count())
    require(rec["avg_width"] == cor.avg_width, "record corridor width does not match")
    if alg == "binary":
        checks.binary_identity(SP, env, field, res)
    elif alg == "saturation":
        checks.saturation_identity(SP, field, res, tau, P_SUCCESS)
    elif alg == "exact":
        require(res.cost == obj, "exact cost is not obj_bin of its path")
        require(obj <= cells[("binary", None)]["obj_bin"],
                "exact optimum exceeds the binary planner's exposure")


# -- measuring ----------------------------------------------------------------

def measure(args) -> dict:
    run = Run(args)
    if REF_KIND[args.workload] == "cache":
        return measure_with(run)
    # one CPU for this process and the kernel's, so that the kernel runs
    # where the workload does
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run.kernel = reference.KernelProcess()
    try:
        return measure_with(run)
    finally:
        run.kernel.close()


def measure_with(run: Run) -> dict:
    args = run.args
    deadline = _now() + args.budget_s
    maps = write_maps(run)
    workload = args.workload

    setup_runs: list[float] = []
    if workload == "field-cold":
        def one_round(rnd):
            return field_cold_round(run, maps, rnd)
    elif workload == "query-warm":
        cache_dir, inputs = query_warm_inputs(run, maps)

        def one_round(rnd):
            return query_warm_round(run, cache_dir, inputs)
    else:
        for rep in range(EX_SETUP_REPS):
            secs, cache_dir, opened = experiment_setup(run, maps, rep)
            setup_runs.append(secs)
            for name, env, field, raw in opened:
                run.check(f"check {name}", check_field, run, name, env, field, raw, cache_dir)
            if rep == 0:
                run.ex_opened = opened
                add_geometry(run, [env for _, env, _, _ in opened])
        cfg = experiment_config(run)

        def one_round(rnd):
            return experiment_round(run, cfg, rnd)

    walls = []
    round_setups = []
    first = None
    t_begin = _now()
    while True:
        t0 = _now()
        wall, setup, check = one_round(len(walls))
        walls.append(wall)
        if setup is not None:
            round_setups.append(setup)
        run.reference()
        if first is not None:
            # counts come from the first round only, so they repeat exactly
            run.counts, run.corridor_cells = {}, []
        check()
        # drop the round's outputs so the peak RSS does not grow with rounds
        check = None
        if first is None:
            first = (run.counts, run.corridor_cells)
            run.full_checks = False
        spent = _now() - t0
        # another round only if it should end within --seconds; a traced run
        # still needs time for its traced round
        reserve = spent if args.trace else 0.0
        if _now() + spent - t_begin > args.seconds or _now() + spent + reserve > deadline:
            break
    run.counts, run.corridor_cells = first
    result = {
        "workload": workload,
        "rounds": len(walls),
        "map_count": len(maps),
        "wall_s": statistics.median(walls),
        "walls": walls,
        "setup_body_s": statistics.median(setup_runs or round_setups),
        "setup_runs": setup_runs or round_setups,
        "ref_s": statistics.median(run.ref_samples),
        "ref_samples": run.ref_samples,
        "ref_kind": REF_KIND[workload],
        "ref_nominal_s": reference.nominal_seconds(REF_KIND[workload]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "times": {k: list(v) for k, v in run.times.items()},
        "counts": dict(run.counts),
        "latency": {k: list(v) for k, v in run.latency.items()},
        "cache_bytes": sum(run.cache_bytes.values()),
        "corridor_cells": list(run.corridor_cells),
        "query_walls": list(run.query_walls),
        "query_calls": list(run.query_calls),
        "traced": None,
    }
    if args.trace:
        result["traced"] = traced_round(run, one_round, len(walls), maps)
    result.update(attempted=run.attempted, failed=run.failed, failures=run.failures,
                  expected=run.expected)
    return result


def traced_round(run: Run, one_round, rnd: int, maps) -> dict:
    """One more round with every traced call wrapped; summarised spans."""
    tracer = run.tracer = tracing.Tracer()
    with tracing.patched(tracer, tracing.trace_targets(SP)):
        if run.args.workload == "experiment-small":
            with tracer.span("harness.setup"):
                experiment_setup(run, maps, f"traced-{rnd}")
        with tracer.span("harness.timed") as root:
            _, _, check = one_round(f"traced-{rnd}")
    run.tracer = None
    run.full_checks = True
    check()
    spans_path = run.work / "spans.jsonl"
    tracer.write_jsonl(spans_path)
    return summarize_spans(tracer.spans, root, spans_path)


def summarize_spans(spans, root: int, spans_path: Path) -> dict:
    selfs = tracing.self_times(spans)
    by_name: dict[str, dict] = {}
    layer_self: dict[str, float] = defaultdict(float)
    for sid, (name, t0, t1, _, _, info) in enumerate(spans):
        agg = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "durations": []})
        agg["calls"] += 1
        agg["busy_s"] += t1 - t0
        agg["self_s"] += selfs[sid]
        agg["durations"].append(t1 - t0)
        layer_self[name.split(".")[0]] += selfs[sid]
    return {
        "wall_s": spans[root][2] - spans[root][1],
        "roots_s": sum(row[2] - row[1] for row in spans if row[3] is None),
        "spans": len(spans),
        "by_name": by_name,
        "layer_self_s": dict(layer_self),
        "spans_file": spans_path.name,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("prep", "measure"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--cache", required=True, help="query-warm cache directory")
    parser.add_argument("--budget-s", type=float, default=150.0)
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(stealthpath.__file__).resolve().parents:
        raise SystemExit(f"stealthpath imported from {stealthpath.__file__}, not {src}")
    work = Path(args.work)
    if args.phase == "prep":
        query_warm_prep(Run(args))
        result = {"ok": True}
    else:
        result = measure(args)
    (work / f"{args.phase}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
