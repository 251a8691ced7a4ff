"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line ("[acceptance] criterion N ...:
PASS/FAIL (measured numbers)") before asserting, so a red run still
reports what was measured. Run with `pytest tests/test_acceptance.py -v -s`
to watch the lines as they come. Criterion 4, which runs the exact
planner at a 500k budget on 180 queries, is the slowest at about 25 s on a
2-core Xeon; criterion 9 takes about 10 s.
"""

import math
import time

import numpy as np
import pytest

from stealthpath import (
    DEFAULT_CELL_SIZE,
    DEFAULT_MAX_STEP,
    ExperimentConfig,
    build_corridor,
    build_environment,
    component_labels,
    compute_exposure_field,
    brute_force_min_exposure,
    gen_boxes,
    lemma1_fixture,
    load_exposure_field,
    obj_acc,
    obj_bin,
    optimality_gap,
    plan_binary,
    plan_exact,
    plan_ess,
    plan_shortest,
    run_experiment,
    sample_query,
    save_exposure_field,
)
from stealthpath.bitset import bit_indices, mask_from_indices
from stealthpath.search import binary_step_cost, saturation_step_cost


def _verdict(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"[acceptance] criterion {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def matched_binary_paths(boxes50, hills50):
    """60 seeded queries per 50x50 map kind, planned with plan_binary.

    Criteria 7 and 10 share these paths so the corridor guarantees and the
    width comparison are evaluated on matched query sets.
    """
    out = {}
    for idx, (kind, world) in enumerate((("boxes", boxes50), ("hills", hills50))):
        env, field = world
        labels = component_labels(env)
        rng = np.random.default_rng([idx, 404])
        rows = []
        for _ in range(60):
            s, g = sample_query(env, rng, labels)
            res = plan_binary(env, field, s, g)
            assert res.found, f"binary planner failed on {kind} query {s}->{g}"
            rows.append((res.path, build_corridor(env, field, res.path)))
        out[kind] = rows
    return out


def test_criterion_01_fixture_optimum_reproduction():
    fx = lemma1_fixture()
    env, field = fx.graph, fx.field
    F, E, H = fx.index("F"), fx.index("E"), fx.index("H")

    t0 = time.perf_counter()
    res_fh = plan_exact(env, field, F, H)
    res_fe = plan_exact(env, field, F, E)
    sub_fjie = obj_bin(field, [fx.index(c) for c in "FJIE"])
    sub_edh = obj_bin(field, [fx.index(c) for c in "EDH"])
    elapsed = time.perf_counter() - t0

    got = (int(res_fh.cost), int(res_fe.cost), sub_fjie, sub_edh)
    ok = (res_fh.found and res_fe.found and got == (12, 9, 11, 10)
          and elapsed < 1.0)
    detail = (f"F->H {got[0]}, F->E {got[1]}, FJIE {got[2]}, EDH {got[3]}, "
              f"{elapsed:.3f}s")
    assert _verdict(1, "fixture optimum reproduction", ok, detail) and ok


def test_criterion_02_history_dependence_witness():
    fx = lemma1_fixture()
    env, field = fx.graph, fx.field
    F, E, H = fx.index("F"), fx.index("E"), fx.index("H")

    t0 = time.perf_counter()
    res_fh = plan_exact(env, field, F, H)
    res_fe = plan_exact(env, field, F, E)
    assert res_fh.found and res_fe.found
    assert E in res_fh.path, "optimal F->H route does not pass through E"
    prefix = res_fh.path[: res_fh.path.index(E) + 1]
    prefix_obj = obj_bin(field, prefix)
    direct_obj = int(res_fe.cost)
    elapsed = time.perf_counter() - t0

    ok = direct_obj == 9 and prefix_obj == 11 and direct_obj < prefix_obj \
        and elapsed < 1.0
    detail = (f"optimal F->E {direct_obj} < F->E prefix of optimal F->H "
              f"route {prefix_obj} via {fx.path_names(prefix)}, {elapsed:.3f}s")
    assert _verdict(2, "history dependence witness", ok, detail) and ok


def test_criterion_03_exact_matches_brute_force():
    t0 = time.perf_counter()
    instances = 0
    skipped = 0
    mismatches = []
    seed = 0
    while instances < 200:
        elev = np.random.default_rng(seed).uniform(0.0, 3.0, (4, 4))
        query_rng = np.random.default_rng(seed + 10_000)
        seed += 1
        env = build_environment(elev, cell_size=2.0, max_step=1.0)
        labels = component_labels(env)
        if np.bincount(labels).max() < 2:
            skipped += 1
            continue
        field = compute_exposure_field(env)
        s, g = sample_query(env, query_rng, labels)
        oracle = brute_force_min_exposure(env, field, s, g)
        res = plan_exact(env, field, s, g)
        instances += 1
        if not (res.found and oracle is not None
                and int(res.cost) == oracle
                and obj_bin(field, res.path) == oracle):
            mismatches.append((seed - 1, s, g, oracle,
                               None if res.path is None else int(res.cost)))
    elapsed = time.perf_counter() - t0

    ok = not mismatches and elapsed < 300.0
    detail = (f"{instances} connected 4x4 worlds, {len(mismatches)} "
              f"mismatches, {skipped} degenerate seeds skipped, {elapsed:.1f}s")
    if mismatches:
        detail += f"; first mismatch {mismatches[0]}"
    assert _verdict(3, "exact matches brute force", ok, detail) and ok


def test_criterion_04_optimality_gap_ordering():
    config = ExperimentConfig(
        kinds=("boxes", "hills"), sizes=(20,), seeds=(1, 2, 3), queries=30,
        algorithms=("shortest", "ess", "binary", "exact"),
        node_budget=500_000, query_seed=0, timing=False)
    t0 = time.perf_counter()
    records = run_experiment(config)
    elapsed = time.perf_counter() - t0

    solved = sum(1 for r in records
                 if r["algorithm"] == "exact" and r["status"] == "found")
    gaps = {alg: [] for alg in config.algorithms}
    negative = 0
    for r in records:
        if r["optimality_gap"] is not None:
            gaps[r["algorithm"]].append(r["optimality_gap"])
            if r["optimality_gap"] < 0:
                negative += 1
    med = {alg: float(np.median(v)) for alg, v in gaps.items()}

    ok = (solved >= 100 and negative == 0
          and med["exact"] <= med["binary"] <= med["ess"] <= med["shortest"]
          and elapsed < 1800.0)
    detail = (f"exact solved {solved}/180, {negative} negative gaps, median "
              f"gap% exact {med['exact']:.2f} <= binary {med['binary']:.2f} "
              f"<= ess {med['ess']:.2f} <= shortest {med['shortest']:.2f}, "
              f"{elapsed:.0f}s")
    assert _verdict(4, "optimality-gap ordering", ok, detail) and ok


def test_criterion_05_saturation_binary_transition_link(boxes12):
    env, field = boxes12
    m = 1.0 / (2 * env.n)
    rng = np.random.default_rng(505)
    starts = [r for r in range(env.n) if env.neighbors(r)]

    checked = 0
    worst = 0.0
    for walk in range(30):
        p = float(rng.choice([0.5, 0.9, 0.95, 0.99]))
        unit = -math.log10(p)
        cur = int(rng.choice(starts))
        counts = np.zeros(env.n, dtype=np.int64)
        counts[field.members(cur)] += 1
        acc = field.exposure_set(cur)
        for _ in range(40):
            nb = int(rng.choice(env.neighbors(cur)))
            t_sat = saturation_step_cost(field, counts, nb, 1, p)
            t_bin = binary_step_cost(field, acc, nb, m)
            want = unit * (t_bin - m)
            worst = max(worst, abs(t_sat - want) / max(1.0, abs(want)))
            checked += 1
            counts[field.members(nb)] += 1
            acc |= field.exposure_set(nb)
            cur = nb

    ok = checked >= 1000 and worst <= 1e-10
    detail = f"{checked} matched transitions, worst relative error {worst:.2e}"
    assert _verdict(5, "saturation/binary transition link", ok, detail) and ok


def test_criterion_06_accumulated_cost_identity():
    rng = np.random.default_rng(606)
    checked = 0
    worst = 0.0
    vectors = [np.zeros(3, dtype=np.int64)]
    vectors += [rng.integers(0, 5001, size=int(rng.integers(1, 400)))
                for _ in range(50)]
    for counts in vectors:
        for p in (0.5, 0.9, 0.99):
            for tau in (1, 5, 200):
                got = obj_acc(counts, p, tau)
                want = -math.log10(p) * float(np.minimum(counts, tau).sum())
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                checked += 1

    ok = worst <= 1e-12
    detail = (f"{checked} (vector, p, tau) combinations, worst relative "
              f"error {worst:.2e}")
    assert _verdict(6, "accumulated-cost identity", ok, detail) and ok


def test_criterion_07_corridor_guarantees(boxes50, hills50, matched_binary_paths):
    worlds = {"boxes": boxes50, "hills": hills50}
    t0 = time.perf_counter()
    paths = 0
    violations = []
    walk_rng = np.random.default_rng(707)
    for kind, rows in matched_binary_paths.items():
        env, field = worlds[kind]
        for path, cor in rows:
            paths += 1
            K = cor.exposed
            for c in bit_indices(cor.corridor):
                if field.exposure_set(c) & ~K:
                    violations.append((kind, path[0], path[-1], "containment", c))
            if mask_from_indices(path) & ~cor.corridor:
                violations.append((kind, path[0], path[-1], "path outside", None))
            cur = path[0]
            walked = [cur]
            for _ in range(40):
                inside = [nb for nb in env.neighbors(cur)
                          if (cor.corridor >> nb) & 1]
                if not inside:
                    break
                cur = int(walk_rng.choice(inside))
                walked.append(cur)
            leak = 0
            for r in walked:
                leak |= field.exposure_set(r)
            if leak & ~K:
                violations.append((kind, path[0], path[-1], "walk leak", None))
    elapsed = time.perf_counter() - t0

    ok = paths >= 100 and not violations and elapsed < 600.0
    detail = f"{paths} seeded paths, {len(violations)} violations, {elapsed:.1f}s"
    if violations:
        detail += f"; first {violations[0]}"
    assert _verdict(7, "corridor guarantees", ok, detail) and ok


def test_criterion_08_exposure_field_invariants(boxes50, hills50, boxes12,
                                                flat5, tmp_path):
    problems = []
    for name, (env, field) in (("boxes50", boxes50), ("hills50", hills50),
                               ("boxes12", boxes12), ("flat5", flat5)):
        try:
            field.validate()
        except ValueError as exc:
            problems.append(f"{name}: {exc}")

    env20 = build_environment(gen_boxes(1, 20), cell_size=DEFAULT_CELL_SIZE,
                              max_step=DEFAULT_MAX_STEP)
    f1 = compute_exposure_field(env20)
    f2 = compute_exposure_field(env20)
    if f1 != f2:
        problems.append("recomputation is not deterministic")

    cache = tmp_path / "field.expf"
    save_exposure_field(cache, f1)
    first = cache.read_bytes()
    loaded = load_exposure_field(cache)
    if loaded != f1:
        problems.append("cache load does not reproduce the field")
    save_exposure_field(cache, loaded)
    if cache.read_bytes() != first:
        problems.append("cache round trip is not byte-identical")

    ok = not problems
    detail = ("4 maps validated, 20x20 recompute identical, "
              f"{len(first)} cache bytes stable" if ok else "; ".join(problems))
    assert _verdict(8, "exposure-field invariants", ok, detail) and ok


def test_criterion_09_runtime_ratio_ordering(boxes50, hills50):
    ratios = {"ess": [], "binary": [], "exact": []}
    solved_exact = 0
    for idx, (env, field) in enumerate((boxes50, hills50)):
        labels = component_labels(env)
        rng = np.random.default_rng([idx, 909])
        for _ in range(12):
            s, g = sample_query(env, rng, labels)
            base = plan_shortest(env, field, s, g)
            base_time = max(base.runtime, 1e-9)
            for alg, res in (("ess", plan_ess(env, field, s, g)),
                             ("binary", plan_binary(env, field, s, g)),
                             ("exact", plan_exact(env, field, s, g, 60_000))):
                ratios[alg].append(res.runtime / base_time)
                if alg == "exact" and res.found:
                    solved_exact += 1
    med = {alg: float(np.median(v)) for alg, v in ratios.items()}

    ok = med["ess"] <= 10.0 and med["ess"] < med["binary"] < med["exact"]
    detail = (f"24 queries, median runtime ratio vs shortest: ess "
              f"{med['ess']:.2f} (<= 10), binary {med['binary']:.2f}, exact "
              f"{med['exact']:.0f} ({solved_exact} exact solved in budget)")
    assert _verdict(9, "runtime-ratio ordering", ok, detail) and ok


def test_criterion_10_corridor_width_direction(matched_binary_paths):
    med = {kind: float(np.median([cor.avg_width for _, cor in rows]))
           for kind, rows in matched_binary_paths.items()}
    ok = med["boxes"] > med["hills"]
    detail = (f"median corridor width over matched queries: boxes "
              f"{med['boxes']:.2f} vs hills {med['hills']:.2f}")
    assert _verdict(10, "corridor-width direction", ok, detail) and ok
