"""stealthpath benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload {field-cold,query-warm,experiment-small}
        [--seed N] [--seconds S] [--trace 0|1] [--write-expected]

Run from a checkout of the repository; the program is imported from its
src/ directory. The workload runs in a child process under a wall-clock
cap, so a hang is reported as a failed run instead of stalling. Every
metric is printed by name with its unit; the last stdout line is the JSON
result. With --trace 1 the JSON carries the per-layer metrics of
BENCHMARK.json, otherwise the end-to-end ones. The full result, with the
machine record and, when traced, the spans, is written under
.perfbench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("field-cold", "query-warm", "experiment-small")

# The whole run, import timing and children included, ends within this.
RUN_CAP_S = 170.0
# A traced query-warm run also runs one round of the fixed experiment, in its
# own process after the timed part. The experiment's wall time drifts too much
# on a noisy machine to gate on (see README.md), but its per-layer figures,
# counts and checks are reported, and its failures fail the run. Untraced runs
# skip it so that a set of gated runs spans less time.
FOLLOW_UPS = {"query-warm": ["experiment-small"]}
# fresh-interpreter imports timed before and again after the workload, so the
# samples span the run; each interpreter then times the reference kernel
IMPORT_SAMPLES = 6
IMPORT_SNIPPET = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                  "t = time.perf_counter(); import stealthpath; "
                  "t = time.perf_counter() - t; import reference; "
                  "print(t, reference.kernel_seconds())")

class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(cmd: list[str], deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise RunFailed("run cap reached before a child could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"hit the {RUN_CAP_S:.0f} s run cap: {' '.join(cmd[1:4])}") from None
    if proc.returncode != 0:
        raise RunFailed(f"child exited with {proc.returncode}: {' '.join(cmd[1:4])}")


def import_seconds(deadline: float, warm_up: bool) -> list[tuple[float, float]]:
    """(import, reference kernel) times of fresh interpreters importing
    stealthpath. The warm-up import, which may compile bytecode, is left
    out."""
    samples = []
    for k in range(IMPORT_SAMPLES + warm_up):
        remaining = deadline - time.monotonic()
        try:
            out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC), str(HERE)],
                                 cwd=ROOT, env=child_env(), capture_output=True,
                                 text=True, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            raise RunFailed("importing stealthpath hit the run cap") from None
        if out.returncode != 0:
            raise RunFailed(f"importing stealthpath failed: {out.stderr.strip()[-300:]}")
        if k or not warm_up:
            samples.append(tuple(map(float, out.stdout.split()[-2:])))
    return samples


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stealthpath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout if it is itself a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# -- metrics -----------------------------------------------------------------

def pct(values, q: float):
    if not values:
        return None
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else None


class Table:
    """Metrics in print order: name -> (value, unit, note)."""

    def __init__(self):
        self.rows: dict[str, tuple] = {}

    def add(self, name: str, value, unit: str, note: str = "") -> None:
        if value is not None:
            self.rows[name] = (value, unit, note)


def end_to_end(r: dict, import_s: float, import_scaled: float, failed: int,
               attempted: int) -> Table:
    """End-to-end metrics; setup_s and wall_s are on the speed scale of
    reference.py: each import sample by its own interpreter's kernel time,
    the workload's times by its process's median kernel time."""
    t = Table()
    w = r["workload"]
    what = {"field-cold": "round(s) of cold opens of the four 30x30 maps",
            "query-warm": "round(s) of warm opens of the 40x40 pair",
            "experiment-small": "cold opens of the six 20x20 maps"}[w]
    reps = len(r["setup_runs"])
    speed = r["ref_nominal_s"] / r["ref_s"]
    setup = import_s + r["setup_body_s"]
    t.add("setup_s", import_scaled + r["setup_body_s"] * speed, "s",
          f"import {import_scaled:.4f} s scaled + set-up x speed scale {speed:.4f}")
    t.add("wall_s", r["wall_s"] * speed, "s", f"wall_raw_s x speed scale {speed:.4f}")
    t.add("setup_raw_s", setup, "s",
          f"as measured: import {import_s:.4f} s + median of {reps} {what} "
          f"{r['setup_body_s']:.4f} s")
    t.add("wall_raw_s", r["wall_s"], "s",
          f"as measured: whole timed part, median of {r['rounds']} round(s)")
    lat = r["latency"]
    if w == "query-warm":
        stealth = lat.get("stealth", [])
        sat = lat.get("search.plan_saturation", [])
        t.add("stealth_p50_ms", scale(pct(stealth, 50), 1e3), "ms",
              f"plan_binary + build_corridor, n={len(stealth)}")
        t.add("stealth_p99_ms", scale(pct(stealth, 99), 1e3), "ms", f"n={len(stealth)}")
        t.add("saturation_p50_ms", scale(pct(sat, 50), 1e3), "ms",
              f"plan_saturation tau=5, n={len(sat)}")
        t.add("saturation_p99_ms", scale(pct(sat, 99), 1e3), "ms", f"n={len(sat)}")
        walls, calls = sum(r["query_walls"]), sum(r["query_calls"])
        if walls > 0:
            t.add("queries_per_s", calls / walls, "1/s",
                  f"{calls} planner calls over {walls:.3f} s of query phase")
    if w == "experiment-small":
        c = r["counts"]
        solved, base = c.get("search.exact.solved"), c.get("search.exact.attempted")
        if base:
            t.add("exact_solved_ratio", solved / base, "ratio", f"{solved}/{base}")
    t.add("failed_ratio", failed / attempted if attempted else 1.0, "ratio",
          f"{failed}/{attempted} operations")
    t.add("peak_rss_mb", r["peak_rss_mb"], "MB", "measuring process, preparation excluded")
    return t


def scale(value, factor):
    return None if value is None else value * factor


def per_layer(r: dict, import_s: float, import_samples) -> tuple[Table, Table]:
    """Per-layer timings, and the counts that repeat exactly."""
    t, c = Table(), Table()
    times, lat, counts = r["times"], r["latency"], r["counts"]
    rounds = r["rounds"]
    traced = r.get("traced") or {}
    spans = traced.get("by_name", {})

    def span_busy(name):
        return spans[name]["busy_s"] if name in spans else None

    def span_median_ms(name):
        return scale(median(spans[name]["durations"]), 1e3) if name in spans else None

    def calls_note(key):
        return f"median per call, n={len(times.get(key, []))}"

    t.add("harness.reference_ms", r["ref_s"] * 1e3, "ms",
          f"{r['ref_kind']} reference kernel, median of {len(r['ref_samples'])}; the "
          f"speed scale is {r['ref_nominal_s'] * 1e3:g} ms over this")
    t.add("cli.import_s", import_s, "s",
          f"fresh interpreter, median of {len(import_samples)}")
    if r["workload"] == "experiment-small":
        t.add("cli.main_s", r["wall_s"], "s", "experiment command, untraced")
    t.add("mapio.parse_heightmap_ms", scale(median(times.get("mapio.parse_heightmap")), 1e3),
          "ms", calls_note("mapio.parse_heightmap"))
    t.add("terrain.build_environment_ms",
          scale(median(times.get("terrain.build_environment")), 1e3), "ms",
          calls_note("terrain.build_environment"))
    t.add("terrain.validate_ms", scale(median(times.get("terrain.validate")), 1e3), "ms",
          calls_note("terrain.validate"))
    t.add("mapio.load_exposure_field_ms",
          scale(median(times.get("mapio.load_exposure_field")), 1e3), "ms",
          calls_note("mapio.load_exposure_field") + ", includes its validate")
    compute = spans.get("terrain.compute_exposure_field")
    if compute:
        t.add("terrain.compute_exposure_field_s", compute["busy_s"], "s",
              f"traced, {compute['calls']} builds")
    t.add("mapio.save_exposure_field_ms", span_median_ms("mapio.save_exposure_field"), "ms",
          "traced, median per call")
    c.add("terrain.pairs", counts.get("terrain.pairs"), "count", "n(n-1)/2 over the maps")
    c.add("terrain.ray_samples_computed", counts.get("terrain.ray_samples_computed"), "count",
          "quarter-cell samples strictly inside each ray, computed from geometry")
    c.add("mapio.cache_bytes", r.get("cache_bytes"), "B", ".expf files of the maps")
    if compute and counts.get("terrain.ray_samples_computed"):
        builds_per_map = compute["calls"] / r["map_count"]
        t.add("terrain.ray_samples_per_s",
              counts["terrain.ray_samples_computed"] * builds_per_map / compute["busy_s"],
              "1/s", "computed samples over traced build time")

    for p in tracing.PLANNERS:
        key = f"search.plan_{p}"
        calls = counts.get(f"search.{p}.calls")
        if not calls:
            continue
        samples = lat.get(key) or (spans[key]["durations"] if key in spans else [])
        busy = sum(samples) / rounds if lat.get(key) else span_busy(key)
        src = "untraced" if lat.get(key) else "traced"
        if r["workload"] == "experiment-small" and lat.get(key):
            src = "runtime_s of records.jsonl"
        c.add(f"search.{p}.calls", calls, "count")
        t.add(f"search.{p}.busy_s", busy, "s", f"{src}, per round")
        t.add(f"search.{p}.p50_ms", scale(pct(samples, 50), 1e3), "ms", f"n={len(samples)}")
        t.add(f"search.{p}.p99_ms", scale(pct(samples, 99), 1e3), "ms", f"n={len(samples)}")
        exp = counts.get(f"search.{p}.expansions")
        c.add(f"search.{p}.expansions", exp, "count", "the program's own count")
        if exp and busy:
            t.add(f"search.{p}.us_per_expansion", busy * 1e6 / exp, "us", "busy_s / expansions")
    c.add("search.exact.budget_exceeded", counts.get("search.exact.budget_exceeded"), "count",
          f"of {counts.get('search.exact.attempted')} exact cells")
    for name in ("obj_bin", "obj_acc"):
        key = f"search.{name}"
        if key in spans:
            t.add(f"{key}_us", spans[key]["busy_s"] * 1e6 / spans[key]["calls"], "us",
                  f"traced, mean of {spans[key]['calls']} calls")

    cor = lat.get("corridor.build_corridor")
    if cor:
        t.add("corridor.build_corridor_p50_ms", scale(pct(cor, 50), 1e3), "ms", f"n={len(cor)}")
        t.add("corridor.busy_s", sum(cor) / rounds, "s", "untraced, per round")
    elif "corridor.build_corridor" in spans:
        t.add("corridor.build_corridor_p50_ms", span_median_ms("corridor.build_corridor"), "ms",
              f"traced, n={spans['corridor.build_corridor']['calls']}")
        t.add("corridor.busy_s", span_busy("corridor.build_corridor"), "s", "traced")
    cells = r["corridor_cells"]
    if cells:
        t.add("corridor.cells_mean", sum(cells) / len(cells), "cells", f"n={len(cells)}")

    if "bench.run_experiment" in spans:
        t.add("bench.run_experiment_s", span_busy("bench.run_experiment"), "s", "traced")
        t.add("bench.run_experiment.self_s", spans["bench.run_experiment"]["self_s"], "s",
              "traced, minus traced calls inside it")
        t.add("bench.write_records_jsonl_ms", span_median_ms("bench.write_records_jsonl"), "ms",
              "traced")
        t.add("bench.write_summary_csv_ms", span_median_ms("bench.write_summary_csv"), "ms",
              "traced")
    for name in ("compose", "write_pgm"):
        key = f"render.{name}"
        if times.get(key):
            t.add(f"{key}_ms", scale(median(times[key]), 1e3), "ms", calls_note(key))

    if traced:
        layer_self = traced["layer_self_s"]
        for layer in sorted(layer_self):
            note = "the benchmark's own code" if layer == "harness" else "all calls"
            t.add(f"{layer}.self_s", layer_self[layer], "s", f"traced round, {note}")
        total = sum(layer_self.values())
        t.add("trace.self_sum_s", total, "s",
              f"sum of self times; traced roots last {traced['roots_s']:.4f} s")
        t.add("trace.timed_wall_s", traced["wall_s"], "s", "timed part of the traced round")
        t.add("trace.overhead_s", traced["wall_s"] - r["wall_s"], "s",
              "traced minus untraced wall_raw_s (can be negative from noise)")
        c.add("trace.spans", traced["spans"], "count")
    return t, c


# -- main ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's checked values as the seed's expected ones")
    args = parser.parse_args()
    if not (SRC / "stealthpath" / "__init__.py").is_file():
        print(f"error: no stealthpath sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + RUN_CAP_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".perfbench_results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    try:
        return report(args, work, results, stem, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, work: Path, results: Path, stem: str, deadline: float) -> int:
    machine = machine_record()
    cache = ROOT / ".perfbench_cache" / f"query-warm-{machine['src_sha256'][:16]}"
    script = str(HERE / "workloads.py")
    names = [args.workload] + (FOLLOW_UPS.get(args.workload, []) if args.trace else [])

    def child(phase: str, name: str, budget: float) -> list[str]:
        # a follow-up runs a single round
        seconds = args.seconds if name == args.workload else 0
        return [sys.executable, script, "--phase", phase, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--trace", str(args.trace), "--work", str(work / name),
                "--cache", str(cache), "--budget-s", f"{budget:.1f}"]

    parts = {}
    try:
        import_samples = import_seconds(deadline, warm_up=True)
        for k, name in enumerate(names):
            (work / name).mkdir()
            if name == "query-warm":
                run_child(child("prep", name, 0), deadline)
            budget = (deadline - time.monotonic() - 15) / (len(names) - k)
            run_child(child("measure", name, budget), deadline)
            parts[name] = json.loads((work / name / "measure.json").read_text())
            if k == 0:
                import_samples += import_seconds(deadline, warm_up=False)
        import_s = statistics.median(t for t, _ in import_samples)
        import_scaled = statistics.median(t * reference.nominal_seconds() / ref
                                          for t, ref in import_samples)
    except RunFailed as exc:
        print(f"FAILED {args.workload}: {exc}", file=sys.stderr)
        (results / f"{stem}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "machine": machine,
             "error": str(exc)}, indent=1))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(p["attempted"] for p in parts.values())
    failed = sum(p["failed"] for p in parts.values())
    failures = [f"{name}: {line}" for name, p in parts.items() for line in p["failures"]]
    for name, p in parts.items():
        if args.seed != 0 and name not in checks.SEED_FREE:
            continue
        if args.write_expected:
            print(f"wrote {checks.write_expected(name, p['expected'])}", file=sys.stderr)
            continue
        problems = checks.compare_expected(name, p["expected"])
        if problems:
            failed += 1
            failures += [f"{name}: stored value: {line}" for line in problems[:20]]

    sections = []
    for name, p in parts.items():
        e2e = end_to_end(p, import_s, import_scaled, p["failed"], p["attempted"])
        layers, counts = per_layer(p, import_s, import_samples)
        sections.append((name, e2e, layers, counts))
        if p.get("traced"):
            spans_file = work / name / p["traced"]["spans_file"]
            if spans_file.is_file():
                shutil.copy(spans_file, results / f"{name}-seed{args.seed}-spans.jsonl")
    r = parts[args.workload]
    _, e2e, layers, counts = sections[0]
    # failed_ratio of the gated workload counts the follow-ups' failures too
    e2e.add("failed_ratio", failed / attempted, "ratio", f"{failed}/{attempted} operations")

    print(f"# stealthpath benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={r['rounds']}")
    print("# machine  " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print("# one process, one thread, one closed-loop client")
    for title, table in (("end-to-end", e2e), ("per-layer", layers),
                         ("counts (repeat exactly for a seed)", counts)):
        print(title)
        for name, (value, unit, note) in table.rows.items():
            print(f"  {name:38s} {value:>16.6g} {unit:6s} {note}")
    for name, fe2e, flayers, fcounts in sections[1:]:
        print(f"{name}: run after the timed part in its own process; these figures are "
              f"not in the JSON")
        for table in (fe2e, flayers, fcounts):
            for metric, (value, unit, note) in table.rows.items():
                print(f"  {name + ':' + metric:50s} {value:>16.6g} {unit:6s} {note}")
    print("waits: stealthpath has no queue or lock, so no layer has a wait time to report")
    for line in failures:
        print(f"FAILED {line}")

    # the JSON carries exactly the metrics BENCHMARK.json lists for this mode
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    everything = {**layers.rows, **counts.rows} if args.trace else e2e.rows
    metrics = {name: {"value": everything[name][0], "unit": unit}
               for name, unit in wanted if name in everything}
    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        failed += 1
        print(f"FAILED metrics not measured: {', '.join(missing)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "machine": machine, "result": result,
         "end_to_end": e2e.rows, "per_layer": layers.rows, "counts": counts.rows,
         "failures": failures, "rounds": r["rounds"], "walls": r["walls"],
         "setup_runs": r["setup_runs"], "import_samples": import_samples,
         "follow_ups": {name: {"end_to_end": fe2e.rows, "per_layer": fl.rows,
                               "counts": fc.rows}
                        for name, fe2e, fl, fc in sections[1:]}}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
