"""Spans around calls into stealthpath's public functions.

A traced round swaps selected module attributes for wrappers that open a
span (name, start, end, parent, query id) around each call. The untraced
rounds call the functions exactly as the program binds them. Spans are kept
in memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of every span under one root add up to the
root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

PLANNERS = ("shortest", "ess", "binary", "saturation", "exact")
OBJECTIVES = ("obj_bin", "obj_acc", "path_counts")


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent, query id, plan info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid = None

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.qid, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, info=None) -> None:
        self._stack.pop()
        row = self.spans[sid]
        row[2] = time.perf_counter()
        row[5] = info

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(sid, _plan_info(result))
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, qid, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "query": qid, "plan": info}) + "\n")


def _plan_info(result):
    """(status, expansions) of a PlanResult, None for anything else."""
    status = getattr(result, "status", None)
    expansions = getattr(result, "expansions", None)
    if status is None or expansions is None:
        return None
    return [status, expansions]


def trace_targets(sp) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every call the benchmark traces.

    `sp` is a namespace holding the stealthpath modules. Names that
    stealthpath.bench and stealthpath.mapio import into their own globals
    are wrapped there too, so calls made inside the program get spans.
    """
    targets = [(sp.mapio, attr, f"mapio.{attr}")
               for attr in ("parse_heightmap", "load_or_compute_field",
                            "load_exposure_field", "save_exposure_field")]
    targets += [
        (sp.mapio, "compute_exposure_field", "terrain.compute_exposure_field"),
        (sp.terrain.ExposureField, "validate", "terrain.validate"),
        (sp.terrain, "build_environment", "terrain.build_environment"),
        (sp.corridor, "build_corridor", "corridor.build_corridor"),
        (sp.render, "compose", "render.compose"),
        (sp.render, "write_pgm", "render.write_pgm"),
        (sp.cli, "main", "cli.main"),
        (sp.bench, "build_environment", "terrain.build_environment"),
        (sp.bench, "compute_exposure_field", "terrain.compute_exposure_field"),
        (sp.bench, "build_corridor", "corridor.build_corridor"),
    ]
    for module in (sp.search, sp.bench):
        targets += [(module, f"plan_{p}", f"search.plan_{p}") for p in PLANNERS]
        targets += [(module, attr, f"search.{attr}") for attr in OBJECTIVES]
    targets += [(sp.bench, attr, f"bench.{attr}")
                for attr in ("run_experiment", "write_records_jsonl", "write_summary_csv")]
    return targets


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    saved = []
    try:
        for owner, attr, name in targets:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(orig, name))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    out = [row[2] - row[1] for row in spans]
    for row in spans:
        if row[3] is not None:
            out[row[3]] -= row[2] - row[1]
    return out
