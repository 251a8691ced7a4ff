"""Command-line front end.

Subcommands: gen (write a procedural heightmap), plan (run one planner on
one query), corridor (equal-exposure corridor of a given path), render
(grayscale PGM of exposure scores with optional overlays), experiment (the
full benchmark protocol). A numeric flag is the number it spells
(bench.number), judged by its parameter's rule alone. The fixture has no
grid, so --fixture with a grid flag (_GRID_DEFAULTS) is a usage error.

stdout carries machine-readable payloads only (JSON records, nothing else);
progress and diagnostics go to stderr. Exit codes: 0 success, 1 runtime
failure, 2 usage or config error, 3 no path found, 4 search budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, mapio, render, search
from .corridor import build_corridor, corridor_record
from .terrain import build_environment

_STATUS_EXIT = {search.FOUND: 0, search.NO_PATH: 3, search.BUDGET_EXCEEDED: 4}

# the grid flags, absent unless given, and their values on a map by default
_GRID_DEFAULTS = {"d": 1.0, "max_step": bench.DEFAULT_MAX_STEP, "connectivity": 4,
                  "cache_dir": None, "no_cache": False}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stealthpath",
        description="Terrain-aware path planning that minimizes line-of-sight exposure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a procedural heightmap")
    p_gen.add_argument("kind", choices=bench.MAP_KINDS)
    p_gen.add_argument("--seed", type=bench.number, required=True)
    p_gen.add_argument("--size", type=bench.number, required=True, help="cells per side")
    p_gen.add_argument("--cell-size", type=bench.number, default=bench.DEFAULT_CELL_SIZE,
                       help="cell pitch in meters (default %(default)s)")
    p_gen.add_argument("--out", required=True, help="output heightmap path")
    p_gen.set_defaults(func=cmd_gen)

    p_plan = sub.add_parser("plan", help="plan one start-to-goal query")
    _add_world_args(p_plan)
    p_plan.add_argument("--alg", required=True, choices=search.ALGORITHMS)
    p_plan.add_argument("--start", required=True,
                        help="'row,col' cell, or a region letter with --fixture")
    p_plan.add_argument("--goal", required=True)
    p_plan.add_argument("--tau", type=bench.number, default=None,
                        help="saturation threshold (saturation planner only)")
    p_plan.add_argument("--p-success", type=bench.number, default=search.DEFAULT_P_SUCCESS)
    p_plan.add_argument("--m", type=bench.number, default=None,
                        help="binary planner movement cost (default 1/(2n))")
    p_plan.add_argument("--budget", type=bench.number, default=search.DEFAULT_NODE_BUDGET,
                        help="exact planner expansion budget (default %(default)s)")
    p_plan.set_defaults(func=cmd_plan)

    p_cor = sub.add_parser("corridor",
                           help="equal-exposure corridor around a given path")
    _add_world_args(p_cor)
    p_cor.add_argument("--path", help="inline path 'r,c;r,c;...' "
                                      "(region letters with --fixture)")
    p_cor.add_argument("--path-file", help="file with one 'r,c' cell per line")
    p_cor.add_argument("--connected-only", action="store_true",
                       help="keep only corridor cells reachable from the path")
    p_cor.add_argument("--render-out", help="also write a PGM overlay image")
    p_cor.set_defaults(func=cmd_corridor)

    p_ren = sub.add_parser("render",
                           help="render exposure scores to a grayscale PGM "
                                "(darker pixel = more exposed region)")
    _add_world_args(p_ren, fixture=False)
    p_ren.add_argument("--path", help="overlay a path, painted black")
    p_ren.add_argument("--corridor", action="store_true",
                       help="overlay the path's corridor, painted white")
    p_ren.add_argument("--out", required=True, help="output PGM path")
    p_ren.set_defaults(func=cmd_render)

    p_exp = sub.add_parser("experiment", help="run the benchmark protocol")
    p_exp.add_argument("--config", required=True,
                       help="flat 'key = value' config file")
    p_exp.add_argument("--out-dir", required=True)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def _add_world_args(sub: argparse.ArgumentParser, fixture: bool = True) -> None:
    if fixture:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--map", help="heightmap file")
        group.add_argument("--fixture", action="store_true",
                           help="use the built-in 13-region demo world (A-M)")
    else:
        sub.add_argument("--map", required=True, help="heightmap file")
        sub.set_defaults(fixture=False)
    unset = argparse.SUPPRESS  # a flag not given is absent: see _GRID_DEFAULTS
    sub.add_argument("--d", type=bench.number, default=unset,
                     help="sensor height above terrain in meters (default 1)")
    sub.add_argument("--max-step", type=bench.number, default=unset,
                     help=f"max climbable elevation change (default {bench.DEFAULT_MAX_STEP})")
    sub.add_argument("--connectivity", type=bench.number, default=unset, help="4 or 8 (default 4)")
    sub.add_argument("--cache-dir", default=unset,
                     help="exposure field cache directory (default: map's directory)")
    sub.add_argument("--no-cache", action="store_true", default=unset,
                     help="always recompute the exposure field")


class _World:
    """Environment + field + a region-spec parser, from a map or the fixture."""

    def __init__(self, args):
        if getattr(args, "fixture", False):
            if given := ["--" + k.replace("_", "-") for k in _GRID_DEFAULTS if k in vars(args)]:
                raise ValueError(f"--fixture takes no grid flag, got {', '.join(given)}")
            fx = bench.lemma1_fixture()
            self.env, self.field, self.fixture = fx.graph, fx.field, fx
        else:
            args = argparse.Namespace(**{**_GRID_DEFAULTS, **vars(args)})
            map_path = Path(args.map)
            raw = map_path.read_bytes()
            elev, cell_size = mapio.parse_heightmap(raw.decode("utf-8"))
            self.env = build_environment(elev, cell_size=cell_size, d=args.d,
                                         max_step=args.max_step,
                                         connectivity=args.connectivity)
            cache_dir = None if args.no_cache else args.cache_dir or map_path.parent
            self.field = mapio.load_or_compute_field(self.env, raw, cache_dir)
            self.fixture = None

    def region(self, spec: str) -> int:
        spec = spec.strip()
        if self.fixture is not None:
            return self.fixture.index(spec)
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'row,col', got {spec!r}")
        return self.env.index(bench.number(parts[0]), bench.number(parts[1]))

    def parse_path(self, spec: str) -> list[int]:
        if self.fixture is not None:
            letters = [c for c in spec if c.isalpha()]
            if not letters:
                raise ValueError(f"no region letters in path {spec!r}")
            return [self.fixture.index(c) for c in letters]
        cells = [part for part in spec.replace("\n", ";").split(";") if part.strip()]
        if not cells:
            raise ValueError("empty path")
        return [self.region(cell) for cell in cells]


def cmd_gen(args) -> int:
    elev = bench.generate_map(args.kind, args.seed, args.size)
    mapio.save_heightmap(args.out, elev, args.cell_size)
    print(f"wrote {args.kind} {len(elev)}x{len(elev)} map to {args.out}",
          file=sys.stderr)
    return 0


def cmd_plan(args) -> int:
    world = _World(args)
    s = world.region(args.start)
    g = world.region(args.goal)
    if args.alg == "saturation" and args.tau is None:
        raise ValueError("--tau is required for the saturation planner")
    res = search.plan(args.alg, world.env, world.field, s, g, tau=args.tau,
                      p_success=args.p_success, m=args.m, node_budget=args.budget)
    print(json.dumps(search.result_record(world.field, res)))
    return _STATUS_EXIT[res.status]


def _path_from_args(args, world: _World) -> list[int]:
    if bool(args.path) == bool(args.path_file):
        raise ValueError("give exactly one of --path or --path-file")
    spec = args.path if args.path else Path(args.path_file).read_text()
    return world.parse_path(spec)


def cmd_corridor(args) -> int:
    if args.render_out and args.fixture:
        raise ValueError("the fixture has no grid geometry to render")
    world = _World(args)
    path = _path_from_args(args, world)
    search.validate_path(world.env, path)
    cor = build_corridor(world.env, world.field, path,
                         connected_only=args.connected_only)
    print(json.dumps(corridor_record(cor)))
    if args.render_out:
        image = render.compose(world.env, world.field, path=path,
                               corridor_mask=cor.corridor)
        render.write_pgm(args.render_out, image)
    return 0


def cmd_render(args) -> int:
    world = _World(args)
    path = corridor_mask = None
    if args.path:
        path = world.parse_path(args.path)
        search.validate_path(world.env, path)
        if args.corridor:
            corridor_mask = build_corridor(world.env, world.field, path).corridor
    elif args.corridor:
        raise ValueError("--corridor needs --path")
    image = render.compose(world.env, world.field, path=path,
                           corridor_mask=corridor_mask)
    render.write_pgm(args.out, image)
    return 0


def cmd_experiment(args) -> int:
    text = Path(args.config).read_text()
    config = bench.config_from_mapping(bench.parse_config_text(text))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def progress(map_id: str, done: int, total: int) -> None:
        print(f"[{done}/{total}] {map_id}", file=sys.stderr)

    records = bench.run_experiment(config, progress=progress)
    bench.write_records_jsonl(out_dir / "records.jsonl", records, config)
    bench.write_summary_csv(out_dir / "summary.csv", records)
    print(f"{len(records)} records -> {out_dir}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
