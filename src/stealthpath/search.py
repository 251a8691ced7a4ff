"""Exposure-aware planners and their objective functions.

Five planners share the same query surface (environment, exposure field,
start region, goal region) and return a PlanResult. plan(name, ...) is the
one dispatch from a name in ALGORITHMS to a planner, for the CLI and the
experiment harness alike:

* plan_shortest: exposure-agnostic A*, unit step cost. The baseline.
* plan_ess: A* whose step cost is the destination's exposure score.
* plan_binary: A* over (region, exposure accumulator) nodes; a step costs
  the number of regions it newly exposes plus a tiny movement cost m.
* plan_saturation: like binary but counts repeat exposures, clamped at a
  saturation threshold tau, priced in -log10 survival-probability units.
  Its nodes keep the clamped counts as bit-sliced saturating counters on int
  bitsets, bit_length(tau) + 1 ints of n bits each, so a step's price is a
  popcount. Each count is stored biased by 2**bit_length(tau) - tau, so the
  carry out of the top slice is the set of regions that reach tau. A
  saturated region's slices are unspecified: nothing reads them.
* plan_exact: best-first search over (region, exposed set) nodes. Optimal
  for the binary objective but exponential; takes an expansion budget.

Each step rule is one statement, in its planner's expand loop:
_binary_expand and _saturation_expand. binary_step_cost and
saturation_step_cost price a step by running that same expand for the one
step (_one_step); score_path scores any path.

The binary and saturation planners keep one best node per region (a standard
A* closed list). That is deliberately Markovian: the accumulator carried by
the surviving node is only an approximation of the best history, and closing
the gap to plan_exact is exactly what the benchmarks measure.

All ties are broken on (f, h, region, insertion order), so identical queries
return identical paths.

All five planners run one pop loop, _best_first. A heap row is a whole
node, (f, h, region, seq, parent, g, state), and seq, unique, keeps every
comparison from reaching parent and state. Only expanded nodes are kept,
in two closed lists indexed by expansion order, regions and parents, for
path recovery: a row's parent is the index there of the node that pushed
it, and the start is index 0. What a row's state holds is the planner's:

* binary and exact: the node's own exposed set, the union of the rows of
  the regions on its path (acc | rows[nb] for a step into nb, rows[s] at
  the start). An expansion reads it as it is, and plan_exact's seen keys
  and its heap rows share one int per node.
* saturation: the counters of the node that pushed the row. A node builds
  its own, one ripple-carry add, when it is expanded, and every row it
  pushes shares them. A ripple per push would cost about 1.5 ripples per
  expansion, since saturation pushes about 1.5 rows per expansion
  (327,836 for 217,543 over the benchmark's seed-0 queries).
* shortest and ess: None.

Each expand closure pushes neighbours: the region-keyed four one whose g
beats its region's best, and plan_exact each (region, exposed set) key it
has not pushed before. So a state lives while a row it rides in is queued,
and is freed once the last of them is popped.

Every region-keyed expand skips a neighbour, unpriced, once a lower bound
of its priced g cannot beat its region's best g: shortest, ess and
saturation when gg >= best_g[nb], binary when gg + m >= best_g[nb], and
saturation again, after the rows' growth, when gg + grow * unit >=
best_g[nb], before it reads nb's count. That is exact. A step's price is
1 / 1 for shortest and a count over n for ess, binary's an int >= 0 plus
m, and saturation's (grow + jump) * unit, with ints grow, jump >= 0 and
unit > 0. IEEE addition and multiplication are monotone, so the priced ng
is at least the bound, and the skipped step would have failed ng <
best_g[nb] anyway. The pushes, paths, costs and expansions are those of
pricing every step.

Every PlanResult carries _best_first's SearchStats, left out of result_record.

A caller's start, goal and path pass terrain's one region rule (region_id,
path_ids) on the way in, binary_step_cost's accumulator its region-set rule
(region_set), and each parameter its one rule: _check_p for p_success,
_check_m for m and _check_tau for tau here (terrain's integer rule
_integer, bounded at 2**31 - 1 so no count or heuristic overflows), and
_integer for node_budget. A rule returns the value as the planners read it
(a whole float such as 5.0 as the int 5). path_counts reads the field's
packed rows through terrain's _unpack, and the corridor's containment test
is the field's own: no module but terrain states the bit layout.
Inner loops then read field.rows, env.adjacency and heuristic lists built
once per query (env.min_steps_to for shortest, env.manhattan3_to for ess and
saturation), with no per-neighbour range check; shortest and ess share one
A*, _fixed_cost_astar, whose step is costs[nb] / scale: 1 / 1 for shortest,
the field's count over n (the score) for ess. ess and saturation price
from field._counts, binary from the popcount of the exposed sets it
carries, and none reads a second per-region table. heapq's functions
are looked up once per planner call, never at import. Set differences use
positive ints only: x ^ (x & y) for x & ~y, and |x| - |x & y| for its size,
the same integers. ~y is negative, and x & ~y takes CPython's slower
two's-complement path.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bitset import mask_from_indices
from .corridor import exposed_set
from .terrain import (_bounded, _integer, _unpack, check_field_matches, path_ids,
                      region_id, region_set)

FOUND = "found"
NO_PATH = "no_path"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_P_SUCCESS = 0.95
DEFAULT_NODE_BUDGET = 200_000

ALGORITHMS = ("shortest", "ess", "binary", "saturation", "exact")


class SearchStats(NamedTuple):
    """A search's counters, derived by _best_first from its end state."""

    pushes: int  # rows expand pushed; the start's row is not one
    stale_pops: int  # rows popped and dropped: their region had a lower g
    peak_frontier: int  # the most rows the heap held at once
    closed: int  # nodes in the closed lists: each expanded node but the goal


# slots: callers keep many results, and a slotted one is smaller
@dataclass(slots=True)
class PlanResult:
    algorithm: str
    status: str
    start: int
    goal: int
    path: Optional[list[int]]
    cost: Optional[float]
    expansions: int
    runtime: float
    params: dict = dataclass_field(default_factory=dict)
    stats: Optional[SearchStats] = None

    @property
    def found(self) -> bool:
        return self.status == FOUND


# -- objectives ---------------------------------------------------------------

def obj_bin(field, path: Sequence[int]) -> int:
    """Number of distinct regions exposed anywhere along the path."""
    return exposed_set(field, path).bit_count()


def path_counts(field, path: Sequence[int], tau: int) -> np.ndarray:
    """Per-region exposure counts accumulated by a path.

    Every region visible from an occupied region gains 1 per step spent
    there, except the occupied region itself which gains tau (occupancy
    saturates it outright).
    """
    idx = np.asarray(path_ids(field.n, path), dtype=np.intp)
    tau = _check_tau(tau)
    counts = _unpack(field.to_packed()[idx], field.n).sum(axis=0, dtype=np.int64)
    # add.at, not +=: a region the path occupies twice gains tau - 1 twice
    np.add.at(counts, idx, tau - 1)
    return counts


def obj_acc(counts, p_success: float, tau: int) -> float:
    """Accumulated exposure cost in -log10 survival-probability units.

    Sum over regions of -log10(max(p_success**c_i, p_success**tau)); the
    clamp caps what any single region can contribute at tau sightings.
    """
    p_success, tau = _check_p(p_success), _check_tau(tau)
    c = np.asarray(counts)
    if c.size and c.min() < 0:
        raise ValueError("counts must be non-negative")
    with np.errstate(under="ignore", divide="ignore"):
        power = np.maximum(p_success ** c.astype(np.float64), p_success ** tau)
        logs = np.log10(power)
    # a power below the smallest normal float lost digits or underflowed to 0:
    # its term is min(c_i, tau) factors of p_success
    logs = np.where(power < np.finfo(float).tiny,
                    np.minimum(c, tau) * math.log10(p_success), logs)
    return float(-logs.sum())


def validate_path(env, path: Sequence[int]) -> None:
    """Raise ValueError on the first invalid region (path_ids) or step."""
    path = path_ids(env.n, path)
    for k, (a, b) in enumerate(zip(path, path[1:])):
        if b not in env.adjacency[a]:
            raise ValueError(f"step {k}: {a} -> {b} is not traversable")


# -- parameter checks ---------------------------------------------------------

def _check_query(env, field, s: int, g: int) -> tuple[int, int]:
    """Check a query and return (start, goal) as Python ints."""
    check_field_matches(env, field)
    return region_id(env.n, s, "start region"), region_id(env.n, g, "goal region")


def _check_p(p_success) -> float:
    """The p_success rule: a number in (0, 1), returned as a float."""
    return _bounded(p_success, lambda x: 0.0 < x < 1.0, "p_success must be in (0, 1)")


# far above any sweep (TAU_SWEEP reaches 200); a path's counts plus tau stay
# int64s and tau times a heuristic distance a finite float
_TAU_MAX = 2**31 - 1


def _check_tau(tau) -> int:
    """The tau rule: an integer (terrain's _integer) in [1, _TAU_MAX]."""
    return _integer("tau", tau, 1, _TAU_MAX)


def _check_m(m, n: int) -> float:
    """The m rule, for plan_binary and binary_step_cost: a number in (0, 1/n),
    returned as a float."""
    return _bounded(m, lambda x: 0.0 < x < 1.0 / n, f"m must be in (0, 1/n) with n = {n}")


# -- planners -----------------------------------------------------------------

def plan_shortest(env, field, s: int, g: int) -> PlanResult:
    """Exposure-agnostic A*: fewest moves, admissible grid-distance heuristic."""
    s, g = _check_query(env, field, s, g)
    t0 = time.perf_counter()
    return _result("shortest", {}, s, g, t0, *_fixed_cost_astar(
        env, s, g, [1] * env.n, 1, env.min_steps_to(g).tolist()))


def plan_ess(env, field, s: int, g: int) -> PlanResult:
    """A* on exposure scores: entering a region costs its score.

    Heuristic is the 3D Manhattan distance between representative points
    scaled by the map's minimum exposure score, an optimistic per-distance
    exposure rate.
    """
    s, g = _check_query(env, field, s, g)
    t0 = time.perf_counter()
    hs = (env.manhattan3_to(g) * field.min_score()).tolist()
    return _result("ess", {}, s, g, t0,
                   *_fixed_cost_astar(env, s, g, field._counts, field.n, hs))


def _fixed_cost_astar(env, s, g, costs, scale, hs):
    """_best_first where entering nb costs costs[nb] / scale, with h hs[nb]."""
    adj, push = env.adjacency, heapq.heappush

    def expand(region, idx, gg, state, heap, best_g, counter):
        for nb in adj[region]:
            # a step costs at least 0: skip, unpriced, a neighbour whose
            # best g is already at most gg (module docstring)
            if gg >= best_g[nb]:
                continue
            ng = gg + costs[nb] / scale
            if ng < best_g[nb]:
                best_g[nb] = ng
                hn = hs[nb]
                push(heap, (ng + hn, hn, nb, next(counter), idx, ng, None))

    return _best_first(env.n, s, g, hs[s], None, expand)


def _best_first(n, s, g, h0, state0, expand, budget=-1):
    """The pop loop of every planner; the module docstring gives its heap
    rows and closed lists. Returns (status, path, cost, expansions, stats).
    The start's row carries state0 (rows[s] for binary and exact, the
    counters before the start for saturation), and a row popped with g
    above its region's best g is stale.

    expand(region, idx, g, state, heap, best_g, counter) runs once per
    expanded node but the goal, idx being the node's index in the closed
    lists. It takes the state the node's row carries (saturation builds the
    node's own from it) and pushes each neighbour nb as (g + h, h, nb,
    next(counter), idx, g, state') itself, setting best_g[nb] if it keys on
    regions, so no call is made per push. The start is seq 0 and index 0;
    counter goes on from 1. Every region-keyed expand reads best_g[nb] first
    and skips, before pricing, a step that cannot beat it; the module
    docstring shows that this is exact.

    The goal's pop counts as an expansion. Past budget expansions the next
    pop ends the search: found if it is the goal, else budget_exceeded. The
    default -1 sets none, and as an int keeps that test on the fast path.

    stats, a SearchStats of pushes, stale_pops, peak_frontier and closed,
    comes from what the loop keeps anyway (see _search_stats), plus one
    len(heap) test per expansion for the peak frontier: nothing is counted
    per push or per pop.
    """
    pop = heapq.heappop
    heap = [(h0, h0, s, 0, -1, 0.0, state0)]
    best_g = [math.inf] * n
    best_g[s] = 0.0
    counter = itertools.count(1)
    regions, parents = [], []
    expansions = 0
    peak = 1
    while heap:
        _, _, region, _, parent, gg, state = pop(heap)
        if gg > best_g[region]:
            continue
        if region == g:
            path = [region]
            while parent >= 0:
                path.append(regions[parent])
                parent = parents[parent]
            return (FOUND, path[::-1], gg, expansions + 1,
                    _search_stats(counter, heap, expansions + 1, 0, len(regions), peak))
        if expansions == budget:
            return (BUDGET_EXCEEDED, None, None, expansions,
                    _search_stats(counter, heap, expansions, 1, len(regions), peak))
        expand(region, expansions, gg, state, heap, best_g, counter)
        regions.append(region)
        parents.append(parent)
        expansions += 1
        if len(heap) > peak:
            peak = len(heap)
    return (NO_PATH, None, None, expansions,
            _search_stats(counter, heap, expansions, 0, len(regions), peak))


def _search_stats(counter, heap, expansions, held, closed, peak) -> SearchStats:
    """The counters from the loop's state when it ends, closed being the
    length of the closed lists. A stale pop is any row but those still in
    the heap, the expanded ones (the goal's among them) and held, the one
    row a budget stop pops."""
    pushes = next(counter) - 1
    return SearchStats(pushes, pushes + 1 - len(heap) - expansions - held, peak, closed)


def _one_step(field, dest, state, make_expand, *params):
    """The price of a step into dest from a node whose state is state, as
    the planner of make_expand(rows, adj, *params) prices it. Its expand
    runs once, at g 0, for a virtual region n whose row is 0 and whose one
    neighbour is dest. Row n exposes nothing, so that node's state is state
    itself (saturation's ripple for it adds to no count), and the one row
    it pushes holds the price as its g."""
    dest, n = region_id(field.n, dest, "dest region"), field.n
    expand = make_expand(field.rows + (0,), {n: (dest,)}, *params)
    heap = []
    expand(n, 0, 0.0, state, heap, {dest: math.inf}, itertools.count())
    return heap[0][5]


def plan_binary(env, field, s: int, g: int, m: Optional[float] = None) -> PlanResult:
    """A* minimizing newly exposed regions.

    Each node carries its accumulator, everything its path has exposed;
    stepping into b costs the accumulator's growth, |acc | E(b)| - |acc|,
    plus m, a movement cost small enough (m < 1/n) that no amount of
    walking outweighs one exposure.
    Heuristic: goal exposures not yet in the accumulator.
    """
    s, g = _check_query(env, field, s, g)
    m = _check_m(1.0 / (2 * env.n) if m is None else m, env.n)
    params = {"m": m}
    t0 = time.perf_counter()
    rows, goal_set = field.rows, field.rows[g]
    expand = _binary_expand(rows, env.adjacency, goal_set, m)
    h0 = goal_set.bit_count() - (goal_set & rows[s]).bit_count()
    return _result("binary", params, s, g, t0,
                   *_best_first(env.n, s, g, h0, rows[s], expand))


def _binary_expand(rows, adj, goal_set, m):
    """plan_binary's expand. A node's state is its accumulator, the union of
    the rows its path occupies, and the node's own row carries it, so an
    expansion reads it as it is. Its one step rule: a step into nb makes the
    accumulator child = acc | rows[nb] and costs its growth,
    child.bit_count() - acc.bit_count(), plus m. The row it pushes carries
    child, with h the goal regions outside it, |goal_set| - |goal_set &
    child|."""
    push = heapq.heappush
    goal_size = goal_set.bit_count()

    def expand(region, idx, gg, acc, heap, best_g, counter):
        size = acc.bit_count()
        # every step costs at least m: skip, unpriced, a neighbour whose
        # best g the step cannot beat (module docstring)
        floor = gg + m
        for nb in adj[region]:
            if floor >= best_g[nb]:
                continue
            child = acc | rows[nb]
            ng = gg + (child.bit_count() - size) + m
            if ng < best_g[nb]:
                best_g[nb] = ng
                hn = goal_size - (goal_set & child).bit_count()
                push(heap, (ng + hn, hn, nb, next(counter), idx, ng, child))

    return expand


def plan_saturation(env, field, s: int, g: int, tau: int,
                    p_success: float = DEFAULT_P_SUCCESS) -> PlanResult:
    """A* on clamped exposure counts.

    Each step adds one sighting to every region the destination exposes; the
    destination itself saturates to tau immediately. Step cost is the
    resulting growth of the clamped objective, so regions already saturated
    are free to re-expose. With tau = 1 a step costs what plan_binary
    charges for it, minus m, times -log10(p_success); the heuristics differ,
    so the two planners can still return different paths.

    A node's clamped counts are bit-sliced saturating counters (see
    _saturation_expand): tau.bit_length() + 1 ints of n bits per node with
    queued children, where a count array would take n machine words.
    """
    s, g = _check_query(env, field, s, g)
    tau, p_success = _check_tau(tau), _check_p(p_success)
    params = {"tau": tau, "p_success": p_success}
    t0 = time.perf_counter()
    # h of every region, manhattan3(region, g) * tau * unit in that float
    # order, built once per query: a list read costs less than a method call
    unit = -math.log10(p_success)
    hs = (env.manhattan3_to(g) * tau * unit).tolist()
    expand = _saturation_expand(field.rows, env.adjacency, field._counts, hs, tau, unit)
    # every count is 0, stored as the bias: slice k is all n regions where
    # bit k of the bias is set
    every, bias = (1 << env.n) - 1, (1 << tau.bit_length()) - tau
    empty = ([every if bias >> k & 1 else 0 for k in range(tau.bit_length())], 0)
    return _result("saturation", params, s, g, t0,
                   *_best_first(env.n, s, g, hs[s], empty, expand))


def _saturation_expand(rows, adj, counts, hs, tau, unit):
    """plan_saturation's expand. A node's state is (slices, sat): sat holds
    the regions whose clamped count min(c_i, tau) has reached tau, where c_i
    counts the sightings of region i, and bit i of slices[k] is bit k of
    c_i + bias for each region i outside sat, with B = tau.bit_length() and
    bias = 2**B - tau. An unsaturated count is below tau, so its biased
    value is below 2**B - 1 and fits the B slices. A region's slices are
    unspecified once it is in sat: nothing reads them. "Regions below tau
    among a row" is then row ^ (row & sat), and its size |row| - |row & sat|.

    Expanding a node advances its parent's state by the step into region:
    every unsaturated region it exposes gains one sighting, by a
    ripple-carry add of one across the slices, and region itself saturates
    (fields are reflexive). A count that reaches tau reaches 2**B biased,
    so the carry left after the top slice is the set of regions that reach
    tau. Its one step rule: a step into nb costs unit times the growth of
    sum(min(c, tau)), one per unsaturated region it exposes, plus, when nb
    is unsaturated, the rest of nb's jump from its count to tau: tau - 1 -
    c_nb, which is 2**B - 1 less nb's biased value."""
    push = heapq.heappush
    top = (1 << tau.bit_length()) - 1

    def expand(region, idx, gg, state, heap, best_g, counter):
        slices, sat = state
        row = rows[region]
        carry = row ^ (row & sat)
        out = []
        for s in slices:
            out.append(s ^ carry)
            carry &= s
        sat |= carry | 1 << region
        state = (out, sat)
        for nb in adj[region]:
            # skip a neighbour whose best g the step cannot beat (module
            # docstring): unpriced if it is at most gg, and before reading
            # nb's count if it is at most gg plus the rows' growth, to which
            # nb's jump only adds
            if gg >= best_g[nb]:
                continue
            grow = counts[nb] - (rows[nb] & sat).bit_count()
            if gg + grow * unit >= best_g[nb]:
                continue
            # an unsaturated nb jumps from its count to tau, one sighting
            # of which the rows' growth already counts
            jump = 0
            if not sat >> nb & 1:
                jump = top
                for k, s in enumerate(out):
                    jump -= (s >> nb & 1) << k
            ng = gg + (grow + jump) * unit
            if ng < best_g[nb]:
                best_g[nb] = ng
                hn = hs[nb]
                push(heap, (ng + hn, hn, nb, next(counter), idx, ng, state))

    return expand


def saturation_step_cost(field, counts: np.ndarray, dest: int, tau: int,
                         p_success: float) -> float:
    """Cost plan_saturation assigns to stepping into dest from a node whose
    accumulated counts are given. Exposed here for transition-level tests;
    it runs the planner's own expand for the one step (_one_step)."""
    tau, p_success = _check_tau(tau), _check_p(p_success)
    counts = np.asarray(counts)
    if counts.shape != (field.n,) or counts.dtype.kind not in "iu" or (counts < 0).any():
        raise ValueError(f"counts must be {field.n} non-negative integers, one per region")
    clamped = np.minimum(counts, tau)
    # biased as _saturation_expand stores them
    biased = clamped.astype(np.int64) + ((1 << tau.bit_length()) - tau)
    slices = [mask_from_indices(np.flatnonzero(biased >> k & 1))
              for k in range(tau.bit_length())]
    state = (slices, mask_from_indices(np.flatnonzero(clamped == tau)))
    return _one_step(field, dest, state, _saturation_expand, field._counts,
                     [0.0] * (field.n + 1), tau, -math.log10(p_success))


def binary_step_cost(field, accumulator: int, dest: int, m: float) -> float:
    """Cost plan_binary assigns to the same transition, for the tau = 1 link;
    it runs the planner's own expand for the one step (_one_step). The
    accumulator passes terrain's region-set rule (region_set)."""
    accumulator = region_set(accumulator, "accumulator")
    return _one_step(field, dest, accumulator, _binary_expand, 0, _check_m(m, field.n))


def plan_exact(env, field, s: int, g: int,
               node_budget: int = DEFAULT_NODE_BUDGET) -> PlanResult:
    """Optimal binary-exposure search over (region, exposed set E) nodes.

    E is the union of the rows of the regions a path has occupied, its cost
    so far is |E|, and the cost of finishing it depends only on its region
    and E. So (region, E) is an exact state, and two arrivals at one key
    cost the same: a push-time set of keys dedupes them. g is E's growth
    past the start's row and h, the goal's regions outside E, is
    consistent. The loop's best g of 0 at the start drops every return to
    it, which the start's own node dominates.

    Keys on E admit walks, so a found walk has its loops cut. That can only
    shrink E, and the walk was optimal, so the path costs the same.

    Exponential in the worst case, so it stops as budget_exceeded after
    node_budget expansions rather than return a suboptimal path. A goal
    popped at the budget is still found; a frontier that runs out is no_path.
    """
    s, g = _check_query(env, field, s, g)
    # an int count of expansions never equals a fractional or infinite budget
    node_budget = _integer("node_budget", node_budget)
    params = {"node_budget": node_budget}
    t0 = time.perf_counter()

    rows, adj, push = field.rows, env.adjacency, heapq.heappush
    goal_set, base = rows[g], field._counts[s]
    seen = {(s, rows[s])}

    def expand(region, idx, gg, acc, heap, best_g, counter):
        for nb in adj[region]:
            key = (nb, acc | rows[nb])
            if key not in seen:
                seen.add(key)
                ng = key[1].bit_count() - base
                hn = (goal_set ^ (goal_set & key[1])).bit_count()
                push(heap, (ng + hn, hn, nb, next(counter), idx, ng, key[1]))

    h0 = (goal_set ^ (goal_set & rows[s])).bit_count()
    status, walk, cost, n, stats = _best_first(env.n, s, g, h0, rows[s], expand,
                                               node_budget)
    if walk is None:
        return _result("exact", params, s, g, t0, status, None, None, n, stats)
    path = []
    for r in walk:  # cut the walk's loops
        if r in path:
            del path[path.index(r):]
        path.append(r)
    return _result("exact", params, s, g, t0, status, path, cost + base, n, stats)


def _result(algorithm, params, s, g, t0, status, path, cost, expansions,
            stats) -> PlanResult:
    return PlanResult(algorithm, status, s, g, path, None if cost is None else float(cost),
                      expansions, time.perf_counter() - t0, params, stats)


def plan(algorithm: str, env, field, s: int, g: int, *, tau: Optional[int] = None,
         p_success: float = DEFAULT_P_SUCCESS, m: Optional[float] = None,
         node_budget: int = DEFAULT_NODE_BUDGET) -> PlanResult:
    """Run the planner named algorithm on one query. Each takes only its own
    parameters (binary m; saturation tau, required, and p_success; exact
    node_budget) and ignores the rest."""
    if algorithm == "shortest":
        return plan_shortest(env, field, s, g)
    if algorithm == "ess":
        return plan_ess(env, field, s, g)
    if algorithm == "binary":
        return plan_binary(env, field, s, g, m)
    if algorithm == "saturation":
        return plan_saturation(env, field, s, g, tau, p_success)
    if algorithm == "exact":
        return plan_exact(env, field, s, g, node_budget)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")


def score_path(field, path: Sequence[int], tau: Optional[int] = None,
               p_success: float = DEFAULT_P_SUCCESS) -> tuple[int, float]:
    """(obj_bin, obj_acc) of a path, the same for every algorithm; tau
    defaults to 1."""
    t = 1 if tau is None else tau
    return obj_bin(field, path), obj_acc(path_counts(field, path, t), p_success, t)


def result_record(field, result: PlanResult) -> dict:
    """Flatten a PlanResult into one serializable record, its path scored
    at the planner's own tau and p_success if it has them."""
    found = result.path is not None
    obj = score_path(field, result.path, result.params.get("tau"),
                     result.params.get("p_success", DEFAULT_P_SUCCESS)) if found else (None, None)
    return {
        "algorithm": result.algorithm,
        "params": dict(result.params),
        "start": result.start,
        "goal": result.goal,
        "status": result.status,
        "path": list(result.path) if found else None,
        "cost": result.cost,
        "obj_bin": obj[0],
        "obj_acc": obj[1],
        "expansions": result.expansions,
        "runtime_s": result.runtime,
    }
