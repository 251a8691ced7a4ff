import heapq
import json
import math
import re
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthpath import (ALGORITHMS, BUDGET_EXCEEDED, DEFAULT_CELL_SIZE,
                         DEFAULT_MAX_STEP, FOUND, NO_PATH,
                         ExplicitGraph, ExposureField, build_environment,
                         compute_exposure_field, exposed_set, generate_map,
                         lemma1_fixture,
                         obj_acc, obj_bin, path_counts, plan, plan_binary,
                         plan_ess, plan_exact, plan_saturation, plan_shortest,
                         result_record, validate_path)
from stealthpath.search import SearchStats, binary_step_cost, saturation_step_cost


def bfs_steps(env, s, g):
    """Independent unweighted distance oracle."""
    if s == g:
        return 0
    seen = {s}
    frontier = deque([(s, 0)])
    while frontier:
        r, dist = frontier.popleft()
        for nb in env.neighbors(r):
            if nb == g:
                return dist + 1
            if nb not in seen:
                seen.add(nb)
                frontier.append((nb, dist + 1))
    return None


def reference_plan_saturation(env, field, s, g, tau, p_success=0.95):
    """The count-array plan_saturation, frozen as the oracle for the
    bit-sliced one: each expanded node holds an n-length array of raw
    sighting counts, and the heuristic reads the numpy points.

    Returns (path, cost, expansions, status).
    """
    unit = -math.log10(p_success)

    def h(r):
        if env.points is None:
            return 0.0
        pa, pb = env.points[r], env.points[g]
        return float(abs(pa[0] - pb[0]) + abs(pa[1] - pb[1]) + abs(pa[2] - pb[2]))

    counts0 = np.zeros(env.n, dtype=np.int64)
    counts0[field.members(s)] += 1
    counts0[s] += tau - 1
    h0 = h(s) * tau * unit
    heap = [(h0, h0, s, 0)]
    nodes = [(s, -1, 0.0)]
    counts_of = {0: counts0}
    best_g = {s: 0.0}
    expansions = 0
    while heap:
        f, hr, region, idx = heapq.heappop(heap)
        _, parent_idx, gg = nodes[idx]
        if gg > best_g.get(region, math.inf):
            continue
        counts = counts_of.get(idx)
        if counts is None:
            counts = counts_of[parent_idx].copy()
            counts[field.members(region)] += 1
            counts[region] += tau - 1
            counts_of[idx] = counts
        expansions += 1
        if region == g:
            path = []
            while idx >= 0:
                path.append(nodes[idx][0])
                idx = nodes[idx][1]
            return path[::-1], float(gg), expansions, FOUND
        for nb in env.neighbors(region):
            mem = field.members(nb)
            below = int(np.count_nonzero(counts[mem] < tau))
            cb = int(counts[nb])
            if cb < tau:
                below -= 1
            delta = below + (tau - min(cb, tau))
            ng = gg + delta * unit
            if ng < best_g.get(nb, math.inf):
                best_g[nb] = ng
                hn = h(nb) * tau * unit
                nodes.append((nb, idx, ng))
                heapq.heappush(heap, (ng + hn, hn, nb, len(nodes) - 1))
    return None, None, expansions, NO_PATH


def reference_plan_binary(env, field, s, g, m=None):
    """The eager-accumulator plan_binary, frozen as the oracle for the lazy
    one: every pushed node carries its accumulator, a step is priced as the
    growth of acc | row, and the heuristic counts goal & ~acc.

    Returns (path, cost, expansions, status).
    """
    if m is None:
        m = 1.0 / (2 * env.n)
    goal_set = field.exposure_set(g)
    acc0 = field.exposure_set(s)
    h0 = (goal_set & ~acc0).bit_count()
    heap = [(float(h0), float(h0), s, 0)]
    nodes = [(s, -1, 0.0, acc0)]
    best_g = {s: 0.0}
    expansions = 0
    while heap:
        f, hr, region, idx = heapq.heappop(heap)
        _, parent_idx, gg, acc = nodes[idx]
        if gg > best_g.get(region, math.inf):
            continue
        expansions += 1
        if region == g:
            path = []
            while idx >= 0:
                path.append(nodes[idx][0])
                idx = nodes[idx][1]
            return path[::-1], float(gg), expansions, FOUND
        for nb in env.neighbors(region):
            nacc = acc | field.exposure_set(nb)
            ng = gg + (nacc.bit_count() - acc.bit_count()) + m
            if ng < best_g.get(nb, math.inf):
                best_g[nb] = ng
                hn = float((goal_set & ~nacc).bit_count())
                nodes.append((nb, idx, ng, nacc))
                heapq.heappush(heap, (ng + hn, hn, nb, len(nodes) - 1))
    return None, None, expansions, NO_PATH


def reference_astar_region(env, s, g, step_cost, h):
    """The region-keyed A* loop plan_shortest and plan_ess ran on, frozen
    as their oracle: a node list of (region, parent_idx, g) rows and one
    step-cost and one heuristic callable per query.

    Returns (path, cost, expansions, status).
    """
    hs = h(s)
    heap = [(hs, hs, s, 0)]
    nodes = [(s, -1, 0.0)]
    best_g = [math.inf] * env.n
    best_g[s] = 0.0
    expansions = 0
    while heap:
        f, hr, region, idx = heapq.heappop(heap)
        gg = nodes[idx][2]
        if gg > best_g[region]:
            continue
        expansions += 1
        if region == g:
            path = []
            while idx >= 0:
                path.append(nodes[idx][0])
                idx = nodes[idx][1]
            return path[::-1], float(gg), expansions, FOUND
        for nb in env.neighbors(region):
            ng = gg + step_cost(region, nb)
            if ng < best_g[nb]:
                best_g[nb] = ng
                hn = h(nb)
                nodes.append((nb, idx, ng))
                heapq.heappush(heap, (ng + hn, hn, nb, len(nodes) - 1))
    return None, None, expansions, NO_PATH


def reference_plan_shortest(env, field, s, g):
    """Unit steps, grid-distance heuristic."""
    return reference_astar_region(env, s, g, step_cost=lambda a, b: 1.0,
                                  h=lambda r: float(env.min_steps(r, g)))


def reference_plan_ess(env, field, s, g):
    """A step costs the destination's exposure score; the heuristic is the
    3D Manhattan distance times the map's minimum score."""
    scores = field.scores()
    delta = field.min_score()
    return reference_astar_region(env, s, g, step_cost=lambda a, b: scores[b],
                                  h=lambda r: env.manhattan3(r, g) * delta)


def reference_plan_exact(env, field, s, g, node_budget):
    """The (region, visited set) exact planner, frozen as the oracle for the
    (region, exposed set) one: only unvisited successors are generated, and
    a node carries its visited and exposed bitsets.

    Returns (path, cost, expansions, status).
    """
    rows, adj = field.rows, env.adjacency
    goal_set = rows[g]
    eps0 = rows[s]
    f0 = (eps0 | goal_set).bit_count()
    heap = [(f0, f0 - eps0.bit_count(), s, 0)]
    nodes = [(s, -1, 1 << s, eps0)]
    seen = {(s, 1 << s)}
    expansions = 0
    while heap:
        f, hr, region, idx = heapq.heappop(heap)
        _, parent_idx, visited, eps = nodes[idx]
        if region == g:
            path = []
            while idx >= 0:
                path.append(nodes[idx][0])
                idx = nodes[idx][1]
            return path[::-1], float(eps.bit_count()), expansions, FOUND
        if expansions >= node_budget:
            return None, None, expansions, BUDGET_EXCEEDED
        expansions += 1
        for nb in adj[region]:
            bit = 1 << nb
            if visited & bit:
                continue
            nvis = visited | bit
            key = (nb, nvis)
            if key in seen:
                continue
            seen.add(key)
            neps = eps | rows[nb]
            cost = neps.bit_count()
            nf = (neps | goal_set).bit_count()
            nodes.append((nb, idx, nvis, neps))
            heapq.heappush(heap, (nf, nf - cost, nb, len(nodes) - 1))
    return None, None, expansions, NO_PATH


def reference_path_counts(field, path, tau):
    """The members-based path_counts, frozen as its oracle."""
    counts = np.zeros(field.n, dtype=np.int64)
    for r in path:
        counts[field.members(r)] += 1
        counts[r] += tau - 1
    return counts


def random_field(rng, n, density):
    """Random reflexive, symmetric field over n regions."""
    sees = rng.random((n, n)) < density
    sees = sees | sees.T | np.eye(n, dtype=bool)
    return ExposureField([sum(1 << int(j) for j in np.flatnonzero(row)) for row in sees])


def random_world(seed, shape=(5, 5), max_step=1.0):
    rng = np.random.default_rng(seed)
    elev = rng.uniform(0.0, 3.0, shape)
    env = build_environment(elev, cell_size=2.0, max_step=max_step)
    return env, compute_exposure_field(env)


class TestObjBin:
    def test_empty_path_rejected(self, flat5):
        with pytest.raises(ValueError, match="empty"):
            obj_bin(flat5[1], [])

    def test_flat_single_region_sees_all(self, flat5):
        assert obj_bin(flat5[1], [12]) == 25

    def test_is_the_size_of_the_exposed_set(self, boxes12):
        _, field = boxes12
        rng = np.random.default_rng(4)
        for length in (1, 2, 7, 30):
            walk = [int(v) for v in rng.integers(0, field.n, length)]
            assert obj_bin(field, walk) == exposed_set(field, walk).bit_count()

    def test_union_dominates_members(self, boxes12):
        _, field = boxes12
        rng = np.random.default_rng(1)
        walk = [int(rng.integers(0, field.n))]
        for _ in range(10):
            walk.append(int(rng.integers(0, field.n)))
        assert obj_bin(field, walk) >= max(field.exposure_count(r) for r in walk)


class TestObjAcc:
    def test_zero_counts(self):
        assert obj_acc([0, 0, 0], 0.9, 3) == 0.0

    def test_frozen_values(self):
        # direct evaluations of the clamped product, frozen independently
        assert obj_acc([3], 0.9, 2) == pytest.approx(0.09151498112135023, rel=1e-12)
        assert obj_acc([1, 1, 1], 0.5, 5) == pytest.approx(0.9030899869919436, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=40),
           st.sampled_from([0.5, 0.9, 0.99]),
           st.sampled_from([1, 5, 200]))
    def test_clamped_sum_identity(self, counts, p, tau):
        expect = -math.log10(p) * sum(min(c, tau) for c in counts)
        got = obj_acc(counts, p, tau)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_a_term_that_underflows_counts_its_clamped_sightings(self):
        # 0.95 ** 20000 underflows to 0.0; its term is 20000 * -log10(0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert obj_acc([20000], 0.95, 20000) == pytest.approx(445.5279, rel=1e-6)
            assert obj_acc([20000, 30000, 2], 0.95, 20000) == pytest.approx(
                -math.log10(0.95) * 40002, rel=1e-12)

    def test_a_subnormal_power_gets_the_closed_form(self):
        # 0.01 ** 160 and 0.01 ** 161 lie below the smallest normal float:
        # log10 of the rounded subnormal was off by up to 1.6e-5 relative
        assert obj_acc([161], 0.01, 200) == 322.0
        assert obj_acc([160], 0.01, 200) == 320.0
        assert obj_acc([161, 160, 1], 0.01, 200) == 644.0

    def test_a_normal_power_keeps_its_bits(self):
        # 0.01 ** 153 is the last normal power of 0.01
        for c in range(154):
            assert obj_acc([c], 0.01, 200) == float(-np.log10(np.float64(0.01) ** c))
        for c in (0, 1, 7, 500, 13000):
            assert obj_acc([c], 0.95, 20000) == float(-np.log10(np.float64(0.95) ** c))

    def test_the_fixture_at_tau_200_scores_its_planned_cost(self):
        fx = lemma1_fixture()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = plan_saturation(fx.graph, fx.field, fx.index("F"), fx.index("H"), 200, 0.01)
            rec = result_record(fx.field, res)
        # the cost is the growth of the objective past the start's own term
        counts = path_counts(fx.field, res.path, 200)
        root = path_counts(fx.field, res.path[:1], 200)
        assert res.cost == 2010.0
        assert obj_acc(counts, 0.01, 200) - obj_acc(root, 0.01, 200) == pytest.approx(
            res.cost, rel=1e-12)
        assert rec["obj_acc"] == pytest.approx(2 * np.minimum(counts, 200).sum(), rel=1e-12)
        json.dumps(rec, allow_nan=False)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="p_success"):
            obj_acc([1], 0.0, 1)
        with pytest.raises(ValueError, match="p_success"):
            obj_acc([1], 1.0, 1)
        with pytest.raises(ValueError, match="tau"):
            obj_acc([1], 0.5, 0)
        with pytest.raises(ValueError, match="non-negative"):
            obj_acc([-1], 0.5, 1)


class TestPathCounts:
    def test_single_region(self, flat5):
        _, field = flat5
        counts = path_counts(field, [3], tau=4)
        assert counts[3] == 4
        assert counts.sum() == 24 + 4  # 1 per other region, tau for occupied

    def test_occupancy_dominates_revisit(self, flat5):
        _, field = flat5
        counts = path_counts(field, [3, 4], tau=5)
        assert counts[3] == 5 + 1  # occupied once, then seen once more
        assert counts[4] == 5 + 1

    def test_repeated_region_counts_each_visit(self, flat5):
        _, field = flat5
        counts = path_counts(field, [3, 3, 4, 3], tau=5)
        assert counts[3] == 3 * 5 + 1
        assert counts[4] == 5 + 3

    @pytest.mark.parametrize("bad", [-1, 25])
    def test_region_out_of_range(self, flat5, bad):
        _, field = flat5
        with pytest.raises(ValueError, match=f"region {bad} outside"):
            path_counts(field, [3, bad, 4], tau=2)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.bool_(True), None], ids=repr)
    def test_non_integer_region_is_rejected(self, flat5, bad):
        _, field = flat5
        with pytest.raises(ValueError, match=r"path\[1\] must be an integer"):
            path_counts(field, [0, bad, 4], tau=2)

    def test_numpy_integers_are_regions(self, flat5):
        _, field = flat5
        assert np.array_equal(path_counts(field, [np.int64(3), np.int32(4)], tau=5),
                              path_counts(field, [3, 4], tau=5))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 90, 131])
    def test_matches_members_oracle(self, n):
        rng = np.random.default_rng(n)
        field = random_field(rng, n, 0.3)
        for tau in (1, 2, 5):
            for length in (1, 2, 5, 40):
                path = [int(v) for v in rng.integers(0, n, length)]
                got = path_counts(field, path, tau)
                want = reference_path_counts(field, path, tau)
                assert got.dtype == np.int64 and np.array_equal(got, want), (n, tau, path)

    def test_planned_paths_match_members_oracle(self, boxes12):
        env, field = boxes12
        for s, g in random_queries(env, 10, 8):
            path = plan_saturation(env, field, s, g, tau=3).path
            if path is not None:
                assert np.array_equal(path_counts(field, path, 3),
                                      reference_path_counts(field, path, 3))


class TestPlanShortest:
    def test_start_equals_goal(self, flat5):
        env, field = flat5
        res = plan_shortest(env, field, 7, 7)
        assert res.status == FOUND and res.path == [7] and res.cost == 0.0

    def test_flat_corner_to_corner(self, flat5):
        env, field = flat5
        res = plan_shortest(env, field, env.index(0, 0), env.index(2, 2))
        assert len(res.path) == 5

    def test_matches_bfs_on_random_maps(self):
        for seed in range(25):
            env, field = random_world(seed, (6, 6))
            rng = np.random.default_rng(seed + 999)
            s, g = (int(v) for v in rng.integers(0, env.n, 2))
            res = plan_shortest(env, field, s, g)
            expect = bfs_steps(env, s, g)
            if expect is None:
                assert res.status == NO_PATH
            else:
                assert res.status == FOUND
                assert len(res.path) - 1 == expect
                validate_path(env, res.path)

    def test_no_path(self):
        env = build_environment([[0.0, 9.0, 0.0]], max_step=1.0)
        field = compute_exposure_field(env)
        res = plan_shortest(env, field, 0, 2)
        assert res.status == NO_PATH and res.path is None and res.cost is None

    def test_query_validation(self, flat5):
        env, field = flat5
        with pytest.raises(ValueError, match="goal"):
            plan_shortest(env, field, 0, 99)


class TestPlanEss:
    def test_flat_map_reduces_to_shortest(self, flat5):
        env, field = flat5
        res = plan_ess(env, field, env.index(0, 0), env.index(4, 4))
        assert res.status == FOUND
        assert len(res.path) == 9  # a minimal path, every step costing 1.0
        assert res.cost == pytest.approx(8.0)

    def test_prefers_the_hollow(self):
        # a straight ridge crossing vs a sheltered detour along the east rim
        elev = np.zeros((7, 7))
        elev[:, 3] = 0.95  # knee-high ridge, climbable but exposing
        elev[2:5, 5] = 3.0  # tall block carving a hollow behind it
        env = build_environment(elev, cell_size=10.0, max_step=1.0)
        field = compute_exposure_field(env)
        res = plan_ess(env, field, env.index(3, 0), env.index(3, 6))
        base = plan_shortest(env, field, env.index(3, 0), env.index(3, 6))
        cost_of = lambda p: sum(field.exposure_score(r) for r in p[1:])
        assert cost_of(res.path) <= cost_of(base.path)

    def test_deterministic(self, boxes12):
        env, field = boxes12
        a = plan_ess(env, field, 0, env.n - 1)
        b = plan_ess(env, field, 0, env.n - 1)
        assert a.path == b.path and a.cost == b.cost


class TestPlanBinary:
    def test_fully_covered_step_costs_m(self, flat5):
        _, field = flat5
        full = field.exposure_set(0)
        for r in range(field.n):
            full |= field.exposure_set(r)
        assert binary_step_cost(field, full, 3, m=0.01) == pytest.approx(0.01)

    def test_m_validation(self, flat5):
        env, field = flat5
        with pytest.raises(ValueError, match="m must be"):
            plan_binary(env, field, 0, 1, m=1.0 / env.n)
        with pytest.raises(ValueError, match="m must be"):
            plan_binary(env, field, 0, 1, m=0.0)

    def test_start_equals_goal(self, boxes12):
        env, field = boxes12
        res = plan_binary(env, field, 5, 5)
        assert res.status == FOUND and res.path == [5] and res.cost == 0.0

    def test_fixture_is_at_least_optimal(self):
        fx = lemma1_fixture()
        res = plan_binary(fx.graph, fx.field, fx.index("F"), fx.index("H"))
        assert res.status == FOUND
        assert obj_bin(fx.field, res.path) >= 12

    def test_cost_decomposes_over_steps(self, boxes12):
        env, field = boxes12
        res = plan_binary(env, field, 1, env.n - 2)
        assert res.status == FOUND
        m = 1.0 / (2 * env.n)
        acc = field.exposure_set(res.path[0])
        total = 0.0
        for r in res.path[1:]:
            total += binary_step_cost(field, acc, r, m)
            acc |= field.exposure_set(r)
        assert res.cost == pytest.approx(total)
        assert acc.bit_count() == obj_bin(field, res.path)


class TestPlanSaturation:
    def test_tau_validation(self, flat5):
        env, field = flat5
        with pytest.raises(ValueError, match="tau"):
            plan_saturation(env, field, 0, 1, tau=0)
        with pytest.raises(ValueError, match="p_success"):
            plan_saturation(env, field, 0, 1, tau=1, p_success=1.5)

    def test_saturated_transitions_are_free(self, flat5):
        _, field = flat5
        counts = np.full(field.n, 7, dtype=np.int64)
        assert saturation_step_cost(field, counts, 9, tau=5, p_success=0.9) == 0.0

    def test_cost_matches_objective_growth(self, boxes12):
        env, field = boxes12
        tau, p = 3, 0.9
        res = plan_saturation(env, field, 2, env.n - 1, tau=tau, p_success=p)
        assert res.status == FOUND
        validate_path(env, res.path)
        root = path_counts(field, res.path[:1], tau)
        expect = obj_acc(path_counts(field, res.path, tau), p, tau) - obj_acc(root, p, tau)
        assert res.cost == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("tau", [2, 5, 25])
    @pytest.mark.parametrize("world", ["boxes12", "hills20", "graph_past_one_word"])
    def test_cost_is_its_step_costs_summed(self, world, tau, request):
        """saturation_step_cost from the counts of each prefix (path_counts),
        summed in path order, is the planner's cost to the bit. Past tau = 1
        a saturated region's counters are unspecified, and the step rule
        reads only those of unsaturated regions."""
        if world == "graph_past_one_word":
            env, field = graph_past_one_word(4, True)
        else:
            env, field = request.getfixturevalue(world)
        steps = 0
        for s, g in random_queries(env, 10, 11) + [(0, env.n - 1)]:
            res = plan_saturation(env, field, s, g, tau=tau)
            if res.status != FOUND:
                continue
            total = 0.0
            for k in range(1, len(res.path)):
                counts = path_counts(field, res.path[:k], tau)
                total += saturation_step_cost(field, counts, res.path[k], tau, 0.95)
            assert total == res.cost, (s, g)
            steps += len(res.path) - 1
        assert steps >= 30

    def test_tau_one_matches_binary_pricing(self, boxes12):
        env, field = boxes12
        rng = np.random.default_rng(17)
        m = 1.0 / (2 * env.n)
        unit = -math.log10(0.95)
        for _ in range(200):
            walk = [int(rng.integers(0, env.n))]
            for _ in range(int(rng.integers(0, 8))):
                nbs = env.neighbors(walk[-1])
                if not nbs:
                    break
                walk.append(nbs[int(rng.integers(0, len(nbs)))])
            counts = path_counts(field, walk, tau=1)
            acc = 0
            for r in walk:
                acc |= field.exposure_set(r)
            dest = int(rng.integers(0, env.n))
            t_sat = saturation_step_cost(field, counts, dest, 1, 0.95)
            t_bin = binary_step_cost(field, acc, dest, m)
            assert t_sat == pytest.approx(unit * (t_bin - m), rel=1e-10, abs=1e-14)


# every slice width from 1 to 5 bits, on both sides of each width boundary
ORACLE_TAUS = [1, 2, 3, 4, 7, 8, 25]

# biases (2**bit_length(tau) - tau) at the edges of the counters: a lone
# bias bit at the top of five (16) or six (32) slices, and a bias of 1 over
# five slices (31); run on the small grid and past one word only
WIDE_TAUS = [16, 31, 32]


def assert_matches_oracle(env, field, queries, tau, p_success=0.95):
    for s, g in queries:
        res = plan_saturation(env, field, s, g, tau=tau, p_success=p_success)
        want = reference_plan_saturation(env, field, s, g, tau, p_success)
        assert (res.path, res.cost, res.expansions, res.status) == want, (s, g, tau)


def random_queries(env, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in rng.integers(0, env.n, 2)) for _ in range(count)]


class TestSaturationMatchesCountArrayOracle:
    """plan_saturation returns the frozen count-array planner's path, cost,
    expansions and status exactly, so the counters change no answer."""

    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    @pytest.mark.parametrize("world, count", [
        ("boxes12", 25), ("hills20", 12), ("boxes50", 6), ("hills50", 6),
    ])
    def test_maps(self, world, count, tau, request):
        env, field = request.getfixturevalue(world)
        assert_matches_oracle(env, field, random_queries(env, count, tau), tau)

    @pytest.mark.parametrize("tau", WIDE_TAUS)
    def test_small_grid_at_wide_taus(self, boxes12, tau):
        env, field = boxes12
        assert_matches_oracle(env, field, random_queries(env, 25, tau), tau)

    @pytest.mark.parametrize("with_points", [False, True], ids=["no-points", "points"])
    @pytest.mark.parametrize("tau", ORACLE_TAUS + WIDE_TAUS)
    def test_explicit_graph_past_one_machine_word(self, tau, with_points):
        n = 90
        rng = np.random.default_rng(tau)
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(40)]
        points = rng.uniform(0.0, 3.0, (n, 3)) if with_points else None
        graph = ExplicitGraph(n, edges, points=points)
        sees = rng.random((n, n)) < 0.2
        sees = sees | sees.T | np.eye(n, dtype=bool)
        field = ExposureField([sum(1 << int(j) for j in np.flatnonzero(row)) for row in sees])
        queries = random_queries(graph, 12, tau) + [(0, n - 1), (n - 1, 3)]
        assert_matches_oracle(graph, field, queries, tau, p_success=0.9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([(1, 5), (3, 3), (4, 5), (6, 6), (2, 8)]),
           st.sampled_from(ORACLE_TAUS),
           st.sampled_from([0.5, 0.95]))
    def test_random_grids(self, seed, shape, tau, p):
        env, field = random_world(seed, shape, max_step=float(seed % 3))
        assert_matches_oracle(env, field, random_queries(env, 6, seed), tau, p)


def reference_saturation_step_cost(field, counts, dest, tau, p_success):
    """The count-array pricing of a step into dest, as
    reference_plan_saturation prices it: one per region dest exposes whose
    count is below tau, plus, when dest is below tau, the rest of its jump
    to tau, times -log10(p_success)."""
    below = int(np.count_nonzero(counts[field.members(dest)] < tau))
    cb = int(counts[dest])
    if cb < tau:
        below -= 1
    return (below + (tau - min(cb, tau))) * -math.log10(p_success)


class TestSaturationStepCostMatchesCountArrayPricing:
    """saturation_step_cost, which biases the counts it is given into the
    planner's counters, prices a step as count arrays do, at the taus whose
    biases sit at the counters' edges, from counts on both sides of tau."""

    @pytest.mark.parametrize("tau", ORACLE_TAUS + WIDE_TAUS)
    @pytest.mark.parametrize("world", ["boxes12", "graph_past_one_word"])
    def test_random_counts(self, world, tau, request):
        if world == "graph_past_one_word":
            env, field = graph_past_one_word(5, False)
        else:
            env, field = request.getfixturevalue(world)
        rng = np.random.default_rng(tau)
        for _ in range(40):
            counts = rng.integers(0, tau + 3, env.n)
            dest = int(rng.integers(0, env.n))
            want = reference_saturation_step_cost(field, counts, dest, tau, 0.9)
            assert saturation_step_cost(field, counts, dest, tau, 0.9) == want


def assert_binary_matches_oracle(env, field, queries, m=None):
    for s, g in queries:
        res = plan_binary(env, field, s, g, m=m)
        want = reference_plan_binary(env, field, s, g, m)
        assert (res.path, res.cost, res.expansions, res.status) == want, (s, g)


class TestBinaryMatchesEagerOracle:
    """plan_binary returns the frozen eager-accumulator planner's path, cost,
    expansions and status exactly: lazy accumulators and positive-only
    step pricing change no answer."""

    @pytest.mark.parametrize("world, count", [
        ("boxes12", 40), ("hills20", 25), ("boxes50", 12), ("hills50", 12),
    ])
    def test_maps(self, world, count, request):
        env, field = request.getfixturevalue(world)
        assert_binary_matches_oracle(env, field, random_queries(env, count, 5))

    def test_explicit_movement_cost(self, boxes12):
        env, field = boxes12
        assert_binary_matches_oracle(env, field, random_queries(env, 10, 6),
                                     m=1.0 / (3 * env.n))

    @pytest.mark.parametrize("with_points", [False, True], ids=["no-points", "points"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_explicit_graph_past_one_machine_word(self, seed, with_points):
        n = 90
        rng = np.random.default_rng(seed)
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(40)]
        points = rng.uniform(0.0, 3.0, (n, 3)) if with_points else None
        graph = ExplicitGraph(n, edges, points=points)
        field = random_field(rng, n, 0.2)
        queries = random_queries(graph, 12, seed) + [(0, n - 1), (n - 1, 3)]
        assert_binary_matches_oracle(graph, field, queries)

    def test_unreachable_goal(self):
        graph = ExplicitGraph(12, [(i, i + 1) for i in range(5)])
        field = random_field(np.random.default_rng(0), 12, 0.3)
        assert_binary_matches_oracle(graph, field, [(0, 11), (11, 0), (2, 4)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([(1, 5), (3, 3), (4, 5), (6, 6), (2, 8), (9, 9)]))
    def test_random_grids(self, seed, shape):
        env, field = random_world(seed, shape, max_step=float(seed % 3))
        assert_binary_matches_oracle(env, field, random_queries(env, 8, seed))


def assert_region_matches_oracle(planner, oracle, env, field, queries):
    for s, g in queries:
        res = planner(env, field, s, g)
        want = oracle(env, field, s, g)
        assert (res.path, res.cost, res.expansions, res.status) == want, (s, g)


@pytest.mark.parametrize("planner, oracle", [
    (plan_shortest, reference_plan_shortest), (plan_ess, reference_plan_ess),
], ids=["shortest", "ess"])
class TestShortestAndEssMatchRegionOracle:
    """plan_shortest and plan_ess return the frozen region A*'s path, cost,
    expansions and status exactly, ties included."""

    @pytest.mark.parametrize("world, count", [
        ("boxes12", 40), ("hills20", 25), ("boxes50", 12), ("hills50", 12),
    ])
    def test_maps(self, planner, oracle, world, count, request):
        env, field = request.getfixturevalue(world)
        assert_region_matches_oracle(planner, oracle, env, field,
                                     random_queries(env, count, 5))

    @pytest.mark.parametrize("with_points", [False, True], ids=["no-points", "points"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_explicit_graph_past_one_machine_word(self, planner, oracle, seed, with_points):
        n = 90
        rng = np.random.default_rng(seed)
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(40)]
        points = rng.uniform(0.0, 3.0, (n, 3)) if with_points else None
        graph = ExplicitGraph(n, edges, points=points)
        field = random_field(rng, n, 0.2)
        queries = random_queries(graph, 12, seed) + [(0, n - 1), (n - 1, 3)]
        assert_region_matches_oracle(planner, oracle, graph, field, queries)

    def test_unreachable_goal(self, planner, oracle):
        graph = ExplicitGraph(12, [(i, i + 1) for i in range(5)])
        field = random_field(np.random.default_rng(0), 12, 0.3)
        assert_region_matches_oracle(planner, oracle, graph, field, [(0, 11), (11, 0), (2, 4)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([(1, 5), (7, 1), (3, 3), (4, 5), (6, 6), (2, 8), (9, 9)]))
    def test_random_grids(self, planner, oracle, seed, shape):
        env, field = random_world(seed, shape, max_step=float(seed % 3))
        assert_region_matches_oracle(planner, oracle, env, field, random_queries(env, 8, seed))


EXACT_ORACLE_BUDGET = 20_000


def assert_exact_matches_oracle(env, field, queries, budget=EXACT_ORACLE_BUDGET):
    """Same status and cost wherever the oracle stays within its budget; every
    path found is simple, traversable and priced at its obj_bin."""
    for s, g in queries:
        _, want_cost, _, want_status = reference_plan_exact(env, field, s, g, budget)
        res = plan_exact(env, field, s, g, budget)
        if want_status != BUDGET_EXCEEDED:
            assert (res.status, res.cost) == (want_status, want_cost), (s, g)
        if res.found:
            path = res.path
            assert path[0] == s and path[-1] == g, (s, g)
            assert len(set(path)) == len(path), (s, g, path)
            validate_path(env, path)
            assert obj_bin(field, path) == res.cost, (s, g)
        else:
            assert res.path is None and res.cost is None


class TestExactMatchesVisitedSetOracle:
    """plan_exact on (region, exposed set) nodes finds the frozen visited-set
    planner's optimum wherever that planner finds one. Paths may differ on
    ties and expansion counts differ."""

    def test_fixture(self):
        fx = lemma1_fixture()
        queries = [(a, b) for a in range(fx.graph.n) for b in range(fx.graph.n)]
        assert_exact_matches_oracle(fx.graph, fx.field, queries)

    @pytest.mark.parametrize("world, count", [("boxes12", 40), ("hills20", 25)])
    def test_maps(self, world, count, request):
        env, field = request.getfixturevalue(world)
        assert_exact_matches_oracle(env, field, random_queries(env, count, 5))

    @pytest.mark.parametrize("with_points", [False, True], ids=["no-points", "points"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_explicit_graph_past_one_machine_word(self, seed, with_points):
        n = 90
        rng = np.random.default_rng(seed)
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(40)]
        points = rng.uniform(0.0, 3.0, (n, 3)) if with_points else None
        graph = ExplicitGraph(n, edges, points=points)
        field = random_field(rng, n, 0.2)
        queries = random_queries(graph, 12, seed) + [(0, n - 1), (n - 1, 3)]
        assert_exact_matches_oracle(graph, field, queries)

    def test_unreachable_goal(self):
        graph = ExplicitGraph(12, [(i, i + 1) for i in range(5)])
        field = random_field(np.random.default_rng(0), 12, 0.3)
        assert_exact_matches_oracle(graph, field, [(0, 11), (11, 0), (2, 4)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([(1, 5), (7, 1), (3, 3), (4, 5), (2, 8), (5, 5)]))
    def test_random_grids(self, seed, shape):
        env, field = random_world(seed, shape, max_step=float(seed % 3))
        assert_exact_matches_oracle(env, field, random_queries(env, 8, seed))


class TestPlanExact:
    def test_fixture_objectives(self):
        fx = lemma1_fixture()
        assert plan_exact(fx.graph, fx.field, fx.index("F"), fx.index("H")).cost == 12
        assert plan_exact(fx.graph, fx.field, fx.index("F"), fx.index("E")).cost == 9

    def test_budget_exceeded_is_explicit(self, boxes12):
        env, field = boxes12
        res = plan_exact(env, field, 0, env.n - 1, node_budget=1)
        assert res.status == BUDGET_EXCEEDED
        assert res.path is None
        assert res.expansions == 1

    @pytest.mark.parametrize("budget", [2, 3, 10, 257, 2000])
    def test_budget_stop_reports_the_budget(self, hills50, budget):
        env, field = hills50
        res = plan_exact(env, field, 0, env.n - 1, node_budget=budget)
        assert (res.status, res.path, res.expansions) == (BUDGET_EXCEEDED, None, budget)

    def test_frontier_that_runs_out_at_the_budget_is_no_path(self):
        graph = ExplicitGraph(12, [(i, i + 1) for i in range(5)] + [(1, 4)])
        field = random_field(np.random.default_rng(0), 12, 0.3)
        total = plan_exact(graph, field, 0, 11).expansions
        assert total > 1
        res = plan_exact(graph, field, 0, 11, node_budget=total)
        assert (res.status, res.expansions) == (NO_PATH, total)
        res = plan_exact(graph, field, 0, 11, node_budget=total - 1)
        assert (res.status, res.expansions) == (BUDGET_EXCEEDED, total - 1)

    def test_goal_popped_at_the_budget_is_found(self, boxes12):
        env, field = boxes12
        full = plan_exact(env, field, 0, 30)
        # the goal's pop is the last of full.expansions
        res = plan_exact(env, field, 0, 30, node_budget=full.expansions - 1)
        assert (res.status, res.path, res.expansions) == (FOUND, full.path, full.expansions)
        res = plan_exact(env, field, 0, 30, node_budget=full.expansions - 2)
        assert (res.status, res.expansions) == (BUDGET_EXCEEDED, full.expansions - 2)

    def test_budget_validation(self, flat5):
        env, field = flat5
        with pytest.raises(ValueError, match="node_budget"):
            plan_exact(env, field, 0, 1, node_budget=0)

    @pytest.fixture(scope="class")
    def hills20_seed11(self):
        env = build_environment(generate_map("hills", 11, 20), cell_size=DEFAULT_CELL_SIZE,
                                max_step=DEFAULT_MAX_STEP)
        return env, compute_exposure_field(env)

    @pytest.mark.parametrize("budget", [100.5, math.nan, math.inf])
    def test_a_non_integral_budget_is_rejected(self, hills20_seed11, budget):
        # an int count of expansions never equals such a budget, so the
        # search would run on unbounded: this query is found at 407
        env, field = hills20_seed11
        with pytest.raises(ValueError, match="node_budget"):
            plan_exact(env, field, 0, env.n - 1, node_budget=budget)

    def test_an_integral_float_budget_is_the_int_budget(self, hills20_seed11):
        env, field = hills20_seed11
        for budget in (100, 100.0):
            res = plan_exact(env, field, 0, env.n - 1, node_budget=budget)
            assert (res.status, res.expansions, res.params) == (
                BUDGET_EXCEEDED, 100, {"node_budget": 100})

    def test_no_path(self):
        env = build_environment([[0.0, 9.0, 0.0]], max_step=1.0)
        field = compute_exposure_field(env)
        assert plan_exact(env, field, 0, 2).status == NO_PATH

    def test_dominates_other_planners(self):
        for seed in range(10):
            env, field = random_world(seed, (4, 4))
            rng = np.random.default_rng(seed)
            s, g = (int(v) for v in rng.integers(0, env.n, 2))
            exact = plan_exact(env, field, s, g)
            if exact.status != FOUND:
                continue
            for plan in (plan_shortest, plan_ess, plan_binary):
                other = plan(env, field, s, g)
                if other.status == FOUND:
                    assert obj_bin(field, other.path) >= exact.cost


def graph_twin(env):
    """The grid's adjacency, as edges, and its points in an ExplicitGraph."""
    edges = [(a, b) for a, nbs in enumerate(env.adjacency) for b in nbs if a < b]
    return ExplicitGraph(env.n, edges, points=env.points)


class TestGridAndGraphTwinPlanAlike:
    """A grid is an ExplicitGraph built from a heightmap, so a graph given
    its adjacency and points plans alike. shortest is left out: min_steps
    is the one member that differs, so its ties may break differently."""

    CALLS = (("ess", {}), ("binary", {}), ("saturation", {"tau": 1}),
             ("saturation", {"tau": 5}), ("exact", {"node_budget": 300}))

    @pytest.mark.parametrize("kind", ["boxes", "hills"])
    def test_same_plans(self, kind):
        env = build_environment(generate_map(kind, 3, 12), cell_size=DEFAULT_CELL_SIZE,
                                max_step=DEFAULT_MAX_STEP)
        field = compute_exposure_field(env)
        twin = graph_twin(env)
        assert isinstance(env, ExplicitGraph) and type(twin) is ExplicitGraph
        assert twin.adjacency == env.adjacency
        found = 0
        for s, g in random_queries(env, 12, 5):
            for alg, kwargs in self.CALLS:
                want = plan(alg, env, field, s, g, **kwargs)
                got = plan(alg, twin, field, s, g, **kwargs)
                assert (got.status, got.path, got.cost, got.expansions) == (
                    want.status, want.path, want.cost, want.expansions), (alg, kwargs, s, g)
                found += want.status == FOUND
        assert found >= 20

    def test_neighbors_range_check(self, boxes12):
        env, _ = boxes12
        for graph in (env, graph_twin(env)):
            for region in (-1, graph.n):
                with pytest.raises(IndexError, match=f"region {region} outside"):
                    graph.neighbors(region)


class TestValidatePath:
    def test_accepts_planned_paths(self, boxes12):
        env, field = boxes12
        res = plan_shortest(env, field, 0, env.n - 1)
        validate_path(env, res.path)

    def test_names_first_bad_transition(self, flat5):
        env, _ = flat5
        with pytest.raises(ValueError, match=r"step 1: 1 -> 14"):
            validate_path(env, [0, 1, 14])

    def test_rejects_out_of_range_and_empty(self, flat5):
        env, _ = flat5
        with pytest.raises(ValueError, match=r"path\[1\]"):
            validate_path(env, [0, 99])
        with pytest.raises(ValueError, match="empty"):
            validate_path(env, [])

    @pytest.mark.parametrize("path, at", [([0, 1.0], 1), ([0, True], 1), ([0.0, 1], 0),
                                          ([0, np.bool_(True)], 1), ([0, 1, None], 2)],
                             ids=repr)
    def test_rejects_non_integer_regions(self, flat5, path, at):
        env, _ = flat5
        with pytest.raises(ValueError, match=rf"path\[{at}\] must be an integer"):
            validate_path(env, path)

    def test_accepts_numpy_integers(self, flat5):
        env, _ = flat5
        validate_path(env, [np.int64(0), np.int32(1), np.uint8(6)])


class TestResultRecord:
    def test_found_record(self, boxes12):
        env, field = boxes12
        res = plan_binary(env, field, 0, 10)
        rec = result_record(field, res)
        assert rec["algorithm"] == "binary"
        assert rec["status"] == FOUND
        assert rec["obj_bin"] == obj_bin(field, res.path)
        assert rec["obj_acc"] == pytest.approx(
            obj_acc(path_counts(field, res.path, 1), 0.95, 1))
        assert rec["path"] == res.path
        assert rec["expansions"] == res.expansions

    def test_saturation_record_uses_its_own_tau(self, boxes12):
        env, field = boxes12
        res = plan_saturation(env, field, 0, 10, tau=5, p_success=0.9)
        rec = result_record(field, res)
        assert rec["params"] == {"tau": 5, "p_success": 0.9}
        assert rec["obj_acc"] == pytest.approx(
            obj_acc(path_counts(field, res.path, 5), 0.9, 5))

    def test_no_path_record(self):
        env = build_environment([[0.0, 9.0, 0.0]], max_step=1.0)
        field = compute_exposure_field(env)
        rec = result_record(field, plan_shortest(env, field, 0, 2))
        assert rec["status"] == NO_PATH
        assert rec["path"] is None and rec["obj_bin"] is None


class TestPlanDispatch:
    def test_unknown_name_lists_the_choices(self, flat5):
        env, field = flat5
        with pytest.raises(ValueError, match=re.escape(str(ALGORITHMS))):
            plan("nope", env, field, 0, 1)

    def test_saturation_needs_tau(self, flat5):
        env, field = flat5
        with pytest.raises(ValueError, match="tau"):
            plan("saturation", env, field, 0, 1)

    def test_each_name_runs_its_planner(self, boxes12):
        env, field = boxes12
        kwargs = dict(tau=3, p_success=0.9, m=0.002, node_budget=4000)
        for name, res in (("shortest", plan_shortest(env, field, 0, 30)),
                          ("ess", plan_ess(env, field, 0, 30)),
                          ("binary", plan_binary(env, field, 0, 30, 0.002)),
                          ("saturation", plan_saturation(env, field, 0, 30, 3, 0.9)),
                          ("exact", plan_exact(env, field, 0, 30, 4000))):
            got = plan(name, env, field, 0, 30, **kwargs)
            assert (got.algorithm, got.status, got.path, got.cost, got.expansions,
                    got.params) == (name, res.status, res.path, res.cost,
                                    res.expansions, res.params)


class TestDeterminism:
    def test_all_planners_repeat_identically(self, boxes12):
        env, field = boxes12
        q = (3, env.n - 4)
        runs = []
        for _ in range(2):
            runs.append([
                plan_shortest(env, field, *q).path,
                plan_ess(env, field, *q).path,
                plan_binary(env, field, *q).path,
                plan_saturation(env, field, *q, tau=5).path,
                plan_exact(env, field, *q).path,
            ])
        assert runs[0] == runs[1]


class TestFieldMismatch:
    @pytest.mark.parametrize("plan", [
        plan_shortest, plan_ess, plan_binary,
        lambda env, field, s, g: plan_saturation(env, field, s, g, tau=3),
        plan_exact,
    ], ids=["shortest", "ess", "binary", "saturation", "exact"])
    @pytest.mark.parametrize("shape", [(4, 5), (6, 5)], ids=["smaller", "larger"])
    def test_field_of_another_map_is_rejected(self, plan, shape):
        env, _ = random_world(1)
        _, other = random_world(1, shape=shape)
        with pytest.raises(ValueError, match=rf"covers {other.n} regions, environment has {env.n}"):
            plan(env, other, 0, env.n - 1)


def heap_trace(monkeypatch, run):
    """Run run() with heapq spied on. Returns its result, the (f, h, region)
    of every row it pushed in order, its number of pops and the most rows a
    heap held."""
    pushed, pops, peak = [], [0], [1]
    push, pop = heapq.heappush, heapq.heappop

    def spy_push(heap, row):
        pushed.append(row[:3])
        push(heap, row)
        peak[0] = max(peak[0], len(heap))

    def spy_pop(heap):
        pops[0] += 1
        return pop(heap)

    with monkeypatch.context() as patch:
        patch.setattr(heapq, "heappush", spy_push)
        patch.setattr(heapq, "heappop", spy_pop)
        result = run()
    return result, pushed, pops[0], peak[0]


def graph_past_one_word(seed, with_points, n=90):
    """A chain plus 40 random chords over n regions, each seeing about a
    fifth of the others."""
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(40)]
    points = rng.uniform(0.0, 3.0, (n, 3)) if with_points else None
    return ExplicitGraph(n, edges, points=points), random_field(rng, n, 0.2)


class TestPushSequenceMatchesOracles:
    """plan_binary and plan_saturation skip a step before pricing it when it
    cannot beat its region's best g, and plan_shortest and plan_ess run one
    A* over per-query step-cost and heuristic lists. None of these changes a
    heap push: each planner pushes the frozen oracle's (f, h, region) rows,
    in the same order."""

    CALLS = [("binary", {}), ("saturation", {"tau": 1}), ("saturation", {"tau": 5}),
             ("ess", {}), ("shortest", {})]
    IDS = ["binary", "sat1", "sat5", "ess", "shortest"]

    def assert_same_pushes(self, monkeypatch, env, field, queries, alg, kwargs):
        if alg == "shortest":
            oracle = lambda s, g: reference_plan_shortest(env, field, s, g)
        elif alg == "ess":
            oracle = lambda s, g: reference_plan_ess(env, field, s, g)
        elif alg == "binary":
            oracle = lambda s, g: reference_plan_binary(env, field, s, g, kwargs.get("m"))
        else:
            oracle = lambda s, g: reference_plan_saturation(env, field, s, g, kwargs["tau"])
        total = 0
        for s, g in queries:
            _, got, _, _ = heap_trace(monkeypatch, lambda: plan(alg, env, field, s, g, **kwargs))
            _, want, _, _ = heap_trace(monkeypatch, lambda: oracle(s, g))
            assert got == want, (alg, kwargs, s, g)
            total += len(got)
        assert total > len(queries)

    @pytest.mark.parametrize("alg, kwargs", CALLS, ids=IDS)
    @pytest.mark.parametrize("world, count", [("flat5", 40), ("boxes12", 25), ("hills20", 12)])
    def test_maps(self, monkeypatch, world, count, alg, kwargs, request):
        env, field = request.getfixturevalue(world)
        queries = random_queries(env, count, 9) + [(0, env.n - 1)]
        self.assert_same_pushes(monkeypatch, env, field, queries, alg, kwargs)

    def test_explicit_movement_cost(self, monkeypatch, boxes12):
        env, field = boxes12
        self.assert_same_pushes(monkeypatch, env, field, random_queries(env, 10, 6),
                                "binary", {"m": 1.0 / (3 * env.n)})

    @pytest.mark.parametrize("alg, kwargs", CALLS, ids=IDS)
    @pytest.mark.parametrize("with_points", [False, True], ids=["no-points", "points"])
    def test_explicit_graph_past_one_machine_word(self, monkeypatch, with_points, alg, kwargs):
        graph, field = graph_past_one_word(4, with_points)
        queries = random_queries(graph, 10, 4) + [(0, graph.n - 1)]
        self.assert_same_pushes(monkeypatch, graph, field, queries, alg, kwargs)


class TestRowsCarryTheirOwnExposedSet:
    """Every row plan_binary and plan_exact push carries its own node's
    exposed set: the union of the rows of the regions on its path, which
    the parent indices recover back to the start. binary's h is the goal's
    regions outside that set."""

    CALLS = [("binary", {}), ("exact", {"node_budget": 300})]

    def pushed_rows(self, monkeypatch, run):
        """Run run() with heapq spied on. Returns every row it pushed, each
        with the row popped last before the push: the row of the node that
        pushed it."""
        pushed, last = [], [None]
        push, pop = heapq.heappush, heapq.heappop

        def spy_push(heap, row):
            pushed.append((row, last[0]))
            push(heap, row)

        def spy_pop(heap):
            last[0] = pop(heap)
            return last[0]

        with monkeypatch.context() as patch:
            patch.setattr(heapq, "heappush", spy_push)
            patch.setattr(heapq, "heappop", spy_pop)
            run()
        return pushed

    def assert_rows_carry_paths(self, monkeypatch, env, field, queries, alg, kwargs):
        rows, total = field.rows, 0
        for s, g in queries:
            pushed = self.pushed_rows(monkeypatch, lambda: plan(alg, env, field, s, g, **kwargs))
            # a parent index names one expanded node, whose own row was popped
            # just before the rows it pushes
            node = {}
            for row, popped in pushed:
                assert node.setdefault(row[4], popped) is popped, (alg, s, g)
            for row, _ in pushed:
                exposed, r = rows[row[2]], row
                while r[4] >= 0:
                    r = node[r[4]]
                    exposed |= rows[r[2]]
                assert r[2] == s, (alg, s, g)
                assert row[6] == exposed, (alg, s, g, row[:6])
                if alg == "binary":
                    assert row[1] == (rows[g] & ~exposed).bit_count(), (s, g, row[:6])
            total += len(pushed)
        assert total > len(queries)

    @pytest.mark.parametrize("alg, kwargs", CALLS, ids=["binary", "exact"])
    @pytest.mark.parametrize("world, count", [("flat5", 20), ("boxes12", 15), ("hills20", 6)])
    def test_maps(self, monkeypatch, world, count, alg, kwargs, request):
        env, field = request.getfixturevalue(world)
        queries = random_queries(env, count, 11) + [(0, env.n - 1)]
        self.assert_rows_carry_paths(monkeypatch, env, field, queries, alg, kwargs)

    @pytest.mark.parametrize("alg, kwargs", CALLS, ids=["binary", "exact"])
    def test_explicit_graph_past_one_machine_word(self, monkeypatch, alg, kwargs):
        graph, field = graph_past_one_word(4, True)
        queries = random_queries(graph, 10, 4) + [(0, graph.n - 1)]
        self.assert_rows_carry_paths(monkeypatch, graph, field, queries, alg, kwargs)


class TestSearchStats:
    """PlanResult.stats, derived from the pop loop's end state, equals what
    a spy on heapq counts."""

    CALLS = [("shortest", {}), ("ess", {}), ("binary", {}), ("saturation", {"tau": 5}),
             ("exact", {"node_budget": 400})]

    def assert_stats(self, monkeypatch, env, field, queries, calls=CALLS):
        statuses = set()
        for s, g in queries:
            for alg, kwargs in calls:
                res, pushed, pops, peak = heap_trace(
                    monkeypatch, lambda: plan(alg, env, field, s, g, **kwargs))
                held = res.status == BUDGET_EXCEEDED
                assert res.stats == SearchStats(
                    pushes=len(pushed),
                    stale_pops=pops - res.expansions - held,
                    peak_frontier=peak,
                    closed=res.expansions - (res.status == FOUND),
                ), (alg, s, g)
                assert "stats" not in result_record(field, res)
                statuses.add(res.status)
        return statuses

    def test_fixture(self, monkeypatch):
        fx = lemma1_fixture()
        queries = [(a, b) for a in range(fx.graph.n) for b in range(0, fx.graph.n, 3)]
        assert FOUND in self.assert_stats(monkeypatch, fx.graph, fx.field, queries)

    def test_map_with_budget_stops_and_unreachable_goals(self, monkeypatch, boxes12):
        env, field = boxes12
        statuses = self.assert_stats(monkeypatch, env, field, random_queries(env, 10, 3))
        assert BUDGET_EXCEEDED in statuses
        walled = build_environment([[0.0, 9.0, 0.0, 0.0]], max_step=1.0)
        assert self.assert_stats(monkeypatch, walled, compute_exposure_field(walled),
                                 [(3, 0), (0, 3)]) == {NO_PATH}

    def test_stale_pops_occur(self, monkeypatch, hills20):
        # a region pushed again at a lower g leaves its older row to pop stale
        env, field = hills20
        queries = random_queries(env, 3, 1)
        assert self.assert_stats(monkeypatch, env, field, queries, self.CALLS[2:4]) == {FOUND}
        assert any(plan_binary(env, field, s, g).stats.stale_pops > 0 for s, g in queries)


class TestQueryRegionType:
    """Start and goal must be integers: Python ints or numpy integers, not
    bool. A numpy integer comes back as a Python int, so records serialize."""

    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("bad", [1.0, True, np.bool_(True), None], ids=repr)
    @pytest.mark.parametrize("side", ["start", "goal"])
    def test_non_integer_region_is_rejected(self, flat5, alg, bad, side):
        env, field = flat5
        query = (bad, 5) if side == "start" else (1, bad)
        with pytest.raises(ValueError, match=f"{side} region must be an integer"):
            plan(alg, env, field, *query, tau=3)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_numpy_integers_plan_as_python_ints(self, flat5, alg):
        env, field = flat5
        res = plan(alg, env, field, np.int64(1), np.int32(23), tau=3)
        want = plan(alg, env, field, 1, 23, tau=3)
        assert type(res.start) is int and type(res.goal) is int
        assert all(type(r) is int for r in res.path)
        assert (res.path, res.cost, res.expansions) == (want.path, want.cost, want.expansions)
        rec = result_record(field, res)
        assert json.loads(json.dumps(rec))["path"] == want.path
