import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthpath import (DEFAULT_CELL_SIZE, DEFAULT_MAX_STEP, ExplicitGraph,
                         ExposureField, build_environment, compute_exposure_field,
                         gen_boxes, gen_hills, line_of_sight, traversable)
from stealthpath import terrain
from stealthpath.terrain import (LOS_SAMPLES_PER_CELL, _VALIDATE_ROWS, BuildStats,
                                 _ray_plans, _visible_pairs, _work_arrays)


def reference_line_of_sight(elev, cell, d, a, b):
    """Straight reimplementation of the sighting rule, kept independent of
    the vectorized kernel: walk the segment in quarter-cell steps, blocked
    when the cell under a sample rises strictly above the ray, samples in
    either endpoint cell ignored."""
    height, width = elev.shape
    ar, ac = divmod(a, width)
    br, bc = divmod(b, width)
    ax, ay, az = (ac + 0.5) * cell, (ar + 0.5) * cell, elev[ar, ac] + d
    bx, by, bz = (bc + 0.5) * cell, (br + 0.5) * cell, elev[br, bc] + d
    span = math.hypot(bx - ax, by - ay)
    step = cell / LOS_SAMPLES_PER_CELL
    k = 1
    while k * step < span:
        frac = (k * step) / span
        x = ax + frac * (bx - ax)
        y = ay + frac * (by - ay)
        z = az + frac * (bz - az)
        col = min(max(int(math.floor(x / cell)), 0), width - 1)
        row = min(max(int(math.floor(y / cell)), 0), height - 1)
        under = row * width + col
        if under != a and under != b and elev[row, col] > z:
            return False
        k += 1
    return True


def reference_exposure_field(env):
    """The every-sample field builder, kept as the oracle for the one that
    tests one sample per crossed cell: every pair i < j goes through
    _visible_pairs with all its quarter-cell samples and is mirrored. Pairs
    are grouped by displacement only for speed; the kernel's answer for a
    pair does not depend on what else shares the call."""
    height, width = env.height, env.width
    grid = np.arange(env.n).reshape(height, width)
    sees = np.eye(env.n, dtype=bool)
    work = _work_arrays(1 << 16)
    for dr in range(height):
        for dc in range(-(width - 1), width):
            if dr == 0 and dc <= 0:
                continue
            src = grid[:height - dr, max(0, -dc):width - max(0, dc)].ravel()
            tgt = src + (dr * width + dc)
            seen = _visible_pairs(env, src, tgt, work)
            sees[src[seen], tgt[seen]] = True
            sees[tgt[seen], src[seen]] = True
    return ExposureField([int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little")
                          for r in sees])


def reference_adjacency(elev, max_step, connectivity):
    """The per-cell adjacency loop GridEnvironment used to run, kept as the
    oracle for its vectorized form."""
    height, width = elev.shape
    flat = np.asarray(elev, dtype=np.float64).ravel()
    offsets = {4: ((-1, 0), (0, -1), (0, 1), (1, 0)),
               8: ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))}
    nbrs = []
    for i in range(height * width):
        r, c = divmod(i, width)
        adj = []
        for dr, dc in offsets[connectivity]:
            rr, cc = r + dr, c + dc
            if 0 <= rr < height and 0 <= cc < width:
                j = rr * width + cc
                if abs(flat[j] - flat[i]) <= max_step:
                    adj.append(j)
        adj.sort()
        nbrs.append(tuple(adj))
    return tuple(nbrs)


class TestLineOfSight:
    def test_wall_blocks(self):
        env = build_environment([[0.0, 10.0, 0.0]], cell_size=1.0, d=1.0)
        assert not line_of_sight(env, 0, 2)
        assert not line_of_sight(env, 2, 0)

    def test_adjacent_cells_always_see_each_other(self):
        # every sample between adjacent centers lands in an endpoint cell
        env = build_environment([[0.0, 50.0], [3.0, 0.0]], cell_size=1.0)
        for a, b in ((0, 1), (1, 3), (0, 2)):
            assert line_of_sight(env, a, b)

    def test_reflexive(self):
        env = build_environment([[1.0, 2.0], [3.0, 4.0]])
        for r in range(env.n):
            assert line_of_sight(env, r, r)

    def test_grazing_ray_stays_visible(self):
        # blocker exactly at ray height: strict inequality keeps LOS open
        env = build_environment([[0.0, 1.0, 0.0]], cell_size=1.0, d=1.0)
        assert line_of_sight(env, 0, 2)
        env2 = build_environment([[0.0, 1.0 + 1e-9, 0.0]], cell_size=1.0, d=1.0)
        assert not line_of_sight(env2, 0, 2)

    def test_taller_wall_never_reveals(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0.0, 2.0, (6, 6))
        low = base.copy()
        high = base.copy()
        high[3, 3] += 4.0
        f_low = compute_exposure_field(build_environment(low, cell_size=2.0))
        f_high = compute_exposure_field(build_environment(high, cell_size=2.0))
        for i in range(36):
            if i == 21:  # the raised cell itself moved; only compare others
                continue
            extra = f_high.exposure_set(i) & ~f_low.exposure_set(i) & ~(1 << 21)
            assert extra == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_reference_walker(self, seed):
        rng = np.random.default_rng(seed)
        elev = rng.uniform(0.0, 4.0, (5, 5))
        cell = float(rng.choice([1.0, 2.5, 10.0]))
        env = build_environment(elev, cell_size=cell, d=1.0)
        pairs = rng.integers(0, env.n, (12, 2))
        for a, b in pairs:
            # line_of_sight evaluates a pair from its lower-indexed region
            lo, hi = sorted((int(a), int(b)))
            expect = reference_line_of_sight(elev, cell, 1.0, lo, hi)
            assert line_of_sight(env, int(a), int(b)) == expect


class TestExposureFieldConstruction:
    def test_flat_map_sees_everything(self, flat5):
        _, field = flat5
        assert field.scores().min() == 1.0
        assert field.min_score() == 1.0

    def test_field_matches_scalar_los(self, boxes12):
        # both orders of every pair: sampled from either end, the rule
        # disagrees with itself on about 1% of these pairs
        env, field = boxes12
        for a in range(env.n):
            row = field.exposure_set(a)
            for b in range(env.n):
                assert bool((row >> b) & 1) == line_of_sight(env, a, b), (a, b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reflexive_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        elev = rng.uniform(0.0, 3.0, (4, 5))
        field = compute_exposure_field(build_environment(elev, cell_size=1.5))
        field.validate()
        for i in range(field.n):
            assert (field.exposure_set(i) >> i) & 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([(1, 9), (9, 1), (1, 2), (2, 1), (3, 8), (7, 9),
                            (9, 7), (5, 6), (6, 3), (4, 4)]),
           st.sampled_from([0.3, 1.0, 2.5, 10.0]))
    def test_matches_reference_walker_on_every_pair(self, seed, shape, cell):
        # the reference walker shares no code with the builder, so unlike
        # test_field_matches_scalar_los this catches a regression in the kernel
        rng = np.random.default_rng(seed)
        elev = rng.uniform(0.0, 4.0, shape)
        if seed % 2:  # whole-metre steps put many rays exactly at grazing height
            elev = np.round(elev)
        field = compute_exposure_field(build_environment(elev, cell_size=cell, d=1.0))
        n = field.n
        for a in range(n):
            for b in range(a + 1, n):
                expect = reference_line_of_sight(elev, cell, 1.0, a, b)
                assert bool((field.exposure_set(a) >> b) & 1) == expect, (a, b)
        field.validate()

    @pytest.mark.parametrize("world, digest", [
        ("boxes50", "06d0731543a2ce44a1aa3c66c418cf7e45b1c95b976056f72bcf69680733147a"),
        ("hills50", "39c0bcb11045c2f911d40bb372da0fb47433e1c8c5a35a449e4e73e32dc9cc28"),
    ])
    def test_50x50_fields_are_bit_identical_to_per_source_builder(self, world, digest, request):
        # digests of the fields the earlier per-source builder produced
        _, field = request.getfixturevalue(world)
        assert hashlib.sha256(field.to_packed().tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("size", [12, 20, 30])
    @pytest.mark.parametrize("gen", [gen_boxes, gen_hills])
    def test_matches_every_sample_builder_on_generated_maps(self, gen, size, seed):
        env = build_environment(gen(seed, size), cell_size=DEFAULT_CELL_SIZE)
        assert compute_exposure_field(env) == reference_exposure_field(env)

    @pytest.mark.parametrize("cell", [0.1, 0.3, 10.0])
    @pytest.mark.parametrize("vertical", [False, True])
    def test_matches_every_sample_builder_on_rows_and_columns(self, cell, vertical):
        # axis rays put a sample exactly on every cell boundary they cross,
        # and whole-metre heights put many rays exactly at grazing height
        rng = np.random.default_rng(int(10 * cell) + vertical)
        for length in range(2, 61):
            elev = np.round(rng.uniform(0.0, 4.0, (length, 1) if vertical else (1, length)))
            env = build_environment(elev, cell_size=cell, d=1.0)
            assert compute_exposure_field(env) == reference_exposure_field(env), length

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 24), st.integers(1, 24),
           st.sampled_from([0.1, 0.3, 1.0, 2.5, 10.0]), st.sampled_from([0.0, 1.0, 2.0]))
    def test_matches_every_sample_builder_on_random_grids(self, seed, height, width, cell, d):
        rng = np.random.default_rng(seed)
        elev = rng.uniform(0.0, 4.0, (height, width))
        if seed % 2:  # grazing rays, as in test_matches_reference_walker_on_every_pair
            elev = np.round(elev)
        env = build_environment(elev, cell_size=cell, d=d)
        assert compute_exposure_field(env) == reference_exposure_field(env)

    def test_ray_plan_leaves_boundary_samples_to_the_full_rule(self):
        # an axis ray puts every sample k = 2 (mod 4) on a cell boundary, and
        # (3, 4) puts its midpoint, k = 10, on a row boundary
        first, last, offset, ambiguous = _ray_plans(np.array([0, 3]), np.array([5, 4]), 10)
        assert ambiguous.T.tolist() == [[2, 6, 10, 14, 18], [10, 0, 0, 0, 0]]
        # runs in the four cells between the ends of the axis ray, padded
        # with 0 to the six runs of (3, 4)
        assert first[:, 0].tolist() == [3, 7, 11, 15, 0, 0]
        assert last[:, 0].tolist() == [5, 9, 13, 17, 0, 0]
        assert offset[:, 0].tolist() == [1, 2, 3, 4, 0, 0]

    def test_kernel_answer_does_not_depend_on_work_arrays(self, boxes12):
        env, _ = boxes12
        src = np.zeros(env.n - 1, dtype=np.intp)
        tgt = np.arange(1, env.n)
        fresh = _visible_pairs(env, src, tgt)
        reused = _work_arrays(1 << 16)  # reused below with stale contents
        for work in (_work_arrays(3), reused, reused):
            assert np.array_equal(_visible_pairs(env, src, tgt, work), fresh)

    def test_deterministic(self):
        elev = np.random.default_rng(3).uniform(0, 5, (7, 7))
        env = build_environment(elev, cell_size=2.0)
        assert compute_exposure_field(env) == compute_exposure_field(env)


class TestVisibleCertificate:
    """The box certificate and the per-shape plan cache, against the
    every-sample builder."""

    @pytest.mark.parametrize("offset", [-1e8, 1e8, 3e9])
    @pytest.mark.parametrize("d", [0.0, 1e-9, 3e-9])
    def test_matches_every_sample_builder_far_from_zero(self, offset, d):
        # one ulp of these heights (up to 5e-7) exceeds d and any fixed
        # margin such as 1e-9, so the ray heights round by more than either
        rng = np.random.default_rng(int(abs(offset)) % 97 + int(d * 1e9))
        for shape in ((1, 14), (6, 7), (9, 5)):
            elev = offset + np.round(rng.uniform(0.0, 3.0, shape))
            env = build_environment(elev, cell_size=0.3, d=d)
            assert compute_exposure_field(env) == reference_exposure_field(env), shape

    @pytest.mark.parametrize("cell", [0.1, 0.3, 2.5])
    def test_matches_every_sample_builder_at_and_one_ulp_below_the_lower_end(self, cell):
        # with d = 1 and whole-metre heights, many cells sit exactly at the
        # lower end height min(sz, tz) of some pair; nudged cells sit one ulp
        # below it, where only the run test may decide
        rng = np.random.default_rng(int(cell * 10))
        for shape in ((1, 16), (16, 1), (7, 8)):
            elev = np.round(rng.uniform(0.0, 3.0, shape))
            nudge = rng.random(shape) < 0.5
            elev[nudge] = np.nextafter(elev[nudge], -np.inf)
            env = build_environment(elev, cell_size=cell, d=1.0)
            assert compute_exposure_field(env) == reference_exposure_field(env), shape

    @pytest.mark.parametrize("cell", [0.1, 0.3, 2.5])
    def test_cell_at_or_just_below_the_lower_end_is_not_certified(self, cell):
        # pair (0, 2) has ends at heights 1 and 1.5 and the middle cell in
        # its box; at exactly 1, or one ulp below, that cell is within the
        # margin of the lower end, so the pair goes to the run test, and so
        # does (0, 1). 2^-30 below, the box certifies both. (1, 2) is always
        # certified: the cells lie below its lower end, 1.5.
        def certified(middle):
            env = build_environment([[0.0, middle, 0.5]], cell_size=cell, d=1.0)
            field = compute_exposure_field(env)
            assert field == reference_exposure_field(env)
            return field.build_stats.certified_pairs

        assert certified(1.0) == 1
        assert certified(np.nextafter(1.0, 0.0)) == 1
        assert certified(1.0 - 2.0 ** -30) == 3

    def test_a_blocker_between_the_end_heights_is_not_certified(self):
        # the middle cell is above the lower end and below the upper one,
        # and blocks the ray (z = 2 there); a bound on max(sz, tz) would
        # certify the pair visible
        env = build_environment([[0.0, 0.0, 2.5, 0.0, 2.0]], cell_size=1.0, d=1.0)
        field = compute_exposure_field(env)
        assert not (field.exposure_set(0) >> 4) & 1
        assert field == reference_exposure_field(env)

    def test_flat_maps_are_all_certified_only_above_the_ground(self):
        flat = np.zeros((5, 6))
        lifted = compute_exposure_field(build_environment(flat, d=1.0)).build_stats
        assert lifted.certified_pairs == lifted.pairs and lifted.run_tested_pairs == 0
        ground = compute_exposure_field(build_environment(flat, d=0.0)).build_stats
        assert ground.certified_pairs == 0 and ground.run_tested_pairs == ground.pairs

    def test_alternating_shapes_replan(self):
        # 7x9 and 9x7 have the same region count, as do 1x12 and 12x1: a
        # plan cache keyed on anything less than (height, width) reuses the
        # wrong rays
        rng = np.random.default_rng(11)
        for shape in ((7, 9), (9, 7), (1, 12), (12, 1), (7, 9)):
            elev = np.round(rng.uniform(0.0, 4.0, shape))
            env = build_environment(elev, cell_size=0.3, d=1.0)
            assert compute_exposure_field(env) == reference_exposure_field(env), shape
            # only the latest shape is kept, and planning it again is a hit
            info = terrain._group_plans.cache_info()
            terrain._group_plans(*shape)
            assert info.currsize == 1
            assert terrain._group_plans.cache_info().hits == info.hits + 1

    @pytest.mark.parametrize("shape", [(1, 300), (300, 1), (3, 90)])
    def test_matches_every_sample_builder_with_wider_plan_tables(self, shape):
        # rays over 63 cells long need sample numbers past 255, and grids
        # over 255 cells offsets past 255, in the compact plan tables
        elev = np.round(np.random.default_rng(shape[0]).uniform(0.0, 4.0, shape))
        env = build_environment(elev, cell_size=0.3, d=1.0)
        assert compute_exposure_field(env) == reference_exposure_field(env)


def _plan_blocks_of(elements, request, monkeypatch):
    """Set _LOS_CHUNK_ELEMENTS to `elements` for one test, with the plan
    cache cleared before and after it (in a finalizer), so that plans made
    under the patched value never reach a later build."""
    terrain._group_plans.cache_clear()
    request.addfinalizer(terrain._group_plans.cache_clear)
    monkeypatch.setattr(terrain, "_LOS_CHUNK_ELEMENTS", elements)


@pytest.fixture(params=[1, 9, 100])
def small_blocks(request, monkeypatch):
    """Run-test blocks and boundary batches of at most `param` elements (or
    one row, or one pair), so that small maps sweep their runs in many
    blocks; the plans are made afresh for it and dropped after it."""
    _plan_blocks_of(request.param, request, monkeypatch)
    return request.param


class TestRunSweep:
    """The run test in row blocks, the compaction of blocked pairs between
    blocks and the mirror of the src < tgt bits, against the every-sample
    builder."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 129])
    @pytest.mark.parametrize("vertical", [False, True])
    def test_mirror_at_byte_and_strip_edges(self, n, vertical):
        # n around multiples of 8 (packed bytes) and of _VALIDATE_ROWS
        # (mirror strips)
        rng = np.random.default_rng(n)
        elev = np.round(rng.uniform(0.0, 4.0, (n, 1) if vertical else (1, n)))
        env = build_environment(elev, cell_size=0.3, d=1.0)
        field = compute_exposure_field(env)
        assert field == reference_exposure_field(env)
        field.validate()

    def test_mirror_on_a_grid_wider_than_a_strip_is_tall(self):
        env = build_environment(np.round(np.random.default_rng(5).uniform(0.0, 4.0, (9, 15))),
                                cell_size=0.3, d=1.0)
        assert compute_exposure_field(env) == reference_exposure_field(env)

    def test_mirror_copies_only_the_upper_bits(self):
        n = 70
        upper = np.triu(np.random.default_rng(0).random((n, n)) < 0.5, 1) | np.eye(n, dtype=bool)
        packed = np.packbits(upper, axis=1, bitorder="little")
        terrain._mirror(packed, n)
        assert np.array_equal(np.unpackbits(packed, axis=1, count=n, bitorder="little"),
                              upper | upper.T)

    def test_a_group_whose_first_block_blocks_every_run_tested_pair(self):
        # a comb: every fifth cell 5 m tall on a flat row, sensors 1 m up.
        # Any pair at least 6 cells apart has a tall cell strictly between
        # its ends, which blocks it unless both ends are tall (then the box
        # certifies it). The pairs 20 and more cells apart form groups of
        # their own, whose every run-tested pair is blocked in one block.
        elev = np.zeros((1, 60))
        elev[0, ::5] = 5.0
        env = build_environment(elev, cell_size=1.0, d=1.0)
        field = compute_exposure_field(env)
        assert field == reference_exposure_field(env)
        assert any(plan.offset.size and (np.abs(plan.shift) >= 20).all()
                   for plan in terrain._group_plans(1, 60))
        for a in range(60):
            for b in range(a + 6, 60):
                assert bool(field.exposure_set(a) >> b & 1) == (a % 5 == b % 5 == 0), (a, b)

    def test_a_pair_blocked_only_by_its_last_run(self, small_blocks):
        # midpoint-first order tests the run next to an end last; here the
        # run next to the target is the only one that blocks (0, 11)
        elev = np.zeros((3, 12))
        elev[1, 10] = 5.0
        env = build_environment(elev, cell_size=1.0, d=1.0)
        field = compute_exposure_field(env)
        assert field == reference_exposure_field(env)
        assert not field.exposure_set(env.index(1, 0)) >> env.index(1, 11) & 1
        assert field.exposure_set(env.index(1, 0)) >> env.index(1, 10) & 1

    def test_rays_with_no_runs(self):
        # every sample of a 2x2 grid's rays lies in an end cell or on a
        # boundary, so pairs the box cannot certify go straight to the
        # boundary samples
        rng = np.random.default_rng(2)
        for _ in range(20):
            env = build_environment(np.round(rng.uniform(0.0, 3.0, (2, 2))), d=1.0)
            field = compute_exposure_field(env)
            assert field == reference_exposure_field(env)
            assert field.build_stats.run_samples == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_rays_that_survive_a_compaction(self, small_blocks, seed):
        # small blocks drop blocked pairs between many blocks of each
        # chunk; whole-metre heights on rows and grids leave pairs that only
        # their boundary samples decide (every axis ray has some)
        rng = np.random.default_rng(seed)
        for shape in ((1, 17), (17, 1), (7, 8), (6, 11)):
            elev = np.round(rng.uniform(0.0, 4.0, shape))
            env = build_environment(elev, cell_size=0.3, d=1.0)
            field = compute_exposure_field(env)
            assert field == reference_exposure_field(env), shape
            assert field.build_stats.boundary_samples > 0

    def test_blocked_pairs_stop_counting_run_samples(self, request, monkeypatch):
        # one-row blocks drop a blocked pair as soon as a row catches it;
        # the pairs that survive, and so the boundary samples, are the same
        env = build_environment(gen_boxes(3, 12), cell_size=DEFAULT_CELL_SIZE)
        whole = compute_exposure_field(env)
        _plan_blocks_of(1, request, monkeypatch)
        rows = compute_exposure_field(env)
        assert rows == whole
        assert rows.build_stats.run_samples < whole.build_stats.run_samples
        assert (dataclasses.replace(rows.build_stats, run_samples=0)
                == dataclasses.replace(whole.build_stats, run_samples=0))


class TestBuildStats:
    def test_counts_add_up(self, boxes12):
        env, field = boxes12
        stats = field.build_stats
        assert stats.pairs == env.n * (env.n - 1) // 2
        assert stats.certified_pairs + stats.run_tested_pairs == stats.pairs
        assert 0 < stats.certified_pairs < stats.pairs
        assert stats.run_samples >= stats.run_tested_pairs > 0
        assert stats.boundary_samples > 0

    def test_counts_repeat_for_one_map(self):
        env = build_environment(gen_hills(5, 16), cell_size=DEFAULT_CELL_SIZE)
        first = compute_exposure_field(env).build_stats
        # a build of another shape in between replaces the cached plans
        compute_exposure_field(build_environment(np.zeros((3, 4))))
        assert compute_exposure_field(env).build_stats == first
        assert compute_exposure_field(env).build_stats == first
        assert isinstance(first, BuildStats)

    def test_two_builds_of_one_shape_plan_once(self):
        terrain._group_plans.cache_clear()
        env = build_environment(gen_boxes(4, 12), cell_size=DEFAULT_CELL_SIZE)
        first = compute_exposure_field(env)
        assert compute_exposure_field(env) == first
        info = terrain._group_plans.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_ignored_by_equality_and_absent_on_other_fields(self, boxes12):
        _, field = boxes12
        packed = ExposureField.from_packed(field.to_packed(), field.n)
        rows = ExposureField(field.rows)
        assert packed.build_stats is None and rows.build_stats is None
        assert packed == field == rows
        assert hash(packed) == hash(field) == hash(rows)

    def test_stats_are_frozen(self, boxes12):
        with pytest.raises(AttributeError):
            boxes12[1].build_stats.pairs = 0

    def test_single_region(self):
        stats = compute_exposure_field(build_environment([[2.0]])).build_stats
        assert stats == BuildStats(0, 0, 0, 0, 0)


class TestExposureField:
    def test_validate_rejects_asymmetry(self):
        rows = [0b011, 0b010, 0b101]  # region 2 claims to see 0, 0 disagrees
        with pytest.raises(ValueError, match="symmetric"):
            ExposureField(rows)

    def test_validate_rejects_asymmetry_off_the_diagonal_block(self):
        block = _VALIDATE_ROWS
        n = 3 * block
        a, b = block + 3, 2 * block + 5  # in the second row strip, off its diagonal
        rows = [1 << i for i in range(n)]
        rows[b] |= 1 << a
        with pytest.raises(ValueError, match=rf"symmetric at pair \({a}, {b}\)"):
            ExposureField(rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_validate_names_first_asymmetric_pair(self, seed):
        # the pair the whole-matrix check names: first in row-major order
        block = _VALIDATE_ROWS
        rng = np.random.default_rng(seed)
        n = 2 * block + 40
        sees = rng.random((n, n)) < 0.05
        sees = sees | sees.T | np.eye(n, dtype=bool)
        for i, j in rng.integers(0, n, (3, 2)):
            if i != j:
                sees[i, j] = not sees[i, j]
        bad = np.nonzero(sees != sees.T)
        rows = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little")
                for r in sees]
        with pytest.raises(ValueError, match=rf"pair \({bad[0][0]}, {bad[1][0]}\)"):
            ExposureField(rows)

    def test_validate_rejects_missing_self(self):
        with pytest.raises(ValueError, match="reflexive"):
            ExposureField([0b01, 0b01])

    def test_validate_rejects_stray_bits(self):
        with pytest.raises(ValueError, match="beyond"):
            ExposureField([0b101, 0b010])

    def test_validate_rejects_bits_past_the_packed_row(self):
        # bit 9 of a 2-region field does not fit its one-byte packed row
        with pytest.raises(ValueError, match="beyond"):
            ExposureField([0b1 | 1 << 9, 0b10])

    @pytest.mark.parametrize("rows", [
        [0b01, 0b01],  # region 1 does not see itself
        [0b011, 0b010, 0b101],  # 0 sees 1, 1 does not see 0
        [0b101, 0b010],  # bit 2 of a 2-region field
    ])
    def test_from_packed_checks_the_packed_rows(self, rows):
        # the cache loader's path: same check, message and first pair as validate
        packed = np.array([[r] for r in rows], dtype=np.uint8)
        with pytest.raises(ValueError) as direct:
            ExposureField(rows)
        with pytest.raises(ValueError, match=re.escape(str(direct.value))):
            ExposureField.from_packed(packed, len(rows))

    def test_from_packed_checks_the_matrix_shape(self, boxes12):
        packed = boxes12[1].to_packed()
        n = len(packed)
        for matrix, count in ((packed, 5), (packed[:5], n), (packed[:, :-1], n),
                              (packed[0], n), (packed.astype(np.int64), n)):
            with pytest.raises(ValueError, match=rf"expected uint8 \({count}, {(count + 7) // 8}\)"):
                ExposureField.from_packed(matrix, count)

    def test_members_and_scores(self):
        field = ExposureField([0b011, 0b111, 0b110])
        assert list(field.members(0)) == [0, 1]
        assert list(field.members(1)) == [0, 1, 2]
        assert field.exposure_count(2) == 2
        assert field.exposure_score(1) == 1.0
        assert field.min_score() == pytest.approx(2 / 3)

    @pytest.mark.parametrize("n", [64, 70, 130])
    def test_scores_are_counts_over_n(self, n):
        # exactly: int / int rounds once, and min commutes with / n
        rng = np.random.default_rng(n)
        sees = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        sees = sees | sees.T | np.eye(n, dtype=bool)
        field = ExposureField.from_packed(np.packbits(sees, axis=1, bitorder="little"), n)
        counts = [field.exposure_count(r) for r in range(n)]
        assert counts == sees.sum(axis=1).tolist()
        assert [field.exposure_score(r) for r in range(n)] == [c / n for c in counts]
        assert field.scores().tolist() == [c / n for c in counts]
        assert field.min_score() == min(counts) / n

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 70])
    def test_members_are_the_row_bits(self, n):
        rng = np.random.default_rng(n)
        sees = rng.random((n, n)) < 0.3
        sees = sees | sees.T | np.eye(n, dtype=bool)
        field = ExposureField([sum(1 << int(j) for j in np.flatnonzero(row)) for row in sees])
        for i in range(n):
            assert np.array_equal(field.members(i), np.flatnonzero(sees[i]))

    def test_to_packed_is_one_read_only_view(self, boxes12):
        _, built = boxes12
        field = ExposureField(built.rows)
        packed = field.to_packed()
        assert field.to_packed() is packed
        assert not packed.flags.writeable
        assert packed.shape == (field.n, (field.n + 7) // 8)
        for i, row in enumerate(field.rows):
            assert int.from_bytes(packed[i].tobytes(), "little") == row
        assert np.array_equal(built.to_packed(), packed)

    def test_builder_hands_its_matrix_to_the_field(self):
        env = build_environment(gen_hills(5, 11), cell_size=DEFAULT_CELL_SIZE)
        field = compute_exposure_field(env)
        assert field._packed is not None  # no repacking from the int rows
        assert not field._packed.flags.writeable
        assert np.array_equal(field.to_packed(), ExposureField(field.rows).to_packed())

    @pytest.mark.parametrize("make", [
        lambda: ExposureField([]),
        lambda: ExposureField.from_packed(np.zeros((0, 0), np.uint8), 0),
    ], ids=["rows", "from_packed"])
    def test_a_field_needs_a_region(self, make):
        # the constructor's rule runs before the codec reads a zero-width row
        with pytest.raises(ValueError, match="^exposure field needs at least one region$"):
            make()

    def test_from_packed_keeps_a_read_only_matrix(self, boxes12):
        packed = ExposureField(boxes12[1].rows).to_packed()
        assert ExposureField.from_packed(packed, len(packed)).to_packed() is packed

    def test_from_packed_copies_a_writable_matrix(self):
        packed = np.array([[0b011], [0b111], [0b110]], dtype=np.uint8)
        field = ExposureField.from_packed(packed, 3)
        packed[0, 0] = 0b111
        assert field.rows == (0b011, 0b111, 0b110)
        assert field.to_packed()[0, 0] == 0b011
        assert not field.to_packed().flags.writeable

    def test_packed_round_trip(self, boxes12):
        _, field = boxes12
        again = ExposureField.from_packed(field.to_packed(), field.n)
        assert again == field

    def test_bounds_checks(self):
        field = ExposureField([1])
        with pytest.raises(IndexError):
            field.exposure_set(1)
        with pytest.raises(IndexError):
            field.members(-1)


class TestTraversability:
    def test_step_limit_blocks(self):
        env = build_environment([[0.0, 2.0, 2.5]], max_step=1.0)
        assert not traversable(env, 0, 1)
        assert traversable(env, 1, 2)

    def test_never_self(self, flat5):
        env, _ = flat5
        assert not traversable(env, 7, 7)

    def test_diagonals_need_connectivity_8(self):
        flat = np.zeros((3, 3))
        env4 = build_environment(flat, connectivity=4)
        env8 = build_environment(flat, connectivity=8)
        assert not traversable(env4, 0, 4)
        assert traversable(env8, 0, 4)
        assert len(env4.neighbors(4)) == 4
        assert len(env8.neighbors(4)) == 8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 3.0))
    def test_symmetry(self, seed, max_step):
        rng = np.random.default_rng(seed)
        elev = rng.uniform(0.0, 4.0, (4, 4))
        env = build_environment(elev, max_step=max_step)
        for a in range(env.n):
            for b in range(env.n):
                assert traversable(env, a, b) == traversable(env, b, a)


class TestGridEnvironment:
    def test_representative_points(self):
        env = build_environment([[2.0, 3.0]], cell_size=10.0, d=1.0)
        assert env.points[0].tolist() == [5.0, 5.0, 3.0]
        assert env.points[1].tolist() == [15.0, 5.0, 4.0]

    def test_index_rowcol_round_trip(self):
        env = build_environment(np.zeros((3, 4)))
        for r in range(3):
            for c in range(4):
                assert env.rowcol(env.index(r, c)) == (r, c)
        with pytest.raises(IndexError):
            env.index(3, 0)
        with pytest.raises(IndexError):
            env.rowcol(12)

    def test_min_steps(self):
        env4 = build_environment(np.zeros((4, 4)), connectivity=4)
        env8 = build_environment(np.zeros((4, 4)), connectivity=8)
        a, b = env4.index(0, 0), env4.index(3, 2)
        assert env4.min_steps(a, b) == 5
        assert env8.min_steps(a, b) == 3

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_min_steps_to_is_the_grid_distance(self, connectivity):
        env = build_environment(np.zeros((4, 7)), connectivity=connectivity)
        for b in range(env.n):
            rb, cb = b // 7, b % 7
            want = []
            for a in range(env.n):
                dr, dc = abs(a // 7 - rb), abs(a % 7 - cb)
                want.append(float(dr + dc if connectivity == 4 else max(dr, dc)))
            got = env.min_steps_to(b)
            assert got.dtype == np.float64
            assert got.tolist() == want
            steps = [env.min_steps(a, b) for a in range(env.n)]
            assert steps == want and all(type(v) is int for v in steps)

    def test_manhattan3(self):
        env = build_environment([[0.0, 2.0]], cell_size=4.0)
        assert env.manhattan3(0, 1) == pytest.approx(4.0 + 0.0 + 2.0)

    def test_manhattan3_to_is_manhattan3_of_every_region(self):
        env = build_environment(gen_hills(2, 12), cell_size=DEFAULT_CELL_SIZE)
        graph = ExplicitGraph(env.n, [], points=env.points)
        for b in (0, 37, env.n - 1):
            for world in (env, graph):
                assert world.manhattan3_to(b).tolist() == [world.manhattan3(a, b)
                                                           for a in range(env.n)]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="2D"):
            build_environment([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            build_environment([[np.nan, 1.0]])
        with pytest.raises(ValueError, match="cell_size"):
            build_environment([[0.0]], cell_size=0.0)
        with pytest.raises(ValueError, match="connectivity"):
            build_environment([[0.0]], connectivity=6)
        with pytest.raises(ValueError, match="max_step"):
            build_environment([[0.0]], max_step=-1.0)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("gen", [gen_boxes, gen_hills])
    def test_adjacency_matches_loop_on_generated_maps(self, gen, connectivity):
        for size in (12, 20):
            elev = gen(3, size)
            env = build_environment(elev, max_step=DEFAULT_MAX_STEP, connectivity=connectivity)
            assert env.adjacency == reference_adjacency(elev, DEFAULT_MAX_STEP, connectivity)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("max_step", [0.0, 0.5, 1.0, math.inf])
    def test_adjacency_matches_loop_on_random_grids(self, max_step, connectivity):
        # whole and half metres put many steps exactly at max_step
        rng = np.random.default_rng(int(2 * min(max_step, 9)) + connectivity)
        for shape in ((1, 1), (1, 9), (9, 1), (2, 2), (5, 7), (8, 3), (11, 11)):
            elev = np.round(2 * rng.uniform(0.0, 3.0, shape)) / 2
            env = build_environment(elev, max_step=max_step, connectivity=connectivity)
            assert env.adjacency == reference_adjacency(elev, max_step, connectivity), shape
            assert all(type(j) is int for adj in env.adjacency for j in adj)

    def test_elevations_read_only(self):
        env = build_environment(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            env.elevations[0, 0] = 5.0


class TestExplicitGraph:
    def test_edges_symmetrized(self):
        g = ExplicitGraph(3, [(0, 1), (1, 2)])
        assert g.neighbors(1) == (0, 2)
        assert traversable(g, 2, 1) and traversable(g, 1, 2)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="self-edge"):
            ExplicitGraph(2, [(1, 1)])
        with pytest.raises(ValueError, match="outside"):
            ExplicitGraph(2, [(0, 2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        points = np.zeros((2, 3))
        points[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ExplicitGraph(2, [(0, 1)], points=points)

    def test_rejects_points_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^points must be \(3, 3\)$"):
            ExplicitGraph(3, [], points=np.zeros((2, 3)))

    def test_heuristics_degrade_to_zero_without_points(self):
        g = ExplicitGraph(2, [(0, 1)])
        assert g.min_steps(0, 1) == 0
        assert g.manhattan3(0, 1) == 0.0
        assert g.manhattan3_to(1).tolist() == [0.0, 0.0]

    def test_points_are_a_read_only_copy(self):
        # a shared caller array would let a later write reach the heuristics
        pts = np.zeros((3, 3))
        g = ExplicitGraph(3, [(0, 1), (1, 2)], points=pts)
        pts[2] = [5.0, 0.0, 0.0]
        assert g.manhattan3(0, 2) == 0.0
        assert g.manhattan3_to(2).tolist() == [0.0, 0.0, 0.0]
        assert not g.points.flags.writeable
        with pytest.raises(ValueError):
            g.points[2, 0] = 5.0
