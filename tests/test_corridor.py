import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthpath import (ExposureField, average_width, build_corridor, corridor,
                         corridor_record, exposed_set, lemma1_fixture,
                         obj_bin, plan_binary)
from stealthpath.bitset import bit_indices, mask_from_indices


def reference_corridor(field, exposed):
    """The int-loop corridor, frozen as the oracle for the packed one."""
    out = 0
    bit = 1
    for row in field.rows:
        if row & ~exposed == 0:
            out |= bit
        bit <<= 1
    return out


def random_field(rng, n, density):
    sees = rng.random((n, n)) < density
    sees = sees | sees.T | np.eye(n, dtype=bool)
    return ExposureField([mask_from_indices(np.flatnonzero(row)) for row in sees])


def random_c_walk(env, mask, start, rng, steps=40):
    """Random walk that refuses to leave the corridor."""
    walk = [start]
    for _ in range(steps):
        options = [nb for nb in env.neighbors(walk[-1]) if (mask >> nb) & 1]
        if not options:
            break
        walk.append(options[int(rng.integers(0, len(options)))])
    return walk


class TestExposedSet:
    def test_single_region(self, boxes12):
        _, field = boxes12
        assert exposed_set(field, [5]) == field.exposure_set(5)

    def test_fixture_p2_exposes_nine(self):
        fx = lemma1_fixture()
        path = [fx.index(c) for c in "FCBADE"]
        k = exposed_set(fx.field, path)
        assert k.bit_count() == 9
        assert sorted(fx.names[i] for i in bit_indices(k)) == list("ABCDEFHIJ")

    def test_empty_path_rejected(self, boxes12):
        with pytest.raises(ValueError, match="empty"):
            exposed_set(boxes12[1], [])


class TestCorridor:
    def test_full_k_gives_full_corridor(self, boxes12):
        _, field = boxes12
        k = (1 << field.n) - 1
        assert corridor(field, k) == k

    def test_flat_map_partial_k_gives_empty_corridor(self, flat5):
        _, field = flat5
        k = (1 << field.n) - 1 - (1 << 0)
        assert corridor(field, k) == 0

    def test_membership_rule(self, boxes12):
        _, field = boxes12
        rng = np.random.default_rng(2)
        k = mask_from_indices(int(v) for v in rng.choice(field.n, 60, replace=False))
        c = corridor(field, k)
        for i in range(field.n):
            inside = bool((c >> i) & 1)
            assert inside == (field.exposure_set(i) & ~k == 0)

    def test_monotone_in_k(self, boxes12):
        _, field = boxes12
        rng = np.random.default_rng(3)
        k1 = mask_from_indices(int(v) for v in rng.choice(field.n, 40, replace=False))
        k2 = k1 | mask_from_indices(int(v) for v in rng.choice(field.n, 30, replace=False))
        assert corridor(field, k1) & ~corridor(field, k2) == 0

    def test_empty_k_rejected(self, boxes12):
        with pytest.raises(ValueError, match="empty"):
            corridor(boxes12[1], 0)

    @pytest.mark.parametrize("n", [1, 5, 8, 13, 16, 63, 64, 65, 90, 144])
    def test_matches_int_loop_oracle(self, n):
        rng = np.random.default_rng(n)
        for density in (0.02, 0.1, 0.4):
            field = random_field(rng, n, density)
            for size in {1, max(1, n // 3), max(1, n - 2), n}:
                k = mask_from_indices(int(v) for v in rng.choice(n, size, replace=False))
                assert corridor(field, k) == reference_corridor(field, k), (n, density, k)

    def test_matches_int_loop_oracle_on_path_exposures(self, boxes12, hills20):
        for env, field in (boxes12, hills20):
            rng = np.random.default_rng(env.n)
            for _ in range(15):
                s, g = (int(v) for v in rng.integers(0, env.n, 2))
                res = plan_binary(env, field, s, g)
                if res.path is not None:
                    k = exposed_set(field, res.path)
                    assert corridor(field, k) == reference_corridor(field, k)

    @pytest.mark.parametrize("n", [5, 8, 13])
    def test_bits_past_the_region_count_are_ignored(self, n):
        # bits at or past n meet no row; bits past the packed width would
        # make a bare k.to_bytes(ceil(n/8)) raise OverflowError
        rng = np.random.default_rng(n)
        field = random_field(rng, n, 0.3)
        nbytes = (n + 7) // 8
        for size in range(1, n + 1):
            k = mask_from_indices(int(v) for v in rng.choice(n, size, replace=False))
            want = reference_corridor(field, k)
            for extra in {n, 8 * nbytes - 1, 8 * nbytes, 8 * nbytes + 9, 300} - set(range(n)):
                assert corridor(field, k | 1 << extra) == want, (k, extra)
            # every bit past n set is a negative int: no region set
            with pytest.raises(ValueError, match="exposed must be a non-negative integer"):
                corridor(field, k | ~((1 << n) - 1))


class TestAverageWidth:
    def test_ratio(self):
        assert average_width(mask_from_indices(range(30)), list(range(10))) == 3.0

    def test_corridor_equals_path(self):
        assert average_width(mask_from_indices([4, 9, 14]), [4, 9, 14]) == 1.0

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            average_width(1, [])


class TestBuildCorridor:
    def test_seed_path_contained(self, boxes12):
        env, field = boxes12
        res = plan_binary(env, field, 0, env.n - 1)
        cor = build_corridor(env, field, res.path)
        for r in res.path:
            assert (cor.corridor >> r) & 1
        assert cor.exposed == exposed_set(field, res.path)
        assert cor.avg_width == average_width(cor.corridor, res.path)

    def test_no_leak_from_corridor_walks(self, boxes12):
        env, field = boxes12
        rng = np.random.default_rng(11)
        res = plan_binary(env, field, 1, env.n - 2)
        cor = build_corridor(env, field, res.path)
        for _ in range(20):
            start = res.path[int(rng.integers(0, len(res.path)))]
            walk = random_c_walk(env, cor.corridor, start, rng)
            assert exposed_set(field, walk) & ~cor.exposed == 0
            assert obj_bin(field, walk) <= cor.exposed.bit_count()

    def test_connected_only_restricts(self, boxes50):
        env, field = boxes50
        res = plan_binary(env, field, env.index(0, 0), env.index(49, 49))
        full = build_corridor(env, field, res.path)
        conn = build_corridor(env, field, res.path, connected_only=True)
        assert conn.corridor & ~full.corridor == 0
        for r in res.path:
            assert (conn.corridor >> r) & 1
        # every connected-corridor cell is reachable from the path inside C
        assert conn.avg_width <= full.avg_width

    @pytest.mark.parametrize("n", [143, 145], ids=["smaller", "larger"])
    def test_field_of_another_map_is_rejected(self, boxes12, n):
        env, _ = boxes12
        other = ExposureField([(1 << n) - 1] * n)
        with pytest.raises(ValueError, match=rf"covers {n} regions, environment has 144"):
            build_corridor(env, other, [0, 1])

    def test_record_shape(self, boxes12):
        env, field = boxes12
        res = plan_binary(env, field, 0, 11)
        cor = build_corridor(env, field, res.path)
        rec = corridor_record(cor)
        assert rec["seed_path"] == res.path
        assert rec["corridor"] == bit_indices(cor.corridor)
        assert rec["exposed"] == bit_indices(cor.exposed)
        assert rec["avg_width"] == cor.avg_width

    @pytest.mark.parametrize("connected_only", [False, True])
    def test_record_of_a_numpy_path_is_json(self, boxes12, connected_only):
        # the corridor keeps the Python ints its path check returns
        env, field = boxes12
        path = plan_binary(env, field, 0, 11).path
        cor = build_corridor(env, field, np.array(path), connected_only=connected_only)
        assert all(type(r) is int for r in cor.seed_path)
        rec = json.loads(json.dumps(corridor_record(cor)))
        assert rec == corridor_record(build_corridor(env, field, path,
                                                     connected_only=connected_only))
        assert rec["seed_path"] == path


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_corridor_membership_rule_random_fields(seed):
    # the rule E(c) subset-of K must hold for any reflexive symmetric field
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    sym = np.triu(rng.integers(0, 2, (n, n)), 1)
    mat = (sym + sym.T + np.eye(n, dtype=int)).astype(bool)
    from stealthpath import ExposureField
    rows = [mask_from_indices(np.flatnonzero(mat[i])) for i in range(n)]
    field = ExposureField(rows)
    k = mask_from_indices(int(v) for v in rng.choice(n, max(1, n // 2), replace=False))
    c = corridor(field, k)
    for i in bit_indices(c):
        assert field.exposure_set(i) & ~k == 0
