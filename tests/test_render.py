import numpy as np
import pytest

from stealthpath import build_corridor, build_environment, compute_exposure_field
from stealthpath.render import (compose, exposure_image, load_pgm,
                                overlay_corridor, overlay_path, write_pgm)


@pytest.fixture(scope="module")
def wall3():
    env = build_environment([[0.0, 10.0, 0.0]], cell_size=1.0, d=1.0)
    return env, compute_exposure_field(env)


class TestExposureImage:
    def test_flat_map_is_black(self, flat5):
        env, field = flat5
        assert (exposure_image(env, field) == 0).all()

    def test_one_by_one(self):
        env = build_environment([[4.0]])
        field = compute_exposure_field(env)
        img = exposure_image(env, field)
        assert img.shape == (1, 1) and img[0, 0] == 0

    def test_gray_levels_from_scores(self, wall3):
        env, field = wall3
        # outer cells see 2 of 3 regions, the wall top sees all 3
        assert [field.exposure_count(i) for i in range(3)] == [2, 3, 2]
        img = exposure_image(env, field)
        assert img.tolist() == [[85, 0, 85]]

    def test_field_size_mismatch_rejected(self, wall3, flat5):
        with pytest.raises(ValueError, match="regions"):
            exposure_image(wall3[0], flat5[1])


class TestOverlays:
    def test_path_black_inside_white_corridor(self, boxes12):
        env, field = boxes12
        path = [0, 1, 2]
        cor = build_corridor(env, field, path)
        img = compose(env, field, path=path, corridor_mask=cor.corridor)
        for r in path:
            assert img[divmod(r, env.width)] == 0
        only_corridor = cor.corridor & ~(1 | 2 | 4)
        lit = [divmod(r, env.width) for r in range(env.n)
               if (only_corridor >> r) & 1]
        for pos in lit:
            assert img[pos] == 255

    def test_overlay_bounds_checked(self, flat5):
        env, field = flat5
        img = exposure_image(env, field)
        with pytest.raises(ValueError, match="outside"):
            overlay_path(img, env, [99])
        with pytest.raises(ValueError, match="outside"):
            overlay_corridor(img, env, 1 << 99)

    def test_overlays_do_not_mutate_input(self, flat5):
        env, field = flat5
        img = exposure_image(env, field)
        before = img.copy()
        overlay_path(img, env, [0])
        assert np.array_equal(img, before)


class TestPgmIO:
    def test_round_trip(self, tmp_path, boxes12):
        env, field = boxes12
        img = exposure_image(env, field)
        p = tmp_path / "map.pgm"
        write_pgm(p, img)
        assert np.array_equal(load_pgm(p), img)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n12 12\n255\n")
        write_pgm(p, img)
        assert p.read_bytes() == raw  # deterministic bytes

    def test_header_with_comment(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# made elsewhere\n2 1\n255\n\x03\x04")
        assert load_pgm(p).tolist() == [[3, 4]]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="PGM"):
            load_pgm(p)

    def test_rejects_a_16_bit_maxval(self, tmp_path):
        p = tmp_path / "w.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="expected maxval 255, got 65535$"):
            load_pgm(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02")
        with pytest.raises(ValueError, match="pixels"):
            load_pgm(p)

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_pgm(tmp_path / "b.pgm", np.zeros((2, 2), dtype=np.int32))
