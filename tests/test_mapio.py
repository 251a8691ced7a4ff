import inspect

import numpy as np
import pytest

from stealthpath import (ExposureField, build_environment,
                         compute_exposure_field, field_cache_path,
                         load_exposure_field, load_heightmap,
                         load_or_compute_field, parse_heightmap,
                         save_exposure_field, save_heightmap)
from stealthpath.mapio import EXPF_MAGIC, format_heightmap


class TestHeightmapFormat:
    def test_round_trip_is_byte_identical(self, tmp_path):
        elev = np.array([[0.1, 1 / 3, 1e-17], [1234.5678, -2.25, 7.0]])
        p = tmp_path / "m.txt"
        save_heightmap(p, elev, 2.5)
        loaded, cell = load_heightmap(p)
        assert cell == 2.5
        assert np.array_equal(loaded, elev)
        assert format_heightmap(loaded, cell) == p.read_text()

    def test_header_layout(self):
        text = format_heightmap(np.zeros((2, 3)), 1.0)
        assert text.splitlines()[0] == "3 2 1.0"

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="empty"):
            parse_heightmap("")
        with pytest.raises(ValueError, match="header"):
            parse_heightmap("3 2\n0 0 0\n0 0 0\n")
        with pytest.raises(ValueError, match="rows"):
            parse_heightmap("3 2 1.0\n0 0 0\n")
        with pytest.raises(ValueError, match="row 1"):
            parse_heightmap("3 2 1.0\n0 0 0\n0 0\n")
        with pytest.raises(ValueError, match="row 0"):
            parse_heightmap("2 1 1.0\n0 abc\n")
        with pytest.raises(ValueError, match="positive"):
            parse_heightmap("0 1 1.0\n\n")
        with pytest.raises(ValueError, match="cell_size"):
            parse_heightmap("1 1 0\n0\n")
        with pytest.raises(ValueError, match="finite"):
            parse_heightmap("1 1 1.0\ninf\n")

    @pytest.mark.parametrize("cell", ["inf", "1e400", "nan", "-5", "0"])
    def test_cell_size_is_positive_and_finite(self, cell):
        # the rule GridEnvironment applies, so no map parses that it rejects
        with pytest.raises(ValueError, match="cell_size must be positive and finite"):
            parse_heightmap(f"2 1 {cell}\n0 0\n")
        with pytest.raises(ValueError, match="cell_size must be positive and finite"):
            format_heightmap(np.zeros((1, 2)), float(cell))


class TestExposureFieldFile:
    def test_round_trip(self, tmp_path, boxes12):
        _, field = boxes12
        p = tmp_path / "f.expf"
        save_exposure_field(p, field)
        assert load_exposure_field(p) == field
        # and the bytes themselves are stable
        first = p.read_bytes()
        save_exposure_field(p, load_exposure_field(p))
        assert p.read_bytes() == first

    def test_loaded_field_keeps_the_file_rows_as_its_packed_view(self, tmp_path, boxes12):
        _, field = boxes12
        p = tmp_path / "f.expf"
        save_exposure_field(p, field)
        loaded = load_exposure_field(p)
        assert loaded._packed is not None  # validated as read, never repacked
        assert loaded.to_packed().tobytes() == p.read_bytes()[8:]

    def test_magic_and_layout(self, tmp_path):
        field = ExposureField([0b01 | 0b10, 0b11])
        p = tmp_path / "f.expf"
        save_exposure_field(p, field)
        raw = p.read_bytes()
        assert raw[:4] == EXPF_MAGIC
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert len(raw) == 8 + 2  # two one-byte rows

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "f.expf"
        p.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(ValueError, match="magic"):
            load_exposure_field(p)

    def test_rejects_truncation(self, tmp_path, boxes12):
        _, field = boxes12
        p = tmp_path / "f.expf"
        save_exposure_field(p, field)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(ValueError, match="row bytes"):
            load_exposure_field(p)

    def test_rejects_zero_regions(self, tmp_path):
        # the field's own rule, as for a field built in memory
        p = tmp_path / "f.expf"
        p.write_bytes(EXPF_MAGIC + (0).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="^exposure field needs at least one region$"):
            load_exposure_field(p)

    def test_rejects_asymmetric_payload(self, tmp_path):
        # region 0 claims to see region 1, region 1 disagrees
        p = tmp_path / "f.expf"
        p.write_bytes(EXPF_MAGIC + (2).to_bytes(4, "little") + bytes([0b11, 0b10]))
        with pytest.raises(ValueError, match="symmetric"):
            load_exposure_field(p)


class TestFieldCache:
    def test_cache_key_covers_map_and_sensor_height(self):
        assert field_cache_path(b"map-a", 1.0, "/c") != field_cache_path(b"map-b", 1.0, "/c")
        assert field_cache_path(b"map-a", 1.0, "/c") != field_cache_path(b"map-a", 2.0, "/c")
        assert field_cache_path(b"map-a", 1.0, "/c") == field_cache_path(b"map-a", 1.0, "/c")

    def test_load_or_compute_populates_and_reuses(self, tmp_path):
        elev = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
        raw = format_heightmap(elev, 1.0).encode()
        env = build_environment(elev, cell_size=1.0)
        f1 = load_or_compute_field(env, raw, tmp_path)
        cache = field_cache_path(raw, env.d, tmp_path)
        assert cache.exists()
        stamp = cache.read_bytes()
        f2 = load_or_compute_field(env, raw, tmp_path)
        assert f1 == f2
        assert cache.read_bytes() == stamp

    def test_the_map_bytes_are_required(self):
        # every caller passes them; only the cache directory may be None
        params = inspect.signature(load_or_compute_field).parameters
        assert params["map_bytes"].default is inspect.Parameter.empty
        assert params["cache_dir"].default is None

    def test_no_cache_skips_files(self, tmp_path):
        elev = np.zeros((2, 2))
        raw = format_heightmap(elev, 1.0).encode()
        env = build_environment(elev)
        load_or_compute_field(env, raw, None)
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_cache_is_recomputed(self, tmp_path, capsys):
        elev = np.zeros((2, 2))
        raw = format_heightmap(elev, 1.0).encode()
        env = build_environment(elev)
        cache = field_cache_path(raw, env.d, tmp_path)
        save_exposure_field(cache, ExposureField([1]))  # wrong region count
        field = load_or_compute_field(env, raw, tmp_path)
        assert field.n == env.n
        assert field == compute_exposure_field(env)
        assert "warning: ignoring invalid field cache (exposure field covers 1 regions" \
            in capsys.readouterr().err
