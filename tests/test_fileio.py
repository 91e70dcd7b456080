"""Field files, PGM output and CSV formatting."""

import json

import numpy as np
import pytest

from evfaraday import ComplexField, GridSpec
from evfaraday.fileio import (format_csv, load_field, save_field,
                              write_intensity_pgm, write_mask_pgm, write_pgm,
                              write_text)


def random_field(n=32, side=1e-6, seed=5):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ComplexField(GridSpec(n, side), 2.5e-7, amps)


class TestFieldFile:
    def test_round_trip_bit_exact(self, tmp_path):
        field = random_field()
        path = tmp_path / "a.field"
        save_field(str(path), field, 60e3, 1.0, note="test")
        loaded, header = load_field(str(path))
        assert np.array_equal(loaded.amplitudes, field.amplitudes)
        assert loaded.grid == field.grid
        assert loaded.z_position == field.z_position
        assert header["energy_eV"] == 60e3
        assert header["field_T"] == 1.0
        assert header["note"] == "test"
        assert header["format_version"] == 1

    def test_payload_length_exact(self, tmp_path):
        field = random_field(n=16)
        path = tmp_path / "b.field"
        save_field(str(path), field, 1.0, 0.0)
        blob = path.read_bytes()
        header_len = blob.find(b"\n") + 1
        assert len(blob) - header_len == 16 * 16 * 16

    def test_truncated_payload_rejected(self, tmp_path):
        field = random_field(n=16)
        path = tmp_path / "c.field"
        save_field(str(path), field, 1.0, 0.0)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_field(str(path))

    def test_file_bytes(self, tmp_path):
        # header line and payload are written as separate parts
        field = random_field(n=16)
        path = tmp_path / "e.field"
        save_field(str(path), field, 60e3, 1.0, note="pinned")
        header = {"format_version": 1,
                  "grid": {"n": 16, "side_m": 1e-6},
                  "z_m": 2.5e-7, "energy_eV": 60e3, "field_T": 1.0,
                  "note": "pinned"}
        assert path.read_bytes() == (
            json.dumps(header).encode() + b"\n"
            + field.amplitudes.astype("<c16").tobytes())

    def test_resave_identical_bytes(self, tmp_path):
        field = random_field()
        p1, p2 = tmp_path / "d1.field", tmp_path / "d2.field"
        save_field(str(p1), field, 60e3, 1.0)
        loaded, _ = load_field(str(p1))
        save_field(str(p2), loaded, 60e3, 1.0)
        assert p1.read_bytes() == p2.read_bytes()


class TestPgm:
    def test_mask_pgm_layout(self, tmp_path):
        values = np.zeros((16, 16), dtype=np.uint8)
        values[3, 7] = 1
        path = tmp_path / "m.pgm"
        write_mask_pgm(str(path), values)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n16 16\n255\n")
        payload = blob[len(b"P5\n16 16\n255\n"):]
        assert len(payload) == 256
        assert payload[3 * 16 + 7] == 255
        assert sum(payload) == 255

    def test_intensity_pgm_sidecar(self, tmp_path):
        intensity = np.zeros((16, 16))
        intensity[5, 5] = 4.25
        path = tmp_path / "i.pgm"
        peak = write_intensity_pgm(str(path), intensity)
        assert peak == 4.25
        sidecar = json.loads((tmp_path / "i.pgm.json").read_text())
        assert sidecar["max_intensity"] == 4.25
        blob = path.read_bytes()
        assert blob[-256:][5 * 16 + 5] == 255

    def test_zero_frame(self, tmp_path):
        path = tmp_path / "z.pgm"
        peak = write_intensity_pgm(str(path), np.zeros((16, 16)))
        assert peak == 0.0
        blob = path.read_bytes()
        assert blob == b"P5\n16 16\n255\n" + bytes(256)
        sidecar = json.loads((tmp_path / "z.pgm.json").read_text())
        assert sidecar["max_intensity"] == 0.0

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(str(tmp_path / "x.pgm"), np.zeros(16, dtype=np.uint8))


class TestCsvAndText:
    def test_format_deterministic(self):
        rows = [(1.0, 2.0), (3.0, 4.0)]
        a = format_csv("units", ("x", "y"), rows)
        b = format_csv("units", ("x", "y"), rows)
        assert a == b
        assert a.splitlines()[0] == "# units"
        assert a.splitlines()[1] == "x,y"
        assert "1.000000000000e+00,2.000000000000e+00" in a

    def test_write_text_replaces_atomically(self, tmp_path):
        path = tmp_path / "t.csv"
        write_text(str(path), "first\n")
        write_text(str(path), "second\n")
        assert path.read_text() == "second\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".evf-tmp")]
        assert not leftovers
