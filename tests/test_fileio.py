"""Field files, PGM output and CSV formatting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfaraday import ComplexField, GridSpec
from evfaraday.fileio import (_atomic_write_bytes, format_csv, load_field,
                              save_field, write_frame_pgm,
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
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_field(str(path))
        # cut inside the header, the file has no header line at all
        path.write_bytes(blob[:blob.find(b"\n")])
        with pytest.raises(ValueError, match="missing header terminator"):
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

    @pytest.mark.parametrize("z, energy, field_t", [
        pytest.param(np.nan, 60e3, 1.0, id="z-nan"),
        pytest.param(-np.inf, 60e3, 1.0, id="z-minus-inf"),
        pytest.param(0.0, np.inf, 1.0, id="energy-inf"),
        pytest.param(0.0, 60e3, np.nan, id="field-nan"),
    ])
    def test_non_finite_header_refused(self, tmp_path, z, energy, field_t):
        # NaN and Infinity are not JSON; no file, not even a temp file, is
        # left behind
        field = ComplexField(GridSpec(16, 1e-6), z, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            save_field(str(tmp_path / "f.field"), field, energy, field_t)
        assert not list(tmp_path.iterdir())

    def test_resave_identical_bytes(self, tmp_path):
        field = random_field()
        p1, p2 = tmp_path / "d1.field", tmp_path / "d2.field"
        save_field(str(p1), field, 60e3, 1.0)
        loaded, _ = load_field(str(p1))
        save_field(str(p2), loaded, 60e3, 1.0)
        assert p1.read_bytes() == p2.read_bytes()


VALID_HEADER = {"format_version": 1, "grid": {"n": 16, "side_m": 1e-6},
                "z_m": 0.0, "energy_eV": 60e3, "field_T": 1.0, "note": ""}


def corrupted(**changes):
    """VALID_HEADER with top-level or grid keys replaced, or dropped where
    the value is None."""
    header = json.loads(json.dumps(VALID_HEADER))
    for key, value in changes.items():
        owner = header["grid"] if key in ("n", "side_m") else header
        if value is None:
            del owner[key]
        else:
            owner[key] = value
    return header


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


class TestFieldFileProperties:
    """Field files round-trip bit for bit, and a damaged file raises
    ValueError naming its path, never another error type."""

    @staticmethod
    def write_blob(directory, blob):
        path = directory / "x.field"
        path.write_bytes(blob)
        return str(path)

    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([16, 18, 24]), seed=st.integers(0, 2 ** 32 - 1),
           side=st.floats(1e-300, 1e300),
           z=st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_bit_exact(self, tmp_path_factory, n, seed, side, z):
        # arbitrary bit patterns, NaN payloads and signed zeros included
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2 ** 64, size=2 * n * n, dtype=np.uint64)
        amps = bits.view(np.float64).view(np.complex128).reshape(n, n)
        field = ComplexField(GridSpec(n, side), z, amps)
        path = str(tmp_path_factory.mktemp("rt") / "f.field")
        save_field(path, field, 60e3, 1.0)
        loaded, _ = load_field(path)
        assert loaded.amplitudes.tobytes() == amps.tobytes()
        assert (loaded.grid, loaded.z_position) == (field.grid, z)

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([16, 20]), data=st.data())
    def test_truncated_file_rejected(self, tmp_path_factory, n, data):
        path = tmp_path_factory.mktemp("cut") / "f.field"
        save_field(str(path), random_field(n=n), 60e3, 1.0)
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="f.field"):
            load_field(str(path))

    @pytest.mark.parametrize("header", [
        pytest.param([1, 2], id="list"),
        pytest.param(corrupted(n="16"), id="n-string"),
        pytest.param(corrupted(n=16.0), id="n-float"),
        pytest.param(corrupted(n=-16), id="n-negative"),
        pytest.param(corrupted(side_m="x"), id="side-string"),
        pytest.param(corrupted(side_m=True), id="side-bool"),
        pytest.param(corrupted(grid=None), id="no-grid"),
        pytest.param(corrupted(z_m=None), id="no-z"),
        pytest.param(corrupted(format_version=2), id="version-2"),
    ])
    def test_corrupt_header_rejected(self, tmp_path, header):
        payload = bytes(16 * 16 * 16)
        path = self.write_blob(tmp_path,
                               json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="x.field"):
            load_field(path)

    @pytest.mark.parametrize("key, literal", [
        ("z_m", "NaN"), ("z_m", "-Infinity"), ("energy_eV", "Infinity"),
        ("field_T", "NaN"), ("note", "NaN"), ("z_m", "1e999"),
        ("z_m", "-1e999"),
    ])
    def test_non_json_or_infinite_header_rejected(self, tmp_path, key,
                                                  literal):
        # the constants NaN and Infinity are not JSON, wherever they sit,
        # and 1e999 parses to an infinite z_m
        header = json.dumps({**VALID_HEADER, key: "@"}).replace('"@"', literal)
        path = self.write_blob(tmp_path,
                               header.encode() + b"\n" + bytes(16 * 16 * 16))
        with pytest.raises(ValueError, match="x.field: header"):
            load_field(path)

    @pytest.mark.parametrize("key, literal", [
        ("energy_eV", "1e999"), ("field_T", "-1e999"), ("note", "[1e999]"),
    ])
    def test_header_save_field_would_refuse_rejected(self, tmp_path, key,
                                                     literal):
        # json reads 1e999 as inf, which save_field would not write back
        header = json.dumps({**VALID_HEADER, key: "@"}).replace('"@"', literal)
        path = self.write_blob(tmp_path,
                               header.encode() + b"\n" + bytes(16 * 16 * 16))
        with pytest.raises(ValueError, match="x.field"):
            load_field(path)

    @settings(max_examples=40, deadline=None)
    @given(key=st.sampled_from(["format_version", "grid", "n", "side_m",
                                "z_m"]),
           value=json_values)
    def test_any_header_value_loads_or_raises_value_error(
            self, tmp_path_factory, key, value):
        # a None value drops the key
        header = json.dumps(corrupted(**{key: value})).encode()
        path = self.write_blob(tmp_path_factory.mktemp("hdr"),
                               header + b"\n" + bytes(16 * 16 * 16))
        try:
            load_field(path)
        except ValueError as exc:
            assert "x.field" in str(exc)


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
        amps = np.zeros((16, 16), complex)
        amps[5, 5] = 1.5j
        field = ComplexField(GridSpec(16, 1e-6), 0.0, amps.copy())
        path = tmp_path / "i.pgm"
        peak = write_intensity_pgm(str(path), field)
        assert peak == 2.25
        sidecar = json.loads((tmp_path / "i.pgm.json").read_text())
        assert sidecar["max_intensity"] == 2.25
        blob = path.read_bytes()
        assert blob[-256:][5 * 16 + 5] == 255
        # the field's own plane is not scaled by the quantiser
        assert np.array_equal(field.amplitudes, amps)

    def test_zero_frame(self, tmp_path):
        path = tmp_path / "z.pgm"
        peak = write_intensity_pgm(
            str(path), ComplexField(GridSpec(16, 1e-6), 0.0,
                                    np.zeros((16, 16))))
        assert peak == 0.0
        blob = path.read_bytes()
        assert blob == b"P5\n16 16\n255\n" + bytes(256)
        sidecar = json.loads((tmp_path / "z.pgm.json").read_text())
        assert sidecar["max_intensity"] == 0.0

    @pytest.mark.parametrize("peak", [np.nan, np.inf])
    def test_non_finite_peak_refused(self, tmp_path, peak):
        # NaN and Infinity are not JSON; neither the sidecar nor its frame
        # is written
        with pytest.raises(ValueError):
            write_frame_pgm(str(tmp_path / "f.pgm"), (4, 4),
                            [(0, np.zeros((4, 4), dtype=np.uint8))], peak)
        assert not list(tmp_path.iterdir())

    def test_frame_pieces_written_at_their_rows(self, tmp_path):
        # rows no piece covers read back as zeros, up to the frame's full
        # length, whether a piece ends the frame or not
        path = tmp_path / "f.pgm"
        one, two = np.full((2, 3), 7, np.uint8), np.full((1, 3), 9, np.uint8)
        assert write_frame_pgm(str(path), (6, 3), [(4, two), (1, one)],
                               2.5) == 2.5
        assert path.read_bytes() == (b"P5\n3 6\n255\n" + bytes(3)
                                     + bytes([7] * 6) + bytes(3)
                                     + bytes([9] * 3) + bytes(3))
        write_frame_pgm(str(path), (2, 3), [], 0.0)
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)
        assert json.loads((tmp_path / "f.pgm.json").read_text()) == {
            "max_intensity": 0.0}

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused(self, bad):
        # nan and inf are not numbers a CSV reader can trust; a table that
        # holds one is refused, wherever in it the value lies
        with pytest.raises(ValueError, match="non-finite CSV row"):
            format_csv("units", ("x", "y"),
                       [(1.0, 2.0), (3.0, np.float64(bad))])

    def test_write_text_replaces_atomically(self, tmp_path):
        path = tmp_path / "t.csv"
        write_text(str(path), "first\n")
        write_text(str(path), "second\n")
        assert path.read_text() == "second\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".evf-tmp")]
        assert not leftovers

    def test_failed_write_leaves_no_file(self, tmp_path):
        # a part that cannot be written fails the write part-way: the temp
        # file is removed, and a target that exists keeps its bytes
        path = tmp_path / "t.csv"
        with pytest.raises(TypeError):
            _atomic_write_bytes(str(path), [(0, b"head\n"), (5, object())],
                                6)
        assert not list(tmp_path.iterdir())
        write_text(str(path), "first\n")
        with pytest.raises(TypeError):
            _atomic_write_bytes(str(path), [(0, b"head\n"), (5, object())],
                                6)
        assert path.read_bytes() == b"first\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
