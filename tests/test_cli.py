"""Command-line surface: parsing, outputs, self-checks and exit codes."""

import contextlib
import io
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evfaraday import (ELEMENTARY_CHARGE, BeamParameters, ComplexField,
                       FarField, larmor_wavenumber, magnetic_width,
                       verdet_parameter, width_function_exact)
from evfaraday import cli, modes, propagation
from evfaraday.cli import build_parser, main
from evfaraday.fileio import load_field, write_intensity_pgm


def read_csv(path):
    rows = []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#") or "," not in line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                continue   # column header
    return np.asarray(rows)


class TestQuantities:
    def test_worked_example(self, capsys):
        assert main(["quantities", "-E", "60keV", "-B", "1T",
                     "--thickness", "100nm"]) == 0
        out = capsys.readouterr().out
        assert "6.053270e-05" in out      # the 0.06 mrad rotation
        assert "6.053270e+02" in out      # k_L and the Verdet parameter
        assert "5.131128e-08" in out      # w_B

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        assert main(["quantities", "-E", "60keV", "-B", "1T",
                     "--thickness", "100nm", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        p = BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)
        assert report["k_larmor_rad_per_m"] == pytest.approx(
            larmor_wavenumber(p), rel=1e-12)
        assert report["w_b_m"] == pytest.approx(magnetic_width(p), rel=1e-12)
        assert report["faraday_angle_rad"] == pytest.approx(6.05e-5, rel=1e-2)

    def test_zero_field_reports_infinite_width(self, capsys):
        assert main(["quantities", "-E", "60keV", "-B", "0T"]) == 0
        out = capsys.readouterr().out
        assert "∞" in out
        assert "0.000000e+00" in out      # k_L = 0

    @pytest.mark.parametrize("argv, table, report", [
        (["-B", "1T", "--thickness", "100nm"],
         "k0               1.254915e+12  rad/m\n"
         "omega_larmor     8.794100e+10  rad/s\n"
         "k_larmor         6.053270e+02  rad/m\n"
         "w_b              5.131128e-08  m\n"
         "verdet           6.053270e+02  rad/(T m)\n"
         "faraday_angle    6.053270e-05  rad  (thickness 1.000000e-07 m)\n",
         '{\n'
         '  "energy_eV": 60000.0,\n'
         '  "field_T": 1.0,\n'
         '  "k0_rad_per_m": 1254914556284.586,\n'
         '  "omega_larmor_rad_per_s": 87941000538.60815,\n'
         '  "k_larmor_rad_per_m": 605.3270484436773,\n'
         '  "w_b_m": 5.1311283614721915e-08,\n'
         '  "verdet_rad_per_t_m": 605.3270484436773,\n'
         '  "thickness_m": 1.0000000000000001e-07,\n'
         '  "faraday_angle_rad": 6.0532704844367736e-05\n'
         '}\n'),
        (["-B", "0T"],
         "k0              1.254915e+12  rad/m\n"
         "omega_larmor    0.000000e+00  rad/s\n"
         "k_larmor        0.000000e+00  rad/m\n"
         "w_b                        ∞  m\n"
         "verdet          6.053270e+02  rad/(T m)\n",
         '{\n'
         '  "energy_eV": 60000.0,\n'
         '  "field_T": 0.0,\n'
         '  "k0_rad_per_m": 1254914556284.586,\n'
         '  "omega_larmor_rad_per_s": 0.0,\n'
         '  "k_larmor_rad_per_m": 0.0,\n'
         '  "w_b_m": null,\n'
         '  "verdet_rad_per_t_m": 605.3270484436773\n'
         '}\n'),
    ], ids=["1T-thickness", "0T"])
    def test_table_and_json_text(self, tmp_path, capsys, argv, table, report):
        # the exact table and report, key order included
        path = tmp_path / "q.json"
        assert main(["quantities", "-E", "60keV", *argv,
                     "--json", str(path)]) == 0
        assert capsys.readouterr().out == table
        assert path.read_text(encoding="utf-8") == report

    def test_energy_scaling_halves_k_larmor(self, capsys):
        main(["quantities", "-E", "240keV", "-B", "1T"])
        out = capsys.readouterr().out
        assert "3.026635e+02" in out      # half of the 60 keV value

    def test_bad_unit_exit_code(self, capsys):
        assert main(["quantities", "-E", "60", "-B", "1T"]) == 2
        assert "60" in capsys.readouterr().err


class TestVerdetCurve:
    def test_csv_shape_and_values(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        assert main(["verdet-curve", "--e-min", "60eV", "--e-max", "600keV",
                     "-n", "5", "-o", str(path)]) == 0
        rows = read_csv(path)
        assert rows.shape == (5, 2)
        # strictly decreasing, E^(-1/2): a factor 100 in energy divides by 10
        assert np.all(np.diff(rows[:, 1]) < 0)
        assert rows[0, 1] / rows[2, 1] == pytest.approx(10.0, rel=1e-9)
        p60 = BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)
        row60 = rows[np.isclose(rows[:, 0], 60e3)][0]
        assert row60[1] == pytest.approx(verdet_parameter(p60), rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["verdet-curve", "--e-min", "1keV", "--e-max", "300keV",
                "-n", "17"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_mode(self, capsys):
        assert main(["verdet-curve", "--e-min", "1keV", "--e-max", "10keV",
                     "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#")
        assert "energy_eV,verdet_rad_per_T_m" in out

    def test_invalid_range(self, capsys):
        assert main(["verdet-curve", "--e-min", "10keV",
                     "--e-max", "1keV"]) == 2

    def test_point_count_bounded(self, capsys, monkeypatch):
        # refused on the count alone, before any energy is sampled
        def refuse(*a, **kw):
            raise AssertionError("sampled a refused curve")
        monkeypatch.setattr(np, "geomspace", refuse)
        assert main(["verdet-curve", "--e-min", "1keV", "--e-max", "2keV",
                     "-n", str(cli.MAX_CURVE_POINTS + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: need at most {cli.MAX_CURVE_POINTS} points\n")


class TestRotate:
    def test_tracks_analytic_and_self_checks(self, tmp_path, capsys):
        outdir = tmp_path / "rot"
        code = main(["rotate", "-E", "60keV", "-B", "1T",
                     "--grid-n", "128", "--grid-side", "600nm",
                     "--phi-max", "0.2rad",
                     "--outputs", "6", "-o", str(outdir)])
        assert code == 0
        rows = read_csv(outdir / "rotation.csv")
        assert rows.shape[0] == 7
        mask = rows[:, 2] != 0
        rel = np.abs(rows[mask, 1] - rows[mask, 2]) / np.abs(rows[mask, 2])
        assert rel.max() < 0.02
        assert rows[-1, 2] == pytest.approx(0.2, rel=0.05)

    def test_self_check_fails_against_a_wrong_law(self, tmp_path, capsys,
                                                  monkeypatch):
        # a Larmor wavenumber 5% off the stepped one sets analytic angles
        # that the measured rotation misses by more than the 2% bound: the
        # table is still written, and the run exits 1
        monkeypatch.setattr(cli, "larmor_wavenumber",
                            lambda p: 1.05 * larmor_wavenumber(p))
        outdir = tmp_path / "rot"
        assert main(["rotate", "-E", "60keV", "-B", "1T",
                     "--grid-n", "128", "--grid-side", "600nm",
                     "--phi-max", "0.2rad",
                     "--outputs", "6", "-o", str(outdir)]) == 1
        assert (outdir / "rotation.csv").exists()
        captured = capsys.readouterr()
        assert "max relative deviation 4.851e-02" in captured.out
        assert "rotate: self-check FAILED (> 2%)" in captured.err

    def test_field_reversal_negates_measurement(self, tmp_path):
        results = {}
        for tag, field in (("p", "1T"), ("m", "-1T")):
            outdir = tmp_path / tag
            assert main(["rotate", "-E", "60keV", f"--field={field}",
                         "--grid-n", "128", "--grid-side", "600nm",
                         "--phi-max", "0.1rad",
                         "--outputs", "4", "-o", str(outdir)]) == 0
            results[tag] = read_csv(outdir / "rotation.csv")
        assert np.allclose(results["p"][:, 1], -results["m"][:, 1], atol=1e-8)

    def test_zero_field_measures_nothing(self, tmp_path, capsys):
        outdir = tmp_path / "b0"
        assert main(["rotate", "-E", "60keV", "-B", "0T",
                     "--w0", "50nm", "--grid-side", "600nm", "--grid-n", "128",
                     "--z-max", "20um",
                     "--outputs", "4", "-o", str(outdir)]) == 0
        rows = read_csv(outdir / "rotation.csv")
        assert np.max(np.abs(rows[:, 1])) < 1e-6
        assert np.all(rows[:, 2] == 0)
        # every analytic angle is 0, so no relative deviation is claimed;
        # the line reports the largest absolute one instead
        out = capsys.readouterr().out
        assert "relative deviation" not in out
        assert "no plane has a non-zero analytic angle" in out
        worst = float(re.search(r"max absolute deviation (\S+) rad",
                                out).group(1))
        assert worst == pytest.approx(np.max(np.abs(rows[:, 1])), rel=1e-3,
                                      abs=0)

    def test_zero_field_requires_explicit_geometry(self, capsys):
        assert main(["rotate", "-B", "0T"]) == 2

    def test_snapshots_and_frames(self, tmp_path):
        outdir = tmp_path / "snap"
        assert main(["rotate", "-E", "60keV", "-B", "1T",
                     "--grid-n", "128", "--grid-side", "600nm",
                     "--phi-max", "0.05rad",
                     "--outputs", "2", "--snapshot-every", "1",
                     "--pgm-every", "2", "-o", str(outdir)]) == 0
        field, header = load_field(str(outdir / "field_0000.field"))
        assert header["energy_eV"] == pytest.approx(60e3)
        assert header["field_T"] == 1.0
        assert field.grid.samples_per_side == 128
        assert (outdir / "frame_0000.pgm").exists()
        assert (outdir / "frame_0002.pgm").exists()
        assert (outdir / "frame_0002.pgm.json").exists()


    @staticmethod
    def record_fields(monkeypatch):
        """Wrap the CLI's superposition_evolution; the returned list gets
        each yielded field and a copy of its factors as the CLI sees it."""
        seen = []

        def recording(*a, **kw):
            for z, field in propagation.superposition_evolution(*a, **kw):
                seen.append((field, [f.copy() for f in field.factors]))
                yield z, field
        monkeypatch.setattr(cli, "superposition_evolution", recording)
        return seen

    def test_default_run_builds_no_plane(self, tmp_path, capsys,
                                         monkeypatch, plane_builds):
        # the README rotate shape at 128^2: the fields stay (Y, X) from
        # sampling to orientation, and no allocation reaches one N x N
        # complex plane
        n = 128
        argv = ["rotate", "--grid-n", str(n), "--outputs", "8",
                "-o", str(tmp_path / "rot")]
        seen = self.record_fields(monkeypatch)
        with plane_builds() as built:
            assert main(argv) == 0
        assert len(seen) == 9
        assert not built
        monkeypatch.undo()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n

    def test_every_plane_written_holds_no_plane(self, tmp_path, capsys):
        # each written field keeps its factors until its files are written;
        # a field that kept the plane it built would hold all nine planes
        # at once
        n = 128
        argv = ["rotate", "--grid-n", str(n), "--outputs", "8",
                "--snapshot-every", "1", "--pgm-every", "1",
                "-o", str(tmp_path / "rot")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "rot").glob("field_*.field"))) == 9
        assert peak < 4 * 16 * n * n

    def test_written_planes_are_the_factor_product(self, tmp_path,
                                                   monkeypatch):
        seen = self.record_fields(monkeypatch)
        outdir = tmp_path / "snap"
        assert main(["rotate", "-E", "60keV", "-B", "1T", "-l", "2",
                     "--grid-n", "128", "--grid-side", "600nm",
                     "--phi-max", "0.05rad",
                     "--outputs", "4", "--snapshot-every", "2",
                     "--pgm-every", "3", "-o", str(outdir)]) == 0
        assert len(seen) == 5
        for i, (seen_field, (y, x)) in enumerate(seen):
            plane = y.T @ x
            if i % 2 == 0:
                field, _ = load_field(str(outdir / f"field_{i:04d}.field"))
                assert np.array_equal(field.amplitudes, plane)
            if i % 3 == 0:
                expected = tmp_path / f"expected_{i}.pgm"
                write_intensity_pgm(str(expected), ComplexField(
                    seen_field.grid, seen_field.z_position, plane))
                frame = outdir / f"frame_{i:04d}.pgm"
                assert frame.read_bytes() == expected.read_bytes()


class TestBreathe:
    def test_eigenwaist_stays_constant(self, tmp_path, capsys):
        outdir = tmp_path / "br"
        p = BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)
        w_b = magnetic_width(p)
        assert main(["breathe", "-E", "60keV", "-B", "1T",
                     "--w0", f"{w_b * 1e9:.6f}nm", "--grid-n", "128",
                     "--grid-side", "400nm",
                     "--periods", "0.5", "--outputs", "8",
                     "-o", str(outdir)]) == 0
        rows = read_csv(outdir / "breathing.csv")
        assert np.allclose(rows[:, 1], w_b, rtol=0.01)
        assert np.allclose(rows[:, 2], w_b, rtol=0.01)

    @pytest.mark.filterwarnings(
        "error::evfaraday.errors.GridAdequacyWarning")
    def test_mismatched_waist_follows_exact_law(self, tmp_path, capsys):
        outdir = tmp_path / "br"
        assert main(["breathe", "--w0-rel", "0.5", "--grid-n", "160",
                     "--periods", "1", "--outputs", "16",
                     "-o", str(outdir)]) == 0
        rows = read_csv(outdir / "breathing.csv")
        p = BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)
        w0 = 0.5 * magnetic_width(p)
        period = math.pi / abs(larmor_wavenumber(p))
        assert rows.shape[0] == 17
        assert np.allclose(rows[:, 0], np.arange(17) * period / 16,
                           rtol=1e-12, atol=0)
        exact = np.array([width_function_exact(w0, p, z) for z in rows[:, 0]])
        assert np.max(np.abs(rows[:, 1] - exact) / exact) < 1e-5
        # the third column is that exact law, and the run reports its
        # largest deviation from it
        assert np.allclose(rows[:, 2], exact, rtol=1e-9, atol=0)
        header = (outdir / "breathing.csv").read_text().splitlines()
        assert "width_function_exact" in header[0]
        assert header[1] == "z_m,width_measured_m,width_exact_m"
        deviation = float(re.search(r"max relative deviation (\S+)",
                                    capsys.readouterr().out).group(1))
        assert deviation == pytest.approx(
            np.max(np.abs(rows[:, 1] - exact) / exact), rel=1e-3)

    def test_self_check_fails_against_a_wrong_law(self, tmp_path, capsys,
                                                  monkeypatch):
        # a reference 2% off the measured width exceeds the 1% bound: the
        # table is still written, and the run exits 1
        import evfaraday.cli as cli
        monkeypatch.setattr(
            cli, "width_function_exact",
            lambda w0, p, z: 1.02 * width_function_exact(w0, p, z))
        outdir = tmp_path / "br"
        assert main(["breathe", "--w0-rel", "0.5", "--grid-n", "160",
                     "--periods", "0.5", "--outputs", "8",
                     "-o", str(outdir)]) == 1
        assert (outdir / "breathing.csv").exists()
        captured = capsys.readouterr()
        assert "max relative deviation 1.96" in captured.out
        assert "breathe: self-check FAILED (> 1%)" in captured.err

    def test_nan_reference_is_not_a_pass(self, tmp_path, capsys,
                                         monkeypatch):
        # max() drops a nan that is not first and nan > bound is false: a
        # reference that is nan past z = 0 must still not pass the check
        monkeypatch.setattr(
            cli, "width_function_exact",
            lambda w0, p, z: math.nan if z > 0 else
            width_function_exact(w0, p, z))
        outdir = tmp_path / "br"
        assert main(["breathe", "--w0-rel", "0.5", "--grid-n", "160",
                     "--periods", "0.5", "--outputs", "8",
                     "-o", str(outdir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: refusing to write a "
                                       "non-finite CSV row")
        assert captured.out == ""
        assert not (outdir / "breathing.csv").exists()

    def test_zero_field_rejected(self):
        assert main(["breathe", "-B", "0T"]) == 2


class TestSelfCheck:
    @pytest.mark.parametrize("pairs", [
        [(1.0, 1.0), (math.nan, 1.0), (1.001, 1.0)],
        [(1.0, 1.0), (1.0, math.nan)],
        [(1.0, 1.0), (math.inf, 1.0)],
    ])
    def test_non_finite_deviation_fails(self, capsys, pairs):
        assert cli._self_check("breathe", "breathe: summary, ", pairs,
                               0.01) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("breathe: summary, max relative "
                                       "deviation ")
        assert captured.err == "breathe: self-check FAILED (> 1%)\n"

    def test_bound_is_inclusive(self, capsys):
        # deviations 0 and 0.5: the largest is printed, and equal to the
        # bound it passes
        assert cli._self_check("rotate", "rotate: s, ",
                               [(1.0, 1.0), (-3.0, -2.0)], 0.5) == 0
        captured = capsys.readouterr()
        assert captured.out == "rotate: s, max relative deviation 5.000e-01\n"
        assert captured.err == ""
        assert cli._self_check("rotate", "rotate: s, ",
                               [(-3.0, -2.0)], 0.49) == 1


class TestGrating:
    def test_plane_outputs_and_purity(self, tmp_path, capsys):
        outdir = tmp_path / "gr"
        assert main(["grating", "-l", "1", "--phi0", "0.3rad", "--plane",
                     "--kx", "2.01e8m-1", "--grid-n", "256", "--pad", "8",
                     "--diffract", "-o", str(outdir)]) == 0
        blob = (outdir / "mask.pgm").read_bytes()
        assert blob.startswith(b"P5\n256 256\n255\n")
        assert set(blob[len(b"P5\n256 256\n255\n"):]) <= {0, 255}
        report = json.loads((outdir / "purity.json").read_text())
        assert report["order_p1"]["harmonic_fraction_2l"] > 0.5
        assert report["order_m1"]["harmonic_fraction_2l"] > 0.5
        assert report["order_0"]["harmonic_fraction_2l"] < 0.1
        ori = report["order_p1"]["orientation_rad"]
        err = abs(ori - 0.3)
        assert min(err, math.pi - err) < math.radians(2)
        field, header = load_field(str(outdir / "order_p1.field"))
        assert header["note"] == "diffraction order +1"

    def test_plane_example_reads_half_plane_only(self, tmp_path, capsys,
                                                 monkeypatch):
        # the README plane example writes its frame and orders from the
        # stored half plane; building the full complex far field is refused
        def refuse(far):
            raise AssertionError("full far field built")

        monkeypatch.setattr(FarField, "amplitudes", property(refuse))
        assert main(["grating", "-l", "1", "--plane", "--kx", "2.5e8m-1",
                     "--diffract", "-o", str(tmp_path)]) == 0
        for name in ("farfield.pgm", "farfield.pgm.json", "order_m1.field",
                     "order_0.field", "order_p1.field", "purity.json"):
            assert (tmp_path / name).exists()

    def test_plane_example_keeps_only_band_bins(self, tmp_path, capsys,
                                                monkeypatch):
        # the README plane op's far field holds the mask, the dark-row bound
        # of bins 0..m/2 and the order band's bins m/2 - 79..m/2 of the
        # column spectrum, never the (n, m/2 + 1) spectrum (8 MiB here)
        built = []
        diffract = cli.diffract_far_field

        def recording(*args):
            built.append(diffract(*args))
            return built[-1]

        monkeypatch.setattr(cli, "diffract_far_field", recording)
        assert main(["grating", "-l", "1", "--plane", "--kx", "2.5e8m-1",
                     "--diffract", "-o", str(tmp_path)]) == 0
        [far] = built
        held = [a.shape for a in (*vars(far).values(), *vars(far.mask).values())
                if isinstance(a, np.ndarray)]
        assert sorted(held) == [(512, 80), (512, 512), (1025,)]

    @pytest.mark.parametrize("pad", [4, 8])
    def test_rows_below_band_equal_full_spectrum(self, tmp_path, capsys,
                                                 monkeypatch, pad):
        # at -l 12 the frame finishes rows below the order band its far
        # field keeps, transformed again from the mask; every file equals
        # that of a far field keeping every bin, byte for byte
        argv = ["grating", "-l", "12", "--plane", "--kx", "2.5e8m-1",
                "--diffract", "--pad", str(pad), "-o"]
        assert main(argv + [str(tmp_path / "band")]) == 0
        diffract = cli.diffract_far_field
        monkeypatch.setattr(cli, "diffract_far_field",
                            lambda mask, pad, spec: diffract(mask, pad))
        assert main(argv + [str(tmp_path / "full")]) == 0
        names = sorted(p.name for p in (tmp_path / "full").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "band").iterdir())
        assert "farfield.pgm" in names and "order_p1.field" in names
        for name in names:
            assert ((tmp_path / "band" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())

    def test_default_carrier_cannot_be_extracted(self, tmp_path, capsys):
        # the ten-fringe default is synthesisable but refuses windowed
        # extraction on leakage grounds
        outdir = tmp_path / "gr10"
        code = main(["grating", "-l", "1", "--plane", "--grid-n", "256",
                     "--pad", "4", "--diffract", "-o", str(outdir)])
        assert code == 2
        assert "carrier" in capsys.readouterr().err

    def test_mask_only_run(self, tmp_path):
        outdir = tmp_path / "mask_only"
        assert main(["grating", "-l", "2", "--grid-n", "128",
                     "-o", str(outdir)]) == 0
        assert (outdir / "mask.pgm").exists()
        assert not (outdir / "purity.json").exists()

    def test_spherical_focus_report(self, tmp_path, capsys):
        outdir = tmp_path / "sph"
        assert main(["grating", "-l", "1", "--spherical",
                     "--curvature", "1.5e14m-2", "--grid-n", "96",
                     "--diffract", "-o", str(outdir)]) == 0
        report = json.loads((outdir / "focus.json").read_text())
        expected = report["expected_abs_focus_m"]
        assert report["real_focus_m"] == pytest.approx(expected, rel=0.15)
        # the diverging order is the converging one's conjugate: its focus
        # is the real one mirrored through the mask plane, exactly
        assert report["virtual_focus_m"] == -report["real_focus_m"]
        assert report["virtual_focus_width_m"] == report["real_focus_width_m"]

    # 1e12: the field leaves the grid before its focus; 2e13: contained at
    # the focus, and only the guard plane at 1.4 k0/2C catches it
    @pytest.mark.parametrize("curvature", ["1e12m-2", "2e13m-2"])
    def test_spherical_focus_guard_bites(self, tmp_path, capsys, curvature):
        assert main(["grating", "--spherical", "--curvature", curvature,
                     "--grid-n", "128", "--diffract",
                     "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "border intensity" in err
        # the focus is checked before any file is written, mask.pgm included
        assert not list(tmp_path.iterdir())

    def test_non_finite_focus_refused(self, tmp_path, capsys):
        # scales that leave floating point make the focus moments nan; the
        # run is refused instead of reporting a nan focus
        assert main(["grating", "--grid-side=1.000e-100m",
                     "--curvature=1.000e-250m-2", "--grid-n", "64",
                     "--spherical", "--diffract", "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.sub(r"^(warning: .*\n)*", "", err).startswith("error:")
        assert not list(tmp_path.iterdir())

    def test_spherical_focus_guard_spans_planes(self, tmp_path, capsys,
                                                monkeypatch):
        # the guard plane's border intensity is 3.3e-8 of its own peak but
        # 1.9e-7 of the lower peak at the mask plane; the planes are checked
        # jointly, so a 1e-7 limit bites
        import evfaraday.propagation as propagation
        monkeypatch.setattr(propagation, "BORDER_INTENSITY_LIMIT", 1e-7)
        assert main(["grating", "--spherical", "--curvature", "5e13m-2",
                     "--grid-n", "128", "--diffract",
                     "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "border intensity" in err
        assert not list(tmp_path.iterdir())

    def test_spherical_needs_curvature(self):
        assert main(["grating", "--spherical", "--grid-n", "64"]) == 2


#: A decimal number, or a nan or inf token as Python and numpy print them.
NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
                    r"|(?i:\b(?:nan|inf(?:inity)?)\b)")

#: Finite inputs that once ended in OverflowError or ZeroDivisionError.
EXTREME_COMMANDS = [
    "rotate --grid-n 64 --grid-side 1e-200m --w0 1e-201m --outputs 1",
    "rotate -B 1e300T --grid-n 16 --outputs 1",
    "rotate -E 1e-300eV --grid-n 16 --outputs 1",
    "breathe -B 1e-300T --grid-n 16 --outputs 1",
]


def extreme_quantity(unit):
    """A unit value of either sign with magnitude from 1e-300 to 1e300."""
    return st.builds(lambda sign, mantissa, exponent:
                     f"{sign}{mantissa:.3f}e{exponent}{unit}",
                     st.sampled_from(["", "-"]), st.floats(1.0, 9.999),
                     st.integers(-300, 299))


@st.composite
def extreme_argv(draw):
    command = draw(st.sampled_from(["rotate", "breathe", "grating"]))
    units = {"--energy": "eV", "--grid-side": "m"}
    if command == "grating":
        units.update({"--kx": "m-1", "--curvature": "m-2", "--phi0": "rad"})
    else:
        units.update({"--field": "T", "--w0": "m"})
    if command == "rotate":
        units.update({"--z-max": "m", "--phi-max": "rad"})
    argv = [command]
    for option, unit in units.items():
        if draw(st.booleans()):
            # --option=value, so a leading minus is not read as an option
            argv.append(f"{option}={draw(extreme_quantity(unit))}")
    argv += ["--grid-n", str(draw(st.integers(0, 64)))]
    if command == "grating":
        # --pad is refused with --spherical, so only plane argv draw it
        if draw(st.booleans()):
            return argv + ["--spherical", "--diffract"]
        return argv + ["--pad", str(draw(st.integers(-1, 8))), "--diffract"]
    return argv + ["--outputs", str(draw(st.integers(-1, 4)))]


class TestErrorBoundary:
    """Invalid inputs print 'error:' and exit 2, never a traceback."""

    SMALL_ROTATE = ["rotate", "-E", "60keV", "-B", "1T", "--grid-n", "128",
                    "--grid-side", "600nm", "--phi-max", "0.05rad",
                    "--outputs", "2"]

    @pytest.mark.parametrize("argv, message", [
        (["rotate", "-E", "0keV"], "kinetic_energy must be positive"),
        (["rotate", "-E", "1e400keV"], "kinetic_energy must be positive"),
        (["rotate", "-B", "1e400T"], "field_bz must be finite"),
        (["rotate", "--w0=-5nm"], "waists must be positive"),
        (["rotate", "--outputs", "0"], "at least one output plane"),
        (["breathe", "--periods", "0"], "at least one output plane"),
        (["quantities", "-E", "0keV", "-B", "1T"],
         "kinetic_energy must be positive"),
        (["grating", "-l", "0"], "vorticity l must be >= 1"),
        (["grating", "--kx=-1m-1"], "needs k_x > 0"),
        (["grating", "--spherical", "--curvature", "0m-2"], "needs C != 0"),
        (["grating", "--pad", "0", "--diffract"], "pad_factor must be >= 1"),
        (["grating", "-E", "0keV", "--diffract"],
         "kinetic_energy must be positive"),
        (["grating", "--curvature", "1.5e14m-2", "--diffract"],
         "--curvature needs --spherical"),
        (["grating", "--spherical", "--curvature", "1.5e14m-2",
          "--kx", "2.5e8m-1", "--diffract"],
         "--kx has no effect with --spherical"),
        # non-finite inputs: 1e400 parses to inf
        (["rotate", "--z-max", "1e400m"], "at least one output plane"),
        (["rotate", "--phi-max", "1e400rad"], "at least one output plane"),
        (["rotate", "--grid-side", "1e400m", "--grid-n", "64"],
         "physical_side_length must be positive and finite"),
        (["breathe", "--periods", "inf"], "at least one output plane"),
        (["breathe", "--w0-rel", "inf", "--grid-n", "64"],
         "physical_side_length must be positive and finite"),
        (["breathe", "--w0", "1e400m", "--grid-n", "64"],
         "physical_side_length must be positive and finite"),
        (["breathe", "--grid-side", "1e400m", "--grid-n", "64"],
         "physical_side_length must be positive and finite"),
        # waists far below the pitch sample to an all-zero field
        (["breathe", "--w0-rel", "1e-3", "--grid-n", "64", "--outputs", "2",
          "--periods", "0.1"], "sampled to an identically zero field"),
        (["rotate", "--w0", "1e-12m", "--grid-n", "64"],
         "sampled to an identically zero field"),
        # an infinite thickness would reach the JSON report as Infinity
        (["quantities", "-E", "60keV", "-B", "1T", "--thickness", "1e400m",
          "--json", "q.json"], "thickness must be finite"),
        # finite inputs whose step limits or phases leave floating point
        (shlex.split(EXTREME_COMMANDS[0]), "aliasing_limit is 0.000e+00 m"),
        (shlex.split(EXTREME_COMMANDS[1]),
         "the step's phase factors are not finite"),
        (shlex.split(EXTREME_COMMANDS[2]), "aliasing_limit is 0.000e+00 m"),
        (shlex.split(EXTREME_COMMANDS[3]), "k_L does not round to 0"),
        (["rotate", "-B", "1e-300T", "--grid-n", "16", "--outputs", "1"],
         "a field whose k_L rounds to 0"),
        # the padding refines only a plane reference's far field
        (["grating", "-l", "1", "--pad", "-7"],
         "--pad has no effect without --diffract"),
        (["grating", "--pad", "4"], "--pad has no effect without --diffract"),
        (["grating", "-l", "1", "--spherical", "--curvature", "1.5e14m-2",
          "--grid-n", "128", "--pad", "-7", "--diffract"],
         "--pad has no effect with --spherical"),
        (["grating", "--spherical", "--curvature", "1.5e14m-2", "--pad",
          "4", "--diffract"], "--pad has no effect with --spherical"),
        # petals of period 2 pi / l under 4 pixels along the aperture rim:
        # l > pi 512 / 4 = 402.1 on the default grid
        (["grating", "-l", "100000"], "petal period"),
        (["grating", "-l", "403"], "petal period"),
        (["grating", "--phi0", "1e400rad"], "phi0 must be finite"),
        # the order windows depend on k_x, the grid and the padding alone,
        # so a carrier too weak to separate them leaves no mask behind
        (["grating", "-l", "1", "--plane", "--kx", "2e7m-1", "--diffract"],
         "carrier spans only 12.7 far-field pixels"),
        (["verdet-curve", "--e-min", "1keV", "--e-max", "300keV", "-n", "1"],
         "need at least 2 points"),
        (["breathe", "--w0=-5nm"], "waist must be positive"),
        # an energy that is not finite, or whose eV value overflows, is
        # refused before the curve is sampled
        (["verdet-curve", "--e-min", "1keV", "--e-max", "1e400keV"],
         "E_max must be finite in eV, got 1e400keV"),
        (["verdet-curve", "--e-min", "1keV", "--e-max", "1e308keV"],
         "E_max must be finite in eV, got 1e308keV"),
    ])
    def test_invalid_values(self, tmp_path, capsys, monkeypatch, argv,
                            message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err
        # library warnings, one line each, may precede the error
        assert re.sub(r"^(warning: .*\n)*", "", err).startswith("error:")
        assert message in err
        if argv[0] == "verdet-curve":
            # no energy reaches arithmetic that overflows
            assert "warning:" not in err
        # rejected before any output, the grating mask.pgm and the
        # quantities table included
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("written, refused, message", [
        # the 1% leakage bound, read from the far field itself
        (["grating", "-l", "1", "--plane", "--kx", "2.5e8m-1", "--diffract"],
         ["grating", "-l", "3", "--plane", "--kx", "2.01e8m-1",
          "--diffract"], "estimated neighbour leakage"),
        # the spherical focus guard
        (["grating", "--spherical", "--curvature", "1.5e14m-2",
          "--grid-n", "128", "--diffract"],
         ["grating", "--spherical", "--curvature", "1e12m-2",
          "--grid-n", "128", "--diffract"], "border intensity"),
        # the containment guard of a later plane than the first snapshot's
        (["rotate", "--grid-n", "64", "--outputs", "8",
          "--snapshot-every", "1"],
         ["rotate", "--grid-n", "64", "--w0", "8nm", "--grid-side", "200nm",
          "--outputs", "8", "--snapshot-every", "1"], "border intensity"),
    ], ids=["plane-leakage", "spherical-focus", "rotate-containment"])
    def test_refused_run_changes_no_file(self, tmp_path, capsys, written,
                                         refused, message):
        # every output is computed and checked before any is written, so a
        # run refused over an earlier run's outputs leaves them as found,
        # with no temp file beside them
        assert main(written + ["-o", str(tmp_path)]) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(refused + ["-o", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert {path.name: path.read_bytes()
                for path in tmp_path.iterdir()} == before

    @settings(max_examples=100, deadline=None)
    @given(argv=extreme_argv())
    @example(argv=shlex.split(EXTREME_COMMANDS[0]))
    @example(argv=shlex.split(EXTREME_COMMANDS[1]))
    @example(argv=shlex.split(EXTREME_COMMANDS[2]))
    @example(argv=shlex.split(EXTREME_COMMANDS[3]))
    # a zone-spacing product that underflows to 0 once divided by zero
    @example(argv=["grating", "--grid-side=1.000e-162m",
                   "--curvature=1.000e-162m-2", "--grid-n", "16",
                   "--spherical", "--diffract"])
    # a focus whose moments leave floating point once printed nan and
    # exited 0
    @example(argv=["grating", "--grid-side=1.000e-100m",
                   "--curvature=1.000e-250m-2", "--grid-n", "64",
                   "--spherical", "--diffract"])
    def test_extreme_values_exit_cleanly(self, argv):
        # --grid-n stays at most 64, --pad at most 8, and the step ceiling
        # is lowered, so no example allocates a large plane or runs a long
        # propagation
        stdout = io.StringIO()
        with tempfile.TemporaryDirectory() as outdir, \
                mock.patch.object(cli, "MAX_TOTAL_STEPS", 1000), \
                contextlib.redirect_stdout(stdout):
            code = main(argv + ["-o", outdir])
            assert code in (0, 1, 2)
            if code == 0:
                # a run that succeeds prints and writes only finite numbers
                texts = [stdout.getvalue()] + [
                    path.read_text() for path in pathlib.Path(outdir).iterdir()
                    if path.suffix in (".csv", ".json")]
                for text in texts:
                    for token in re.findall(NUMBER, text):
                        assert math.isfinite(float(token)), text

    def test_derived_step_count_is_bounded(self, tmp_path, capsys,
                                           monkeypatch):
        # a 64-sample grid of side 1 pm needs 2.6e11 exact steps for its
        # one plane; the run is refused before any mode is sampled or
        # stepped
        def refuse(*a, **kw):
            raise AssertionError("stepped a refused run")
        monkeypatch.setattr(propagation, "_sweep", refuse)
        monkeypatch.chdir(tmp_path)
        assert main(["rotate", "--grid-n", "64", "--grid-side", "1e-12m",
                     "--w0", "1e-13m", "--outputs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "needs 2.647e+11 steps" in err
        assert f"{cli.MAX_TOTAL_STEPS:.0e} allowed" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["rotate", "breathe"])
    def test_step_length_is_not_an_option(self, tmp_path, capsys,
                                          monkeypatch, command):
        # the exact scheme has no step-size error, so the step is derived
        # from the plane spacing alone; --dz is refused at parse time
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--dz", "1e-300m"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dz" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_conflicting_reference_flags(self, tmp_path, capsys,
                                         monkeypatch):
        # a parse-time usage error: argparse exits 2 before any output
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["grating", "--plane", "--spherical",
                  "--curvature", "1.5e14m-2", "--diffract"])
        assert exc.value.code == 2
        assert ("argument --spherical: not allowed with argument --plane"
                in capsys.readouterr().err)
        assert not (tmp_path / "evf_output").exists()

    def test_library_warning_is_one_line(self, tmp_path, capsys,
                                         monkeypatch):
        # the waist spans a thousandth of a pixel: the grid-adequacy warning
        # reaches stderr as one line, without the library's source location
        monkeypatch.chdir(tmp_path)
        assert main(["breathe", "--w0-rel", "1e-3", "--grid-n", "64",
                     "--outputs", "2", "--periods", "0.1"]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert lines[0].startswith("warning: beam width")
        assert lines[-1].startswith("error:")
        assert ".py:" not in err

    @pytest.mark.parametrize("option", ["--pgm-every", "--snapshot-every"])
    def test_negative_frame_interval(self, tmp_path, capsys, option):
        # i % -K == 0 would write a file at every plane
        outdir = tmp_path / "out"
        assert main(["rotate", "--grid-n", "64", "--outputs", "2",
                     option, "-1", "-o", str(outdir)]) == 2
        assert (capsys.readouterr().err
                == f"error: {option} must be >= 0 (0 writes none), got -1\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("argv, target, message", [
        (["verdet-curve", "--e-min", "1keV", "--e-max", "2keV", "-n", "3",
          "-o"], "missing/x.csv", "No such file or directory"),
        (["rotate", "--grid-n", "64", "--outputs", "2", "-o"],
         "/dev/null/x", "Not a directory"),
    ])
    def test_unwritable_output_path(self, tmp_path, capsys, monkeypatch,
                                     argv, target, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv + [target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err and target in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob(".evf-tmp-*"))

    def test_rename_error_names_the_file_asked_for(self, tmp_path, capsys,
                                                   monkeypatch):
        # the final rename fails on a directory in the table's place; the
        # message names the table, not the temp file, which is removed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out" / "rotation.csv").mkdir(parents=True)
        assert main(["rotate", "--grid-n", "64", "--outputs", "2",
                     "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Is a directory" in err
        assert "'out/rotation.csv'" in err and ".evf-tmp-" not in err
        assert not list(tmp_path.rglob(".evf-tmp-*"))

    @pytest.mark.parametrize("command", ["rotate", "breathe"])
    @pytest.mark.parametrize("l", ["150", "2000", "1000000000"])
    def test_mode_beyond_grid_refused_at_once(self, tmp_path, capsys,
                                              monkeypatch, command, l):
        # a mode whose brightest ring lies beyond the grid's corners is
        # refused before its Hermite-Gauss weights, which cost O(l^2), are
        # built; breathe's wider grid holds the l = 150 ring, which the
        # containment guard then refuses
        built = []
        weights = modes._hermite_gauss_weights

        def recording(n, al):
            built.append(n + al)
            return weights(n, al)
        monkeypatch.setattr(modes, "_hermite_gauss_weights", recording)
        assert main([command, "-l", l, "--grid-n", "64",
                     "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error:")
        assert built == ([150] if (command, l) == ("breathe", "150") else [])
        if built:
            assert "border intensity" in err
        else:
            assert f"l={l})" in err and "64 x 64 grid" in err
        assert not (tmp_path / "out").exists()

    def test_l_sweep_keeps_exit_codes(self, tmp_path, capsys):
        # at --grid-n 64 rotate runs l = 1..6 and breathe l = 1; every
        # larger l up to 200 exits 2 with error: (containment, or a mode
        # beyond the grid), never with a traceback
        for command, last_run in (("rotate", 6), ("breathe", 1)):
            for l in range(1, 201):
                code = main([command, "-l", str(l), "--grid-n", "64",
                             "-o", str(tmp_path / f"{command}{l}")])
                assert code == (0 if l <= last_run else 2), (command, l)
        lines = capsys.readouterr().err.splitlines()
        assert not [line for line in lines
                    if not line.startswith(("warning:", "error:"))]

    def test_rotate_l_zero(self, tmp_path, capsys):
        assert main(self.SMALL_ROTATE + ["-l", "0",
                                         "-o", str(tmp_path)]) == 2
        assert "error: opposite_pair needs l != 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["rotate"], ["breathe"], ["grating", "--plane"]])
    @pytest.mark.parametrize("grid_n", ["129", "8"])
    def test_bad_grid_n(self, tmp_path, capsys, command, grid_n):
        assert main(command + ["--grid-n", grid_n, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "even integer >= 16" in err


class TestPlaneSizeCeiling:
    """Every plane a command would build is at most MAX_PLANE_SIDE samples
    a side, checked on the value alone before anything is allocated."""

    class Reached(Exception):
        """The run got past its checks to its first large allocation."""

    @pytest.fixture
    def stop_before_allocation(self, monkeypatch):
        # make_plan and synthesize_hologram allocate first in their commands
        def stop(*a, **kw):
            raise self.Reached
        monkeypatch.setattr(cli, "make_plan", stop)
        monkeypatch.setattr(cli, "synthesize_hologram", stop)

    @pytest.mark.parametrize("argv, message", [
        (["rotate", "--grid-n", str(10 ** 12)],
         "the grid would be 1000000000000 samples a side"),
        (["breathe", "--grid-n", str(cli.MAX_PLANE_SIDE + 2)],
         f"the grid would be {cli.MAX_PLANE_SIDE + 2} samples a side"),
        (["grating", "--grid-n", str(cli.MAX_PLANE_SIDE + 2)],
         f"the grid would be {cli.MAX_PLANE_SIDE + 2} samples a side"),
        (["grating", "--kx", "2.5e8m-1", "--pad", "9", "--diffract"],
         "the far field would be 4608 samples a side"),
        (["grating", "--kx", "2.5e8m-1", "--pad", str(10 ** 15),
          "--diffract"], f"the far field would be {512 * 10 ** 15} samples"),
        (["grating", "--spherical", "--curvature", "1.5e14m-2",
          "--grid-n", str(cli.MAX_PLANE_SIDE // 2 + 2), "--diffract"],
         f"the chirped-order embed would be {cli.MAX_PLANE_SIDE + 4} "
         "samples a side"),
    ])
    def test_refused_before_allocation(self, tmp_path, capsys, monkeypatch,
                                       stop_before_allocation, argv,
                                       message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert f"more than the {cli.MAX_PLANE_SIDE} allowed" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["grating", "--grid-n", str(cli.MAX_PLANE_SIDE)],
        # the README far field is 2048^2; its double is admitted
        ["grating", "--kx", "2.5e8m-1", "--grid-n",
         str(cli.MAX_PLANE_SIDE // 4), "--pad", "4", "--diffract"],
        ["grating", "--spherical", "--curvature", "1.5e14m-2",
         "--grid-n", str(cli.MAX_PLANE_SIDE // 2), "--diffract"],
    ])
    def test_bound_itself_admitted(self, tmp_path, stop_before_allocation,
                                   argv):
        assert cli.MAX_PLANE_SIDE >= 2 * 512 * cli.DEFAULT_PAD_FACTOR
        with pytest.raises(self.Reached):
            main(argv + ["-o", str(tmp_path)])


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evfaraday", "quantities",
             "-E", "60keV", "-B", "1T"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "6.053270e+02" in proc.stdout

    def test_cli_import_leaves_out_scipy(self):
        # the CLI's start-up cost is its import chain: besides the standard
        # library it pulls in numpy and the package itself, nothing else
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import evfaraday.cli; "
             "print(sorted({m.partition('.')[0] for m in sys.modules} "
             "- {m.partition('.')[0] for m in before} "
             "- set(sys.stdlib_module_names)))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['evfaraday', 'numpy']"

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def readme_commands():
    """Every 'evf ...' line of README.md's code blocks, as argv lists with
    the bracketed optional parts included."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    commands, in_block = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("evf "):
            commands.append(shlex.split(re.sub(r"[\[\]]", "", line))[1:])
    return commands


def test_readme_commands_parse():
    # a deleted option cannot stay in the documentation
    commands = readme_commands()
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: "
                        f"evf {shlex.join(argv)}")
