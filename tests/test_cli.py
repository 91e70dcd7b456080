"""Command-line surface: parsing, outputs, self-checks and exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from evfaraday import (ELEMENTARY_CHARGE, BeamParameters, GridSpec,
                       exact_step_limit, larmor_wavenumber, magnetic_width,
                       verdet_parameter, width_function_exact)
from evfaraday.cli import main
from evfaraday.fileio import load_field


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


class TestRotate:
    def test_tracks_analytic_and_self_checks(self, tmp_path, capsys):
        outdir = tmp_path / "rot"
        code = main(["rotate", "-E", "60keV", "-B", "1T",
                     "--grid-n", "128", "--grid-side", "600nm",
                     "--dz", "500nm", "--phi-max", "0.2rad",
                     "--outputs", "6", "-o", str(outdir)])
        assert code == 0
        rows = read_csv(outdir / "rotation.csv")
        assert rows.shape[0] == 7
        mask = rows[:, 2] != 0
        rel = np.abs(rows[mask, 1] - rows[mask, 2]) / np.abs(rows[mask, 2])
        assert rel.max() < 0.02
        assert rows[-1, 2] == pytest.approx(0.2, rel=0.05)

    def test_field_reversal_negates_measurement(self, tmp_path):
        results = {}
        for tag, field in (("p", "1T"), ("m", "-1T")):
            outdir = tmp_path / tag
            assert main(["rotate", "-E", "60keV", f"--field={field}",
                         "--grid-n", "128", "--grid-side", "600nm",
                         "--dz", "500nm", "--phi-max", "0.1rad",
                         "--outputs", "4", "-o", str(outdir)]) == 0
            results[tag] = read_csv(outdir / "rotation.csv")
        assert np.allclose(results["p"][:, 1], -results["m"][:, 1], atol=1e-8)

    def test_zero_field_measures_nothing(self, tmp_path):
        outdir = tmp_path / "b0"
        assert main(["rotate", "-E", "60keV", "-B", "0T",
                     "--w0", "50nm", "--grid-side", "600nm", "--grid-n", "128",
                     "--dz", "500nm", "--z-max", "20um",
                     "--outputs", "4", "-o", str(outdir)]) == 0
        rows = read_csv(outdir / "rotation.csv")
        assert np.max(np.abs(rows[:, 1])) < 1e-6
        assert np.all(rows[:, 2] == 0)

    def test_zero_field_requires_explicit_geometry(self, capsys):
        assert main(["rotate", "-B", "0T"]) == 2

    def test_snapshots_and_frames(self, tmp_path):
        outdir = tmp_path / "snap"
        assert main(["rotate", "-E", "60keV", "-B", "1T",
                     "--grid-n", "128", "--grid-side", "600nm",
                     "--dz", "500nm", "--phi-max", "0.05rad",
                     "--outputs", "2", "--snapshot-every", "1",
                     "--pgm-every", "2", "-o", str(outdir)]) == 0
        field, header = load_field(str(outdir / "field_0000.field"))
        assert header["energy_eV"] == pytest.approx(60e3)
        assert header["field_T"] == 1.0
        assert field.grid.samples_per_side == 128
        assert (outdir / "frame_0000.pgm").exists()
        assert (outdir / "frame_0002.pgm").exists()
        assert (outdir / "frame_0002.pgm.json").exists()


class TestBreathe:
    def test_eigenwaist_stays_constant(self, tmp_path, capsys):
        outdir = tmp_path / "br"
        p = BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)
        w_b = magnetic_width(p)
        assert main(["breathe", "-E", "60keV", "-B", "1T",
                     "--w0", f"{w_b * 1e9:.6f}nm", "--grid-n", "128",
                     "--grid-side", "400nm", "--dz", "2200nm",
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

    def test_zero_field_rejected(self):
        assert main(["breathe", "-B", "0T"]) == 2


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
        assert report["virtual_focus_m"] == pytest.approx(-expected, rel=0.15)

    def test_spherical_needs_curvature(self):
        assert main(["grating", "--spherical", "--grid-n", "64"]) == 2


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
    ])
    def test_invalid_values(self, tmp_path, capsys, monkeypatch, argv,
                            message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err

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

    def test_non_integer_evf_threads(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVF_THREADS", "abc")
        assert main(self.SMALL_ROTATE + ["-o", str(tmp_path)]) == 2
        assert "error: EVF_THREADS" in capsys.readouterr().err

    def test_dz_above_exact_step_limit(self, tmp_path, capsys):
        p = BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)
        limit = exact_step_limit(GridSpec(128, 600e-9), p)
        dz = f"{1.5 * limit * 1e3:.6f}mm"
        assert main(self.SMALL_ROTATE + ["--dz", dz,
                                         "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"exact_step_limit on this grid is {limit:.6e} m" in err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evfaraday", "quantities",
             "-E", "60keV", "-B", "1T"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "6.053270e+02" in proc.stdout

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
