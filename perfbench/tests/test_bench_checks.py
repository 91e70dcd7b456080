"""The four error parsers and the op sequences."""

import json
import math

import pytest

from workloads import (WORKLOADS, build_ops, focus_rel_err, orient_err_rad,
                       orientation_error, rotation_rel_err, width_rel_err)

CSV_HEADER = "# comment\nz_m,angle_rad_measured,angle_rad_analytic\n"


def csv(rows):
    return CSV_HEADER + "".join(",".join(f"{v:.12e}" for v in row) + "\n"
                                for row in rows)


class TestRotation:
    def test_worst_plane_against_k_l_z(self):
        k_l = -600.0
        text = csv([(0.0, 0.0, 0.0), (1e-5, -0.00606, -0.006),
                    (2e-5, -0.0119, -0.012)])
        err, rows = rotation_rel_err(text, k_l)
        assert rows == 3
        assert err == pytest.approx(0.01)

    def test_planes_below_the_self_check_floor_are_skipped(self):
        # the second plane has |k_L z| under 1e-3 of the largest and a huge
        # relative error; the CLI self-check ignores it, so does the parser
        text = csv([(0.0, 0.0, 0.0), (1e-9, 1.0, 0.0), (1e-5, 0.006, 0.006)])
        err, _ = rotation_rel_err(text, 600.0)
        assert err == pytest.approx(0.0, abs=1e-12)


class TestWidth:
    def test_against_reference_function(self):
        text = csv([(0.0, 1.0, 1.0), (1.0, 2.02, 2.0), (2.0, 2.9, 3.0)])
        err, rows = width_rel_err(text, lambda z: 1.0 + z)
        assert rows == 3
        assert err == pytest.approx(0.1 / 3.0)


class TestOrientation:
    def test_error_is_taken_mod_the_petal_period(self):
        assert orientation_error(math.pi - 0.01, 0.02, 1) == pytest.approx(0.03)
        assert orientation_error(0.8, 0.8 + math.pi / 4, 4) == pytest.approx(0.0)

    def test_worst_of_orders_plus_minus_one(self):
        report = {"order_m1": {"orientation_rad": 0.31,
                               "harmonic_fraction_2l": 0.9},
                  "order_0": {"orientation_rad": None,
                              "harmonic_fraction_2l": 0.01},
                  "order_p1": {"orientation_rad": 0.25,
                               "harmonic_fraction_2l": 0.8}}
        rec = orient_err_rad(json.dumps(report), 1, 0.3)
        assert rec["orient_err_rad"] == pytest.approx(0.05)
        assert rec["fraction_0"] == 0.01

    def test_undefined_orientation_is_an_infinite_error(self):
        report = {key: {"orientation_rad": None, "harmonic_fraction_2l": 0.0}
                  for key in ("order_m1", "order_0", "order_p1")}
        assert orient_err_rad(json.dumps(report), 2, 0.1)["orient_err_rad"] \
            == math.inf


class TestFocus:
    def test_worst_of_real_and_virtual(self):
        report = {"real_focus_m": 4.1e-3, "virtual_focus_m": -4.3e-3}
        assert focus_rel_err(json.dumps(report), 4.2e-3) == pytest.approx(
            0.1 / 4.2)


class TestOps:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_seed_fixes_the_inputs(self, workload):
        a = [op.argv for op in build_ops(workload, 7, "out")]
        assert a == [op.argv for op in build_ops(workload, 7, "out")]

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_seed_leaves_the_work_size_fixed(self, workload):
        def shape(seed):
            # everything but the sign of B, phi0 and the output directory
            return sorted(
                tuple(tok for tok in op.argv[:-2]
                      if not tok.startswith("--field=")
                      and not tok.endswith("rad"))
                for op in build_ops(workload, seed, "out"))
        assert shape(1) == shape(2) == shape(3)

    def test_hologram_sweeps_every_l_over_the_petal_period(self):
        ops = build_ops("hologram", 3, "out")
        plane = [op for op in ops if op.kind == "plane"]
        assert sorted({op.params["l"] for op in plane}) == [1, 2, 3, 4]
        for op in plane:
            assert 0 <= op.params["phi0"] < math.pi / op.params["l"]
        assert ops[-1].kind == "spherical"
