"""Split-step solver against closed-form oracles: stationary eigenstates,
free-space Gaussian diffraction, the exact breathing law, rotation tracking,
unitarity and convergence order, for the Strang and the exact scheme."""

import math

import numpy as np
import pytest

from evfaraday import (BeamParameters, ComplexField, ELEMENTARY_CHARGE,
                       GridSpec, ModeIndex, ModeSuperposition, aliasing_limit,
                       angular_intensity, base_wavenumber, default_step_size,
                       effective_width, exact_step_limit,
                       exact_steps_per_plane, fidelity, grid_norm,
                       larmor_wavenumber, magnetic_width, make_plan,
                       mode_field, pattern_orientation, petal_radius,
                       propagate_definite_l, superposition_evolution,
                       unwrap_orientations, width_function,
                       width_function_exact)
from evfaraday.errors import (ContainmentError, GridMismatchError,
                              StepTooLargeError)

E60 = 60e3 * ELEMENTARY_CHARGE


def measure_rotation(s, grid, plan, n_outputs, radius, l):
    zs, raw = [], []
    for z, field in superposition_evolution(s, grid, plan, n_outputs):
        prof = angular_intensity(field, radius, 512)
        zs.append(z)
        raw.append(pattern_orientation(prof, l))
    return np.asarray(zs), unwrap_orientations(raw, l, start=0.0)


class TestPlan:
    def test_zero_field_potential_is_unity(self, w_b):
        p0 = BeamParameters(E60, 0.0)
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, p0, aliasing_limit(grid, p0) / 2)
        assert np.all(plan.potential_phase == 1.0)

    def test_unit_modulus_factors(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, beam, aliasing_limit(grid, beam) / 3)
        for factors in (plan.kinetic_phase, plan.half_potential_phase,
                        plan.potential_phase):
            assert np.max(np.abs(np.abs(factors) - 1.0)) < 1e-12

    def test_step_bound_enforced_with_limit_in_message(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        limit = aliasing_limit(grid, beam)
        with pytest.raises(StepTooLargeError, match=f"{limit:.6e}"):
            make_plan(grid, beam, 1.01 * limit)
        make_plan(grid, beam, 0.99 * limit)

    def test_default_step_rule(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        expected = min(aliasing_limit(grid, beam) / 4,
                       math.pi / (40 * abs(larmor_wavenumber(beam))))
        assert default_step_size(grid, beam) == pytest.approx(expected, rel=1e-12)

    def test_invalid_steps(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        with pytest.raises(ValueError):
            make_plan(grid, beam, -1e-9)
        with pytest.raises(ValueError):
            make_plan(grid, beam, 1e-9, steps_per_output=0)


class TestDefiniteL:
    def test_eigenmode_is_stationary(self, beam, w_b):
        grid = GridSpec(128, 8 * w_b)
        plan = make_plan(grid, beam, 0.5 * aliasing_limit(grid, beam))
        for n, l in [(0, 1), (1, -2)]:
            f0 = mode_field(grid, n, l, w_b)
            fz = propagate_definite_l(f0, l, plan, 100)
            intensity_err = (np.linalg.norm(fz.intensity() - f0.intensity())
                             / np.linalg.norm(f0.intensity()))
            assert intensity_err < 1e-3
            assert fidelity(f0, fz) > 1 - 1e-6
            assert fz.z_position == pytest.approx(100 * plan.dz, rel=1e-12)

    def test_free_space_gaussian_width_law(self):
        # closed-form oracle: w(z) = w0 sqrt(1 + (2 z / (k0 w0^2))^2)
        p0 = BeamParameters(E60, 0.0)
        w0 = 30e-9
        grid = GridSpec(192, 16 * w0)
        k0 = base_wavenumber(p0)
        z_r = k0 * w0 ** 2 / 2
        dz = 0.9 * aliasing_limit(grid, p0)
        steps = max(1, round(0.75 * z_r / dz))
        plan = make_plan(grid, p0, dz)
        field = mode_field(grid, 0, 0, w0)
        out = propagate_definite_l(field, 0, plan, steps)
        z = steps * dz
        oracle = w0 * math.sqrt(1 + (z / z_r) ** 2)
        assert effective_width(out, 0) == pytest.approx(oracle, rel=1e-3)

    def test_free_space_off_axis_centroid_static(self):
        p0 = BeamParameters(E60, 0.0)
        w0 = 30e-9
        grid = GridSpec(192, 16 * w0)
        xg, yg = grid.meshgrid()
        shift = 5 * grid.pitch
        amps = np.exp(-((xg - shift) ** 2 + yg ** 2) / w0 ** 2)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)) * grid.pitch ** 2)
        field = ComplexField(grid, 0.0, amps)
        dz = 0.9 * aliasing_limit(grid, p0)
        plan = make_plan(grid, p0, dz)
        out = propagate_definite_l(field, 0, plan, 60)
        intensity = out.intensity()
        cx = float((intensity * xg).sum() / intensity.sum())
        cy = float((intensity * yg).sum() / intensity.sum())
        assert cx == pytest.approx(shift, abs=0.05 * grid.pitch)
        assert abs(cy) < 0.05 * grid.pitch

    def test_breathing_matches_exact_law(self, beam, w_b):
        # the second-moment width of a half-width Gaussian follows the
        # unapproximated channel solution
        grid = GridSpec(192, 12 * w_b)
        k_l = larmor_wavenumber(beam)
        period = math.pi / k_l
        dz = 0.9 * aliasing_limit(grid, beam)
        n_out = 16
        spo = max(1, round(period / n_out / dz))
        plan = make_plan(grid, beam, dz)
        field = mode_field(grid, 0, 0, 0.5 * w_b)
        worst = 0.0
        for _ in range(n_out):
            field = propagate_definite_l(field, 0, plan, spo)
            measured = effective_width(field, 0)
            oracle = width_function_exact(0.5 * w_b, beam, field.z_position)
            worst = max(worst, abs(measured - oracle) / oracle)
        assert worst < 1e-2

    def test_breathing_matches_first_order_law_near_eigenwaist(self, beam, w_b):
        # with w0 close to w_B the first-order formula is inside 1 percent
        grid = GridSpec(128, 8 * w_b)
        k_l = larmor_wavenumber(beam)
        period = math.pi / k_l
        dz = 0.9 * aliasing_limit(grid, beam)
        n_out = 8
        spo = max(1, round(period / n_out / dz))
        plan = make_plan(grid, beam, dz)
        w0 = 0.98 * w_b
        field = mode_field(grid, 0, 0, w0)
        for _ in range(n_out):
            field = propagate_definite_l(field, 0, plan, spo)
            measured = effective_width(field, 0)
            reference = width_function(w0, beam, field.z_position)
            assert measured == pytest.approx(reference, rel=1e-2)

    def test_grid_mismatch(self, beam, w_b):
        grid_a = GridSpec(64, 8 * w_b)
        grid_b = GridSpec(128, 8 * w_b)
        plan = make_plan(grid_a, beam, 1e-8)
        field = mode_field(grid_b, 0, 0, w_b)
        with pytest.raises(GridMismatchError):
            propagate_definite_l(field, 0, plan, 1)

    def test_containment_guard(self, beam, w_b):
        grid = GridSpec(64, 3 * w_b)
        plan = make_plan(grid, beam, 1e-8)
        with pytest.warns(Warning):
            field = mode_field(grid, 0, 0, 1.2 * w_b)
        with pytest.raises(ContainmentError):
            propagate_definite_l(field, 0, plan, 1)

    def test_zero_steps_is_identity(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, beam, 1e-8)
        field = mode_field(grid, 0, 1, w_b)
        out = propagate_definite_l(field, 1, plan, 0)
        assert np.array_equal(out.amplitudes, field.amplitudes)


class TestSuperpositionRotation:
    def test_rotation_tracks_faraday_angle(self, beam, w_b):
        grid = GridSpec(192, 12 * w_b)
        k_l = larmor_wavenumber(beam)
        z_total = 0.3 / k_l
        dz = 0.9 * aliasing_limit(grid, beam)
        n_out = 8
        plan = make_plan(grid, beam, dz,
                         steps_per_output=max(1, round(z_total / n_out / dz)))
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        zs, measured = measure_rotation(s, grid, plan, n_out,
                                        petal_radius(w_b, 1), 1)
        analytic = k_l * zs
        rel = np.abs(measured[1:] - analytic[1:]) / np.abs(analytic[1:])
        assert rel.max() < 5e-3

    def test_no_rotation_without_field(self, w_b):
        p0 = BeamParameters(E60, 0.0)
        grid = GridSpec(128, 10 * w_b)
        dz = 0.9 * aliasing_limit(grid, p0)
        plan = make_plan(grid, p0, dz, steps_per_output=20)
        s = ModeSuperposition.opposite_pair(1, w_b, p0)
        zs, measured = measure_rotation(s, grid, plan, 4,
                                        petal_radius(w_b, 1), 1)
        assert np.max(np.abs(measured)) < 1e-6

    def test_field_reversal_flips_rotation(self, w_b):
        grids = GridSpec(128, 12 * w_b)
        angles = {}
        for bz in (1.0, -1.0):
            p = BeamParameters(E60, bz)
            dz = 0.9 * aliasing_limit(grids, p)
            k_l = larmor_wavenumber(p)
            z_total = 0.2 / abs(k_l)
            plan = make_plan(grids, p, dz,
                             steps_per_output=max(1, round(z_total / 4 / dz)))
            s = ModeSuperposition.opposite_pair(1, magnetic_width(p), p)
            _, measured = measure_rotation(s, grids, plan, 4,
                                           petal_radius(magnetic_width(p), 1), 1)
            angles[bz] = measured
        assert np.allclose(angles[1.0], -angles[-1.0], atol=1e-9)


class TestThreadCap:
    def test_evf_threads_caps_workers(self, monkeypatch):
        from evfaraday.propagation import fft_workers
        monkeypatch.setenv("EVF_THREADS", "1")
        assert fft_workers() == 1
        monkeypatch.delenv("EVF_THREADS")
        assert fft_workers() >= 1


class TestNormAndConvergence:
    def test_grid_norm_scaling(self, beam, w_b):
        field = mode_field(GridSpec(64, 8 * w_b), 0, 0, w_b)
        assert grid_norm(field) == pytest.approx(1.0, abs=1e-6)
        doubled = ComplexField(field.grid, 0.0, 2.0 * field.amplitudes)
        assert grid_norm(doubled) == pytest.approx(4.0, rel=1e-12)

    def test_norm_conserved_over_thousand_steps(self, beam, w_b):
        grid = GridSpec(128, 8 * w_b)
        plan = make_plan(grid, beam, 0.5 * aliasing_limit(grid, beam))
        field = mode_field(grid, 0, 1, w_b)
        out = propagate_definite_l(field, 1, plan, 1000)
        assert abs(grid_norm(out) - grid_norm(field)) < 1e-9

    def test_second_order_convergence(self, beam, w_b):
        # L2 error against a dz/8 reference shrinks ~4x per dz halving
        grid = GridSpec(128, 10 * w_b)
        base_steps = 32
        dz0 = 0.5 * aliasing_limit(grid, beam)
        field = mode_field(grid, 0, 0, 0.5 * w_b)

        def advance(dz, steps):
            plan = make_plan(grid, beam, dz)
            return propagate_definite_l(field, 0, plan, steps).amplitudes

        reference = advance(dz0 / 8, base_steps * 8)
        err = [np.linalg.norm(advance(dz0, base_steps) - reference),
               np.linalg.norm(advance(dz0 / 2, base_steps * 2) - reference)]
        factor = err[0] / err[1]
        assert 3.0 < factor < 5.0


class TestExactScheme:
    def test_breathing_one_step_per_plane(self, beam, w_b):
        # 64 planes per period, each reached by a single exact step
        grid = GridSpec(256, 12 * w_b)
        spacing = math.pi / abs(larmor_wavenumber(beam)) / 64
        assert exact_steps_per_plane(grid, beam, spacing) == 1
        plan = make_plan(grid, beam, spacing, scheme="exact")
        w0 = 0.5 * w_b
        field = mode_field(grid, 0, 0, w0)
        worst = 0.0
        for _ in range(64):
            field = propagate_definite_l(field, 0, plan, 1)
            oracle = width_function_exact(w0, beam, field.z_position)
            worst = max(worst, abs(effective_width(field, 0) - oracle) / oracle)
        assert worst < 1e-5

    def test_eigenmodes_stationary_at_nine_steps_per_period(self, beam, w_b):
        grid = GridSpec(128, 14 * w_b)
        dz = math.pi / abs(larmor_wavenumber(beam)) / 9
        plan = make_plan(grid, beam, dz, scheme="exact")
        for n in range(3):
            for l in range(-2, 3):
                f0 = mode_field(grid, n, l, w_b)
                fz = propagate_definite_l(f0, l, plan, 9)
                assert fidelity(f0, fz) > 1 - 1e-9, (n, l)

    def test_norm_conserved_over_many_large_steps(self, beam, w_b):
        grid = GridSpec(128, 10 * w_b)
        plan = make_plan(grid, beam, 0.9 * exact_step_limit(grid, beam),
                         scheme="exact")
        field = mode_field(grid, 0, 0, 0.7 * w_b)
        out = propagate_definite_l(field, 0, plan, 500)
        assert abs(grid_norm(out) - grid_norm(field)) < 1e-9

    def test_equals_strang_at_zero_field(self, w_b):
        p0 = BeamParameters(E60, 0.0)
        grid = GridSpec(64, 8 * w_b)
        dz = 0.5 * aliasing_limit(grid, p0)
        strang = make_plan(grid, p0, dz)
        exact = make_plan(grid, p0, dz, scheme="exact")
        for name in ("kinetic_phase", "half_potential_phase",
                     "potential_phase"):
            assert np.array_equal(getattr(strang, name), getattr(exact, name))

    def test_limit_at_zero_field_is_half_n_aliasing_limits(self, beam, w_b):
        p0 = BeamParameters(E60, 0.0)
        grid = GridSpec(256, 12 * w_b)
        assert exact_step_limit(grid, p0) == pytest.approx(
            128 * aliasing_limit(grid, p0), rel=1e-12)
        # with the field on, sin(Omega dz)/Omega < dz only loosens the
        # kinetic bound
        assert exact_step_limit(grid, beam) > 128 * aliasing_limit(grid, beam)

    def test_step_bound_names_exact_step_limit(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        limit = exact_step_limit(grid, beam)
        with pytest.raises(StepTooLargeError,
                           match=f"exact_step_limit.*{limit:.6e}"):
            make_plan(grid, beam, 1.01 * limit, scheme="exact")
        make_plan(grid, beam, 0.99 * limit, scheme="exact")
        assert exact_steps_per_plane(grid, beam, 0.99 * limit) == 1
        assert exact_steps_per_plane(grid, beam, 2.5 * limit) == 3

    def test_unknown_scheme_rejected(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        with pytest.raises(ValueError, match="scheme"):
            make_plan(grid, beam, 1e-8, scheme="leapfrog")

    def test_one_fft_pair_per_step(self, beam, w_b, monkeypatch):
        import scipy.fft
        calls = []
        for name in ("fft2", "ifft2"):
            original = getattr(scipy.fft, name)
            monkeypatch.setattr(
                scipy.fft, name,
                lambda x, *a, _f=original, _n=name, **kw:
                    calls.append(_n) or _f(x, *a, **kw))
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, beam, 1e-6, steps_per_output=3,
                         scheme="exact")
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        planes = list(superposition_evolution(s, grid, plan, 2))
        assert len(planes) == 3
        assert calls.count("fft2") == calls.count("ifft2") == 2 * 3
