"""Split-step solver against closed-form oracles: stationary eigenstates,
free-space Gaussian diffraction, the exact breathing law, rotation tracking,
unitarity and convergence order, for the Strang and the exact scheme."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
                              InvalidGridError, StepTooLargeError)
from evfaraday.propagation import (BORDER_INTENSITY_LIMIT, _check_extremes,
                                   _check_field_contained, _plane_extremes)

E60 = 60e3 * ELEMENTARY_CHARGE


def measure_rotation(s, grid, plan, n_outputs, radius, l):
    zs, raw = [], []
    for z, field in superposition_evolution(s, grid, plan, n_outputs):
        prof = angular_intensity(field, radius, 512)
        zs.append(z)
        raw.append(pattern_orientation(prof, l))
    return np.asarray(zs), unwrap_orientations(raw, l)


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

    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_step_counts_must_be_integers(self, beam, w_b, count):
        # a float count would fail later in range(), and a bool is no count
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, beam, 1e-8)
        field = mode_field(grid, 0, 1, w_b)
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        with pytest.raises(ValueError, match="steps_per_output must be an "
                                             "integer"):
            make_plan(grid, beam, 1e-8, steps_per_output=count)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            propagate_definite_l(field, 1, plan, count)
        with pytest.raises(ValueError, match="n_outputs must be an integer"):
            next(superposition_evolution(s, grid, plan, count))

    def test_numpy_integer_step_counts_accepted(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, beam, 1e-8, steps_per_output=np.int64(2))
        field = mode_field(grid, 0, 1, w_b)
        out = propagate_definite_l(field, 1, plan, np.int64(3))
        assert out.z_position == 3 * plan.dz
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        zs = [z for z, _ in superposition_evolution(s, grid, plan,
                                                    np.int32(2))]
        assert zs == [0.0, 2 * plan.dz, 4 * plan.dz]


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
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        with pytest.raises(GridMismatchError):
            next(superposition_evolution(s, grid_b, plan, 1))

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
        with pytest.raises(ValueError, match="n_steps must be >= 0"):
            propagate_definite_l(field, 1, plan, -1)


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

    def test_beam_mismatch_refused(self, beam, w_b):
        # the plan's k_L drives the Zeeman phases, so a +1 T pair stepped
        # by a -1 T plan would rotate the wrong way without a word
        grid = GridSpec(64, 8 * w_b)
        reversed_beam = BeamParameters(beam.kinetic_energy, -beam.field_bz)
        plan = make_plan(grid, reversed_beam, 1e-8, scheme="exact")
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        with pytest.raises(ValueError, match="plan's beam"):
            next(superposition_evolution(s, grid, plan, 1))

    def test_no_output_plane_refused(self, beam, w_b):
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, beam, 1e-8, scheme="exact")
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        with pytest.raises(ValueError, match="n_outputs must be >= 1"):
            next(superposition_evolution(s, grid, plan, 0))


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


def smooth_random_field(grid, rng):
    """A dense random field: complex noise low-passed to an eighth of the
    band and enveloped well inside the grid, so the propagator's
    containment check holds over a few steps."""
    n = grid.samples_per_side
    spectrum = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = np.abs(np.fft.fftfreq(n) * n)
    spectrum[(k[:, np.newaxis] > n // 8) | (k > n // 8)] = 0
    xg, yg = grid.meshgrid()
    envelope = np.exp(-(xg ** 2 + yg ** 2)
                      / (grid.physical_side_length / 12) ** 2)
    return ComplexField(grid, 0.0, np.fft.ifft2(spectrum) * envelope)


class TestPropagationProperties:
    @settings(max_examples=10, deadline=None)
    @given(scheme=st.sampled_from(("strang", "exact")),
           fraction=st.floats(0.01, 0.5), steps=st.integers(1, 4),
           l=st.integers(-3, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_unitary_on_random_fields(self, beam, w_b, scheme, fraction,
                                      steps, l, seed):
        # every factor of the step has unit modulus and the FFTs are
        # unitary, so the grid norm survives any dense field to rounding
        grid = GridSpec(64, 8 * w_b)
        field = smooth_random_field(grid, np.random.default_rng(seed))
        plan = make_plan(grid, beam, fraction * aliasing_limit(grid, beam),
                         scheme=scheme)
        out = propagate_definite_l(field, l, plan, steps)
        assert out.factors is None
        assert grid_norm(out) == pytest.approx(grid_norm(field), rel=1e-12)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_free_space_r2_quadratic_in_z(self, seed):
        # in free space <r^2>(z) = <r^2> + (z/k0) <rp + pr> + (z/k0)^2 <p^2>:
        # over equally spaced exact-scheme planes its third differences
        # vanish and its second difference is 2 h^2 <p^2> / k0^2
        p = BeamParameters(E60, 0.0)
        rng = np.random.default_rng(seed)
        w0 = 50e-9
        grid = GridSpec(128, 16 * w0)
        terms = [(ModeIndex(n, l), complex(*rng.normal(size=2)),
                  w0 * rng.uniform(0.75, 1.0))
                 for n, l in ((0, -1), (0, 0), (0, 2), (1, 1))]
        total = math.sqrt(sum(abs(c) ** 2 for _, c, _ in terms))
        s = ModeSuperposition(tuple((idx, c / total, w)
                                    for idx, c, w in terms), p)
        k0 = base_wavenumber(p)
        spacing = k0 * w0 ** 2 / 2 / 8   # an eighth of a Rayleigh range
        steps = exact_steps_per_plane(grid, p, spacing)
        plan = make_plan(grid, p, spacing / steps, steps, scheme="exact")
        xg, yg = grid.meshgrid()
        r2 = []
        for z, field in superposition_evolution(s, grid, plan, 4):
            if z == 0.0:
                start = field.amplitudes
            intensity = field.intensity()
            r2.append(float((intensity * (xg ** 2 + yg ** 2)).sum()
                            / intensity.sum()))
        r2 = np.asarray(r2)
        assert np.abs(np.diff(r2, 3)).max() <= 1e-12 * r2.max()
        k = 2 * np.pi * np.fft.fftfreq(128, d=grid.pitch)
        power = np.abs(np.fft.fft2(start)) ** 2
        p2 = float((power * (k[:, None] ** 2 + k ** 2)).sum() / power.sum())
        assert np.diff(r2, 2) == pytest.approx(
            2 * spacing ** 2 * p2 / k0 ** 2, rel=1e-11)


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

    @pytest.mark.parametrize("n, sides, tesla", [
        (64, 8, 1.0), (256, 12, -2.0), (512, 8, 0.1), (128, 100, 5.0)])
    def test_limits_equal_their_textbook_forms(self, n, sides, tesla):
        # the overflow-free forms differ from the formulas only in rounding
        p = BeamParameters(E60, tesla)
        grid = GridSpec(n, sides * magnetic_width(p))
        k0, omega = base_wavenumber(p), abs(larmor_wavenumber(p))
        alias = 2 * math.pi * k0 / (2 * (math.pi / grid.pitch) ** 2)
        assert aliasing_limit(grid, p) == pytest.approx(alias, rel=1e-15)
        a_max = math.pi / (k0 * omega ** 2 * grid.physical_side_length
                           * grid.pitch)
        limit = 2 * math.atan(omega * a_max) / omega
        if omega * n / 2 * alias < 1:
            limit = min(limit, math.asin(omega * n / 2 * alias) / omega)
        assert exact_step_limit(grid, p) == pytest.approx(limit, rel=1e-14)

    @pytest.mark.parametrize("n, side, tesla, electronvolts", [
        (64, 1e-200, 1.0, 60e3),     # pitch^2 underflows
        (16, 1e-300, 0.0, 60e3),     # also with the field off
        (16, 1e300, 1.0, 60e3),      # pitch^2 overflows
        (16, 1e-7, 1.0, 1e-300)])    # k0 rounds to 0
    def test_unrepresentable_limits_refused(self, n, side, tesla,
                                            electronvolts):
        p = BeamParameters(electronvolts * ELEMENTARY_CHARGE, tesla)
        grid = GridSpec(n, side)
        for limit in (aliasing_limit, exact_step_limit):
            with pytest.raises(InvalidGridError, match="positive, finite"):
                limit(grid, p)

    def test_uncountable_steps_refused(self, beam):
        grid = GridSpec(16, 1e-150)
        assert exact_step_limit(grid, beam) < 1e-280
        with pytest.raises(InvalidGridError, match="more exact steps"):
            exact_steps_per_plane(grid, beam, 1e300)

    @pytest.mark.parametrize("spacing", [-1.0, 0.0, -0.0, math.nan])
    def test_non_positive_spacing_refused(self, beam, w_b, spacing):
        # no count of steps crosses it: -1 m once gave -1868 steps, 0 m one
        with pytest.raises(ValueError, match="spacing of .* not positive"):
            exact_steps_per_plane(GridSpec(64, 8 * w_b), beam, spacing)

    def test_unrepresentable_phases_refused(self):
        # k_L^2 overflows, though both step limits are finite
        p = BeamParameters(E60, 1e300)
        grid = GridSpec(16, 8 * magnetic_width(p))
        dz = 0.5 * exact_step_limit(grid, p)
        with pytest.raises(InvalidGridError, match="not finite"):
            make_plan(grid, p, dz, scheme="exact")

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
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name,
                lambda x, *a, _f=original, _n=name, **kw:
                    calls.append((_n, x.shape, kw.get("out") is x))
                    or _f(x, *a, **kw))
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, beam, 1e-6, steps_per_output=3,
                         scheme="exact")
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        planes = list(superposition_evolution(s, grid, plan, 2))
        assert len(planes) == 3
        names = [name for name, _, _ in calls]
        assert names.count("fft") == names.count("ifft") == 2 * 3
        # the -l partner reads the +l factors reversed: only the rank-2
        # y- and x-factors of one mode are stepped, as one (4, 64) stack,
        # and every 1-D transform writes into its input
        assert {(shape, in_place) for _, shape, in_place in calls} == {
            ((4, 64), True)}


class TestMirrorIdentity:
    """The -l mode is the +l mode mirrored, y -> -y: a row reversal on the
    pixel-centred grid, which the split-step sweep commutes with."""

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(0, 2), l=st.integers(1, 4),
           waist_rel=st.floats(0.7, 1.3))
    def test_minus_l_is_row_mirror_of_plus_l(self, beam, w_b, n, l,
                                             waist_rel):
        grid = GridSpec(128, 14 * w_b)
        w = waist_rel * w_b
        plus = mode_field(grid, n, l, w)
        minus = mode_field(grid, n, -l, w)
        assert np.array_equal(minus.amplitudes, plus.amplitudes[::-1])
        k_l = larmor_wavenumber(beam)
        plan = make_plan(grid, beam, math.pi / abs(k_l) / 9, scheme="exact")
        for _ in range(3):
            plus = propagate_definite_l(plus, l, plan, 1)
            minus = propagate_definite_l(minus, -l, plan, 1)
            # the two handednesses differ only in their Zeeman phases
            mirrored = (np.exp(2j * l * k_l * plus.z_position)
                        * plus.amplitudes[::-1])
            peak = np.abs(plus.amplitudes).max()
            assert np.abs(minus.amplitudes - mirrored).max() < 1e-12 * peak


class TestGrouping:
    """superposition_evolution steps one field per (n, |l|, waist) group
    and reads -l terms row-mirrored; it must equal stepping every term on
    its own."""

    @pytest.mark.parametrize("scheme", ["strang", "exact"])
    def test_equals_termwise_propagation(self, beam, w_b, scheme):
        grid = GridSpec(128, 14 * w_b)
        shapes = [(0, 1, w_b), (0, -1, w_b),   # opposite pair
                  (1, 0, w_b),                  # l = 0
                  (0, -2, w_b),                 # -l without its +l
                  (0, 1, 0.8 * w_b)]            # same (n, |l|), new waist
        coeffs = np.array([0.5, 0.4j, -0.3, 0.2 + 0.3j, 0.35])
        coeffs /= np.linalg.norm(coeffs)
        s = ModeSuperposition(
            tuple((ModeIndex(n, l), c, w)
                  for (n, l, w), c in zip(shapes, coeffs)), beam)
        if scheme == "strang":
            plan = make_plan(grid, beam, 0.9 * aliasing_limit(grid, beam),
                             steps_per_output=5)
        else:
            plan = make_plan(grid, beam,
                             math.pi / abs(larmor_wavenumber(beam)) / 9,
                             scheme="exact")
        fields = [mode_field(grid, n, l, w) for n, l, w in shapes]
        norm = math.sqrt(grid_norm(ComplexField(
            grid, 0.0, sum(c * f.amplitudes
                           for c, f in zip(coeffs, fields)))))
        planes = list(superposition_evolution(s, grid, plan, 3))
        assert len(planes) == 4
        for k, (z, field) in enumerate(planes):
            if k:
                fields = [propagate_definite_l(f, l, plan,
                                               plan.steps_per_output)
                          for f, (_, l, _) in zip(fields, shapes)]
            assert z == pytest.approx(fields[0].z_position, rel=1e-12)
            expected = sum(c * f.amplitudes
                           for c, f in zip(coeffs, fields)) / norm
            peak = np.abs(expected).max()
            assert (np.abs(field.amplitudes - expected).max()
                    < 1e-12 * peak)


class TestFactoredCore:
    """A field that carries its Hermite-Gauss factors is stepped as its 1-D
    factor lines; the same field given as a plane alone is stepped whole.
    Both apply one discrete operator, so they agree to rounding."""

    SHAPES = [(0, 1, 1.0), (0, -1, 1.0),   # opposite pair
              (1, 0, 1.0),                  # l = 0
              (0, -2, 1.0),                 # -l without its +l
              (0, 1, 0.8),                  # same (n, |l|), new waist
              (2, 3, 1.1)]                  # rank 8

    @staticmethod
    def plan(beam, grid, scheme):
        if scheme == "strang":
            return make_plan(grid, beam, 0.9 * aliasing_limit(grid, beam),
                             steps_per_output=5)
        return make_plan(grid, beam,
                         math.pi / abs(larmor_wavenumber(beam)) / 9,
                         scheme="exact")

    @pytest.mark.parametrize("scheme", ["strang", "exact"])
    def test_definite_l_factored_equals_dense(self, beam, w_b, scheme):
        grid = GridSpec(128, 14 * w_b)
        plan = self.plan(beam, grid, scheme)
        for n, l, w_rel in self.SHAPES:
            factored = mode_field(grid, n, l, w_rel * w_b)
            y, x = factored.factors
            assert y.shape == x.shape == (2 * n + abs(l) + 1, 128)
            dense = ComplexField(grid, 0.0, factored.amplitudes)
            for _ in range(3):
                factored = propagate_definite_l(factored, l, plan, 4)
                dense = propagate_definite_l(dense, l, plan, 4)
                assert dense.factors is None
                y, x = factored.factors
                peak = np.abs(dense.amplitudes).max()
                assert (np.abs(factored.amplitudes - dense.amplitudes).max()
                        < 1e-12 * peak), (n, l, w_rel)
                assert np.abs(y.T @ x - factored.amplitudes).max() < (
                    1e-14 * peak)
                assert factored.z_position == dense.z_position

    @pytest.mark.parametrize("scheme", ["strang", "exact"])
    def test_superposition_equals_dense_termwise(self, beam, w_b, scheme):
        grid = GridSpec(128, 14 * w_b)
        plan = self.plan(beam, grid, scheme)
        coeffs = np.array([0.5, 0.4j, -0.3, 0.2 + 0.3j, 0.35, -0.25j])
        coeffs /= np.linalg.norm(coeffs)
        s = ModeSuperposition(
            tuple((ModeIndex(n, l), c, w_rel * w_b)
                  for (n, l, w_rel), c in zip(self.SHAPES, coeffs)), beam)
        fields = [ComplexField(grid, 0.0, mode_field(grid, n, l,
                                                     w_rel * w_b).amplitudes)
                  for n, l, w_rel in self.SHAPES]
        norm = math.sqrt(grid_norm(ComplexField(
            grid, 0.0, sum(c * f.amplitudes for c, f in zip(coeffs, fields)))))
        for k, (z, field) in enumerate(
                superposition_evolution(s, grid, plan, 3)):
            if k:
                fields = [propagate_definite_l(f, l, plan,
                                               plan.steps_per_output)
                          for f, (_, l, _) in zip(fields, self.SHAPES)]
            expected = sum(c * f.amplitudes
                           for c, f in zip(coeffs, fields)) / norm
            peak = np.abs(expected).max()
            assert (np.abs(field.amplitudes - expected).max()
                    < 1e-12 * peak)

    def test_plan_factors_are_length_n_vectors(self, beam, w_b):
        plan = make_plan(GridSpec(64, 8 * w_b), beam, 1e-8, scheme="exact")
        for factors in (plan.kinetic_phase, plan.half_potential_phase,
                        plan.potential_phase):
            assert factors.shape == (64,)


class TestFactorForm:
    """Fields that carry only their factors (Y, X) are measured and guarded
    from them; the plane Y.T @ X is built only when it is read, and is not
    kept."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 3), l=st.integers(-4, 4),
           waist_rel=st.floats(0.7, 1.5),
           scale=st.complex_numbers(min_magnitude=0.1, max_magnitude=10))
    def test_gram_norm_equals_plane_sum(self, w_b, n, l, waist_rel, scale):
        grid = GridSpec(128, 14 * w_b)
        y, x = mode_field(grid, n, l, waist_rel * w_b).factors
        field = ComplexField(grid, 0.0, factors=(scale * y, x))
        plane_sum = float(np.sum(np.abs(field.amplitudes) ** 2)) * (
            grid.pitch ** 2)
        assert grid_norm(field) == pytest.approx(plane_sum, rel=1e-14)
        assert plane_sum == pytest.approx(abs(scale) ** 2, rel=1e-13)

    def test_plane_built_on_each_read_and_not_kept(self, w_b, plane_builds):
        field = mode_field(GridSpec(64, 8 * w_b), 0, 1, w_b)
        y, x = field.factors
        with plane_builds() as built:
            first = field.amplitudes
            second = field.amplitudes
        assert built == [field, field]
        assert first is not second
        assert np.array_equal(first, y.T @ x)
        assert np.array_equal(second, first)
        assert field.plane is None

    def test_field_needs_plane_or_factors(self, w_b):
        with pytest.raises(ValueError, match="amplitudes or its factors"):
            ComplexField(GridSpec(64, 8 * w_b), 0.0)

    def test_yielded_fields_hold_their_own_factors(self, beam, w_b,
                                                   plane_builds):
        grid = GridSpec(64, 8 * w_b)
        plan = make_plan(grid, beam, 1e-6, scheme="exact")
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        planes = []
        # every field is sampled, stepped and guarded without its plane
        with plane_builds() as built:
            for _, field in superposition_evolution(s, grid, plan, 3):
                planes.append((field, [f.copy() for f in field.factors]))
        assert not built
        # the stack stepped in place after each yield left them untouched
        for field, (y, x) in planes:
            assert np.array_equal(field.factors[0], y)
            assert np.array_equal(field.factors[1], x)

    @staticmethod
    def guarded_field(n, centre, ratio):
        """Rank-2 field: a Gaussian of unit peak at (centre, centre) plus
        a copy of its x-profile on row 0, of border-to-peak ratio ratio."""
        idx = np.arange(n)
        g = np.exp(-((idx - centre) / (n / 16)) ** 2)
        spike = np.zeros(n)
        spike[0] = math.sqrt(ratio) - g[0]
        grid = GridSpec(n, 1e-6)
        return ComplexField(grid, 0.0, factors=(np.stack([g, spike]),
                                                np.stack([g, g])))

    @pytest.mark.parametrize("centre", [64, 32],
                             ids=["peak-on-centre-lines", "peak-off-centre"])
    @pytest.mark.parametrize("ratio_rel", [1 - 1e-9, 1 + 1e-9],
                             ids=["just-below", "just-above"])
    def test_guard_decides_as_the_plane_check(self, centre, ratio_rel,
                                              plane_builds):
        ratio = ratio_rel * BORDER_INTENSITY_LIMIT
        factored = self.guarded_field(128, centre, ratio)
        y, x = factored.factors
        dense = ComplexField(factored.grid, 0.0, y.T @ x)
        intensity = dense.intensity()
        border = max(intensity[0].max(), intensity[-1].max(),
                     intensity[:, 0].max(), intensity[:, -1].max())
        assert border / intensity.max() == pytest.approx(ratio, rel=1e-12)
        refused, builds = [], []
        for field in (dense, factored):
            with plane_builds() as built:
                try:
                    _check_field_contained(field, context="test")
                    refused.append(None)
                except ContainmentError as exc:
                    refused.append(str(exc))
            builds.append(len(built))
        assert refused[0] == refused[1]
        assert (refused[0] is None) == (ratio_rel < 1)
        # only a field whose peak lies on a central line is accepted from
        # its factors; the other three are decided on their plane, built
        # once
        early = centre == 64 and ratio_rel < 1
        assert builds == [0, 0 if early else 1]

    @pytest.mark.parametrize("case", ["nan pixel", "all nan",
                                      "inf border pixel"])
    def test_non_finite_plane_refused(self, case):
        # a nan or inf intensity fails every comparison with the limit, so
        # the guard must refuse it rather than find nothing above it
        contained = self.guarded_field(64, 32, 0.0)
        plane = contained.amplitudes
        if case == "nan pixel":
            plane[30, 30] = np.nan
        elif case == "all nan":
            plane[:] = np.nan
        else:
            plane[0, 10] = np.inf
        with pytest.raises(ContainmentError, match="not finite"):
            _check_field_contained(ComplexField(contained.grid, 0.0, plane),
                                   context="test")
        # also when a finite, contained plane is checked beside it, as the
        # spherical focus search checks its three planes
        with pytest.raises(ContainmentError, match="not finite"):
            _check_extremes([_plane_extremes(amps, "test") for amps in
                             (contained.amplitudes, plane)], "test")

    def test_dark_plane_accepted(self):
        # an all-zero plane has no peak to compare its border with, and
        # nothing in it to wrap around
        _check_field_contained(
            ComplexField(GridSpec(64, 1e-6), 0.0, np.zeros((64, 64))),
            context="test")

    def test_nan_factors_refused(self):
        field = self.guarded_field(64, 32, 0.0)
        y, x = field.factors
        nan_field = ComplexField(field.grid, 0.0,
                                 factors=(y, np.full_like(x, np.nan)))
        with pytest.raises(ContainmentError, match="not finite"):
            _check_field_contained(nan_field, context="test")


class TestRotationProperties:
    """The paper's rotation is a pure Zeeman effect: the channel's Gouy
    phase depends on |l| only, so a +-l pair of any common waist, matched
    or breathing, turns at exactly k_L, and reversing B reverses it."""

    @staticmethod
    def orientations(p, l, waist, grid, n_out=4):
        k_l = larmor_wavenumber(p)
        plan = make_plan(grid, p, 0.4 / abs(k_l) / n_out, scheme="exact")
        s = ModeSuperposition.opposite_pair(l, waist, p)
        return measure_rotation(s, grid, plan, n_out,
                                petal_radius(waist, l), l)

    @settings(max_examples=8, deadline=None)
    @given(l=st.integers(1, 3), waist_rel=st.floats(0.7, 1.3))
    def test_pair_rotates_at_k_l_at_any_waist(self, beam, w_b, l, waist_rel):
        # the bound is the orientation measurement's sampling error on this
        # grid (below 1e-3 over the range); a waist-dependent rate would be
        # off by order one
        zs, measured = self.orientations(beam, l, waist_rel * w_b,
                                         GridSpec(256, 12 * w_b))
        analytic = larmor_wavenumber(beam) * zs
        rel = np.abs(measured[1:] - analytic[1:]) / np.abs(analytic[1:])
        assert rel.max() < 5e-3

    @settings(max_examples=6, deadline=None)
    @given(l=st.integers(1, 3), waist_rel=st.floats(0.7, 1.3),
           field_t=st.floats(0.5, 2.0))
    def test_field_reversal_negates_angle(self, l, waist_rel, field_t):
        angles = []
        for bz in (field_t, -field_t):
            p = BeamParameters(E60, bz)
            w_b = magnetic_width(p)
            _, measured = self.orientations(p, l, waist_rel * w_b,
                                            GridSpec(128, 14 * w_b))
            angles.append(measured)
        assert np.abs(angles[0]).max() > 0.3
        assert np.allclose(angles[0], -angles[1], rtol=0, atol=1e-12)
