"""Laguerre polynomials, radial profiles, grid sampling and the analytic
width laws, all checked against independent oracles (series sums, adaptive
quadrature, closed forms)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from evfaraday import (ComplexField, GridSpec, ModeIndex, ModeSuperposition,
                       angular_intensity, assoc_laguerre, faraday_angle,
                       fidelity, grid_norm, larmor_wavenumber, magnetic_width,
                       mode_field, pattern_orientation, petal_radius,
                       radial_profile, sample_superposition, width_function,
                       width_function_exact)
from evfaraday import modes
from evfaraday.errors import (GridAdequacyWarning, InvalidGridError,
                              InvalidModeError, NotAnEigenstateError,
                              UnsupportedOrderError, ZeroFieldError)


def laguerre_series(n, alpha, x):
    """Finite-series oracle sum_k (-1)^k C(n+alpha, n-k) x^k / k!, evaluated
    in exact rational arithmetic so the float recurrence is tested against a
    correctly rounded reference."""
    from fractions import Fraction
    xf = Fraction(float(x))
    total = Fraction(0)
    for k in range(n + 1):
        total += ((-1) ** k * math.comb(n + alpha, n - k) * xf ** k
                  / math.factorial(k))
    return float(total)


class TestAssocLaguerre:
    def test_degree_zero(self):
        for alpha in range(4):
            for x in (0.0, 0.5, 7.3):
                assert assoc_laguerre(0, alpha, x) == 1.0

    def test_degree_one_closed_form(self):
        for alpha in range(4):
            for x in (0.0, 1.5, 9.0):
                assert assoc_laguerre(1, alpha, x) == pytest.approx(
                    1 + alpha - x, rel=1e-15)

    def test_frozen_value(self):
        # L_2^0(2) = 1 - 2x + x^2/2 at x = 2
        assert assoc_laguerre(2, 0, 2.0) == pytest.approx(-1.0, rel=1e-14)
        assert laguerre_series(2, 0, 2.0) == pytest.approx(-1.0, rel=1e-14)

    def test_recurrence_vs_series_oracle(self):
        xs = np.linspace(0.05, 30.0, 37) + 0.0137
        for n in range(11):
            for alpha in range(6):
                ours = assoc_laguerre(n, alpha, xs)
                oracle = np.array([laguerre_series(n, alpha, float(x)) for x in xs])
                # relative floor guards points that land close to a root
                scale = np.maximum(np.abs(oracle), 1e-6 * np.abs(oracle).max())
                assert np.max(np.abs(ours - oracle) / scale) < 1e-10

    def test_against_scipy(self):
        xs = np.linspace(0.0, 40.0, 23)
        for n in (0, 3, 10, 25):
            for alpha in (0, 2, 5):
                assert np.allclose(assoc_laguerre(n, alpha, xs),
                                   special.eval_genlaguerre(n, alpha, xs),
                                   rtol=1e-9, atol=1e-9)

    def test_order_ceiling(self):
        assoc_laguerre(60, 0, 1.0)
        with pytest.raises(UnsupportedOrderError):
            assoc_laguerre(61, 0, 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            assoc_laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            assoc_laguerre(2, -1, 1.0)


class TestRadialProfile:
    def test_vortex_core_vanishes(self):
        for l in (1, -1, 2, 5):
            assert radial_profile(0, l, 0.0, 30e-9) == 0.0
        assert radial_profile(0, 0, 0.0, 30e-9) > 0.0

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("l", range(6))
    def test_normalisation_quadrature_oracle(self, n, l):
        w = 47e-9
        integrand = lambda r: radial_profile(n, l, r, w) ** 2 * r
        val, err = integrate.quad(integrand, 0.0, 12 * w,
                                  epsabs=1e-13, epsrel=1e-12, limit=200)
        assert 2 * math.pi * val == pytest.approx(1.0, abs=1e-8)

    def test_peak_radius_oracle(self):
        # d/dr of r^{2|l|} exp(-2 r^2/w^2) vanishes at r = w sqrt(|l|/2)
        w = 50e-9
        r = np.linspace(1e-12, 4 * w, 200001)
        for l in (1, 2, 3):
            profile = radial_profile(0, l, r, w)
            measured = r[np.argmax(profile ** 2)]
            assert measured == pytest.approx(w * math.sqrt(l / 2), rel=1e-4)
            assert petal_radius(w, -l) == w * math.sqrt(l / 2)
        # an l = 0 mode has no petals: its intensity peaks on axis
        with pytest.raises(ValueError, match="no petal radius"):
            petal_radius(w, 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            radial_profile(0, 0, 1e-9, 0.0)
        with pytest.raises(ValueError):
            radial_profile(0, 0, -1e-9, 1e-9)


class TestModeField:
    def test_unit_norm(self, beam, w_b):
        grid = GridSpec(128, 8 * w_b)
        field = mode_field(grid, 0, 1, w_b)
        assert grid_norm(field) == pytest.approx(1.0, abs=1e-12)

    def test_adequacy_warning_fine_pitch(self, beam, w_b):
        with pytest.warns(GridAdequacyWarning):
            mode_field(GridSpec(16, 32 * w_b), 0, 0, w_b)

    def test_adequacy_warning_small_side(self, beam, w_b):
        with pytest.warns(GridAdequacyWarning):
            mode_field(GridSpec(64, 4 * w_b), 0, 0, w_b)

    def test_zero_sampled_mode_rejected(self, beam, w_b):
        # a waist far below the pitch underflows at every pixel centre
        with pytest.warns(GridAdequacyWarning):
            with pytest.raises(ValueError, match="identically zero field"):
                mode_field(GridSpec(64, 8 * w_b), 0, 0, 1e-3 * w_b)
        # so does a superposition sampled at z = 0 without a field
        from evfaraday import BeamParameters
        p0 = BeamParameters(beam.kinetic_energy, 0.0)
        s = ModeSuperposition(((ModeIndex(0, 1), 1.0, 1e-3 * w_b),), p0)
        with pytest.warns(GridAdequacyWarning):
            with pytest.raises(ValueError, match="identically zero field"):
                sample_superposition(s, GridSpec(64, 8 * w_b), 0.0)

    @pytest.mark.parametrize("waist", [0.0, -1e-9, math.nan])
    def test_non_positive_waist_rejected(self, w_b, waist):
        with pytest.raises(ValueError, match="waist must be positive"):
            mode_field(GridSpec(64, 8 * w_b), 0, 1, waist)

    def test_mode_beyond_corners_refused(self, w_b, monkeypatch):
        # a 64^2 grid of side 8 w: the corner pixels lie 5.568 w out, so
        # r^|l| exp(-r^2/w^2) peaks inside them up to |l| = 62 and at or
        # beyond them from 63; the refusal builds no weight, so it cannot
        # overflow or take O(l^2) at any |l|
        grid = GridSpec(64, 8 * w_b)
        assert len(mode_field(grid, 0, 62, w_b).factors[0]) == 63
        monkeypatch.setattr(modes, "_hermite_gauss_weights", None)
        for n, l in ((0, 63), (0, -63), (3, 63), (0, 10 ** 400)):
            with pytest.raises(InvalidModeError) as exc:
                mode_field(grid, n, l, w_b)
            assert f"(n={n}, l={l})" in str(exc.value)
            assert "corners (2.857e-07 m) of the 64 x 64 grid" in str(
                exc.value)

    @pytest.mark.parametrize("norm2", [-2.9e-16, math.nan])
    def test_non_positive_gram_norm_refused(self, w_b, monkeypatch, norm2):
        # rounding that cancels in a grid too coarse for the mode can leave
        # its Gram norm negative, where a square root would fail
        monkeypatch.setattr(modes, "_factor_norm", lambda y, x: norm2)
        with pytest.raises(InvalidModeError, match=r"\(n=0, l=3\) .* "
                           "squared norm of .* does not resolve it"):
            mode_field(GridSpec(64, 8 * w_b), 0, 3, w_b)


def radial_sampling(grid, n, l, w):
    """The (n, l) mode sampled from radial_profile and exp(i l phi), at
    unit grid norm: the oracle for mode_field's Hermite-Gauss factors."""
    xg, yg = grid.meshgrid()
    amps = (radial_profile(n, l, np.hypot(xg, yg), w)
            * np.exp(1j * l * np.arctan2(yg, xg)))
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)) * grid.pitch ** 2)


class TestHermiteGaussFactors:
    """mode_field samples each mode as 2n+|l|+1 products of 1-D Hermite
    functions; the sum must be the Laguerre-Gauss profile, phase included."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 2), l=st.integers(-4, 4),
           waist_rel=st.floats(0.7, 1.3))
    def test_factors_equal_radial_profile_sampling(self, w_b, n, l,
                                                   waist_rel):
        grid = GridSpec(128, 12 * w_b)
        field = mode_field(grid, n, l, waist_rel * w_b)
        oracle = radial_sampling(grid, n, l, waist_rel * w_b)
        y, x = field.factors
        assert y.shape == x.shape == (2 * n + abs(l) + 1, 128)
        peak = np.abs(oracle).max()
        assert np.abs(field.amplitudes - oracle).max() < 1e-13 * peak
        assert np.abs(y.T @ x - oracle).max() < 1e-13 * peak

    @pytest.mark.parametrize("n, l", [(0, 40), (5, 20), (3, -17)])
    def test_high_order(self, w_b, n, l):
        # the weights come from exact integer coefficients, so 41 terms of
        # alternating phase still sum to the profile
        grid = GridSpec(256, 16 * w_b)
        field = mode_field(grid, n, l, w_b)
        oracle = radial_sampling(grid, n, l, w_b)
        assert len(field.factors[0]) == 2 * n + abs(l) + 1
        peak = np.abs(oracle).max()
        assert np.abs(field.amplitudes - oracle).max() < 1e-12 * peak

    @pytest.mark.parametrize("n, al", [(0, 1100), (2, 1040)])
    def test_weights_beyond_float_coefficients(self, n, al):
        # the integer coefficients of (1-t)^n (1+t)^m exceed a float here;
        # the weights do not, and their squares sum to 1
        weights = modes._hermite_gauss_weights(n, al)
        assert len(weights) == 2 * n + al + 1
        assert all(math.isfinite(abs(w)) for w in weights)
        assert math.fsum(abs(w) ** 2 for w in weights) == pytest.approx(
            1.0, rel=1e-12)

    def test_order_ceiling(self, w_b):
        with pytest.raises(UnsupportedOrderError):
            mode_field(GridSpec(64, 8 * w_b), 61, 0, w_b)
        with pytest.raises(ValueError, match="non-negative"):
            mode_field(GridSpec(64, 8 * w_b), -1, 0, w_b)


class TestSuperpositionValidation:
    def test_coefficient_norm_enforced(self, beam, w_b):
        with pytest.raises(ValueError, match="sum"):
            ModeSuperposition(((ModeIndex(0, 1), 1.0, w_b),
                               (ModeIndex(0, -1), 1.0, w_b)), beam)

    def test_positive_waists(self, beam):
        with pytest.raises(ValueError, match="waist"):
            ModeSuperposition(((ModeIndex(0, 1), 1.0, -1e-9),), beam)

    def test_terms_checked(self, beam, w_b):
        with pytest.raises(ValueError, match="at least one term"):
            ModeSuperposition((), beam)
        with pytest.raises(TypeError, match="start with a ModeIndex"):
            ModeSuperposition((((0, 1), 1.0, w_b),), beam)

    def test_opposite_pair_helper(self, beam, w_b):
        s = ModeSuperposition.opposite_pair(2, w_b, beam)
        assert [idx.l for idx, _, _ in s.terms] == [2, -2]
        total = sum(abs(c) ** 2 for _, c, _ in s.terms)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSampleSuperposition:
    def test_single_mode_symmetric_and_stationary(self, beam, w_b):
        grid = GridSpec(256, 8 * w_b)
        s = ModeSuperposition(((ModeIndex(0, 1), 1.0, w_b),), beam)
        f0 = sample_superposition(s, grid, 0.0)
        prof = angular_intensity(f0, petal_radius(w_b, 1), 256)
        spread = np.ptp(prof.samples) / prof.samples.mean()
        assert spread < 1e-3
        fz = sample_superposition(s, grid, 1e-4)
        peak = f0.intensity().max()
        assert np.allclose(fz.intensity(), f0.intensity(),
                           rtol=0, atol=1e-9 * peak)
        assert fidelity(f0, fz) == pytest.approx(1.0, abs=1e-9)

    def test_pair_at_zero_peaks_on_x_axis(self, beam, w_b):
        grid = GridSpec(128, 8 * w_b)
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        field = sample_superposition(s, grid, 0.0)
        prof = angular_intensity(field, petal_radius(w_b, 1), 256)
        # cos^2(phi): maxima at phi = 0 and pi, zero at pi/2
        assert pattern_orientation(prof, 1) == pytest.approx(0.0, abs=1e-3) or \
            pattern_orientation(prof, 1) == pytest.approx(math.pi, abs=1e-3)
        n = prof.samples.size
        assert prof.samples[0] > 100 * prof.samples[n // 4]

    def test_pair_rotated_by_quarter_pi(self, beam, w_b):
        grid = GridSpec(128, 8 * w_b)
        k_l = larmor_wavenumber(beam)
        z = (math.pi / 4) / k_l
        s = ModeSuperposition.opposite_pair(1, w_b, beam)
        field = sample_superposition(s, grid, z)
        prof = angular_intensity(field, petal_radius(w_b, 1), 256)
        assert pattern_orientation(prof, 1) == pytest.approx(math.pi / 4,
                                                             abs=1e-3)

    def test_rotation_rate_independent_of_l(self, beam, w_b):
        grid = GridSpec(128, 8 * w_b)
        k_l = larmor_wavenumber(beam)
        zs = np.linspace(0.0, 0.08 / k_l, 5)
        slopes = []
        for l in (1, 2):
            angles = []
            s = ModeSuperposition.opposite_pair(l, w_b, beam)
            for z in zs:
                prof = angular_intensity(sample_superposition(s, grid, z),
                                         petal_radius(w_b, l), 256)
                angles.append(pattern_orientation(prof, l))
            slopes.append(np.polyfit(zs, angles, 1)[0])
        assert slopes[0] == pytest.approx(k_l, rel=5e-3)
        assert slopes[1] == pytest.approx(slopes[0], rel=1e-2)

    def test_waist_mismatch_rejected(self, beam, w_b):
        grid = GridSpec(128, 8 * w_b)
        s = ModeSuperposition(((ModeIndex(0, 1), 1.0, 0.5 * w_b),), beam)
        with pytest.raises(NotAnEigenstateError):
            sample_superposition(s, grid, 0.0)

    def test_free_space_only_at_origin(self, w_b):
        from evfaraday import BeamParameters, ELEMENTARY_CHARGE
        p0 = BeamParameters(60e3 * ELEMENTARY_CHARGE, 0.0)
        grid = GridSpec(128, 8 * w_b)
        s = ModeSuperposition.opposite_pair(1, w_b, p0)
        sample_superposition(s, grid, 0.0)
        with pytest.raises(NotAnEigenstateError):
            sample_superposition(s, grid, 1e-6)


class TestOrthonormality:
    def test_grid_inner_products(self, beam, w_b):
        grid = GridSpec(256, 8 * w_b)
        modes = {}
        for n in range(3):
            for l in range(-2, 3):
                modes[(n, l)] = mode_field(grid, n, l, w_b)
        keys = list(modes)
        for i, a in enumerate(keys):
            for b in keys[i:]:
                overlap = abs(np.vdot(modes[a].amplitudes,
                                      modes[b].amplitudes)) * grid.pitch ** 2
                if a == b:
                    assert overlap == pytest.approx(1.0, abs=1e-9)
                else:
                    assert overlap < 1e-4


class TestWidthFunction:
    def test_eigenwaist_is_stationary(self, beam, w_b):
        zs = np.linspace(0, 1e-2, 50)
        assert np.allclose(width_function(w_b, beam, zs), w_b, rtol=1e-12)
        assert np.allclose(width_function_exact(w_b, beam, zs), w_b, rtol=1e-12)

    def test_value_at_origin(self, beam, w_b):
        for w0 in (0.3 * w_b, 0.9 * w_b, 1.2 * w_b):
            assert width_function(w0, beam, 0.0) == pytest.approx(w0, rel=1e-12)
            assert width_function_exact(w0, beam, 0.0) == pytest.approx(
                w0, rel=1e-12)

    def test_quarter_period_values(self, beam, w_b):
        k_l = larmor_wavenumber(beam)
        z = math.pi / (2 * k_l)
        w0 = 0.5 * w_b
        assert width_function(w0, beam, z) == pytest.approx(
            w_b * math.sqrt(2 - (w0 / w_b) ** 2), rel=1e-12)
        assert width_function_exact(w0, beam, z) == pytest.approx(
            w_b ** 2 / w0, rel=1e-12)

    def test_periodicity(self, beam, w_b):
        k_l = larmor_wavenumber(beam)
        period = math.pi / k_l
        zs = np.linspace(0, period, 40)
        for fn in (width_function, width_function_exact):
            a = fn(0.6 * w_b, beam, zs)
            b = fn(0.6 * w_b, beam, zs + period)
            assert np.allclose(a, b, rtol=1e-9)

    def test_breathing_twice_per_pattern_rotation(self, beam, w_b):
        # the width repeats after half the distance of a full 2 pi rotation
        k_l = larmor_wavenumber(beam)
        width_period = math.pi / k_l
        rotation = faraday_angle(beam, 2 * width_period)
        assert rotation == pytest.approx(2 * math.pi, rel=1e-12)

    def test_range_bounds(self, beam, w_b):
        k_l = larmor_wavenumber(beam)
        zs = np.linspace(0, 2 * math.pi / k_l, 400)
        w0 = 0.7 * w_b
        vals = width_function(w0, beam, zs)
        lo = min(w0, w_b * math.sqrt(2 - (w0 / w_b) ** 2))
        hi = max(w0, w_b * math.sqrt(2 - (w0 / w_b) ** 2))
        assert vals.min() >= lo - 1e-12 * w_b
        assert vals.max() <= hi + 1e-12 * w_b

    def test_first_order_agreement_near_eigenwaist(self, beam, w_b):
        k_l = larmor_wavenumber(beam)
        zs = np.linspace(0, math.pi / k_l, 80)
        a = width_function(0.98 * w_b, beam, zs)
        b = width_function_exact(0.98 * w_b, beam, zs)
        assert np.max(np.abs(a - b) / b) < 2e-3

    def test_zero_field_raises(self, w_b):
        from evfaraday import BeamParameters, ELEMENTARY_CHARGE
        p0 = BeamParameters(60e3 * ELEMENTARY_CHARGE, 0.0)
        with pytest.raises(ZeroFieldError):
            width_function(w_b, p0, 0.0)
        with pytest.raises(ZeroFieldError):
            width_function_exact(w_b, p0, 0.0)

    @pytest.mark.parametrize("w0", [0.0, -1e-9, math.nan])
    def test_non_positive_waist_raises(self, beam, w0):
        with pytest.raises(ValueError, match="w0 must be positive"):
            width_function(w0, beam, 0.0)
        with pytest.raises(ValueError, match="w0 must be positive"):
            width_function_exact(w0, beam, 0.0)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(15, 1e-6)
        with pytest.raises(ValueError):
            GridSpec(17, 1e-6)
        with pytest.raises(ValueError):
            GridSpec(64, 0.0)
        for side in (math.inf, math.nan):
            with pytest.raises(InvalidGridError, match="positive and finite"):
                GridSpec(64, side)

    def test_samples_per_side_must_be_an_integer(self):
        for n in (64.0, True, "64"):
            with pytest.raises(InvalidGridError, match="even integer"):
                GridSpec(n, 1e-6)
        assert GridSpec(np.int64(64), 1e-6).samples_per_side == 64

    def test_pixel_centres_avoid_origin(self):
        grid = GridSpec(64, 1e-6)
        assert np.all(np.abs(grid.axis()) >= grid.pitch / 2 - 1e-18)

    def test_complex_field_shape_check(self):
        grid = GridSpec(16, 1e-6)
        with pytest.raises(ValueError):
            ComplexField(grid, 0.0, np.zeros((16, 8), dtype=complex))
        # factors are (R, N) pairs of one shape
        for y, x in ((np.ones((2, 16)), np.ones((3, 16))),
                     (np.ones((2, 8)), np.ones((2, 8))),
                     (np.ones(16), np.ones(16))):
            with pytest.raises(ValueError, match="factor shapes"):
                ComplexField(grid, 0.0, factors=(y, x))
