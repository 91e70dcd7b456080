"""Measurement operations against analytically constructed inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, ndimage

from evfaraday import (AngularProfile, GridSpec, analysis, angular_intensity,
                       circular_harmonic, effective_width, fidelity,
                       harmonic_fraction, mode_field, pattern_orientation,
                       petal_radius, radial_peak_radius, radial_profile,
                       unwrap_orientations)
from evfaraday.cli import main
from evfaraday.errors import GridMismatchError, NoPatternError
from evfaraday.modes import ComplexField


def synthetic_profile(fn, n=256, radius=1.0):
    phi = 2 * np.pi * np.arange(n) / n
    return AngularProfile(radius, fn(phi))


class TestAngularProfile:
    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            AngularProfile(1.0, np.ones(63))
        with pytest.raises(ValueError):
            AngularProfile(1.0, np.ones(96))   # not a power of two
        AngularProfile(1.0, np.ones(64))

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            AngularProfile(1.0, -np.ones(64))


def bilinear_gather_definition(field, radius, n_samples):
    """The circle's bilinear gather as four fancy-indexed reads: floor
    indices, the window of rows and columns the neighbours lie in, and the
    sum over (dy, dx) = 00, 01, 10, 11 of |a|^2 wy wx in that order."""
    grid = field.grid
    n = grid.samples_per_side
    phi = 2.0 * np.pi * np.arange(n_samples) / n_samples
    x = radius * np.cos(phi)
    y = radius * np.sin(phi)
    ix = x / grid.pitch + n / 2 - 0.5
    iy = y / grid.pitch + n / 2 - 0.5
    x0, y0 = np.floor(ix).astype(int), np.floor(iy).astype(int)
    wx0, wy0 = 1.0 - (ix - x0), 1.0 - (iy - y0)
    wx, wy = (wx0, 1.0 - wx0), (wy0, 1.0 - wy0)
    r0, c0 = y0.min(), x0.min()
    amps = field.window(slice(r0, y0.max() + 2), slice(c0, x0.max() + 2))
    y0, x0 = y0 - r0, x0 - c0
    return sum(np.abs(amps[y0 + dy, x0 + dx]) ** 2 * wy[dy] * wx[dx]
               for dy in (0, 1) for dx in (0, 1))


class TestAngularIntensity:
    def test_symmetric_mode(self, beam, w_b):
        field = mode_field(GridSpec(256, 8 * w_b), 0, 2, w_b)
        prof = angular_intensity(field, petal_radius(w_b, 2), 128)
        assert np.ptp(prof.samples) / prof.samples.mean() < 1e-3

    @pytest.mark.parametrize("radius_px", [3.2, 0.37 * 127, 127])
    def test_matches_order_one_map_coordinates(self, radius_px):
        # scipy's order-1 spline interpolation is the reference; a seeded
        # random field has no symmetry that could hide swapped axes
        n, n_samples = 256, 512
        grid = GridSpec(n, 1e-6)
        rng = np.random.default_rng(2024)
        amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        field = ComplexField(grid, 0.0, amps)
        radius = radius_px * grid.pitch   # 127 px is the largest radius
        prof = angular_intensity(field, radius, n_samples)
        phi = 2 * np.pi * np.arange(n_samples) / n_samples
        ix = radius * np.cos(phi) / grid.pitch + n / 2 - 0.5
        iy = radius * np.sin(phi) / grid.pitch + n / 2 - 0.5
        intensity = field.intensity()
        ref = ndimage.map_coordinates(intensity, np.vstack([iy, ix]),
                                      order=1, mode="nearest")
        assert np.max(np.abs(prof.samples - ref)) <= 1e-14 * intensity.max()

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_factored_field_reads_its_sub_block(self, w_b, l):
        # the +-l pair as factors: its profile comes from the block of
        # rows and columns the circle touches and equals the dense plane's
        n, n_samples = 256, 512
        grid = GridSpec(n, 12 * w_b)
        y, x = mode_field(grid, 0, l, w_b).factors
        y = (y + 0.6j * y[:, ::-1]) / 1.2
        pair = ComplexField(grid, 0.0, factors=(y, x))
        radius = petal_radius(w_b, l)
        prof = angular_intensity(pair, radius, n_samples)
        assert pair.plane is None
        dense = ComplexField(grid, 0.0, y.T @ x)
        intensity = dense.intensity()
        scale = 1e-14 * intensity.max()
        assert np.max(np.abs(
            prof.samples
            - angular_intensity(dense, radius, n_samples).samples)) <= scale
        phi = 2 * np.pi * np.arange(n_samples) / n_samples
        ix = radius * np.cos(phi) / grid.pitch + n / 2 - 0.5
        iy = radius * np.sin(phi) / grid.pitch + n / 2 - 0.5
        ref = ndimage.map_coordinates(intensity, np.vstack([iy, ix]),
                                      order=1, mode="nearest")
        assert np.max(np.abs(prof.samples - ref)) <= scale
        # the pair has 2|l| petals, so the profile is not flat
        assert np.ptp(prof.samples) > 0.5 * prof.samples.max()

    def test_radius_bounds(self, beam, w_b):
        field = mode_field(GridSpec(64, 8 * w_b), 0, 0, w_b)
        with pytest.raises(ValueError):
            angular_intensity(field, 5 * w_b, 64)
        with pytest.raises(ValueError):
            angular_intensity(field, 0.0, 64)

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(8, 128), radius_frac=st.floats(0.0, 1.0),
           n_samples=st.sampled_from([64, 256, 512, 1024]),
           l=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.filterwarnings(
        "ignore::evfaraday.errors.GridAdequacyWarning")
    def test_gather_is_bit_identical_to_definition(self, half, radius_frac,
                                                   n_samples, l, seed):
        # l = 0 draws a dense random plane, l >= 1 a factored +-l pair
        n = 2 * half
        grid = GridSpec(n, 1e-6)
        rng = np.random.default_rng(seed)
        if l == 0:
            field = ComplexField(grid, 0.0, rng.normal(size=(n, n))
                                 + 1j * rng.normal(size=(n, n)))
        else:
            y, x = mode_field(grid, 0, l, grid.physical_side_length / 8).factors
            y = y + rng.normal() * 1j * y[:, ::-1]
            field = ComplexField(grid, 0.0, factors=(y, x))
        # from one pixel up to the (n/2 - 1) pitch limit
        radius = (1.0 + radius_frac * (n / 2 - 2)) * grid.pitch
        expected = bilinear_gather_definition(field, radius, n_samples)
        first = angular_intensity(field, radius, n_samples)
        hits = analysis._ring_taps.cache_info().hits
        second = angular_intensity(field, radius, n_samples)
        assert analysis._ring_taps.cache_info().hits == hits + 1
        assert np.array_equal(first.samples, expected)
        assert np.array_equal(second.samples, first.samples)
        assert l == 0 or field.plane is None


class TestRingTaps:
    def test_rotate_builds_one_ring(self, tmp_path):
        # the 9 planes of a run share one circle: 1 miss, then 8 hits
        analysis._ring_taps.cache_clear()
        assert main(["rotate", "--grid-n", "128", "--outputs", "8",
                     "-o", str(tmp_path / "rot")]) == 0
        info = analysis._ring_taps.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 8, 1)

    def test_refusals_add_no_entry(self, w_b):
        field = mode_field(GridSpec(64, 8 * w_b), 0, 0, w_b)
        analysis._ring_taps.cache_clear()
        with pytest.raises(ValueError, match="outside the usable range"):
            angular_intensity(field, 5 * w_b, 64)
        for n_samples in (32, 96):
            with pytest.raises(ValueError, match="power of two"):
                angular_intensity(field, w_b, n_samples)
        assert analysis._ring_taps.cache_info().currsize == 0

    def test_cached_arrays_read_only(self):
        grid = GridSpec(64, 1e-6)
        rows, cols, *arrays = analysis._ring_taps(grid, 20 * grid.pitch, 256)
        assert (rows.stop - rows.start, cols.stop - cols.start) == (42, 42)
        for array in arrays:
            assert array.shape == (4, 256)
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0


class TestPatternOrientation:
    def test_cos_squared_oracle(self):
        prof = synthetic_profile(lambda phi: np.cos(phi - 0.3) ** 2)
        assert pattern_orientation(prof, 1) == pytest.approx(0.3, abs=1e-6)

    def test_l2_oracle(self):
        prof = synthetic_profile(lambda phi: np.cos(2 * (phi - 0.1)) ** 2)
        assert pattern_orientation(prof, 2) == pytest.approx(0.1, abs=1e-6)

    def test_uniform_profile_rejected(self):
        prof = synthetic_profile(lambda phi: np.ones_like(phi))
        with pytest.raises(NoPatternError):
            pattern_orientation(prof, 1)

    def test_negative_l_equivalent(self):
        prof = synthetic_profile(lambda phi: np.cos(phi - 0.4) ** 2)
        assert pattern_orientation(prof, -1) == pytest.approx(
            pattern_orientation(prof, 1), abs=1e-12)

    def test_result_in_principal_interval(self):
        for target in (0.0, 1.0, 2.5, 3.1):
            prof = synthetic_profile(lambda phi: np.cos(phi - target) ** 2)
            val = pattern_orientation(prof, 1)
            assert 0.0 <= val < math.pi
            assert val == pytest.approx(target % math.pi, abs=1e-6)


class TestOrientationProperties:
    @settings(max_examples=10, deadline=None)
    @given(l=st.integers(1, 3), phi0=st.floats(0.0, math.pi),
           noise=st.floats(0.0, 0.05), seed=st.integers(0, 2 ** 32 - 1))
    def test_quarter_turn_equivariance(self, l, phi0, noise, seed):
        # np.rot90 maps the pixel-centre grid onto itself with
        # B(x, y) = A(-y, x), a turn by -pi/2.  With 512 samples the circle
        # profile shifts by exactly 128 of them and the orientation by
        # -pi/2 mod pi/l, to rounding.
        grid = GridSpec(64, 1e-6)
        w = grid.physical_side_length / 8
        xg, yg = grid.meshgrid()
        z = (xg + 1j * yg) * np.exp(-1j * phi0) / w
        rng = np.random.default_rng(seed)
        speckle = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        # a petal pattern cos(l (phi - phi0)) made asymmetric by speckle
        amps = (np.real(z ** l) + noise * speckle) * np.exp(-np.abs(z) ** 2)
        radius = petal_radius(w, l)
        before = angular_intensity(ComplexField(grid, 0.0, amps), radius, 512)
        after = angular_intensity(ComplexField(grid, 0.0, np.rot90(amps)),
                                  radius, 512)
        scale = before.samples.max()
        assert (np.abs(after.samples - np.roll(before.samples, -128)).max()
                <= 1e-12 * scale)
        period = math.pi / l
        gap = (pattern_orientation(after, l)
               - (pattern_orientation(before, l) - math.pi / 2)) % period
        assert min(gap, period - gap) < 1e-9


class TestHarmonics:
    def test_fraction_of_full_modulation(self):
        prof = synthetic_profile(lambda phi: np.cos(3 * (phi - 0.2)) ** 2)
        assert harmonic_fraction(prof, 6) == pytest.approx(1.0, abs=1e-9)
        assert harmonic_fraction(prof, 2) == pytest.approx(0.0, abs=1e-9)

    def test_harmonic_resolution_limit(self):
        prof = synthetic_profile(lambda phi: np.ones_like(phi), n=64)
        with pytest.raises(ValueError):
            circular_harmonic(prof, 40)


class TestUnwrap:
    def test_branch_continuation(self):
        l = 2
        period = math.pi / l
        truth = np.linspace(0.0, 3.1 * period, 40)
        wrapped = truth % period
        recovered = unwrap_orientations(wrapped, l)
        assert np.allclose(recovered, truth, atol=1e-12)

    def test_negative_direction(self):
        truth = np.linspace(0.0, -2.4 * math.pi, 30)
        wrapped = truth % math.pi
        recovered = unwrap_orientations(wrapped, 1)
        assert np.allclose(recovered, truth, atol=1e-12)


class TestEffectiveWidth:
    def test_second_moment_quadrature_oracle(self):
        # <r^2> of the continuous mode equals w^2 (2n+|l|+1)/2
        w = 40e-9
        for n, l in [(0, 0), (0, 1), (1, 2)]:
            integrand = lambda r: radial_profile(n, l, r, w) ** 2 * r ** 3
            val, _ = integrate.quad(integrand, 0, 14 * w,
                                    epsabs=1e-30, epsrel=1e-11, limit=300)
            mean_r2 = 2 * math.pi * val
            assert mean_r2 == pytest.approx(w ** 2 * (2 * n + abs(l) + 1) / 2,
                                            rel=1e-8)

    def test_gaussian_width(self, beam, w_b):
        field = mode_field(GridSpec(192, 10 * w_b), 0, 0, w_b)
        assert effective_width(field, 0) == pytest.approx(w_b, rel=5e-3)

    def test_vortex_width(self, beam, w_b):
        field = mode_field(GridSpec(192, 10 * w_b), 0, 1, 0.8 * w_b)
        assert effective_width(field, 1) == pytest.approx(0.8 * w_b, rel=5e-3)

    def test_amplitude_scale_invariance(self, beam, w_b):
        field = mode_field(GridSpec(128, 8 * w_b), 0, 0, w_b)
        scaled = ComplexField(field.grid, 0.0, 3.7 * field.amplitudes)
        assert effective_width(scaled, 0) == effective_width(field, 0)

    def test_zero_field_rejected(self, w_b):
        grid = GridSpec(64, 8 * w_b)
        empty = ComplexField(grid, 0.0, np.zeros((64, 64), dtype=complex))
        with pytest.raises(ValueError):
            effective_width(empty)


class TestFidelity:
    def test_self_fidelity(self, beam, w_b):
        field = mode_field(GridSpec(128, 8 * w_b), 1, 1, w_b)
        assert fidelity(field, field) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_modes(self, beam, w_b):
        grid = GridSpec(128, 8 * w_b)
        a = mode_field(grid, 0, 1, w_b)
        b = mode_field(grid, 0, -1, w_b)
        c = mode_field(grid, 1, 1, w_b)
        assert fidelity(a, b) < 1e-4
        assert fidelity(a, c) < 1e-4

    def test_global_phase_invariance(self, beam, w_b):
        field = mode_field(GridSpec(128, 8 * w_b), 0, 2, w_b)
        rotated = ComplexField(field.grid, 0.0,
                               np.exp(1j * 0.7) * field.amplitudes)
        assert fidelity(field, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch(self, beam, w_b):
        a = mode_field(GridSpec(64, 8 * w_b), 0, 0, w_b)
        b = mode_field(GridSpec(128, 8 * w_b), 0, 0, w_b)
        with pytest.raises(GridMismatchError):
            fidelity(a, b)


class TestRadialPeak:
    def test_vortex_peak_radius(self, beam, w_b):
        grid = GridSpec(192, 10 * w_b)
        field = mode_field(grid, 0, 2, w_b)
        assert radial_peak_radius(field) == pytest.approx(
            petal_radius(w_b, 2), abs=1.5 * grid.pitch)

    def test_cached_bins_match_direct_binning(self):
        # the radius bins are cached per grid; fields on grids that share
        # a size or a side, read in turn, each get their own binning
        rng = np.random.default_rng(2502)
        grids = [GridSpec(32, 1e-6), GridSpec(32, 2e-6), GridSpec(48, 1e-6)]
        for grid in grids * 3:
            n = grid.samples_per_side
            amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            field = ComplexField(grid, 0.0, amps)
            xg, yg = grid.meshgrid()
            bins = np.floor(np.hypot(xg, yg) / grid.pitch).astype(int)
            sums = np.bincount(bins.ravel(), weights=np.abs(amps).ravel() ** 2)
            mean = sums / np.maximum(np.bincount(bins.ravel()), 1)
            peak = int(np.argmax(mean[:n // 2 - 1])) + 0.5
            assert radial_peak_radius(field) == max(peak, 2.0) * grid.pitch
