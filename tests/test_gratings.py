"""Hologram synthesis against the threshold rule evaluated independently,
plus diffraction-order structure, symmetry and separation checks."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from evfaraday import (BeamParameters, BinaryMask, ComplexField,
                       ELEMENTARY_CHARGE, FarField, GridSpec, HologramSpec,
                       PlaneReference, SphericalReference, angular_intensity,
                       base_wavenumber, default_carrier, design_value,
                       diffract_far_field, effective_width,
                       exact_steps_per_plane, extract_orders,
                       harmonic_fraction, isolate_chirped_order,
                       locate_minimum_width_plane, make_plan,
                       pattern_orientation, propagate_definite_l,
                       radial_peak_radius, spherical_focus_distance,
                       synthesize_hologram)
from evfaraday import gratings
from evfaraday.core import ELECTRON_MASS, HBAR
from evfaraday.gratings import _aperture_kernel
from evfaraday.errors import (CarrierResolutionError, ContainmentError,
                              OrderSeparationError)
from evfaraday.fileio import write_frame_pgm

E60 = 60e3 * ELEMENTARY_CHARGE
BEAM = BeamParameters(E60, 0.0)


def padded_transform_definition(values, pad):
    """The centred unitary transform of the zero-padded array, written out
    literally: the reference the far field is checked against.  n is even,
    so the array is centred with equal padding on each side."""
    n = values.shape[0]
    padded = np.pad(values, n * (pad - 1) // 2).astype(np.complex128)
    return scipy.fft.fftshift(scipy.fft.fft2(scipy.fft.ifftshift(padded),
                                             norm="ortho"))


SPECTRUM_CASES = [(16, 1), (16, 3), (32, 4), (48, 8)]


def plane_spec(grid, fringes=32, l=1, phi0=0.0):
    k_x = 2 * math.pi * fringes / grid.physical_side_length
    return HologramSpec(l, phi0, PlaneReference(k_x))


def threshold_oracle(spec, grid):
    """The mask by its definition: design_value > 1/2 at every pixel centre,
    evaluated on the N x N plane, inside the inscribed aperture."""
    x = grid.axis()
    return ((design_value(spec, x[np.newaxis, :], x[:, np.newaxis]) > 0.5)
            & gratings._inscribed_aperture(grid.samples_per_side))


class TestDesignValue:
    def test_bright_probe_on_axis_direction(self):
        spec = plane_spec(GridSpec(64, 1e-6))
        # phi = 0, x = 0: (1/3)|2 + 1|^2 = 3
        assert design_value(spec, 0.0, 0.0) == pytest.approx(3.0, rel=1e-12)

    def test_nodal_line_value(self):
        spec = plane_spec(GridSpec(64, 1e-6))
        # phi = pi/2 (x = 0, y > 0): cos term vanishes, value 1/3 < 1/2
        for y in (1e-9, 3e-8, 4.9e-7):
            assert design_value(spec, 0.0, y) == pytest.approx(1 / 3, rel=1e-12)

    def test_mask_matches_independent_formula(self):
        grid = GridSpec(128, 1e-6)
        spec = plane_spec(grid, fringes=16, l=2, phi0=0.4)
        mask = synthesize_hologram(spec, grid)
        xg, yg = grid.meshgrid()
        phi = np.arctan2(yg, xg)
        value = np.abs(2 * np.cos(spec.l * (phi - spec.phi0))
                       + np.exp(1j * spec.reference.k_x * xg)) ** 2 / 3
        aperture = xg ** 2 + yg ** 2 <= (grid.physical_side_length / 2) ** 2
        expected = ((value > 0.5) & aperture).astype(np.uint8)
        assert np.array_equal(mask.values, expected)

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_axis_design_equals_meshgrid_design(self, n, l):
        # the mask evaluates the design on the axes, broadcast to the
        # plane; it must equal the design evaluated on the full meshgrid
        grid = GridSpec(n, 1e-6)
        xg, yg = grid.meshgrid()
        aperture = gratings._inscribed_aperture(n)
        # fringes and the finest zones are 8 pixels wide
        pitch, r_max = grid.pitch, grid.physical_side_length / 2
        for reference in (PlaneReference(2 * math.pi / (8 * pitch)),
                          SphericalReference(-math.pi / (8 * pitch * r_max))):
            spec = HologramSpec(l, 0.3 * l, reference)
            expected = (design_value(spec, xg, yg) > 0.5) & aperture
            assert np.array_equal(synthesize_hologram(spec, grid).values,
                                  expected.astype(np.uint8))

    def test_nodal_line_pixels_dark(self):
        grid = GridSpec(128, 1e-6)
        mask = synthesize_hologram(plane_spec(grid, fringes=16), grid)
        n = grid.samples_per_side
        # pixel columns adjacent to x = 0 sit near phi = +-pi/2 where the
        # metric is ~1/3; away from the axis (|cos phi| < 1/24) they are
        # closed, while a few near-axis pixels may legitimately open
        for col in (n // 2 - 1, n // 2):
            assert mask.values[:n // 2 - 16, col].sum() == 0
            assert mask.values[n // 2 + 16:, col].sum() == 0


class TestMaskGeometry:
    def test_half_period_fringe_offset(self):
        # fringes on opposite sides of the l=1 nodal line are shifted by
        # half a carrier period: compare the near-axis row left/right of x=0
        grid = GridSpec(256, 1e-6)
        fringes = 16
        mask = synthesize_hologram(plane_spec(grid, fringes=fringes), grid)
        n = grid.samples_per_side
        period_px = n // fringes
        row = mask.values[n // 2, :].astype(int)
        right = row[n // 2:n // 2 + 4 * period_px]
        left = row[n // 2 - 4 * period_px:n // 2][::-1]
        # correlate over whole periods; the maximum must sit half a period off
        lags = range(period_px)
        scores = [np.sum(right == np.roll(left, lag)) for lag in lags]
        assert abs(int(np.argmax(scores)) - period_px // 2) <= 1

    def test_phi0_shift_by_pi_over_l_preserves_order_structure(self):
        # shifting phi0 by pi/l negates the encoded amplitude, which moves
        # every fringe by half a carrier period; the observables of each
        # diffraction order (petal orientation mod pi/l and its modulation
        # depth) are invariant
        grid = GridSpec(256, 1e-6)
        for l in (1, 2):
            measured = []
            for phi0 in (0.3, 0.3 + math.pi / l):
                spec = plane_spec(grid, fringes=40, l=l, phi0=phi0)
                mask = synthesize_hologram(spec, grid)
                far = diffract_far_field(mask, 8)
                field = extract_orders(far, spec)[+1]
                prof = angular_intensity(field, radial_peak_radius(field), 256)
                measured.append((pattern_orientation(prof, l),
                                 harmonic_fraction(prof, 2 * l)))
            (ori_a, frac_a), (ori_b, frac_b) = measured
            period = math.pi / l
            delta = abs(ori_a - ori_b)
            assert min(delta, period - delta) < math.radians(0.5)
            assert frac_b == pytest.approx(frac_a, rel=0.05)

    def test_aperture_applied(self):
        grid = GridSpec(128, 1e-6)
        mask = synthesize_hologram(plane_spec(grid, fringes=16), grid)
        xg, yg = grid.meshgrid()
        outside = xg ** 2 + yg ** 2 > (grid.physical_side_length / 2) ** 2
        assert mask.values[outside].sum() == 0

    def test_carrier_resolution_guard(self):
        grid = GridSpec(64, 1e-6)
        with pytest.raises(CarrierResolutionError):
            synthesize_hologram(plane_spec(grid, fringes=20), grid)

    def test_binary_values_enforced(self):
        grid = GridSpec(16, 1e-6)
        with pytest.raises(ValueError):
            BinaryMask(grid, 2 * np.ones((16, 16)))
        with pytest.raises(ValueError, match="shape does not match grid"):
            BinaryMask(grid, np.ones((16, 8)))

    @pytest.mark.parametrize("value, accepted", [
        (0.0, True), (1.0, True), (-0.0, True), (True, True), (False, True),
        (np.nan, False), (2, False), (0.5, False), (-1.0, False)])
    def test_mask_value_rule(self, value, accepted):
        # exactly the values equal to 0 or 1, of any dtype, are binary
        values = np.zeros((16, 16), dtype=np.asarray(value).dtype)
        values[3, 4] = value
        if not accepted:
            with pytest.raises(ValueError, match="strictly binary"):
                BinaryMask(GridSpec(16, 1e-6), values)
            return
        mask = BinaryMask(GridSpec(16, 1e-6), values)
        assert mask.values.dtype == np.uint8
        assert mask.values[3, 4] == (value == 1)
        assert mask.values.sum() == (value == 1)

    def test_default_carrier_resolves_ten_fringes(self):
        grid = GridSpec(128, 1e-6)
        assert default_carrier(grid) == pytest.approx(
            2 * math.pi * 10 / grid.physical_side_length, rel=1e-12)


#: phi0 = factor * pi / l**power: angles on the petal lattice and the axes
SPECIAL_PHI0 = [(0.0, 0), (0.25, 0), (0.5, 0), (1.0, 1), (-0.5, 1)]


class TestPlaneRasteriser:
    """A plane mask is built from the threshold's crossings column by
    column; it must equal the threshold at every pixel, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(8, 512).map(lambda h: 2 * h), l=st.integers(1, 8),
           phi0=st.floats(-4 * math.pi, 4 * math.pi),
           special=st.one_of(st.none(), st.sampled_from(SPECIAL_PHI0)),
           fringes=st.floats(0.0, 1.0))
    @example(n=100, l=3, phi0=0.0, special=(1.0, 1), fringes=1.0)
    @example(n=384, l=8, phi0=0.0, special=(-0.5, 1), fringes=0.0)
    @example(n=16, l=1, phi0=0.0, special=(0.25, 0), fringes=1.0)
    def test_plane_mask_equals_threshold(self, n, l, phi0, special, fringes):
        if special is not None:
            factor, power = special
            phi0 = factor * math.pi / l ** power
        # a dyadic pitch makes the 4-pixel carrier limit exact; fringes
        # runs from one fringe across the grid (0) to that limit (1)
        grid = GridSpec(n, n * 2.0 ** -20)
        limit = math.pi / (2 * grid.pitch)
        k_x = limit * (4 / n) ** (1 - fringes)
        spec = HologramSpec(l, phi0, PlaneReference(k_x))
        mask = synthesize_hologram(spec, grid)
        assert np.array_equal(mask.values, threshold_oracle(spec, grid))

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(1, 4), fringes=st.floats(2.0, 14.0),
           col=st.integers(0, 63), row=st.integers(0, 63),
           root=st.sampled_from([1, -1]), sign=st.sampled_from([1, -1]))
    def test_crossing_through_a_pixel_centre(self, l, fringes, col, row,
                                             root, sign):
        # phi0 is chosen so that a crossing, cos(psi) = a or b, runs through
        # one pixel centre: its design is 1/2 to rounding, and which side
        # the pixel takes is decided by design_value alone, not by where
        # the crossing's row was estimated
        grid = GridSpec(64, 1e-6)
        k_x = 2 * math.pi * fringes / grid.physical_side_length
        x = grid.axis()
        c = math.cos(k_x * x[col])
        bound = (root * math.sqrt(c * c + 0.5) - c) / 2
        assume(abs(bound) <= 1)
        phi0 = math.atan2(x[row], x[col]) - sign * math.acos(bound) / l
        spec = HologramSpec(l, phi0, PlaneReference(k_x))
        assert design_value(spec, x[col], x[row]) == pytest.approx(0.5)
        mask = synthesize_hologram(spec, grid)
        assert np.array_equal(mask.values, threshold_oracle(spec, grid))

    def test_no_plane_sized_design_call(self, monkeypatch):
        # the plane design is read at the runs' first, middle and last
        # pixels, O(N l) points, never on the N x N plane
        n = 512
        grid = GridSpec(n, 1e-6)
        spec = HologramSpec(3, 0.4, PlaneReference(2.5e8))
        expected = threshold_oracle(spec, grid)
        sizes = []

        def recording(spec, x, y):
            sizes.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
            return design_value(spec, x, y)
        monkeypatch.setattr(gratings, "design_value", recording)
        mask = synthesize_hologram(spec, grid)
        assert sizes and max(sizes) < n * n // 8
        assert np.array_equal(mask.values, expected)

    @pytest.mark.parametrize("n", [16, 64, 100])
    def test_petal_resolution_limit(self, n):
        # the petal period 2 pi / l spans pi N / l pixels along the rim:
        # l = floor(pi N / 4) is the last l it keeps at 4 pixels or more
        grid = GridSpec(n, 1e-6)
        top = math.floor(math.pi * n / 4)
        pitch, r_max = grid.pitch, grid.physical_side_length / 2
        for reference in (PlaneReference(2 * math.pi / (8 * pitch)),
                          SphericalReference(-math.pi / (8 * pitch * r_max))):
            spec = HologramSpec(top, 0.3, reference)
            mask = synthesize_hologram(spec, grid)
            assert np.array_equal(mask.values, threshold_oracle(spec, grid))
            with pytest.raises(CarrierResolutionError,
                               match="petal period .* under 4 pixels"):
                synthesize_hologram(HologramSpec(top + 1, 0.3, reference),
                                    grid)

    def test_huge_vorticity_refused_without_overflow(self):
        grid = GridSpec(64, 1e-6)
        spec = HologramSpec(10 ** 400, 0.0, PlaneReference(1e8))
        with pytest.raises(CarrierResolutionError, match="petal period"):
            synthesize_hologram(spec, grid)

    @pytest.mark.parametrize("l", [np.int64(2), np.uint8(3), 5])
    def test_integer_vorticity_accepted(self, l):
        spec = HologramSpec(l, np.float64(0.2), PlaneReference(1e8))
        grid = GridSpec(64, 1e-6)
        assert np.array_equal(synthesize_hologram(spec, grid).values,
                              threshold_oracle(spec, grid))

    @pytest.mark.parametrize("l", [True, 2.0, 1.5, np.float64(3.0), "2"])
    def test_non_integer_vorticity_refused(self, l):
        with pytest.raises(ValueError, match="must be an integer"):
            HologramSpec(l, 0.0, PlaneReference(1e8))

    @pytest.mark.parametrize("phi0", [math.nan, math.inf, -math.inf,
                                      np.float64("nan")])
    def test_non_finite_phi0_refused(self, phi0):
        # a nan phi0 once gave an all-dark mask
        with pytest.raises(ValueError, match="phi0 must be finite"):
            HologramSpec(1, phi0, PlaneReference(1e8))

    @pytest.mark.parametrize("reference", [None, 1e8, "plane"])
    def test_unknown_reference_refused(self, reference):
        with pytest.raises(TypeError, match="reference must be"):
            HologramSpec(1, 0.0, reference)


class TestFarField:
    def test_uniform_mask_single_central_peak(self):
        grid = GridSpec(64, 1e-6)
        ones = BinaryMask(grid, np.ones((64, 64), dtype=np.uint8))
        far = diffract_far_field(ones, pad_factor=1)
        intensity = np.abs(far.amplitudes) ** 2
        centre = 64 // 2
        peak = intensity[centre, centre]
        intensity[centre, centre] = 0.0
        assert peak > 0
        assert intensity.max() < 1e-20 * peak

    def test_parseval(self):
        grid = GridSpec(128, 1e-6)
        mask = synthesize_hologram(plane_spec(grid, fringes=16), grid)
        for pad in (1, 4):
            far = diffract_far_field(mask, pad)
            total = float((np.abs(far.amplitudes) ** 2).sum())
            assert total == pytest.approx(float(mask.values.sum()), rel=1e-10)

    def test_shift_theorem(self):
        grid = GridSpec(128, 1e-6)
        mask = synthesize_hologram(plane_spec(grid, fringes=16), grid)
        rolled = BinaryMask(grid, np.roll(mask.values, 1, axis=1))
        a = np.abs(diffract_far_field(mask, 1).amplitudes) ** 2
        b = np.abs(diffract_far_field(rolled, 1).amplitudes) ** 2
        assert np.allclose(a, b, rtol=0, atol=1e-9 * a.max())

    def test_energy_sits_at_carrier_orders(self):
        grid = GridSpec(256, 1e-6)
        fringes = 32
        mask = synthesize_hologram(plane_spec(grid, fringes=fringes), grid)
        far = diffract_far_field(mask, 2)
        intensity = np.abs(far.amplitudes) ** 2
        m = far.grid.samples_per_side
        c = m // 2
        off = fringes * 2   # carrier offset in far-field pixels at pad 2
        half = off // 2

        def window(col, h):
            return intensity[c - h:c + h, col - h:col + h].sum()

        three = window(c, half) + window(c + off, half) + window(c - off, half)
        assert three > 0.5 * intensity.sum()
        # tight non-overlapping windows: an order centre dominates the
        # midpoint between orders
        tight = off // 4
        assert window(c + off, tight) > 10 * window(c + off // 2, tight)

    @pytest.mark.parametrize("n, pad", SPECTRUM_CASES)
    def test_matches_padded_transform_definition(self, n, pad):
        mask = random_mask(n, 7 * n + pad)
        # an asymmetric mask, so swapped x/y axes would show
        assert not np.array_equal(mask.values, mask.values.T)
        expected = padded_transform_definition(mask.values, pad)
        got = diffract_far_field(mask, pad).amplitudes
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("n, pad", SPECTRUM_CASES)
    def test_aperture_kernel_matches_definition(self, n, pad):
        # the cached kernel is the column power of the band of rows m/2 -
        # half..m/2 + half - 1 that extract_orders reads, and the disk's
        # open-pixel count
        idx = np.arange(n) - n / 2 + 0.5
        xg, yg = np.meshgrid(idx, idx)
        disk = (xg ** 2 + yg ** 2 <= (n / 2.0) ** 2).astype(np.float64)
        expected = np.abs(padded_transform_definition(disk, pad)) ** 2
        h = n * pad // 2
        for half in (1, 3, h // 2, h - 1, h):
            power, count = _aperture_kernel(n, pad, half)
            assert power.shape == (2 * h,)
            columns = expected[h - half:h + half].sum(axis=0)
            assert (np.abs(power - columns).max()
                    <= 1e-13 * columns.max())
            assert count == int(disk.sum())
        # Parseval: the whole plane sums to the count
        assert power.sum() == pytest.approx(count, rel=1e-12)


def random_mask(n, seed):
    rng = np.random.default_rng(seed)
    return BinaryMask(GridSpec(n, 1e-6),
                      (rng.random((n, n)) < 0.5).astype(np.uint8))


def poison_rfft(monkeypatch, bad, j):
    """From now on every rfft writes bad at bin j of mask column 5 of its
    block, or at every bin of every column for j None: a non-finite value
    in the column spectrum, which no binary mask can produce."""
    rfft = np.fft.rfft

    def poisoned(*args, **kwargs):
        out = rfft(*args, **kwargs)
        if j is None:
            out[...] = bad
        else:
            out[5, j] = bad
        return out

    monkeypatch.setattr(np.fft, "rfft", poisoned)


def record_finishes(monkeypatch):
    """The (lo, hi) of every FarField._finish call from now on."""
    calls = []
    finish = FarField._finish

    def recording(self, lo, hi, out):
        calls.append((lo, hi))
        return finish(self, lo, hi, out)

    monkeypatch.setattr(FarField, "_finish", recording)
    return calls


def expected_finishes(far, peak):
    """Row m/2 for the peak, then in ascending order the blocks of rows
    0..m/2 that are not dark.  Row j is dark when (sum_x |columns[x, j]|)^2
    / m, a bound on its intensity, is below (0.5 / 255) peak (1 - 1e-3):
    all its pixels then quantise to zero."""
    m = far.grid.samples_per_side
    h = m // 2
    bound = np.abs(far.columns).sum(axis=0) ** 2 / m
    dark = bound < 0.5 / 255 * peak * (1 - 1e-3)
    block = gratings.QUANTISE_BLOCK_ROWS
    return [(h, h + 1)] + [(lo, min(lo + block, h + 1))
                           for lo in range(0, h + 1, block)
                           if not dark[lo:lo + block].all()]


def assert_skipped_blocks_dark(finished, intensity, peak):
    """Every block of rows 0..m/2 that frame() did not finish is below half
    a level in the double-precision intensity, so its bytes are zero."""
    h = intensity.shape[0] // 2
    block = gratings.QUANTISE_BLOCK_ROWS
    for lo in range(0, h + 1, block):
        if (lo, min(lo + block, h + 1)) not in finished:
            assert intensity[lo:lo + block].max() < 0.5 / 255 * peak


def assert_zero_order_peak(peak, intensity, values, pad):
    """peak is the zero frequency's intensity, the centre pixel of the
    double-precision intensity of the n x n mask values, m = n * pad:
    within rounding of (open pixels / m)^2 and of the largest pixel."""
    m = values.shape[0] * pad
    assert peak == intensity[m // 2, m // 2]
    exact = int(np.count_nonzero(values)) ** 2 / m ** 2
    assert abs(peak - exact) <= 1e-13 * exact
    assert intensity.max() <= peak * (1 + 1e-13)


#: Distance from a half level within which a frame byte may round either
#: way: an empirical margin, not a bound.  The frame's 255 I / peak is
#: computed in single precision; its largest distance from the double-
#: precision value measured 3.1e-4 of a level (one open pixel, n = 254,
#: pad 1), 2.1e-4 over 800 random masks of density 0.001-1 and 1.2e-4 over
#: plane holograms l = 1-5, both at the BLOCK_CASES shapes.
HALF_LEVEL_TOLERANCE = 1e-3


def assert_quantised(gray, intensity, peak):
    """gray equals rint(255 intensity / peak) of a double-precision
    intensity, except at pixels within HALF_LEVEL_TOLERANCE of a half
    level, which may differ by one level; all zeros for an empty mask."""
    if peak == 0:
        assert not gray.any() and not intensity.any()
        return
    scaled = 255.0 * intensity / peak
    expected = np.rint(scaled)
    differs = gray != expected
    near_tie = np.abs(scaled - np.floor(scaled) - 0.5) <= HALF_LEVEL_TOLERANCE
    assert not (differs & ~near_tie).any()
    assert np.abs(gray - expected).max() <= 1


class TestHalfPlaneFarField:
    """Rows 0..m/2 of the far field hold all of it; every other row is a
    point-mirrored conjugate of one of them."""

    @pytest.mark.parametrize("n, pad", SPECTRUM_CASES)
    def test_intensity_exactly_point_symmetric(self, n, pad):
        far = diffract_far_field(random_mask(n, 11 * n + pad), pad)
        intensity = np.abs(far.amplitudes) ** 2
        m = far.grid.samples_per_side
        assert intensity.shape == (m, m)
        # I[j, c] == I[(m - j) % m, (m - c) % m], bit for bit
        mirrored = np.roll(intensity[::-1, ::-1], 1, axis=(0, 1))
        assert np.array_equal(intensity, mirrored)

    @pytest.mark.parametrize("n, pad", SPECTRUM_CASES)
    def test_rows_match_padded_transform_definition(self, n, pad):
        mask = random_mask(n, 13 * n + pad)
        far = diffract_far_field(mask, pad)
        expected = padded_transform_definition(mask.values, pad)
        m = far.grid.samples_per_side
        got = far.amplitudes
        assert got.shape == (m, m)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("pad", [0, -2])
    def test_padding_below_one_refused(self, pad):
        mask = random_mask(16, 3)
        with pytest.raises(ValueError, match="pad_factor must be >= 1"):
            diffract_far_field(mask, pad)

    def test_half_plane_shape_checked(self):
        # the stored bins are (n, k) with n the mask's side dividing m and
        # 1 <= k <= m/2 + 1, the bound has one entry per bin 0..m/2, and
        # the padding is derived from the mask: pad_factor = m / n
        n = 16
        mask = BinaryMask(GridSpec(n, 1e-6), np.zeros((n, n)))
        bound = np.zeros(17)
        for m in (16, 32, 64):
            grid = GridSpec(m, 1.0)
            for k in (1, m // 4, m // 2 + 1):
                far = FarField(grid, mask,
                               np.zeros((n, k), np.complex128),
                               np.zeros(m // 2 + 1))
                assert far.pad_factor == m // n
                assert far.first == m // 2 + 1 - k
        grid = GridSpec(32, 1.0)
        for shape in ((16, 18), (16, 0), (8, 17), (32, 17), (17,),
                      (16, 17, 1)):
            with pytest.raises(ValueError, match="column spectrum shape"):
                FarField(grid, mask, np.zeros(shape, np.complex128), bound)
        with pytest.raises(ValueError, match="column spectrum shape"):
            FarField(GridSpec(40, 1.0), mask,
                     np.zeros((16, 21), np.complex128), np.zeros(21))
        for shape in ((16,), (18,), (17, 1)):
            with pytest.raises(ValueError, match="dark-row bound shape"):
                FarField(grid, mask, np.zeros((16, 17), np.complex128),
                         np.zeros(shape))

    @pytest.mark.parametrize("n, fringes, pad", [(256, 40, 4), (192, 40, 4)])
    def test_extract_order_matches_definition_crops(self, n, fringes, pad):
        grid = GridSpec(n, 1e-6)
        spec = plane_spec(grid, fringes=fringes, l=2, phi0=0.3)
        mask = synthesize_hologram(spec, grid)
        far = diffract_far_field(mask, pad)
        expected = padded_transform_definition(mask.values, pad)
        m = far.grid.samples_per_side
        carrier_px = spec.reference.k_x / (2 * math.pi) / far.grid.pitch
        half = int(carrier_px / 2)
        rows = slice(m // 2 - half, m // 2 + half)
        fields = extract_orders(far, spec)
        assert list(fields) == [-1, 0, 1]
        for order in (-1, 0, 1):
            col = m // 2 + round(order * carrier_px)
            crop = expected[rows, col - half:col + half]
            crop = crop / math.sqrt(float(np.sum(np.abs(crop) ** 2))
                                    * far.grid.pitch ** 2)
            got = fields[order].amplitudes
            assert got.shape == crop.shape
            assert np.abs(got - crop).max() <= 1e-13 * np.abs(crop).max()

    def test_crops_reach_column_zero(self):
        # a carrier for which order -1's window starts at column 0: order
        # +1's window then ends at column m, and the mirror of column 0 is
        # column 0 itself, (m - c) % m.  The fringes are under 4 pixels, so
        # the design is thresholded here without the resolution guard.
        n, pad = 128, 2
        grid = GridSpec(n, 1e-6)
        spec = plane_spec(grid, fringes=42.8, l=1, phi0=0.3)
        values = threshold_oracle(spec, grid).astype(np.uint8)
        far = diffract_far_field(BinaryMask(grid, values), pad)
        expected = padded_transform_definition(values, pad)
        m = far.grid.samples_per_side
        carrier_px = spec.reference.k_x / (2 * math.pi) / far.grid.pitch
        half = int(carrier_px / 2)
        assert m // 2 - round(carrier_px) - half == 0
        rows = slice(m // 2 - half, m // 2 + half)
        fields = extract_orders(far, spec)
        for order in (-1, 0, 1):
            col = m // 2 + round(order * carrier_px)
            crop = expected[rows, col - half:col + half]
            crop = crop / math.sqrt(float(np.sum(np.abs(crop) ** 2))
                                    * far.grid.pitch ** 2)
            got = fields[order].amplitudes
            assert np.abs(got - crop).max() <= 1e-13 * np.abs(crop).max()

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([16, 32, 64]), pad=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_quarter_turn_rotates_intensity(self, n, pad, seed):
        # rot90 maps pixel-centre coordinates exactly, so the far field turns
        # with the mask; the centred frequency layout puts zero at index m/2,
        # which the turn moves to m/2 - 1 along the new row axis, hence the
        # one-row roll.  Swapped axes in the transform would break it.
        mask = random_mask(n, seed)
        turned = BinaryMask(mask.grid, np.rot90(mask.values))
        intensity = np.abs(diffract_far_field(mask, pad).amplitudes) ** 2
        got = np.abs(diffract_far_field(turned, pad).amplitudes) ** 2
        expected = np.roll(np.rot90(intensity), 1, axis=0)
        assert np.abs(got - expected).max() <= 1e-13 * intensity.max()


class TestFarFieldFrame:
    """farfield.pgm is quantised on rows 0..m/2, a block at a time in single
    precision against the zero-frequency intensity, and point-mirrored as
    bytes; its bytes equal quantising the full-plane intensity but at near
    ties of a half level."""

    @staticmethod
    def full_plane_files(far):
        """PGM bytes and sidecar peak of the full-plane reference:
        rint(255 I / I.max()) of I = |FarField.amplitudes|^2."""
        intensity = np.abs(far.amplitudes) ** 2
        peak = float(intensity.max())
        if peak > 0:
            gray = np.rint(255.0 * intensity / peak).astype(np.uint8)
        else:
            gray = np.zeros(intensity.shape, dtype=np.uint8)
        m = far.grid.samples_per_side
        return f"P5\n{m} {m}\n255\n".encode() + gray.tobytes(), peak

    @staticmethod
    def written(far, tmp_path):
        path = tmp_path / "farfield.pgm"
        write_frame_pgm(str(path), *far.frame())
        sidecar = json.loads((tmp_path / "farfield.pgm.json").read_text())
        return path.read_bytes(), sidecar["max_intensity"]

    @pytest.mark.parametrize("l", [1, 3])
    @pytest.mark.parametrize("pad", [4, 1])
    def test_equals_full_plane_quantisation(self, tmp_path, l, pad):
        # at pad 1 the far field has no zero padding (m = n)
        grid = GridSpec(128, 1e-6)
        mask = synthesize_hologram(plane_spec(grid, fringes=24, l=l,
                                              phi0=0.4), grid)
        far = diffract_far_field(mask, pad)
        blob, peak = self.written(far, tmp_path)
        m = far.grid.samples_per_side
        intensity = np.abs(far.amplitudes) ** 2
        assert peak > 0
        assert_zero_order_peak(peak, intensity, mask.values, pad)
        header = f"P5\n{m} {m}\n255\n".encode()
        assert blob.startswith(header)
        gray = np.frombuffer(blob[len(header):], np.uint8).reshape(m, m)
        assert_quantised(gray, intensity, peak)
        # the mirrored half of the frame is not all one value
        assert len(set(blob[-(128 * pad) ** 2 // 2:])) > 2

    def test_zero_mask(self, tmp_path):
        grid = GridSpec(64, 1e-6)
        far = diffract_far_field(BinaryMask(grid, np.zeros((64, 64))), 4)
        blob, peak = self.written(far, tmp_path)
        assert (blob, peak) == self.full_plane_files(far)
        assert peak == 0.0
        assert blob == b"P5\n256 256\n255\n" + bytes(256 * 256)
        assert (tmp_path / "farfield.pgm.json").read_text() == (
            '{"max_intensity": 0.0}\n')

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["first block", "row m/2", "all"])
    def test_non_finite_columns_refused(self, bad, where, monkeypatch):
        # a nan or inf in the column spectrum makes its bin's dark-row
        # bound non-finite and spreads along its far-field row; the frame
        # is refused rather than quantised into garbage bytes and a peak
        # that hides it (the transform of an inf may warn of the invalid
        # value first)
        j = {"first block": 9, "row m/2": 64, "all": None}[where]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with monkeypatch.context() as patch:
                poison_rfft(patch, bad, j)
                broken = diffract_far_field(random_mask(32, 7), 4)
            assert not np.isfinite(broken.bound[j or 0])
            if where == "first block":
                message = ("far-field intensity (nan|inf) in rows 0..63 is "
                           "not within half a level of the zero-order peak")
            else:
                # row m/2 holds the zero frequency, so the peak is lost
                message = "far-field zero-order peak (nan|inf) is not finite"
            with pytest.raises(ValueError, match=message):
                broken.frame()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_dark_row_refused(self, bad, monkeypatch):
        # rows 0..63 of the disk's far field (m = 256) are dark and left
        # unfinished; a nan or inf in one of them makes that row's bound
        # non-finite, so its block is finished and refused
        values = gratings._inscribed_aperture(64).astype(np.uint8)
        mask = BinaryMask(GridSpec(64, 1e-6), values)
        far = diffract_far_field(mask, 4)
        finished = record_finishes(monkeypatch)
        far.frame()
        assert (0, 64) not in finished
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            poison_rfft(monkeypatch, bad, 9)
            broken = diffract_far_field(mask, 4)
            assert np.isfinite(far.bound).all()
            assert not np.isfinite(broken.bound[9])
            with pytest.raises(ValueError, match=(
                    "far-field intensity (nan|inf) in rows 0..63 is not "
                    "within half a level of the zero-order peak")):
                broken.frame()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_below_band_refused(self, bad, monkeypatch):
        # the disk's far field keeping only a band of bins 112..128: a nan
        # or inf in dark row 9, below the band, makes its bound non-finite,
        # so its block is lit, transformed again and refused
        values = gratings._inscribed_aperture(64).astype(np.uint8)
        grid = GridSpec(64, 1e-6)
        spec = plane_spec(grid, fringes=8)
        finished = record_finishes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            poison_rfft(monkeypatch, bad, 9)
            broken = diffract_far_field(BinaryMask(grid, values), 4, spec)
            assert broken.first == 112
            with pytest.raises(ValueError, match=(
                    "far-field intensity (nan|inf) in rows 0..63 is not "
                    "within half a level of the zero-order peak")):
                broken.frame()
        assert finished == [(128, 129), (0, 64)]

    @staticmethod
    def degenerate_mask(case):
        """(values, pad) of masks with a nearly flat far field, where
        rounding may lift a pixel above the zero frequency and many pixels
        sit on or near a half level."""
        if case == "one pixel":
            values = np.zeros((16, 16), dtype=np.uint8)
            values[5, 9] = 1
            return values, 4
        if case == "two pixels":
            values = np.zeros((64, 64), dtype=np.uint8)
            values[10, 20] = values[40, 3] = 1
            return values, 2
        if case == "lattice":
            values = np.zeros((32, 32), dtype=np.uint8)
            values[::4, ::4] = 1
            return values, 1
        if case == "one column":
            # every far-field row has constant modulus, so its bound B_j is
            # each of its pixels: whole blocks lie between the dark
            # threshold and a few times it while holding bytes of 1-2
            values = np.zeros((64, 64), dtype=np.uint8)
            values[10:26, 23] = 1
            return values, 4
        return gratings._inscribed_aperture(64).astype(np.uint8), 4

    @pytest.mark.parametrize("case", ["one pixel", "two pixels", "lattice",
                                      "one column", "disk"])
    def test_degenerate_masks(self, tmp_path, monkeypatch, case):
        values, pad = self.degenerate_mask(case)
        n = values.shape[0]
        far = diffract_far_field(BinaryMask(GridSpec(n, 1e-6), values), pad)
        intensity = np.abs(far.amplitudes) ** 2
        finished = record_finishes(monkeypatch)
        blob, peak = self.written(far, tmp_path)
        m = far.grid.samples_per_side
        # the peak is the zero frequency's even where rounding lifts a
        # pixel of the double-precision intensity above it
        assert peak > 0
        assert_zero_order_peak(peak, intensity, values, pad)
        header = f"P5\n{m} {m}\n255\n".encode()
        assert blob.startswith(header)
        gray = np.frombuffer(blob[len(header):], np.uint8).reshape(m, m)
        assert_quantised(gray, intensity, peak)
        # row m/2 for the peak, then one ascending pass over the blocks
        # that are not dark; the disk's sidelobes leave rows 0..63 dark
        assert finished == expected_finishes(far, peak)
        assert_skipped_blocks_dark(finished, intensity, peak)
        if case == "disk":
            assert finished == [(128, 129), (64, 128), (128, 129)]


class TestStreamedFarField:
    """FarField keeps the mask's column spectrum; amplitudes finishes rows
    0..m/2 once and mirrors the rest, frame() finishes its rows in
    blocks of QUANTISE_BLOCK_ROWS into one buffer, and extract_orders
    finishes its band's rows up to m/2 in one call."""

    # m/2 + 1 = 33 (under one block), 64 and 128 (whole blocks), 65 and
    # 193 (one row past a block edge, so row m/2 is a block on its own)
    BLOCK_CASES = [(16, 4), (126, 1), (254, 1), (32, 4), (48, 8)]

    @pytest.mark.parametrize("n, pad", BLOCK_CASES)
    def test_frame_and_rows_match_definition(self, n, pad):
        mask = random_mask(n, 17 * n + pad)
        far = diffract_far_field(mask, pad)
        m = far.grid.samples_per_side
        expected = padded_transform_definition(mask.values, pad)
        got = far.amplitudes
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        gray, peak = far.frame()
        intensity = np.abs(got) ** 2
        assert_zero_order_peak(peak, intensity, mask.values, pad)
        assert_quantised(gray, intensity, peak)
        reference = 255.0 * np.abs(expected) ** 2 / peak
        assert np.abs(gray - reference).max() <= 0.5 + HALF_LEVEL_TOLERANCE

    @pytest.mark.parametrize("n, pad", BLOCK_CASES)
    @pytest.mark.parametrize("hologram", [False, True])
    def test_frame_equals_its_full_point_mirror(self, n, pad, hologram):
        # only the finished rows are mirrored into the zeroed frame; the
        # frame must equal mirroring all of rows 1..m/2 - 1.  A sparse
        # random mask lights rows far from the zero frequency.
        grid = GridSpec(n, 1e-6)
        if hologram:
            mask = synthesize_hologram(
                plane_spec(grid, fringes=n // 8, l=2, phi0=0.3), grid)
        else:
            rng = np.random.default_rng(31 * n + pad)
            mask = BinaryMask(grid, rng.random((n, n)) < 0.02)
        gray, _ = diffract_far_field(mask, pad).frame()
        h = gray.shape[0] // 2
        assert np.array_equal(gray, gratings._point_mirror(gray.copy(), 1, h))
        assert gray[h + 1:].any()

    def test_frame_mirror_on_random_masks(self):
        @seed(3001)
        @settings(max_examples=20, deadline=None, database=None)
        @given(n=st.sampled_from([16, 32, 64, 128]), pad=st.integers(1, 8),
               density=st.floats(0.001, 1.0),
               mask_seed=st.integers(0, 2 ** 32 - 1))
        def check(n, pad, density, mask_seed):
            rng = np.random.default_rng(mask_seed)
            mask = BinaryMask(GridSpec(n, 1e-6), rng.random((n, n)) < density)
            gray, _ = diffract_far_field(mask, pad).frame()
            h = gray.shape[0] // 2
            mirrored = gratings._point_mirror(gray.copy(), 1, h)
            assert np.array_equal(gray, mirrored)

        check()

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(BLOCK_CASES), hologram=st.booleans(),
           l=st.integers(1, 5), phi0=st.floats(0.0, math.pi),
           density=st.floats(0.001, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_frame_quantises_against_exact_peak(self, case, hologram, l,
                                                phi0, density, seed):
        # plane holograms and random masks of any density, at every
        # block-edge shape: the peak is the zero-frequency intensity and
        # the bytes are the double-precision quantisation but at near ties
        n, pad = case
        grid = GridSpec(n, 1e-6)
        if hologram:
            mask = synthesize_hologram(
                plane_spec(grid, fringes=n // 8, l=l, phi0=phi0), grid)
        else:
            rng = np.random.default_rng(seed)
            mask = BinaryMask(grid, rng.random((n, n)) < density)
        far = diffract_far_field(mask, pad)
        gray, peak = far.frame()
        intensity = np.abs(far.amplitudes) ** 2
        assert_zero_order_peak(peak, intensity, mask.values, pad)
        assert_quantised(gray, intensity, peak)

    def test_rows_finish_one_run_frame_finishes_blocks(self, monkeypatch):
        far = diffract_far_field(random_mask(48, 5), 8)
        m = far.grid.samples_per_side
        h = m // 2
        calls = record_finishes(monkeypatch)
        assert far.amplitudes.shape == (m, m)
        assert calls == [(0, h + 1)]
        calls.clear()
        _, peak = far.frame()
        # row m/2 alone gives the peak, then the blocks that are not dark
        # come in ascending order
        assert calls == expected_finishes(far, peak)

    def test_readme_plane_op_finishes_two_blocks(self, monkeypatch):
        # the README plane op (512^2 mask, pad 4, m = 2048): of the 17
        # blocks of rows 0..1024 only the two nearest the zero frequency
        # hold a non-zero byte, and only they are finished
        grid = GridSpec(512, 1e-6)
        finished = record_finishes(monkeypatch)
        for l in (1, 2, 3, 4):
            spec = HologramSpec(l, 0.0, PlaneReference(2.5e8))
            far = diffract_far_field(synthesize_hologram(spec, grid), 4)
            finished.clear()
            gray, _ = far.frame()
            assert finished == [(1024, 1025), (960, 1024), (1024, 1025)]
            assert not gray[:960].any() and not gray[1089:].any()
            assert gray[960:1089].any()

    def test_dark_blocks_skipped_on_random_masks(self, monkeypatch):
        # sparse and dense random masks at pads 1-8: whether or not blocks
        # are skipped, the frame is the double-precision quantisation
        # against the zero-frequency peak, every skipped block is below
        # half a level, and some draws do skip blocks
        finished = record_finishes(monkeypatch)
        skipped = []

        @seed(2501)
        @settings(max_examples=40, deadline=None, database=None)
        @given(n=st.sampled_from([16, 32, 64, 128]), pad=st.integers(1, 8),
               density=st.one_of(st.floats(0.001, 0.05),
                                 st.floats(0.9, 1.0)),
               mask_seed=st.integers(0, 2 ** 32 - 1))
        def check(n, pad, density, mask_seed):
            rng = np.random.default_rng(mask_seed)
            mask = BinaryMask(GridSpec(n, 1e-6), rng.random((n, n)) < density)
            far = diffract_far_field(mask, pad)
            finished.clear()
            gray, peak = far.frame()
            calls = list(finished)
            assert calls == expected_finishes(far, peak)
            intensity = np.abs(far.amplitudes) ** 2
            assert_zero_order_peak(peak, intensity, mask.values, pad)
            assert_quantised(gray, intensity, peak)
            assert_skipped_blocks_dark(calls, intensity, peak)
            h = n * pad // 2
            blocks = -(-(h + 1) // gratings.QUANTISE_BLOCK_ROWS)
            skipped.append(blocks + 1 - len(calls))

        check()
        assert any(skipped)

    def test_extract_orders_finishes_one_band(self, monkeypatch):
        # the windows and crops of all three orders read one band of rows
        # m/2 - half..m/2 + half - 1; with a warm aperture kernel its rows
        # up to m/2 are finished in one call, though they span more than
        # one block
        grid = GridSpec(256, 1e-6)
        spec = plane_spec(grid, fringes=40, l=2, phi0=0.3)
        far = diffract_far_field(synthesize_hologram(spec, grid), 4)
        extract_orders(far, spec)     # the aperture kernel is now cached
        calls = record_finishes(monkeypatch)
        extract_orders(far, spec)
        h = far.grid.samples_per_side // 2
        half = int(spec.reference.k_x / (2 * math.pi) / far.grid.pitch / 2)
        assert half + 1 > gratings.QUANTISE_BLOCK_ROWS
        assert calls == [(h - half, h + 1)]

    def test_plane_op_memory(self):
        # one README-sized plane op with a cold aperture kernel holds its
        # order band's spectrum bins (0.6 MiB) and, while it is built, the
        # frame (4 MiB) plus one block of rows (1 MiB complex64, 0.5 MiB
        # intensity); the whole column spectrum alone would be 8 MiB, the
        # complex half plane 32 MiB
        grid = GridSpec(512, 1e-6)
        spec = HologramSpec(3, 0.4, PlaneReference(2.5e8))
        mask = synthesize_hologram(spec, grid)
        _aperture_kernel.cache_clear()
        tracemalloc.start()
        try:
            far = diffract_far_field(mask, 4, spec)
            far.frame()
            extract_orders(far, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_cli_order_memory(self):
        # evf grating's order: the orders are extracted, and so checked,
        # first; the frame is then built while their three crops (1.2 MiB
        # at this carrier) are held
        grid = GridSpec(512, 1e-6)
        spec = HologramSpec(3, 0.4, PlaneReference(2.5e8))
        mask = synthesize_hologram(spec, grid)
        _aperture_kernel.cache_clear()
        tracemalloc.start()
        try:
            far = diffract_far_field(mask, 4, spec)
            fields = extract_orders(far, spec)
            far.frame()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fields) == 3
        assert peak < 9 * 2 ** 20


class TestBandFarField:
    """A plane op's far field keeps only its order band's bins, m/2 -
    half..m/2, with the dark-row bound of every bin; rows below the band
    are transformed again from the mask, in one pass."""

    @pytest.mark.parametrize("n, fringes, l, pad", [
        (256, 40, 3, 4), (192, 32, 12, 2), (256, 64, 6, 2)])
    def test_band_equals_full_spectrum(self, n, fringes, l, pad):
        grid = GridSpec(n, 1e-6)
        spec = plane_spec(grid, fringes=fringes, l=l, phi0=0.3)
        mask = synthesize_hologram(spec, grid)
        full = diffract_far_field(mask, pad)
        band = diffract_far_field(mask, pad, spec)
        m = full.grid.samples_per_side
        half = int(fringes * pad / 2)
        assert band.grid == full.grid and band.first == m // 2 - half
        assert np.array_equal(band.columns, full.columns[:, m // 2 - half:])
        # the dark-row bound of every bin, summed a block of mask columns
        # at a time from the full spectrum, bit for bit
        bound = np.zeros(m // 2 + 1)
        for lo in range(0, n, gratings.QUANTISE_BLOCK_ROWS):
            bound += np.abs(
                full.columns[lo:lo + gratings.QUANTISE_BLOCK_ROWS]).sum(axis=0)
        assert np.array_equal(band.bound, bound)
        assert np.array_equal(full.bound, bound)
        gray, peak = band.frame()
        assert peak == full.frame()[1]
        assert np.array_equal(gray, full.frame()[0])
        assert np.array_equal(band.amplitudes, full.amplitudes)
        expected = extract_orders(full, spec)
        for order, field in extract_orders(band, spec).items():
            assert np.array_equal(field.amplitudes,
                                  expected[order].amplitudes)

    @pytest.mark.parametrize("pad, half, lowest", [(4, 79, 928),
                                                   (8, 159, 1855)])
    def test_lit_rows_below_band_transformed_once(self, monkeypatch, pad,
                                                  half, lowest):
        # at l = 12 with the README carrier (512^2 mask) the dark-row bound
        # lights rows down to `lowest`, 96 and 193 rows below m/2, outside
        # the band of bins m/2 - half..m/2: one spectrum is transformed
        # again from the lowest lit block, and every lit block is finished
        # from it, including, at pad 8, one wholly below the band
        grid = GridSpec(512, 1e-6)
        spec = HologramSpec(12, 0.0, PlaneReference(2.5e8))
        mask = synthesize_hologram(spec, grid)
        full = diffract_far_field(mask, pad)
        far = diffract_far_field(mask, pad, spec)
        m = far.grid.samples_per_side
        assert far.first == m // 2 - half
        transforms = []
        column_spectrum = gratings._column_spectrum

        def recording(values, pad_factor, first=0, bound=None):
            transforms.append(first)
            return column_spectrum(values, pad_factor, first, bound)

        monkeypatch.setattr(gratings, "_column_spectrum", recording)
        finished = record_finishes(monkeypatch)
        gray, peak = far.frame()
        lit = np.square(far.bound) / m >= 0.5 / 255 * peak * (1 - 1e-3)
        assert np.flatnonzero(lit)[0] == lowest
        block = gratings.QUANTISE_BLOCK_ROWS
        assert transforms == [lowest // block * block]
        assert finished == expected_finishes(full, peak)
        assert finished[1][0] == lowest // block * block
        expected = full.frame()
        assert peak == expected[1] and np.array_equal(gray, expected[0])

    def test_wider_band_transformed_again(self, monkeypatch):
        # a far field kept for a weak carrier, read for a strong one: the
        # rows of the wider band below the kept bins are transformed again
        # from the mask, in the one call that finishes the band
        grid = GridSpec(192, 1e-6)
        weak = plane_spec(grid, fringes=24, l=2, phi0=0.3)
        strong = plane_spec(grid, fringes=32, l=2, phi0=0.3)
        mask = synthesize_hologram(strong, grid)
        far = diffract_far_field(mask, 4, weak)
        expected = extract_orders(diffract_far_field(mask, 4), strong)
        calls = record_finishes(monkeypatch)
        fields = extract_orders(far, strong)
        h = far.grid.samples_per_side // 2
        # 24 and 32 fringes span 95.99.. and 128.0.. far-field pixels
        assert far.first == h - 47
        assert calls == [(h - 64, h + 1)]
        for order, field in fields.items():
            assert np.array_equal(field.amplitudes,
                                  expected[order].amplitudes)

    def test_spherical_spec_refused(self):
        grid = GridSpec(64, 1e-6)
        mask = synthesize_hologram(plane_spec(grid, fringes=16), grid)
        sph = HologramSpec(1, 0.0, SphericalReference(1e13))
        with pytest.raises(OrderSeparationError, match="longitudinally"):
            diffract_far_field(mask, 2, sph)


@pytest.fixture(scope="module")
def far_and_spec():
    grid = GridSpec(256, 1e-6)
    spec = plane_spec(grid, fringes=32, l=1, phi0=0.3)
    mask = synthesize_hologram(spec, grid)
    return diffract_far_field(mask, 8), spec


@pytest.fixture(scope="module")
def sph():
    grid = GridSpec(128, 1e-6)
    r_max = grid.physical_side_length / 2
    curvature = math.pi / (8 * grid.pitch * r_max)
    spec = HologramSpec(1, 0.0, SphericalReference(curvature))
    return synthesize_hologram(spec, grid), spec


class TestExtractOrder:
    def test_first_order_two_lobes_oriented(self, far_and_spec):
        far, spec = far_and_spec
        field = extract_orders(far, spec)[+1]
        radius = radial_peak_radius(field)
        prof = angular_intensity(field, radius, 256)
        assert harmonic_fraction(prof, 2 * spec.l) > 0.5
        orientation = pattern_orientation(prof, spec.l)
        err = abs(orientation - spec.phi0)
        err = min(err, math.pi / spec.l - err)
        assert err < math.radians(2.0)

    def test_zero_order_unstructured(self, far_and_spec):
        far, spec = far_and_spec
        field = extract_orders(far, spec)[0]
        prof = angular_intensity(field, radial_peak_radius(field), 256)
        assert harmonic_fraction(prof, 2 * spec.l) < 0.1

    def test_opposite_orders_mirror_conjugate(self, far_and_spec):
        # a real mask has a Hermitian far field, so +1 and -1 intensities
        # are point reflections of each other.  The outermost row/column of
        # the half-open even crops has no mirror partner, so the comparison
        # runs on the shared region with a common normalisation.
        far, spec = far_and_spec
        fields = extract_orders(far, spec)
        plus = fields[+1].intensity()[1:, 1:]
        minus = fields[-1].intensity()
        reflected = np.roll(minus[::-1, ::-1], 1, axis=(0, 1))[1:, 1:]
        reflected = reflected * (plus.sum() / reflected.sum())
        assert np.max(np.abs(plus - reflected)) < 1e-6 * plus.max()

    def test_weak_carrier_fails_separation(self):
        grid = GridSpec(256, 1e-6)
        spec = plane_spec(grid, fringes=10)   # the ten-fringe default
        mask = synthesize_hologram(spec, grid)
        far = diffract_far_field(mask, 4)
        with pytest.raises(OrderSeparationError):
            extract_orders(far, spec)
        # the window geometry alone: a carrier of 3 fringes spans 12
        # far-field pixels, one of 90 puts order -1's window off the far
        # field; both are refused whatever the far field holds
        for fringes, message in ((3, "carrier spans only 12.0 far-field "
                                     "pixels"),
                                 (90, "order -1 window falls outside")):
            with pytest.raises(OrderSeparationError, match=message):
                extract_orders(far, plane_spec(grid, fringes=fringes))

    def test_leakage_uses_the_far_fields_own_padding(self):
        # at pad 4 a 20-fringe carrier leaks more than 1% into the +1
        # window; an aperture kernel at a coarser padding would
        # underestimate that spread and accept the order
        grid = GridSpec(256, 1e-6)
        spec = plane_spec(grid, fringes=20, l=1, phi0=0.3)
        far = diffract_far_field(synthesize_hologram(spec, grid), 4)
        assert far.pad_factor == 4
        # orders are checked -1 first, as the CLI reports them
        with pytest.raises(OrderSeparationError,
                           match="leakage .* of order -1 power"):
            extract_orders(far, spec)

    def test_aperture_built_once_for_all_orders(self, far_and_spec,
                                                monkeypatch):
        # the kernel band and the open-pixel count are cached together, and
        # the three orders of one far field look them up once
        far, spec = far_and_spec
        aperture, built = gratings._inscribed_aperture, []

        def counting(n):
            built.append(n)
            return aperture(n)

        monkeypatch.setattr(gratings, "_inscribed_aperture", counting)
        _aperture_kernel.cache_clear()
        extract_orders(far, spec)
        assert len(built) == 1
        info = _aperture_kernel.cache_info()
        assert (info.hits, info.misses) == (0, 1)

    def test_nan_far_field_refused(self, far_and_spec):
        # nan window powers fail every comparison with the leakage limit;
        # they are refused as powers, not as leakage, rather than returned
        # as all-nan crops
        far, spec = far_and_spec
        nan_far = FarField(far.grid, far.mask,
                           np.full_like(far.columns, np.nan), far.bound)
        with pytest.raises(OrderSeparationError,
                           match="order -1 window power nan is not positive "
                                 "and finite"):
            extract_orders(nan_far, spec)

    def test_spherical_reference_rejected(self):
        grid = GridSpec(128, 1e-6)
        sph = HologramSpec(1, 0.0, SphericalReference(1e13))
        mask = synthesize_hologram(plane_spec(grid, fringes=16), grid)
        far = diffract_far_field(mask, 2)
        with pytest.raises(OrderSeparationError):
            extract_orders(far, sph)


class TestSphericalReference:
    def test_broken_ring_morphology(self, sph):
        mask, spec = sph
        n = mask.grid.samples_per_side
        # several zone transitions along the bright azimuth
        radial_cut = mask.values[n // 2, n // 2:].astype(int)
        assert np.count_nonzero(np.diff(radial_cut)) >= 4
        # rings are broken: near the nodal azimuth (x ~ 0, away from the
        # centre) the threshold metric stays at ~1/3 and pixels are closed
        for col in (n // 2 - 1, n // 2):
            assert mask.values[:n // 2 - 16, col].sum() == 0
            assert mask.values[n // 2 + 16:, col].sum() == 0

    def test_longitudinal_focus_locations(self, sph):
        mask, spec = sph
        expected = spherical_focus_distance(spec, BEAM)
        converging = isolate_chirped_order(mask, spec, -1)
        z_real, w_real = locate_minimum_width_plane(converging, BEAM,
                                                    1.4 * expected)
        assert z_real == pytest.approx(expected, rel=0.1)
        assert w_real < 0.5 * effective_width(converging)

        diverging = isolate_chirped_order(mask, spec, +1)
        reversed_field = ComplexField(diverging.grid, 0.0,
                                      np.conj(diverging.amplitudes))
        z_virtual, _ = locate_minimum_width_plane(reversed_field, BEAM,
                                                  1.4 * expected)
        # virtual focus mirrors the real one through the mask plane
        assert z_virtual == pytest.approx(z_real, rel=1e-6)
        # and the diverging order finds it behind the mask unaided
        z_behind, _ = locate_minimum_width_plane(diverging, BEAM,
                                                 1.4 * expected)
        assert z_behind == pytest.approx(-z_real, rel=1e-6)

    @pytest.mark.parametrize("sign_c", [1, -1])
    def test_diverging_order_is_conjugate_of_converging(self, sph, sign_c):
        # a real mask diffracts into conjugate orders; evf grating reads
        # the virtual focus off the converging order by this symmetry
        mask, spec = sph
        curvature = sign_c * spec.reference.curvature
        spec = HologramSpec(spec.l, spec.phi0, SphericalReference(curvature))
        mask = synthesize_hologram(spec, mask.grid)
        plus = isolate_chirped_order(mask, spec, +1).amplitudes
        minus = isolate_chirped_order(mask, spec, -1).amplitudes
        assert (np.abs(plus - np.conj(minus)).max()
                <= 1e-13 * np.abs(plus).max())

    @pytest.mark.parametrize("fraction", [0.3, 1.0, 1.3])
    def test_moment_law_matches_stepped_width(self, sph, fraction):
        # about the located focus the law reads
        # w(z)^2 = w_focus^2 + 2 (z - z_focus)^2 <p^2> / k0^2; check it
        # against effective_width of the field stepped to z by the
        # split-step propagator at B = 0
        mask, spec = sph
        expected = spherical_focus_distance(spec, BEAM)
        field = isolate_chirped_order(mask, spec, -1)
        z_focus, w_focus = locate_minimum_width_plane(field, BEAM,
                                                      1.4 * expected)
        n, pitch = field.grid.samples_per_side, field.grid.pitch
        k = 2 * np.pi * np.fft.fftfreq(n, d=pitch)
        power = np.abs(np.fft.fft2(field.amplitudes)) ** 2
        p2 = float((power * (k[:, None] ** 2 + k[None, :] ** 2)).sum()
                   / power.sum())
        z = fraction * expected
        law = math.sqrt(w_focus ** 2 + 2 * (z - z_focus) ** 2 * p2
                        / base_wavenumber(BEAM) ** 2)
        steps = exact_steps_per_plane(field.grid, BEAM, z)
        plan = make_plan(field.grid, BEAM, z / steps, scheme="exact")
        stepped = propagate_definite_l(field, 0, plan, steps)
        assert law == pytest.approx(effective_width(stepped), rel=1e-6)

    @pytest.mark.parametrize("curvature", [1.5e14, -1.5e14, 3e12, -3e12])
    @pytest.mark.parametrize("kev", [1, 60, 300])
    def test_focus_distance_is_k0_over_2c(self, kev, curvature):
        # the reference every focus is compared with: k0 / (2 |C|), with
        # k0 = sqrt(2 m_e E) / hbar from the package's own constants
        p = BeamParameters(kev * 1e3 * ELEMENTARY_CHARGE, 0.0)
        spec = HologramSpec(1, 0.0, SphericalReference(curvature))
        k0 = math.sqrt(2.0 * ELECTRON_MASS * p.kinetic_energy) / HBAR
        assert spherical_focus_distance(spec, p) == pytest.approx(
            k0 / (2.0 * abs(curvature)), rel=1e-12)

    def test_plane_spec_refused(self, sph):
        mask, spec = sph
        plane = HologramSpec(1, 0.0, PlaneReference(1e8))
        with pytest.raises(ValueError, match="spherical references"):
            spherical_focus_distance(plane, BEAM)
        with pytest.raises(ValueError, match="needs a spherical reference"):
            isolate_chirped_order(mask, plane, -1)
        with pytest.raises(ValueError, match="sign must be -1 or \\+1"):
            isolate_chirped_order(mask, spec, 0)

    @staticmethod
    def plane_chirp_oracle(mask, spec, sign):
        """isolate_chirped_order by its formula on the whole embed: each
        chirp exp(-+i sign C r^2) evaluated at every pixel from r^2, the
        padded mask demodulated, low-passed, restored, tapered and
        normalised."""
        grid = mask.grid
        big = GridSpec(2 * grid.samples_per_side,
                       2 * grid.physical_side_length)
        lo = grid.samples_per_side // 2
        values = np.pad(mask.values, lo).astype(np.complex128)
        xg, yg = big.meshgrid()
        r_sq = xg ** 2 + yg ** 2
        c = spec.reference.curvature
        demod = values * np.exp(-1j * sign * c * r_sq)
        k = 2.0 * np.pi * np.fft.fftfreq(big.samples_per_side, d=big.pitch)
        cutoff = 0.25 * 2.0 * abs(c) * (grid.physical_side_length / 2.0)
        keep = k[:, np.newaxis] ** 2 + k ** 2 <= cutoff ** 2
        low = np.fft.ifft2(np.fft.fft2(demod) * keep)
        component = low * np.exp(1j * sign * c * r_sq)
        r_mask = grid.physical_side_length / 2.0
        r_border = big.physical_side_length / 2.0
        ramp = np.clip((np.sqrt(r_sq) - 1.2 * r_mask)
                       / (0.95 * r_border - 1.2 * r_mask), 0.0, 1.0)
        component *= np.cos(0.5 * np.pi * ramp) ** 2
        norm = math.sqrt(float(np.sum(np.abs(component) ** 2))
                         * big.pitch ** 2)
        return big, component / norm

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("curvature", ["fixture", 1.5e14])
    def test_isolation_matches_plane_chirp_oracle(self, sph, sign,
                                                  curvature):
        # the chirps are built from 1-D factors and the mask demodulated in
        # its own block of the embed; the field equals the formula on the
        # plane to rounding, at the fixture's curvature and the README's
        mask, spec = sph
        if curvature != "fixture":
            spec = HologramSpec(1, 0.0, SphericalReference(curvature))
            mask = synthesize_hologram(spec, mask.grid)
        big, expected = self.plane_chirp_oracle(mask, spec, sign)
        got = isolate_chirped_order(mask, spec, sign)
        assert got.grid == big
        assert (np.abs(got.amplitudes - expected).max()
                <= 1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("fraction", [-1.4, 0.5, 1.0, 1.4])
    def test_separable_fresnel_plane_matches_2d_phase(self, sph, fraction):
        # the Fresnel phase as an outer product of one length-N vector,
        # applied and transformed in place, against the phase on the plane
        mask, spec = sph
        field = isolate_chirped_order(mask, spec, -1)
        grid, k0 = field.grid, base_wavenumber(BEAM)
        z = fraction * spherical_focus_distance(spec, BEAM)
        k = 2.0 * np.pi * np.fft.fftfreq(grid.samples_per_side, d=grid.pitch)
        spectrum = np.fft.fft2(field.amplitudes)
        k_sq = k[:, np.newaxis] ** 2 + k ** 2
        expected = np.fft.ifft2(spectrum * np.exp(-0.5j * k_sq * z / k0))
        got = gratings._fresnel_plane(spectrum, k, z, k0,
                                      np.empty_like(spectrum))
        assert (np.abs(got - expected).max()
                <= 1e-13 * np.abs(expected).max())
        in_place = spectrum.copy()
        assert gratings._fresnel_plane(in_place, k, z, k0,
                                       in_place) is in_place
        assert np.array_equal(in_place, got)

    def test_width_cross_check_raises(self, sph, monkeypatch):
        mask, spec = sph
        converging = isolate_chirped_order(mask, spec, -1)
        monkeypatch.setattr(gratings, "FOCUS_WIDTH_CROSSCHECK_RTOL", 0.0)
        with pytest.raises(ContainmentError):
            locate_minimum_width_plane(
                converging, BEAM, 1.4 * spherical_focus_distance(spec, BEAM))
