"""Binary holograms that produce vortex superpositions, and Fourier
diffraction analysis of the resulting orders.

A hologram is the thresholded interference of the target petal wave
2 cos(l (phi - phi0)) with a reference wave: a tilted plane wave
exp(i k_x x) separates the orders transversely, a paraxial spherical wave
exp(i C r^2) separates them longitudinally.  Masks carry an inscribed
circular aperture so square-edge streaks do not contaminate the orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .analysis import effective_width
from .core import BeamParameters, base_wavenumber
from .errors import CarrierResolutionError, OrderSeparationError
from .modes import ComplexField, GridSpec
from .propagation import (exact_steps_per_plane, make_plan,
                          propagate_definite_l)

#: Far-field oversampling used to resolve the internal structure of orders.
DEFAULT_PAD_FACTOR = 4

#: Acceptable neighbour leakage into an extraction window.
LEAKAGE_LIMIT = 0.01

#: Widening of the grid an isolated chirped order is re-embedded on.
CHIRPED_EMBED_FACTOR = 2

#: Low-pass cutoff of chirped-order isolation, as a fraction of the
#: chirp's spatial-frequency band.
CHIRPED_CUTOFF_FRACTION = 0.25

#: Planes of the free-space focus scan.
FOCUS_SCAN_PLANES = 48


@dataclass(frozen=True)
class PlaneReference:
    """Tilted plane reference wave exp(i k_x x); k_x in rad/m."""

    k_x: float

    def __post_init__(self):
        if not self.k_x > 0:
            raise ValueError("plane reference needs k_x > 0")


@dataclass(frozen=True)
class SphericalReference:
    """Paraxial spherical reference wave exp(i C r^2); C in rad/m^2."""

    curvature: float

    def __post_init__(self):
        if self.curvature == 0:
            raise ValueError("spherical reference needs C != 0")


@dataclass(frozen=True)
class HologramSpec:
    """Design of one binary hologram: vorticity, line orientation, reference."""

    l: int
    phi0: float
    reference: object

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("hologram vorticity l must be >= 1")
        if not isinstance(self.reference, (PlaneReference, SphericalReference)):
            raise TypeError("reference must be PlaneReference or SphericalReference")


@dataclass(frozen=True)
class BinaryMask:
    """Two-level transmission mask on a grid; values are exactly 0 or 1."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        n = self.grid.samples_per_side
        if vals.shape != (n, n):
            raise ValueError("mask shape does not match grid")
        if not np.isin(vals, (0, 1)).all():
            raise ValueError("mask values must be strictly binary")
        object.__setattr__(self, "values", vals.astype(np.uint8))


def default_carrier(grid: GridSpec) -> float:
    """Default plane carrier: ten fringes across the aperture, rad/m."""
    return 2.0 * math.pi * 10.0 / grid.physical_side_length


def design_value(spec: HologramSpec, x, y):
    """Interference metric whose value is compared against the 1/2 threshold.

    (1/3) |2 cos(l (phi - phi0)) + exp(i * reference phase)|^2 evaluated at
    physical coordinates (x, y).
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    phi = np.arctan2(ys, xs)
    target = 2.0 * np.cos(spec.l * (phi - spec.phi0))
    if isinstance(spec.reference, PlaneReference):
        ref_phase = spec.reference.k_x * xs
    else:
        ref_phase = spec.reference.curvature * (xs ** 2 + ys ** 2)
    val = (target ** 2 + 2.0 * target * np.cos(ref_phase) + 1.0) / 3.0
    return float(val) if xs.ndim == 0 and ys.ndim == 0 else val


def _check_carrier_resolved(spec: HologramSpec, grid: GridSpec):
    if isinstance(spec.reference, PlaneReference):
        period = 2.0 * math.pi / spec.reference.k_x
        what = "fringe period"
    else:
        r_max = grid.physical_side_length / 2.0
        period = math.pi / (abs(spec.reference.curvature) * r_max)
        what = "finest local zone spacing"
    if period < 4.0 * grid.pitch:
        raise CarrierResolutionError(
            f"{what} {period:.3e} m is under 4 pixels "
            f"(pitch {grid.pitch:.3e} m); refine the grid or soften the carrier")


def synthesize_hologram(spec: HologramSpec, grid: GridSpec) -> BinaryMask:
    """Threshold the design at pixel centres; values strictly above 1/2 are
    open.  The inscribed circular aperture is applied, so only pixels inside
    radius side/2 can be open."""
    _check_carrier_resolved(spec, grid)
    xg, yg = grid.meshgrid()
    open_pixels = design_value(spec, xg, yg) > 0.5
    aperture = xg ** 2 + yg ** 2 <= (grid.physical_side_length / 2.0) ** 2
    return BinaryMask(grid, (open_pixels & aperture).astype(np.uint8))


def _embed(values: np.ndarray, factor: int) -> np.ndarray:
    n = values.shape[0]
    m = n * factor
    out = np.zeros((m, m), dtype=values.dtype)
    lo = (m - n) // 2
    out[lo:lo + n, lo:lo + n] = values
    return out


def diffract_far_field(mask: BinaryMask, illumination_energy: float,
                       pad_factor: int = DEFAULT_PAD_FACTOR) -> ComplexField:
    """Centred unitary Fourier transform of the mask as a unit-amplitude
    transmission function.

    The output grid is in spatial-frequency coordinates (cycles per metre);
    zero padding by pad_factor refines the far-field sampling without
    changing the spanned frequency range.  The illumination energy fixes
    only the angular scale of the pattern (deflection angle = de Broglie
    wavelength times spatial frequency), not its content.
    """
    if not illumination_energy > 0:
        raise ValueError("illumination energy must be positive")
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    padded = _embed(mask.values, pad_factor).astype(np.complex128)
    far = _fft.fftshift(_fft.fft2(_fft.ifftshift(padded), norm="ortho"))
    freq_side = 1.0 / mask.grid.pitch
    out_grid = GridSpec(mask.grid.samples_per_side * pad_factor, freq_side)
    return ComplexField(out_grid, 0.0, far)


def frequency_to_angle(nu: float, p: BeamParameters) -> float:
    """Deflection angle of spatial frequency nu under the given beam energy."""
    wavelength = 2.0 * math.pi / base_wavenumber(p)
    return wavelength * nu


@lru_cache(maxsize=4)
def _aperture_kernel(n: int, pad_factor: int) -> np.ndarray:
    """Far-field intensity kernel of the bare inscribed-circle aperture."""
    idx = np.arange(n) - n / 2 + 0.5
    xg, yg = np.meshgrid(idx, idx)
    disk = (xg ** 2 + yg ** 2 <= (n / 2.0) ** 2).astype(np.complex128)
    padded = _embed(disk, pad_factor)
    far = _fft.fftshift(_fft.fft2(_fft.ifftshift(padded), norm="ortho"))
    return np.abs(far) ** 2


def _window_sum(intensity: np.ndarray, centre_row: int, centre_col: int,
                half: int) -> float:
    m = intensity.shape[0]
    r0, r1 = centre_row - half, centre_row + half
    c0, c1 = centre_col - half, centre_col + half
    if r0 < 0 or c0 < 0 or r1 > m or c1 > m:
        return math.nan
    return float(intensity[r0:r1, c0:c1].sum())


def extract_order(far_field: ComplexField, spec: HologramSpec,
                  order: int, pad_factor: int = DEFAULT_PAD_FACTOR) -> ComplexField:
    """Crop the far field around one diffraction order and re-centre it.

    Only plane-reference holograms separate their orders transversely;
    spherical references raise OrderSeparationError.  The window half-width
    is k_x / 2; estimated neighbour leakage above 1 percent of the order's
    own power also raises OrderSeparationError.
    """
    if order not in (-1, 0, +1):
        raise ValueError("order must be -1, 0 or +1")
    if isinstance(spec.reference, SphericalReference):
        raise OrderSeparationError(
            "spherical-reference orders separate longitudinally, not "
            "transversely; analyse them by Fresnel propagation")
    m = far_field.grid.samples_per_side
    n_mask = m // pad_factor
    if n_mask * pad_factor != m:
        raise ValueError("pad_factor inconsistent with the far-field grid")
    freq_pitch = far_field.grid.pitch   # cycles/m per far-field pixel
    carrier_px = spec.reference.k_x / (2.0 * math.pi) / freq_pitch
    half = int(carrier_px / 2.0)
    if 2 * half < 16:
        raise OrderSeparationError(
            f"carrier spans only {carrier_px:.1f} far-field pixels; windows "
            "would be smaller than a usable grid")
    centre = m // 2
    col = centre + round(order * carrier_px)
    if col - half < 0 or col + half > m:
        raise OrderSeparationError(
            f"order {order:+d} window falls outside the sampled far field")

    intensity = np.abs(far_field.amplitudes) ** 2
    kernel = _aperture_kernel(n_mask, pad_factor)
    kernel_total = float(kernel.sum())
    powers = {}
    for o in (-3, -2, -1, 0, 1, 2, 3):
        p = _window_sum(intensity, centre, centre + round(o * carrier_px), half)
        if not math.isnan(p):
            powers[o] = p
    own = powers[order]
    leak = 0.0
    for o, p in powers.items():
        if o == order:
            continue
        spread = _window_sum(kernel, centre,
                             centre + round(abs(o - order) * carrier_px), half)
        if not math.isnan(spread):
            leak += p * spread / kernel_total
    if own <= 0 or leak > LEAKAGE_LIMIT * own:
        raise OrderSeparationError(
            f"estimated neighbour leakage {leak:.3e} exceeds 1% of order "
            f"{order:+d} power {own:.3e}; increase the carrier frequency")

    crop = far_field.amplitudes[centre - half:centre + half,
                                col - half:col + half].copy()
    norm = math.sqrt(float(np.sum(np.abs(crop) ** 2)) * freq_pitch ** 2)
    out_grid = GridSpec(2 * half, 2 * half * freq_pitch)
    return ComplexField(out_grid, 0.0, crop / norm)


def spherical_focus_distance(spec: HologramSpec, p: BeamParameters) -> float:
    """Paraxial focus distance k0 / (2 |C|) of the converging first order."""
    if not isinstance(spec.reference, SphericalReference):
        raise ValueError("focus distance is defined for spherical references")
    return base_wavenumber(p) / (2.0 * abs(spec.reference.curvature))


def isolate_chirped_order(mask: BinaryMask, spec: HologramSpec,
                          sign: int) -> ComplexField:
    """Isolate the exp(i sign C r^2) component of a spherical-reference mask.

    Demodulates the chirp, low-passes to a band the other orders only leak
    into weakly, restores the chirp, and re-embeds on a grid
    CHIRPED_EMBED_FACTOR times wider so the field can be Fresnel-propagated
    without touching the border.  Returns a unit-norm field at the mask plane.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    if not isinstance(spec.reference, SphericalReference):
        raise ValueError("isolate_chirped_order needs a spherical reference")
    grid = mask.grid
    big = GridSpec(grid.samples_per_side * CHIRPED_EMBED_FACTOR,
                   grid.physical_side_length * CHIRPED_EMBED_FACTOR)
    values = _embed(mask.values, CHIRPED_EMBED_FACTOR).astype(np.complex128)
    xg, yg = big.meshgrid()
    r_sq = xg ** 2 + yg ** 2
    c = spec.reference.curvature
    demod = values * np.exp(-1j * sign * c * r_sq)

    k = 2.0 * np.pi * np.fft.fftfreq(big.samples_per_side, d=big.pitch)
    kx, ky = np.meshgrid(k, k)
    chirp_band = 2.0 * abs(c) * (grid.physical_side_length / 2.0)
    cutoff = CHIRPED_CUTOFF_FRACTION * chirp_band
    keep = (kx ** 2 + ky ** 2) <= cutoff ** 2
    low = _fft.ifft2(_fft.fft2(demod) * keep)
    component = low * np.exp(1j * sign * c * r_sq)
    # the low-pass ringing decays too slowly for the propagator's border
    # check; taper it away well outside the mask circle, where the order
    # itself carries no energy
    r_mask = grid.physical_side_length / 2.0
    r_border = big.physical_side_length / 2.0
    taper_from = 1.2 * r_mask
    taper_to = 0.95 * r_border
    rr = np.sqrt(r_sq)
    ramp = np.clip((rr - taper_from) / (taper_to - taper_from), 0.0, 1.0)
    component *= np.cos(0.5 * np.pi * ramp) ** 2
    norm = math.sqrt(float(np.sum(np.abs(component) ** 2)) * big.pitch ** 2)
    if norm == 0.0:
        raise OrderSeparationError("isolated component vanished; check C")
    return ComplexField(big, 0.0, component / norm)


def locate_minimum_width_plane(field: ComplexField, p: BeamParameters,
                               z_max: float):
    """Fresnel-propagate (B = 0) and return (z, width) at the narrowest plane.

    The FOCUS_SCAN_PLANES planes are z_max / FOCUS_SCAN_PLANES apart, each
    reached by one exact free-space step (more only if the spacing exceeds
    exact_step_limit).
    The width is the axis-centred second-moment estimate; z is refined by a
    parabola through the minimum and its neighbours.
    """
    p0 = replace(p, field_bz=0.0)
    spacing = z_max / FOCUS_SCAN_PLANES
    steps_per_scan = exact_steps_per_plane(field.grid, p0, spacing)
    plan = make_plan(field.grid, p0, spacing / steps_per_scan,
                     scheme="exact")
    zs, widths = [0.0], [effective_width(field)]
    current = field
    for _ in range(FOCUS_SCAN_PLANES):
        current = propagate_definite_l(current, 0, plan, steps_per_scan)
        zs.append(current.z_position - field.z_position)
        widths.append(effective_width(current))
    zs = np.asarray(zs)
    widths = np.asarray(widths)
    i = int(np.argmin(widths))
    if 0 < i < len(zs) - 1:
        # parabolic refinement through the three points around the minimum
        y0, y1, y2 = widths[i - 1:i + 2]
        denom = y0 - 2.0 * y1 + y2
        if denom > 0:
            shift = 0.5 * (y0 - y2) / denom
            return float(zs[i] + shift * (zs[i + 1] - zs[i])), float(widths[i])
    return float(zs[i]), float(widths[i])
