"""Measurements on sampled fields: angular intensity profiles, pattern
orientation (the Faraday observable), second-moment beam width, and mode
overlap."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, NoPatternError
from .modes import ComplexField, GridSpec


@dataclass(frozen=True)
class AngularProfile:
    """Intensity samples on a circle, uniformly spaced over [0, 2 pi)."""

    radius: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        _check_sample_count(samples.size if samples.ndim == 1 else 0)
        if np.any(samples < 0):
            raise ValueError("intensity samples must be non-negative")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "samples", samples)


def _check_sample_count(n: int) -> None:
    if n < 64 or n & (n - 1):
        raise ValueError("sample count must be a power of two >= 64")


def angular_intensity(field: ComplexField, radius: float,
                      n_samples: int = 256) -> AngularProfile:
    """Bilinearly interpolated intensity on the circle of the given radius.

    Only the block of the plane that holds the circle's neighbours is read;
    a field that has not built its plane builds that block from its factors.
    """
    rows, cols, taps, wy, wx = _ring_taps(field.grid, radius, n_samples)
    # t00 + t01 + t10 + t11 of (|a|^2 wy) wx, summed in that order
    vals = np.abs(field.window(rows, cols).ravel()[taps]) ** 2
    vals *= wy
    vals *= wx
    return AngularProfile(radius, vals.sum(axis=0))


@lru_cache(maxsize=4)
def _ring_taps(grid: GridSpec, radius: float, n_samples: int) -> tuple:
    """(rows, columns of the block the circle's neighbours lie in; flat
    indices into it of each sample's neighbours (dy, dx) = 00, 01, 10, 11,
    and their y and x weights, read-only (4, n_samples) arrays) of a circle,
    shared by the planes angular_intensity reads it on."""
    n = grid.samples_per_side
    max_radius = (n / 2 - 1) * grid.pitch
    if not 0 < radius <= max_radius:
        raise ValueError(
            f"radius {radius:.6e} m outside the usable range "
            f"(0, {max_radius:.6e}] m of this grid")
    _check_sample_count(n_samples)
    phi = 2.0 * np.pi * np.arange(n_samples) / n_samples
    # fractional indices of physical points; pixel centres sit at half-pixels
    ix = radius * np.cos(phi) / grid.pitch + n / 2 - 0.5
    iy = radius * np.sin(phi) / grid.pitch + n / 2 - 0.5
    # scipy.ndimage's order-1 weights (w1 = 1 - w0) and summation order;
    # the radius bound keeps every neighbour on the grid
    x0, y0 = np.floor(ix).astype(int), np.floor(iy).astype(int)
    wx0, wy0 = 1.0 - (ix - x0), 1.0 - (iy - y0)
    r0, c0 = y0.min(), x0.min()
    width = x0.max() + 2 - c0
    corner = (y0 - r0) * width + (x0 - c0)
    taps = corner + np.array([[0], [1], [width], [width + 1]])
    wy = np.stack([wy0, wy0, 1.0 - wy0, 1.0 - wy0])
    wx = np.stack([wx0, 1.0 - wx0, wx0, 1.0 - wx0])
    taps.flags.writeable = wy.flags.writeable = wx.flags.writeable = False
    return (slice(r0, y0.max() + 2), slice(c0, c0 + width), taps, wy, wx)


def circular_harmonic(profile: AngularProfile, k: int) -> complex:
    """k-th circular Fourier coefficient c_k = mean(I(phi) e^{-i k phi})."""
    n = profile.samples.size
    if not 0 <= k < n // 2:
        raise ValueError(f"harmonic {k} not resolved by {n} samples")
    return complex(np.fft.fft(profile.samples)[k]) / n


def harmonic_fraction(profile: AngularProfile, k: int) -> float:
    """Modulation amplitude of the k-th harmonic relative to the mean.

    Equals 1 for a fully modulated cos^2 pattern of that harmonic and 0 for
    a flat profile.
    """
    mean = float(profile.samples.mean())
    if mean <= 0:
        return 0.0
    return 2.0 * abs(circular_harmonic(profile, k)) / mean


def pattern_orientation(profile: AngularProfile, l: int) -> float:
    """Orientation of a 2|l|-petal pattern, reported in [0, pi/|l|).

    For intensity proportional to cos^2(l (phi - Phi)) this returns
    Phi mod pi/|l|.  Raises NoPatternError when the 2|l|-th harmonic
    amplitude is below 0.1 of the profile mean.
    """
    la = abs(l)
    if la < 1:
        raise ValueError("orientation needs |l| >= 1")
    c = circular_harmonic(profile, 2 * la)
    mean = float(profile.samples.mean())
    if mean <= 0 or 2.0 * abs(c) < 0.1 * mean:
        raise NoPatternError(
            f"harmonic 2|l| = {2 * la} amplitude {2 * abs(c):.3e} is below "
            f"0.1 of the mean {mean:.3e}; no orientation defined")
    period = math.pi / la
    return (-np.angle(c) / (2.0 * la)) % period


def unwrap_orientations(angles, l: int) -> np.ndarray:
    """Continue mod-pi/|l| orientations across a series by nearest branch,
    the first taken on the branch nearest 0."""
    period = math.pi / abs(l)
    out = np.empty(len(angles))
    prev = 0.0
    for i, a in enumerate(angles):
        k = round((prev - a) / period)
        prev = a + k * period
        out[i] = prev
    return out


def radial_peak_radius(field: ComplexField) -> float:
    """Radius of maximum azimuthally averaged intensity, in metres.

    Used to pick the most informative circle for angular profiling; the
    result never falls below two grid pitches so the circle stays
    resolvable.
    """
    bins, counts = _radius_bins(field.grid)
    sums = np.bincount(bins, weights=field.intensity().ravel())
    mean = sums[:len(counts)] / counts
    peak = int(np.argmax(mean)) + 0.5
    return max(peak, 2.0) * field.grid.pitch


@lru_cache(maxsize=4)
def _radius_bins(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(whole-pitch radius bin of every pixel, raveled; pixel count of each
    usable bin, the n/2 - 1 innermost, at least 1) of a grid, shared by
    the fields radial_peak_radius reads on it."""
    xg, yg = grid.meshgrid()
    bins = np.floor(np.hypot(xg, yg) / grid.pitch).astype(int).ravel()
    usable = grid.samples_per_side // 2 - 1
    counts = np.maximum(np.bincount(bins)[:usable], 1)
    bins.flags.writeable = counts.flags.writeable = False
    return bins, counts


def effective_width(field: ComplexField, l: int = 0) -> float:
    """Waist estimate sqrt(2 <r^2> / (|l|+1)) from the intensity second
    moment about the beam axis.

    Calibrated so an n = 0 mode of waist w returns w; independent of the
    field's overall amplitude scale.
    """
    intensity = field.intensity()
    # extended-precision sums: rescaling the amplitudes perturbs every
    # intensity at rounding level, and double sums let that reach the last
    # digit of the width for about a third of sampled modes
    rows = intensity.sum(axis=1, dtype=np.longdouble)
    columns = intensity.sum(axis=0, dtype=np.longdouble)
    total = rows.sum()
    if total <= 0:
        raise ValueError("cannot measure the width of a zero-norm field")
    # r^2 = x^2 + y^2: the column sums carry the x^2 weights, the row sums
    # the y^2 weights
    squares = field.grid.axis() ** 2
    mean_r2 = float((columns @ squares + rows @ squares) / total)
    return math.sqrt(2.0 * mean_r2 / (abs(l) + 1))


def fidelity(a: ComplexField, b: ComplexField) -> float:
    """Squared overlap |<a|b>|^2 of two unit-norm fields on the same grid."""
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    overlap = np.vdot(a.amplitudes, b.amplitudes) * a.grid.pitch ** 2
    return float(abs(overlap) ** 2)
