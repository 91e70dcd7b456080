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

from .analysis import effective_width
from .core import BeamParameters, base_wavenumber
from .errors import (CarrierResolutionError, ContainmentError,
                     OrderSeparationError)
from .fileio import quantise_block
from .modes import ComplexField, GridSpec
from .propagation import _check_extremes, _plane_extremes

#: Far-field oversampling used to resolve the internal structure of orders.
DEFAULT_PAD_FACTOR = 4

#: Rows, or mask columns, a plane op takes at a time where it transposes a
#: mask, transforms its column spectrum, bounds, finishes and quantises the
#: frame's rows, or sums a band's power; each block bounds a scratch array.
QUANTISE_BLOCK_ROWS = 64

#: Acceptable neighbour leakage into an extraction window.
LEAKAGE_LIMIT = 0.01

#: Widening of the grid an isolated chirped order is re-embedded on.
CHIRPED_EMBED_FACTOR = 2

#: Low-pass cutoff of chirped-order isolation, as a fraction of the
#: chirp's spatial-frequency band.
CHIRPED_CUTOFF_FRACTION = 0.25

#: Bound on the relative gap of moment-law and propagated focus widths.
FOCUS_WIDTH_CROSSCHECK_RTOL = 1e-3


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
        # the design's petals repeat every 2 pi / l only for an integer l
        if isinstance(self.l, bool) or not isinstance(self.l,
                                                      (int, np.integer)):
            raise ValueError(
                f"hologram vorticity l must be an integer, got {self.l!r}")
        if self.l < 1:
            raise ValueError("hologram vorticity l must be >= 1")
        if not math.isfinite(self.phi0):
            raise ValueError(
                f"hologram phi0 must be finite, got {self.phi0}")
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
        # a bool array is binary by its dtype
        if vals.dtype != bool and not ((vals == 0) | (vals == 1)).all():
            raise ValueError("mask values must be strictly binary")
        object.__setattr__(self, "values", vals.astype(np.uint8))


def default_carrier(grid: GridSpec) -> float:
    """Default plane carrier: ten fringes across the aperture, rad/m."""
    return 2.0 * math.pi * 10.0 / grid.physical_side_length


def design_value(spec: HologramSpec, x, y):
    """Interference metric whose value is compared against the 1/2 threshold.

    (1/3) |2 cos(l (phi - phi0)) + exp(i * reference phase)|^2 evaluated at
    physical coordinates (x, y), which broadcast against each other.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    t = 2.0 * np.cos(spec.l * (np.arctan2(ys, xs) - spec.phi0))
    if isinstance(spec.reference, PlaneReference):
        ref_phase = spec.reference.k_x * xs
    else:
        ref_phase = spec.reference.curvature * (xs ** 2 + ys ** 2)
    val = (np.square(t) + 2.0 * t * np.cos(ref_phase) + 1.0) / 3.0
    return float(val) if val.ndim == 0 else val


def _check_carrier_resolved(spec: HologramSpec, grid: GridSpec):
    if isinstance(spec.reference, PlaneReference):
        period = 2.0 * math.pi / spec.reference.k_x
        what = "fringe period"
    else:
        r_max = grid.physical_side_length / 2.0
        # |C| r_max may underflow to 0: such a chirp is resolved on any grid
        chirp = abs(spec.reference.curvature) * r_max
        period = math.pi / chirp if chirp > 0 else math.inf
        what = "finest local zone spacing"
    if period < 4.0 * grid.pitch:
        raise CarrierResolutionError(
            f"{what} {period:.3e} m is under 4 pixels "
            f"(pitch {grid.pitch:.3e} m); refine the grid or soften the carrier")
    # the petal period 2 pi / l spans pi N / l pixels along the aperture
    # rim; l is compared as an integer and divides as one, so no l overflows
    if spec.l > math.pi * grid.samples_per_side / 4.0:
        rim = math.pi * grid.physical_side_length * (1 / spec.l)
        raise CarrierResolutionError(
            f"petal period {rim:.3e} m along the aperture rim is under 4 "
            f"pixels (pitch {grid.pitch:.3e} m); refine the grid or lower l")


def _inscribed_aperture(n: int) -> np.ndarray:
    """The inscribed circular aperture: pixels of an n x n grid whose centres
    lie within radius side/2, compared exactly in pixel units."""
    # squares of half-integers and their differences are exact
    sq = (np.arange(n) - n / 2 + 0.5) ** 2
    return sq <= ((n / 2.0) ** 2 - sq)[:, np.newaxis]


def _plane_open_pixels(spec: HologramSpec, grid: GridSpec) -> np.ndarray:
    """design_value(spec, x, y) > 1/2 at every pixel centre of a
    plane-reference hologram, bit for bit, from O(N l) evaluations of the
    design instead of N^2; an (n, n) bool array indexed [y, x].

    In column x the carrier c = cos(k_x x) is fixed.  With t = 2 cos(psi),
    psi = l (phi - phi0), the rule (t^2 + 2 t c + 1) / 3 > 1/2 holds exactly
    when cos(psi) > a = (sqrt(c^2 + 1/2) - c) / 2 or cos(psi) < b =
    -(sqrt(c^2 + 1/2) + c) / 2, so the rule can only change where psi =
    +-arccos(a) or +-arccos(b) modulo 2 pi.  A root outside [-1, 1] is
    clipped into it, which puts its two crossings on one angle.  The
    column's half plane is phi' = phi (x > 0) or phi - pi (x < 0) in
    (-pi/2, pi/2), on which y = x tan(phi') rises or falls monotonically;
    as l is an integer, the crossings there are phi' = phi0' + (+-arccos +
    2 pi k) / l, with phi0' the column's phi0 (less pi for x < 0) reduced
    modulo 2 pi / l.  Each crossing maps to the first pixel-centre row
    above y, clipped to 0..N before the cast, so the rows of a column fall
    into runs that no crossing splits.

    The reduced crossings agree with the design's own to far below a
    pixel, so a pixel that is neither the first nor the last of its run
    lies on the same side of every crossing as the run's middle pixel.
    Each run is therefore read from design_value at its middle pixel, and
    its first and last pixels, the only ones a crossing can have been
    misplaced across, are read themselves.  This holds while design_value
    resolves phi - phi0: from |phi0| of about 1e12 rad its rounding moves
    its own crossings by more than a pixel and the masks can differ, until
    beyond about 4e16 rad phi - phi0 rounds to -phi0 at every pixel, the
    design is constant down each column and every run reads it exactly.
    """
    n, l = grid.samples_per_side, spec.l
    x = grid.axis()
    px = np.arange(n) - n / 2 + 0.5
    c = np.cos(spec.reference.k_x * x)
    root = np.sqrt(np.square(c) + 0.5)
    alpha = np.arccos(np.clip((root - c) / 2, -1.0, 1.0))
    beta = np.arccos(np.clip(-(root + c) / 2, -1.0, 1.0))
    period = 2.0 * math.pi / l
    right = math.fmod(spec.phi0, period)
    left = math.fmod(right - math.pi, period)
    # phi0' is within a period of 0, so |k| <= l/4 + 3/2 reaches every
    # crossing in (-pi/2, pi/2); the others are moved past the last row
    turns = 2.0 * math.pi * np.arange(-int(l / 4 + 1.5), int(l / 4 + 1.5) + 1)
    roots = np.stack([alpha, -alpha, beta, -beta], axis=1)
    angle = ((roots[:, :, np.newaxis] + turns) / l).reshape(n, -1)
    angle += np.where(px > 0, right, left)[:, np.newaxis]
    row = np.clip(px[:, np.newaxis] * np.tan(angle) + (n / 2 + 0.5), 0, n)
    row = np.where(np.abs(angle) < math.pi / 2, np.floor(row), n)
    row = row.astype(np.intp)
    row.sort(axis=1)
    edges = np.concatenate([np.zeros((n, 1), np.intp), row,
                            np.full((n, 1), n, np.intp)], axis=1)
    length = np.diff(edges, axis=1)
    col, run = np.nonzero(length)
    first, size = edges[col, run], length[col, run]
    # rows of the middle, first and last pixel of each non-empty run
    probe = np.stack([first + size // 2, first, first + size - 1])
    is_open = design_value(spec, x[col], x[probe]) > 0.5
    columns = np.repeat(is_open[0], size)
    columns[col * n + probe[1:]] = is_open[1:]
    columns = columns.reshape(n, n)
    # transposed a block of columns at a time, so each block stays in cache
    open_pixels = np.empty((n, n), dtype=bool)
    for lo in range(0, n, QUANTISE_BLOCK_ROWS):
        open_pixels[:, lo:lo + QUANTISE_BLOCK_ROWS] = \
            columns[lo:lo + QUANTISE_BLOCK_ROWS].T
    return open_pixels


def synthesize_hologram(spec: HologramSpec, grid: GridSpec) -> BinaryMask:
    """Threshold the design at pixel centres; values strictly above 1/2 are
    open.  The inscribed circular aperture is applied, so only pixels inside
    radius side/2 can be open.  A plane reference's threshold is found from
    its crossings (_plane_open_pixels); a spherical reference's design is
    evaluated at every pixel."""
    _check_carrier_resolved(spec, grid)
    if isinstance(spec.reference, PlaneReference):
        open_pixels = _plane_open_pixels(spec, grid)
    else:
        # x along a row, y down a column: the design broadcasts to the plane
        x = grid.axis()
        open_pixels = design_value(spec, x[np.newaxis, :],
                                   x[:, np.newaxis]) > 0.5
    aperture = _inscribed_aperture(grid.samples_per_side)
    aperture &= open_pixels
    return BinaryMask(grid, aperture)


def _column_spectrum(values: np.ndarray, pad_factor: int, first: int = 0,
                     bound: np.ndarray | None = None) -> np.ndarray:
    """Bins first..m/2 of the rfft stage of fftshift(fft2(ifftshift(padded),
    norm="ortho")) of a real n x n array zero-padded to m x m, m = n *
    pad_factor, by (m - n) / 2 on each side: an (n, m/2 + 1 - first) array
    whose row x is the transform along y of mask column x.

    Both shifts become a (-1)^(x+y) sign on the input, which needs m and n
    even (GridSpec makes n even).  The signed input is real, so its
    spectrum is Hermitian and rows 0..m/2 hold all of it.  An rfft along y
    of the n mask columns alone gives those rows on the mask columns; the
    zero columns of the padding would transform to zero and are skipped.
    The columns are signed, ifftshifted and transformed QUANTISE_BLOCK_ROWS
    at a time through one reused zero-padded (B, m) buffer; each row's rfft
    is independent, so the blocks do not change a bit of it.  At first = 0
    the bins are transformed straight into the result; a later first
    transforms each block into one reused (B, m/2 + 1) scratch block and
    keeps its bins first..m/2.  A given bound, a length m/2 + 1 float
    array, has each block's sum_x |C[x, j]| over all bins j added to it
    while the block is in cache (FarField.frame's dark-row bound).  Row j
    is then one length-m fft along x of column j placed at the ifftshifted
    positions of the mask columns (_finish_rows).
    """
    n = values.shape[0]
    m = n * pad_factor
    h = n // 2
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    buffer = np.zeros((min(n, QUANTISE_BLOCK_ROWS), m))
    scratch = (np.empty((len(buffer), m // 2 + 1), dtype=np.complex128)
               if first else None)
    out = np.empty((n, m // 2 + 1 - first), dtype=np.complex128)
    for lo in range(0, n, QUANTISE_BLOCK_ROWS):
        hi = min(lo + QUANTISE_BLOCK_ROWS, n)
        signed = values[:, lo:hi].T * np.multiply.outer(sign[lo:hi], sign)
        block = buffer[:hi - lo]
        block[:, :h] = signed[:, h:]
        block[:, m - h:] = signed[:, :h]
        spectrum = np.fft.rfft(block, axis=1, norm="ortho",
                               out=scratch[:hi - lo] if first else out[lo:hi])
        if bound is not None:
            bound += np.abs(spectrum).sum(axis=0)
        if first:
            out[lo:hi] = spectrum[:, first:]
    return out


def _finish_rows(columns: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """Write far-field rows lo..lo + k - 1, 0 <= lo, lo + k <= m/2 + 1,
    into the k x m complex array out from columns, the matching k bins of
    an (n, .) column spectrum; returns out.  The rows are transformed in
    the precision of out: a complex64 out takes the columns cast to it."""
    m = out.shape[1]
    half_n = columns.shape[0] // 2
    # the mask columns land at their ifftshifted positions along x
    out[:, :half_n] = columns[half_n:].T
    out[:, half_n:m - half_n] = 0.0
    out[:, m - half_n:] = columns[:half_n].T
    np.fft.fft(out, axis=1, norm="ortho", out=out)
    # rows 0 and m/2 are their own mirrors; rounding leaves their halves
    # unequal in the last bit, so the right half is set from the left
    for row in (0, m // 2):
        if lo <= row < lo + len(out):
            np.conjugate(out[row - lo, m // 2 - 1:0:-1],
                         out=out[row - lo, m // 2 + 1:])
    return out


def _point_mirror(full: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Fill rows 2h - hi + 1..2h - lo of a 2h x m array of any dtype from its
    rows hi - 1..lo, 1 <= lo, hi <= h: full[h + k, c] = full[h - k, (m - c)
    % m], the point mirror about row h under which the intensity of a
    Hermitian spectrum is invariant (h = m/2 for the whole frame; lo = 1,
    hi = h mirrors every row); returns full."""
    h2 = full.shape[0]
    full[h2 - hi + 1:h2 - lo + 1, 0] = full[hi - 1:lo - 1:-1, 0]
    full[h2 - hi + 1:h2 - lo + 1, 1:] = full[hi - 1:lo - 1:-1, :0:-1]
    return full


def _band_power(upper: np.ndarray) -> np.ndarray:
    """Column sums of the intensity of rows m/2 - half..m/2 + half - 1 of an
    m x m far field, from its rows m/2 - half..m/2, the (half + 1) x m array
    upper: a length-m vector.

    Rows m/2 - half + 1..m/2 - 1 reappear above m/2 point-mirrored, so
    their column power is added once more, reflected to column (m - c) % m.
    The rows are summed QUANTISE_BLOCK_ROWS at a time, bounding the float
    scratch.
    """
    half = len(upper) - 1
    power, mirrored = np.zeros(upper.shape[1]), np.zeros(upper.shape[1])
    for lo in range(0, half + 1, QUANTISE_BLOCK_ROWS):
        intensity = np.abs(upper[lo:lo + QUANTISE_BLOCK_ROWS])
        np.square(intensity, out=intensity)
        power += intensity.sum(axis=0)
        mirrored += intensity[max(1 - lo, 0):half - lo].sum(axis=0)
    power[0] += mirrored[0]
    power[1:] += mirrored[:0:-1]
    return power


@dataclass(frozen=True)
class FarField:
    """Centred far field of a real mask, held as a band of its column
    spectrum, the band's dark-row bound and the mask itself.

    The far field lives on grid, an m x m grid in spatial frequency whose
    pitch is in cycles per metre (diffract_far_field); m = n pad_factor,
    n the mask's samples per side, so the zero padding of the transform is
    read from the mask and the grid.  columns holds bins first..m/2 of the
    mask's (n, m/2 + 1) column spectrum, the rfft stage of the transform
    (_column_spectrum): first = 0 keeps all of it, and a plane op keeps
    only its order band, bins m/2 - half..m/2 (diffract_far_field).  Row j
    <= m/2 of the far field is finished from bin j by one zero-padded
    length-m fft along x.  The spectrum of a real mask is Hermitian, so row
    j > m/2 is conj(row m - j) at columns (m - c) % m, and only rows
    0..m/2 are ever finished.  bound is the length m/2 + 1 vector sum_x
    |C[x, j]| over every bin j, kept or not, summed while the spectrum was
    transformed; frame() reads it to leave dark rows unfinished.

    A row below the kept bins is finished from the spectrum transformed
    again from the mask, bins from that row up to m/2 in one pass: for
    the lit rows frame() finds below the band, once per frame, and for the
    rows of amplitudes or of a wider band.  frame() finishes its rows a
    QUANTISE_BLOCK_ROWS block at a time in single precision, so no array
    the size of the far field is held beside the spectrum and the frame;
    extract_orders finishes the rows up to m/2 of one centred band at
    once, in double precision like the column spectrum.  amplitudes is
    the whole complex array, for library callers.
    """

    grid: GridSpec
    mask: BinaryMask
    columns: np.ndarray
    bound: np.ndarray

    def __post_init__(self):
        m, n = self.grid.samples_per_side, self.mask.grid.samples_per_side
        if m % n or not (self.columns.ndim == 2
                         and self.columns.shape[0] == n
                         and 1 <= self.columns.shape[1] <= m // 2 + 1):
            raise ValueError(
                f"column spectrum shape {self.columns.shape} is not (n, k) "
                f"with n = {n}, the mask's side, dividing {m}, the far "
                f"field's side, and 1 <= k <= {m // 2 + 1}")
        if self.bound.shape != (m // 2 + 1,):
            raise ValueError(f"dark-row bound shape {self.bound.shape} is "
                             f"not ({m // 2 + 1},)")

    @property
    def pad_factor(self) -> int:
        """The zero padding m / n of the transform."""
        return self.grid.samples_per_side // self.mask.grid.samples_per_side

    @property
    def first(self) -> int:
        """The lowest kept bin: columns holds bins first..m/2."""
        return self.grid.samples_per_side // 2 + 1 - self.columns.shape[1]

    def _widened(self, first: int) -> FarField:
        """This far field keeping bins first..m/2, all transformed again
        from the mask in one pass."""
        return replace(self, columns=_column_spectrum(
            self.mask.values, self.pad_factor, first))

    def _finish(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Write rows lo..hi-1 of the far field, 0 <= lo <= hi <= m/2 + 1,
        into the (hi - lo) x m complex array out; returns out.  Rows below
        the kept bins are finished from the spectrum transformed again."""
        far = self if lo >= self.first else self._widened(lo)
        return _finish_rows(far.columns[:, lo - far.first:hi - far.first],
                            lo, out)

    def frame(self) -> tuple[np.ndarray, float]:
        """(m x m uint8 frame, peak) of the intensity I = |amplitudes|^2:
        rint(255 I / peak), peak the zero frequency's intensity.

        The mask is non-negative, so |F(k)| <= F(0): peak is the largest
        intensity, and it is taken in double precision from row m/2 alone,
        before any other row is finished.  The frame keeps 8 bits, so rows
        0..m/2 are finished in single precision, QUANTISE_BLOCK_ROWS at a
        time in one ascending pass, and each block is squared and quantised
        into the frame as soon as it is finished, and its rows' point
        mirror is copied as bytes into the frame's other rows.  A peak that
        is not finite, or a block whose largest intensity is not within half
        a level of peak, peak * 255.5 / 255, and so would not fit 8 bits, is
        refused with ValueError (a nan or inf in a bin spreads along its
        row).

        A block whose rows all provably quantise to zero is left zero
        without being finished.  Row j is the ortho length-m transform of
        bin j of the column spectrum, so by the triangle inequality none of
        its pixels exceeds B_j = bound[j]^2 / m, bound[j] = sum_x |C[x, j]|
        summed in double precision a block of mask columns at a time while
        the spectrum was transformed.  A row is dark when B_j < (0.5 / 255)
        peak (1 - 1e-3).  Finished in single precision, each pixel of a row
        is a sum of the row's inputs through about log2(m) levels of
        unit-modulus twiddles, so the complex64 cast and the fft move its
        modulus by about log2(m) 2^-24 ~ 1e-6 of sqrt(B_j) at most, and
        squaring and scaling add a few 2^-24 more: far inside the 1e-3
        margin, so a dark row's 255 I / peak stays below 0.5 and rounds to
        0, as it would finished.  Every other block is lit, and finished
        and checked as above, so the frame's bytes do not change; a nan or
        inf in a bin makes its B_j non-finite, never dark.  Lit rows below
        the kept bins are finished from one spectrum, transformed again
        from the mask from the lowest lit block up.  The frame is allocated
        zeroed, so a dark block and its mirror rows are never written.
        """
        m = self.grid.samples_per_side
        rows = m // 2 + 1
        zero_row = self._finish(m // 2, rows,
                                np.empty((1, m), dtype=np.complex128))
        peak = float(np.square(np.abs(zero_row[0, m // 2])))
        if not math.isfinite(peak):
            raise ValueError(f"far-field zero-order peak {peak:.6e} is not "
                             "finite")
        limit = peak * 255.5 / 255
        dark = np.square(self.bound) / m < 0.5 / 255 * peak * (1 - 1e-3)
        lit = [lo for lo in range(0, rows, QUANTISE_BLOCK_ROWS)
               if not dark[lo:lo + QUANTISE_BLOCK_ROWS].all()]
        # lit rows below the kept bins come from one spectrum, transformed
        # again from the lowest lit block up
        far = self._widened(lit[0]) if lit and lit[0] < self.first else self
        gray = np.zeros((m, m), dtype=np.uint8)
        block = np.empty((min(QUANTISE_BLOCK_ROWS, rows), m),
                         dtype=np.complex64)
        scratch = np.empty(block.shape, dtype=np.float32)
        for lo in lit:
            hi = min(lo + QUANTISE_BLOCK_ROWS, rows)
            intensity = scratch[:hi - lo]
            np.abs(far._finish(lo, hi, block[:hi - lo]), out=intensity)
            np.square(intensity, out=intensity)
            largest = float(intensity.max())
            if not largest <= limit:
                raise ValueError(
                    f"far-field intensity {largest:.6e} in rows {lo}.."
                    f"{hi - 1} is not within half a level of the zero-order "
                    f"peak {peak:.6e}")
            quantise_block(intensity, peak, gray[lo:hi])
            # the frame is allocated zeroed, so only finished rows are
            # mirrored; row 0's mirror is off the frame, row m/2 is its own
            _point_mirror(gray, max(lo, 1), min(hi, m // 2))
        return gray, peak

    @property
    def amplitudes(self) -> np.ndarray:
        """The full m x m complex far field, built on each access: rows
        0..m/2 are finished at once, the rows above are their conjugate
        point mirror."""
        m = self.grid.samples_per_side
        out = np.empty((m, m), dtype=np.complex128)
        self._finish(0, m // 2 + 1, out[:m // 2 + 1])
        mirrored = _point_mirror(out, 1, m // 2)[m // 2 + 1:]
        np.conjugate(mirrored, out=mirrored)
        return out


def diffract_far_field(mask: BinaryMask,
                       pad_factor: int = DEFAULT_PAD_FACTOR,
                       spec: HologramSpec | None = None) -> FarField:
    """Centred unitary Fourier transform of the mask as a unit-amplitude
    transmission function, held as bins of its column spectrum from which
    FarField finishes only the rows it is asked for.

    The output grid is in spatial-frequency coordinates (cycles per metre);
    zero padding by pad_factor refines the far-field sampling without
    changing the spanned frequency range.  The beam energy sets only the
    angular scale of the pattern (deflection angle = de Broglie wavelength
    times spatial frequency), not its content, so it is not an input.
    Without spec every bin 0..m/2 is kept.  Given the mask's plane-reference
    spec, only the bins of its order band, m/2 - half..m/2 with half the
    window half-width of extract_orders, are kept; the windows are checked
    here as there (OrderSeparationError).  The dark-row bound of every bin
    is kept either way.
    """
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    n = mask.grid.samples_per_side
    grid = GridSpec(n * pad_factor, 1.0 / mask.grid.pitch)
    first = 0
    if spec is not None:
        first = grid.samples_per_side // 2 - _order_windows(spec, grid)[0]
    bound = np.zeros(grid.samples_per_side // 2 + 1)
    return FarField(grid, mask,
                    _column_spectrum(mask.values, pad_factor, first, bound),
                    bound)


@lru_cache(maxsize=4)
def _aperture_kernel(n: int, pad_factor: int,
                     half: int) -> tuple[np.ndarray, int]:
    """(column power, open-pixel count) of the bare inscribed-circle
    aperture's far field: power[c] sums its intensity over rows m/2 -
    half..m/2 + half - 1 at column c (_band_power), the length-m vector
    whose column ranges extract_orders sums into window spreads.  Only
    bins m/2 - half..m/2 of the disk's column spectrum are kept
    (_column_spectrum), and rows m/2 - half..m/2 are finished from them at
    once, as extract_orders finishes the far field's.  By Parseval
    power sums to the count at half = m/2."""
    disk = _inscribed_aperture(n)
    m = n * pad_factor
    base = m // 2 - half
    upper = _finish_rows(_column_spectrum(disk, pad_factor, base), base,
                         np.empty((half + 1, m), dtype=np.complex128))
    return _band_power(upper), int(np.count_nonzero(disk))


def _window_sum(power: np.ndarray, centre_col: int, half: int) -> float:
    """Sum of the column power over columns centre_col +- half; nan if
    those columns leave the far field."""
    c0, c1 = centre_col - half, centre_col + half
    if c0 < 0 or c1 > len(power):
        return math.nan
    return float(power[c0:c1].sum())


def _order_windows(spec: HologramSpec,
                   far_grid: GridSpec) -> tuple[int, dict[int, int]]:
    """(half, cols) of a plane hologram's far field on far_grid: the
    window half-width int(carrier / 2), carrier the k_x in far-field
    pixels, and the centre column m/2 + round(o carrier) of order o,
    -4 <= o <= 4.  They depend on k_x and the grid alone, so
    diffract_far_field and extract_orders refuse them before any far-field
    bin is held: OrderSeparationError for a spherical reference, whose
    orders do not separate transversely, a window under 16 pixels wide, or
    an order -1 window that leaves the far field."""
    if isinstance(spec.reference, SphericalReference):
        raise OrderSeparationError(
            "spherical-reference orders separate longitudinally, not "
            "transversely; analyse them by Fresnel propagation")
    carrier_px = spec.reference.k_x / (2.0 * math.pi) / far_grid.pitch
    half = int(carrier_px / 2.0)
    if 2 * half < 16:
        raise OrderSeparationError(
            f"carrier spans only {carrier_px:.1f} far-field pixels; windows "
            "would be smaller than a usable grid")
    centre = far_grid.samples_per_side // 2
    cols = {o: centre + round(o * carrier_px) for o in range(-4, 5)}
    # the +-1 windows are mirror images about the centre and order 0's lies
    # between them, so order -1's lower edge bounds all three
    if cols[-1] - half < 0:
        raise OrderSeparationError(
            "order -1 window falls outside the sampled far field")
    return half, cols


def extract_orders(far_field: FarField,
                   spec: HologramSpec) -> dict[int, ComplexField]:
    """Crop the far field around orders -1, 0 and +1 and re-centre each;
    returns {-1: field, 0: field, +1: field}.

    Only plane-reference holograms separate their orders transversely;
    spherical references raise OrderSeparationError.  The window half-width
    is k_x / 2, and every window and crop spans the band of rows m/2 +-
    k_x / 2.  Its rows up to m/2, upper, are finished once, after the
    aperture kernel is fetched.  Window powers are sums over column ranges
    of the band's column power (_band_power).  Each crop is upper at its
    own columns c, and its rows above m/2 are conj(upper) reversed along
    the rows at columns (m - c) % m.  An order's own power must be positive
    and finite, and its estimated neighbour leakage, spread by the aperture
    kernel at the far field's own padding, within 1 percent of it, or
    OrderSeparationError is raised; orders are checked in the order -1, 0,
    +1.
    """
    m = far_field.grid.samples_per_side
    freq_pitch = far_field.grid.pitch   # cycles/m per far-field pixel
    half, cols = _order_windows(spec, far_field.grid)
    # the kernel is built before the band is held, so their rows are never
    # held together; the bounds check of the windows implies half <= m/2
    kernel_power, kernel_total = _aperture_kernel(
        far_field.mask.grid.samples_per_side, far_field.pad_factor, half)
    upper = far_field._finish(m // 2 - half, m // 2 + 1,
                              np.empty((half + 1, m), dtype=np.complex128))
    power = _band_power(upper)
    # the powers of orders -3..3; a window that leaves the far field sums
    # to nan and adds no leakage
    powers = {o: _window_sum(power, cols[o], half) for o in range(-3, 4)}
    # an order's neighbours lie d = 1..4 carriers away, where the aperture
    # kernel's spread is its power in the window of order d
    spreads = {d: _window_sum(kernel_power, cols[d], half) for d in range(1, 5)}
    out_grid = GridSpec(2 * half, 2 * half * freq_pitch)
    fields = {}
    for order in (-1, 0, +1):
        own = powers[order]
        leak = 0.0
        for o, p in powers.items():
            spread = math.nan if o == order else spreads[abs(o - order)]
            if not math.isnan(p * spread):
                leak += p * spread / kernel_total
        if not 0 < own < math.inf:
            raise OrderSeparationError(
                f"order {order:+d} window power {own:.3e} is not positive "
                "and finite")
        if not leak <= LEAKAGE_LIMIT * own:
            raise OrderSeparationError(
                f"estimated neighbour leakage {leak:.3e} exceeds 1% of order "
                f"{order:+d} power {own:.3e}; increase the carrier frequency")
        c = np.arange(cols[order] - half, cols[order] + half)
        crop = np.empty((2 * half, 2 * half), dtype=np.complex128)
        crop[:half + 1] = upper[:, c]
        # row m/2 + k at column c is conj(row m/2 - k) at column m - c
        np.conjugate(upper[half - 1:0:-1, (m - c) % m], out=crop[half + 1:])
        # the crop is the order's own window, whose power is `own`
        crop /= math.sqrt(own * freq_pitch ** 2)
        fields[order] = ComplexField(out_grid, 0.0, crop)
    return fields


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
    exp(-i sign C r^2) is the outer product of one vector exp(-i sign C
    x^2) along the embed's axis, so no chirp is evaluated on the plane; the
    mask is demodulated in its own central block of the zeroed embed, which
    is transformed, low-passed, restored and tapered in place.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    if not isinstance(spec.reference, SphericalReference):
        raise ValueError("isolate_chirped_order needs a spherical reference")
    grid = mask.grid
    n = grid.samples_per_side
    big = GridSpec(n * CHIRPED_EMBED_FACTOR,
                   grid.physical_side_length * CHIRPED_EMBED_FACTOR)
    # n is even, so the mask is centred with equal padding on each side
    lo = (big.samples_per_side - n) // 2
    x = big.axis()
    c = spec.reference.curvature
    chirp = np.exp(-1j * sign * c * np.square(x))
    component = np.zeros((big.samples_per_side,) * 2, dtype=np.complex128)
    inner = chirp[lo:lo + n]
    component[lo:lo + n, lo:lo + n] = mask.values * np.multiply.outer(
        inner, inner)

    k = 2.0 * np.pi * np.fft.fftfreq(big.samples_per_side, d=big.pitch)
    chirp_band = 2.0 * abs(c) * (grid.physical_side_length / 2.0)
    cutoff = CHIRPED_CUTOFF_FRACTION * chirp_band
    np.fft.fft2(component, out=component)
    component *= np.add.outer(k ** 2, k ** 2) <= cutoff ** 2
    np.fft.ifftn(component, out=component)
    # exp(i sign C r^2) is the conjugate outer product
    np.conjugate(chirp, out=chirp)
    component *= chirp[:, np.newaxis]
    component *= chirp
    # the low-pass ringing decays too slowly for the propagator's border
    # check; taper it away well outside the mask circle, where the order
    # itself carries no energy
    r_mask = grid.physical_side_length / 2.0
    r_border = big.physical_side_length / 2.0
    taper_from = 1.2 * r_mask
    taper_to = 0.95 * r_border
    rr = np.sqrt(np.add.outer(np.square(x), np.square(x)))
    ramp = np.clip((rr - taper_from) / (taper_to - taper_from), 0.0, 1.0)
    component *= np.cos(0.5 * np.pi * ramp) ** 2
    norm = math.sqrt(np.vdot(component, component).real * big.pitch ** 2)
    if norm == 0.0:
        raise OrderSeparationError("isolated component vanished; check C")
    component /= norm
    return ComplexField(big, 0.0, component)


def _fresnel_plane(spectrum: np.ndarray, k: np.ndarray, z: float, k0: float,
                   out: np.ndarray) -> np.ndarray:
    """ifft2(spectrum exp(-0.5j (k_y^2 + k_x^2) z / k0)) written into out,
    which may be spectrum itself: the free-space plane at z of the field
    whose fft2 is spectrum, k the angular wavenumbers along either axis.
    The Fresnel phase is the outer product of one length-N vector; returns
    out."""
    phase = np.exp(-0.5j * k ** 2 * z / k0)
    np.multiply(spectrum, phase[:, np.newaxis], out=out)
    out *= phase
    return np.fft.ifftn(out, out=out)


def locate_minimum_width_plane(field: ComplexField, p: BeamParameters,
                               z_max: float):
    """(z, width) of the narrowest plane of a field in free space (B = 0).

    Moments about the grid axis obey <r^2>(z) = <r^2> + (z/k0) <rp + pr>
    + (z/k0)^2 <p^2> exactly: z = -k0 <rp + pr> / (2 <p^2>), < 0 for a
    diverging field; width = sqrt(2 <r^2>(z)) as in effective_width.  Rays
    are straight, so the planes 0, z and copysign(z_max, z) bound the
    border intensity between them; as the peak changes along z, the largest
    border intensity of the three is checked against their smallest peak.
    The two propagated planes are built one at a time in one buffer
    (_fresnel_plane), each reduced to its (border, peak) pair before the
    next.  The width at z must match FOCUS_WIDTH_CROSSCHECK_RTOL.
    Non-finite moments, from a field whose scales leave floating point,
    are refused.
    """
    grid, amps, k0 = field.grid, field.amplitudes, base_wavenumber(p)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.samples_per_side, d=grid.pitch)
    k_sq = k[:, np.newaxis] ** 2 + k ** 2
    spectrum = np.fft.fft2(amps)
    x_sq = np.square(grid.axis())
    r_sq = np.add.outer(x_sq, x_sq)
    intensity, power = np.abs(amps) ** 2, np.abs(spectrum) ** 2
    # <rp + pr> = sum r^2 Im(psi* L psi), L psi = -laplacian(psi)
    # spectrally; its buffer then holds each propagated plane in turn
    plane = spectrum * k_sq
    l_psi = np.fft.ifftn(plane, out=plane)
    rp = float((r_sq * (np.conj(amps) * l_psi).imag).sum() / intensity.sum())
    r2 = float((intensity * r_sq).sum() / intensity.sum())
    p2 = float((power * k_sq).sum() / power.sum())
    z_focus = -k0 * rp / (2.0 * p2)
    width = math.sqrt(2.0 * (r2 - rp ** 2 / (4.0 * p2)))
    if not (math.isfinite(z_focus) and math.isfinite(width)):
        raise ContainmentError(
            f"focus moments are not finite (z = {z_focus:.6e} m, width "
            f"{width:.6e} m): the field's scales leave floating point")
    z_guard = math.copysign(z_max, z_focus)
    context = f"fields at z = 0, {z_guard:.6e} and {z_focus:.6e} m"
    extremes = [_plane_extremes(amps, context)]
    for z in (z_guard, z_focus):
        extremes.append(_plane_extremes(
            _fresnel_plane(spectrum, k, z, k0, plane), context))
    _check_extremes(extremes, context)
    measured = effective_width(ComplexField(grid, z_focus, plane))
    if not abs(measured - width) <= FOCUS_WIDTH_CROSSCHECK_RTOL * width:
        raise ContainmentError(
            f"focus width {measured:.6e} m propagated, {width:.6e} m from "
            "the moment law: the field wraps around the grid; enlarge it")
    return z_focus, width
