"""Transverse beam modes: associated Laguerre polynomials, radial profiles,
grid sampling of eigenmode superpositions, and the analytic width of a
mismatched (breathing) beam.

A sampled (p, l) Laguerre-Gauss mode is a polynomial of degree 2p+|l| in
(x, y) times a Gaussian, so across the x/y split it has rank exactly
2p+|l|+1.  mode_field samples it in that separable form through the
Laguerre-Gauss to Hermite-Gauss expansion (Beijersbergen et al., Opt.
Commun. 96, 123 (1993)), and the propagator steps the 1-D factors.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (BeamParameters, ModeIndex, larmor_wavenumber,
                   magnetic_width, paraxial_phase)
from .errors import (GridAdequacyWarning, InvalidGridError,
                     InvalidModeError, NotAnEigenstateError,
                     UnsupportedOrderError, ZeroFieldError)

#: Highest polynomial degree the recurrence is validated for.
LAGUERRE_MAX_ORDER = 60

#: Relative tolerance when deciding whether a waist equals the magnetic width.
EIGEN_WAIST_RTOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform square sampling grid centred on the beam axis.

    Samples sit at pixel centres, x = (ix - N/2 + 1/2) * pitch, so the beam
    axis r = 0 never coincides with a sample.
    """

    samples_per_side: int
    physical_side_length: float

    def __post_init__(self):
        n = self.samples_per_side
        if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
                or n < 16 or n % 2 != 0):
            raise InvalidGridError(
                f"samples_per_side must be an even integer >= 16, got {n}")
        if not 0 < self.physical_side_length < math.inf:
            raise InvalidGridError(
                "physical_side_length must be positive and finite, got "
                f"{self.physical_side_length}")

    @property
    def pitch(self) -> float:
        return self.physical_side_length / self.samples_per_side

    def axis(self) -> np.ndarray:
        """Pixel-centre coordinates along one axis."""
        n = self.samples_per_side
        return (np.arange(n) - n / 2 + 0.5) * self.pitch

    def meshgrid(self):
        """(X, Y) coordinate arrays; index (iy, ix) maps to (x, y)."""
        x = self.axis()
        return np.meshgrid(x, x)


@dataclass(frozen=True)
class ComplexField:
    """Complex amplitudes sampled at the pixel centres of a GridSpec.

    factors, when present, is a separable form (Y, X) of the amplitudes:
    two (R, N) arrays of y- and x-factors with amplitudes = Y.T @ X to
    rounding.  The propagator steps these 2R lines instead of the N x N
    plane; a field built from a plane alone is stepped whole.  A field
    keeps only what it was given: one built from its factors alone has no
    plane, and each read of amplitudes builds Y.T @ X anew.
    """

    grid: GridSpec
    z_position: float
    plane: np.ndarray | None = field(default=None, repr=False)
    factors: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = self.grid.samples_per_side
        if self.plane is None and self.factors is None:
            raise ValueError("a field needs its amplitudes or its factors")
        if self.plane is not None:
            amps = np.asarray(self.plane, dtype=np.complex128)
            if amps.shape != (n, n):
                raise ValueError(
                    f"amplitude array shape {amps.shape} does not match grid "
                    f"({n} x {n})")
            object.__setattr__(self, "plane", amps)
        if self.factors is not None:
            y, x = (np.asarray(f, dtype=np.complex128) for f in self.factors)
            if y.ndim != 2 or y.shape != x.shape or y.shape[1] != n:
                raise ValueError(
                    f"factor shapes {y.shape} and {x.shape} are not both "
                    f"(R, {n})")
            object.__setattr__(self, "factors", (y, x))

    @property
    def amplitudes(self) -> np.ndarray:
        """The N x N plane: the one given, or Y.T @ X, built anew on each
        read and not kept."""
        if self.plane is None:
            y, x = self.factors
            return y.T @ x
        return self.plane

    def window(self, rows: slice, cols: slice) -> np.ndarray:
        """amplitudes[rows, cols]; without a plane, built from the factors'
        rows and columns alone."""
        if self.plane is None:
            y, x = self.factors
            return y[:, rows].T @ x[:, cols]
        return self.plane[rows, cols]

    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _factor_norm(y: np.ndarray, x: np.ndarray) -> float:
    """sum |Y.T @ X|^2 from the R x R Gram matrices, without the plane:
    sum_rs (Y Y^H)_rs (X X^H)_rs."""
    gram_y = y @ y.conj().T
    gram_x = x @ x.conj().T
    return float(np.sum(gram_y * gram_x).real)


@dataclass(frozen=True)
class ModeSuperposition:
    """An analytic beam as a list of (mode index, coefficient, waist) terms.

    Coefficients must satisfy sum |c|^2 = 1 to within 1e-9.
    """

    terms: tuple
    params: BeamParameters

    def __post_init__(self):
        terms = tuple((idx, complex(c), float(w)) for idx, c, w in self.terms)
        if not terms:
            raise ValueError("superposition needs at least one term")
        for idx, _, w in terms:
            if not isinstance(idx, ModeIndex):
                raise TypeError("each term must start with a ModeIndex")
            if not w > 0:
                raise ValueError("all waists must be positive")
        total = sum(abs(c) ** 2 for _, c, _ in terms)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"coefficients must satisfy sum |c|^2 = 1, got {total!r}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def opposite_pair(cls, l: int, waist: float,
                      params: BeamParameters) -> "ModeSuperposition":
        """Equal-weight superposition of the n = 0 modes with +l and -l."""
        if l == 0:
            raise InvalidModeError("opposite_pair needs l != 0")
        c = 1.0 / math.sqrt(2.0)
        return cls(((ModeIndex(0, +l), c, waist), (ModeIndex(0, -l), c, waist)),
                   params)


def _check_degree(n: int):
    if n < 0 or int(n) != n:
        raise ValueError("degree n must be a non-negative integer")
    if n > LAGUERRE_MAX_ORDER:
        raise UnsupportedOrderError(
            f"degree {n} exceeds the validated ceiling {LAGUERRE_MAX_ORDER}")


def assoc_laguerre(n: int, alpha: int, x):
    """Associated Laguerre polynomial L_n^alpha(x) by three-term recurrence.

    Overflow-free and numerically stable up to n = LAGUERRE_MAX_ORDER.
    Accepts scalar or array x.
    """
    _check_degree(n)
    if alpha < 0 or int(alpha) != alpha:
        raise ValueError("order alpha must be a non-negative integer")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    prev = np.ones_like(xs)
    if n == 0:
        return float(prev) if scalar else prev
    curr = (alpha + 1.0) - xs
    for k in range(1, n):
        curr, prev = ((2 * k + 1 + alpha - xs) * curr - (k + alpha) * prev) / (k + 1), curr
    return float(curr) if scalar else curr


def radial_profile(n: int, l: int, r, w: float):
    """Radial amplitude of the (n, l) mode with waist w, in 1/m.

    Normalised so that the full transverse mode R(r) e^{il phi} carries unit
    probability: 2 pi * integral of R^2 r dr = 1.
    """
    if not w > 0:
        raise ValueError("waist must be positive")
    al = abs(l)
    rs = np.asarray(r, dtype=float)
    if np.any(rs < 0):
        raise ValueError("radius must be non-negative")
    # sqrt(2 n! / (pi (n+|l|)!)) via lgamma to stay finite at large |l|.
    prefactor = math.exp(0.5 * (math.log(2.0 / math.pi)
                                + math.lgamma(n + 1) - math.lgamma(n + al + 1))) / w
    rho = math.sqrt(2.0) * rs / w
    value = (prefactor * rho ** al * np.exp(-rs ** 2 / w ** 2)
             * assoc_laguerre(n, al, 2.0 * rs ** 2 / w ** 2))
    return float(value) if rs.ndim == 0 else value


def _warn_if_inadequate(grid: GridSpec, width: float):
    if width < 6.0 * grid.pitch:
        warnings.warn(
            f"beam width {width:.3e} m spans fewer than 6 pixels "
            f"(pitch {grid.pitch:.3e} m)", GridAdequacyWarning, stacklevel=3)
    if grid.physical_side_length < 6.0 * width:
        warnings.warn(
            f"grid side {grid.physical_side_length:.3e} m is below 6 beam "
            f"widths ({width:.3e} m)", GridAdequacyWarning, stacklevel=3)


def _hermite_functions(order: int, xi: np.ndarray) -> np.ndarray:
    """Normalised Hermite functions h_0 .. h_order at xi, one per row, by
    their three-term recurrence."""
    h = np.empty((order + 1, xi.size))
    h[0] = math.pi ** -0.25 * np.exp(-xi ** 2 / 2.0)
    if order:
        h[1] = math.sqrt(2.0) * xi * h[0]
    for k in range(1, order):
        h[k + 1] = (math.sqrt(2.0 / (k + 1)) * xi * h[k]
                    - math.sqrt(k / (k + 1)) * h[k - 1])
    return h


def _hermite_gauss_weights(n: int, al: int) -> list:
    """Weights i^k b(n, n+|l|, k), k = 0 .. 2n+|l|, of the Hermite-Gauss
    modes h_{2n+|l|-k}(x) h_k(y) that sum to the (n, +|l|) mode.

    b is (-1)^n sqrt((N-k)! k! / (2^N n! m!)) times the t^k coefficient of
    (1-t)^n (1+t)^m, m = n+|l|, N = n+m; the coefficients are exact
    integers, so no alternating sum cancels.  The sign (-1)^n matches
    radial_profile's leading Laguerre coefficient.
    """
    m = n + al
    poly = [1]
    for sign in [-1] * n + [1] * m:
        poly = [a + sign * b for a, b in zip(poly + [0], [0] + poly)]
    order = n + m
    denominator = 2 ** order * math.factorial(n) * math.factorial(m)
    # c's sign is applied as a float factor: c itself may exceed a float
    return [(-1) ** n * (1, 1j, -1, -1j)[k % 4]
            * (math.sqrt(c * c * math.factorial(order - k) * math.factorial(k)
                         / denominator) * (-1.0 if c < 0 else 1.0))
            for k, c in enumerate(poly)]


def mode_field(grid: GridSpec, n: int, l: int, waist: float) -> ComplexField:
    """Sample the (n, l) mode of the given waist at z = 0, unit grid norm.

    This is plain profile sampling: the waist is unconstrained, so the result
    is a valid initial condition for the numerical propagator whether or not
    it is an eigenstate.  The field is its rank-(2n+|l|+1) factors,
    sampled in closed form as Hermite-Gauss products and normalised from
    their Gram matrices; its plane is built on each read.  A -l mode is
    the +l mode mirrored, y -> -y, a reversal of its y-factors.

    InvalidModeError refuses, before any weight is built, a mode whose
    factor r^|l| exp(-r^2/w^2) peaks at or beyond the grid's corners, and
    then one whose sampled Gram norm is zero or, by rounding, negative.
    """
    _check_degree(n)
    if not waist > 0:
        raise ValueError("waist must be positive")
    _warn_if_inadequate(grid, waist)
    mode = f"mode (n={n}, l={l}) of waist {waist:.3e} m"
    corner = math.sqrt(2.0) * (grid.samples_per_side / 2 - 0.5) * grid.pitch
    # w sqrt(|l|/2) >= corner, compared without converting l to a float
    if l and abs(l) >= 2.0 * (corner / waist) * (corner / waist):
        raise InvalidModeError(
            f"{mode} peaks at radius w sqrt(|l|/2), at or beyond the corners "
            f"({corner:.3e} m) of the {grid.samples_per_side} x "
            f"{grid.samples_per_side} grid")
    weights = _hermite_gauss_weights(n, abs(l))
    h = _hermite_functions(len(weights) - 1,
                           math.sqrt(2.0) * grid.axis() / waist)
    y = np.asarray(weights)[:, np.newaxis] * h
    x = h[::-1]
    norm2 = _factor_norm(y, x) * grid.pitch ** 2
    if not norm2 > 0.0:
        raise InvalidModeError(f"{mode} sampled to " + (
            "an identically zero field" if norm2 == 0.0 else
            f"a squared norm of {norm2:.3e}: the grid does not resolve it"))
    y /= math.sqrt(norm2)
    if l < 0:
        y = y[:, ::-1].copy()
    return ComplexField(grid, 0.0, factors=(y, x))


def sample_superposition(s: ModeSuperposition, grid: GridSpec,
                         z: float) -> ComplexField:
    """Sample an eigenmode superposition analytically at height z.

    Each term is the (n, l) profile times exp(i l phi) times its paraxial
    propagation phase.  With a non-zero field every waist must equal the
    magnetic width (eigenstate sampling); with B_z = 0 only z = 0 is
    available analytically.  Anything else must go through the numerical
    propagator, and NotAnEigenstateError says so.
    """
    p = s.params
    if p.field_bz == 0.0:
        if z != 0.0:
            raise NotAnEigenstateError(
                "free-space analytic evolution is not provided; sample at "
                "z = 0 and use the propagation module")
    else:
        w_b = magnetic_width(p)
        for idx, _, w in s.terms:
            if abs(w - w_b) > EIGEN_WAIST_RTOL * w_b:
                raise NotAnEigenstateError(
                    f"term (n={idx.n}, l={idx.l}) has waist {w:.6e} m != "
                    f"magnetic width {w_b:.6e} m; propagate it numerically")

    _warn_if_inadequate(grid, min(w for _, _, w in s.terms))
    xg, yg = grid.meshgrid()
    rr = np.hypot(xg, yg)
    phi = np.arctan2(yg, xg)
    total = np.zeros_like(rr, dtype=np.complex128)
    for idx, coeff, w in s.terms:
        phase = paraxial_phase(p, idx, z)
        total += (coeff * cmath.exp(1j * phase)
                  * radial_profile(idx.n, idx.l, rr, w)
                  * np.exp(1j * idx.l * phi))
    norm = math.sqrt(float(np.sum(np.abs(total) ** 2)) * grid.pitch ** 2)
    if norm == 0.0:
        raise ValueError("superposition sampled to an identically zero field")
    return ComplexField(grid, z, total / norm)


def petal_radius(w: float, l: int) -> float:
    """Radius of peak intensity of an n = 0, |l| >= 1 mode: w sqrt(|l|/2)."""
    if l == 0:
        raise ValueError("an l = 0 mode peaks on axis; no petal radius")
    return w * math.sqrt(abs(l) / 2.0)


def width_function(w0: float, p: BeamParameters, z):
    """First-order analytic width of a waist-w0 beam in the magnetic channel.

    w(z) = w_B sqrt(1 - [1 - (w0/w_B)^2] cos(2 k_L z)), with z = 0 at a
    width minimum.  Accurate to first order in 1 - (w0/w_B)^2, i.e. for
    waists close to the magnetic width; see width_function_exact for the
    unapproximated law.
    """
    if not w0 > 0:
        raise ValueError("w0 must be positive")
    if p.field_bz == 0.0:
        raise ZeroFieldError(
            "width_function needs a non-zero field; free-space spreading is "
            "outside its scope")
    w_b = magnetic_width(p)
    k_l = larmor_wavenumber(p)
    zs = np.asarray(z, dtype=float)
    val = w_b * np.sqrt(1.0 - (1.0 - (w0 / w_b) ** 2) * np.cos(2.0 * k_l * zs))
    return float(val) if zs.ndim == 0 else val


def width_function_exact(w0: float, p: BeamParameters, z):
    """Unapproximated width of a waist-w0 beam in the magnetic channel.

    w(z)^2 = w0^2 cos^2(k_L z) + (w_B^4 / w0^2) sin^2(k_L z), the beam-
    parameter solution of the paraxial envelope equation in a quadratic
    channel, with z = 0 at the waist.  Oscillates between w0 and w_B^2/w0
    with period pi/k_L and reduces to width_function when w0 is close to
    the magnetic width.  It is taken as a hypot, so no square overflows
    where the width itself does not.
    """
    if not w0 > 0:
        raise ValueError("w0 must be positive")
    if p.field_bz == 0.0:
        raise ZeroFieldError("width_function_exact needs a non-zero field")
    w_b = magnetic_width(p)
    k_l = larmor_wavenumber(p)
    zs = np.asarray(z, dtype=float)
    val = np.hypot(w0 * np.cos(k_l * zs), w_b * (w_b / w0) * np.sin(k_l * zs))
    return float(val) if zs.ndim == 0 else val
