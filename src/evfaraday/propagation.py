"""Split-step Fourier solver for the paraxial envelope equation in the
magnetic channel.

The quadratic confinement term is applied as a per-pixel phase and the
transverse Laplacian as a per-spatial-frequency phase, combined in
symmetric potential-kinetic-potential splits.  Two schemes share that
sweep and differ only in the lengths of the factors:

* ``"strang"``: half potential dz/2, kinetic dz; second order in dz.
* ``"exact"``: half potential tan(Omega dz/2)/Omega, kinetic
  sin(Omega dz)/Omega with Omega = |k_L|.  The transverse Hamiltonian is a
  2-D harmonic oscillator (mass k0, frequency Omega), for which this
  chirp-FFT-chirp product is the exact propagator at any dz (Namias 1980);
  only the transverse sampling limits the step.

At B = 0 both schemes have the same factors.

Both factors separate over x and y, so one step of a plane A is
A -> S A S^T with the 1-D step S = diag(h) F^-1 diag(kappa) F diag(h), and
n steps are S^n A (S^n)^T.  A field that carries factors, A = Y^T X with R
rows each (a sampled (p, l) mode has rank R = 2p+|l|+1), is advanced by
stepping its 2R lines; a dense plane is stepped along its columns and
then along its rows.  Both are the same discrete operator; only rounding
differs.

The angular-momentum part of the Zeeman interaction reduces to the exact
scalar phase exp(-i l k_L z) on a definite-l component.  The sweep does
not depend on l, so a general beam is propagated as a list of definite-l
terms: the terms of one (n, |l|, waist) group share one stepped field, and
each term's phase is applied once, where the output field is summed.
The -l mode of a group is its +l mode mirrored, y -> -y, which on the
pixel-centred grid reverses its y-factors; x^2 and k^2 are both even under
it, so the sweep commutes with it and only one of the two is stepped.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import BeamParameters, base_wavenumber, larmor_wavenumber
from .errors import (ContainmentError, GridMismatchError, InvalidGridError,
                     StepTooLargeError)
from .modes import (ComplexField, GridSpec, ModeSuperposition, _factor_norm,
                    mode_field)

#: Border-to-peak intensity ratio above which propagation refuses to continue.
BORDER_INTENSITY_LIMIT = 1e-6


@dataclass(frozen=True)
class PropagationPlan:
    """Precomputed unit-modulus 1-D phase factors for one step length.

    k_perp^2 = kx^2 + ky^2 and r^2 = x^2 + y^2 separate, so every factor of
    the 2-D step is the outer product of one length-N vector with itself,
    and only that vector is kept.  kinetic_phase is the spectral factor
    exp(-i k^2 b/(2 k0)) in FFT layout; half_potential_phase is the
    per-sample confinement factor exp(-i k0 k_L^2 x^2 a/2) used at the ends
    of a sweep, and potential_phase its square, used between steps.  The
    lengths a and b depend on the scheme (see the module docstring).
    """

    grid: GridSpec
    params: BeamParameters
    dz: float
    kinetic_phase: np.ndarray
    half_potential_phase: np.ndarray
    potential_phase: np.ndarray
    steps_per_output: int = 1


def _step_limit(name: str, limit: float) -> float:
    """limit, refused with InvalidGridError unless positive and finite."""
    if not 0.0 < limit < math.inf:
        raise InvalidGridError(
            f"{name} is {limit:.3e} m: this grid and beam give no positive, "
            "finite step; their length scales are beyond floating point")
    return limit


def _check_count(name: str, count, least: int):
    """Refuse, with ValueError, a count that is not an integer (a bool is
    not one; a numpy integer is) or is below least."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {count!r}")
    if count < least:
        raise ValueError(f"{name} must be >= {least}")


def aliasing_limit(grid: GridSpec, p: BeamParameters) -> float:
    """Largest dz with kinetic phase below pi at the corner spatial frequency.

    2 pi k0 / (2 (pi/pitch)^2) = k0 pitch^2 / pi, taken as a product that
    cannot raise; InvalidGridError unless the result is positive and finite.
    """
    return _step_limit("aliasing_limit",
                       base_wavenumber(p) * grid.pitch * grid.pitch / math.pi)


def exact_step_limit(grid: GridSpec, p: BeamParameters) -> float:
    """Largest exact-scheme dz whose chirps are sampled on the full grid.

    Both factors must advance their phase by less than pi per sample along
    each axis at the grid corner.  Kinetic: the spectral chirp of length
    b = sin(Omega dz)/Omega steps by (pi/pitch)(b/k0)(2 pi/side), so
    b < (N/2) aliasing_limit.  Potential: the merged interior chirp of
    length 2a, a = tan(Omega dz/2)/Omega, steps by
    k0 Omega^2 (side/2)(2a) pitch, so Omega a < pi/r with the dimensionless
    r = (k0 pitch)(Omega side).  At B = 0 only the kinetic bound remains,
    with b = dz.  No step of the arithmetic can raise; InvalidGridError
    unless the result is positive and finite.
    """
    b_max = 0.5 * grid.samples_per_side * aliasing_limit(grid, p)
    omega = abs(larmor_wavenumber(p))
    if omega == 0.0:
        return b_max
    r = base_wavenumber(p) * grid.pitch * (omega * grid.physical_side_length)
    # atan2(pi, r) = atan(pi / r), also where r underflows to 0
    limit = 2.0 * math.atan2(math.pi, r) / omega
    if omega * b_max < 1.0:
        limit = min(limit, math.asin(omega * b_max) / omega)
    return _step_limit("exact_step_limit", limit)


#: Step schemes accepted by make_plan, each with the bound on its step.
SCHEMES = {"strang": aliasing_limit, "exact": exact_step_limit}


def exact_steps_per_plane(grid: GridSpec, p: BeamParameters,
                          spacing: float) -> int:
    """Fewest equal exact-scheme steps across spacing, each below
    exact_step_limit: one unless the spacing reaches the limit.  A spacing
    that is not positive is refused with ValueError."""
    if not spacing > 0:
        raise ValueError(f"a plane spacing of {spacing:.3e} m is not positive")
    ratio = spacing / exact_step_limit(grid, p)
    if not ratio < math.inf:
        raise InvalidGridError(
            f"a plane spacing of {spacing:.3e} m needs more exact steps than "
            "a float can count; coarsen the grid or shorten the run")
    return math.floor(ratio) + 1


def default_step_size(grid: GridSpec, p: BeamParameters) -> float:
    """Strang step rule: min(pi / (40 |k_L|), aliasing limit / 4).

    Guarantees at least 40 steps per width-oscillation period while staying
    well inside the anti-aliasing bound.  The exact scheme needs no such
    rule; see exact_steps_per_plane.
    """
    dz = aliasing_limit(grid, p) / 4.0
    k_l = larmor_wavenumber(p)
    if k_l != 0.0:
        dz = min(dz, math.pi / (40.0 * abs(k_l)))
    return dz


def make_plan(grid: GridSpec, p: BeamParameters, dz: float,
              steps_per_output: int = 1,
              scheme: str = "strang") -> PropagationPlan:
    """Build the phase factors for step dz, enforcing the scheme's bound:
    aliasing_limit for "strang", exact_step_limit for "exact"."""
    if scheme not in SCHEMES:
        raise ValueError(
            f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}")
    if not dz > 0:
        raise ValueError("dz must be positive")
    _check_count("steps_per_output", steps_per_output, 1)
    k0 = base_wavenumber(p)
    k_l = larmor_wavenumber(p)
    omega = abs(k_l)
    bound = SCHEMES[scheme]
    limit = bound(grid, p)
    if dz >= limit:
        raise StepTooLargeError(
            f"dz = {dz:.6e} m violates the {scheme} scheme's step bound; "
            f"{bound.__name__} on this grid is {limit:.6e} m")
    if scheme == "exact" and omega != 0.0:
        half_length = math.tan(0.5 * omega * dz) / omega
        kinetic_length = math.sin(omega * dz) / omega
    else:
        half_length, kinetic_length = dz / 2.0, dz
    k = 2.0 * np.pi * np.fft.fftfreq(grid.samples_per_side, d=grid.pitch)
    # numpy's power overflows to inf where a float's ** raises; a phase
    # that is not finite is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        confinement = k0 * np.float64(k_l) ** 2 * grid.axis() ** 2 / 2.0
        phases = (np.exp(-1j * k ** 2 * kinetic_length / (2.0 * k0)),
                  np.exp(-1j * confinement * half_length),
                  np.exp(-1j * confinement * (2.0 * half_length)))
    if not all(np.isfinite(phase).all() for phase in phases):
        raise InvalidGridError(
            "the step's phase factors are not finite: this grid and beam "
            "have length scales beyond floating point")
    return PropagationPlan(
        grid=grid, params=p, dz=dz, kinetic_phase=phases[0],
        half_potential_phase=phases[1], potential_phase=phases[2],
        steps_per_output=steps_per_output)


def grid_norm(field: ComplexField) -> float:
    """Discrete squared norm sum |a|^2 pitch^2; from the factors' Gram
    matrices when the field carries factors, so no plane is built."""
    if field.factors is not None:
        total = _factor_norm(*field.factors)
    else:
        total = float(np.sum(np.abs(field.plane) ** 2))
    return total * field.grid.pitch ** 2


def _plane_extremes(amps: np.ndarray, context: str) -> tuple[float, float]:
    """(largest border intensity, peak intensity) of one plane; a plane
    whose peak is not finite is refused."""
    intensity = np.abs(amps)
    np.square(intensity, out=intensity)
    # numpy's max propagates nan, so a plane's peak is finite only if
    # every pixel is, its border pixels included
    peak = intensity.max()
    if not math.isfinite(peak):
        raise ContainmentError(
            f"{context}: intensity is not finite (peak {peak:.3e})")
    return max(intensity[0].max(), intensity[-1].max(),
               intensity[:, 0].max(), intensity[:, -1].max()), peak


def _check_extremes(extremes, context: str):
    """Refuse planes, given as their (border, peak) pairs, whose largest
    border intensity exceeds BORDER_INTENSITY_LIMIT times their smallest
    peak."""
    border = max(0.0, *(b for b, _ in extremes))
    peak = min(math.inf, *(p for _, p in extremes))
    if peak == 0.0:
        return
    if not border <= BORDER_INTENSITY_LIMIT * peak:
        raise ContainmentError(
            f"{context}: border intensity is {border / peak:.3e} of the peak "
            f"(limit {BORDER_INTENSITY_LIMIT:.0e}); enlarge the grid")


def _check_field_contained(field: ComplexField, context: str):
    """Refuse a field whose largest border intensity exceeds
    BORDER_INTENSITY_LIMIT times its peak, or whose peak or border
    intensity is not finite, deciding from its factors when it has no
    plane.

    The four border lines and the two central lines of Y.T @ X are read
    from the factors in O(RN).  The mean intensity, from the Gram
    matrices, and the largest central-line intensity are both at most the
    peak; a border within BORDER_INTENSITY_LIMIT of the larger of them is
    accepted without a plane.  Any other field has its plane built and
    faces the exact rule, so the guard refuses exactly what the plane
    check refuses.
    """
    if field.plane is None:
        y, x = field.factors
        n = field.grid.samples_per_side
        c = n // 2
        rows = np.abs(y[:, [0, -1, c]].T @ x) ** 2
        cols = np.abs(y.T @ x[:, [0, -1, c]]) ** 2
        border = max(rows[:2].max(), cols[:, :2].max())
        bound = max(_factor_norm(y, x) / n ** 2, rows[2].max(),
                    cols[:, 2].max())
        if border <= BORDER_INTENSITY_LIMIT * bound:
            return
    _check_extremes([_plane_extremes(field.amplitudes, context)], context)


def _sweep(lines: np.ndarray, plan: PropagationPlan, n_steps: int):
    """Advance every 1-D line along the last axis by n_steps >= 1
    potential-kinetic-potential splits, in place.

    Interior half-potential factors are merged pairwise, so the sweep ends
    in real space after exactly n_steps spectral round trips.  The lines
    are the factors Y and X of a plane A = Y.T @ X, or the columns and then
    the rows of a dense plane.
    """
    half = plan.half_potential_phase
    full = plan.potential_phase
    lines *= half
    for step in range(n_steps):
        np.fft.fft(lines, out=lines)
        lines *= plan.kinetic_phase
        np.fft.ifft(lines, out=lines)
        lines *= half if step == n_steps - 1 else full


def _combine(lines: np.ndarray, terms, k_l_z: float) -> tuple:
    """The factors (Y, X) of the terms (rows, l, coeff, mirrored) summed
    over the factor stack lines = [Y; X]: each term adds coeff
    exp(-i l k_L z) times its rows of Y, or their y-reversal, to new
    y-factors; X is copied, so stepping lines leaves both unchanged."""
    rank = len(lines) // 2
    y = np.zeros_like(lines[:rank])
    for rows, l, coeff, mirrored in terms:
        part = lines[rows, ::-1] if mirrored else lines[rows]
        y[rows] += (coeff * cmath.exp(-1j * l * k_l_z)) * part
    return y, lines[rank:].copy()


def propagate_definite_l(field: ComplexField, l: int, plan: PropagationPlan,
                         n_steps: int) -> ComplexField:
    """Advance one OAM eigencomponent by n_steps * dz.

    The caller asserts the field has azimuthal dependence exp(i l phi); the
    Zeeman interaction is then the exact scalar phase exp(-i l k_L dz) per
    step.  A field with factors is stepped as its factor lines and returns
    factors alone, its plane built only if read; one without is stepped as
    the whole plane.
    """
    if field.grid != plan.grid:
        raise GridMismatchError("field and plan grids differ")
    _check_count("n_steps", n_steps, 0)
    if n_steps == 0:
        plane = None if field.plane is None else field.plane.copy()
        return ComplexField(field.grid, field.z_position, plane,
                            field.factors)
    advance = n_steps * plan.dz
    k_l_z = larmor_wavenumber(plan.params) * advance
    zeeman = cmath.exp(-1j * l * k_l_z)
    if field.factors is None:
        # columns, then rows, each swept as contiguous lines
        columns = np.ascontiguousarray(field.amplitudes.T)
        _sweep(columns, plan, n_steps)
        out = np.ascontiguousarray(columns.T)
        _sweep(out, plan, n_steps)
        out *= zeeman
        result = ComplexField(field.grid, field.z_position + advance, out)
    else:
        rank = len(field.factors[0])
        lines = np.concatenate(field.factors)
        _sweep(lines, plan, n_steps)
        result = ComplexField(
            field.grid, field.z_position + advance,
            factors=(lines[:rank] * zeeman, lines[rank:]))
    _check_field_contained(result, context=f"field at z = {advance:.6e} m")
    return result


def superposition_evolution(s: ModeSuperposition, grid: GridSpec,
                            plan: PropagationPlan, n_outputs: int):
    """Yield (z, ComplexField) for a superposition propagated from z = 0
    by a plan for its own grid and beam.

    Emits the initial field and then one field every
    plan.steps_per_output * plan.dz, n_outputs times.  The factors of one
    unit field per (n, |l|, waist) group share every sweep as one (2R, N)
    stack; a -l term reads its group's y-factors reversed, and each term's
    Zeeman phase exp(-i l k_L z) is applied exactly, once, where a field's
    y-factors are summed.  Every yielded field passes the containment check
    and is its own copy of the summed factors (Y, X), rank R; its plane is
    built only if read, and anew on each read.
    """
    if grid != plan.grid:
        raise GridMismatchError("grid and plan grids differ")
    if s.params != plan.params:
        raise ValueError("the superposition's beam and the plan's beam "
                         "differ")
    _check_count("n_outputs", n_outputs, 1)
    rows, ys, xs, terms, rank = {}, [], [], [], 0
    for idx, coeff, w in s.terms:
        key = (idx.n, abs(idx.l), w)
        if key not in rows:
            y, x = mode_field(grid, *key).factors
            rows[key] = slice(rank, rank + len(y))
            rank += len(y)
            ys.append(y)
            xs.append(x)
        terms.append((rows[key], idx.l, coeff, idx.l < 0))
    lines = np.concatenate(ys + xs)
    # residual grid correction so the sum (every Zeeman phase is 1 at
    # z = 0) starts at unit norm
    lines[:rank] /= math.sqrt(grid_norm(
        ComplexField(grid, 0.0, factors=_combine(lines, terms, 0.0))))
    k_l = larmor_wavenumber(plan.params)
    z = 0.0
    for plane in range(n_outputs + 1):
        if plane:
            _sweep(lines, plan, plan.steps_per_output)
            z += plan.steps_per_output * plan.dz
        out = ComplexField(grid, z, factors=_combine(lines, terms, k_l * z))
        _check_field_contained(out, context=f"field at z = {z:.6e} m")
        yield z, out
