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

At B = 0 both schemes have the same factors.  The angular-momentum part of
the Zeeman interaction reduces to the exact scalar phase exp(-i l k_L z) on
a definite-l component, so general beams are propagated as mode lists and
each component is advanced independently.  The -l mode of a given (n, |l|,
waist) is the +l mode mirrored, y -> -y, which on the pixel-centred grid is
a row reversal; r^2 and k^2 are both even under it, so the sweep commutes
with it and only one of the two is stepped.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import BeamParameters, base_wavenumber, larmor_wavenumber
from .errors import ContainmentError, GridMismatchError, StepTooLargeError
from .modes import ComplexField, GridSpec, ModeSuperposition, mode_field

#: Border-to-peak intensity ratio above which propagation refuses to continue.
BORDER_INTENSITY_LIMIT = 1e-6

#: Step schemes accepted by make_plan.
SCHEMES = ("strang", "exact")


@dataclass(frozen=True)
class PropagationPlan:
    """Precomputed unit-modulus phase factors for one step length.

    kinetic_phase is the spectral factor exp(-i k_perp^2 b/(2 k0)) in FFT
    layout; half_potential_phase is the per-pixel confinement factor
    exp(-i k0 k_L^2 r^2 a/2) used at the ends of a sweep, and
    potential_phase its square, used between steps.  The lengths a and b
    depend on the scheme (see the module docstring).
    """

    grid: GridSpec
    params: BeamParameters
    dz: float
    kinetic_phase: np.ndarray
    half_potential_phase: np.ndarray
    potential_phase: np.ndarray
    steps_per_output: int = 1


def aliasing_limit(grid: GridSpec, p: BeamParameters) -> float:
    """Largest dz with kinetic phase below pi at the corner spatial frequency."""
    kperp_max_sq = 2.0 * (math.pi / grid.pitch) ** 2
    return 2.0 * math.pi * base_wavenumber(p) / kperp_max_sq


def exact_step_limit(grid: GridSpec, p: BeamParameters) -> float:
    """Largest exact-scheme dz whose chirps are sampled on the full grid.

    Both factors must advance their phase by less than pi per sample along
    each axis at the grid corner.  Kinetic: the spectral chirp of length
    b = sin(Omega dz)/Omega steps by (pi/pitch)(b/k0)(2 pi/side), so
    b < (N/2) aliasing_limit.  Potential: the merged interior chirp of
    length 2a, a = tan(Omega dz/2)/Omega, steps by
    k0 Omega^2 (side/2)(2a) pitch, so a < pi/(k0 Omega^2 side pitch).
    At B = 0 only the kinetic bound remains, with b = dz.
    """
    b_max = 0.5 * grid.samples_per_side * aliasing_limit(grid, p)
    omega = abs(larmor_wavenumber(p))
    if omega == 0.0:
        return b_max
    a_max = math.pi / (base_wavenumber(p) * omega ** 2
                       * grid.physical_side_length * grid.pitch)
    limit = 2.0 * math.atan(omega * a_max) / omega
    if omega * b_max < 1.0:
        limit = min(limit, math.asin(omega * b_max) / omega)
    return limit


def exact_steps_per_plane(grid: GridSpec, p: BeamParameters,
                          spacing: float) -> int:
    """Fewest equal exact-scheme steps across spacing, each below
    exact_step_limit: one unless the spacing reaches the limit."""
    return math.floor(spacing / exact_step_limit(grid, p)) + 1


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
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not dz > 0:
        raise ValueError("dz must be positive")
    if steps_per_output < 1:
        raise ValueError("steps_per_output must be a positive integer")
    k0 = base_wavenumber(p)
    k_l = larmor_wavenumber(p)
    omega = abs(k_l)
    if scheme == "strang":
        limit = aliasing_limit(grid, p)
        if dz >= limit:
            raise StepTooLargeError(
                f"dz = {dz:.6e} m violates the anti-aliasing bound; maximum "
                f"admissible dz on this grid is {limit:.6e} m")
    else:
        limit = exact_step_limit(grid, p)
        if dz >= limit:
            raise StepTooLargeError(
                f"dz = {dz:.6e} m violates the exact-scheme sampling bound; "
                f"exact_step_limit on this grid is {limit:.6e} m")
    if scheme == "exact" and omega != 0.0:
        half_length = math.tan(0.5 * omega * dz) / omega
        kinetic_length = math.sin(omega * dz) / omega
    else:
        half_length, kinetic_length = dz / 2.0, dz
    # k^2 = kx^2 + ky^2 and r^2 = x^2 + y^2 separate, so each factor is the
    # outer product of one 1-D phase with itself
    k = 2.0 * np.pi * np.fft.fftfreq(grid.samples_per_side, d=grid.pitch)
    confinement = k0 * k_l ** 2 * grid.axis() ** 2 / 2.0

    def outer(phase):
        return phase[:, np.newaxis] * phase

    return PropagationPlan(
        grid=grid, params=p, dz=dz,
        kinetic_phase=outer(np.exp(-1j * k ** 2 * kinetic_length / (2.0 * k0))),
        half_potential_phase=outer(np.exp(-1j * confinement * half_length)),
        potential_phase=outer(np.exp(-1j * confinement * (2.0 * half_length))),
        steps_per_output=steps_per_output)


def grid_norm(field: ComplexField) -> float:
    """Discrete squared norm sum |a|^2 pitch^2."""
    return float(np.sum(np.abs(field.amplitudes) ** 2)) * field.grid.pitch ** 2


def _check_contained(*planes: np.ndarray, context: str):
    """Refuse planes whose largest border intensity exceeds
    BORDER_INTENSITY_LIMIT times their smallest peak; for one plane, its
    own border-to-peak ratio."""
    border, peak = 0.0, math.inf
    for amps in planes:
        intensity = np.abs(amps) ** 2
        peak = min(peak, intensity.max())
        border = max(border, intensity[0].max(), intensity[-1].max(),
                     intensity[:, 0].max(), intensity[:, -1].max())
    if peak == 0.0:
        return
    if border > BORDER_INTENSITY_LIMIT * peak:
        raise ContainmentError(
            f"{context}: border intensity is {border / peak:.3e} of the peak "
            f"(limit {BORDER_INTENSITY_LIMIT:.0e}); enlarge the grid")


def _strang_sweep(stack: np.ndarray, plan: PropagationPlan, n_steps: int):
    """Advance v-envelopes by n_steps >= 1 potential-kinetic-potential
    splits, in place.

    Interior half-potential factors are merged pairwise, so the sweep ends
    in real space after exactly n_steps spectral round trips.
    """
    half = plan.half_potential_phase
    full = plan.potential_phase
    stack *= half
    for step in range(n_steps):
        np.fft.fft2(stack, out=stack)
        stack *= plan.kinetic_phase
        # ifftn over the last two axes is ifft2, but numpy's ifft2 drops
        # out= and allocates its result
        np.fft.ifftn(stack, axes=(-2, -1), out=stack)
        stack *= half if step == n_steps - 1 else full


def _assemble(stack: np.ndarray, terms, k_l_z: float) -> np.ndarray:
    """Sum coeff exp(-i l k_L z) (stack[c], or its row mirror stack[c, ::-1])
    over the terms (c, l, coeff, mirrored), into a new array."""
    out = None
    for c, l, coeff, mirrored in terms:
        part = ((stack[c, ::-1] if mirrored else stack[c])
                * (coeff * cmath.exp(-1j * l * k_l_z)))
        if out is None:
            out = part
        else:
            out += part
    return out


def _evolve(stack: np.ndarray, terms, plan: PropagationPlan,
            steps_per_plane: int, n_planes: int):
    """Yield (z, amplitudes) of the definite-l terms (c, l, coeff,
    mirrored) summed over the components in stack, at z = 0 and after each
    of n_planes sweeps of steps_per_plane steps.

    The one propagation core: the components share every split-step
    sweep, a mirrored term reads its component row-reversed (the sweep
    commutes with the reversal), and each term's Zeeman phase
    exp(-i l k_L z) is applied exactly, once, where the plane is summed.
    Every yielded plane passes the containment check.  stack is
    overwritten.
    """
    k_l = larmor_wavenumber(plan.params)
    z = 0.0
    for plane in range(n_planes + 1):
        if plane:
            _strang_sweep(stack, plan, steps_per_plane)
            z += steps_per_plane * plan.dz
        out = _assemble(stack, terms, k_l * z)
        _check_contained(out, context=f"field at z = {z:.6e} m")
        yield z, out


def propagate_definite_l(field: ComplexField, l: int, plan: PropagationPlan,
                         n_steps: int) -> ComplexField:
    """Advance one OAM eigencomponent by n_steps * dz.

    The caller asserts the field has azimuthal dependence exp(i l phi); the
    Zeeman interaction is then the exact scalar phase exp(-i l k_L dz) per
    step.
    """
    if field.grid != plan.grid:
        raise GridMismatchError("field and plan grids differ")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if n_steps == 0:
        return ComplexField(field.grid, field.z_position, field.amplitudes.copy())
    *_, (advance, out) = _evolve(field.amplitudes[np.newaxis].copy(),
                                 ((0, l, 1.0, False),), plan, n_steps, 1)
    return ComplexField(field.grid, field.z_position + advance, out)


def superposition_evolution(s: ModeSuperposition, grid: GridSpec,
                            plan: PropagationPlan, n_outputs: int):
    """Yield (z, ComplexField) for a superposition propagated from z = 0.

    Emits the initial field and then one field every
    plan.steps_per_output * plan.dz, n_outputs times.  One unit field is
    sampled and stepped per (n, |l|, waist) group; its -l terms read it
    row-mirrored.
    """
    if grid != plan.grid:
        raise GridMismatchError("grid and plan grids differ")
    if n_outputs < 1:
        raise ValueError("n_outputs must be >= 1")
    groups, terms = {}, []
    for idx, coeff, w in s.terms:
        c = groups.setdefault((idx.n, abs(idx.l), w), len(groups))
        terms.append((c, idx.l, coeff, idx.l < 0))
    stack = np.stack([mode_field(grid, n, l, w).amplitudes
                      for n, l, w in groups])
    # residual grid correction so the sum (every Zeeman phase is 1 at
    # z = 0) starts at unit norm
    stack /= math.sqrt(grid_norm(
        ComplexField(grid, 0.0, _assemble(stack, terms, 0.0))))
    for z, out in _evolve(stack, terms, plan, plan.steps_per_output,
                          n_outputs):
        yield z, ComplexField(grid, z, out)
