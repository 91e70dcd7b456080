"""Physical constants and the closed-form scalar quantities of an electron
beam in a uniform longitudinal magnetic field.

All quantities are strict SI. Signed conventions: the Larmor frequency and
the Larmor spatial frequency carry the sign of B_z; absolute values are
applied exactly where a formula needs a magnitude.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import EvanescentModeError, InvalidModeError, ZeroFieldError

# CODATA 2018 recommended values (SI).  e and h are exact by definition in
# the 2019 SI; hbar = h / (2 pi) rounded to the CODATA listing.
ELECTRON_MASS = 9.1093837015e-31      # kg
ELEMENTARY_CHARGE = 1.602176634e-19   # C, magnitude
HBAR = 1.054571817e-34                # J s
# Derived from the defining relation so that identities like
# k_L * beam_speed = omega_L hold to machine precision; agrees with the
# CODATA listing 9.2740100783e-24 to 7e-10 relative.
BOHR_MAGNETON = HBAR * ELEMENTARY_CHARGE / (2.0 * ELECTRON_MASS)  # J/T
# Dirac value of the electron spin g-factor used in the Zeeman term.
G_FACTOR = 2.0


@dataclass(frozen=True)
class BeamParameters:
    """The experiment's knobs: source kinetic energy and longitudinal field.

    kinetic_energy is the total (non-relativistic) energy set by the source,
    in joules.  field_bz is signed and may be zero.
    """

    kinetic_energy: float
    field_bz: float

    def __post_init__(self):
        if not 0 < self.kinetic_energy < math.inf:
            raise ValueError("kinetic_energy must be positive and finite")
        if not math.isfinite(self.field_bz):
            raise ValueError("field_bz must be finite")


_ALLOWED_SPINS = (-0.5, 0.0, 0.5)


@dataclass(frozen=True)
class ModeIndex:
    """(n, l, s) labels of one eigenstate.

    n counts radial nodes, l is the orbital angular momentum in units of
    hbar, and s is the spin quantum number; s = 0 means the spin term is
    ignored (spin-averaged).
    """

    n: int
    l: int
    s: float = 0.0

    def __post_init__(self):
        for name in ("n", "l"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise InvalidModeError(
                    f"mode index {name} must be an integer, got {value!r}")
        if self.n < 0:
            raise InvalidModeError("radial index n must be >= 0")
        if float(self.s) not in _ALLOWED_SPINS:
            raise ValueError("spin s must be -1/2, 0 or +1/2")


def larmor_frequency(p: BeamParameters) -> float:
    """Signed Larmor angular frequency |e| B_z / (2m), in rad/s."""
    return ELEMENTARY_CHARGE * p.field_bz / (2.0 * ELECTRON_MASS)


def magnetic_width(p: BeamParameters) -> float:
    """Eigenmode waist 2 sqrt(hbar / |e B_z|), in metres.

    Diverges as B_z -> 0; a zero field raises ZeroFieldError.
    """
    if p.field_bz == 0.0:
        raise ZeroFieldError("magnetic width diverges at B_z = 0")
    return 2.0 * math.sqrt(HBAR / (ELEMENTARY_CHARGE * abs(p.field_bz)))


def base_wavenumber(p: BeamParameters) -> float:
    """Plane-wave wavenumber sqrt(2 m E) / hbar, in rad/m."""
    return math.sqrt(2.0 * ELECTRON_MASS * p.kinetic_energy) / HBAR


def beam_speed(p: BeamParameters) -> float:
    """Longitudinal speed sqrt(2 E / m) of the non-relativistic beam."""
    return math.sqrt(2.0 * p.kinetic_energy / ELECTRON_MASS)


def larmor_wavenumber(p: BeamParameters) -> float:
    """Rotation accumulated per unit propagation distance, k_L, in rad/m.

    k_L = sqrt(m / 2E) mu_B B_z / hbar, signed with B_z.  It equals the
    Larmor frequency divided by the beam speed.
    """
    return (math.sqrt(ELECTRON_MASS / (2.0 * p.kinetic_energy))
            * BOHR_MAGNETON * p.field_bz / HBAR)


def magnetic_term_energy(p: BeamParameters, m: ModeIndex) -> float:
    """Transverse-plus-Zeeman energy (2n+|l|+1) hbar |w_L| + (l+gs) hbar w_L."""
    w_l = larmor_frequency(p)
    return ((2 * m.n + abs(m.l) + 1) * HBAR * abs(w_l)
            + (m.l + G_FACTOR * m.s) * HBAR * w_l)


def landau_energy(p: BeamParameters, m: ModeIndex, k: float) -> float:
    """Total energy of mode (n, l, s) at longitudinal wavenumber k, in J.

    The longitudinal kinetic term enters with a positive sign.
    """
    return (HBAR * k) ** 2 / (2.0 * ELECTRON_MASS) + magnetic_term_energy(p, m)


def mode_wavenumber(p: BeamParameters, m: ModeIndex) -> float:
    """Exact longitudinal wavenumber of mode (n, l, s), in rad/m.

    Requires the magnetic term energy to stay below the total energy;
    otherwise the mode is evanescent and EvanescentModeError is raised.
    """
    e_mag = magnetic_term_energy(p, m)
    if e_mag >= p.kinetic_energy:
        raise EvanescentModeError(
            f"mode (n={m.n}, l={m.l}, s={m.s}) is evanescent: magnetic term "
            f"energy {e_mag:.6e} J >= total energy {p.kinetic_energy:.6e} J")
    return base_wavenumber(p) * math.sqrt(1.0 - e_mag / p.kinetic_energy)


def paraxial_phase(p: BeamParameters, m: ModeIndex, z: float) -> float:
    """Three-term paraxial propagation phase of mode (n, l, s) at z, in rad.

    k_0 z - (2n+|l|+1) |k_L| z - (l + g s) k_L z.
    """
    k_l = larmor_wavenumber(p)
    rate = (base_wavenumber(p)
            - (2 * m.n + abs(m.l) + 1) * abs(k_l)
            - (m.l + G_FACTOR * m.s) * k_l)
    return rate * z


def faraday_angle(p: BeamParameters, z: float) -> float:
    """Rotation angle k_L z of a +/-l superposition after distance z, rad."""
    return larmor_wavenumber(p) * z


def verdet_parameter(p: BeamParameters) -> float:
    """Rotation angle per tesla and per metre, sqrt(m/2E) mu_B / hbar."""
    return (math.sqrt(ELECTRON_MASS / (2.0 * p.kinetic_energy))
            * BOHR_MAGNETON / HBAR)
