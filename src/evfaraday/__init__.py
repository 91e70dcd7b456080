"""Electron vortex beams in a uniform longitudinal magnetic field.

Models the vacuum Faraday rotation of ±l vortex superpositions, the
periodic width breathing of mismatched beams, and the binary holograms
that produce such superpositions, with a split-step numerical propagator
cross-checking every closed-form result.
"""

from .analysis import (AngularProfile, angular_intensity, circular_harmonic,
                       effective_width, fidelity, harmonic_fraction,
                       pattern_orientation, radial_peak_radius,
                       unwrap_orientations)
from .core import (BOHR_MAGNETON, ELECTRON_MASS, ELEMENTARY_CHARGE, G_FACTOR,
                   HBAR, BeamParameters, ModeIndex, base_wavenumber,
                   beam_speed, faraday_angle, landau_energy, larmor_frequency,
                   larmor_wavenumber, magnetic_term_energy, magnetic_width,
                   mode_wavenumber, paraxial_phase, verdet_parameter)
from .gratings import (BinaryMask, HologramSpec, PlaneReference,
                       SphericalReference, default_carrier, design_value,
                       diffract_far_field, extract_order,
                       isolate_chirped_order, locate_minimum_width_plane,
                       spherical_focus_distance, synthesize_hologram)
from .modes import (ComplexField, GridSpec, ModeSuperposition, assoc_laguerre,
                    mode_field, petal_radius, radial_profile,
                    sample_superposition, width_function, width_function_exact)
from .propagation import (PropagationPlan, aliasing_limit, default_step_size,
                          exact_step_limit, exact_steps_per_plane, grid_norm,
                          make_plan, propagate_definite_l,
                          superposition_evolution)

__version__ = "0.1.0"
