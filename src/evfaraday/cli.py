"""Command-line surface: scalar quantities, the Verdet curve, rotation and
breathing runs, and hologram synthesis with diffraction analysis.

All physical inputs are unit-suffixed strings (60keV, 1T, 100nm); outputs
are CSV tables with a '#' unit header, binary PGM images, raw field files,
and JSON reports.  Commands exit non-zero when an internal invariant
(containment, aliasing, order separation, self-check) fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analysis import (angular_intensity, effective_width, harmonic_fraction,
                       pattern_orientation, radial_peak_radius,
                       unwrap_orientations)
from .core import (ELEMENTARY_CHARGE, BeamParameters, ModeIndex,
                   base_wavenumber, faraday_angle, larmor_frequency,
                   larmor_wavenumber, magnetic_width, verdet_parameter)
from .errors import EvfError, NoPatternError
from .fileio import (format_csv, save_field, write_intensity_pgm,
                     write_mask_pgm, write_text)
from .gratings import (HologramSpec, PlaneReference, SphericalReference,
                       default_carrier, diffract_far_field, extract_order,
                       isolate_chirped_order, locate_minimum_width_plane,
                       spherical_focus_distance, synthesize_hologram)
from .modes import (ComplexField, GridSpec, ModeSuperposition, petal_radius,
                    width_function)
# propagate_definite_l is unused here but kept importable: the benchmark's
# instrumentation self-test (perfbench/tests) patches it at this import site.
from .propagation import (exact_steps_per_plane, make_plan,  # noqa: F401
                          propagate_definite_l, superposition_evolution)
from .units import (parse_angle, parse_curvature, parse_energy, parse_field,
                    parse_length, parse_wavenumber)

ROTATION_SELF_CHECK_RTOL = 0.02


class CliUsageError(EvfError):
    """Invalid combination of command-line options."""


def _beam(args) -> BeamParameters:
    return BeamParameters(parse_energy(args.energy), parse_field(args.field))


def _energy_ev(p: BeamParameters) -> float:
    return p.kinetic_energy / ELEMENTARY_CHARGE


def _plane_stepping(args, grid: GridSpec, p: BeamParameters,
                    z_target: float) -> tuple[float, int]:
    """(dz, steps per output plane) of the exact scheme: --dz if given,
    else one step per plane, split only where the plane spacing exceeds
    exact_step_limit."""
    if args.outputs < 1 or not z_target > 0:
        raise CliUsageError("need at least one output plane at positive z")
    spacing = z_target / args.outputs
    if args.dz:
        dz = parse_length(args.dz)
        if not dz > 0:
            raise CliUsageError("dz must be positive")
        return dz, max(1, round(spacing / dz))
    steps = exact_steps_per_plane(grid, p, spacing)
    return spacing / steps, steps


def _ensure_outdir(args) -> str:
    os.makedirs(args.outdir, exist_ok=True)
    return args.outdir


def cmd_quantities(args) -> int:
    p = _beam(args)
    w_b = magnetic_width(p) if p.field_bz != 0 else None
    rows = [
        ("k0", f"{base_wavenumber(p):.6e}", "rad/m"),
        ("omega_larmor", f"{larmor_frequency(p):.6e}", "rad/s"),
        ("k_larmor", f"{larmor_wavenumber(p):.6e}", "rad/m"),
        ("w_b", "∞" if w_b is None else f"{w_b:.6e}", "m"),
        ("verdet", f"{verdet_parameter(p):.6e}", "rad/(T m)"),
    ]
    report = {
        "energy_eV": _energy_ev(p),
        "field_T": p.field_bz,
        "k0_rad_per_m": base_wavenumber(p),
        "omega_larmor_rad_per_s": larmor_frequency(p),
        "k_larmor_rad_per_m": larmor_wavenumber(p),
        "w_b_m": w_b,
        "verdet_rad_per_t_m": verdet_parameter(p),
    }
    if args.thickness:
        thickness = parse_length(args.thickness)
        angle = faraday_angle(p, thickness)
        rows.append(("faraday_angle", f"{angle:.6e}",
                     f"rad  (thickness {thickness:.6e} m)"))
        report["thickness_m"] = thickness
        report["faraday_angle_rad"] = angle
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>14}  {unit}")
    if args.json_path:
        write_text(args.json_path, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_verdet_curve(args) -> int:
    e_min = parse_energy(args.e_min)
    e_max = parse_energy(args.e_max)
    if not 0 < e_min < e_max:
        raise CliUsageError("need 0 < E_min < E_max")
    if args.points < 2:
        raise CliUsageError("need at least 2 points")
    energies = np.geomspace(e_min, e_max, args.points)
    rows = []
    for energy in energies:
        p = BeamParameters(energy, 1.0)
        rows.append((_energy_ev(p), verdet_parameter(p)))
    text = format_csv("rotation angle per tesla and metre vs kinetic energy",
                      ("energy_eV", "verdet_rad_per_T_m"), rows)
    if args.output:
        write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_rotate(args) -> int:
    p = _beam(args)
    k_l = larmor_wavenumber(p)
    if p.field_bz != 0:
        w0 = parse_length(args.w0) if args.w0 else magnetic_width(p)
        side = (parse_length(args.grid_side) if args.grid_side
                else 8.0 * magnetic_width(p))
        if args.z_max:
            z_target = parse_length(args.z_max)
        else:
            z_target = parse_angle(args.phi_max) / abs(k_l)
    else:
        if not (args.w0 and args.grid_side and args.z_max):
            raise CliUsageError(
                "with -B 0T give --w0, --grid-side and --z-max explicitly")
        w0 = parse_length(args.w0)
        side = parse_length(args.grid_side)
        z_target = parse_length(args.z_max)
    grid = GridSpec(args.grid_n, side)
    dz, steps_per_output = _plane_stepping(args, grid, p, z_target)
    pair = ModeSuperposition.opposite_pair(args.l, w0, p)
    plan = make_plan(grid, p, dz, steps_per_output, scheme="exact")

    radius = petal_radius(w0, args.l)
    outdir = _ensure_outdir(args)

    zs, raw = [], []
    for i, (z, field) in enumerate(superposition_evolution(
            pair, grid, plan, args.outputs)):
        profile = angular_intensity(field, radius, n_samples=512)
        zs.append(z)
        raw.append(pattern_orientation(profile, args.l))
        if args.snapshot_every and i % args.snapshot_every == 0:
            save_field(os.path.join(outdir, f"field_{i:04d}.field"), field,
                       _energy_ev(p), p.field_bz,
                       note=f"rotation output {i}")
        if args.pgm_every and i % args.pgm_every == 0:
            write_intensity_pgm(os.path.join(outdir, f"frame_{i:04d}.pgm"),
                                field.intensity())

    measured = unwrap_orientations(raw, args.l, start=0.0)
    analytic = k_l * np.asarray(zs)
    rows = list(zip(zs, measured, analytic))
    write_text(os.path.join(outdir, "rotation.csv"),
               format_csv("pattern orientation vs propagation distance",
                          ("z_m", "angle_rad_measured", "angle_rad_analytic"),
                          rows))

    scale = float(np.max(np.abs(analytic)))
    worst = 0.0
    for z, m, a in rows:
        if abs(a) > 1e-3 * scale and abs(a) > 0:
            worst = max(worst, abs(m - a) / abs(a))
    print(f"rotate: {len(rows)} samples to z = {zs[-1]:.6e} m, "
          f"max relative deviation {worst:.3e}")
    if worst > ROTATION_SELF_CHECK_RTOL:
        print(f"rotate: self-check FAILED (> {ROTATION_SELF_CHECK_RTOL:.0%})",
              file=sys.stderr)
        return 1
    return 0


def cmd_breathe(args) -> int:
    p = _beam(args)
    if p.field_bz == 0:
        raise CliUsageError("breathing needs a non-zero field")
    w_b = magnetic_width(p)
    w0 = parse_length(args.w0) if args.w0 else args.w0_rel * w_b
    if not w0 > 0:
        raise CliUsageError("waist must be positive")
    k_l = larmor_wavenumber(p)
    z_target = args.periods * math.pi / abs(k_l)
    side = (parse_length(args.grid_side) if args.grid_side
            else 6.0 * max(w0, w_b * w_b / w0))
    grid = GridSpec(args.grid_n, side)
    dz, steps_per_output = _plane_stepping(args, grid, p, z_target)
    mode = ModeSuperposition(((ModeIndex(0, args.l), 1.0, w0),), p)
    plan = make_plan(grid, p, dz, steps_per_output, scheme="exact")

    rows = [(z, effective_width(field, args.l), width_function(w0, p, z))
            for z, field in superposition_evolution(mode, grid, plan,
                                                    args.outputs)]
    outdir = _ensure_outdir(args)
    write_text(os.path.join(outdir, "breathing.csv"),
               format_csv("beam width vs propagation distance; analytic "
                          "column is the first-order breathing formula",
                          ("z_m", "width_measured_m", "width_analytic_m"),
                          rows))
    widths = [r[1] for r in rows]
    print(f"breathe: {len(rows)} samples over {args.periods} period(s); "
          f"width range [{min(widths):.6e}, {max(widths):.6e}] m")
    return 0


def _order_label(order: int) -> str:
    return {-1: "order_m1", 0: "order_0", 1: "order_p1"}[order]


def _plane_diffraction_report(args, mask, spec, p, outdir) -> dict:
    far = diffract_far_field(mask, p.kinetic_energy, args.pad)
    write_intensity_pgm(os.path.join(outdir, "farfield.pgm"),
                        np.abs(far.amplitudes) ** 2)
    report = {}
    for order in (-1, 0, +1):
        field = extract_order(far, spec, order, args.pad)
        save_field(os.path.join(outdir, _order_label(order) + ".field"),
                   field, _energy_ev(p), p.field_bz,
                   note=f"diffraction order {order:+d}")
        # each order is probed where its own azimuthal average peaks
        radius = radial_peak_radius(field)
        profile = angular_intensity(field, radius, n_samples=256)
        entry = {"probe_radius_cycles_per_m": radius,
                 "harmonic_fraction_2l": harmonic_fraction(profile, 2 * spec.l)}
        try:
            entry["orientation_rad"] = pattern_orientation(profile, spec.l)
        except NoPatternError:
            entry["orientation_rad"] = None
        report[_order_label(order)] = entry
    return report


def _spherical_focus_report(mask, spec, p) -> dict:
    expected = spherical_focus_distance(spec, p)
    z_scan = 1.4 * expected
    s_conv = -1 if spec.reference.curvature > 0 else +1
    converging = isolate_chirped_order(mask, spec, s_conv)
    z_real, w_real = locate_minimum_width_plane(converging, p, z_scan)
    diverging = isolate_chirped_order(mask, spec, -s_conv)
    time_reversed = ComplexField(diverging.grid, 0.0,
                                 np.conj(diverging.amplitudes))
    z_virtual, w_virtual = locate_minimum_width_plane(time_reversed, p, z_scan)
    return {
        "expected_abs_focus_m": expected,
        "converging_chirp_sign": s_conv,
        "real_focus_m": z_real,
        "real_focus_width_m": w_real,
        "virtual_focus_m": -z_virtual,
        "virtual_focus_width_m": w_virtual,
    }


def cmd_grating(args) -> int:
    grid = GridSpec(args.grid_n, parse_length(args.grid_side))
    phi0 = parse_angle(args.phi0)
    if args.spherical:
        if not args.curvature:
            raise CliUsageError("--spherical needs --curvature")
        reference = SphericalReference(parse_curvature(args.curvature))
    else:
        k_x = (parse_wavenumber(args.kx) if args.kx
               else default_carrier(grid))
        reference = PlaneReference(k_x)
    spec = HologramSpec(args.l, phi0, reference)
    mask = synthesize_hologram(spec, grid)
    outdir = _ensure_outdir(args)
    write_mask_pgm(os.path.join(outdir, "mask.pgm"), mask.values)
    print(f"grating: mask with {int(mask.values.sum())} open pixels "
          f"of {mask.values.size}")
    if not args.diffract:
        return 0
    p = BeamParameters(parse_energy(args.energy), 0.0)
    if args.spherical:
        report = _spherical_focus_report(mask, spec, p)
        write_text(os.path.join(outdir, "focus.json"),
                   json.dumps(report, indent=2) + "\n")
        print(f"grating: real focus at {report['real_focus_m']:.6e} m, "
              f"virtual at {report['virtual_focus_m']:.6e} m "
              f"(expected ±{report['expected_abs_focus_m']:.6e} m)")
    else:
        report = _plane_diffraction_report(args, mask, spec, p, outdir)
        write_text(os.path.join(outdir, "purity.json"),
                   json.dumps(report, indent=2) + "\n")
        plus = report["order_p1"]["harmonic_fraction_2l"]
        zero = report["order_0"]["harmonic_fraction_2l"]
        print(f"grating: 2l-harmonic fraction {plus:.3f} in order +1, "
              f"{zero:.3f} in order 0")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evf",
        description="Electron vortex beams in a longitudinal magnetic field")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantities", help="print the scalar beam quantities")
    q.add_argument("-E", "--energy", required=True,
                   help="kinetic energy, e.g. 60keV")
    q.add_argument("-B", "--field", required=True,
                   help="longitudinal field, e.g. 1T")
    q.add_argument("--thickness",
                   help="also print the rotation angle over this distance")
    q.add_argument("--json", dest="json_path",
                   help="write the same quantities to a JSON file")
    q.set_defaults(func=cmd_quantities)

    v = sub.add_parser("verdet-curve",
                       help="rotation per tesla and metre vs energy, CSV")
    v.add_argument("--e-min", required=True, help="lowest energy, e.g. 1keV")
    v.add_argument("--e-max", required=True, help="highest energy, e.g. 300keV")
    v.add_argument("-n", "--points", type=int, default=64,
                   help="number of log-spaced samples")
    v.add_argument("-o", "--output", help="CSV path (default: stdout)")
    v.set_defaults(func=cmd_verdet_curve)

    r = sub.add_parser("rotate",
                       help="propagate a ±l superposition and track its "
                            "pattern orientation")
    r.add_argument("-E", "--energy", default="60keV")
    r.add_argument("-B", "--field", default="1T")
    r.add_argument("-l", type=int, default=1, help="vorticity of the pair")
    r.add_argument("--grid-n", type=int, default=512)
    r.add_argument("--grid-side", help="physical side length (default 8 w_B)")
    r.add_argument("--w0", help="waist (default: the magnetic width)")
    r.add_argument("--dz", help="step length "
                               "(default: one exact step per output plane)")
    r.add_argument("--phi-max", default="0.5rad",
                   help="target rotation angle magnitude")
    r.add_argument("--z-max", help="propagation distance (overrides --phi-max)")
    r.add_argument("--outputs", type=int, default=24)
    r.add_argument("--snapshot-every", type=int, default=0, metavar="K",
                   help="save a field file every K-th output")
    r.add_argument("--pgm-every", type=int, default=0, metavar="K",
                   help="save an intensity PGM every K-th output")
    r.add_argument("-o", "--outdir", default="evf_output")
    r.set_defaults(func=cmd_rotate)

    b = sub.add_parser("breathe",
                       help="propagate a mismatched-waist mode and track its "
                            "width oscillation")
    b.add_argument("-E", "--energy", default="60keV")
    b.add_argument("-B", "--field", default="1T")
    b.add_argument("--w0", help="waist, e.g. 26nm")
    b.add_argument("--w0-rel", type=float, default=0.5,
                   help="waist as a multiple of w_B (used when --w0 absent)")
    b.add_argument("-l", type=int, default=0)
    b.add_argument("--grid-n", type=int, default=256)
    b.add_argument("--grid-side",
                   help="physical side length (default: 6 x the widest excursion)")
    b.add_argument("--dz", help="step length "
                               "(default: one exact step per output plane)")
    b.add_argument("--periods", type=float, default=2.0,
                   help="number of breathing periods to cover")
    b.add_argument("--outputs", type=int, default=64)
    b.add_argument("-o", "--outdir", default="evf_output")
    b.set_defaults(func=cmd_breathe)

    g = sub.add_parser("grating",
                       help="synthesise a binary hologram and optionally "
                            "analyse its diffraction orders")
    g.add_argument("-l", type=int, default=1,
                   help="vorticity of the encoded ±l superposition")
    g.add_argument("--phi0", default="0rad",
                   help="singularity-line orientation")
    g.add_argument("--plane", action="store_true",
                   help="plane reference (default)")
    g.add_argument("--spherical", action="store_true",
                   help="spherical reference: orders separate longitudinally")
    g.add_argument("--kx", help="plane carrier, e.g. 6.3e7m-1 "
                                "(default: 10 fringes across the aperture)")
    g.add_argument("--curvature", help="spherical curvature, e.g. 2e12m-2")
    g.add_argument("--grid-n", type=int, default=512)
    g.add_argument("--grid-side", default="1um")
    g.add_argument("-E", "--energy", default="60keV",
                   help="illumination energy for diffraction analysis")
    g.add_argument("--pad", type=int, default=4,
                   help="far-field oversampling factor")
    g.add_argument("--diffract", action="store_true",
                   help="also compute the far field and order reports")
    g.add_argument("-o", "--outdir", default="evf_output")
    g.set_defaults(func=cmd_grating)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # the library rejects invalid input values with ValueError
    except (EvfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
