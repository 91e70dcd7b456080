"""Command-line surface: scalar quantities, the Verdet curve, rotation and
breathing runs, and hologram synthesis with diffraction analysis.

All physical inputs are unit-suffixed strings (60keV, 1T, 100nm); outputs
are CSV tables with a '#' unit header, binary PGM images, raw field files,
and JSON reports.  Commands exit non-zero when an internal invariant
(containment, aliasing, order separation, self-check) fails.  Every output
is computed and checked before the output directory is made, so a refused
run changes no file; a failed self-check still writes its table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .analysis import (angular_intensity, effective_width, harmonic_fraction,
                       pattern_orientation, radial_peak_radius,
                       unwrap_orientations)
from .core import (ELEMENTARY_CHARGE, BeamParameters, ModeIndex,
                   base_wavenumber, faraday_angle, larmor_frequency,
                   larmor_wavenumber, magnetic_width, verdet_parameter)
from .errors import EvfError, NoPatternError
from .fileio import (format_csv, save_field, write_frame_pgm,
                     write_intensity_pgm, write_mask_pgm, write_text)
from .gratings import (CHIRPED_EMBED_FACTOR, DEFAULT_PAD_FACTOR,
                       HologramSpec, PlaneReference, SphericalReference,
                       default_carrier, diffract_far_field, extract_orders,
                       isolate_chirped_order, locate_minimum_width_plane,
                       spherical_focus_distance, synthesize_hologram)
from .modes import (GridSpec, ModeSuperposition, petal_radius,
                    width_function_exact)
from .propagation import (exact_steps_per_plane, make_plan,
                          superposition_evolution)
from .units import (parse_angle, parse_curvature, parse_energy, parse_field,
                    parse_length, parse_wavenumber)

ROTATION_SELF_CHECK_RTOL = 0.02

#: Most exact-scheme steps a rotate or breathe run may take over all its
#: output planes; the README examples take one per plane.
MAX_TOTAL_STEPS = 10 ** 6

#: Most samples a side of a grid, far field or chirped-order embed; twice
#: the README's 2048^2 far field.  A 4096^2 complex plane is 256 MiB.
MAX_PLANE_SIDE = 4096

#: Most energies evf verdet-curve samples; the README example takes 64.
MAX_CURVE_POINTS = 10 ** 5

#: Largest relative deviation of the measured width from
#: width_function_exact that evf breathe accepts; acceptance criterion 3's
#: bound for the same law.
BREATHING_SELF_CHECK_RTOL = 0.01


class CliUsageError(EvfError):
    """Invalid combination of command-line options."""


def _beam(args) -> BeamParameters:
    return BeamParameters(parse_energy(args.energy), parse_field(args.field))


def _energy_ev(p: BeamParameters) -> float:
    return p.kinetic_energy / ELEMENTARY_CHARGE


def _channel_planes(args, s: ModeSuperposition, side: float,
                    z_target: float):
    """The planes of s on an args.grid_n grid of this side: z = 0, then
    args.outputs more evenly spaced to z_target.  The exact scheme takes one
    step per plane, split only where the plane spacing exceeds
    exact_step_limit; a run of more than MAX_TOTAL_STEPS steps in all is
    refused."""
    _check_plane_side("grid", args.grid_n)
    grid = GridSpec(args.grid_n, side)
    if args.outputs < 1 or not 0 < z_target < math.inf:
        raise CliUsageError(
            "need at least one output plane at positive, finite z")
    spacing = z_target / args.outputs
    steps = exact_steps_per_plane(grid, s.params, spacing)
    total = steps * args.outputs
    if total > MAX_TOTAL_STEPS:
        raise CliUsageError(
            f"the exact scheme needs {total:.3e} steps ({steps:.3e} per "
            f"output plane) on this grid, more than the {MAX_TOTAL_STEPS:.0e} "
            "allowed; coarsen the grid or shorten the run")
    plan = make_plan(grid, s.params, spacing / steps, steps, scheme="exact")
    return superposition_evolution(s, grid, plan, args.outputs)


def _self_check(command: str, summary: str, pairs, rtol: float) -> int:
    """Print summary with the largest relative deviation of the measured
    values from their references, pairs of (measured, reference); return 1
    with a FAILED line unless every deviation is at most rtol, so that a
    non-finite deviation fails."""
    measured, reference = np.asarray(pairs, dtype=float).T
    deviations = np.abs(measured - reference) / np.abs(reference)
    print(summary + f"max relative deviation {np.max(deviations):.3e}")
    if not np.all(deviations <= rtol):
        print(f"{command}: self-check FAILED (> {rtol:.0%})", file=sys.stderr)
        return 1
    return 0


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _check_plane_side(what: str, side: int):
    """Refuse a plane of more than MAX_PLANE_SIDE samples a side before
    anything is allocated."""
    if side > MAX_PLANE_SIDE:
        raise CliUsageError(
            f"the {what} would be {side} samples a side, more than the "
            f"{MAX_PLANE_SIDE} allowed; coarsen the grid")


def _write_outputs(args, writes):
    """Make the output directory, then each write(path, *data) of writes,
    (write, file name, *data), into it."""
    os.makedirs(args.outdir, exist_ok=True)
    for write, name, *data in writes:
        write(os.path.join(args.outdir, name), *data)


def cmd_quantities(args) -> int:
    p = _beam(args)
    w_b = magnetic_width(p) if p.field_bz != 0 else None
    # (table name, JSON key, value, unit); a row without a name is JSON-only
    rows = [
        (None, "energy_eV", _energy_ev(p), None),
        (None, "field_T", p.field_bz, None),
        ("k0", "k0_rad_per_m", base_wavenumber(p), "rad/m"),
        ("omega_larmor", "omega_larmor_rad_per_s", larmor_frequency(p),
         "rad/s"),
        ("k_larmor", "k_larmor_rad_per_m", larmor_wavenumber(p), "rad/m"),
        ("w_b", "w_b_m", w_b, "m"),
        ("verdet", "verdet_rad_per_t_m", verdet_parameter(p), "rad/(T m)"),
    ]
    if args.thickness:
        thickness = parse_length(args.thickness)
        if not math.isfinite(thickness):
            raise CliUsageError(f"thickness must be finite, got {thickness}")
        rows += [(None, "thickness_m", thickness, None),
                 ("faraday_angle", "faraday_angle_rad",
                  faraday_angle(p, thickness),
                  f"rad  (thickness {thickness:.6e} m)")]
    table = [row for row in rows if row[0]]
    width = max(len(name) for name, *_ in table)
    for name, _, value, unit in table:
        shown = "∞" if value is None else f"{value:.6e}"
        print(f"{name:<{width}}  {shown:>14}  {unit}")
    if args.json_path:
        write_text(args.json_path,
                   _json_text({key: value for _, key, value, _ in rows}))
    return 0


def cmd_verdet_curve(args) -> int:
    e_min = parse_energy(args.e_min)
    e_max = parse_energy(args.e_max)
    if not 0 < e_min < e_max:
        raise CliUsageError("need 0 < E_min < E_max")
    # the table is in eV, so an energy whose eV value overflows is refused
    if not e_max / ELEMENTARY_CHARGE < math.inf:
        raise CliUsageError(f"E_max must be finite in eV, got {args.e_max}")
    if args.points < 2:
        raise CliUsageError("need at least 2 points")
    if args.points > MAX_CURVE_POINTS:
        raise CliUsageError(f"need at most {MAX_CURVE_POINTS} points")
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
    for option, every in (("--snapshot-every", args.snapshot_every),
                          ("--pgm-every", args.pgm_every)):
        if every < 0:
            raise CliUsageError(f"{option} must be >= 0 (0 writes none), "
                                f"got {every}")
    p = _beam(args)
    k_l = larmor_wavenumber(p)
    # with k_L = 0 every default below is refused before it is evaluated
    if k_l == 0 and not (args.w0 and args.grid_side and args.z_max):
        raise CliUsageError(
            "with -B 0T, or a field whose k_L rounds to 0, give --w0, "
            "--grid-side and --z-max explicitly")
    w0 = parse_length(args.w0) if args.w0 else magnetic_width(p)
    side = (parse_length(args.grid_side) if args.grid_side
            else 8.0 * magnetic_width(p))
    z_target = (parse_length(args.z_max) if args.z_max
                else parse_angle(args.phi_max) / abs(k_l))
    pair = ModeSuperposition.opposite_pair(args.l, w0, p)
    planes = _channel_planes(args, pair, side, z_target)
    radius = petal_radius(w0, args.l)
    snapshots, frames = (range(0, args.outputs + 1, every) if every else ()
                         for every in (args.snapshot_every, args.pgm_every))

    # every plane is measured before any is written; a field to be written
    # is kept as the factors it holds, its plane built as it is written
    zs, raw, writes = [], [], []
    for i, (z, field) in enumerate(planes):
        profile = angular_intensity(field, radius, n_samples=512)
        zs.append(z)
        raw.append(pattern_orientation(profile, args.l))
        if i in snapshots:
            writes.append((save_field, f"field_{i:04d}.field", field,
                           _energy_ev(p), p.field_bz, f"rotation output {i}"))
        if i in frames:
            writes.append((write_intensity_pgm, f"frame_{i:04d}.pgm", field))
    measured = unwrap_orientations(raw, args.l)
    analytic = k_l * np.asarray(zs)
    rows = list(zip(zs, measured, analytic))
    _write_outputs(args, writes + [(write_text, "rotation.csv", format_csv(
        "pattern orientation vs propagation distance",
        ("z_m", "angle_rad_measured", "angle_rad_analytic"), rows))])

    scale = float(np.max(np.abs(analytic)))
    summary = f"rotate: {len(rows)} samples to z = {zs[-1]:.6e} m, "
    if scale == 0.0:
        # every analytic angle is 0 (B = 0): no relative deviation exists
        worst = max(abs(m - a) for _, m, a in rows)
        print(summary + "no plane has a non-zero analytic angle; "
              f"max absolute deviation {worst:.3e} rad")
        return 0
    return _self_check("rotate", summary,
                       [(m, a) for _, m, a in rows if abs(a) > 1e-3 * scale],
                       ROTATION_SELF_CHECK_RTOL)


def cmd_breathe(args) -> int:
    p = _beam(args)
    k_l = larmor_wavenumber(p)
    if k_l == 0:
        raise CliUsageError("breathing needs a non-zero field, and one whose "
                            "k_L does not round to 0")
    w_b = magnetic_width(p)
    w0 = parse_length(args.w0) if args.w0 else args.w0_rel * w_b
    if not w0 > 0:
        raise CliUsageError("waist must be positive")
    z_target = args.periods * math.pi / abs(k_l)
    side = (parse_length(args.grid_side) if args.grid_side
            else 6.0 * max(w0, w_b * w_b / w0))
    mode = ModeSuperposition(((ModeIndex(0, args.l), 1.0, w0),), p)
    rows = [(z, effective_width(field, args.l),
             width_function_exact(w0, p, z))
            for z, field in _channel_planes(args, mode, side, z_target)]
    _write_outputs(args, [(write_text, "breathing.csv", format_csv(
        "beam width vs propagation distance; exact column is the "
        "unapproximated channel law width_function_exact",
        ("z_m", "width_measured_m", "width_exact_m"), rows))])
    widths = [r[1] for r in rows]
    return _self_check("breathe",
                       f"breathe: {len(rows)} samples over {args.periods} "
                       f"period(s); width range [{min(widths):.6e}, "
                       f"{max(widths):.6e}] m, ",
                       [r[1:] for r in rows], BREATHING_SELF_CHECK_RTOL)


def _plane_diffraction_outputs(pad, mask, spec, p) -> tuple[dict, list]:
    """(purity report, writes) of a plane --diffract: the far-field frame,
    the order files and purity.json, as _write_outputs takes them.  The
    orders are extracted, and so checked, before the frame is built, which
    then holds their crops.  The far field keeps only the spectrum bins of
    the order band."""
    far = diffract_far_field(mask, pad, spec)
    fields = extract_orders(far, spec)
    writes = [(write_frame_pgm, "farfield.pgm", *far.frame())]
    report = {}
    for order, label in ((-1, "order_m1"), (0, "order_0"), (1, "order_p1")):
        field = fields[order]
        writes.append((save_field, label + ".field", field, _energy_ev(p),
                       p.field_bz, f"diffraction order {order:+d}"))
        # each order is probed where its own azimuthal average peaks
        radius = radial_peak_radius(field)
        profile = angular_intensity(field, radius, n_samples=256)
        entry = {"probe_radius_cycles_per_m": radius,
                 "harmonic_fraction_2l": harmonic_fraction(profile, 2 * spec.l)}
        try:
            entry["orientation_rad"] = pattern_orientation(profile, spec.l)
        except NoPatternError:
            entry["orientation_rad"] = None
        report[label] = entry
    writes.append((write_text, "purity.json", _json_text(report)))
    return report, writes


def _spherical_focus_report(mask, spec, p) -> dict:
    expected = spherical_focus_distance(spec, p)
    s_conv = -1 if spec.reference.curvature > 0 else +1
    z_real, w_real = locate_minimum_width_plane(
        isolate_chirped_order(mask, spec, s_conv), p, 1.4 * expected)
    # the mask is real, so its diverging order is the conjugate of the
    # converging one and propagates as its mirror image through the mask
    return {
        "expected_abs_focus_m": expected,
        "converging_chirp_sign": s_conv,
        "real_focus_m": z_real,
        "real_focus_width_m": w_real,
        "virtual_focus_m": -z_real,
        "virtual_focus_width_m": w_real,
    }


def cmd_grating(args) -> int:
    _check_plane_side("grid", args.grid_n)
    grid = GridSpec(args.grid_n, parse_length(args.grid_side))
    phi0 = parse_angle(args.phi0)
    # the padding only refines the plane reference's far field
    if args.pad is not None and (args.spherical or not args.diffract):
        raise CliUsageError("--pad has no effect " + (
            "with --spherical" if args.spherical else "without --diffract"))
    pad = DEFAULT_PAD_FACTOR if args.pad is None else args.pad
    if args.spherical:
        if not args.curvature:
            raise CliUsageError("--spherical needs --curvature")
        if args.kx:
            raise CliUsageError("--kx has no effect with --spherical")
        reference = SphericalReference(parse_curvature(args.curvature))
    else:
        if args.curvature:
            raise CliUsageError("--curvature needs --spherical")
        reference = PlaneReference(parse_wavenumber(args.kx) if args.kx
                                   else default_carrier(grid))
    spec = HologramSpec(args.l, phi0, reference)
    if args.diffract:
        # reject the analysis inputs before any output is written
        p = BeamParameters(parse_energy(args.energy), 0.0)
        if args.spherical:
            _check_plane_side("chirped-order embed",
                              args.grid_n * CHIRPED_EMBED_FACTOR)
        elif pad < 1:
            raise CliUsageError(f"pad_factor must be >= 1, got --pad {pad}")
        else:
            _check_plane_side("far field", args.grid_n * pad)
    mask = synthesize_hologram(spec, grid)
    writes = [(write_mask_pgm, "mask.pgm", mask.values)]
    lines = [f"grating: mask with {int(mask.values.sum())} open pixels "
             f"of {mask.values.size}"]
    if args.diffract and args.spherical:
        report = _spherical_focus_report(mask, spec, p)
        writes.append((write_text, "focus.json", _json_text(report)))
        lines.append(f"grating: real focus at {report['real_focus_m']:.6e} m, "
                     f"virtual at {report['virtual_focus_m']:.6e} m "
                     f"(expected ±{report['expected_abs_focus_m']:.6e} m)")
    elif args.diffract:
        report, orders = _plane_diffraction_outputs(pad, mask, spec, p)
        writes += orders
        plus = report["order_p1"]["harmonic_fraction_2l"]
        zero = report["order_0"]["harmonic_fraction_2l"]
        lines.append(f"grating: 2l-harmonic fraction {plus:.3f} in order +1, "
                     f"{zero:.3f} in order 0")
    _write_outputs(args, writes)
    print("\n".join(lines))
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
    ref = g.add_mutually_exclusive_group()
    ref.add_argument("--plane", action="store_true",
                     help="plane reference (default)")
    ref.add_argument("--spherical", action="store_true",
                     help="spherical reference: orders separate longitudinally")
    g.add_argument("--kx", help="plane carrier, e.g. 6.3e7m-1 "
                                "(default: 10 fringes across the aperture)")
    g.add_argument("--curvature", help="spherical curvature, e.g. 2e12m-2")
    g.add_argument("--grid-n", type=int, default=512)
    g.add_argument("--grid-side", default="1um")
    g.add_argument("-E", "--energy", default="60keV",
                   help="illumination energy for diffraction analysis")
    g.add_argument("--pad", type=int, default=None,
                   help="far-field oversampling factor of a plane "
                        f"--diffract (default {DEFAULT_PAD_FACTOR})")
    g.add_argument("--diffract", action="store_true",
                   help="also compute the far field and order reports")
    g.add_argument("-o", "--outdir", default="evf_output")
    g.set_defaults(func=cmd_grating)
    return parser


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # only how a warning is shown changes; the filters still decide whether
    # it is shown, ignored or raised
    shown = warnings.showwarning
    warnings.showwarning = _show_warning
    try:
        return args.func(args)
    # the library rejects invalid input values with ValueError; an output
    # path that cannot be written raises OSError
    except (EvfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
