"""Workload op sequences and the output check of every op.

Each workload is a fixed sequence of ``evf`` command lines.  The seed varies
only inputs that leave the work size unchanged: the sign of B (``rotate``,
``breathe``), and phi0 and the order of the l values (``hologram``).

Every op is checked against its closed-form reference:

* ``rotate``: pattern orientation against k_L z (the CLI self-check's plane
  selection), within the CLI's own 2 % self-check tolerance;
* ``breathe``: second-moment width against ``width_function_exact``, within
  the 1e-2 tolerance the library's breathing test uses;
* ``hologram`` plane ops: orders +-1 carry a petal pattern (2l-harmonic
  fraction above 0.5, as criterion 7 asks) whose orientation is within 5 % of
  the petal period pi/|l| of the designed phi0; order 0 carries none (fraction
  below 0.5).  Criterion 7's tighter 2 degree / 0.1 bounds, which it states
  for a 256^2 grid at pad 8, are counted separately, not failed;
* ``hologram`` spherical op: real and virtual focus within one scan-plane
  spacing (1.4/48 of the distance) of +-k0/(2|C|).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

ROTATION_RTOL = 0.02
WIDTH_RTOL = 1e-2
ORIENTATION_PERIOD_SHARE = 0.05
LOBE_FRACTION = 0.5
FOCUS_RTOL = 1.4 / 48
CRITERION7_ORIENT_RAD = math.radians(2.0)
CRITERION7_ORDER0_FRACTION = 0.1

ENERGY = "60keV"
ROTATE_PHI_MAX = "0.005rad"
ROTATE_GRID_N = 512
ROTATE_OUTPUTS = 24
BREATHE_PERIODS = 0.1
BREATHE_GRID_N = 256
BREATHE_OUTPUTS = 64
HOLOGRAM_LS = (1, 2, 3, 4)
HOLOGRAM_PHI0_PER_L = 3
HOLOGRAM_KX = "2.5e8m-1"
HOLOGRAM_GRID_N = 512
HOLOGRAM_PAD = 4
SPHERICAL_CURVATURE = "1.5e14m-2"
SPHERICAL_GRID_N = 128

WORKLOADS = ("rotate", "breathe", "hologram")


@dataclass
class Op:
    """One CLI invocation and what its outputs are checked against."""

    kind: str
    argv: list
    outdir: str
    params: dict = field(default_factory=dict)


def _field(sign: int) -> str:
    # the --field=VALUE form keeps argparse from reading -1T as a flag
    return f"--field={sign}T"


def build_ops(workload: str, seed: int, outroot: str) -> list[Op]:
    """The workload's op sequence for this seed, writing under outroot."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rotate":
        sign = rng.choice((1, -1))
        out = os.path.join(outroot, "rotate")
        return [Op("rotate", ["rotate", "-E", ENERGY, _field(sign), "-l", "1",
                              "--grid-n", str(ROTATE_GRID_N),
                              "--phi-max", ROTATE_PHI_MAX,
                              "--outputs", str(ROTATE_OUTPUTS), "-o", out],
                   out, {"field_t": float(sign), "l": 1,
                         "outputs": ROTATE_OUTPUTS})]
    if workload == "breathe":
        sign = rng.choice((1, -1))
        out = os.path.join(outroot, "breathe")
        return [Op("breathe", ["breathe", "-E", ENERGY, _field(sign),
                               "--w0-rel", "0.5",
                               "--grid-n", str(BREATHE_GRID_N),
                               "--periods", str(BREATHE_PERIODS),
                               "--outputs", str(BREATHE_OUTPUTS), "-o", out],
                   out, {"field_t": float(sign), "w0_rel": 0.5,
                         "outputs": BREATHE_OUTPUTS})]
    if workload == "hologram":
        ls = list(HOLOGRAM_LS)
        rng.shuffle(ls)
        ops = []
        for l in ls:
            # phi0 stratified over the petal period, with a seeded offset
            offset = rng.random()
            for j in range(HOLOGRAM_PHI0_PER_L):
                phi0 = (j + offset) / HOLOGRAM_PHI0_PER_L * math.pi / l
                out = os.path.join(outroot, f"plane{len(ops):02d}")
                ops.append(Op("plane", [
                    "grating", "-l", str(l), "--phi0", f"{phi0:.9f}rad",
                    "--plane", "--kx", HOLOGRAM_KX,
                    "--grid-n", str(HOLOGRAM_GRID_N), "--pad",
                    str(HOLOGRAM_PAD), "-E", ENERGY, "--diffract", "-o", out],
                    out, {"l": l, "phi0": float(f"{phi0:.9f}")}))
        out = os.path.join(outroot, "spherical")
        ops.append(Op("spherical", [
            "grating", "-l", "1", "--spherical",
            "--curvature", SPHERICAL_CURVATURE,
            "--grid-n", str(SPHERICAL_GRID_N), "-E", ENERGY, "--diffract",
            "-o", out], out, {"l": 1}))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# --- error parsers: pure functions of an output file's text ---------------

def parse_csv(text: str) -> np.ndarray:
    """Numeric rows of an evf CSV ('#' comment, header row, values)."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            continue   # column header
    return np.asarray(rows, dtype=float)


def rotation_rel_err(csv_text: str, k_l: float) -> tuple[float, int]:
    """Max |measured - k_L z| / |k_L z| over the planes the CLI self-check
    uses (|k_L z| above 1e-3 of its largest value); returns (error, rows)."""
    rows = parse_csv(csv_text)
    z, measured = rows[:, 0], rows[:, 1]
    reference = k_l * z
    scale = float(np.max(np.abs(reference)))
    used = (np.abs(reference) > 1e-3 * scale) & (np.abs(reference) > 0)
    if not used.any():
        raise ValueError("no plane with a non-zero reference angle")
    err = np.abs(measured[used] - reference[used]) / np.abs(reference[used])
    return float(err.max()), len(rows)


def width_rel_err(csv_text: str, reference) -> tuple[float, int]:
    """Max relative deviation of width_measured_m from reference(z)."""
    rows = parse_csv(csv_text)
    ref = np.asarray(reference(rows[:, 0]), dtype=float)
    return float(np.max(np.abs(rows[:, 1] - ref) / ref)), len(rows)


def orientation_error(measured: float, phi0: float, l: int) -> float:
    """Distance between two petal orientations, taken mod pi/|l|."""
    period = math.pi / abs(l)
    d = abs(measured - phi0) % period
    return min(d, period - d)


def orient_err_rad(purity_text: str, l: int, phi0: float) -> dict:
    """Worst orientation error of orders +-1 against phi0, and the
    2l-harmonic fractions of the three orders.  An order whose orientation
    the CLI could not define gets an infinite error."""
    report = json.loads(purity_text)
    errs = []
    for key in ("order_m1", "order_p1"):
        angle = report[key]["orientation_rad"]
        errs.append(math.inf if angle is None
                    else orientation_error(angle, phi0, l))
    return {"orient_err_rad": max(errs),
            "fraction_m1": report["order_m1"]["harmonic_fraction_2l"],
            "fraction_0": report["order_0"]["harmonic_fraction_2l"],
            "fraction_p1": report["order_p1"]["harmonic_fraction_2l"]}


def focus_rel_err(focus_text: str, expected: float) -> float:
    """Worst relative deviation of the real focus from +expected and of the
    virtual focus from -expected."""
    report = json.loads(focus_text)
    real = report["real_focus_m"]
    virtual = report["virtual_focus_m"]
    return max(abs(real - expected), abs(virtual + expected)) / expected


# --- op checks -------------------------------------------------------------

def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


class ClosedForms:
    """The package's closed-form references, bound when this object is made,
    so checks made while tracing is installed call the untraced originals."""

    def __init__(self):
        from evfaraday import core, modes, units
        self.BeamParameters = core.BeamParameters
        self.larmor_wavenumber = core.larmor_wavenumber
        self.magnetic_width = core.magnetic_width
        self.base_wavenumber = core.base_wavenumber
        self.width_function_exact = modes.width_function_exact
        self.parse_energy = units.parse_energy
        self.parse_curvature = units.parse_curvature

    def beam(self, field_t: float):
        return self.BeamParameters(self.parse_energy(ENERGY), field_t)


def check_op(op: Op, rc, refs: ClosedForms) -> dict:
    """Check one op's outputs; returns a record with 'ok', 'reason' and the
    measured errors."""
    if rc != 0:
        return {"ok": False, "reason": f"exit code {rc}"}
    try:
        return _check_outputs(op, refs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return {"ok": False, "reason": f"{type(exc).__name__}: {exc}"}


def _check_outputs(op: Op, evf: ClosedForms) -> dict:
    if op.kind == "rotate":
        k_l = evf.larmor_wavenumber(evf.beam(op.params["field_t"]))
        err, rows = rotation_rel_err(
            _read(os.path.join(op.outdir, "rotation.csv")), k_l)
        ok = rows == op.params["outputs"] + 1 and err <= ROTATION_RTOL
        return {"ok": ok, "reason": "" if ok else f"rows {rows}, error {err:.3e}",
                "rotation_rel_err": err}
    if op.kind == "breathe":
        p = evf.beam(op.params["field_t"])
        w0 = op.params["w0_rel"] * evf.magnetic_width(p)
        err, rows = width_rel_err(
            _read(os.path.join(op.outdir, "breathing.csv")),
            lambda z: evf.width_function_exact(w0, p, z))
        ok = rows == op.params["outputs"] + 1 and err <= WIDTH_RTOL
        return {"ok": ok, "reason": "" if ok else f"rows {rows}, error {err:.3e}",
                "width_rel_err": err}
    if op.kind == "plane":
        l, phi0 = op.params["l"], op.params["phi0"]
        for name in ("mask.pgm", "farfield.pgm", "order_m1.field",
                     "order_0.field", "order_p1.field"):
            if not os.path.isfile(os.path.join(op.outdir, name)):
                return {"ok": False, "reason": f"missing {name}"}
        rec = orient_err_rad(_read(os.path.join(op.outdir, "purity.json")),
                             l, phi0)
        limit = ORIENTATION_PERIOD_SHARE * math.pi / l
        ok = (rec["orient_err_rad"] <= limit
              and min(rec["fraction_m1"], rec["fraction_p1"]) > LOBE_FRACTION
              and rec["fraction_0"] < LOBE_FRACTION)
        rec["criterion7_miss"] = (rec["orient_err_rad"] > CRITERION7_ORIENT_RAD
                                  or rec["fraction_0"] > CRITERION7_ORDER0_FRACTION)
        rec.update(ok=ok, reason="" if ok else
                   f"orientation error {rec['orient_err_rad']:.3e} rad "
                   f"(limit {limit:.3e}), fractions {rec['fraction_m1']:.3f}/"
                   f"{rec['fraction_0']:.3f}/{rec['fraction_p1']:.3f}")
        return rec
    if op.kind == "spherical":
        expected = evf.base_wavenumber(evf.beam(0.0)) / (
            2.0 * abs(evf.parse_curvature(SPHERICAL_CURVATURE)))
        err = focus_rel_err(_read(os.path.join(op.outdir, "focus.json")),
                            expected)
        ok = err <= FOCUS_RTOL
        return {"ok": ok, "reason": "" if ok else f"focus error {err:.3e}",
                "focus_rel_err": err}
    raise ValueError(f"unknown op kind {op.kind!r}")


def working_set_bytes(workload: str) -> int:
    """Computed bytes of the arrays one step or one op touches.

    rotate/breathe: the component stack, its spectrum and the two per-step
    phase arrays (complex128).  hologram: a plane op's padded far field, its
    intensity and the cached aperture kernel (float64).
    """
    if workload == "rotate":
        n2, components = ROTATE_GRID_N ** 2, 2
        return 16 * n2 * (2 * components + 2)
    if workload == "breathe":
        return 16 * BREATHE_GRID_N ** 2 * (2 + 2)
    if workload == "hologram":
        m2 = (HOLOGRAM_GRID_N * HOLOGRAM_PAD) ** 2
        return 16 * m2 + 8 * m2 + 8 * m2
    raise ValueError(f"unknown workload {workload!r}")
