"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criterion 3 compares the numerically measured
width oscillation of a w0 = w_B/2 beam against the unapproximated channel
law width_function_exact, w(z)^2 = w0^2 cos^2(k_L z) + (w_B^4/w0^2)
sin^2(k_L z), which holds at any mismatch.  The first-order formula
width_function is valid only for waists close to w_B (it caps at
sqrt(1.75) w_B where the beam reaches 2 w_B), so its deviation is printed
for information and not gated.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from evfaraday import (BeamParameters, ELEMENTARY_CHARGE, GridSpec,
                       HologramSpec, ModeSuperposition, PlaneReference,
                       aliasing_limit, angular_intensity, default_carrier,
                       design_value, diffract_far_field, effective_width,
                       extract_orders, faraday_angle, fidelity, grid_norm,
                       harmonic_fraction, larmor_wavenumber, magnetic_width,
                       make_plan, mode_field, pattern_orientation,
                       petal_radius, propagate_definite_l, radial_peak_radius,
                       radial_profile, sample_superposition,
                       superposition_evolution, synthesize_hologram,
                       unwrap_orientations, verdet_parameter, width_function,
                       width_function_exact)
from evfaraday.cli import main
from evfaraday.modes import assoc_laguerre

E60 = 60e3 * ELEMENTARY_CHARGE
BEAM = BeamParameters(E60, 1.0)
W_B = magnetic_width(BEAM)
K_L = larmor_wavenumber(BEAM)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def measure_rotation_series(l, grid, plan, n_outputs):
    zs, raw = [], []
    s = ModeSuperposition.opposite_pair(l, W_B, BEAM)
    for z, field in superposition_evolution(s, grid, plan, n_outputs):
        prof = angular_intensity(field, petal_radius(W_B, l), 512)
        zs.append(z)
        raw.append(pattern_orientation(prof, l))
    return np.asarray(zs), unwrap_orientations(raw, l)


def test_criterion_1_worked_example():
    angle = faraday_angle(BEAM, 100e-9)
    ok = abs(angle - 6.0e-5) <= 0.02 * 6.0e-5
    report(1, ok, f"faraday_angle(60 keV, 1 T, 100 nm) = {angle:.4e} rad "
                  f"vs 6.0e-5 rad (|dev| = {abs(angle / 6.0e-5 - 1):.2%})")


def test_criterion_2_rotation_tracking():
    grid = GridSpec(512, 14 * W_B)
    dz = 0.95 * aliasing_limit(grid, BEAM)
    n_out = 20
    z_total = 0.5 / K_L
    plan = make_plan(grid, BEAM, dz,
                     steps_per_output=max(1, round(z_total / n_out / dz)))
    zs, measured = measure_rotation_series(1, grid, plan, n_out)
    analytic = K_L * zs
    rel = np.abs(measured[1:] - analytic[1:]) / np.abs(analytic[1:])
    ok = rel.max() < 0.01 and len(rel) >= 20
    report(2, ok, f"pattern orientation vs k_L z over {len(rel)} samples to "
                  f"Phi_B = {analytic[-1]:.3f} rad: max rel err {rel.max():.2e} "
                  f"(grid 512^2)")


def test_criterion_3_width_breathing():
    w0 = 0.5 * W_B
    grid = GridSpec(256, 12 * W_B)
    dz = 0.95 * aliasing_limit(grid, BEAM)
    period = math.pi / abs(K_L)
    per_period = 64
    spo = max(1, round(period / per_period / dz))
    plan = make_plan(grid, BEAM, dz)
    field = mode_field(grid, 0, 0, w0)
    zs, widths = [0.0], [effective_width(field, 0)]
    for _ in range(2 * per_period):
        field = propagate_definite_l(field, 0, plan, spo)
        zs.append(field.z_position)
        widths.append(effective_width(field, 0))
    zs = np.asarray(zs)
    widths = np.asarray(widths)

    reference = width_function_exact(w0, BEAM, zs)
    in_period = zs <= period * (1 + 1e-9)
    rel = np.abs(widths[in_period] - reference[in_period]) / reference[in_period]
    pointwise_ok = rel.max() < 0.01
    # the first-order law is outside its domain at this mismatch: shown only
    first_order = width_function(w0, BEAM, zs)[in_period]
    rel_first_order = np.abs(widths[in_period] - first_order) / first_order

    # oscillation frequency: FFT over exactly two sampled periods
    signal = widths[:2 * per_period] - widths[:2 * per_period].mean()
    spectrum = np.abs(np.fft.rfft(signal))
    peak_bin = int(np.argmax(spectrum[1:])) + 1
    window = 2 * per_period * spo * dz
    expected_bin = round(window * 2 * abs(K_L) / (2 * math.pi))
    frequency_ok = abs(peak_bin - expected_bin) <= 1

    ok = pointwise_ok and frequency_ok
    report(3, ok,
           f"w0 = w_B/2 breathing: max rel dev vs exact channel law "
           f"{rel.max():.2e} (need < 1%); frequency peak bin {peak_bin} vs "
           f"2 k_L bin {expected_bin} ({'bin-exact' if frequency_ok else 'off'}); "
           f"peak width {widths[in_period].max() / W_B:.5f} w_B "
           f"(exact law: w_B^2/w0 = {W_B / w0:.5f} w_B). For information, "
           f"not gated: first-order formula deviates by "
           f"{rel_first_order.max():.1%}")


def test_criterion_4_eigenstate_stationarity():
    grid = GridSpec(192, 12 * W_B)
    dz = 0.95 * aliasing_limit(grid, BEAM)
    period = math.pi / abs(K_L)
    steps = round(period / dz)
    plan = make_plan(grid, BEAM, dz)
    worst = 1.0
    worst_mode = None
    for n in range(3):
        for l in range(-2, 3):
            initial = mode_field(grid, n, l, W_B)
            final = propagate_definite_l(initial, l, plan, steps)
            f = fidelity(initial, final)
            if f < worst:
                worst, worst_mode = f, (n, l)
    ok = worst > 0.999
    report(4, ok, f"15 eigenmodes (n <= 2, |l| <= 2) propagated one breathing "
                  f"period: worst fidelity {worst:.6f} at (n, l) = {worst_mode}")


def test_criterion_5_rotation_rate_l_independence():
    grid = GridSpec(256, 12 * W_B)
    dz = 0.95 * aliasing_limit(grid, BEAM)
    n_out = 5
    z_total = 0.10 / K_L
    plan = make_plan(grid, BEAM, dz,
                     steps_per_output=max(1, round(z_total / n_out / dz)))
    slopes = []
    for l in (1, 2, 3):
        zs, measured = measure_rotation_series(l, grid, plan, n_out)
        slopes.append(np.polyfit(zs, measured, 1)[0])
    slopes = np.asarray(slopes)
    spread = (slopes.max() - slopes.min()) / slopes.mean()
    ok = spread < 0.01
    report(5, ok, f"dPhi/dz for l = 1, 2, 3: {slopes.round(4)} rad/m "
                  f"(k_L = {K_L:.4f}), spread {spread:.2%}")


def test_criterion_6_verdet_curve(tmp_path, capsys):
    path = tmp_path / "verdet.csv"
    code = main(["verdet-curve", "--e-min", "60eV", "--e-max", "6000keV",
                 "-n", "11", "-o", str(path)])
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("energy"):
            continue
        rows.append([float(tok) for tok in line.split(",")])
    rows = np.asarray(rows)
    monotone = bool(np.all(np.diff(rows[:, 1]) < 0))
    # log-spaced by x10 every two rows: a factor 100 in energy gives 1/10
    ratios = rows[:-4, 1] / rows[4:, 1]
    ratio_ok = bool(np.all(np.abs(ratios - 10.0) < 1e-9 * 10.0))
    row60 = rows[np.isclose(rows[:, 0], 60e3)][0]
    value_ok = abs(row60[1] - 605.0) < 0.01 * 605.0
    ok = code == 0 and monotone and ratio_ok and value_ok
    report(6, ok, f"verdet-curve: monotone={monotone}, E^-1/2 ratio test "
                  f"within 1e-9={ratio_ok}, value at 60 keV = {row60[1]:.1f} "
                  f"rad/(T m)")


def test_criterion_7_grating_correctness():
    grid = GridSpec(256, 1e-6)
    # truth-table probes of the threshold rule
    spec0 = HologramSpec(1, 0.0, PlaneReference(default_carrier(grid)))
    bright = design_value(spec0, 0.0, 0.0)
    nodal = design_value(spec0, 0.0, 2e-7)
    probes_ok = (abs(bright - 3.0) < 1e-12 and abs(nodal - 1 / 3) < 1e-12
                 and bright > 0.5 > nodal)

    phi0 = 0.3
    k_x = 2 * math.pi * 40 / grid.physical_side_length
    spec = HologramSpec(1, phi0, PlaneReference(k_x))
    mask = synthesize_hologram(spec, grid)
    far = diffract_far_field(mask, 8)
    fractions, orientation_errs = {}, []
    orders = extract_orders(far, spec)
    for order in (-1, +1):
        field = orders[order]
        prof = angular_intensity(field, radial_peak_radius(field), 256)
        fractions[order] = harmonic_fraction(prof, 2)
        err = abs(pattern_orientation(prof, 1) - phi0)
        orientation_errs.append(min(err, math.pi - err))
    zero_field = orders[0]
    prof0 = angular_intensity(zero_field, radial_peak_radius(zero_field), 256)
    fractions[0] = harmonic_fraction(prof0, 2)

    lobes_ok = fractions[-1] > 0.5 and fractions[+1] > 0.5 and fractions[0] < 0.1
    nodal_ok = max(orientation_errs) < math.radians(2.0)
    ok = probes_ok and lobes_ok and nodal_ok
    report(7, ok,
           f"threshold probes (3.0, 1/3) ok={probes_ok}; 2l-harmonic "
           f"fractions -1/0/+1 = {fractions[-1]:.2f}/{fractions[0]:.3f}/"
           f"{fractions[+1]:.2f}; petal orientation within "
           f"{math.degrees(max(orientation_errs)):.2f} deg of phi0")


def test_criterion_8_oracle_suites():
    # Laguerre recurrence vs exact-rational series
    from fractions import Fraction
    worst_lag = 0.0
    xs = np.linspace(0.05, 30.0, 19) + 0.0137
    for n in range(11):
        for alpha in range(6):
            ours = assoc_laguerre(n, alpha, xs)
            exact = []
            for x in xs:
                xf = Fraction(float(x))
                total = Fraction(0)
                for k in range(n + 1):
                    total += ((-1) ** k * math.comb(n + alpha, n - k)
                              * xf ** k / math.factorial(k))
                exact.append(float(total))
            exact = np.asarray(exact)
            scale = np.maximum(np.abs(exact), 1e-6 * np.abs(exact).max())
            worst_lag = max(worst_lag, float(np.max(np.abs(ours - exact) / scale)))
    laguerre_ok = worst_lag < 1e-10

    # mode normalisation vs adaptive quadrature
    worst_norm = 0.0
    w = 47e-9
    for n in range(6):
        for l in range(6):
            val, _ = integrate.quad(
                lambda r: radial_profile(n, l, r, w) ** 2 * r, 0, 12 * w,
                epsabs=1e-13, epsrel=1e-12, limit=200)
            worst_norm = max(worst_norm, abs(2 * math.pi * val - 1.0))
    norm_ok = worst_norm < 1e-8

    # split-step convergence order
    grid = GridSpec(128, 10 * W_B)
    dz0 = 0.5 * aliasing_limit(grid, BEAM)
    base_steps = 32
    start = mode_field(grid, 0, 0, 0.5 * W_B)

    def advance(dz, steps):
        plan = make_plan(grid, BEAM, dz)
        return propagate_definite_l(start, 0, plan, steps).amplitudes

    reference = advance(dz0 / 8, base_steps * 8)
    err_coarse = np.linalg.norm(advance(dz0, base_steps) - reference)
    err_fine = np.linalg.norm(advance(dz0 / 2, 2 * base_steps) - reference)
    factor = err_coarse / err_fine
    convergence_ok = 3.0 < factor < 5.0

    # norm conservation over 1000 steps
    grid_n = GridSpec(128, 8 * W_B)
    plan_n = make_plan(grid_n, BEAM, 0.5 * aliasing_limit(grid_n, BEAM))
    eigen = mode_field(grid_n, 0, 1, W_B)
    drift = abs(grid_norm(propagate_definite_l(eigen, 1, plan_n, 1000))
                - grid_norm(eigen))
    unitarity_ok = drift < 1e-9

    ok = laguerre_ok and norm_ok and convergence_ok and unitarity_ok
    report(8, ok,
           f"laguerre rel err {worst_lag:.1e} (<1e-10); normalisation dev "
           f"{worst_norm:.1e} (<1e-8); convergence factor {factor:.2f} "
           f"(in [3,5]); norm drift/1000 steps {drift:.1e} (<1e-9)")
