"""Closed-form scalar quantities against independent arithmetic oracles."""

import math

import numpy as np
import pytest

from evfaraday import (BeamParameters, ModeIndex, base_wavenumber,
                       beam_speed, core, faraday_angle, landau_energy,
                       larmor_frequency, larmor_wavenumber,
                       magnetic_term_energy, magnetic_width, mode_wavenumber,
                       paraxial_phase, verdet_parameter)
from evfaraday.errors import (EvanescentModeError, InvalidModeError,
                              ZeroFieldError)

# CODATA 2018 literals, restated here so the oracles do not depend on the
# package's own constant definitions.
M_E = 9.1093837015e-31
Q_E = 1.602176634e-19
HBAR = 1.054571817e-34

E60 = 60e3 * Q_E


def beam_at(energy_j, bz):
    return BeamParameters(energy_j, bz)


class TestPhysicalConstants:
    def test_default_set_is_consistent(self):
        assert (core.ELECTRON_MASS, core.ELEMENTARY_CHARGE, core.HBAR) == (
            M_E, Q_E, HBAR)
        derived = HBAR * Q_E / (2 * M_E)
        assert abs(derived - core.BOHR_MAGNETON) <= 1e-6 * core.BOHR_MAGNETON
        assert abs(core.BOHR_MAGNETON - 9.2740100783e-24) < 1e-8 * 9.274e-24
        assert core.G_FACTOR == 2.0

    def test_beam_validation(self):
        with pytest.raises(ValueError):
            BeamParameters(0.0, 1.0)
        with pytest.raises(ValueError):
            BeamParameters(math.inf, 1.0)
        with pytest.raises(ValueError):
            BeamParameters(E60, math.nan)

    def test_mode_index_validation(self):
        with pytest.raises(ValueError):
            ModeIndex(-1, 0)
        with pytest.raises(ValueError):
            ModeIndex(0, 0, 0.3)
        ModeIndex(0, -3, 0.5)

    def test_mode_index_rejects_non_integers(self):
        for n, l in ((0, 1.5), (1.0, 0), (True, 1), (0, False)):
            with pytest.raises(InvalidModeError, match="must be an integer"):
                ModeIndex(n, l)
        ModeIndex(np.int64(1), np.int64(-2))


class TestLarmorFrequency:
    def test_zero_field(self):
        assert larmor_frequency(beam_at(E60, 0.0)) == 0.0

    def test_one_tesla_oracle(self):
        oracle = Q_E * 1.0 / (2 * M_E)
        value = larmor_frequency(beam_at(E60, 1.0))
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(8.794e10, rel=1e-3)

    def test_odd_in_field(self):
        plus = larmor_frequency(beam_at(E60, 1.0))
        minus = larmor_frequency(beam_at(E60, -1.0))
        assert minus == -plus


class TestMagneticWidth:
    def test_one_tesla_oracle(self):
        oracle = 2 * math.sqrt(HBAR / (Q_E * 1.0))
        value = magnetic_width(beam_at(E60, 1.0))
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(51.3e-9, rel=1e-3)

    def test_inverse_sqrt_scaling(self):
        w1 = magnetic_width(beam_at(E60, 1.0))
        w4 = magnetic_width(beam_at(E60, 4.0))
        assert w4 == pytest.approx(w1 / 2, rel=1e-12)

    def test_zero_field_raises(self):
        with pytest.raises(ZeroFieldError):
            magnetic_width(beam_at(E60, 0.0))


class TestBaseWavenumber:
    def test_60kev_oracle(self):
        oracle = math.sqrt(2 * M_E * E60) / HBAR
        value = base_wavenumber(beam_at(E60, 0.0))
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(1.255e12, rel=1e-3)
        de_broglie = 2 * math.pi / value
        assert de_broglie == pytest.approx(5.0e-12, rel=2e-3)

    def test_sqrt_energy_scaling(self):
        k1 = base_wavenumber(beam_at(E60, 0.0))
        k4 = base_wavenumber(beam_at(4 * E60, 0.0))
        assert k4 == pytest.approx(2 * k1, rel=1e-12)

    def test_vanishes_with_energy(self):
        assert base_wavenumber(beam_at(1e-45, 0.0)) < 1e-3
        with pytest.raises(ValueError):
            beam_at(0.0, 0.0)


class TestLandauEnergy:
    def test_free_particle(self):
        p = beam_at(E60, 0.0)
        k = 1e10
        assert landau_energy(p, ModeIndex(3, -2, 0.5), k) == pytest.approx(
            (HBAR * k) ** 2 / (2 * M_E), rel=1e-12)

    def test_oscillator_ground_state(self):
        p = beam_at(E60, 2.0)
        expected = HBAR * abs(larmor_frequency(p))
        assert landau_energy(p, ModeIndex(0, 0), 0.0) == pytest.approx(
            expected, rel=1e-12)

    def test_negative_l_degeneracy(self):
        # |l| + l = 0 for l < 0, so all (0, -|l|) levels coincide at k = 0
        p = beam_at(E60, 1.0)
        e1 = landau_energy(p, ModeIndex(0, -1), 0.0)
        e2 = landau_energy(p, ModeIndex(0, -2), 0.0)
        assert e1 == pytest.approx(e2, rel=1e-14)

    def test_invariant_under_l_and_field_flip(self):
        p_plus = beam_at(E60, 0.7)
        p_minus = beam_at(E60, -0.7)
        for n, l in [(0, 1), (1, -2), (2, 3)]:
            assert landau_energy(p_plus, ModeIndex(n, l), 3e9) == pytest.approx(
                landau_energy(p_minus, ModeIndex(n, -l), 3e9), rel=1e-15)


class TestModeWavenumber:
    def test_field_free_limit_exact(self):
        p = beam_at(E60, 0.0)
        assert mode_wavenumber(p, ModeIndex(2, 5, 0.5)) == base_wavenumber(p)

    def test_paraxial_splitting_oracle(self):
        # Taylor expansion of the exact wavenumber: the +/-l splitting
        # approaches -2 l k_L to first order in the magnetic energy.  10 T
        # balances the fp cancellation in the exact difference (~1e-8)
        # against the quadratic correction (~1e-8).
        p = beam_at(E60, 10.0)
        k_l = larmor_wavenumber(p)
        for n, l in [(0, 1), (0, 2), (1, 3)]:
            split = (mode_wavenumber(p, ModeIndex(n, +l))
                     - mode_wavenumber(p, ModeIndex(n, -l)))
            assert split / (-2 * l * k_l) == pytest.approx(1.0, rel=1e-6)

    def test_evanescent_raises(self):
        p = beam_at(Q_E, 1000.0)   # 1 eV beam, 1 kT field
        with pytest.raises(EvanescentModeError):
            mode_wavenumber(p, ModeIndex(100, 0))

    def test_paraxial_phase_consistency(self):
        # magnetic part of the exact rate matches the three-term phase rate
        # to better than 1e-5 when hbar w_L / E < 1e-6
        p = beam_at(E60, 1.0)
        assert HBAR * abs(larmor_frequency(p)) / p.kinetic_energy < 1e-6
        k0 = base_wavenumber(p)
        for idx in [ModeIndex(0, 1), ModeIndex(2, -2, 0.5), ModeIndex(1, 3, -0.5)]:
            exact_mag = k0 - mode_wavenumber(p, idx)
            paraxial_mag = k0 - paraxial_phase(p, idx, 1.0)
            assert exact_mag == pytest.approx(paraxial_mag, rel=1e-5)


class TestLarmorWavenumber:
    def test_worked_example(self):
        # 0.06 mrad over 100 nm at 60 keV and 1 T
        value = larmor_wavenumber(beam_at(E60, 1.0))
        assert value == pytest.approx(6.0e-5 / 1e-7, rel=0.02)

    def test_zero_field(self):
        assert larmor_wavenumber(beam_at(E60, 0.0)) == 0.0

    def test_energy_scaling(self):
        k1 = larmor_wavenumber(beam_at(E60, 1.0))
        k4 = larmor_wavenumber(beam_at(4 * E60, 1.0))
        assert k4 == pytest.approx(k1 / 2, rel=1e-12)

    def test_matches_larmor_frequency_over_speed(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            energy = float(rng.uniform(0.1, 500e3)) * Q_E
            bz = float(rng.uniform(-10, 10))
            p = beam_at(energy, bz)
            lhs = larmor_wavenumber(p) * beam_speed(p)
            rhs = larmor_frequency(p)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-300)


class TestParaxialPhase:
    def test_free_propagation(self):
        p = beam_at(E60, 0.0)
        z = 1e-6
        assert paraxial_phase(p, ModeIndex(0, 0), z) == pytest.approx(
            base_wavenumber(p) * z, rel=1e-15)

    def test_opposite_l_difference(self):
        # algebraically exact; numerically limited by cancellation of the
        # common k0 z term (condition number ~1e9 here)
        p = beam_at(E60, 1.0)
        z = 3.7e-7
        k_l = larmor_wavenumber(p)
        for n, l, s in [(0, 1, 0.0), (1, 2, 0.5), (0, 4, -0.5)]:
            diff = (paraxial_phase(p, ModeIndex(n, +l, s), z)
                    - paraxial_phase(p, ModeIndex(n, -l, s), z))
            assert diff == pytest.approx(-2 * l * k_l * z, rel=1e-6)

    def test_worked_phase_difference(self):
        p = beam_at(E60, 1.0)
        z = 100e-9
        diff = (paraxial_phase(p, ModeIndex(0, +1), z)
                - paraxial_phase(p, ModeIndex(0, -1), z))
        assert diff == pytest.approx(-1.21e-4, rel=0.02)

    def test_spin_term(self):
        p = beam_at(E60, 1.0)
        z = 1e-7
        k_l = larmor_wavenumber(p)
        g = core.G_FACTOR
        diff = (paraxial_phase(p, ModeIndex(0, 1, +0.5), z)
                - paraxial_phase(p, ModeIndex(0, 1, -0.5), z))
        assert diff == pytest.approx(-g * k_l * z, rel=1e-6)


class TestFaradayAngle:
    def test_paper_value(self):
        assert faraday_angle(beam_at(E60, 1.0), 100e-9) == pytest.approx(
            6.0e-5, rel=0.02)

    def test_zero_distance(self):
        assert faraday_angle(beam_at(E60, 1.0), 0.0) == 0.0

    def test_bilinear(self):
        p1 = beam_at(E60, 1.0)
        p2 = beam_at(E60, 2.0)
        assert faraday_angle(p2, 2e-7) == pytest.approx(
            4 * faraday_angle(p1, 1e-7), rel=1e-12)

    def test_odd_in_field_and_linear_in_z(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            bz = float(rng.uniform(0.01, 5))
            z = float(rng.uniform(1e-9, 1e-3))
            plus = faraday_angle(beam_at(E60, bz), z)
            minus = faraday_angle(beam_at(E60, -bz), z)
            assert minus == -plus
            assert faraday_angle(beam_at(E60, bz), 3 * z) == pytest.approx(
                3 * plus, rel=1e-12)


class TestVerdetParameter:
    def test_60kev_value(self):
        oracle = math.sqrt(M_E / (2 * E60)) * (HBAR * Q_E / (2 * M_E)) / HBAR
        value = verdet_parameter(beam_at(E60, 0.0))
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(605.0, rel=0.01)

    def test_energy_scaling(self):
        v1 = verdet_parameter(beam_at(E60, 0.0))
        v100 = verdet_parameter(beam_at(100 * E60, 0.0))
        assert v1 / v100 == pytest.approx(10.0, rel=1e-12)

    def test_definition_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            energy = float(rng.uniform(1e2, 3e5)) * Q_E
            bz = float(rng.uniform(-5, 5))
            z = float(rng.uniform(1e-9, 1e-2))
            p = beam_at(energy, bz)
            assert verdet_parameter(p) * bz * z == pytest.approx(
                faraday_angle(p, z), rel=1e-12, abs=1e-300)

    def test_magnetic_term_energy_zero_field(self):
        assert magnetic_term_energy(beam_at(E60, 0.0), ModeIndex(2, -3)) == 0.0
