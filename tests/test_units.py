"""Unit-suffixed quantity parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfaraday import units
from evfaraday.core import ELEMENTARY_CHARGE
from evfaraday.errors import UnitParseError
from evfaraday.units import (parse_angle, parse_curvature, parse_energy,
                             parse_field, parse_length, parse_wavenumber)

#: Each parser with the unit table it reads.
PARSERS = [(parse_energy, units._ENERGY), (parse_field, units._FIELD),
           (parse_length, units._LENGTH), (parse_angle, units._ANGLE),
           (parse_wavenumber, units._WAVENUMBER),
           (parse_curvature, units._CURVATURE)]

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestParsing:
    def test_energy(self):
        assert parse_energy("60keV") == pytest.approx(60e3 * ELEMENTARY_CHARGE)
        assert parse_energy("1e2eV") == pytest.approx(100 * ELEMENTARY_CHARGE)
        assert parse_energy(" 2.5 keV ") == pytest.approx(
            2.5e3 * ELEMENTARY_CHARGE)

    def test_field(self):
        assert parse_field("1T") == 1.0
        assert parse_field("-250mT") == pytest.approx(-0.25)
        assert parse_field("0T") == 0.0

    def test_length(self):
        assert parse_length("100nm") == pytest.approx(1e-7)
        assert parse_length("1.5um") == pytest.approx(1.5e-6)
        assert parse_length("1.5µm") == pytest.approx(1.5e-6)
        assert parse_length("2mm") == pytest.approx(2e-3)
        assert parse_length("0.5m") == 0.5

    def test_angle(self):
        assert parse_angle("0.5rad") == 0.5
        assert parse_angle("60mrad") == pytest.approx(0.06)

    def test_wavenumber_and_curvature(self):
        assert parse_wavenumber("6.3e7m-1") == pytest.approx(6.3e7)
        assert parse_wavenumber("10um-1") == pytest.approx(1e7)
        assert parse_curvature("5e11m-2") == pytest.approx(5e11)
        assert parse_curvature("2um-2") == pytest.approx(2e12)

    def test_bare_number_rejected(self):
        for text in ("60", "1.5", "-3e4", ""):
            with pytest.raises(UnitParseError):
                parse_energy(text)

    def test_unknown_unit_echoes_token(self):
        with pytest.raises(UnitParseError, match="J"):
            parse_energy("5J")
        with pytest.raises(UnitParseError, match="gauss"):
            parse_field("3gauss")

    def test_missing_number_rejected(self):
        with pytest.raises(UnitParseError):
            parse_length("nm")


class TestParsingProperties:
    @pytest.mark.parametrize("parse, unit, scale", [
        pytest.param(parse, unit, scale, id=f"{parse.__name__}-{unit}")
        for parse, table in PARSERS for unit, scale in table.items()])
    @settings(max_examples=10, deadline=None)
    @given(value=finite)
    def test_round_trip(self, parse, unit, scale, value):
        # repr gives the shortest string that reads back as the same float
        assert parse(f"{value!r}{unit}") == value * scale

    @settings(max_examples=30, deadline=None)
    @given(which=st.sampled_from(PARSERS), value=finite)
    def test_bare_number_rejected(self, which, value):
        # an exponent such as the e4 of 3e4 is not taken for a unit
        parse, _ = which
        with pytest.raises(UnitParseError, match="expected <number><unit>"):
            parse(repr(value))
