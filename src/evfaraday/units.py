"""Strict unit-suffixed quantity parsing for the command line.

Bare numbers are rejected: every physical input names its unit, which keeps
unit bugs out of formulas that mix hbar, mu_B and electron volts.
"""

from __future__ import annotations

import re

from .core import ELEMENTARY_CHARGE
from .errors import UnitParseError

# the unit may not start like an exponent, so the exponent of a bare number
# is never split off as its unit; 5eV and 1e3eV still parse
_PATTERN = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*"
    r"(?![eE][+-]?\d)([A-Za-zµ][A-Za-z0-9µ-]*)\s*$")

_ENERGY = {"eV": ELEMENTARY_CHARGE, "keV": 1e3 * ELEMENTARY_CHARGE}
_FIELD = {"T": 1.0, "mT": 1e-3}
_LENGTH = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9}
_ANGLE = {"rad": 1.0, "mrad": 1e-3}
_WAVENUMBER = {"m-1": 1.0, "mm-1": 1e3, "um-1": 1e6, "µm-1": 1e6, "nm-1": 1e9}
_CURVATURE = {"m-2": 1.0, "mm-2": 1e6, "um-2": 1e12, "µm-2": 1e12, "nm-2": 1e18}


def _parse(text: str, table: dict, kind: str) -> float:
    match = _PATTERN.match(text)
    if not match:
        raise UnitParseError(
            f"cannot parse {kind} {text!r}: expected <number><unit>, "
            f"e.g. 60keV, 1T, 100nm")
    value, unit = match.groups()
    if unit not in table:
        raise UnitParseError(
            f"unknown {kind} unit {unit!r} in {text!r}; "
            f"accepted: {', '.join(table)}")
    return float(value) * table[unit]


def parse_energy(text: str) -> float:
    """Energy string to joules; accepts eV and keV."""
    return _parse(text, _ENERGY, "energy")


def parse_field(text: str) -> float:
    """Magnetic field string to tesla; accepts T and mT."""
    return _parse(text, _FIELD, "field")


def parse_length(text: str) -> float:
    """Length string to metres; accepts m, mm, um/µm, nm."""
    return _parse(text, _LENGTH, "length")


def parse_angle(text: str) -> float:
    """Angle string to radians; accepts rad and mrad."""
    return _parse(text, _ANGLE, "angle")


def parse_wavenumber(text: str) -> float:
    """Spatial frequency string to rad/m; accepts m-1, mm-1, um-1, nm-1."""
    return _parse(text, _WAVENUMBER, "wavenumber")


def parse_curvature(text: str) -> float:
    """Wavefront curvature string to rad/m^2; accepts m-2, mm-2, um-2, nm-2."""
    return _parse(text, _CURVATURE, "curvature")
