import contextlib
from unittest import mock

import pytest

from evfaraday import (ELEMENTARY_CHARGE, BeamParameters, ComplexField,
                       magnetic_width)


@pytest.fixture(scope="session")
def beam():
    """The worked-example beam: 60 keV electrons in a 1 T field."""
    return BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)


@pytest.fixture(scope="session")
def w_b(beam):
    return magnetic_width(beam)


@contextlib.contextmanager
def _counting_plane_builds():
    """Within the block, every read of amplitudes that builds a plane from
    a field's factors appends that field to the yielded list."""
    builds = []
    read = ComplexField.amplitudes.fget

    def counted(self):
        if self.plane is None:
            builds.append(self)
        return read(self)
    with mock.patch.object(ComplexField, "amplitudes", property(counted)):
        yield builds


@pytest.fixture(scope="session")
def plane_builds():
    """A context manager that lists the fields whose plane was built from
    their factors while it was open; session-scoped, so hypothesis tests
    may take it."""
    return _counting_plane_builds
