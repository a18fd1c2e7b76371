"""Every design's rows of ``tests/pins/design.json`` (six traffic
shapes x two channel geometries x two fault plans; see
:mod:`repro.check.pins`).  A diff is a behaviour change: re-pin only
deliberately, with ``python -m repro.check pin --update``."""

import os

import pytest

from repro.check import pins
from repro.mpi import DESIGNS


@pytest.mark.parametrize("design", DESIGNS)
def test_design_digest(design):
    assert pins.moved(os.path.dirname(__file__), "design",
                      lambda key: key.split("/")[0] == design) == {}
