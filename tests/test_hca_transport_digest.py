"""Both HCA transports, event for event: each row of
``tests/pins/transport.json`` is one verbs scenario under one fault
plan (:mod:`repro.check.pins` lists the transports' deliberate
asymmetries).  A diff is a behaviour change: re-pin only deliberately,
with ``python -m repro.check pin --update``."""

import os

import pytest

from repro.check import pins

TESTS = os.path.dirname(__file__)


@pytest.mark.parametrize("key", pins.SUITES["transport"](TESTS),
                         ids=lambda key: key.replace("/", "-"))
def test_transport_digest(key):
    assert pins.moved(TESTS, "transport", lambda k: k == key) == {}
