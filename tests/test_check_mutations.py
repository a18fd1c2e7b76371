"""The mutation matrix: the oracle must catch every canned protocol
bug, the cheap prongs their floor, and the monkey-patches must
restore the stack exactly."""

import pytest

from repro.analysis.model import MODELS
from repro.analysis.mutcheck import (CHEAP_FLOOR, MutantRow,
                                     floors_broken, matrix)
from repro.check.differ import run_spec
from repro.check.mutations import CATALOG
from repro.check import oracle


@pytest.fixture(scope="module")
def rows():
    return matrix()


def test_catalog_names_are_unique():
    names = [m.name for m in CATALOG]
    assert len(names) == len(set(names)) == 15


def test_every_model_transcription_exists():
    for m in CATALOG:
        if m.model is not None:
            assert m.model[1] in MODELS[m.model[0]].mutations, m.name


def test_smoke_detects_the_canned_bugs(rows):
    """The oracle catches all 15 and the cheap prongs 14: losing a
    single catch means a prong has gone blind to a whole bug class."""
    assert [r.name for r in rows if not r.oracle] == []
    assert sum(r.cheap for r in rows) >= CHEAP_FLOOR
    assert floors_broken(rows) == []


def test_dropping_a_row_trips_a_floor(rows):
    for i, row in enumerate(rows):
        blind = MutantRow(row.name)  # no prong catches it
        assert floors_broken(rows[:i] + [blind] + rows[i + 1:])
        assert floors_broken(rows[:i] + rows[i + 1:])


def test_each_mutation_undo_restores_the_stack():
    """After apply()+undo() every smoke spec passes again on its own
    design — no patch leaks into later tests."""
    for mut in CATALOG:
        undo = mut.apply()
        undo()
        obs = run_spec(mut.spec, mut.design)
        assert oracle.check(mut.spec, obs) == [], \
            f"{mut.name}: undo left the stack broken"


def test_specific_detection_channels(rows):
    """Pin the *kind* of signal representative mutations produce, so
    a weakening oracle cannot pass by accident: a matching bug
    surfaces as a matching-rules violation, a data bug as a model
    divergence, a flow-control bug as a *diagnosed deadlock* naming
    the starved edge, an early SRQ slot recycle as a run error."""
    failures = {r.name: "\n".join(r.oracle) for r in rows}
    assert "matching rules" in failures["match-ignores-tag"]
    assert "diverges from expected model" in \
        failures["skip-unexpected-copy"]
    assert "run error: DeadlockError" in failures["ignore-credits"]
    assert "run error: DeadlockError" in failures["srq-credit-leak"]
    assert "starved" in failures["srq-credit-leak"]
    assert "run error" in failures["srq-pool-write-race"]
