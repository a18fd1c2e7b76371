"""The known conformance failure, replayed on every design.

``tests/replays/fail-seed4.json`` is the shrunk case that
``python -m repro.check fuzz --budget 5 --perturb 1 --faults`` writes:
3 ranks, 2 phases, 1 % drop and 5 % 80 µs delay.  Rank 2's phase-0
wildcard receive may legally match rank 0's phase-1 byte, because the
two sends are concurrent and MPI orders messages only within one
(source, tag, communicator) class.  The designs on which that match
happens then deliver the 8 184-byte message into the 1-byte phase-1
receive (``TruncateError``).  The ROADMAP item "An oracle that accepts
exactly what MPI allows" puts the fault in the check (the spec and its
oracle), not the channel; those six designs are strict ``xfail``, so
the fix must flip them, and the other six must keep passing.
"""

import os

import pytest

from repro.check import oracle
from repro.check.differ import run_spec
from repro.check.shrink import load_replay
from repro.mpich2.designs import DESIGNS

REPLAY = os.path.join(os.path.dirname(__file__), "replays",
                      "fail-seed4.json")

#: designs whose wildcard receive takes the concurrent phase-1 byte
OVERTAKEN = {"zerocopy", "ch3", "multimethod", "adaptive", "srq", "mux"}


def _case(design):
    marks = ()
    if design in OVERTAKEN:
        marks = pytest.mark.xfail(
            strict=True, reason="the check rejects a legal wildcard "
            "match (ROADMAP: An oracle that accepts exactly what MPI "
            "allows)")
    return pytest.param(design, marks=marks, id=design)


@pytest.mark.parametrize("tie_seed", [None, 1000], ids=["fifo", "tie1000"])
@pytest.mark.parametrize("design", [_case(d) for d in DESIGNS])
def test_seed4_replay_conforms(design, tie_seed):
    spec, _recorded_design, _tie, plan = load_replay(REPLAY)
    obs = run_spec(spec, design, tie_seed=tie_seed, faults=plan)
    assert oracle.check(spec, obs) == []
