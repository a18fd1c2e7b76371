"""The oracle-free half of the mutation matrix: the linter, the
protocol model checker and the runtime prong (shadow sanitizer +
deadlock detector) together must catch ``CHEAP_FLOOR`` of the 15
canned protocol bugs in ``repro/check/mutations.py`` without ever
invoking the differential oracle.  ``EXPECTED`` pins every cell."""

import pytest

from repro.analysis import mutcheck
from repro.check import oracle
from repro.check.mutations import CATALOG

DL = {"deadlock"}
#: per row: (lint rules, model verdict, runtime verdicts), as measured
EXPECTED = {
    "header-before-payload": ({"ring-write-torn"}, None, DL),
    "skip-tail-update": ({"credit-publish", "silent-generator"}, None, DL),
    "ignore-credits": ({"dead-protocol-param"}, None, DL),
    "early-deregister": ({"zc-dereg-before-ack"}, "invariant",
                         {"use-after-deregister"}),
    "ack-before-read": ({"ack-before-read-done"}, "invariant", set()),
    "corrupt-payload": (set(), None, set()),
    "wrong-tag": ({"header-identity-arith"}, None, DL),
    "wrong-source": ({"header-identity-arith"}, None, DL),
    "skip-unexpected-copy": ({"silent-generator"}, None, set()),
    "match-ignores-tag": ({"dead-protocol-param"}, None, set()),
    "srq-credit-leak": ({"credit-publish", "silent-generator"},
                        "deadlock", DL),
    "srq-pool-write-race": (set(), "invariant", {"srq-early-recycle"}),
    "srq-replenish-off-by-one": (set(), "deadlock", DL),
    "lazy-drop-rep": (set(), "deadlock", DL),
    "lazy-lost-wakeup": (set(), "deadlock", DL),
}


@pytest.fixture(scope="module")
def rows():
    """The cheap columns, with the oracle nailed shut: any call
    proves the tooling cheated."""
    def _banned(*a, **kw):  # pragma: no cover - only on failure
        raise AssertionError(
            "analysis tooling consulted the differential oracle")

    saved = oracle.check
    oracle.check = _banned
    try:
        return {r.name: r for r in mutcheck.cheap_matrix()}
    finally:
        oracle.check = saved


def column(rows, i):
    """(measured, expected) cells of column ``i`` of ``EXPECTED``."""
    got = {n: (set(r.lint), r.model, set(r.runtime))[i]
           for n, r in rows.items()}
    return got, {n: e[i] for n, e in EXPECTED.items()}


class TestCorpusCoverage:
    def test_catches_at_least_thirteen(self, rows):
        """Holds the cheap prongs to ``CHEAP_FLOOR`` (14 of 15)."""
        assert list(rows) == [m.name for m in CATALOG] == list(EXPECTED)
        assert sum(r.cheap for r in rows.values()) >= mutcheck.CHEAP_FLOOR

    def test_model_prong_carries_the_interleaving_bugs(self, rows):
        """Transcribed bugs are proven by exhaustive exploration of
        their state machines, with no simulation run at all."""
        got, want = column(rows, 1)
        assert got == want

    def test_static_prong_carries_the_shape_bugs(self, rows):
        got, want = column(rows, 0)
        assert got == want

    def test_early_deregister_caught_by_shadow_too(self, rows):
        """The §5 ownership bug is seen by the shadow fabric (the dead
        rkey on the wire) even if the lint shape check were deleted;
        so is the SRQ slot recycled before copy-out."""
        got, want = column(rows, 2)
        assert {n: k - DL for n, k in got.items()} == \
            {n: k - DL for n, k in want.items()}
        assert "use-after-deregister" in rows["early-deregister"].runtime

    def test_credit_leak_diagnosed_at_runtime_too(self, rows):
        """The wait-for-graph detector turns every starved window and
        lost handshake into a diagnosed ``DeadlockError``."""
        got, want = column(rows, 2)
        assert {n for n, k in got.items() if "deadlock" in k} == \
            {n for n, k in want.items() if "deadlock" in k}
        assert "deadlock" in rows["srq-credit-leak"].runtime

    def test_corrupt_payload_is_the_known_escape(self, rows):
        """A pure data-value flip has no protocol-shape signature and
        places bytes legally — only the differential oracle sees it.
        If this ever starts being 'caught', a rule has gone
        over-broad."""
        assert [n for n, r in rows.items() if not r.cheap] == \
            ["corrupt-payload"]

    def test_format_results_summarizes(self, rows):
        text = mutcheck.format_matrix(list(rows.values()))
        assert "lint 10, model 7, runtime 11; cheap prongs 14/15" in text
        for name in rows:
            assert name in text
