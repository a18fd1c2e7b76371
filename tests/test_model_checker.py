"""The protocol model checker: clean sweeps, seeded-bug catching,
partial-order-reduction equivalence, and counterexample rendering."""

import pytest

from repro.analysis.model import (MODELS, SearchBudgetExceeded,
                                  build_model, check,
                                  config_for_mutation, default_configs,
                                  format_counterexample, format_msc)

#: every (model, mutation) pair and the violation kind exhaustive
#: exploration must demonstrate for it
EXPECTED_VIOLATIONS = {
    ("srq-credit", "credit-leak"): "deadlock",
    ("srq-credit", "replenish-off-by-one"): "deadlock",
    ("srq-credit", "pool-early-recycle"): "invariant",
    ("lazy-connect", "drop-rep-no-retry"): "deadlock",
    ("lazy-connect", "lost-wakeup"): "deadlock",
    ("mux-pool", "qp-hash-mismatch"): "invariant",
    ("rendezvous", "dereg-after-rts"): "invariant",
    ("rendezvous", "ack-before-read"): "invariant",
}


def _clean_cases():
    for name in sorted(MODELS):
        for i, cfg in enumerate(default_configs(name)):
            yield pytest.param(name, cfg, id=f"{name}-cfg{i}")


class TestCleanTree:
    @pytest.mark.parametrize("name,cfg", _clean_cases())
    def test_passes_exhaustively(self, name, cfg):
        result = check(build_model(name, **cfg))
        assert result.ok, result.format()
        assert result.states > 1
        assert result.final_states, "no done state is reachable"

    def test_state_counts_are_exhaustive_not_sampled(self):
        """The smallest SRQ config has a known reachable graph; a
        checker that silently truncated exploration would undercount."""
        cfg = default_configs("srq-credit")[0]
        result = check(build_model("srq-credit", **cfg))
        assert result.states >= 30
        assert result.transitions >= result.states - 1


class TestMutations:
    @pytest.mark.parametrize(
        "name,mutation",
        sorted(EXPECTED_VIOLATIONS),
        ids=[f"{n}-{m}" for n, m in sorted(EXPECTED_VIOLATIONS)])
    def test_caught_with_minimal_counterexample(self, name, mutation):
        cfg = config_for_mutation(name, mutation)
        result = check(build_model(name, mutation=mutation, **cfg))
        v = result.violation
        assert v is not None, f"{name}[{mutation}] escaped"
        assert v.kind == EXPECTED_VIOLATIONS[(name, mutation)]
        assert v.trace, "counterexample must be replayable"
        # BFS guarantees a shortest trace; the seeded bugs all show
        # within a handful of steps at these bounds
        assert len(v.trace) <= 8

    def test_every_model_mutation_is_covered_here(self):
        pairs = {(n, m) for n in MODELS for m in MODELS[n].mutations}
        assert pairs == set(EXPECTED_VIOLATIONS)


class TestPartialOrderReduction:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_same_verdict_with_and_without(self, name):
        """POR is an optimization, never a soundness change: verdicts
        (and violation kinds) agree with reduction on and off, on the
        clean tree and under every seeded bug."""
        for cfg in default_configs(name):
            on = check(build_model(name, **cfg), por=True)
            off = check(build_model(name, **cfg), por=False)
            assert on.ok and off.ok
            assert on.states <= off.states
        for mutation in MODELS[name].mutations:
            cfg = config_for_mutation(name, mutation)
            on = check(build_model(name, mutation=mutation, **cfg),
                       por=True)
            off = check(build_model(name, mutation=mutation, **cfg),
                        por=False)
            assert on.violation is not None
            assert off.violation is not None
            assert on.violation.kind == off.violation.kind


class TestHarness:
    def test_unknown_model_and_mutation_are_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("no-such-model")
        with pytest.raises(ValueError, match="no mutation"):
            build_model("srq-credit", mutation="no-such-bug")

    def test_budget_is_enforced(self):
        cfg = default_configs("mux-pool")[-1]
        with pytest.raises(SearchBudgetExceeded):
            check(build_model("mux-pool", **cfg), max_states=10)

    def test_counterexample_renders_as_sequence_chart(self):
        cfg = config_for_mutation("srq-credit", "credit-leak")
        result = check(
            build_model("srq-credit", mutation="credit-leak", **cfg))
        text = format_counterexample(result.lanes, result.violation)
        assert "violation: deadlock" in text
        assert "trace (" in text
        for lane in result.lanes:
            assert lane in text
        # message steps draw arrows between the lane spines
        assert "--->" in text or "<---" in text

    def test_msc_local_steps_render_inline(self):
        cfg = config_for_mutation("srq-credit", "pool-early-recycle")
        result = check(build_model(
            "srq-credit", mutation="pool-early-recycle", **cfg))
        chart = format_msc(result.lanes, result.violation.trace)
        assert "[" in chart and "]" in chart


class TestSharedPredicates:
    def test_runtime_replenish_patch_reaches_the_model(self, monkeypatch):
        """The SRQ model decides "replenish due" with the predicate the
        runtime credit return uses, so a seeded off-by-one in the
        runtime (``>`` for ``>=``) deadlocks the *unmutated* model —
        and the runtime it was patched into.  A one-credit window is
        the geometry where that off-by-one never fires."""
        from repro.check.differ import run_spec
        from repro.check.spec import P2PMessage, P2PPhase, WorkloadSpec
        from repro.mpich2.channels import parts

        cfg = {"nmsgs": 3, "credits": 1, "pool_slots": 2}
        spec = WorkloadSpec(
            seed=0, nranks=2,
            phases=(P2PPhase(messages=tuple(
                P2PMessage(src=0, dst=1, tag=0, size=500)
                for _ in range(3)), blocking=True),),
            ch_cfg={"srq_credits": 1, "srq_pool_slots": 2},
            time_cap=0.2)
        assert check(build_model("srq-credit", **cfg)).ok
        assert run_spec(spec, "srq").ok

        monkeypatch.setattr(
            parts, "replenish_due",
            lambda consumed, credit_sent, threshold:
                consumed - credit_sent > threshold)
        result = check(build_model("srq-credit", **cfg))
        assert result.violation is not None
        assert result.violation.kind == "deadlock"
        obs = run_spec(spec, "srq")
        assert obs.error is not None and "DeadlockError" in obs.error
