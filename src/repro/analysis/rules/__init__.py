"""Rule registry: every rule class the linter ships."""

from __future__ import annotations

from typing import List, Sequence, Type

from ..core import Rule
from . import contracts, determinism, hygiene

__all__ = ["ALL_RULE_CLASSES", "all_rules"]

ALL_RULE_CLASSES: Sequence[Type[Rule]] = (
    determinism.WallClockRule,
    determinism.UnseededRandomRule,
    determinism.IdKeyRule,
    determinism.SetIterationRule,
    contracts.RingWriteTornRule,
    contracts.CreditPublishRule,
    contracts.ZcDeregBeforeAckRule,
    contracts.AckBeforeReadDoneRule,
    contracts.MrUseAfterDeregRule,
    contracts.DeadProtocolParamRule,
    contracts.SilentGeneratorRule,
    contracts.HeaderIdentityArithRule,
    hygiene.PositionalConfigRule,
    hygiene.UnpairedGaugeRule,
    hygiene.FalsyOrDefaultRule,
)


def all_rules() -> List[Rule]:
    return [cls() for cls in ALL_RULE_CLASSES]
