"""API-hygiene rules for repo-wide conventions.

* configs are keyword-only — positional construction is a
  ``TypeError`` at run time; the rule finds it before a run does;
* observability gauges track a level, so every ``.add()`` stream on a
  gauge must contain a decrement (or use ``.set()``) — an
  increment-only gauge is either a leak or should be a counter;
* ``x = a or default`` silently swaps in the default for *every*
  falsy ``a`` — empty list, empty dict, ``0``, ``""`` — not just
  ``None``; protocol state regularly passes through legitimately
  empty/zero values, so default-filling must test ``is None``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from ..core import Finding, ModuleInfo, Rule

__all__ = ["FalsyOrDefaultRule", "PositionalConfigRule",
           "UnpairedGaugeRule"]


class PositionalConfigRule(Rule):
    """``FooConfig(a, b)`` raises ``TypeError``: the config
    dataclasses are keyword-only."""

    id = "positional-config"
    description = "positional construction of a *Config dataclass"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = ""
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name.endswith("Config") and node.args:
                yield self.finding(
                    mod, node,
                    f"{name} constructed with positional arguments; "
                    "configs are keyword-only and this raises "
                    "TypeError")


class UnpairedGaugeRule(Rule):
    """A gauge attribute (``self._m_x = m.gauge(...)``) whose module
    only ever ``.add()``s non-negative amounts never comes back down:
    either pair the increments with decrements, drive it with
    ``.set()``, or make it a counter."""

    id = "unpaired-gauge"
    description = "gauge incremented but never decremented or set"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        gauges: Dict[str, int] = {}
        for node in ast.walk(mod.tree):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "gauge"):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Attribute):
                        gauges[tgt.attr] = node.lineno
        if not gauges:
            return
        adds: Dict[str, List[ast.Call]] = {g: [] for g in gauges}
        downs: Set[str] = set()
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            target = node.func.value
            if not (isinstance(target, ast.Attribute)
                    and target.attr in gauges):
                continue
            attr = target.attr
            if node.func.attr == "set":
                downs.add(attr)
            elif node.func.attr == "add" and node.args:
                adds[attr].append(node)
                if _is_negative(node.args[0]):
                    downs.add(attr)
        for attr, calls in adds.items():
            if calls and attr not in downs:
                yield self.finding(
                    mod, calls[0],
                    f"gauge '{attr}' is only ever incremented in this "
                    "module — pair with a decrement/.set() or use a "
                    "counter")


class FalsyOrDefaultRule(Rule):
    """``x = a or default`` conflates every falsy value of ``a`` with
    "missing": an empty chunk list, a zero credit count, or an empty
    payload all get silently replaced by the default.  Use an explicit
    ``if a is None`` (or ``x = default if a is None else a``) so only
    genuine absence triggers the fallback."""

    id = "falsy-or-default"
    description = ("`a or default` used as a value — every falsy `a` "
                   "(empty container, 0, \"\") takes the default")

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        boolean = _boolean_contexts(mod.tree)
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.BoolOp)
                    and isinstance(node.op, ast.Or)
                    and id(node) not in boolean):
                continue
            first = node.values[0]
            if not isinstance(first, (ast.Name, ast.Attribute)):
                continue
            name = mod.segment(first) or "<expr>"
            yield self.finding(
                mod, node,
                f"'{name} or ...' used as a value: every falsy "
                f"{name} (empty container, 0, \"\") silently takes "
                "the default — test 'is None' instead")


def _boolean_contexts(tree: ast.AST) -> Set[int]:
    """ids of BoolOp nodes used purely as conditions (``if``/``while``
    tests, comprehension filters, ``assert``, under ``not``) — there
    the or-chain is genuinely boolean and falsy-collapse is intended."""
    roots: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            roots.append(node.test)
        elif isinstance(node, ast.Assert):
            roots.append(node.test)
        elif isinstance(node, ast.comprehension):
            roots.extend(node.ifs)
        elif (isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.Not)):
            roots.append(node.operand)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("bool", "any", "all")):
            roots.extend(node.args)
    marked: Set[int] = set()
    for root in roots:
        for sub in ast.walk(root):
            if isinstance(sub, ast.BoolOp):
                marked.add(id(sub))
    return marked


def _is_negative(expr: ast.expr) -> bool:
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        return True
    return (isinstance(expr, ast.Constant)
            and isinstance(expr.value, (int, float))
            and expr.value < 0)
