"""Linter plumbing: findings, modules, allow-annotations.

A *rule* is an object with an ``id``, a ``description``, and a
``check(mod)`` method yielding :class:`Finding` objects.  Rules never
read files themselves — they see a :class:`ModuleInfo` (parsed AST +
source lines + allow-annotations) and decide whether they apply from
its repo-relative ``path``.

Suppression: a finding is dropped when the offending line, the line
above it, or the ``def`` line of the enclosing function carries
``# lint: allow(rule-id)`` or ``# lint: allow(rule-id, reason)``.
"""

from __future__ import annotations

import ast
import re
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

__all__ = [
    "Finding",
    "LintReport",
    "ModuleInfo",
    "Rule",
    "lint_module",
    "lint_paths",
    "lint_source",
    "lint_tree",
]

_ALLOW_RE = re.compile(
    r"#.*?\blint:\s*allow\(\s*(?P<rule>[a-z0-9-]+)\s*(?:,(?P<reason>[^)]*))?\)")

#: repo-relative path fragments the tree walk never lints: the bug
#: corpus is a museum of intentional violations, and the analysis
#: package itself name-drops every banned construct in rule patterns.
DEFAULT_EXCLUDES: Sequence[str] = (
    "repro/analysis/",
    "repro/check/mutations.py",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class ModuleInfo:
    """A parsed module plus everything rules need to inspect it."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path.replace("\\", "/")
        self.source = source
        self.tree = ast.parse(source)
        self.lines = source.splitlines()
        #: line -> set of allowed rule ids on that line
        self.allows: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            for m in _ALLOW_RE.finditer(text):
                self.allows.setdefault(lineno, set()).add(m.group("rule"))
        #: function spans (def line, first body line, last line) for
        #: enclosing-def suppression lookups
        self._func_spans: List[tuple] = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                end = getattr(node, "end_lineno", node.lineno) or node.lineno
                self._func_spans.append((node.lineno, end))

    def segment(self, node: ast.AST) -> str:
        return ast.get_source_segment(self.source, node) or ""

    def allowed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is suppressed at ``line``: annotation on
        the line, the line above, or the enclosing ``def`` line."""
        for probe in (line, line - 1):
            if rule in self.allows.get(probe, ()):
                return True
        for start, end in self._func_spans:
            if start <= line <= end and rule in self.allows.get(start, ()):
                return True
        return False


class Rule:
    """Base class for lint rules."""

    id: str = ""
    description: str = ""

    def applies(self, mod: ModuleInfo) -> bool:
        return True

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError
        yield

    def finding(self, mod: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        return Finding(self.id, mod.path,
                       getattr(node, "lineno", 0), message)


@dataclass
class LintReport:
    """All findings from one lint run."""

    findings: List[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def format(self) -> str:
        out = [f.format() for f in self.findings]
        out.append(f"{len(self.findings)} finding(s) in "
                   f"{self.files_checked} file(s)")
        return "\n".join(out)


def lint_module(mod: ModuleInfo, rules: Sequence[Rule]) -> List[Finding]:
    found: List[Finding] = []
    for rule in rules:
        if not rule.applies(mod):
            continue
        for f in rule.check(mod):
            if not mod.allowed(f.rule, f.line):
                found.append(f)
    found.sort(key=lambda f: (f.path, f.line, f.rule))
    return found


def lint_source(source: str, path: str,
                rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Lint a source string as if it lived at repo-relative ``path``
    (the path selects which rules apply)."""
    from .rules import all_rules
    mod = ModuleInfo(path, textwrap.dedent(source))
    return lint_module(mod, rules if rules is not None else all_rules())


def _excluded(rel: str, excludes: Sequence[str]) -> bool:
    return any(pat in rel for pat in excludes)


def lint_paths(root: Path, paths: Iterable[Path],
               rules: Optional[Sequence[Rule]] = None,
               excludes: Sequence[str] = DEFAULT_EXCLUDES) -> LintReport:
    from .rules import all_rules
    active = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    checked = 0
    for path in sorted(paths):
        rel = path.relative_to(root).as_posix()
        if _excluded(rel, excludes):
            continue
        mod = ModuleInfo(rel, path.read_text())
        findings.extend(lint_module(mod, active))
        checked += 1
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(findings, checked)


def lint_tree(root: Path,
              rules: Optional[Sequence[Rule]] = None,
              excludes: Sequence[str] = DEFAULT_EXCLUDES) -> LintReport:
    """Lint every ``*.py`` under ``root`` (normally ``src/``)."""
    return lint_paths(root, root.rglob("*.py"), rules, excludes)
