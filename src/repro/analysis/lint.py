"""Tree-level lint entry points used by the CLI and the tests."""

from __future__ import annotations

from pathlib import Path

from .core import LintReport, lint_tree

__all__ = ["default_root", "run_lint"]


def default_root() -> Path:
    """The ``src/`` directory this installation was imported from."""
    return Path(__file__).resolve().parents[2]


def run_lint() -> LintReport:
    """Lint the repro tree with every rule."""
    return lint_tree(default_root())
