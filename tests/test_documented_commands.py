"""Every documented ``python -m repro.check …`` and ``python -m
repro.analysis …`` invocation names a subcommand that exists and only
options that subcommand takes.

The commands are parsed with each CLI's own ``build_parser()``, never
executed.  Sources: README.md, docs/*.md, the CI workflows (folded
``run: >`` blocks included) and the verify skill notes.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.analysis.__main__ import build_parser as analysis_parser
from repro.check.__main__ import build_parser as check_parser

ROOT = Path(__file__).resolve().parents[1]
PARSERS = {"check": check_parser, "analysis": analysis_parser}

_INVOCATION = re.compile(r"python3?\s+-m\s+repro\.(check|analysis)\b(.*)")
#: where a command ends on its line: a comment, a pipe, a redirect, a
#: shell list operator
_END = re.compile(r"\s#|[|>;&]")
#: a GitHub expression stands for one word
_GH_EXPR = re.compile(r"\$\{\{.*?\}\}")
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")


def _sources():
    paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
             *sorted((ROOT / ".github" / "workflows").glob("*.yml")),
             ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    return [p for p in paths if p.exists()]


def _workflow_runs(text):
    """A workflow's ``run:`` scripts as the runner sees them: a ``>``
    block folds into one line, a ``|`` block keeps its lines."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = _RUN.match(line)
        if m is None:
            continue
        indent, value = len(m.group(1)), m.group(2)
        if value[:1] not in (">", "|"):
            yield value
            continue
        body = []
        for nxt in lines[i + 1:]:
            if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                break
            body.append(nxt.strip())
        yield (" " if value[0] == ">" else "\n").join(body)


def _lines(path):
    """Candidate command lines: workflow scripts, fenced markdown
    lines, and inline code spans with their line breaks undone."""
    text = path.read_text()
    if path.suffix == ".yml":
        chunks = list(_workflow_runs(text))
    else:
        fences = [m.group(0) for m in _FENCE.finditer(text)]
        prose = _FENCE.sub("", text)
        chunks = fences + [" ".join(m.group(1).split())
                           for m in _SPAN.finditer(prose)]
    for chunk in chunks:
        yield from chunk.replace("\\\n", " ").splitlines()


def invocations(path):
    """``(module, argv)`` for every repro CLI invocation in ``path``."""
    for line in _lines(path):
        m = _INVOCATION.search(_GH_EXPR.sub("1", line))
        if m:
            rest = _END.split(m.group(2), 1)[0]
            yield m.group(1), shlex.split(rest)


def _parse_error(module, argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            PARSERS[module]().parse_args(argv)
    except SystemExit:
        return err.getvalue().strip().splitlines()[-1]
    return None


@pytest.mark.parametrize("path", _sources(),
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_documented_invocations_parse(path):
    bad = []
    for module, argv in invocations(path):
        problem = _parse_error(module, argv)
        if problem is not None:
            bad.append(f"repro.{module} {' '.join(argv)}: {problem}")
    assert bad == []


def test_scanner_sees_folded_ci_blocks_and_wrapped_spans():
    ci = list(invocations(ROOT / ".github" / "workflows" / "ci.yml"))
    assert ("check", ["fuzz", "--budget", "40", "--time-budget", "60",
                      "--perturb", "1", "--faults", "--out",
                      "fuzz-replays"]) in ci
    testing = list(invocations(ROOT / "docs" / "TESTING.md"))
    assert ("check", ["mutate"]) in testing
    total = sum(len(list(invocations(p))) for p in _sources())
    assert total >= 30
