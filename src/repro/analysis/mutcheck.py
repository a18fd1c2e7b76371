"""The mutation matrix: every catalogued bug against every prong.

Each row of ``repro/check/mutations.py`` breaks one of the paper's
protocol rules (§4.3's one-write chunk and tail update, §5's
deregister-after-ACK, Fig. 10's ACK-after-read, ...).  The matrix
runs every row through every prong:

* **oracle** — a plain run of the row's spec, checked by the
  differential oracle (:func:`repro.check.oracle.check`);
* **lint** — the mutation factory's source, extracted with
  :func:`ast.get_source_segment` and linted as if it lived in a ring
  channel module: the rules that fire;
* **model** — the row's transcription into the protocol machines
  (``Mutation.model``), explored exhaustively: the counterexample's
  violation kind, with no simulation run at all;
* **runtime** — a second run with the shadow fabric installed
  (``REPRO_SHADOW=1``): the shadow violation kinds, plus ``deadlock``
  when the wait-for-graph detector (:mod:`repro.obs.waitgraph`)
  diagnosed the hang.

:func:`cheap_matrix` fills the lint, model and runtime columns and
never calls the oracle.  ``python -m repro.check mutate`` prints the
full :func:`matrix` and exits 1 when :func:`floors_broken` names a
floor: the oracle must catch every row, and the cheap prongs together
at least :data:`CHEAP_FLOOR`.  ``corrupt-payload``, a pure data-value
flip with no protocol-shape signature, is the expected cheap escape.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence, Set, Tuple

from .core import lint_source

__all__ = ["CHEAP_FLOOR", "MutantRow", "cheap_matrix", "matrix",
           "floors_broken", "format_matrix"]

#: rows the lint, model and runtime prongs must catch between them
CHEAP_FLOOR = 14

#: synthetic path for the extracted factory source: inside ``mpich2/``
#: (contract rules in scope), filename mentions ``ring`` (chunk-layout
#: rules active) and ``mutant`` (never confused with a real module).
_SYNTHETIC_PATH = "src/repro/mpich2/channels/ring_mutant.py"


@dataclass
class MutantRow:
    """One catalogued mutation against every prong."""

    name: str
    #: lint rule ids that fired on the factory source
    lint: List[str] = field(default_factory=list)
    #: the model counterexample's violation kind; None when the row
    #: has no transcription or the model passed
    model: Optional[str] = None
    #: shadow violation kinds, plus ``deadlock`` for a diagnosed hang
    runtime: List[str] = field(default_factory=list)
    #: the oracle's failure strings (empty: missed, or not run)
    oracle: List[str] = field(default_factory=list)

    @property
    def cheap(self) -> bool:
        return bool(self.lint or self.model or self.runtime)


def _lint_factory(source: str, func_name: str) -> List[str]:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == func_name:
            seg = ast.get_source_segment(source, node) or ""
            return sorted({f.rule for f in
                           lint_source(seg, path=_SYNTHETIC_PATH)})
    raise LookupError(f"no mutation factory {func_name!r}")


def _model_verdict(entry: Optional[Tuple[str, str]]) -> Optional[str]:
    if entry is None:
        return None
    from .model import build_model, check, config_for_mutation

    name, mutation = entry
    result = check(build_model(name, mutation=mutation,
                               **config_for_mutation(name, mutation)))
    return None if result.violation is None else result.violation.kind


def _run_mutant(mut: Any, shadow: bool) -> Any:
    """Apply ``mut``, run its spec on its design and undo the patch;
    returns the ``Observation``.  ``shadow`` sets ``REPRO_SHADOW``."""
    from ..check.differ import run_spec

    saved = os.environ.get("REPRO_SHADOW")
    os.environ["REPRO_SHADOW"] = "1" if shadow else "0"
    undo = mut.apply()
    try:
        return run_spec(mut.spec, mut.design)
    finally:
        undo()
        if saved is None:
            del os.environ["REPRO_SHADOW"]
        else:
            os.environ["REPRO_SHADOW"] = saved


def _runtime_verdicts(mut: Any) -> List[str]:
    from .shadow import last_shadow

    obs = _run_mutant(mut, shadow=True)
    shadow = last_shadow()
    kinds: Set[str] = set()
    if shadow is not None:
        kinds = {v.kind for v in shadow.violations}
    if obs.error is not None and "DeadlockError" in obs.error:
        kinds.add("deadlock")
    return sorted(kinds)


def cheap_matrix() -> List[MutantRow]:
    """The lint, model and runtime columns for every catalogued
    mutation.  Never calls the oracle."""
    from ..check import mutations as corpus

    source = Path(corpus.__file__).read_text()
    return [MutantRow(mut.name,
                      lint=_lint_factory(source, mut.apply.__name__),
                      model=_model_verdict(mut.model),
                      runtime=_runtime_verdicts(mut))
            for mut in corpus.CATALOG]


def matrix() -> List[MutantRow]:
    """:func:`cheap_matrix` plus the oracle column, from a plain run
    of every row."""
    from ..check import oracle
    from ..check.mutations import CATALOG

    rows = cheap_matrix()
    for row, mut in zip(rows, CATALOG):
        obs = _run_mutant(mut, shadow=False)
        row.oracle = oracle.check(mut.spec, obs)
    return rows


def floors_broken(rows: Sequence[MutantRow]) -> List[str]:
    """The floors ``rows`` break (empty: all hold).  The oracle must
    catch every catalogued mutation; the cheap prongs at least
    :data:`CHEAP_FLOOR` of them."""
    from ..check.mutations import CATALOG

    total = len(CATALOG)
    oracle = sum(bool(r.oracle) for r in rows)
    cheap = sum(r.cheap for r in rows)
    broken: List[str] = []
    if oracle < total:
        broken.append(f"oracle caught {oracle}/{total}: it must catch "
                      "every row")
    if cheap < CHEAP_FLOOR:
        broken.append(f"cheap prongs caught {cheap}/{total}: the floor "
                      f"is {CHEAP_FLOOR}")
    return broken


def format_matrix(rows: Sequence[MutantRow]) -> str:
    table = [("mutation", "oracle", "lint", "model", "runtime")]
    table += [(r.name, "caught" if r.oracle else "MISSED",
               ",".join(r.lint) or "-", r.model or "-",
               ",".join(r.runtime) or "-") for r in rows]
    widths = [max(len(line[i]) for line in table) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths))
             + "  " + line[4] for line in table]
    lines.append(
        f"oracle {sum(bool(r.oracle) for r in rows)}/{len(rows)}; "
        f"lint {sum(bool(r.lint) for r in rows)}, "
        f"model {sum(bool(r.model) for r in rows)}, "
        f"runtime {sum(bool(r.runtime) for r in rows)}; "
        f"cheap prongs {sum(r.cheap for r in rows)}/{len(rows)} "
        f"(floor {CHEAP_FLOOR})")
    return "\n".join(lines)
