"""Verbs-contract rules: the paper's ordering/ownership invariants.

These rules target the channel/device modules (``mpich2/``): the §4.3
single-write chunk layout, the explicit tail-update flow control, the
§5 deregister-only-after-ACK zero-copy ownership rule, Fig. 10's
ACK-after-read-completion, and packet-identity integrity.  They are
deliberately *shape* checks over the repo's own idioms — not a general
dataflow engine — tuned so the clean tree passes and each canned
protocol bug in ``repro/check/mutations.py`` trips at least one rule.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import Finding, ModuleInfo, Rule

__all__ = [
    "RingWriteTornRule",
    "CreditPublishRule",
    "ZcDeregBeforeAckRule",
    "AckBeforeReadDoneRule",
    "MrUseAfterDeregRule",
    "DeadProtocolParamRule",
    "SilentGeneratorRule",
    "HeaderIdentityArithRule",
]


def _in_scope(mod: ModuleInfo) -> bool:
    return "mpich2/" in mod.path or "mutant" in mod.path


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node


def _identifiers(node: ast.AST) -> Set[str]:
    """Every Name id and Attribute attr in a subtree."""
    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _call_name(call: ast.Call) -> str:
    """Trailing name of the called thing: f() -> 'f', a.b.c() -> 'c'."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _single_assignments(fn: ast.FunctionDef) -> Dict[str, ast.expr]:
    """name -> value for names assigned exactly once in the function
    (the linter's one-step dataflow for resolving SGE lengths)."""
    counts: Dict[str, int] = {}
    values: Dict[str, ast.expr] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name):
                counts[tgt.id] = counts.get(tgt.id, 0) + 1
                values[tgt.id] = node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            tgt = node.target
            if isinstance(tgt, ast.Name):
                counts[tgt.id] = counts.get(tgt.id, 0) + 2
    return {k: v for k, v in values.items() if counts.get(k) == 1}


def _resolve(expr: ast.expr, env: Dict[str, ast.expr],
             depth: int = 4) -> ast.expr:
    while (depth > 0 and isinstance(expr, ast.Name)
           and expr.id in env):
        expr = env[expr.id]
        depth -= 1
    return expr


class RingWriteTornRule(Rule):
    """§4.3: a data chunk must land in ONE RDMA write covering
    header + payload + trailer; posting the header alone reverts to
    the unsafe head-pointer-before-data protocol.  Applies to modules
    that use the chunk layout (they reference ``TRAILER_SIZE`` or are
    ring modules): any ``rdma_write`` whose SGE address is derived
    from the ``staging`` buffer must have a length expression that
    (after resolving single-assignment names) mentions the trailer."""

    id = "ring-write-torn"
    description = "ring data write does not cover the chunk trailer"

    def applies(self, mod: ModuleInfo) -> bool:
        if not _in_scope(mod):
            return False
        return ("TRAILER_SIZE" in mod.source
                or "ring" in mod.path.rsplit("/", 1)[-1])

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            env = _single_assignments(fn)
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call)
                        and _call_name(node) == "rdma_write"):
                    continue
                for addr, length in _sge_tuples(node):
                    if "staging" not in _identifiers(addr):
                        continue
                    ids = _identifiers(_resolve(length, env))
                    if not any("TRAILER" in name for name in ids):
                        yield self.finding(
                            mod, node,
                            "RDMA write from the staging ring covers "
                            f"'{ast.unparse(length)}' bytes — not the "
                            "full header+payload+trailer chunk (§4.3 "
                            "single-write invariant)")


def _sge_tuples(call: ast.Call) -> Iterator[Tuple[ast.expr, ast.expr]]:
    """Yield (addr_expr, len_expr) for each SGE tuple literal in an
    ``rdma_write(qp, [(addr, len, lkey), ...], ...)`` call."""
    for arg in call.args:
        if isinstance(arg, (ast.List, ast.Tuple)):
            for elt in arg.elts:
                if isinstance(elt, ast.Tuple) and len(elt.elts) == 3:
                    yield elt.elts[0], elt.elts[1]


class CreditPublishRule(Rule):
    """§4.3 flow control: marking credits as sent
    (``x.credit_sent = ...``) is only legal after the update actually
    went on the wire — an ``rdma_write``/``post``/``build_chunk``/
    ``publish`` earlier in the same function.  Initializers are exempt;
    genuinely piggybacked accounting must carry an allow-annotation."""

    id = "credit-publish"
    description = "credit_sent advanced without publishing the update"

    def applies(self, mod: ModuleInfo) -> bool:
        return _in_scope(mod)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            if fn.name in ("__init__", "establish", "reset"):
                continue
            publishes: List[int] = [
                node.lineno for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and _call_name(node) in ("rdma_write", "post",
                                         "build_chunk", "publish")]
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Assign)
                        or isinstance(node, ast.AugAssign)):
                    continue
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for tgt in targets:
                    if (isinstance(tgt, ast.Attribute)
                            and tgt.attr == "credit_sent"):
                        if not any(ln < node.lineno for ln in publishes):
                            yield self.finding(
                                mod, node,
                                "credit_sent advanced with no RDMA "
                                "write/post of the tail update earlier "
                                "in this function (§4.3 explicit "
                                "tail-update contract)")


class ZcDeregBeforeAckRule(Rule):
    """§5 ownership: the zero-copy source registration may only be
    released once the receiver's ACK arrived (the peer's RDMA read is
    outstanding until then).  Flags ``dereg_mr``/``release`` of a
    zero-copy MR (arg mentions ``zc``) in functions that never looked
    at ``acked`` first.  NAK/teardown paths are exempt: the peer
    refused the RTS or the channel is dying, so no read is coming."""

    id = "zc-dereg-before-ack"
    description = "zero-copy MR released before the ACK was seen"

    _EXEMPT = ("nak", "fallback", "finalize", "flush", "free", "abort")

    def applies(self, mod: ModuleInfo) -> bool:
        return _in_scope(mod)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            if any(tok in fn.name.lower() for tok in self._EXEMPT):
                continue
            acked_lines = [
                node.lineno for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and node.attr == "acked"]
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call)
                        and _call_name(node) in ("dereg_mr", "release")
                        and node.args):
                    continue
                ids = _identifiers(node.args[0])
                if not any("zc" in name for name in ids):
                    continue
                if not any(ln < node.lineno for ln in acked_lines):
                    yield self.finding(
                        mod, node,
                        "zero-copy source registration released "
                        "without checking .acked first — the peer's "
                        "RDMA read may still be in flight (§5 "
                        "deregister-after-ACK)")


class AckBeforeReadDoneRule(Rule):
    """Fig. 10: the rendezvous ACK tells the sender its buffer is
    free, so it may only be emitted after the RDMA read completed.
    Flags calls passing ``KIND_ACK`` with no earlier completion
    evidence (a ``_poll_zcopy_read`` call or a ``finished``/``done``
    check) in the same function."""

    id = "ack-before-read-done"
    description = "rendezvous ACK emitted before read completion"

    def applies(self, mod: ModuleInfo) -> bool:
        return _in_scope(mod)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            evidence = [
                node.lineno for node in ast.walk(fn)
                if (isinstance(node, (ast.Name, ast.Attribute))
                    and (getattr(node, "id", None) or
                         getattr(node, "attr", "")) in
                    ("_poll_zcopy_read", "finished", "done"))]
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                passes_ack = any(
                    isinstance(a, ast.Name) and a.id == "KIND_ACK"
                    for a in node.args)
                if not passes_ack:
                    continue
                if not any(ln < node.lineno for ln in evidence):
                    yield self.finding(
                        mod, node,
                        "KIND_ACK emitted with no earlier read-"
                        "completion check in this function (Fig. 10: "
                        "ACK only after the RDMA read finished)")


class MrUseAfterDeregRule(Rule):
    """An MR's keys and address are dead after ``dereg_mr``: any
    later ``.lkey``/``.rkey``/``.addr`` on the same object in the
    same function is a use-after-free on the wire.  Bookkeeping
    attributes (``.length``, ``.valid``) stay readable."""

    id = "mr-use-after-dereg"
    description = "MR key/address used after dereg_mr"

    _DEAD_ATTRS = ("lkey", "rkey", "addr")

    def applies(self, mod: ModuleInfo) -> bool:
        return _in_scope(mod)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            deregs: List[Tuple[str, int]] = []
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and _call_name(node) == "dereg_mr"
                        and node.args):
                    try:
                        deregs.append((ast.unparse(node.args[0]),
                                       node.lineno))
                    except Exception:  # pragma: no cover
                        continue
            if not deregs:
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Attribute)
                        and node.attr in self._DEAD_ATTRS):
                    continue
                try:
                    base = ast.unparse(node.value)
                except Exception:  # pragma: no cover
                    continue
                for target, line in deregs:
                    if base == target and node.lineno > line:
                        yield self.finding(
                            mod, node,
                            f"{base}.{node.attr} read after "
                            f"dereg_mr({target}) on line {line}")


class DeadProtocolParamRule(Rule):
    """A protocol handler that accepts an identity/flow field
    (``credit``, ``tag``, ``src``, …) and never reads it silently
    drops protocol state — the classic matching/flow-control bug.
    Stub bodies (docstring / ``pass`` / immediate ``raise``) are
    exempt, as are ``_``-prefixed parameters."""

    id = "dead-protocol-param"
    description = "protocol parameter accepted but never read"

    _PARAMS = frozenset({
        "credit", "tag", "want_tag", "src", "want_src", "source",
        "want_ctx", "seq",
    })

    def applies(self, mod: ModuleInfo) -> bool:
        return _in_scope(mod)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            if _is_stub(fn):
                continue
            params = [a.arg for a in
                      (fn.args.posonlyargs + fn.args.args
                       + fn.args.kwonlyargs)]
            suspect = [p for p in params
                       if p in self._PARAMS and not p.startswith("_")]
            if not suspect:
                continue
            read: Set[str] = set()
            for node in ast.walk(fn):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)):
                    read.add(node.id)
            for p in suspect:
                if p not in read:
                    yield self.finding(
                        mod, fn,
                        f"parameter '{p}' of {fn.name}() is a protocol "
                        "identity/flow field but is never read")


def _is_stub(fn: ast.FunctionDef) -> bool:
    body = list(fn.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body:
        return True
    if isinstance(body[0], ast.Raise):
        return True
    return all(isinstance(stmt, ast.Pass)
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant))
               for stmt in body)


class SilentGeneratorRule(Rule):
    """Unreachable statements after a ``return``/``raise`` in the same
    block.  In this codebase that is almost always the
    ``return … ; yield`` empty-generator idiom applied to a function
    that was supposed to *do* something — the protocol step silently
    becomes a no-op.  Intentional empty generators carry an
    allow-annotation."""

    id = "silent-generator"
    description = "unreachable code after return/raise"

    def applies(self, mod: ModuleInfo) -> bool:
        return _in_scope(mod)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            for block in _blocks(fn):
                terminated: Optional[int] = None
                for stmt in block:
                    if terminated is not None:
                        yield self.finding(
                            mod, stmt,
                            "statement is unreachable (return/raise on "
                            f"line {terminated}); if this function "
                            "should perform a protocol step, it "
                            "silently no-ops")
                        break
                    if isinstance(stmt, (ast.Return, ast.Raise)):
                        terminated = stmt.lineno


def _blocks(fn: ast.FunctionDef) -> Iterator[List[ast.stmt]]:
    yield fn.body
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body
        for attr in ("body", "orelse", "finalbody"):
            blk = getattr(node, attr, None)
            if isinstance(blk, list) and blk and \
                    isinstance(blk[0], ast.stmt):
                yield blk


class HeaderIdentityArithRule(Rule):
    """Packet identity fields (source rank, tag) must be passed
    through ``pack_header`` verbatim: any arithmetic on them at the
    call site silently corrupts matching for every message.  Resolves
    module/function-local aliases (``orig = ch3.pack_header``)."""

    id = "header-identity-arith"
    description = "arithmetic on identity field at pack_header call"

    _IDENTITY = frozenset({"src", "tag", "source", "rank",
                           "want_src", "want_tag"})

    def applies(self, mod: ModuleInfo) -> bool:
        return _in_scope(mod)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        aliases = {"pack_header"}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt, val = node.targets[0], node.value
                if (isinstance(tgt, ast.Name)
                        and ((isinstance(val, ast.Attribute)
                              and val.attr == "pack_header")
                             or (isinstance(val, ast.Name)
                                 and val.id == "pack_header"))):
                    aliases.add(tgt.id)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in aliases:
                continue
            for arg in list(node.args) + [kw.value
                                          for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if not isinstance(sub, ast.BinOp):
                        continue
                    touched = _identifiers(sub) & self._IDENTITY
                    if touched:
                        yield self.finding(
                            mod, node,
                            "packet identity field "
                            f"{sorted(touched)} passed through "
                            "arithmetic at a pack_header call — "
                            "header must carry it verbatim")
                        break
