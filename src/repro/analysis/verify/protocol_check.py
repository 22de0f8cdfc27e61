"""Static wire-protocol totality checks (RV201–RV205).

The shard plane speaks the NDJSON envelope protocol documented in the
:mod:`repro.shard.wire` docstring table; the public edge speaks the verb
table in :mod:`repro.server.protocol`.  This checker extracts both
vocabularies *from the source* and proves totality against the actual
handler code:

* **RV201 unhandled-frame** — a frame kind is sent somewhere but no
  dispatch branch anywhere receives it: the receiver drops it on the
  floor and the sender's future hangs until a timeout cleans up.
* **RV202 unsent-frame** — a dispatch branch (or a wire.py table row)
  handles a kind nothing ever sends: dead protocol surface that rots.
* **RV203 frame-key-mismatch** — a send site omits a key the wire.py
  table declares for that kind, or omits a key some receiver branch
  *subscripts* (``frame["epoch"]``; ``.get()`` access is optional by
  construction).  Receiver-required keys are traced interprocedurally
  through calls the dispatch branch makes with the frame.
* **RV204 verb-totality** — every verb in ``protocol.VERBS`` reaches a
  handler comparison in service/snapshot/router/worker code, and every verb
  compared in handler code exists in ``VERBS`` (dead branch otherwise).
* **RV205 trace-echo** — every ``encode_response``/``encode_error``
  call site with a real request id passes ``trace=``; the protocol-v2
  contract echoes the client's trace id on *every* response and error
  frame.  Sites whose first argument is the literal ``None`` (decode
  failures — no request exists) are exempt.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.lint import Finding
from repro.analysis.verify.callgraph import (
    CallGraph,
    FunctionNode,
    Program,
    dotted_name,
)

__all__ = [
    "FrameSpec",
    "HandlerBranch",
    "SendSite",
    "check_protocol",
    "parse_wire_vocabulary",
]

_ROW_RE = re.compile(r"^``(\w+)``\s+(w -> r|r -> w)\s+(.*)$")
_SPAN_RE = re.compile(r"``([^`]+)``")


@dataclass(frozen=True)
class FrameSpec:
    """One row of the wire.py frame table."""

    kind: str
    direction: str  # "r->w" | "w->r"
    required: tuple[str, ...]
    #: alternation groups ("result | error"): at least one per group.
    choices: tuple[frozenset[str], ...]


def parse_wire_vocabulary(docstring: str) -> dict[str, FrameSpec]:
    """Extract the frame table from the wire.py module docstring.

    Rows start with ````kind``  direction  payload`` and may continue on
    indented lines; payload keys are the ````key```` spans, ``a | b``
    spans become alternation groups, and a payload of ``none`` (the
    ``shutdown`` row) means an empty payload.
    """
    specs: dict[str, FrameSpec] = {}
    current: "tuple[str, str, list[str]] | None" = None

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        kind, direction, chunks = current
        required: list[str] = []
        choices: list[frozenset[str]] = []
        for span in _SPAN_RE.findall(" ".join(chunks)):
            if "|" in span:
                choices.append(
                    frozenset(p.strip() for p in span.split("|") if p.strip())
                )
            elif span.strip() and span.strip() != "none":
                required.append(span.strip())
        specs[kind] = FrameSpec(
            kind=kind,
            direction=direction.replace(" ", ""),
            required=tuple(required),
            choices=tuple(choices),
        )
        current = None

    for line in docstring.splitlines():
        stripped = line.strip()
        match = _ROW_RE.match(stripped)
        if match:
            flush()
            current = (match.group(1), match.group(2), [match.group(3)])
        elif current is not None:
            if stripped.startswith("=") or not stripped:
                flush()
            else:
                current[2].append(stripped)
    flush()
    return specs


@dataclass(frozen=True)
class SendSite:
    """A dict literal ``{"t": kind, ...}`` built to be sent on the wire."""

    kind: str
    fn: str
    path: str
    node: ast.Dict
    keys: frozenset[str]
    complete: bool  # False when the literal has **spreads/computed keys


@dataclass
class HandlerBranch:
    """One ``kind == "x"`` dispatch branch and the frame var it reads."""

    kind: str
    fn: str
    path: str
    node: ast.AST  # the comparison (for RV202 location)
    frame_var: "str | None"
    body: list[ast.stmt] = field(default_factory=list)


def _collect_send_sites(program: Program) -> list[SendSite]:
    sites: list[SendSite] = []
    for fn in program.functions.values():
        if ".shard." not in f".{fn.module}." and not fn.module.endswith(
            ".shard"
        ):
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Dict):
                continue
            kind: "str | None" = None
            keys: set[str] = set()
            complete = True
            for key, value in zip(node.keys, node.values):
                if key is None:  # **spread
                    complete = False
                    continue
                if not isinstance(key, ast.Constant) or not isinstance(
                    key.value, str
                ):
                    complete = False
                    continue
                keys.add(key.value)
                if (
                    key.value == "t"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    kind = value.value
            if kind is not None:
                sites.append(
                    SendSite(
                        kind=kind,
                        fn=fn.qualname,
                        path=fn.path,
                        node=node,
                        keys=frozenset(keys - {"t"}),
                        complete=complete,
                    )
                )
    return sites


def _kind_comparisons(
    fn: FunctionNode,
) -> Iterator[tuple[str, ast.Compare, "str | None"]]:
    """(kind constant, compare node, frame var) for ``t``-dispatches."""
    # vars assigned from <frame>["t"] / <frame>.get("t")
    kind_vars: dict[str, str] = {}
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            frame_var = _t_access_source(node.value)
            if isinstance(target, ast.Name) and frame_var is not None:
                kind_vars[target.id] = frame_var
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Compare) or len(node.comparators) != 1:
            continue
        rhs = node.comparators[0]
        if not isinstance(rhs, ast.Constant) or not isinstance(rhs.value, str):
            continue
        lhs = node.left
        frame_var: "str | None" = None
        if isinstance(lhs, ast.Name) and lhs.id in kind_vars:
            frame_var = kind_vars[lhs.id]
        else:
            frame_var = _t_access_source(lhs)
            if frame_var is None:
                continue
        yield rhs.value, node, frame_var


def _t_access_source(node: ast.AST) -> "str | None":
    """The var name X for ``X["t"]`` or ``X.get("t")`` expressions."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "t"
    ):
        return node.value.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "t"
    ):
        return node.func.value.id
    return None


def _collect_handlers(program: Program) -> list[HandlerBranch]:
    """Every dispatch branch, with the statements it guards."""
    handlers: list[HandlerBranch] = []
    for fn in program.functions.values():
        if ".shard." not in f".{fn.module}.":
            continue
        compares = list(_kind_comparisons(fn))
        if not compares:
            continue
        # map each comparison to the If body it guards (when it is a test)
        for kind, cmp_node, frame_var in compares:
            body: list[ast.stmt] = []
            for node in ast.walk(fn.node):
                if isinstance(node, ast.If) and _test_contains(
                    node.test, cmp_node
                ):
                    body = node.body
                    break
            handlers.append(
                HandlerBranch(
                    kind=kind,
                    fn=fn.qualname,
                    path=fn.path,
                    node=cmp_node,
                    frame_var=frame_var,
                    body=body,
                )
            )
    return handlers


def _test_contains(test: ast.AST, needle: ast.AST) -> bool:
    return any(node is needle for node in ast.walk(test))


class _RequiredKeys:
    """Interprocedural ``param["key"]`` usage, traced through calls."""

    def __init__(self, program: Program, graph: CallGraph):
        self.program = program
        self.graph = graph
        self._memo: dict[tuple[str, str], set[str]] = {}

    def for_branch(self, branch: HandlerBranch) -> set[str]:
        if branch.frame_var is None:
            return set()
        keys: set[str] = set()
        for stmt in branch.body:
            for node in ast.walk(stmt):
                keys |= self._direct_keys(node, branch.frame_var)
                if isinstance(node, ast.Call):
                    keys |= self._through_call(branch.fn, node, branch.frame_var)
        return keys

    def _direct_keys(self, node: ast.AST, var: str) -> set[str]:
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == var
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and isinstance(node.ctx, ast.Load)
        ):
            return {node.slice.value}
        return set()

    def _through_call(
        self, caller: str, call: ast.Call, var: str
    ) -> set[str]:
        positions = [
            i
            for i, arg in enumerate(call.args)
            if isinstance(arg, ast.Name) and arg.id == var
        ]
        kw_names = [
            kw.arg
            for kw in call.keywords
            if isinstance(kw.value, ast.Name)
            and kw.value.id == var
            and kw.arg is not None
        ]
        if not positions and not kw_names:
            return set()
        keys: set[str] = set()
        for site in self.graph.calls.get(caller, ()):
            if site.node is not call:
                continue
            if site.ambiguous and len(site.targets) != 1:
                continue
            for target in site.targets:
                fn = self.program.functions.get(target)
                if fn is None:
                    continue
                params = [a.arg for a in fn.node.args.args]
                if fn.cls is not None and params and params[0] in (
                    "self",
                    "cls",
                ):
                    params = params[1:]
                for pos in positions:
                    if pos < len(params):
                        keys |= self.required(target, params[pos])
                for name in kw_names:
                    if name in params:
                        keys |= self.required(target, name)
        return keys

    def required(self, fn_qual: str, param: str) -> set[str]:
        memo_key = (fn_qual, param)
        if memo_key in self._memo:
            return self._memo[memo_key]
        self._memo[memo_key] = set()  # cycle guard
        fn = self.program.functions.get(fn_qual)
        if fn is None:
            return set()
        keys: set[str] = set()
        for node in ast.walk(fn.node):
            keys |= self._direct_keys(node, param)
            if isinstance(node, ast.Call):
                keys |= self._through_call(fn_qual, node, param)
        self._memo[memo_key] = keys
        return keys


def _emit(
    out: list[Finding], path: str, node: ast.AST, code: str, message: str
) -> None:
    out.append(
        Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )
    )


def _check_frames(
    program: Program, graph: CallGraph, out: list[Finding]
) -> None:
    wire = program.modules.get("repro.shard.wire")
    vocab: dict[str, FrameSpec] = {}
    if wire is not None:
        doc = ast.get_docstring(wire.tree) or ""
        vocab = parse_wire_vocabulary(doc)
    sends = _collect_send_sites(program)
    handlers = _collect_handlers(program)
    handled_kinds = {h.kind for h in handlers}
    sent_kinds = {s.kind for s in sends}

    req_keys = _RequiredKeys(program, graph)
    by_kind_required: dict[str, set[str]] = {}
    for handler in handlers:
        by_kind_required.setdefault(handler.kind, set()).update(
            req_keys.for_branch(handler)
        )

    for site in sends:
        if site.kind not in handled_kinds:
            _emit(
                out,
                site.path,
                site.node,
                "RV201",
                f"frame kind {site.kind!r} sent from {site.fn} has no "
                "dispatch branch on the receiving side; the peer drops it "
                "and the sender's future never resolves",
            )
        if vocab and site.kind not in vocab:
            _emit(
                out,
                site.path,
                site.node,
                "RV203",
                f"frame kind {site.kind!r} sent from {site.fn} is not "
                "documented in the wire.py frame table",
            )
        elif site.complete and site.kind in vocab:
            spec = vocab[site.kind]
            missing = [k for k in spec.required if k not in site.keys]
            for key in missing:
                _emit(
                    out,
                    site.path,
                    site.node,
                    "RV203",
                    f"send site of {site.kind!r} in {site.fn} omits "
                    f"documented key {key!r}",
                )
            for group in spec.choices:
                if not (group & site.keys):
                    _emit(
                        out,
                        site.path,
                        site.node,
                        "RV203",
                        f"send site of {site.kind!r} in {site.fn} satisfies "
                        f"none of the alternation {sorted(group)}",
                    )
        if site.complete:
            for key in sorted(
                by_kind_required.get(site.kind, set()) - site.keys
            ):
                _emit(
                    out,
                    site.path,
                    site.node,
                    "RV203",
                    f"send site of {site.kind!r} in {site.fn} omits key "
                    f"{key!r} which a receiver branch subscripts "
                    "unconditionally (KeyError on the peer)",
                )

    for handler in handlers:
        if handler.kind not in sent_kinds:
            _emit(
                out,
                handler.path,
                handler.node,
                "RV202",
                f"dispatch branch for frame kind {handler.kind!r} in "
                f"{handler.fn} is dead: nothing ever sends it",
            )
    if vocab:
        wire_path = wire.path if wire is not None else "wire.py"
        for kind in sorted(set(vocab) - sent_kinds):
            _emit(
                out,
                wire_path,
                ast.Constant(value=kind, lineno=1, col_offset=0),
                "RV202",
                f"wire.py documents frame kind {kind!r} but no send site "
                "builds it",
            )


def _verbs_from_protocol(program: Program) -> set[str]:
    mod = program.modules.get("repro.server.protocol")
    verbs: set[str] = set()
    if mod is None:
        return verbs
    for stmt in mod.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "VERBS"
            and isinstance(stmt.value, ast.Dict)
        ):
            for key in stmt.value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    verbs.add(key.value)
    return verbs


_HANDLER_MODULES = (
    "repro.server.service",
    "repro.server.snapshot",
    "repro.shard.router",
    "repro.shard.worker",
)


def _verb_comparisons(
    program: Program,
) -> list[tuple[str, FunctionNode, ast.AST]]:
    """String constants compared against a ``*verb``-named expression."""
    out: list[tuple[str, FunctionNode, ast.AST]] = []
    for fn in program.functions.values():
        if fn.module not in _HANDLER_MODULES:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Compare):
                continue
            if not _is_verb_expr(node.left):
                continue
            for comparator in node.comparators:
                for const in _string_constants(comparator):
                    out.append((const, fn, node))
    return out


def _is_verb_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id.endswith("verb")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("verb")
    return False


def _string_constants(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for elt in node.elts:
            yield from _string_constants(elt)


def _check_verbs(program: Program, out: list[Finding]) -> None:
    verbs = _verbs_from_protocol(program)
    if not verbs:
        return
    comparisons = _verb_comparisons(program)
    handled = {verb for verb, _, _ in comparisons}
    # WRITE_VERBS routes through the write path without a per-verb compare
    # in _dispatch; the write executor compares "insert" and falls through
    # to delete, which the comparison scan already picks up.
    proto = program.modules.get("repro.server.protocol")
    proto_path = proto.path if proto is not None else "protocol.py"
    for verb in sorted(verbs - handled):
        _emit(
            out,
            proto_path,
            ast.Constant(value=verb, lineno=1, col_offset=0),
            "RV204",
            f"verb {verb!r} is in protocol.VERBS but no handler in "
            "service/snapshot/router/worker compares it; requests for it can only "
            "fall through to a generic error",
        )
    for verb, fn, node in comparisons:
        if verb not in verbs:
            _emit(
                out,
                fn.path,
                node,
                "RV204",
                f"handler in {fn.qualname} compares verb {verb!r} which is "
                "not in protocol.VERBS: dead branch (the edge validator "
                "rejects unknown verbs first)",
            )


_RESPONSE_MODULES = (
    "repro.server.service",
    "repro.shard.router",
)


def _check_trace_echo(program: Program, out: list[Finding]) -> None:
    for fn in program.functions.values():
        if fn.module not in _RESPONSE_MODULES:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            if raw not in ("encode_error", "encode_response"):
                continue
            if node.args and (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            ):
                continue  # no request exists (decode failure); exempt
            if any(kw.arg == "trace" for kw in node.keywords):
                continue
            _emit(
                out,
                fn.path,
                node,
                "RV205",
                f"{raw}() in {fn.qualname} does not pass trace=; the "
                "protocol-v2 contract echoes the client's trace id on "
                "every response and error frame",
            )


def check_protocol(program: Program, graph: CallGraph) -> list[Finding]:
    """Run RV201–RV205; findings are unwaived."""
    out: list[Finding] = []
    _check_frames(program, graph, out)
    _check_verbs(program, out)
    _check_trace_echo(program, out)
    out.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return out
