"""The repro-lint rule catalogue.

Each rule encodes one invariant of this codebase (see
``docs/static-analysis.md`` for the full catalogue with rationale):

=======  ==================================================================
REP001   no float ``==``/``!=`` against float literals in geometry code
REP002   no blocking calls / heavy numpy builds inside ``async def``
REP003   no ``await`` or blocking I/O while holding a ``threading.Lock``
REP004   comparing kernels must thread ``QueryStats`` (EXPLAIN parity)
REP005   grid query/update methods must reach both the base and the overlay
REP006   no module-level mutable state in ``repro.shard`` worker code
REP007   no raw index-file opens without the format-version check
REP101   no bare ``except:``
REP102   no mutable default arguments
REP103   no wall-clock time calls outside ``repro.obs`` / ``repro.bench``
REP104   no unused imports
REP105   public APIs in typed packages must be fully annotated
=======  ==================================================================

Rules are intentionally syntactic: they over-approximate, and intentional
exceptions carry a visible ``# repro-lint: disable=CODE`` waiver next to a
justification, exactly like a ``# type: ignore[code]``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.lint import Finding, LintRule, ModuleInfo

__all__ = ["ALL_RULES"]

#: MBR coordinate column / bound names, the vocabulary of every kernel.
_COORD_NAMES = frozenset({"xl", "yl", "xu", "yu"})
#: query-side operand names a kernel comparison may use.
_QUERY_NAMES = frozenset(
    {"window", "rect", "query", "q", "qx", "qy", "cx", "cy", "radius"}
)

#: dotted call names that block the thread (and therefore the event loop).
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.socket",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.popen",
        "os.waitpid",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
    }
)

#: numpy calls that rebuild/sort whole arrays — unbounded CPU work that
#: must not run inline on the event loop (push it into a sync kernel
#: executed per micro-batch instead).
_NP_HEAVY_CALLS = frozenset(
    {
        "np.sort",
        "np.argsort",
        "np.lexsort",
        "np.concatenate",
        "np.unique",
        "numpy.sort",
        "numpy.argsort",
        "numpy.lexsort",
        "numpy.concatenate",
        "numpy.unique",
    }
)

#: wall-clock reads; nondeterministic and unmockable, unlike the
#: monotonic perf_counter the obs.Timed / tracing layer standardises on.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }
)

_KERNEL_NAME_RE = re.compile(r"window|disk|knn|scan|fused|kernel|query")
_PARITY_NAME_RE = re.compile(r"query|window|disk|count|explain")


def _dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> "str | None":
    """The last identifier of an expression (unwrapping subscripts)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _walk_shallow(nodes: "list[ast.stmt]") -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class
    definitions (their bodies run in a different execution context)."""
    stack: list[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def _functions(tree: ast.Module) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class FloatEqualityRule(LintRule):
    """Float ``==``/``!=`` against a float literal in geometry code —
    exact equality on computed coordinates is almost always a latent bug
    (FP rounding makes it silently unreachable); restructure the test as
    an inequality (``<= 0.0`` on a nonnegative distance) or an explicit
    tolerance check."""

    code = "REP001"
    name = "float-literal-equality"
    scope = ("geometry",)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Constant) and isinstance(o.value, float)
                for o in operands
            ):
                yield self.finding(
                    mod,
                    node,
                    "float equality against a literal; use an inequality "
                    "or tolerance test on computed coordinates",
                )


class BlockingCallInAsyncRule(LintRule):
    """Blocking call (``time.sleep``, sync ``open``/socket/subprocess
    I/O) or unbounded numpy build directly inside an ``async def`` —
    stalls the event loop for every connection; await an executor or move
    the work into the sync batch kernel."""

    code = "REP002"
    name = "blocking-call-in-async"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in _walk_shallow(fn.body):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted_name(node.func)
                if dotted == "open" or (
                    isinstance(node.func, ast.Name) and node.func.id == "open"
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"sync open() inside async def {fn.name!r} blocks "
                        "the event loop",
                    )
                elif dotted in _BLOCKING_CALLS:
                    yield self.finding(
                        mod,
                        node,
                        f"blocking call {dotted}() inside async def "
                        f"{fn.name!r} stalls the event loop",
                    )
                elif dotted in _NP_HEAVY_CALLS:
                    yield self.finding(
                        mod,
                        node,
                        f"unbounded numpy build {dotted}() inside async "
                        f"def {fn.name!r}; run it in the sync batch kernel",
                    )


class AwaitUnderLockRule(LintRule):
    """``await`` or blocking I/O while holding a ``threading.Lock``
    (sync ``with ...lock:`` block) — the event loop suspends the task
    mid-critical-section, or the I/O stalls every thread contending for
    the lock.  Keep lock bodies to pure in-memory state transitions."""

    code = "REP003"
    name = "await-under-lock"

    @staticmethod
    def _is_lock_ctx(item: ast.withitem) -> bool:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        name = _terminal_name(expr)
        return name is not None and "lock" in name.lower()

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            # async with = an asyncio.Lock, designed to be held across
            # awaits; only sync `with` acquires a threading.Lock.
            if not isinstance(node, ast.With):
                continue
            if not any(self._is_lock_ctx(item) for item in node.items):
                continue
            for inner in _walk_shallow(node.body):
                if isinstance(inner, ast.Await):
                    yield self.finding(
                        mod,
                        inner,
                        "await while holding a threading lock; the lock "
                        "is held across an arbitrary suspension",
                    )
                elif isinstance(inner, ast.Call):
                    dotted = _dotted_name(inner.func)
                    if dotted in _BLOCKING_CALLS:
                        yield self.finding(
                            mod,
                            inner,
                            f"blocking call {dotted}() while holding a "
                            "threading lock",
                        )


class StatsThreadingRule(LintRule):
    """A query kernel in ``repro.core``/``repro.grid`` compares MBR
    coordinates but declares no ``stats`` parameter — its work is
    invisible to QueryStats/EXPLAIN, silently breaking the paper's
    Section IV-B accounting parity.  Thread ``stats`` through, or waive
    explicitly for an intentional stats-free fast path."""

    code = "REP004"
    name = "kernel-stats-threading"
    scope = ("core", "grid")

    #: numpy comparison ufuncs — kernels that compare via
    #: ``np.greater_equal(cols, bounds)`` instead of operators.
    _CMP_UFUNCS = frozenset({"greater_equal", "less_equal", "greater", "less"})

    @staticmethod
    def _is_mbr_comparison(node: ast.Compare) -> bool:
        if not any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
        ):
            return False
        operands = [node.left, *node.comparators]
        names = [_terminal_name(o) for o in operands]
        if not any(n in _COORD_NAMES for n in names):
            return False
        return all(
            n in _COORD_NAMES
            or n in _QUERY_NAMES
            or isinstance(o, ast.Constant)
            for n, o in zip(names, operands)
        )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            if not _KERNEL_NAME_RE.search(fn.name):
                continue
            params = {
                a.arg
                for a in [
                    *fn.args.posonlyargs,
                    *fn.args.args,
                    *fn.args.kwonlyargs,
                ]
            }
            if "stats" in params:
                continue
            # local aliases of comparison ufuncs (`ge = np.greater_equal`)
            cmp_aliases = set(self._CMP_UFUNCS)
            for node in _walk_shallow(fn.body):
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Attribute
                ):
                    if node.value.attr in self._CMP_UFUNCS:
                        cmp_aliases.update(
                            t.id for t in node.targets if isinstance(t, ast.Name)
                        )
            for node in _walk_shallow(fn.body):
                compares = isinstance(node, ast.Compare) and self._is_mbr_comparison(
                    node
                )
                if not compares and isinstance(node, ast.Call):
                    compares = _terminal_name(node.func) in cmp_aliases
                if compares:
                    yield self.finding(
                        mod,
                        fn,
                        f"kernel {fn.name!r} compares MBR coordinates but "
                        "takes no `stats` parameter; QueryStats/EXPLAIN "
                        "cannot account its work",
                    )
                    break


class BackendParityRule(LintRule):
    """A public query/update method on a grid class reaches only one of
    the packed base (``_store``) / delta overlay (``_tiles``) — the rows
    living in the other half are silently missed (inserts since the last
    ``compact()``, or everything bulk-loaded).  Every public read path
    must consult both; ``delete``/``compact`` must maintain both."""

    code = "REP005"
    name = "base-overlay-parity"
    scope = ("core", "grid")

    @staticmethod
    def _method_facts(
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> tuple[bool, bool, set[str]]:
        uses_store = False
        uses_tiles = False
        refs: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                if node.attr == "_store":
                    uses_store = True
                elif node.attr == "_tiles":
                    uses_tiles = True
                else:
                    refs.add(node.attr)
        return uses_store, uses_tiles, refs

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for cls in ast.walk(mod.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                stmt.name: stmt
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            facts = {name: self._method_facts(fn) for name, fn in methods.items()}
            # only classes that own both a base and an overlay
            if not any(f[0] for f in facts.values()) or not any(
                f[1] for f in facts.values()
            ):
                continue
            closure: dict[str, tuple[bool, bool]] = {}

            def reach(name: str, seen: "frozenset[str]") -> tuple[bool, bool]:
                if name in closure:
                    return closure[name]
                if name in seen:
                    return False, False
                store, tiles, refs = facts[name]
                for ref in refs & methods.keys():
                    s, t = reach(ref, seen | {name})
                    store = store or s
                    tiles = tiles or t
                closure[name] = (store, tiles)
                return store, tiles

            for name, fn in methods.items():
                if name.startswith("_") or not _PARITY_NAME_RE.search(name):
                    continue
                store, tiles = reach(name, frozenset())
                if not store and not tiles:
                    continue  # storage-independent helper
                if name == "insert":
                    # inserts only ever land in the delta overlay
                    missing = None if tiles else "_tiles"
                elif store and tiles:
                    missing = None
                else:
                    missing = "_tiles" if store else "_store"
                if missing:
                    present = "_store" if missing == "_tiles" else "_tiles"
                    yield self.finding(
                        mod,
                        fn,
                        f"{cls.name}.{name} reaches {present} but never "
                        f"{missing}; rows in the "
                        f"{'delta overlay' if missing == '_tiles' else 'packed base'} "
                        "would be ignored",
                    )


class SpawnUnsafeGlobalRule(LintRule):
    """Module-level mutable state in :mod:`repro.shard` — shard worker
    processes re-import these modules under the ``spawn`` start method,
    so a mutable global materialises once *per process*: mutations in
    the router and in each worker silently diverge, which is exactly the
    class of bug the shard subsystem's replicate-by-broadcast design
    exists to rule out.  Keep cross-process state in the shm arena or on
    instances created after the fork point; module constants must be
    immutable (tuple/frozenset/scalar)."""

    code = "REP006"
    name = "spawn-unsafe-global"
    scope = ("shard",)

    _MUTABLE_CALLS = frozenset(
        {
            "list",
            "dict",
            "set",
            "bytearray",
            "deque",
            "defaultdict",
            "Counter",
            "OrderedDict",
        }
    )

    def _is_mutable(self, node: "ast.expr | None") -> bool:
        if node is None:
            return False
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            return name in self._MUTABLE_CALLS
        return False

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        # module scope only: class/function bodies build per-instance or
        # per-call state, which is exactly where shard state belongs.
        stack: list[ast.AST] = list(mod.tree.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = getattr(node, "value", None)
                if self._is_mutable(value):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    names = [
                        _terminal_name(t) or "<target>" for t in targets
                    ]
                    if all(
                        n.startswith("__") and n.endswith("__") for n in names
                    ):
                        continue  # __all__ and friends: set once, by idiom
                    yield self.finding(
                        mod,
                        node,
                        f"module-level mutable {', '.join(names)!r}: each "
                        "spawned shard worker gets its own diverging copy; "
                        "use an immutable constant or per-instance state",
                    )
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    mod,
                    node,
                    f"'global {', '.join(node.names)}' mutates module "
                    "state that is per-process under spawn; pass state "
                    "explicitly or keep it on an instance",
                )


class UncheckedIndexOpenRule(LintRule):
    """Raw index-file opens in :mod:`repro.core` / :mod:`repro.grid`
    without the columnar format-version check — ``np.load`` /
    ``np.memmap`` interpret whatever bytes they are pointed at, so a
    module that maps index files while never touching the
    :mod:`repro.core.format` helpers (``is_columnar`` / ``read_header``
    / ``read_container``) can silently misread an archive written by an
    older or newer format.  Funnel every open through those helpers;
    the rule passes any module that references them (syntactic
    over-approximation, like the rest of the catalogue)."""

    code = "REP007"
    name = "unchecked-index-open"
    scope = ("core", "grid")

    _RAW_OPENS = frozenset(
        {
            "np.load",
            "numpy.load",
            "np.memmap",
            "numpy.memmap",
            "np.lib.format.open_memmap",
            "numpy.lib.format.open_memmap",
        }
    )
    #: referencing any of these marks the module as format-aware.
    _HELPERS = frozenset({"is_columnar", "read_header", "read_container"})

    def _format_aware(self, mod: ModuleInfo) -> bool:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Name) and node.id in self._HELPERS:
                return True
            if isinstance(node, ast.Attribute) and node.attr in self._HELPERS:
                return True
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in self._HELPERS
            ):
                return True
        return False

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        if self._format_aware(mod):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name in self._RAW_OPENS:
                yield self.finding(
                    mod,
                    node,
                    f"{name} opens an index file without the format-"
                    "version check; go through repro.core.format "
                    "(is_columnar / read_header / read_container) so "
                    "old or foreign archives fail structurally",
                )


class BareExceptRule(LintRule):
    """Bare ``except:`` — swallows KeyboardInterrupt/SystemExit and
    masks real faults; catch a concrete exception (``ReproError``,
    ``OSError``, ...) or at minimum ``Exception``."""

    code = "REP101"
    name = "bare-except"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    mod, node, "bare except; name the exception class"
                )


class MutableDefaultRule(LintRule):
    """Mutable default argument (list/dict/set literal or constructor) —
    shared across every call; default to None and materialise inside."""

    code = "REP102"
    name = "mutable-default-argument"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: "ast.expr | None") -> bool:
        if node is None:
            return False
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for fn in _functions(mod.tree):
            for default in [*fn.args.defaults, *fn.args.kw_defaults]:
                if self._is_mutable(default):
                    yield self.finding(
                        mod,
                        default,
                        f"mutable default in {fn.name!r}; use None and "
                        "build the container in the body",
                    )


class WallClockRule(LintRule):
    """Wall-clock read (``time.time``, ``datetime.now``, ...) outside
    the observability/benchmark layers — nondeterministic, unmockable,
    and jumps under NTP; measure with the monotonic ``obs.Timed`` /
    tracing spans instead."""

    code = "REP103"
    name = "wall-clock-call"

    def applies_to(self, mod: ModuleInfo) -> bool:
        return not mod.in_package("obs", "bench")

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.finding(
                    mod,
                    node,
                    f"wall-clock call {dotted}(); use time.perf_counter "
                    "via obs.Timed / tracing spans",
                )


class UnusedImportRule(LintRule):
    """Imported name never referenced (including inside string forward
    annotations and ``__all__``) — dead weight that hides real
    dependencies; remove it."""

    code = "REP104"
    name = "unused-import"

    def applies_to(self, mod: ModuleInfo) -> bool:
        # package __init__ modules import for re-export by convention
        return mod.segments[-1] != "__init__.py"

    @staticmethod
    def _annotation_names(tree: ast.Module) -> set[str]:
        """Names referenced from annotations, unwrapping string
        forward references (`"PackedStore | None"`)."""
        names: set[str] = set()
        annotations: list[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations.extend(
                    a.annotation
                    for a in [
                        *node.args.posonlyargs,
                        *node.args.args,
                        *node.args.kwonlyargs,
                        node.args.vararg,
                        node.args.kwarg,
                    ]
                    if a is not None and a.annotation is not None
                )
                if node.returns is not None:
                    annotations.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(
                        n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                    )
        return names

    def unused_aliases(
        self, mod: ModuleInfo
    ) -> "list[tuple[ast.stmt, ast.alias, str]]":
        """(import statement, alias, bound name) for every unused import.

        Shared by :meth:`check` and the ``repro-lint --fix`` rewriter so
        detection and autofix can never disagree.
        """
        imports: list[tuple[str, ast.stmt, ast.alias]] = []
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imports.append((bound, node, alias))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imports.append((alias.asname or alias.name, node, alias))
        if not imports:
            return []
        used: set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign):
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if "__all__" in targets:
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Constant) and isinstance(
                            sub.value, str
                        ):
                            used.add(sub.value)
        used |= self._annotation_names(mod.tree)
        return [
            (node, alias, bound)
            for bound, node, alias in imports
            if bound not in used and not bound.startswith("_")
        ]

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node, _alias, bound in self.unused_aliases(mod):
            yield self.finding(
                mod, node, f"imported name {bound!r} is never used"
            )


class PublicAnnotationRule(LintRule):
    """Public function/method in a strictly-typed package missing
    parameter or return annotations — the ``mypy --strict`` gate covers
    these packages; un-annotated public APIs silently opt their callers
    out of checking."""

    code = "REP105"
    name = "missing-public-annotations"
    scope = ("core", "grid", "server", "obs", "analysis")

    def _check_fn(
        self,
        mod: ModuleInfo,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        owner: "str | None",
    ) -> Iterator[Finding]:
        where = f"{owner}.{fn.name}" if owner else fn.name
        args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        if owner is not None and args and args[0].arg in ("self", "cls"):
            args = args[1:]
        missing = [a.arg for a in args if a.annotation is None]
        for extra in (fn.args.vararg, fn.args.kwarg):
            if extra is not None and extra.annotation is None:
                missing.append(f"*{extra.arg}")
        if missing:
            yield self.finding(
                mod,
                fn,
                f"{where} is missing parameter annotation(s): "
                + ", ".join(missing),
            )
        if fn.returns is None and fn.name != "__init__":
            yield self.finding(
                mod, fn, f"{where} is missing a return annotation"
            )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not stmt.name.startswith("_"):
                    yield from self._check_fn(mod, stmt, None)
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for sub in stmt.body:
                    if not isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if sub.name.startswith("_") and sub.name != "__init__":
                        continue
                    yield from self._check_fn(mod, sub, stmt.name)


ALL_RULES: "tuple[type[LintRule], ...]" = (
    FloatEqualityRule,
    BlockingCallInAsyncRule,
    AwaitUnderLockRule,
    StatsThreadingRule,
    BackendParityRule,
    SpawnUnsafeGlobalRule,
    UncheckedIndexOpenRule,
    BareExceptRule,
    MutableDefaultRule,
    WallClockRule,
    UnusedImportRule,
    PublicAnnotationRule,
)
