"""The whole-program concurrency and purity rules, GT009-GT012.

These rules validate the assumptions the threaded serving layer makes:
thread-safe singleton swaps, no unguarded shared mutable state, and a
pure-function registry sound enough to back a result cache.  They are :class:`~repro.lint.engine.ProgramRule`
subclasses: the engine builds one cross-module
:class:`~repro.lint.callgraph.Program` per run and binds it before
dispatch, so every rule can follow imports, the call graph, and the
purity registry across module boundaries.

See ``docs/static_analysis.md`` for the rationale and configuration
knobs of each rule.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from fnmatch import fnmatchcase

from .callgraph import FunctionInfo, dotted
from .engine import Module, ProgramRule, Violation, register
from .purity import analyze_purity
from .purity import _binding_names as _purity_binding_names

__all__ = [
    "NoMutableModuleGlobals",
    "SingletonSwapDiscipline",
    "ImpureCallInPureContext",
    "UnguardedSharedState",
]


def _base_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _matches_any(name: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatchcase(name, pattern) for pattern in patterns)


# ---------------------------------------------------------------------------
# GT009 — no mutable module globals written at runtime
# ---------------------------------------------------------------------------


@register
class NoMutableModuleGlobals(ProgramRule):
    """GT009: no runtime writes to module-level state.

    Kairos-style single-machine performance comes from shared immutable
    data; one module global mutated at runtime breaks that silently
    (concurrent serving threads race on it).
    The rule flags, inside any function body: ``global X`` rebinding,
    and attribute/subscript writes or mutating method calls on
    module-level names.  Sanctioned registries (import-time decorator
    registries, GT010-governed singleton holders) are configured as
    ``sanctioned`` fnmatch patterns over ``module.name``; module globals
    bound to ``threading.local()`` are exempt by construction.
    """

    id = "GT009"
    summary = "no runtime writes to module-level mutable state"

    def check(self, module: Module) -> Iterator[Violation]:
        assert self.program is not None
        sanctioned = tuple(self.settings.option("sanctioned", ()))
        mutators = set(
            self.settings.option(
                "mutating_methods",
                (
                    "append", "add", "clear", "extend", "insert", "pop",
                    "popitem", "remove", "discard", "update", "setdefault",
                    "sort", "reverse",
                ),
            )
        )
        symbols = self.program.symbols.get(module.name)
        if symbols is None:
            return
        thread_local = {
            name for name, var in symbols.globals.items() if var.thread_local
        }
        module_names = set(symbols.globals)

        def exempt(name: str) -> bool:
            return (
                name in thread_local
                or _matches_any(f"{module.name}.{name}", sanctioned)
            )

        for info in self.program.functions_of(module):
            declared = self._declared_globals(info)
            locals_bound = self._plain_locals(info) - declared
            params = set(info.param_names())
            for node in self._own_body(info):
                yield from self._check_node(
                    module, info, node, declared, locals_bound, params,
                    module_names, mutators, exempt,
                )

    def _check_node(
        self,
        module: Module,
        info: FunctionInfo,
        node: ast.AST,
        declared: set[str],
        locals_bound: set[str],
        params: set[str],
        module_names: set[str],
        mutators: set[str],
        exempt: Callable[[str], bool],
    ) -> Iterator[Violation]:
        def is_global_write(name: str | None) -> bool:
            if name is None or name in params or name in locals_bound:
                return False
            if name not in declared and name not in module_names:
                return False
            return not exempt(name)

        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared and not exempt(target.id):
                        yield self.violation(
                            module,
                            node,
                            f"{info.name!r} rebinds module global "
                            f"{target.id!r} at runtime; module state must "
                            f"be immutable or a sanctioned registry",
                        )
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    base = _base_name(target)
                    if is_global_write(base):
                        yield self.violation(
                            module,
                            node,
                            f"{info.name!r} mutates module global "
                            f"{base!r} at runtime; module state must be "
                            f"immutable or a sanctioned registry",
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base: str | None = None
                if isinstance(target, ast.Name):
                    base = target.id if target.id in declared else None
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    base = _base_name(target)
                if is_global_write(base):
                    yield self.violation(
                        module,
                        node,
                        f"{info.name!r} deletes from module global {base!r}",
                    )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in mutators:
                base = _base_name(node.func.value)
                if is_global_write(base):
                    yield self.violation(
                        module,
                        node,
                        f"{info.name!r} calls mutating .{node.func.attr}() "
                        f"on module global {base!r} at runtime",
                    )

    @staticmethod
    def _own_body(info: FunctionInfo) -> Iterator[ast.AST]:
        stack: list[ast.AST] = list(info.node.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _declared_globals(cls, info: FunctionInfo) -> set[str]:
        names: set[str] = set()
        for node in cls._own_body(info):
            if isinstance(node, ast.Global):
                names.update(node.names)
        return names

    @classmethod
    def _plain_locals(cls, info: FunctionInfo) -> set[str]:
        bound: set[str] = set()
        for node in cls._own_body(info):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [
                    item.optional_vars
                    for item in node.items
                    if item.optional_vars is not None
                ]
            for target in targets:
                bound.update(_purity_binding_names(target))
        return bound


# ---------------------------------------------------------------------------
# GT010 — singleton swap discipline
# ---------------------------------------------------------------------------


@register
class SingletonSwapDiscipline(ProgramRule):
    """GT010: swappable singletons go through a lock-guarded setter.

    The :mod:`repro.obs` tracer/metrics singletons are read on every hot
    path and swapped by tests and concurrent server sessions.  The rule restricts ``global`` rebinding of configured
    singleton holders to their sanctioned setter functions and requires
    the swap itself to happen while holding a lock (a ``with`` block
    whose context expression names a lock).
    """

    id = "GT010"
    summary = "singleton swaps only in sanctioned, lock-guarded setters"

    def check(self, module: Module) -> Iterator[Violation]:
        assert self.program is not None
        singletons = tuple(self.settings.option("singletons", ()))
        setters = tuple(self.settings.option("setters", ()))
        for info in self.program.functions_of(module):
            declared = NoMutableModuleGlobals._declared_globals(info)
            guarded = {
                name
                for name in declared
                if _matches_any(f"{module.name}.{name}", singletons)
            }
            if not guarded:
                continue
            for node, name in self._singleton_writes(info, guarded):
                if not _matches_any(info.qualname, setters):
                    yield self.violation(
                        module,
                        node,
                        f"{info.name!r} swaps singleton {name!r} outside "
                        f"a sanctioned setter; route the swap through "
                        f"{', '.join(setters) or 'a guarded setter'}",
                    )
                elif not self._under_lock(info.node, node):
                    yield self.violation(
                        module,
                        node,
                        f"setter {info.name!r} swaps singleton {name!r} "
                        f"without holding a lock; wrap the swap in "
                        f"`with <lock>:`",
                    )

    @staticmethod
    def _singleton_writes(
        info: FunctionInfo, guarded: set[str]
    ) -> list[tuple[ast.stmt, str]]:
        writes: list[tuple[ast.stmt, str]] = []
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in guarded:
                        writes.append((node, target.id))
        return writes

    @staticmethod
    def _under_lock(func: ast.AST, stmt: ast.stmt) -> bool:
        """Whether ``stmt`` sits inside a ``with <...lock...>:`` block."""

        def contains(node: ast.AST) -> bool:
            return any(child is stmt for child in ast.walk(node))

        for node in ast.walk(func):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not contains(node):
                continue
            for item in node.items:
                name = dotted(item.context_expr) or (
                    dotted(item.context_expr.func)
                    if isinstance(item.context_expr, ast.Call)
                    else None
                )
                if name is not None and "lock" in name.lower():
                    return True
        return False


# ---------------------------------------------------------------------------
# GT011 — no impure calls from pure operator contexts
# ---------------------------------------------------------------------------


@register
class ImpureCallInPureContext(ProgramRule):
    """GT011: operator/aggregation code paths call only pure functions.

    The paper's operators are functions of their inputs; ISSUE-3's result
    cache will memoize them on that basis.  The rule runs the transitive
    purity inference (:mod:`repro.lint.purity`) and flags calls, from
    functions in the configured pure-context modules, to functions
    *inferred impure* — excepting allowlisted instrumentation
    (observability counters/spans), whose effects are sanctioned.
    """

    id = "GT011"
    summary = "no impure calls from pure operator/aggregation contexts"

    def check(self, module: Module) -> Iterator[Violation]:
        assert self.program is not None
        allowed = tuple(self.settings.option("allowed_impure", ()))
        report = analyze_purity(self.program)
        for info in self.program.functions_of(module):
            for site in info.calls:
                callee = site.callee
                if callee is None:
                    continue
                if _matches_any(callee, allowed):
                    continue
                entry = report.functions.get(callee)
                if entry is None or entry.is_pure:
                    continue
                reason = entry.reasons[0] if entry.reasons else "impure"
                yield self.violation(
                    module,
                    site.node,
                    f"{info.name!r} calls impure {callee!r} ({reason}) "
                    f"from a pure operator context",
                )


# ---------------------------------------------------------------------------
# GT012 — unguarded writes to shared singletons
# ---------------------------------------------------------------------------


@register
class UnguardedSharedState(ProgramRule):
    """GT012: no attribute writes on objects shared across threads.

    Objects obtained from the configured shared-state accessors
    (``get_tracer()``, ``get_metrics()``) are process-wide: every thread
    and instrumented call site sees the same instance.  Writing an
    attribute on one from library code races with every reader.  The
    rule tracks accessor results (directly and through local aliases)
    and flags attribute assignments on them outside the accessor's home
    module, unless the write happens under a lock.
    """

    id = "GT012"
    summary = "no unguarded attribute writes on shared singletons"

    def check(self, module: Module) -> Iterator[Violation]:
        assert self.program is not None
        accessors = set(self.settings.option("accessors", ()))
        for info in self.program.functions_of(module):
            aliases = self._accessor_aliases(info, accessors)
            for node in ast.walk(info.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    shared = self._shared_receiver(target, aliases, accessors)
                    if shared is None:
                        continue
                    if SingletonSwapDiscipline._under_lock(info.node, node):
                        continue
                    yield self.violation(
                        module,
                        node,
                        f"{info.name!r} writes .{target.attr} on the shared "
                        f"{shared} object without a lock; shared singletons "
                        f"are read concurrently — use the guarded API",
                    )

    @staticmethod
    def _accessor_aliases(
        info: FunctionInfo, accessors: set[str]
    ) -> set[str]:
        aliases: set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            name = dotted(node.value.func)
            if name is None or name.split(".")[-1] not in accessors:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
        return aliases

    @staticmethod
    def _shared_receiver(
        target: ast.Attribute, aliases: set[str], accessors: set[str]
    ) -> str | None:
        value = target.value
        if isinstance(value, ast.Name) and value.id in aliases:
            return f"{value.id!r}"
        if isinstance(value, ast.Call):
            name = dotted(value.func)
            if name is not None and name.split(".")[-1] in accessors:
                return f"{name}()"
        return None
