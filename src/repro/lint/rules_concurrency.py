"""The whole-program concurrency and purity rules, GT007-GT012.

These rules validate the assumptions :mod:`repro.parallel` already makes
(read-only payloads pinned in persistent workers, module-level worker
functions) and the ones
the roadmap's concurrent serving layer will make (thread-safe singleton
swaps, no unguarded shared mutable state, a pure-function registry sound
enough to back a result cache).  They are :class:`~repro.lint.engine.ProgramRule`
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

from .callgraph import FunctionInfo, Program, dotted
from .engine import Module, ProgramRule, Violation, register
from .purity import analyze_purity
from .purity import _binding_names as _purity_binding_names

__all__ = [
    "WorkerForkSafety",
    "NoSharedPayloadWrite",
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
# Submission discovery (shared by GT007 and GT008)
# ---------------------------------------------------------------------------


class Submission:
    """One ``executor.map(fn, ...)``-style call site, resolved."""

    __slots__ = ("caller", "call", "fn_expr", "workers", "problems")

    def __init__(
        self,
        caller: FunctionInfo,
        call: ast.Call,
        fn_expr: ast.expr,
    ) -> None:
        self.caller = caller
        self.call = call
        self.fn_expr = fn_expr
        #: Resolved worker-function qualnames (may be several through
        #: parameter indirection).
        self.workers: list[str] = []
        #: (node, message) pairs for unresolvable/unsafe submissions.
        self.problems: list[tuple[ast.AST, str]] = []


def _looks_like_executor(
    caller: FunctionInfo,
    receiver: ast.expr,
    receiver_hints: tuple[str, ...],
    factory_calls: tuple[str, ...],
) -> bool:
    """Whether the ``.map``/``.submit`` receiver is plausibly an executor.

    True for a direct factory call (``get_executor(...).map``), a name
    whose identifier matches a receiver hint (``executor``, ``pool``),
    or a local assigned from a factory call earlier in the function.
    """
    if isinstance(receiver, ast.Call):
        name = dotted(receiver.func)
        return name is not None and name.split(".")[-1] in factory_calls
    name = _base_name(receiver)
    if name is None:
        return False
    lowered = name.lower()
    if any(hint in lowered for hint in receiver_hints):
        return True
    for node in ast.walk(caller.node):
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets
            ) and isinstance(node.value, ast.Call):
                factory = dotted(node.value.func)
                if (
                    factory is not None
                    and factory.split(".")[-1] in factory_calls
                ):
                    return True
    return False


def _trace_submitted(
    program: Program,
    caller: FunctionInfo,
    expr: ast.expr,
    submission: Submission,
    depth: int,
) -> None:
    """Resolve the function expression handed to an executor.

    Accepts module-level functions (directly, through an import, or
    through bounded caller-argument indirection when the expression is a
    parameter of the enclosing function); everything else — lambdas,
    nested functions, bound methods, untraceable names — is recorded as
    a problem at the offending node.
    """
    if isinstance(expr, ast.Lambda):
        submission.problems.append(
            (expr, "lambda submitted to an executor; workers must be "
                   "module-level functions (pickled by reference)")
        )
        return
    if isinstance(expr, ast.Attribute):
        base = _base_name(expr)
        if base == "self":
            submission.problems.append(
                (expr, "bound method submitted to an executor; workers "
                       "must be module-level functions")
            )
            return
        resolved = program.resolve(caller.module.name, expr)
        if resolved is None:
            submission.problems.append(
                (expr, f"cannot statically resolve worker function "
                       f"{dotted(expr) or '<dynamic>'!r} submitted to an "
                       f"executor")
            )
            return
        _accept_resolved(program, resolved, expr, submission)
        return
    if not isinstance(expr, ast.Name):
        submission.problems.append(
            (expr, "dynamic expression submitted to an executor; workers "
                   "must be module-level functions")
        )
        return
    name = expr.id
    nested = f"{caller.qualname}.<locals>.{name}"
    if nested in program.functions:
        submission.problems.append(
            (expr, f"nested function {name!r} submitted to an executor; "
                   f"closures cannot be pickled by reference — move it to "
                   f"module level")
        )
        return
    params = caller.param_names()
    if name in params:
        if depth <= 0:
            submission.problems.append(
                (expr, f"worker function parameter {name!r} could not be "
                       f"resolved (indirection too deep)")
            )
            return
        callers = program.callers_of(caller.qualname)
        if not callers:
            submission.problems.append(
                (expr, f"worker function arrives via parameter {name!r} "
                       f"but no caller of {caller.name!r} was found to "
                       f"resolve it")
            )
            return
        position = params.index(name)
        for upstream, site in callers:
            arg = _argument_at(site.node, position, name)
            if arg is None:
                continue
            _trace_submitted(program, upstream, arg, submission, depth - 1)
        return
    # A local alias: follow a simple `fn = some_function` assignment.
    local = _local_function_alias(caller, name)
    if local is not None:
        _trace_submitted(program, caller, local, submission, depth)
        return
    resolved = program.resolve(caller.module.name, expr)
    if resolved is None:
        submission.problems.append(
            (expr, f"cannot statically resolve worker function {name!r} "
                   f"submitted to an executor")
        )
        return
    _accept_resolved(program, resolved, expr, submission)


def _accept_resolved(
    program: Program,
    resolved: str,
    expr: ast.expr,
    submission: Submission,
) -> None:
    info = program.functions.get(resolved)
    if info is None:
        # External (not-linted) target: module-level by construction.
        submission.workers.append(resolved)
        return
    if info.is_nested:
        submission.problems.append(
            (expr, f"nested function {info.name!r} submitted to an "
                   f"executor; move it to module level")
        )
        return
    if info.is_method:
        submission.problems.append(
            (expr, f"method {info.qualname!r} submitted to an executor; "
                   f"workers must be module-level functions")
        )
        return
    submission.workers.append(resolved)


def _argument_at(
    call: ast.Call, position: int, name: str
) -> ast.expr | None:
    if position < len(call.args):
        return call.args[position]
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _local_function_alias(
    caller: FunctionInfo, name: str
) -> ast.expr | None:
    for node in ast.walk(caller.node):
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets
            ) and isinstance(node.value, (ast.Name, ast.Attribute)):
                return node.value
    return None


def find_submissions(
    program: Program,
    submit_attrs: tuple[str, ...],
    receiver_hints: tuple[str, ...],
    factory_calls: tuple[str, ...],
    max_indirection: int,
) -> list[Submission]:
    """Every executor-submission call site in the program, resolved.

    Cached on the program (both GT007 and GT008 consume this view).
    """
    key = f"submissions:{(submit_attrs, receiver_hints, factory_calls)!r}"
    cached = program.cache.get(key)
    if isinstance(cached, list):
        return cached
    submissions: list[Submission] = []
    for info in program.functions.values():
        for site in info.calls:
            call = site.node
            if not isinstance(call.func, ast.Attribute):
                continue
            if call.func.attr not in submit_attrs:
                continue
            if not call.args:
                continue
            if not _looks_like_executor(
                info, call.func.value, receiver_hints, factory_calls
            ):
                continue
            submission = Submission(info, call, call.args[0])
            _trace_submitted(
                program, info, call.args[0], submission, max_indirection
            )
            submissions.append(submission)
    program.cache[key] = submissions
    return submissions


def _rule_submissions(rule: ProgramRule) -> list[Submission]:
    assert rule.program is not None
    return find_submissions(
        rule.program,
        tuple(rule.settings.option("submit_attrs", ("map", "submit"))),
        tuple(rule.settings.option("receiver_hints", ("executor", "pool"))),
        tuple(
            rule.settings.option(
                "factory_calls",
                (
                    "get_executor",
                    "shared_fabric",
                    "ShardedExecutor",
                    "InlineExecutor",
                ),
            )
        ),
        int(rule.settings.option("max_indirection", 3)),
    )


# ---------------------------------------------------------------------------
# GT007 — worker-function fork-safety
# ---------------------------------------------------------------------------


@register
class WorkerForkSafety(ProgramRule):
    """GT007: functions submitted to an executor must be fork-safe.

    :class:`~repro.parallel.ShardedExecutor` pickles worker functions
    by reference (module + qualname) into every task-group message; a
    lambda, nested function, or bound method either fails to pickle or
    silently drags captured state across the process boundary.  The rule resolves the first argument
    of every ``executor.map(...)``-shaped call through the call graph —
    including bounded indirection through function parameters — and
    flags any submission that is not a module-level function.
    """

    id = "GT007"
    summary = "executor-submitted functions must be module-level and closure-free"

    def check(self, module: Module) -> Iterator[Violation]:
        for submission in _rule_submissions(self):
            if submission.caller.module.name != module.name:
                continue
            for node, message in submission.problems:
                yield self.violation(module, node, message)


# ---------------------------------------------------------------------------
# GT008 — workers must not mutate the shared payload
# ---------------------------------------------------------------------------


@register
class NoSharedPayloadWrite(ProgramRule):
    """GT008: worker functions must not write to the shared payload.

    The fabric pickles a payload to each worker once and pins that copy
    across every later ``map`` over the same payload; the inline
    executor hands every task the caller's own object.  A worker that
    mutates the payload (or anything reached from it) leaks state into
    the next task or the next call — on the fabric into whichever calls
    that worker serves, inline into the caller's data — and breaks
    bit-exact parity between the two.  Worker functions are the
    resolved submissions of GT007; the payload is the worker's first
    parameter, and aliases created by unpacking or attribute/subscript
    reads are tracked to a fixpoint.
    """

    id = "GT008"
    summary = "workers must not mutate the shared payload"

    def check(self, module: Module) -> Iterator[Violation]:
        assert self.program is not None
        mutators = set(
            self.settings.option(
                "mutating_methods",
                (
                    "append", "add", "clear", "extend", "insert", "pop",
                    "popitem", "remove", "discard", "update", "setdefault",
                    "sort", "reverse", "fill", "put", "resize", "itemset",
                ),
            )
        )
        seen: set[str] = set()
        for submission in _rule_submissions(self):
            for qualname in submission.workers:
                if qualname in seen:
                    continue
                seen.add(qualname)
                info = self.program.functions.get(qualname)
                if info is None or info.module.name != module.name:
                    continue
                yield from self._check_worker(module, info, mutators)

    def _check_worker(
        self, module: Module, info: FunctionInfo, mutators: set[str]
    ) -> Iterator[Violation]:
        params = info.param_names()
        if not params:
            return
        payload = params[0]
        aliases = self._payload_aliases(info, payload)
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        base = _base_name(target)
                        if base in aliases:
                            yield self.violation(
                                module,
                                node,
                                f"worker {info.name!r} writes to the shared "
                                f"payload (via {base!r}); workers must "
                                f"treat the pinned payload as immutable",
                            )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        base = _base_name(target)
                        if base in aliases:
                            yield self.violation(
                                module,
                                node,
                                f"worker {info.name!r} deletes from the "
                                f"shared payload (via {base!r})",
                            )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in mutators:
                    base = _base_name(node.func.value)
                    if base in aliases:
                        yield self.violation(
                            module,
                            node,
                            f"worker {info.name!r} calls mutating "
                            f".{node.func.attr}() on the shared payload "
                            f"(via {base!r})",
                        )

    @staticmethod
    def _payload_aliases(info: FunctionInfo, payload: str) -> set[str]:
        """Names reachable from the payload parameter by direct aliasing."""
        aliases = {payload}
        changed = True
        while changed:
            changed = False
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                source: str | None = None
                if isinstance(value, (ast.Name, ast.Attribute, ast.Subscript)):
                    source = _base_name(value)
                elif isinstance(value, ast.Starred):
                    source = _base_name(value.value)
                if source not in aliases:
                    continue
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if (
                            isinstance(leaf, ast.Name)
                            and leaf.id not in aliases
                        ):
                            aliases.add(leaf.id)
                            changed = True
        return aliases


# ---------------------------------------------------------------------------
# GT009 — no mutable module globals written at runtime
# ---------------------------------------------------------------------------


@register
class NoMutableModuleGlobals(ProgramRule):
    """GT009: no runtime writes to module-level state.

    Kairos-style single-machine performance comes from shared immutable
    data plus worker pools; one module global mutated at runtime breaks
    that silently (each forked worker sees a private copy, threads race).
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
    path and swapped by tests, workers, and (soon) concurrent server
    sessions.  The rule restricts ``global`` rebinding of configured
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
    (observability counters/spans, the parallel fan-out machinery),
    whose effects are sanctioned and parity-tested.
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
    """GT012: no attribute writes on objects shared across workers/threads.

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
