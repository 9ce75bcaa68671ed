"""Cross-module symbol table and call graph for the whole-program rules.

The per-module rules (GT001-GT006) only ever look at one AST at a time.
The concurrency and purity rules (GT009-GT012) need to answer questions
like "what does this operator transitively call?" and "which functions
rebind this module global?", which requires a view of the *program*:
every linted module, its top-level symbols, its imports, and a resolved
call graph.

:func:`build_program` turns the engine's loaded :class:`~repro.lint.engine.Module`
list into a :class:`Program`:

* a **symbol table** per module — top-level functions, classes and their
  methods, module-level globals (with mutability/thread-locality hints),
  and the import table (alias -> dotted target, including package-relative
  imports resolved against the module's dotted name);
* a **function table** mapping qualified names
  (``repro.core.operators.project``, ``pkg.mod.Class.method``,
  ``pkg.mod.outer.<locals>.inner``) to :class:`FunctionInfo`;
* a **call graph**: for every function, the :class:`CallSite` list with
  each callee resolved to a qualified name where static resolution is
  possible, and counted as *unresolved* (the dynamic-call fallback)
  where it is not.

Resolution is deliberately conservative: a name is only resolved when it
can be traced to a module-level definition or an import; attribute calls
on arbitrary objects, calls through containers, and ``getattr`` remain
unresolved and are surfaced as such (:attr:`FunctionInfo` callers can see
``unresolved_calls``) so downstream analyses never silently guess.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from .engine import Module

__all__ = [
    "CallSite",
    "FunctionInfo",
    "GlobalVar",
    "ModuleSymbols",
    "Program",
    "build_program",
    "dotted",
]

#: AST node types that define a function body.
FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Module-level value expressions considered mutable containers.
_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Constructor names whose results are mutable containers.
_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
}

#: Constructor names producing thread-confined state (exempt from the
#: shared-mutable-global rule: each thread sees its own copy).
_THREAD_LOCAL_FACTORIES = {"local", "threading.local"}


def dotted(node: ast.expr) -> str | None:
    """Flatten a ``Name``/``Attribute`` chain to ``a.b.c``, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class GlobalVar:
    """One module-level binding."""

    name: str
    line: int
    mutable: bool
    thread_local: bool


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Qualified callee (``pkg.mod.fn``; external targets keep their
    #: imported dotted path, e.g. ``os.environ.get``), or ``None`` when
    #: the callee could not be statically resolved.
    callee: str | None
    #: Source-ish rendering of the callee expression, for messages.
    raw: str


@dataclass
class FunctionInfo:
    """One function (or method, or nested function) in the program."""

    qualname: str
    module: Module
    node: FunctionNode
    #: Enclosing class name for methods, ``None`` otherwise.
    class_name: str | None = None
    #: Qualname of the enclosing function for nested defs.
    parent: str | None = None
    calls: list[CallSite] = field(default_factory=list)
    #: Qualnames of functions defined inside this one.
    nested: list[str] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_nested(self) -> bool:
        return self.parent is not None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno

    def param_names(self) -> list[str]:
        """Positional-ish parameter names, declaration order."""
        args = self.node.args
        names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ModuleSymbols:
    """Top-level symbols of one module."""

    module: Module
    #: Top-level function name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)
    #: Class name -> {method name -> qualname}.
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: Module-level data bindings (assignments that are not defs/imports).
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    #: Import alias -> dotted target ("numpy", "repro.core.graph.TemporalGraph").
    imports: dict[str, str] = field(default_factory=dict)


@dataclass
class Program:
    """The whole linted program: modules, symbols, functions, call graph."""

    modules: dict[str, Module] = field(default_factory=dict)
    symbols: dict[str, ModuleSymbols] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Scratch space for cross-rule caches (submissions, purity).
    cache: dict[str, Any] = field(default_factory=dict)

    def functions_of(self, module: Module) -> list[FunctionInfo]:
        """Every function whose body lives in ``module``."""
        return [
            info
            for info in self.functions.values()
            if info.module.name == module.name
        ]

    def callers_of(self, qualname: str) -> list[tuple[FunctionInfo, CallSite]]:
        """Every resolved call site targeting ``qualname``."""
        found: list[tuple[FunctionInfo, CallSite]] = []
        for info in self.functions.values():
            for site in info.calls:
                if site.callee == qualname:
                    found.append((info, site))
        return found

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def resolve(self, module_name: str, expr: ast.expr) -> str | None:
        """Resolve a ``Name``/``Attribute`` expression in module scope.

        Returns a qualified dotted name — canonicalized into the program
        where the target is a linted module, kept as the external dotted
        path otherwise — or ``None`` when the expression is not a static
        name chain or the base name is unknown.
        """
        path = dotted(expr)
        if path is None:
            return None
        return self.resolve_dotted(module_name, path)

    def resolve_dotted(self, module_name: str, path: str) -> str | None:
        """Resolve a dotted name string in a module's top-level scope."""
        symbols = self.symbols.get(module_name)
        if symbols is None:
            return None
        base, _, rest = path.partition(".")
        target: str | None = None
        if base in symbols.functions:
            target = symbols.functions[base]
        elif base in symbols.classes:
            target = f"{module_name}.{base}"
        elif base in symbols.imports:
            target = symbols.imports[base]
        elif base in symbols.globals:
            # A data global; attribute access through it is dynamic.
            return None
        else:
            return None
        full = f"{target}.{rest}" if rest else target
        return self._canonical(full)

    def _canonical(self, path: str) -> str:
        """Re-anchor a dotted path through linted-module re-exports.

        ``repro.core.union`` (imported into ``repro.core.__init__`` from
        ``repro.core.operators``) canonicalizes to
        ``repro.core.operators.union`` so every call site resolves to the
        defining module's qualname.
        """
        for _ in range(8):  # bounded: re-export chains are short
            head, _, leaf = path.rpartition(".")
            if not head or head not in self.symbols:
                return path
            symbols = self.symbols[head]
            if leaf in symbols.functions:
                return symbols.functions[leaf]
            if leaf in symbols.classes:
                return path
            if leaf in symbols.imports:
                path = symbols.imports[leaf]
                continue
            return path
        return path


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _import_base(module: Module) -> list[str]:
    """The package parts relative imports resolve against."""
    parts = module.name.split(".") if module.name else []
    if module.path.name != "__init__.py" and parts:
        parts = parts[:-1]
    return parts


def _record_imports(module: Module, symbols: ModuleSymbols) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                symbols.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base_parts = list(_import_base(module))
            if node.level:
                up = node.level - 1
                if up:
                    base_parts = base_parts[: len(base_parts) - up]
                prefix = ".".join(base_parts)
            else:
                prefix = ""
            source = node.module or ""
            if node.level:
                origin = ".".join(p for p in (prefix, source) if p)
            else:
                origin = source
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                symbols.imports[local] = (
                    f"{origin}.{alias.name}" if origin else alias.name
                )


def _is_mutable_value(value: ast.expr | None) -> bool:
    if value is None:
        return False
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        name = dotted(value.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES:
            return True
    return False


def _is_thread_local_value(value: ast.expr | None) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = dotted(value.func)
    return name is not None and (
        name in _THREAD_LOCAL_FACTORIES or name.endswith(".local")
    )


def _record_globals(module: Module, symbols: ModuleSymbols) -> None:
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            leaves = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for leaf in leaves:
                if isinstance(leaf, ast.Name):
                    symbols.globals[leaf.id] = GlobalVar(
                        name=leaf.id,
                        line=node.lineno,
                        mutable=_is_mutable_value(value),
                        thread_local=_is_thread_local_value(value),
                    )


def _collect_functions(
    module: Module, symbols: ModuleSymbols, program: Program
) -> None:
    """Register every def in the module under its qualified name."""

    def visit(
        body: Sequence[ast.stmt],
        scope: str,
        class_name: str | None,
        parent: str | None,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope}.{node.name}"
                info = FunctionInfo(
                    qualname=qualname,
                    module=module,
                    node=node,
                    class_name=class_name,
                    parent=parent,
                )
                program.functions[qualname] = info
                if parent is None and class_name is None:
                    symbols.functions[node.name] = qualname
                elif class_name is not None and parent is None:
                    symbols.classes.setdefault(class_name, {})[
                        node.name
                    ] = qualname
                if parent is not None:
                    parent_info = program.functions.get(parent)
                    if parent_info is not None:
                        parent_info.nested.append(qualname)
                visit(node.body, f"{qualname}.<locals>", None, qualname)
            elif isinstance(node, ast.ClassDef):
                symbols.classes.setdefault(node.name, {})
                visit(node.body, f"{scope}.{node.name}", node.name, parent)
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body, scope, class_name, parent)
                visit(node.orelse, scope, class_name, parent)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, scope, class_name, parent)
                visit(getattr(node, "finalbody", []), scope, class_name, parent)

    visit(module.tree.body, module.name, None, None)


def _body_nodes(func: FunctionNode) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs.

    Lambda bodies *are* walked — a lambda has no qualname of its own, so
    its calls are attributed to the enclosing function.
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _resolve_call(
    program: Program, info: FunctionInfo, call: ast.Call
) -> str | None:
    path = dotted(call.func)
    if path is None:
        return None
    base, _, rest = path.partition(".")
    # self.method() resolves within the enclosing class.
    if base == "self" and info.class_name is not None and rest and "." not in rest:
        methods = program.symbols[info.module.name].classes.get(
            info.class_name, {}
        )
        return methods.get(rest)
    # Nested functions of the current scope win over module scope.
    nested_qualname = f"{info.qualname}.<locals>.{base}"
    if not rest and nested_qualname in program.functions:
        return nested_qualname
    return program.resolve_dotted(info.module.name, path)


def _collect_calls(program: Program) -> None:
    for info in program.functions.values():
        for node in _body_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted(node.func) or "<dynamic>"
            info.calls.append(
                CallSite(
                    node=node,
                    callee=_resolve_call(program, info, node),
                    raw=raw,
                )
            )


def build_program(modules: Sequence[Module]) -> Program:
    """Build the whole-program view over the loaded modules.

    Modules are indexed by dotted name; when two paths map to the same
    name (should not happen under one root) the later load wins.
    """
    program = Program()
    for module in sorted(modules, key=lambda m: m.name):
        program.modules[module.name] = module
        symbols = ModuleSymbols(module=module)
        program.symbols[module.name] = symbols
        _record_imports(module, symbols)
        _record_globals(module, symbols)
        _collect_functions(module, symbols, program)
    _collect_calls(program)
    return program
