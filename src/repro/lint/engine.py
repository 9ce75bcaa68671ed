"""The lint engine: file discovery, parsing, suppression, rule dispatch.

The engine is deliberately small.  A :class:`Module` bundles everything a
rule may want (source text, parsed AST, dotted module name, suppression
table); :func:`lint_paths` walks the requested files and directories,
matches each module against every selected rule's include/exclude
patterns, and returns the surviving :class:`Violation` list sorted by
location.

Suppression syntax (checked per physical line):

* ``# lint: ignore[GT001]`` — suppress the named rule(s) on this line;
  a comma-separated list is accepted (``# lint: ignore[GT001, GT003]``).
* ``# lint: ignore`` — suppress every rule on this line.
* ``# lint: ignore-file[GT005]`` — on a line of its own, suppress the
  named rule(s) (or, with no bracket, all rules) for the whole module.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from .config import LintConfig, RuleSettings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .callgraph import Program

__all__ = [
    "Module",
    "ProgramRule",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
    "load_modules",
    "register",
]

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?P<file>-file)?\s*(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Sentinel rule-id set meaning "every rule".
_ALL = frozenset({"*"})


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The familiar ``path:line:col: ID message`` single-line form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Module:
    """A parsed source module, as handed to each rule."""

    path: Path
    relpath: str
    name: str
    source: str
    tree: ast.Module
    line_suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    file_suppressions: frozenset[str] = frozenset()

    def suppressed(self, rule_id: str, line: int) -> bool:
        if self.file_suppressions & {rule_id, "*"}:
            return True
        active = self.line_suppressions.get(line, frozenset())
        return bool(active & {rule_id, "*"})


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`summary` and implement
    :meth:`check`, yielding :class:`Violation` objects.  Instantiation is
    per-run; per-rule options from the config arrive as ``settings``.
    """

    id: str = ""
    summary: str = ""

    def __init__(self, settings: RuleSettings) -> None:
        self.settings = settings

    def check(self, module: Module) -> Iterator[Violation]:
        raise NotImplementedError

    # Helper shared by subclasses.
    def violation(
        self, module: Module, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProgramRule(Rule):
    """A rule that needs the whole-program view (GT009-GT012).

    Before per-module dispatch the engine builds one
    :class:`~repro.lint.callgraph.Program` over every successfully
    parsed module and hands it to each selected program rule via
    :meth:`bind`; :meth:`check` then runs per module as usual, with
    cross-module questions answered through ``self.program``.
    """

    requires_program = True

    def __init__(self, settings: RuleSettings) -> None:
        super().__init__(settings)
        self.program: "Program | None" = None

    def bind(self, program: "Program") -> None:
        self.program = program


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ConfigurationError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> dict[str, type[Rule]]:
    """All registered rules, keyed by id."""
    from . import rules as _rules  # noqa: F401  (registration side effect)
    from . import rules_concurrency as _rules2  # noqa: F401

    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Module loading
# ---------------------------------------------------------------------------


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    per_line: dict[int, frozenset[str]] = {}
    per_file: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        listed = match.group("rules")
        ids = (
            frozenset(part.strip() for part in listed.split(",") if part.strip())
            if listed
            else _ALL
        )
        if match.group("file"):
            per_file |= ids
        else:
            per_line[lineno] = per_line.get(lineno, frozenset()) | ids
    return per_line, frozenset(per_file)


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for ``path``, relative to the lint root.

    Everything up to the innermost ``src`` layout segment is stripped —
    wherever the tree lives — so ``src/repro/core/graph.py`` and
    ``/tmp/work/src/repro/core/graph.py`` both map to
    ``repro.core.graph``, and ``tests/test_x.py`` to ``tests.test_x``.
    ``__init__.py`` maps to its package name.
    """
    try:
        parts = list(path.relative_to(root).parts)
    except ValueError:
        parts = list(path.resolve().parts)
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src"):]
    while parts and parts[0] in {"src", "."}:
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = leaf
    return ".".join(parts)


def load_module(path: Path, root: Path) -> Module:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    per_line, per_file = _parse_suppressions(source)
    try:
        relpath = path.relative_to(root).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return Module(
        path=path,
        relpath=relpath,
        name=module_name_for(path, root),
        source=source,
        tree=tree,
        line_suppressions=per_line,
        file_suppressions=per_file,
    )


def matches_module(name: str, patterns: Iterable[str]) -> bool:
    """``fnmatch`` over dotted names; ``pkg.*`` also matches ``pkg`` itself."""
    for pattern in patterns:
        if fnmatchcase(name, pattern):
            return True
        if pattern.endswith(".*") and name == pattern[:-2]:
            return True
    return False


def discover_files(paths: Sequence[Path], exclude: Sequence[str]) -> list[Path]:
    """All ``.py`` files under ``paths``, minus excluded relative patterns."""
    found: list[Path] = []
    seen: set[Path] = set()
    for entry in paths:
        candidates: Iterable[Path]
        if entry.is_dir():
            candidates = sorted(entry.rglob("*.py"))
        elif entry.suffix == ".py":
            candidates = [entry]
        elif not entry.exists():
            raise ConfigurationError(f"no such file or directory: {entry}")
        else:
            candidates = []
        for path in candidates:
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            posix = path.as_posix()
            if any(fnmatchcase(posix, pattern) for pattern in exclude):
                continue
            found.append(path)
    return found


def load_modules(
    paths: Sequence[Path | str],
    config: LintConfig,
    root: Path | str | None = None,
) -> tuple[list[Module], list[Violation]]:
    """Load every python file under ``paths``.

    Returns the successfully parsed modules plus GT000 violations for
    the files that failed to parse.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    modules: list[Module] = []
    violations: list[Violation] = []
    for path in discover_files([Path(p) for p in paths], config.exclude):
        try:
            modules.append(load_module(path, root_path))
        except SyntaxError as exc:
            violations.append(
                Violation(
                    rule="GT000",
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
    return modules, violations


def lint_paths(
    paths: Sequence[Path | str],
    config: LintConfig,
    root: Path | str | None = None,
) -> list[Violation]:
    """Lint every python file under ``paths`` and return the violations.

    ``root`` anchors relative output paths and dotted-module-name
    derivation; it defaults to the current working directory.  When any
    selected rule is a :class:`ProgramRule`, the whole-program view
    (symbol table, call graph) is built once over every parsed module
    and bound to those rules before dispatch.
    """
    rules = all_rules()
    unknown = [rule_id for rule_id in config.select if rule_id not in rules]
    if unknown:
        raise ConfigurationError(f"unknown rule ids selected: {unknown}")
    active = [
        rules[rule_id](config.rule_settings(rule_id))
        for rule_id in config.select
    ]
    modules, violations = load_modules(paths, config, root)
    program_rules = [
        rule
        for rule in active
        if getattr(rule, "requires_program", False)
    ]
    if program_rules:
        from .callgraph import build_program

        program = build_program(modules)
        for rule in program_rules:
            rule.bind(program)  # type: ignore[attr-defined]
    for module in modules:
        for rule in active:
            settings = rule.settings
            if settings.modules and not matches_module(
                module.name, settings.modules
            ):
                continue
            if matches_module(module.name, settings.exempt):
                continue
            for violation in rule.check(module):
                if not module.suppressed(violation.rule, violation.line):
                    violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
