"""`repro.lint` — a whole-program invariant analyzer for GraphTempo.

The paper's algorithms rest on conventions nothing in Python enforces:
temporal operators (Algorithm 1) and aggregation (Algorithm 2) must not
mutate their input frames, hot paths must stay vectorized numpy
(Section 4's storage model), failures must come from the
:mod:`repro.errors` taxonomy.  On top of those per-module checks
(GT001–GT006), the whole-program layer builds a cross-module symbol
table and call graph (:mod:`repro.lint.callgraph`), infers transitive
purity (:mod:`repro.lint.purity`), and enforces the concurrency
contracts the threaded serving layer relies on (GT009–GT012): no
mutable module globals, guarded singleton swaps, pure operator
contexts, no unguarded shared state.

Programmatic use::

    from repro.lint import load_config, lint_paths
    violations = lint_paths(["src"], load_config("pyproject.toml"))

    from repro.lint import build_program, analyze_purity, load_modules
    modules, _ = load_modules(["src"], load_config())
    report = analyze_purity(build_program(modules))

Command line::

    python -m repro.lint src tests
    python -m repro.lint --select GT003 src
    python -m repro.lint --format json --report purity.json src
    python -m repro.lint --list-rules

Rules are configured from ``[tool.repro-lint]`` in ``pyproject.toml``
(see :mod:`repro.lint.config`) and suppressed per line with
``# lint: ignore[GT001]`` (see :mod:`repro.lint.engine`).
"""

from .config import DEFAULTS, LintConfig, RuleSettings, load_config
from .engine import (
    Module,
    ProgramRule,
    Rule,
    Violation,
    all_rules,
    lint_paths,
    load_modules,
)
from .callgraph import Program, build_program
from .purity import FunctionPurity, PurityReport, analyze_purity, report_dict
from .cli import main

__all__ = [
    "DEFAULTS",
    "FunctionPurity",
    "LintConfig",
    "Module",
    "Program",
    "ProgramRule",
    "PurityReport",
    "Rule",
    "RuleSettings",
    "Violation",
    "all_rules",
    "analyze_purity",
    "build_program",
    "lint_paths",
    "load_config",
    "load_modules",
    "main",
    "report_dict",
]
