"""Fixture-based tests for the whole-program rules GT009-GT012.

Mirrors the GT001-GT006 suite: one known-bad and one known-good snippet
per rule, laid out as ``src/repro/...`` so the dotted-name scoping is
exercised for real, plus CLI contract tests (``--format json``,
``--ignore``, ``--report``, exit codes) and the acceptance gate — the
repository itself is zero-violation under GT009-GT012 and the committed
CI baseline agrees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import LintConfig, Violation, lint_paths, load_config
from repro.lint.config import config_from_mapping

REPO = Path(__file__).resolve().parent.parent


def make_config(*rules: str, **tables: dict[str, object]) -> LintConfig:
    """A config selecting exactly ``rules``, with optional table overrides."""
    overrides: dict[str, object] = {"select": list(rules)}
    overrides.update(tables)
    return config_from_mapping(overrides)


def lint_files(
    tmp_path: Path, files: dict[str, str], config: LintConfig
) -> list[Violation]:
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], config, root=tmp_path)


def rule_ids(violations: list[Violation]) -> set[str]:
    return {violation.rule for violation in violations}


# ---------------------------------------------------------------------------
# GT009 — no mutable module globals written at runtime
# ---------------------------------------------------------------------------


def test_gt009_flags_runtime_global_mutation(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/state.py": """
                __all__ = ["remember", "reset"]

                _CACHE = {}
                _LOG = []

                def remember(key, value):
                    _CACHE[key] = value

                def reset():
                    global _LOG
                    _LOG = []
            """,
        },
        make_config("GT009"),
    )
    assert rule_ids(violations) == {"GT009"}
    assert len(violations) == 2
    assert "mutates module global '_CACHE'" in violations[0].message
    assert "rebinds module global '_LOG'" in violations[1].message


def test_gt009_exempts_sanctioned_registries_and_thread_locals(
    tmp_path: Path,
) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/state.py": """
                import threading

                __all__ = ["register", "remember"]

                _REGISTRY = {}
                _LOCAL = threading.local()

                def register(name, value):
                    _REGISTRY[name] = value

                def remember(value):
                    _LOCAL.value = value
            """,
        },
        make_config("GT009"),
    )
    assert violations == []


def test_gt009_custom_sanctioned_patterns(tmp_path: Path) -> None:
    config = config_from_mapping(
        {"select": ["GT009"], "GT009": {"sanctioned": ["repro.state._POOL"]}}
    )
    violations = lint_files(
        tmp_path,
        {
            "src/repro/state.py": """
                __all__ = ["fill"]

                _POOL = []

                def fill(item):
                    _POOL.append(item)
            """,
        },
        config,
    )
    assert violations == []


def test_gt009_locals_shadowing_globals_are_fine(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/state.py": """
                __all__ = ["compute"]

                _TABLE = {}

                def compute(x):
                    _TABLE = {}
                    _TABLE[x] = x
                    return _TABLE
            """,
        },
        make_config("GT009"),
    )
    assert violations == []


# ---------------------------------------------------------------------------
# GT010 — singleton swap discipline
# ---------------------------------------------------------------------------


GT010_CONFIG = config_from_mapping(
    {
        "select": ["GT010"],
        "GT010": {
            "singletons": ["repro.svc._current"],
            "setters": ["repro.svc.set_current"],
        },
    }
)


def test_gt010_flags_swap_outside_setter(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/svc.py": """
                import threading

                __all__ = ["hijack"]

                _current = object()
                _lock = threading.Lock()

                def hijack(new):
                    global _current
                    _current = new
            """,
        },
        GT010_CONFIG,
    )
    assert rule_ids(violations) == {"GT010"}
    assert "outside a sanctioned setter" in violations[0].message


def test_gt010_flags_unlocked_setter(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/svc.py": """
                __all__ = ["set_current"]

                _current = object()

                def set_current(new):
                    global _current
                    previous = _current
                    _current = new
                    return previous
            """,
        },
        GT010_CONFIG,
    )
    assert rule_ids(violations) == {"GT010"}
    assert "without holding a lock" in violations[0].message


def test_gt010_accepts_locked_setter(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/svc.py": """
                import threading

                __all__ = ["set_current"]

                _current = object()
                _lock = threading.Lock()

                def set_current(new):
                    global _current
                    with _lock:
                        previous = _current
                        _current = new
                    return previous
            """,
        },
        GT010_CONFIG,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# GT011 — no impure calls from pure operator contexts
# ---------------------------------------------------------------------------


def test_gt011_flags_impure_call_in_operator_module(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/core/helpers.py": """
                __all__ = ["audit"]

                _SEEN = []

                def audit(x):
                    _SEEN.append(x)
                    return x
            """,
            "src/repro/core/operators.py": """
                from .helpers import audit

                __all__ = ["project"]

                def project(frame):
                    audit(frame)
                    return frame
            """,
        },
        make_config("GT011"),
    )
    assert rule_ids(violations) == {"GT011"}
    assert violations[0].path.endswith("operators.py")
    assert "impure" in violations[0].message


def test_gt011_accepts_pure_helpers_and_allowlisted_calls(
    tmp_path: Path,
) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/core/helpers.py": """
                __all__ = ["double"]

                def double(x):
                    return x * 2
            """,
            "src/repro/obs/probe.py": """
                __all__ = ["count"]

                _HITS = []

                def count(x):
                    _HITS.append(x)
            """,
            "src/repro/core/operators.py": """
                from repro.obs.probe import count
                from .helpers import double

                __all__ = ["project"]

                def project(frame):
                    count(frame)
                    return double(frame)
            """,
        },
        make_config("GT011"),
    )
    assert violations == []


def test_gt011_out_of_scope_modules_are_not_checked(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/io/writer.py": """
                __all__ = ["dump"]

                _SEEN = []

                def _record(x):
                    _SEEN.append(x)

                def dump(x):
                    _record(x)
                    return x
            """,
        },
        make_config("GT011"),
    )
    assert violations == []


# ---------------------------------------------------------------------------
# GT012 — no unguarded attribute writes on shared singletons
# ---------------------------------------------------------------------------


def test_gt012_flags_attribute_write_on_accessor_result(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/session2.py": """
                from repro.obs import get_tracer

                __all__ = ["enable"]

                def enable():
                    tracer = get_tracer()
                    tracer.enabled = True
                    get_tracer().enabled = True
            """,
        },
        make_config("GT012"),
    )
    assert rule_ids(violations) == {"GT012"}
    assert len(violations) == 2
    assert "without a lock" in violations[0].message


def test_gt012_accepts_locked_write_and_reads(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/session2.py": """
                import threading

                from repro.obs import get_tracer

                __all__ = ["enable", "peek"]

                _lock = threading.Lock()

                def enable():
                    with _lock:
                        get_tracer().enabled = True

                def peek():
                    tracer = get_tracer()
                    return tracer.enabled
            """,
        },
        make_config("GT012"),
    )
    assert violations == []


def test_gt012_exempt_modules_can_write(tmp_path: Path) -> None:
    violations = lint_files(
        tmp_path,
        {
            "src/repro/obs/control.py": """
                from repro.obs import get_tracer

                __all__ = ["enable"]

                def enable():
                    get_tracer().enabled = True
            """,
        },
        make_config("GT012"),
    )
    assert violations == []


# ---------------------------------------------------------------------------
# CLI contract: --format json, --ignore, --report, exit codes
# ---------------------------------------------------------------------------


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def write_bad_tree(tmp_path: Path) -> None:
    target = tmp_path / "src/repro/state.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        textwrap.dedent(
            """
            __all__ = ["remember"]

            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value
            """
        )
    )


def test_cli_json_format_and_exit_code_one(tmp_path: Path) -> None:
    write_bad_tree(tmp_path)
    result = run_cli(
        "--select", "GT009", "--format", "json", "-q", "src", cwd=tmp_path
    )
    assert result.returncode == 1
    document = json.loads(result.stdout)
    assert document["schema"] == "repro-lint/1"
    assert document["rules"] == ["GT009"]
    assert document["summary"]["violations"] == 1
    violation = document["violations"][0]
    assert violation["rule"] == "GT009"
    assert violation["path"].endswith("state.py")
    assert violation["line"] > 0


def test_cli_ignore_drops_rules(tmp_path: Path) -> None:
    write_bad_tree(tmp_path)
    result = run_cli(
        "--select", "GT009", "--ignore", "GT009", "-q", "src", cwd=tmp_path
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_unknown_ignore_is_a_config_error(tmp_path: Path) -> None:
    write_bad_tree(tmp_path)
    result = run_cli("--ignore", "GT999", "src", cwd=tmp_path)
    assert result.returncode == 2
    assert "GT999" in result.stderr


def test_cli_report_writes_purity_registry(tmp_path: Path) -> None:
    write_bad_tree(tmp_path)
    result = run_cli(
        "--select", "GT005", "--report", "purity.json", "-q", "src",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    document = json.loads((tmp_path / "purity.json").read_text())
    assert document["schema"] == "repro-lint-purity/1"
    entry = document["functions"]["repro.state.remember"]
    assert entry["classification"] == "impure"
    assert any("mutates module global" in r for r in entry["reasons"])


def test_repro_cli_lint_subcommand_forwards(tmp_path: Path) -> None:
    write_bad_tree(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--select", "GT009", "-q", "src"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert "GT009" in result.stdout


# ---------------------------------------------------------------------------
# Acceptance gate: the repository itself is clean under GT009-GT012
# ---------------------------------------------------------------------------


def test_repository_concurrency_rules_are_clean() -> None:
    config = load_config(REPO / "pyproject.toml")
    new_rules = ["GT009", "GT010", "GT011", "GT012"]
    assert all(rule in config.select for rule in new_rules)
    narrowed = LintConfig(
        select=tuple(new_rules), exclude=config.exclude, rules=config.rules
    )
    violations = lint_paths([REPO / "src", REPO / "tests"], narrowed, root=REPO)
    assert violations == [], "\n".join(v.render() for v in violations)


def test_committed_baseline_matches_reality() -> None:
    baseline = json.loads(
        (REPO / "ci/lint_concurrency_baseline.json").read_text()
    )
    assert baseline["schema"] == "repro-lint/1"
    assert baseline["violations"] == []
    assert baseline["rules"] == ["GT009", "GT010", "GT011", "GT012"]
