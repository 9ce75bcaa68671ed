"""Configuration for the GraphTempo linter.

The linter is configured from the ``[tool.repro-lint]`` table of a
``pyproject.toml``.  Built-in defaults (below) encode the repository's
own conventions, so ``python -m repro.lint`` works with no configuration
at all; a project table overrides the defaults key by key.

Schema::

    [tool.repro-lint]
    select  = ["GT001", ...]        # rules to run
    exclude = ["src/generated/*"]   # path patterns (fnmatch, posix)

    [tool.repro-lint.GT003]
    modules = ["repro.*"]           # dotted-module include patterns
    exempt  = ["repro.cli"]         # dotted-module exclude patterns
    forbidden = ["ValueError", ...] # rule-specific option

Dotted-module patterns use ``fnmatch`` syntax; ``pkg.*`` also matches
``pkg`` itself.  An empty ``modules`` list means "every module".
"""

from __future__ import annotations

import tomllib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError

__all__ = ["DEFAULTS", "LintConfig", "RuleSettings", "load_config"]


#: The repository's own conventions, used when pyproject.toml has no
#: ``[tool.repro-lint]`` table (or only a partial one).
DEFAULTS: dict[str, Any] = {
    "select": [
        "GT001", "GT002", "GT003", "GT004", "GT005", "GT006",
        "GT009", "GT010", "GT011", "GT012",
    ],
    "exclude": [],
    "GT001": {
        "modules": [
            "repro.core.operators",
            "repro.core.aggregation",
            "repro.core.evolution",
            "repro.frames.*",
        ],
        "exempt": [],
        "frame_types": [
            "LabeledFrame",
            "Table",
            "TemporalGraph",
            "AggregateGraph",
            "EvolutionGraph",
        ],
        "mutating_methods": [
            "append",
            "clear",
            "extend",
            "fill",
            "insert",
            "itemset",
            "partition",
            "pop",
            "popitem",
            "put",
            "remove",
            "resize",
            "setdefault",
            "sort",
            "update",
        ],
    },
    "GT002": {
        "modules": [
            "repro.frames.labeled_frame",
            "repro.frames.table",
            "repro.core.operators",
            "repro.core.aggregation",
        ],
        "exempt": [],
        "row_iteration_attrs": ["iter_rows", "iterrows", "itertuples"],
        "size_attrs": ["n_rows"],
        "len_attrs": ["row_labels"],
    },
    "GT003": {
        "modules": ["repro.*"],
        "exempt": ["repro.cli", "repro.__main__"],
        "forbidden": [
            "ArithmeticError",
            "Exception",
            "IndexError",
            "KeyError",
            "LookupError",
            "RuntimeError",
            "TypeError",
            "ValueError",
        ],
    },
    "GT004": {
        "modules": ["repro.frames.*", "repro.core.*"],
        "exempt": [],
        "allow": ["numpy"],
        "first_party": ["repro"],
    },
    "GT005": {
        "modules": ["repro.*"],
        "exempt": ["repro.__main__", "repro.lint.__main__"],
    },
    "GT006": {
        "modules": ["repro.*"],
        "exempt": ["repro.cli", "repro.__main__", "repro.lint.cli"],
    },
    "GT009": {
        "modules": ["repro.*"],
        "exempt": [],
        # Import-time decorator registries and the GT010-governed
        # singleton holders; fnmatch over "module.name".
        "sanctioned": [
            "*._REGISTRY",
            "repro.obs.trace._tracer",
            "repro.obs.metrics._registry",
        ],
    },
    "GT010": {
        "modules": ["repro.*"],
        "exempt": [],
        "singletons": [
            "repro.obs.trace._tracer",
            "repro.obs.metrics._registry",
        ],
        "setters": [
            "repro.obs.trace.set_tracer",
            "repro.obs.metrics.set_metrics",
        ],
    },
    "GT011": {
        "modules": [
            "repro.core.operators",
            "repro.core.aggregation",
            "repro.core.evolution",
        ],
        "exempt": [],
        # Sanctioned instrumentation: its effects are invisible to
        # operator results.
        "allowed_impure": ["repro.obs.*"],
    },
    "GT012": {
        "modules": ["repro.*"],
        "exempt": ["repro.obs.*"],
        "accessors": ["get_tracer", "get_metrics"],
    },
}

_RULE_ID_KEYS = {key for key in DEFAULTS if key.startswith("GT")}
_TOP_LEVEL_KEYS = {"select", "exclude"}


@dataclass(frozen=True)
class RuleSettings:
    """Effective settings for one rule: module filters plus free options."""

    modules: tuple[str, ...] = ()
    exempt: tuple[str, ...] = ()
    options: Mapping[str, Any] = field(default_factory=dict)

    def option(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)


@dataclass(frozen=True)
class LintConfig:
    """The full lint configuration: selection, path excludes, per-rule settings."""

    select: tuple[str, ...]
    exclude: tuple[str, ...]
    rules: Mapping[str, Mapping[str, Any]]

    def rule_settings(self, rule_id: str) -> RuleSettings:
        table = dict(self.rules.get(rule_id, {}))
        modules = tuple(table.pop("modules", ()))
        exempt = tuple(table.pop("exempt", ()))
        return RuleSettings(modules=modules, exempt=exempt, options=table)


def _as_str_list(value: Any, context: str) -> list[str]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigurationError(f"{context} must be a list of strings")
    return list(value)


def _merged(overrides: Mapping[str, Any]) -> dict[str, Any]:
    merged: dict[str, Any] = {
        "select": list(DEFAULTS["select"]),
        "exclude": list(DEFAULTS["exclude"]),
    }
    for rule_id in _RULE_ID_KEYS:
        merged[rule_id] = dict(DEFAULTS[rule_id])
    for key, value in overrides.items():
        if key in _TOP_LEVEL_KEYS:
            merged[key] = _as_str_list(value, f"[tool.repro-lint] {key}")
        elif key.upper().startswith("GT"):
            if not isinstance(value, Mapping):
                raise ConfigurationError(
                    f"[tool.repro-lint.{key}] must be a table"
                )
            table = dict(merged.get(key.upper(), {}))
            table.update(value)
            merged[key.upper()] = table
        else:
            raise ConfigurationError(
                f"unknown [tool.repro-lint] key: {key!r}"
            )
    return merged


def config_from_mapping(overrides: Mapping[str, Any]) -> LintConfig:
    """Build a :class:`LintConfig` from a ``[tool.repro-lint]``-shaped mapping."""
    merged = _merged(overrides)
    select = tuple(merged["select"])
    exclude = tuple(merged["exclude"])
    rules = {
        key: value
        for key, value in merged.items()
        if key not in _TOP_LEVEL_KEYS
    }
    return LintConfig(select=select, exclude=exclude, rules=rules)


def load_config(pyproject: Path | str | None = None) -> LintConfig:
    """Load the lint configuration.

    ``pyproject`` names a ``pyproject.toml``; when ``None``, the current
    directory's ``pyproject.toml`` is used if present, else defaults.
    """
    path: Path | None
    if pyproject is not None:
        path = Path(pyproject)
        if not path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
    else:
        candidate = Path("pyproject.toml")
        path = candidate if candidate.is_file() else None
    if path is None:
        return config_from_mapping({})
    try:
        with path.open("rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"invalid TOML in {path}: {exc}") from exc
    section = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, Mapping):
        raise ConfigurationError("[tool.repro-lint] must be a table")
    return config_from_mapping(section)


def selected_rules(config: LintConfig, only: Sequence[str] | None) -> LintConfig:
    """Narrow ``config.select`` to ``only`` (e.g. from ``--select``)."""
    if not only:
        return config
    return LintConfig(
        select=tuple(only), exclude=config.exclude, rules=config.rules
    )
