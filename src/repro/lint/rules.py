"""The pluggable Rule API: findings, file context, and the registry.

A rule is a small class with an ``id`` (``D101``, ``P203``, …), a
severity, a one-line title, a rationale and a ``check`` method that
walks one file's AST and yields :class:`Finding` objects.  Rules never
read other files — everything they need (source text, parsed tree,
resolved import aliases, parent links) is precomputed on the
:class:`FileContext`, so the driver can lint files independently and in
parallel with byte-identical output.

Import-alias resolution is the workhorse: ``np.random.seed`` and
``numpy.random.seed`` (or ``from numpy.random import seed``) normalize
to the same dotted name, so rules match semantics rather than spelling.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .graph import ProjectGraph

#: Ordered severity levels, most severe first.
SEVERITIES = ("error", "warning")


class LintError(ValueError):
    """Raised on invalid linter configuration or rule registration."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Sortable by ``(path, line, col, rule)`` so reports are deterministic
    regardless of the order files were linted in (serial and parallel
    drivers print identical output).

    Attributes
    ----------
    path:
        Repository-relative POSIX path of the offending file.
    line, col:
        1-based line and 0-based column of the offending node.
    rule:
        Rule identifier, e.g. ``"D101"``.
    severity:
        ``"error"`` or ``"warning"``.
    message:
        Human-readable description of this specific violation.
    symbol:
        Dotted name of the enclosing class/function (``"<module>"`` at
        top level) — the line-number-free anchor baseline entries match
        on, so unrelated edits do not churn the baseline.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str = field(compare=False)
    message: str = field(compare=False)
    symbol: str = field(compare=False, default="<module>")

    def location(self) -> str:
        """The finding's ``path:line:col`` source anchor."""
        return f"{self.path}:{self.line}:{self.col}"


class FileContext:
    """Everything rules may inspect about one file, precomputed once.

    Parameters
    ----------
    path:
        Repository-relative POSIX path (used for scope checks and
        reported findings).
    source:
        The file's text content.
    tree:
        The parsed module; pass ``None`` to parse ``source`` here.
    """

    def __init__(self, path: str, source: str, tree: ast.Module | None = None):
        self.path = path.replace("\\", "/")
        self.source = source
        self.tree = tree if tree is not None else ast.parse(source)
        self.lines = source.splitlines()
        self._parents: dict[ast.AST, ast.AST] = {}
        self.aliases: dict[str, str] = {}
        self._package = _package_of(self.path)
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self._collect_aliases()

    # -- import-alias resolution --------------------------------------
    def _collect_aliases(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else name
                    self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{base}.{alias.name}"

    def _import_base(self, node: ast.ImportFrom) -> str | None:
        if not node.level:
            return node.module
        if self._package is None:
            return None
        parts = self._package.split(".")
        if node.level > len(parts):
            return None
        base = parts[: len(parts) - (node.level - 1)]
        if node.module:
            base.append(node.module)
        return ".".join(base)

    def qualified(self, node: ast.AST) -> str | None:
        """Dotted name of an expression, normalized through imports.

        ``np.random.seed`` under ``import numpy as np`` resolves to
        ``"numpy.random.seed"``; unresolvable expressions (calls on call
        results, subscripts, …) return ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.aliases.get(parts[0])
        if head is not None:
            parts[0:1] = head.split(".")
        return ".".join(parts)

    # -- tree navigation ----------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        """The node's syntactic parent (``None`` for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's enclosing chain, innermost first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def symbol(self, node: ast.AST) -> str:
        """Dotted enclosing-scope name (``Class.method`` or ``<module>``)."""
        names = [
            scope.name
            for scope in self.ancestors(node)
            if isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.insert(0, node.name)
        return ".".join(reversed(names)) if names else "<module>"

    def in_dirs(self, *prefixes: str) -> bool:
        """Whether this file lives under any of the given path prefixes."""
        return any(
            self.path == p or self.path.startswith(p.rstrip("/") + "/")
            for p in prefixes
        )

    def calls(self) -> Iterator[ast.Call]:
        """Every call expression in the file."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node

    def keyword(self, call: ast.Call, name: str) -> ast.expr | None:
        """Value of a call's keyword argument, or ``None`` if absent."""
        for kw in call.keywords:
            if kw.arg == name:
                return kw.value
        return None


class Rule:
    """Base class of every lint rule.

    Subclasses set the class attributes and implement :meth:`check`;
    registration happens with the :func:`register` decorator.  A rule
    restricted to part of the tree overrides :meth:`applies_to` (the
    default applies everywhere the driver walks).
    """

    id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    severity: ClassVar[str] = "error"
    rationale: ClassVar[str] = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on the given file (default: always)."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield this rule's findings for one file."""
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
            symbol=ctx.symbol(node),
        )


class ProjectRule(Rule):
    """Base class of whole-program rules (the W/T/C series).

    Project rules consume the :class:`~repro.lint.graph.ProjectGraph`
    the driver folds worker summaries into, instead of one file's AST.
    They run serially in the parent process after the per-file fan-out,
    so parallel runs stay byte-identical; :meth:`check` is therefore a
    no-op and :meth:`check_project` is the entry point.  ``artifacts``
    names the repo-relative non-Python files (the reference docs)
    the rule compares code against; the driver loads them from the
    repository root and tests inject them directly.
    """

    artifacts: ClassVar[tuple[str, ...]] = ()

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Project rules have no per-file findings."""
        return ()

    def check_project(self, project: "ProjectGraph") -> Iterable[Finding]:
        """Yield this rule's findings over the whole program."""
        raise NotImplementedError

    def project_finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        symbol: str = "<module>",
    ) -> Finding:
        """Build a :class:`Finding` from summary-level coordinates."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.id,
            severity=self.severity,
            message=message,
            symbol=symbol,
        )


#: The process-wide rule registry, keyed by rule id.
_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (one instance)."""
    if not cls.id or not cls.title:
        raise LintError(f"rule {cls.__name__} must set id and title")
    if cls.severity not in SEVERITIES:
        raise LintError(
            f"rule {cls.id}: severity must be one of {SEVERITIES}"
        )
    if cls.id in _REGISTRY:
        raise LintError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def _load_packs() -> None:
    """Import the built-in rule packs (idempotent, registry-populating)."""
    from . import (  # noqa: F401
        contracts,
        determinism,
        parallelism,
        provenance,
        structure,
        threads,
    )


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    _load_packs()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def default_rules() -> list[Rule]:
    """The rules a plain ``repro-traffic lint`` run applies (all)."""
    return all_rules()


def get_rule(rule_id: str) -> Rule:
    """Look one rule up by id; raises :class:`LintError` if unknown."""
    _load_packs()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(f"unknown rule id {rule_id!r}") from None


def known_rule_ids() -> frozenset[str]:
    """The set of registered rule ids (suppression validation)."""
    _load_packs()
    return frozenset(_REGISTRY)


def run_rules(
    ctx: FileContext, rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Apply per-file rules to one file context; returns sorted findings.

    Project rules are skipped here — they see the whole program at
    once, through :func:`run_project_rules` in the driver's parent
    process.
    """
    found: list[Finding] = []
    for rule in rules if rules is not None else default_rules():
        if isinstance(rule, ProjectRule):
            continue
        if rule.applies_to(ctx):
            found.extend(rule.check(ctx))
    return sorted(found)


def project_rules() -> list[ProjectRule]:
    """Every registered whole-program rule, sorted by id."""
    return [r for r in all_rules() if isinstance(r, ProjectRule)]


def run_project_rules(
    project: "ProjectGraph", rules: Iterable[ProjectRule] | None = None
) -> list[Finding]:
    """Apply project rules to one graph; returns sorted findings."""
    found: list[Finding] = []
    for rule in rules if rules is not None else project_rules():
        found.extend(rule.check_project(project))
    return sorted(found)


def _package_of(path: str) -> str | None:
    """Dotted package of a repo-relative module path (for relative imports)."""
    parts = path.split("/")
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1]
    return ".".join(parts) if parts else None


Checker = Callable[[FileContext], Iterable[Finding]]
