"""S-series rules: structural contracts between subsystems.

Cross-cutting data contracts — the canonical
:class:`~repro.dataset.records.SessionTable` column schema, the
telemetry event shapes of ``repro.obs.schema.EVENT_FIELDS``, the
src/tests dependency direction — are easy to drift one call site at a
time.  These rules pin every literal occurrence to the single canonical
definition.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .rules import FileContext, Finding, Rule, register

#: Canonical SessionTable column dtypes (numpy attribute names), as
#: spelled at call sites.  The first spelling of each column must equal
#: ``repro.dataset.records.SCHEMA_DTYPES``; the lint test suite pins
#: that, so this copy cannot go stale.
SESSION_TABLE_DTYPES: dict[str, tuple[str, ...]] = {
    "service_idx": ("numpy.int16",),
    "bs_id": ("numpy.int32",),
    "day": ("numpy.int16",),
    "start_minute": ("numpy.int16",),
    "duration_s": ("numpy.float32",),
    "volume_mb": ("numpy.float32",),
    "truncated": ("bool", "numpy.bool_"),
}

#: Array constructors whose dtype keyword the S301 rule inspects.
_ARRAY_CONSTRUCTORS = frozenset(
    {
        "numpy.array", "numpy.asarray", "numpy.empty", "numpy.zeros",
        "numpy.ones", "numpy.full", "numpy.arange", "numpy.repeat",
    }
)


@register
class SessionTableDtypeDrift(Rule):
    """S301 — SessionTable column literals contradicting the schema."""

    id = "S301"
    title = "SessionTable column dtype drift"
    severity = "error"
    rationale = (
        "The SessionTable schema (int16/int32/float32 columns) is the "
        "interchange format of the whole stack and part of every cache "
        "key and golden baseline.  A call site constructing a column with "
        "a different explicit dtype either silently widens campaign "
        "artifacts or breaks byte-identity across code paths."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the library package."""
        return ctx.in_dirs("src")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag explicit column dtypes that contradict the schema."""
        for call in ctx.calls():
            name = ctx.qualified(call.func)
            if name is None or not name.endswith("SessionTable"):
                continue
            for kw in call.keywords:
                if kw.arg not in SESSION_TABLE_DTYPES:
                    continue
                dtype = self._explicit_dtype(ctx, kw.value)
                if dtype is None:
                    continue
                allowed = SESSION_TABLE_DTYPES[kw.arg]
                if dtype not in allowed:
                    yield self.finding(
                        ctx, kw.value,
                        f"column {kw.arg!r} constructed with dtype "
                        f"{dtype.replace('numpy', 'np')}, schema says "
                        f"{allowed[0].replace('numpy', 'np')}",
                    )

    @staticmethod
    def _explicit_dtype(ctx: FileContext, value: ast.expr) -> str | None:
        """Dtype literal of a column-constructor call, if present."""
        if not isinstance(value, ast.Call):
            return None
        name = ctx.qualified(value.func)
        if name not in _ARRAY_CONSTRUCTORS:
            return None
        dtype = None
        for kw in value.keywords:
            if kw.arg == "dtype":
                dtype = kw.value
        if dtype is None:
            return None
        return ctx.qualified(dtype)


@register
class TelemetryEventShape(Rule):
    """S302 — event dict literals outside the telemetry schema."""

    id = "S302"
    title = "telemetry event field outside schema"
    severity = "error"
    rationale = (
        "events.jsonl is an interchange format validated by "
        "repro.obs.schema and the checked-in JSON Schema; an emission "
        "site inventing a field (or misspelling one) ships streams that "
        "fail CI validation after the run already happened.  The lint "
        "rule moves that failure to review time."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the library package."""
        return ctx.in_dirs("src")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Check literal keys of ``…sink.write({...})`` emissions."""
        from ..obs.schema import EVENT_FIELDS

        for call in ctx.calls():
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "write"
                and self._sinkish(call.func.value)
            ):
                continue
            if len(call.args) != 1 or not isinstance(call.args[0], ast.Dict):
                continue
            event = call.args[0]
            keys: dict[str, ast.expr] = {}
            has_unpack = False
            for key, value in zip(event.keys, event.values):
                if key is None:
                    has_unpack = True
                elif isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys[key.value] = value
            type_value = keys.get("type")
            if not isinstance(type_value, ast.Constant):
                continue
            fields = EVENT_FIELDS.get(type_value.value)
            if fields is None:
                yield self.finding(
                    ctx, type_value,
                    f"event type {type_value.value!r} is not in the "
                    "telemetry schema (see repro.obs.schema.EVENT_FIELDS)",
                )
                continue
            for key_name, value in keys.items():
                if key_name not in fields:
                    yield self.finding(
                        ctx, value,
                        f"field {key_name!r} is not in the "
                        f"{type_value.value!r} event schema",
                    )
            if not has_unpack:
                missing = sorted(
                    name
                    for name, (_, required, _enum) in fields.items()
                    if required and name not in keys
                )
                if missing:
                    yield self.finding(
                        ctx, event,
                        f"{type_value.value!r} event emission misses "
                        f"required fields {missing}",
                    )

    @staticmethod
    def _sinkish(receiver: ast.expr) -> bool:
        """Whether the write receiver names a telemetry sink."""
        name = None
        if isinstance(receiver, ast.Name):
            name = receiver.id
        elif isinstance(receiver, ast.Attribute):
            name = receiver.attr
        return name is not None and name.lstrip("_").endswith("sink")


@register
class TestImportInLibrary(Rule):
    """S303 — ``repro.*`` importing from tests/ or benchmarks/."""

    id = "S303"
    title = "library imports test/benchmark code"
    severity = "error"
    rationale = (
        "src/repro is the shipped package; tests/ and benchmarks/ are "
        "repo-only and absent from installs.  A library import of either "
        "works in CI and breaks for every downstream user."
    )

    _FORBIDDEN = ("tests", "benchmarks", "conftest")

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the library package."""
        return ctx.in_dirs("src")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag imports of the repo-only top-level packages."""
        for node in ast.walk(ctx.tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module] if node.module else []
            for module in modules:
                top = module.split(".", 1)[0]
                if top in self._FORBIDDEN:
                    yield self.finding(
                        ctx, node,
                        f"library module imports {module!r}; shipped code "
                        "must not depend on repo-only packages",
                    )


@register
class SysPathMutation(Rule):
    """S304 — ``sys.path`` surgery inside the library."""

    id = "S304"
    title = "sys.path mutated in library code"
    severity = "error"
    rationale = (
        "sys.path edits make import resolution depend on call order and "
        "working directory — a reproducibility hazard and a packaging "
        "smell.  Scripts under tools/ and benchmarks/ may bootstrap "
        "their path; the installed package never does."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the library package."""
        return ctx.in_dirs("src")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag mutations and rebinds of ``sys.path``."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                target = node.func.value
                if (
                    ctx.qualified(target) == "sys.path"
                    and node.func.attr in ("append", "insert", "extend",
                                           "remove", "pop")
                ):
                    yield self.finding(
                        ctx, node,
                        "sys.path mutated in library code; fix packaging "
                        "instead of the import path",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if ctx.qualified(target) == "sys.path":
                        yield self.finding(
                            ctx, node,
                            "sys.path rebound in library code; fix "
                            "packaging instead of the import path",
                        )


@register
class PrintInComputeLayer(Rule):
    """S305 — ``print()`` inside the compute layers."""

    id = "S305"
    title = "print() in compute layer"
    severity = "warning"
    rationale = (
        "Stage progress flows through the telemetry renderer "
        "(Telemetry.observe/message) so verbosity flags, JSON logging and "
        "event capture stay consistent; a stray print() bypasses all "
        "three.  CLI, io.tables and obs are the sanctioned output seams."
    )

    _SCOPE = (
        "src/repro/core",
        "src/repro/dataset",
        "src/repro/analysis",
        "src/repro/pipeline",
        "src/repro/verify",
        "src/repro/usecases",
        "src/repro/campaign",
        "src/repro/serve",
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: compute layers (CLI/io/obs print deliberately)."""
        return ctx.in_dirs(*self._SCOPE)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag bare ``print`` calls."""
        for call in ctx.calls():
            if isinstance(call.func, ast.Name) and call.func.id == "print":
                yield self.finding(
                    ctx, call,
                    "print() in a compute layer bypasses the telemetry "
                    "renderer; use Telemetry.message/observe",
                )
