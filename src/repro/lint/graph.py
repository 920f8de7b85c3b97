"""Project-wide symbol, call and artifact graph for whole-program rules.

The per-file rules see exactly one file; the W/T/C series reason about
flows *between* files — a generator handed through two call boundaries,
a lock acquired in one method and required by another, a CLI flag that
must appear in the checked-in usage document.  This module provides the
substrate: a :class:`ModuleSummary` distilled independently from each
file (picklable, so the driver's worker processes can extract summaries
during the ordinary parallel fan-out) and a :class:`ProjectGraph` the
parent folds them into, in sorted path order, before running the
project rules serially.  Extraction never reads other files, so the
parallel run stays byte-identical to the serial one.

What a summary records is deliberately shallow — call sites with
identifier arguments, self-attribute accesses with the lock set held at
that point, direct RNG/seed/metric-name sinks — and the
:mod:`repro.lint.dataflow` engine closes these facts over the call
graph afterwards.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .parallelism import EXECUTOR_NAMES, SUBMIT_METHODS, _receiver_name
from .rules import FileContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dataflow import DataflowResult

#: Methods whose invocation on a Generator consumes (or splits) its
#: stream — the "draws from" relation of the RNG-provenance dataflow.
#: ``spawn`` counts: children are minted from the parent's sequential
#: state, so spawning under unordered iteration is order-coupled too.
RNG_DRAW_METHODS = frozenset(
    {
        "random", "normal", "uniform", "integers", "choice", "shuffle",
        "permutation", "permuted", "standard_normal", "exponential",
        "lognormal", "pareto", "gamma", "poisson", "binomial", "beta",
        "multinomial", "bytes", "triangular", "weibull", "gumbel",
        "laplace", "logistic", "spawn",
    }
)

#: Calls that construct a Generator (possibly via the repo's seed-stream
#: helpers); their return values are RNGs and their arguments are seeds.
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "repro.pipeline.context.stream_rng",
    }
)

#: Calls whose arguments are seed material (a value reused here is a
#: stream reused).  Superset of the constructors plus the pure-seed
#: helpers.
SEED_SINK_CALLEES = RNG_CONSTRUCTORS | frozenset(
    {
        "numpy.random.SeedSequence",
        "repro.pipeline.context.stream_seed",
    }
)

#: Instrument-factory method names of the metrics registry; a literal
#: first argument at such a call site is an instrumented metric name.
METRIC_METHODS = ("counter", "gauge", "histogram")

#: Lock-constructor callees recognized in ``__init__`` bodies.
LOCK_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression, with everything project rules may ask of it."""

    callee: str | None
    line: int
    col: int
    symbol: str
    args: tuple[str | None, ...]
    const_args: tuple[bool, ...]
    string_args: tuple[str | None, ...]
    keywords: tuple[tuple[str, str | None], ...]
    in_loop: bool
    in_view_loop: bool
    loop_bound: tuple[str, ...]
    locks_held: tuple[str, ...]
    submit_kind: str | None
    submitted: str | None


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` read or write, with the lock set held there."""

    attr: str
    line: int
    col: int
    symbol: str
    locks_held: tuple[str, ...]


@dataclass(frozen=True)
class FunctionSummary:
    """Dataflow-relevant facts of one function or method."""

    qualname: str
    name: str
    class_name: str | None
    path: str
    params: tuple[str, ...]
    is_method: bool
    calls: tuple[CallSite, ...]
    rng_param_draws: tuple[str, ...]
    seed_sink_params: tuple[str, ...]
    metric_sink_params: tuple[str, ...]
    returned_callees: tuple[str, ...]
    assigns: tuple[tuple[str, str], ...]
    attr_writes: tuple[AttrAccess, ...]
    attr_reads: tuple[AttrAccess, ...]
    lock_acquisitions: tuple[tuple[str, int, int], ...]
    lock_pairs: tuple[tuple[str, str, int, int], ...]

    def effective_params(self) -> tuple[str, ...]:
        """Parameters as seen by a caller (``self``/``cls`` stripped)."""
        return self.params[1:] if self.is_method else self.params


@dataclass(frozen=True)
class ClassSummary:
    """One class's shared-state shape, inferred from ``__init__``."""

    qualname: str
    name: str
    path: str
    line: int
    init_attrs: tuple[str, ...]
    lock_attrs: tuple[str, ...]
    sqlite_attrs: tuple[str, ...]
    method_names: tuple[str, ...]


@dataclass(frozen=True)
class MetricLiteral:
    """A literal metric name at an instrument-factory call site."""

    name: str
    line: int
    col: int
    symbol: str


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project pass keeps of one file."""

    path: str
    module: str
    functions: tuple[FunctionSummary, ...]
    classes: tuple[ClassSummary, ...]
    flag_literals: tuple[tuple[str, int, int], ...]
    metric_literals: tuple[MetricLiteral, ...]


def module_of(path: str) -> str:
    """Dotted module name of a repo-relative path (``src/`` stripped)."""
    parts = path.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _lock_name(expr: ast.expr) -> str | None:
    """The lock identity of a ``with`` item, if it looks like a lock."""
    if isinstance(expr, ast.Attribute) and "lock" in expr.attr.lower():
        return expr.attr
    if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
        return expr.id
    return None


def is_view_loop(iter_expr: ast.expr) -> bool:
    """Whether a loop iterates a dict view (possibly wrapped).

    Every call inside such a loop is marked ``in_view_loop``, which is
    what the W403 rule inspects.
    """
    expr = iter_expr
    # Unwrap enumerate()/sorted()/list()/tuple() one level at a time.
    while (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("enumerate", "sorted", "list", "tuple")
        and expr.args
    ):
        expr = expr.args[0]
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("items", "values", "keys")
    )


def _assigned_names(nodes: Sequence[ast.AST]) -> set[str]:
    """Names bound anywhere inside the given nodes."""
    bound: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
    return bound


class _Resolver:
    """Best-effort resolution of call targets to project qualnames."""

    def __init__(
        self, ctx: FileContext, module: str, module_defs: frozenset[str]
    ):
        self.ctx = ctx
        self.module = module
        self.module_defs = module_defs

    def callee(self, func: ast.expr, class_name: str | None) -> str | None:
        qualified = self.ctx.qualified(func)
        if qualified is None:
            return None
        parts = qualified.split(".")
        if parts[0] == "self" and class_name is not None and len(parts) == 2:
            return f"{self.module}.{class_name}.{parts[1]}"
        if len(parts) == 1 and parts[0] in self.module_defs:
            return f"{self.module}.{parts[0]}"
        return qualified


@dataclass
class _FunctionFacts:
    """Mutable accumulator the function walker fills in."""

    calls: list[CallSite] = field(default_factory=list)
    rng_draws: set[str] = field(default_factory=set)
    seed_params: set[str] = field(default_factory=set)
    metric_params: set[str] = field(default_factory=set)
    returned: list[str] = field(default_factory=list)
    assigns: list[tuple[str, str]] = field(default_factory=list)
    writes: list[AttrAccess] = field(default_factory=list)
    reads: list[AttrAccess] = field(default_factory=list)
    acquisitions: list[tuple[str, int, int]] = field(default_factory=list)
    pairs: list[tuple[str, str, int, int]] = field(default_factory=list)


def _arg_facts(
    call: ast.Call,
) -> tuple[
    tuple[str | None, ...], tuple[bool, ...], tuple[str | None, ...],
    tuple[tuple[str, str | None], ...],
]:
    """Identifier / constant / string-literal views of a call's arguments."""
    names: list[str | None] = []
    consts: list[bool] = []
    strings: list[str | None] = []
    for arg in call.args:
        names.append(arg.id if isinstance(arg, ast.Name) else None)
        consts.append(isinstance(arg, ast.Constant))
        strings.append(
            arg.value
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            else None
        )
    keywords = tuple(
        (kw.arg, kw.value.id if isinstance(kw.value, ast.Name) else None)
        for kw in call.keywords
        if kw.arg is not None
    )
    return tuple(names), tuple(consts), tuple(strings), keywords


def _scan_function(
    ctx: FileContext,
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    class_name: str | None,
    resolver: _Resolver,
) -> FunctionSummary:
    """Distill one function body into a :class:`FunctionSummary`."""
    arg_nodes = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    params = tuple(a.arg for a in arg_nodes)
    is_method = class_name is not None and params[:1] in (("self",), ("cls",))
    param_set = frozenset(params)
    facts = _FunctionFacts()

    def handle_call(
        call: ast.Call,
        held: tuple[str, ...],
        loop_bound: tuple[str, ...],
        in_loop: bool,
        in_view: bool,
    ) -> None:
        callee = resolver.callee(call.func, class_name)
        names, consts, strings, keywords = _arg_facts(call)
        submit_kind: str | None = None
        submitted: str | None = None
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in SUBMIT_METHODS
        ):
            receiver = _receiver_name(call.func)
            if receiver is not None and any(
                token in receiver.lower() for token in EXECUTOR_NAMES
            ):
                submit_kind = call.func.attr
                if call.args:
                    submitted = resolver.callee(call.args[0], class_name)
        facts.calls.append(
            CallSite(
                callee=callee,
                line=call.lineno,
                col=call.col_offset,
                symbol=ctx.symbol(call),
                args=names,
                const_args=consts,
                string_args=strings,
                keywords=keywords,
                in_loop=in_loop,
                in_view_loop=in_view,
                loop_bound=loop_bound,
                locks_held=held,
                submit_kind=submit_kind,
                submitted=submitted,
            )
        )
        # Direct sinks feeding the dataflow fixpoints.
        if isinstance(call.func, ast.Attribute):
            receiver_node = call.func.value
            if (
                call.func.attr in RNG_DRAW_METHODS
                and isinstance(receiver_node, ast.Name)
                and receiver_node.id in param_set
            ):
                facts.rng_draws.add(receiver_node.id)
            if call.func.attr in METRIC_METHODS and call.args:
                first = call.args[0]
                if isinstance(first, ast.Name) and first.id in param_set:
                    facts.metric_params.add(first.id)
        if callee in SEED_SINK_CALLEES:
            for value in list(call.args) + [kw.value for kw in call.keywords]:
                if isinstance(value, ast.Name) and value.id in param_set:
                    facts.seed_params.add(value.id)

    def record_attr_stores(target: ast.expr, held: tuple[str, ...]) -> None:
        for node in ast.walk(target):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                facts.writes.append(
                    AttrAccess(
                        attr=node.attr,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=ctx.symbol(node),
                        locks_held=held,
                    )
                )

    def visit(
        node: ast.AST,
        held: tuple[str, ...],
        loop_bound: tuple[str, ...],
        in_loop: bool,
        in_view: bool,
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner_held = held
            for item in node.items:
                visit(
                    item.context_expr, inner_held, loop_bound, in_loop,
                    in_view,
                )
                lock = _lock_name(item.context_expr)
                if lock is not None:
                    line = item.context_expr.lineno
                    col = item.context_expr.col_offset
                    for previous in inner_held:
                        if previous != lock:
                            facts.pairs.append((previous, lock, line, col))
                    facts.acquisitions.append((lock, line, col))
                    if lock not in inner_held:
                        inner_held = inner_held + (lock,)
                if item.optional_vars is not None:
                    visit(
                        item.optional_vars, inner_held, loop_bound, in_loop,
                        in_view,
                    )
            for stmt in node.body:
                visit(stmt, inner_held, loop_bound, in_loop, in_view)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.iter, held, loop_bound, in_loop, in_view)
            bound = set(loop_bound)
            bound |= _assigned_names([node.target])
            bound |= _assigned_names(list(node.body))
            view = in_view or is_view_loop(node.iter)
            visit(node.target, held, tuple(sorted(bound)), True, view)
            for stmt in node.body + node.orelse:
                visit(stmt, held, tuple(sorted(bound)), True, view)
            return
        if isinstance(node, ast.While):
            visit(node.test, held, loop_bound, in_loop, in_view)
            bound = set(loop_bound) | _assigned_names(list(node.body))
            for stmt in node.body + node.orelse:
                visit(stmt, held, tuple(sorted(bound)), True, in_view)
            return
        if isinstance(node, ast.Call):
            handle_call(node, held, loop_bound, in_loop, in_view)
        elif isinstance(node, ast.Assign):
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                callee = resolver.callee(node.value.func, class_name)
                if callee is not None:
                    facts.assigns.append((node.targets[0].id, callee))
            for target in node.targets:
                record_attr_stores(target, held)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            record_attr_stores(node.target, held)
        elif isinstance(node, ast.Return) and isinstance(
            node.value, ast.Call
        ):
            callee = resolver.callee(node.value.func, class_name)
            if callee is not None:
                facts.returned.append(callee)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            facts.reads.append(
                AttrAccess(
                    attr=node.attr,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=ctx.symbol(node),
                    locks_held=held,
                )
            )
        for child in ast.iter_child_nodes(node):
            visit(child, held, loop_bound, in_loop, in_view)

    for stmt in fn.body:
        visit(stmt, (), (), False, False)

    prefix = (
        f"{resolver.module}.{class_name}." if class_name is not None
        else f"{resolver.module}."
    )
    return FunctionSummary(
        qualname=f"{prefix}{fn.name}",
        name=fn.name,
        class_name=class_name,
        path=ctx.path,
        params=params,
        is_method=is_method,
        calls=tuple(facts.calls),
        rng_param_draws=tuple(sorted(facts.rng_draws)),
        seed_sink_params=tuple(sorted(facts.seed_params)),
        metric_sink_params=tuple(sorted(facts.metric_params)),
        returned_callees=tuple(facts.returned),
        assigns=tuple(facts.assigns),
        attr_writes=tuple(facts.writes),
        attr_reads=tuple(facts.reads),
        lock_acquisitions=tuple(facts.acquisitions),
        lock_pairs=tuple(facts.pairs),
    )


def _scan_class(
    ctx: FileContext, node: ast.ClassDef, resolver: _Resolver
) -> ClassSummary:
    """Infer one class's shared-state shape from its ``__init__``."""
    init_attrs: set[str] = set()
    lock_attrs: set[str] = set()
    sqlite_attrs: set[str] = set()
    methods = [
        child.name
        for child in node.body
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for child in node.body:
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if child.name != "__init__":
            continue
        for stmt in ast.walk(child):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                init_attrs.add(target.attr)
                if isinstance(stmt.value, ast.Call):
                    callee = resolver.callee(stmt.value.func, node.name)
                    if callee in LOCK_CONSTRUCTORS:
                        lock_attrs.add(target.attr)
                    elif callee == "sqlite3.connect":
                        sqlite_attrs.add(target.attr)
    return ClassSummary(
        qualname=f"{resolver.module}.{node.name}",
        name=node.name,
        path=ctx.path,
        line=node.lineno,
        init_attrs=tuple(sorted(init_attrs)),
        lock_attrs=tuple(sorted(lock_attrs)),
        sqlite_attrs=tuple(sorted(sqlite_attrs)),
        method_names=tuple(methods),
    )


def _literal_harvest(
    ctx: FileContext,
) -> tuple[tuple[tuple[str, int, int], ...], tuple[MetricLiteral, ...]]:
    """CLI-flag and metric-name literals of one file."""
    flags: list[tuple[str, int, int]] = []
    metrics: list[MetricLiteral] = []
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        ):
            continue
        if node.func.attr == "add_argument":
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                ):
                    flags.append(
                        (arg.value, arg.lineno, arg.col_offset)
                    )
        elif node.func.attr in METRIC_METHODS:
            first: ast.expr | None = node.args[0] if node.args else None
            if first is None:
                first = ctx.keyword(node, "name")
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                metrics.append(
                    MetricLiteral(
                        name=first.value,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=ctx.symbol(node),
                    )
                )
    return tuple(flags), tuple(metrics)


def summarize_context(ctx: FileContext) -> ModuleSummary:
    """Distill one parsed file into its picklable summary."""
    module = module_of(ctx.path)
    module_defs = frozenset(
        node.name
        for node in ctx.tree.body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    )
    resolver = _Resolver(ctx, module, module_defs)
    functions: list[FunctionSummary] = []
    classes: list[ClassSummary] = []
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_scan_function(ctx, node, None, resolver))
        elif isinstance(node, ast.ClassDef):
            classes.append(_scan_class(ctx, node, resolver))
            for child in node.body:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    functions.append(
                        _scan_function(ctx, child, node.name, resolver)
                    )
    flags, metrics = _literal_harvest(ctx)
    return ModuleSummary(
        path=ctx.path,
        module=module,
        functions=tuple(functions),
        classes=tuple(classes),
        flag_literals=flags,
        metric_literals=metrics,
    )


def summarize_source(path: str, source: str) -> ModuleSummary | None:
    """Summarize one in-memory file; ``None`` when it does not parse."""
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return None
    return summarize_context(FileContext(path, source, tree))


class ProjectGraph:
    """The whole-program view the project rules consume.

    Holds every module summary keyed by path, a flat function index
    keyed by qualname (the call-graph nodes), the class index, and the
    non-Python artifacts (the usage and metric docs) the C-series rules
    compare code against.  The dataflow solution is computed once, on
    first use, and shared across rules.
    """

    def __init__(
        self,
        summaries: Sequence[ModuleSummary],
        artifacts: Mapping[str, str] | None = None,
    ):
        ordered = sorted(summaries, key=lambda s: s.path)
        self.modules: dict[str, ModuleSummary] = {
            summary.path: summary for summary in ordered
        }
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassSummary] = {}
        for summary in ordered:
            for function in summary.functions:
                self.functions[function.qualname] = function
            for cls in summary.classes:
                self.classes[cls.qualname] = cls
        self.artifacts: dict[str, str] = dict(artifacts or {})
        self._dataflow: "DataflowResult | None" = None

    @classmethod
    def build(
        cls,
        summaries: Sequence[ModuleSummary],
        artifacts: Mapping[str, str] | None = None,
    ) -> "ProjectGraph":
        """Fold worker-extracted summaries into one graph."""
        return cls(summaries, artifacts)

    def artifact(self, path: str) -> str | None:
        """A checked-in artifact's text, if it was loaded."""
        return self.artifacts.get(path)

    def modules_under(self, *prefixes: str) -> Iterator[ModuleSummary]:
        """Module summaries whose path lives under any given prefix."""
        for path in sorted(self.modules):
            if any(
                path == p or path.startswith(p.rstrip("/") + "/")
                for p in prefixes
            ):
                yield self.modules[path]

    def functions_under(self, *prefixes: str) -> Iterator[FunctionSummary]:
        """Function summaries of the modules under the given prefixes."""
        for summary in self.modules_under(*prefixes):
            yield from summary.functions

    def dataflow(self) -> "DataflowResult":
        """The (memoized) fixpoint solution over this graph."""
        if self._dataflow is None:
            from .dataflow import solve

            self._dataflow = solve(self)
        return self._dataflow
