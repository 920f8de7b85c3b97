"""W-series rules: whole-program RNG and seed provenance.

These rules follow generators and seeds *across call boundaries*
using the project graph and its dataflow solution (W403 also reports
the draw made in plain sight inside a dict-view loop, since the loop
facts live in the graph).  The invariant is the paper
reproduction's seed-stream discipline: every unit of work — one
(day, BS) cell — draws from its own generator, minted from the run's
root seed and the unit key, and no generator's consumption order may
depend on container iteration or executor scheduling.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .dataflow import DataflowResult, arg_bindings
from .graph import (
    RNG_CONSTRUCTORS,
    SEED_SINK_CALLEES,
    CallSite,
    ProjectGraph,
)
from .rules import Finding, ProjectRule, register

#: Layers under the seed-stream discipline (the D-series scope plus the
#: campaign fan-out that stacks on top of it).
PROVENANCE_DIRS = (
    "src/repro/core",
    "src/repro/pipeline",
    "src/repro/dataset",
    "src/repro/campaign",
)


def rng_named(name: str) -> bool:
    """The name heuristic the W-series rules treat as a generator."""
    return name == "rng" or name.endswith("_rng")


def _short(qualname: str | None) -> str:
    return qualname.rsplit(".", 1)[-1] if qualname else "<unknown>"


@register
class RngEscapesToWorker(ProjectRule):
    """W401 — a live Generator shipped through an executor boundary."""

    id = "W401"
    title = "generator passed into executor fan-out"
    severity = "error"
    rationale = (
        "A Generator handed to executor.map/submit either fails to "
        "pickle or — worse — each worker advances a private copy, so "
        "parallel runs silently diverge from serial ones.  Workers "
        "must mint their own per-unit generator from the run seed and "
        "the unit key (stream_rng), never share the caller's.  Tracked "
        "interprocedurally: a local is a generator if it came from "
        "default_rng/stream_rng or any function that returns one."
    )

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        """Flag rng-valued arguments at executor submit sites."""
        flow = project.dataflow()
        for function in project.functions_under("src"):
            rng_values = set(flow.draws_from(function.qualname))
            rng_values.update(p for p in function.params if rng_named(p))
            for name, callee in function.assigns:
                if callee in RNG_CONSTRUCTORS or callee in flow.rng_returners:
                    rng_values.add(name)
            for call in function.calls:
                if call.submit_kind is None:
                    continue
                shipped = [name for name in call.args[1:] if name is not None]
                shipped.extend(
                    name for _, name in call.keywords if name is not None
                )
                for name in shipped:
                    if name in rng_values or rng_named(name):
                        yield self.project_finding(
                            function.path, call.line, call.col,
                            f"generator {name!r} passed through "
                            f"executor.{call.submit_kind}() shares one "
                            "stream across workers; ship per-unit seeds "
                            "and mint the generator inside the kernel",
                            symbol=call.symbol,
                        )


@register
class SeedReusedAcrossUnits(ProjectRule):
    """W402 — a loop builds every unit's generator from one seed."""

    id = "W402"
    title = "loop-invariant seed reused across units"
    severity = "error"
    rationale = (
        "Constructing a generator inside a per-unit loop from a seed "
        "with no per-iteration component gives every unit the same "
        "stream: units become copies, not samples.  The seed material "
        "must include the unit key (stream_seed(root, day, bs)).  "
        "Detected through call boundaries: an argument that reaches a "
        "seed position of the callee counts as seed material."
    )

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        """Flag in-loop generator construction from invariant seeds."""
        flow = project.dataflow()
        for function in project.functions_under(*PROVENANCE_DIRS):
            for call in function.calls:
                if not call.in_loop:
                    continue
                seeds = list(self._seed_arguments(project, flow, call))
                if not seeds:
                    continue
                invariant = [
                    name if name is not None else "<literal>"
                    for name, const in seeds
                    if const or (
                        name is not None and name not in call.loop_bound
                    )
                ]
                if len(invariant) != len(seeds):
                    continue
                yield self.project_finding(
                    function.path, call.line, call.col,
                    f"seed material ({', '.join(sorted(set(invariant)))}) "
                    f"feeding {_short(call.callee)}() never varies across "
                    "loop iterations: every unit replays the same stream; "
                    "fold the unit key into the seed",
                    symbol=call.symbol,
                )

    @staticmethod
    def _seed_arguments(
        project: ProjectGraph, flow: DataflowResult, call: CallSite
    ) -> Iterator[tuple[str | None, bool]]:
        """(identifier, is-constant) of each seed-position argument."""
        if call.callee in SEED_SINK_CALLEES:
            for index, name in enumerate(call.args):
                yield name, call.const_args[index]
            for keyword, name in call.keywords:
                if keyword == "seed":
                    yield name, name is None
            return
        callee = project.functions.get(call.callee or "")
        if callee is None:
            return
        sinks = flow.seed_params.get(callee.qualname, frozenset())
        if not sinks:
            return
        params = callee.effective_params()
        for index, name in enumerate(call.args):
            if index < len(params) and params[index] in sinks:
                yield name, call.const_args[index]
        for keyword, name in call.keywords:
            if keyword in sinks:
                yield name, name is None


@register
class SharedRngBehindCall(ProjectRule):
    """W403 — a shared RNG drawn, directly or through calls, in a view loop."""

    id = "W403"
    title = "shared RNG drawn inside a collection loop"
    severity = "error"
    rationale = (
        "Draws from one Generator inside a loop over dict views make "
        "every unit's samples depend on the container's iteration order "
        "and on all units before it — the coupling the per-(day, BS) "
        "seed streams removed.  Two spellings are flagged at any call in "
        "the loop: an rng-named argument (rng, *_rng) bound outside the "
        "loop, and any shared value handed to a function that "
        "(transitively, per the dataflow fixpoint) draws from that "
        "parameter.  Derive a fresh rng per unit from stream_rng() instead."
    )

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        """Flag shared generators consumed by calls inside view loops."""
        flow = project.dataflow()
        for function in project.functions_under(*PROVENANCE_DIRS):
            for call in function.calls:
                if not call.in_view_loop:
                    continue
                seen: set[str] = set()
                for name, message in self._consumed(project, flow, call):
                    if name in call.loop_bound or name in seen:
                        continue
                    seen.add(name)
                    yield self.project_finding(
                        function.path, call.line, call.col, message,
                        symbol=call.symbol,
                    )

    @staticmethod
    def _consumed(
        project: ProjectGraph, flow: DataflowResult, call: CallSite
    ) -> Iterator[tuple[str, str]]:
        """(argument, message) of each generator the call may draw from."""
        callee = project.functions.get(call.callee or "")
        if callee is not None:
            draws = flow.draws_from(callee.qualname)
            for caller_name, callee_param in arg_bindings(call, callee):
                if callee_param in draws:
                    yield caller_name, (
                        f"shared generator {caller_name!r} is consumed by "
                        f"{callee.name}() (which draws from parameter "
                        f"{callee_param!r}) inside a dict-view loop; "
                        "results couple to iteration order — derive a "
                        "per-unit stream instead"
                    )
        for name in list(call.args) + [value for _, value in call.keywords]:
            if name is not None and rng_named(name):
                yield name, (
                    f"shared generator {name!r} consumed inside a "
                    "dict-view loop couples results to iteration order; "
                    "derive a per-unit seed stream"
                )
