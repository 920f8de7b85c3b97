"""C-series rules: cross-artifact contract drift.

The repository ships human-readable contracts next to the code they
describe: the CLI reference in ``docs/USAGE.md`` and the metric-name
tables in ``docs/OBSERVABILITY.md``.  Each drifts one PR at a time — a
flag without a usage line, a counter without a table row.  These rules
pin the documents to the code by comparing harvested literals (and
names recovered through the metric dataflow) against the checked-in
files on every lint run.  (The OpenAPI document is pinned by the serve
test suite, which drives every documented and every served route.)
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .graph import MetricLiteral, ProjectGraph
from .rules import Finding, ProjectRule, register

#: The CLI module whose ``add_argument`` flags define the command surface.
CLI_MODULE = "src/repro/cli.py"

#: The CLI reference document flags must appear in.
USAGE_ARTIFACT = "docs/USAGE.md"

#: The metric-name reference document instrumented names must appear in.
OBSERVABILITY_ARTIFACT = "docs/OBSERVABILITY.md"


def _mentions(text: str, token: str) -> bool:
    """Whether ``token`` appears in ``text`` as a whole word.

    The following character (if any) must not extend the token —
    ``--follow`` in the text does not document ``--follow-timeout``.
    """
    pattern = re.escape(token) + r"(?![A-Za-z0-9_.\-])"
    return re.search(pattern, text) is not None


@register
class CliUsageDrift(ProjectRule):
    """C602 — a ``repro-traffic`` flag undocumented in USAGE.md."""

    id = "C602"
    title = "CLI flag missing from docs/USAGE.md"
    severity = "error"
    rationale = (
        "docs/USAGE.md is the only place a user can discover the "
        "command surface without reading argparse wiring; every "
        "long-form flag cli.py registers must appear there verbatim.  "
        "The whole-program pass harvests add_argument literals, so a "
        "new flag fails review until its documentation lands with it."
    )

    artifacts = (USAGE_ARTIFACT,)

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        """Flag add_argument long options absent from the usage doc."""
        module = project.modules.get(CLI_MODULE)
        if module is None or not module.flag_literals:
            return
        usage = project.artifact(USAGE_ARTIFACT) or ""
        seen: set[str] = set()
        for flag, line, col in module.flag_literals:
            if flag in seen:
                continue
            seen.add(flag)
            if not _mentions(usage, flag):
                yield self.project_finding(
                    CLI_MODULE, line, col,
                    f"flag {flag!r} is not documented in "
                    f"{USAGE_ARTIFACT}; add it to the command's usage "
                    "section",
                    symbol="<module>",
                )


@register
class MetricDocDrift(ProjectRule):
    """C603 — an instrumented metric name undocumented."""

    id = "C603"
    title = "metric name missing from docs/OBSERVABILITY.md"
    severity = "error"
    rationale = (
        "Dashboards and the CI telemetry smoke test are written "
        "against docs/OBSERVABILITY.md's metric tables; an instrumented "
        "name the document omits is invisible operational surface.  "
        "Names are harvested at counter()/gauge()/histogram() call "
        "sites and — via the dataflow pass — through wrapper functions "
        "whose parameter reaches the name position, so helpers like "
        "ServeApp._count cannot hide a metric."
    )

    artifacts = (OBSERVABILITY_ARTIFACT,)

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        """Flag instrumented metric names the document omits."""
        doc = project.artifact(OBSERVABILITY_ARTIFACT) or ""
        reported: set[str] = set()
        for literal, path in self._instrumented_names(project):
            if literal.name in reported:
                continue
            if _mentions(doc, literal.name):
                reported.add(literal.name)
                continue
            reported.add(literal.name)
            yield self.project_finding(
                path, literal.line, literal.col,
                f"metric {literal.name!r} is instrumented here but "
                f"missing from {OBSERVABILITY_ARTIFACT}; add it to the "
                "matching instrument table",
                symbol=literal.symbol,
            )

    @staticmethod
    def _instrumented_names(
        project: ProjectGraph,
    ) -> Iterator[tuple[MetricLiteral, str]]:
        """Every literal metric name, direct or through a wrapper."""
        flow = project.dataflow()
        for module in project.modules_under("src"):
            for literal in module.metric_literals:
                yield literal, module.path
            for function in module.functions:
                for call in function.calls:
                    callee = project.functions.get(call.callee or "")
                    if callee is None:
                        continue
                    sinks = flow.metric_params.get(
                        callee.qualname, frozenset()
                    )
                    if not sinks:
                        continue
                    params = callee.effective_params()
                    for index, value in enumerate(call.string_args):
                        if (
                            value is not None
                            and index < len(params)
                            and params[index] in sinks
                        ):
                            yield (
                                MetricLiteral(
                                    name=value,
                                    line=call.line,
                                    col=call.col,
                                    symbol=call.symbol,
                                ),
                                module.path,
                            )
