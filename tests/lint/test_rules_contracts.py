"""C-series fixtures: cross-artifact contract drift.

Artifacts are injected directly into the graph, mirroring how the
driver loads them from the repository root; an absent artifact means
"nothing to check against", so exported subtrees lint clean.
"""

from __future__ import annotations

from .helpers import run_project_rule

CLI = "src/repro/cli.py"
USAGE = "docs/USAGE.md"
OBS = "docs/OBSERVABILITY.md"


class TestC602CliUsageDrift:
    CLI_SOURCE = """
        import argparse

        def build():
            p = argparse.ArgumentParser()
            p.add_argument("--seed", type=int)
            p.add_argument("--chunk-size", type=int)
            return p
    """

    def test_documented_flags_are_clean(self):
        findings = run_project_rule(
            "C602",
            {CLI: self.CLI_SOURCE},
            {USAGE: "Use `--seed N` and `--chunk-size SESSIONS`."},
        )
        assert findings == []

    def test_undocumented_flag(self):
        findings = run_project_rule(
            "C602",
            {CLI: self.CLI_SOURCE},
            {USAGE: "Only `--seed` is described here."},
        )
        assert len(findings) == 1
        assert "'--chunk-size'" in findings[0].message

    def test_prefix_mention_does_not_count(self):
        """``--chunk-size-hint`` in the doc documents a different flag."""
        findings = run_project_rule(
            "C602",
            {CLI: self.CLI_SOURCE},
            {USAGE: "`--seed` and `--chunk-size-hint` are flags."},
        )
        assert len(findings) == 1

    def test_missing_artifact_flags_everything(self):
        findings = run_project_rule("C602", {CLI: self.CLI_SOURCE}, {})
        assert len(findings) == 2


class TestC603MetricDocDrift:
    def test_direct_literal_documented(self):
        findings = run_project_rule(
            "C603",
            {
                "src/repro/obs/inst.py": """
                def tick(registry):
                    registry.counter("gen.sessions").inc()
                """,
            },
            {OBS: "| `gen.sessions` | counter | sessions generated |"},
        )
        assert findings == []

    def test_direct_literal_undocumented(self):
        findings = run_project_rule(
            "C603",
            {
                "src/repro/obs/inst.py": """
                def tick(registry):
                    registry.counter("gen.sessions").inc()
                """,
            },
            {OBS: "no metrics documented here"},
        )
        assert len(findings) == 1
        assert "'gen.sessions'" in findings[0].message

    def test_prefix_mention_does_not_count(self):
        """``serve.requests.total`` does not document ``serve.requests``."""
        findings = run_project_rule(
            "C603",
            {
                "src/repro/obs/inst.py": """
                def tick(registry):
                    registry.counter("serve.requests").inc()
                """,
            },
            {OBS: "| `serve.requests.total` |"},
        )
        assert len(findings) == 1

    def test_name_through_wrapper_function(self):
        """C603 sees names routed through helpers via the dataflow pass."""
        files = {
            "src/repro/serve/app2.py": """
            class App:
                def __init__(self, metrics):
                    self.metrics = metrics

                def _count(self, name, amount=1):
                    self.metrics.counter(name).inc(amount)

                def handle(self):
                    self._count("serve.hits")
            """,
        }
        assert run_project_rule("C603", files, {OBS: "nothing"}) != []
        assert run_project_rule("C603", files, {OBS: "`serve.hits`"}) == []
