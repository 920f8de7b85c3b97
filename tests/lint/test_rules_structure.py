"""Positive and negative fixtures for every S-series rule."""

from __future__ import annotations

import numpy as np

from repro.dataset import records
from repro.lint.structure import SESSION_TABLE_DTYPES

from .helpers import run_rule


class TestS301SessionTableDtype:
    """S301 pins explicit column dtypes to the canonical schema."""

    def test_flags_widened_column(self):
        """``bs_id`` built as int64 contradicts the int32 schema."""
        bad = """
            import numpy as np
            from repro.dataset.records import SessionTable

            def build(n):
                return SessionTable(
                    bs_id=np.full(n, 7, dtype=np.int64),
                )
        """
        found = run_rule("S301", bad)
        assert len(found) == 1
        assert "bs_id" in found[0].message

    def test_allows_schema_dtype(self):
        """The schema dtype passes, and implicit dtypes are out of scope."""
        good = """
            import numpy as np
            from repro.dataset.records import SessionTable

            def build(n, starts):
                return SessionTable(
                    bs_id=np.full(n, 7, dtype=np.int32),
                    day=np.full(n, 1, dtype=np.int16),
                    start_minute=starts,
                )
        """
        assert run_rule("S301", good) == []

    def test_out_of_scope_ignored(self):
        """tests/ may build odd tables on purpose."""
        bad = """
            import numpy as np
            from repro.dataset.records import SessionTable
            t = SessionTable(day=np.full(3, 1, dtype=np.int64))
        """
        assert run_rule("S301", bad, "tools/x.py") == []

    def test_mirror_matches_records_schema(self):
        """The rule's canonical spelling of each column is the real dtype."""
        assert list(SESSION_TABLE_DTYPES) == list(records.SCHEMA_DTYPES)
        for column, allowed in SESSION_TABLE_DTYPES.items():
            spelled = allowed[0].removeprefix("numpy.")
            assert np.dtype(spelled) == records.SCHEMA_DTYPES[column], column


class TestS302TelemetryEventShape:
    """S302 checks sink.write dict literals against EVENT_FIELDS."""

    def test_flags_unknown_event_type(self):
        """An event type absent from the schema fails validation later."""
        bad = """
            def emit(sink):
                sink.write({"type": "spam", "text": "hi"})
        """
        found = run_rule("S302", bad, "src/repro/obs/x.py")
        assert len(found) == 1
        assert "spam" in found[0].message

    def test_flags_unknown_field(self):
        """A misspelled field on a known type is flagged at the field."""
        bad = """
            def emit(sink):
                sink.write({"type": "message", "level": "info",
                            "text": "hi", "colour": "red"})
        """
        found = run_rule("S302", bad, "src/repro/obs/x.py")
        assert len(found) == 1
        assert "colour" in found[0].message

    def test_flags_missing_required_field(self):
        """A literal missing a required field ships invalid streams."""
        bad = """
            def emit(sink):
                sink.write({"type": "message", "level": "info"})
        """
        found = run_rule("S302", bad, "src/repro/obs/x.py")
        assert len(found) == 1
        assert "text" in found[0].message

    def test_allows_schema_conforming_event(self):
        """A complete, correctly-spelled literal passes."""
        good = """
            def emit(sink):
                sink.write({"type": "message", "level": "info", "text": "hi"})
        """
        assert run_rule("S302", good, "src/repro/obs/x.py") == []

    def test_unpack_skips_required_check(self):
        """``**extra`` may supply required fields; only literals checked."""
        good = """
            def emit(sink, extra):
                sink.write({"type": "message", **extra})
        """
        assert run_rule("S302", good, "src/repro/obs/x.py") == []

    def test_non_sink_receiver_ignored(self):
        """``fh.write({...})`` on a non-sink name is not an event."""
        good = """
            def emit(fh):
                fh.write({"type": "spam"})
        """
        assert run_rule("S302", good, "src/repro/obs/x.py") == []


class TestS303TestImportInLibrary:
    """S303 keeps the src → tests dependency arrow one-way."""

    def test_flags_tests_import(self):
        """``from tests.x import y`` breaks every installed copy."""
        bad = "from tests.conftest import campaign\n"
        assert len(run_rule("S303", bad)) == 1

    def test_flags_benchmarks_import(self):
        """benchmarks/ is repo-only too."""
        assert len(run_rule("S303", "import benchmarks.bench_x\n")) == 1

    def test_allows_library_imports(self):
        """Intra-package imports are the normal case."""
        good = """
            from repro.dataset.records import SessionTable
            import numpy as np
        """
        assert run_rule("S303", good) == []

    def test_tests_importing_tests_ignored(self):
        """tests/ importing tests/ is out of scope (src only)."""
        src = "from tests.lint.helpers import run_rule\n"
        assert run_rule("S303", src, "tests/lint/test_x.py") == []


class TestS304SysPath:
    """S304 bans sys.path surgery in the shipped package."""

    def test_flags_append(self):
        """``sys.path.append`` makes imports depend on call order."""
        bad = """
            import sys
            sys.path.append("..")
        """
        assert len(run_rule("S304", bad)) == 1

    def test_flags_rebind(self):
        """Rebinding ``sys.path`` wholesale is the same hazard."""
        bad = """
            import sys
            sys.path = ["/tmp"]
        """
        assert len(run_rule("S304", bad)) == 1

    def test_allows_read(self):
        """Reading sys.path is harmless."""
        good = """
            import sys
            first = sys.path[0]
        """
        assert run_rule("S304", good) == []

    def test_tools_out_of_scope(self):
        """Scripts may bootstrap their import path."""
        src = """
            import sys
            sys.path.insert(0, "src")
        """
        assert run_rule("S304", src, "tools/demo.py") == []


class TestS305PrintInCompute:
    """S305 routes compute-layer output through telemetry."""

    def test_flags_print(self):
        """A stray print() bypasses verbosity flags and JSON logging."""
        bad = """
            def fit(x):
                print("fitting", x)
                return x
        """
        found = run_rule("S305", bad)
        assert len(found) == 1
        assert found[0].severity == "warning"

    def test_cli_layer_exempt(self):
        """The CLI prints deliberately."""
        src = "print('usage: ...')\n"
        assert run_rule("S305", src, "src/repro/cli.py") == []
