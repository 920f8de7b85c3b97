"""Documentation integrity tests.

The docs are part of the deliverable: the API reference generator must run
and cover the package, and every public item must carry a docstring.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro


def iter_public_items():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(importlib.import_module(info.name))
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not inspect.getdoc(module):
                missing.append(info.name)
        assert missing == []

    def test_every_public_item_has_a_docstring(self):
        missing = [
            name for name, obj in iter_public_items() if not inspect.getdoc(obj)
        ]
        assert missing == []

    def test_every_public_method_has_a_docstring(self):
        missing = []
        for name, obj in iter_public_items():
            if not inspect.isclass(obj):
                continue
            for member_name, member in vars(obj).items():
                if member_name.startswith("_"):
                    continue
                target = member
                if isinstance(member, (classmethod, staticmethod)):
                    target = member.__func__
                elif isinstance(member, property):
                    target = member.fget
                elif not inspect.isfunction(member):
                    continue
                if target is not None and not inspect.getdoc(target):
                    missing.append(f"{name}.{member_name}")
        assert missing == []


class TestApiDocGenerator:
    def test_generator_runs_and_covers_layers(self, tmp_path, monkeypatch):
        import tools.gen_api_docs as gen

        output = tmp_path / "API.md"
        monkeypatch.setattr(gen, "OUTPUT", output)
        gen.main()
        text = output.read_text()
        for module in (
            "repro.core.volume_model",
            "repro.dataset.simulator",
            "repro.usecases.vran.binpacking",
            "repro.io.traces",
        ):
            assert f"## `{module}`" in text

    def test_committed_reference_is_current(self, tmp_path, monkeypatch):
        """Regenerate with ``python tools/gen_api_docs.py`` on mismatch."""
        import tools.gen_api_docs as gen

        output = tmp_path / "API.md"
        monkeypatch.setattr(gen, "OUTPUT", output)
        gen.main()
        committed = Path(__file__).resolve().parent.parent / "docs" / "API.md"
        assert committed.read_text() == output.read_text()


class TestReportGenerator:
    def test_report_builds_from_artifacts(self, tmp_path, monkeypatch):
        import tools.gen_report as gen

        output_dir = tmp_path / "output"
        output_dir.mkdir()
        (output_dir / "fig03_arrivals.txt").write_text("rows here\n")
        (output_dir / "custom_extra.txt").write_text("extra artefact\n")
        report = tmp_path / "REPORT.md"
        monkeypatch.setattr(gen, "OUTPUT_DIR", output_dir)
        monkeypatch.setattr(gen, "REPORT", report)
        gen.main()
        text = report.read_text()
        assert "Fig 3" in text
        assert "rows here" in text
        assert "custom_extra" in text  # unlisted artefacts appended

    def test_report_requires_artifacts(self, tmp_path, monkeypatch):
        import pytest
        import tools.gen_report as gen

        monkeypatch.setattr(gen, "OUTPUT_DIR", tmp_path / "absent")
        with pytest.raises(SystemExit):
            gen.main()
