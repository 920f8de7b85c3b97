"""Positive and negative fixtures for every D-series rule."""

from __future__ import annotations

from .helpers import run_rule

#: A hot-path file D105 scopes on.
HOT_PATH = "src/repro/core/generator.py"


class TestD101ModuleLevelNumpyRandom:
    """D101 flags legacy global-RandomState draws, however spelled."""

    def test_flags_np_alias_seed(self):
        """``np.random.seed`` resolves through the import alias."""
        bad = """
            import numpy as np
            np.random.seed(7)
        """
        assert len(run_rule("D101", bad)) == 1

    def test_flags_from_import_draw(self):
        """``from numpy.random import rand`` is the same global state."""
        bad = """
            from numpy.random import rand
            x = rand(3)
        """
        assert len(run_rule("D101", bad)) == 1

    def test_allows_generator_methods(self):
        """Draws on an explicit Generator instance are the sanctioned path."""
        good = """
            import numpy as np

            def draw(rng: np.random.Generator):
                return rng.normal(size=4)
        """
        assert run_rule("D101", good) == []

    def test_allows_default_rng_constructor(self):
        """``default_rng`` is not a legacy draw (D102 covers seeding)."""
        good = """
            import numpy as np
            rng = np.random.default_rng(1234)
        """
        assert run_rule("D101", good) == []


class TestD102UnseededDefaultRng:
    """D102 flags only the zero-argument ``default_rng()`` form."""

    def test_flags_unseeded(self):
        """No argument means OS entropy."""
        bad = """
            import numpy as np
            rng = np.random.default_rng()
        """
        found = run_rule("D102", bad)
        assert len(found) == 1
        assert found[0].severity == "error"

    def test_allows_seeded(self):
        """Any explicit seed (int or SeedSequence) passes."""
        good = """
            import numpy as np
            a = np.random.default_rng(7)
            b = np.random.default_rng(seed=np.random.SeedSequence(1))
        """
        assert run_rule("D102", good) == []


class TestD103WallClock:
    """D103 bans calendar time in deterministic layers only."""

    def test_flags_time_time_in_core(self):
        """``time.time()`` in src/repro/core is a determinism leak."""
        bad = """
            import time

            def stamp():
                return time.time()
        """
        assert len(run_rule("D103", bad)) == 1

    def test_flags_datetime_now(self):
        """``datetime.now`` is the same leak in datetime clothing."""
        bad = """
            from datetime import datetime
            when = datetime.now()
        """
        assert len(run_rule("D103", bad, "src/repro/io/x.py")) == 1

    def test_allows_monotonic_timers(self):
        """Duration measurement via perf_counter stays legal."""
        good = """
            import time

            def measure():
                return time.perf_counter()
        """
        assert run_rule("D103", good) == []

    def test_out_of_scope_layer_ignored(self):
        """The obs layer may read the wall clock (telemetry timestamps)."""
        bad = """
            import time
            t = time.time()
        """
        assert run_rule("D103", bad, "src/repro/obs/sinks.py") == []


class TestD104StdlibRandom:
    """D104 bans the stdlib random module in deterministic layers."""

    def test_flags_import(self):
        """Plain ``import random``."""
        assert len(run_rule("D104", "import random\n")) == 1

    def test_flags_from_import(self):
        """``from random import choice``."""
        assert len(run_rule("D104", "from random import choice\n")) == 1

    def test_allows_numpy_random(self):
        """``numpy.random`` subpackage import is not the stdlib module."""
        good = """
            import numpy.random
            from numpy.random import default_rng
        """
        assert run_rule("D104", good) == []

    def test_out_of_scope_ignored(self):
        """tools/ scripts may use stdlib random."""
        assert run_rule("D104", "import random\n", "tools/demo.py") == []


class TestD105ImplicitDtype:
    """D105 wants explicit dtypes on np.full/np.arange in hot paths."""

    def test_flags_dtypeless_full(self):
        """``np.full(n, day)`` infers the platform C long."""
        bad = """
            import numpy as np

            def cols(n, day):
                return np.full(n, day)
        """
        found = run_rule("D105", bad, HOT_PATH)
        assert len(found) == 1
        assert found[0].severity == "warning"

    def test_flags_dtypeless_arange(self):
        """``np.arange(1440)`` has the same platform dependence."""
        bad = """
            import numpy as np
            minutes = np.arange(1440)
        """
        assert len(run_rule("D105", bad, HOT_PATH)) == 1

    def test_allows_explicit_dtype(self):
        """Pinning dtype= silences the rule."""
        good = """
            import numpy as np
            minutes = np.arange(1440, dtype=np.int64)
            days = np.full(10, 3, dtype=np.int16)
        """
        assert run_rule("D105", good, HOT_PATH) == []

    def test_non_hot_path_ignored(self):
        """Analysis code may let numpy infer dtypes."""
        bad = """
            import numpy as np
            x = np.arange(10)
        """
        assert run_rule("D105", bad, "src/repro/analysis/x.py") == []


class TestD107GzipMtime:
    """D107 wants ``mtime=`` pinned on every library gzip write."""

    def test_flags_gzip_open_write(self):
        """``gzip.open(path, "wt")`` embeds the wall clock."""
        bad = """
            import gzip

            def dump(path, text):
                with gzip.open(path, "wt") as fh:
                    fh.write(text)
        """
        assert len(run_rule("D107", bad, "src/repro/io/x.py")) == 1

    def test_flags_gzipfile_keyword_mode(self):
        """``GzipFile(..., mode="wb")`` without mtime is the same bug."""
        bad = """
            import gzip
            fh = gzip.GzipFile("out.gz", mode="wb")
        """
        assert len(run_rule("D107", bad, "src/repro/io/x.py")) == 1

    def test_allows_pinned_mtime(self):
        """``mtime=0`` makes the header byte-deterministic."""
        good = """
            import gzip
            fh = gzip.GzipFile("out.gz", mode="wb", mtime=0)
        """
        assert run_rule("D107", good, "src/repro/io/x.py") == []

    def test_allows_read_mode(self):
        """Readers have no header to pin."""
        good = """
            import gzip
            with gzip.open("in.gz", "rt") as fh:
                fh.read()
        """
        assert run_rule("D107", good, "src/repro/io/x.py") == []
