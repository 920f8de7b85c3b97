"""W-series fixtures: interprocedural RNG and seed provenance.

Each rule gets a bad fixture that must fire and a good fixture encoding
the sanctioned pattern that must stay silent — including the
interprocedural variants the per-file D rules cannot see.
"""

from __future__ import annotations

from .helpers import run_project_rule


class TestW401RngEscapesToWorker:
    def test_rng_named_argument_at_submit_site(self):
        findings = run_project_rule(
            "W401",
            {
                "src/repro/core/fan.py": """
                import numpy as np
                from repro.pipeline.executors import make_executor

                def kernel(rng):
                    return rng.normal()

                def fan_out(seed):
                    rng = np.random.default_rng(seed)
                    with make_executor(2) as executor:
                        executor.submit(kernel, rng)
                """,
            },
        )
        assert len(findings) == 1
        assert findings[0].path == "src/repro/core/fan.py"
        assert "executor.submit" in findings[0].message

    def test_generator_valued_local_with_innocent_name(self):
        findings = run_project_rule(
            "W401",
            {
                "src/repro/core/fan.py": """
                import numpy as np
                from repro.pipeline.executors import make_executor

                def kernel(source):
                    return source.normal()

                def fan_out(seed):
                    source = np.random.default_rng(seed)
                    with make_executor(2) as executor:
                        executor.map(kernel, source)
                """,
            },
        )
        assert len(findings) == 1

    def test_generator_through_returning_helper(self):
        findings = run_project_rule(
            "W401",
            {
                "src/repro/core/fan.py": """
                import numpy as np
                from repro.pipeline.executors import make_executor

                def mint(seed):
                    return np.random.default_rng(seed)

                def kernel(stream):
                    return stream.normal()

                def fan_out(seed):
                    stream = mint(seed)
                    with make_executor(2) as executor:
                        executor.submit(kernel, stream)
                """,
            },
        )
        assert len(findings) == 1

    def test_shipping_seeds_is_clean(self):
        findings = run_project_rule(
            "W401",
            {
                "src/repro/core/fan.py": """
                import numpy as np
                from repro.pipeline.executors import make_executor

                def kernel(unit_seed):
                    rng = np.random.default_rng(unit_seed)
                    return rng.normal()

                def fan_out(seed):
                    with make_executor(2) as executor:
                        executor.submit(kernel, seed)
                """,
            },
        )
        assert findings == []


class TestW402SeedReusedAcrossUnits:
    def test_invariant_seed_in_loop(self):
        findings = run_project_rule(
            "W402",
            {
                "src/repro/core/units.py": """
                import numpy as np

                def run(seed):
                    out = []
                    for day in range(3):
                        rng = np.random.default_rng(seed)
                        out.append(rng.normal())
                    return out
                """,
            },
        )
        assert len(findings) == 1
        assert "never varies" in findings[0].message

    def test_invariant_seed_through_helper(self):
        findings = run_project_rule(
            "W402",
            {
                "src/repro/campaign/units.py": """
                import numpy as np

                def mint(seed):
                    return np.random.default_rng(seed)

                def run(seed):
                    out = []
                    for day in range(3):
                        rng = mint(seed)
                        out.append(rng.normal())
                    return out
                """,
            },
        )
        assert len(findings) == 1

    def test_loop_varying_seed_is_clean(self):
        findings = run_project_rule(
            "W402",
            {
                "src/repro/core/units.py": """
                import numpy as np

                def mint(seed):
                    return np.random.default_rng(seed)

                def run(seeds):
                    out = []
                    for unit_seed in seeds:
                        rng = mint(unit_seed)
                        out.append(rng.normal())
                    return out
                """,
            },
        )
        assert findings == []

    def test_unknown_seed_expression_is_clean(self):
        """Computed seed material (a call) may vary — stay silent."""
        findings = run_project_rule(
            "W402",
            {
                "src/repro/core/units.py": """
                import numpy as np
                from repro.pipeline.context import stream_seed

                def run(seed):
                    for day in range(3):
                        rng = np.random.default_rng(stream_seed(seed, day))
                        rng.normal()
                """,
            },
        )
        assert findings == []


class TestW403SharedRngBehindCall:
    def test_shared_value_drawn_through_helper_in_view_loop(self):
        findings = run_project_rule(
            "W403",
            {
                "src/repro/campaign/sweep.py": """
                def helper(gen):
                    return gen.normal()

                def run(units, gen):
                    out = {}
                    for key, cfg in units.items():
                        out[key] = helper(gen)
                    return out
                """,
            },
        )
        assert len(findings) == 1
        assert "helper()" in findings[0].message

    def test_draw_two_calls_deep(self):
        findings = run_project_rule(
            "W403",
            {
                "src/repro/campaign/sweep.py": """
                def inner(gen):
                    return gen.uniform()

                def outer(gen):
                    return inner(gen)

                def run(units, gen):
                    out = {}
                    for key in units.keys():
                        out[key] = outer(gen)
                    return out
                """,
            },
        )
        assert len(findings) == 1

    def test_per_unit_value_is_clean(self):
        findings = run_project_rule(
            "W403",
            {
                "src/repro/campaign/sweep.py": """
                def helper(gen):
                    return gen.normal()

                def run(units):
                    out = {}
                    for key, gen in units.items():
                        out[key] = helper(gen)
                    return out
                """,
            },
        )
        assert findings == []

    def test_list_iteration_is_clean(self):
        """Order-stable iteration over a list is not a dict-view loop."""
        findings = run_project_rule(
            "W403",
            {
                "src/repro/campaign/sweep.py": """
                def helper(gen):
                    return gen.normal()

                def run(unit_list, gen):
                    return [helper(gen) for _ in unit_list]
                """,
            },
        )
        assert findings == []

    def test_rng_named_arg_flagged_in_core(self):
        """The dataflow case reports once, not again as an rng-named arg."""
        findings = run_project_rule(
            "W403",
            {
                "src/repro/core/sweep.py": """
                def helper(rng):
                    return rng.normal()

                def run(units, rng):
                    out = {}
                    for key, cfg in units.items():
                        out[key] = helper(rng)
                    return out
                """,
            },
        )
        assert len(findings) == 1
        assert "helper()" in findings[0].message

    def test_flags_rng_in_items_loop(self):
        """One rng threaded through ``.items()`` couples unit order."""
        findings = run_project_rule(
            "W403",
            {
                "src/repro/core/sweep.py": """
                def gen(profiles, rng):
                    out = []
                    for name, prof in profiles.items():
                        out.append(prof.sample(rng))
                    return out
                """,
            },
        )
        assert len(findings) == 1
        assert "iteration order" in findings[0].message

    def test_flags_sorted_wrapped_view(self):
        """``sorted(d.items())`` still consumes the shared stream in order."""
        findings = run_project_rule(
            "W403",
            {
                "src/repro/core/sweep.py": """
                def gen(profiles, day_rng):
                    for name, prof in sorted(profiles.items()):
                        prof.sample(day_rng)
                """,
            },
        )
        assert len(findings) == 1

    def test_allows_per_unit_rng(self):
        """An rng derived inside the loop body is the sanctioned pattern."""
        findings = run_project_rule(
            "W403",
            {
                "src/repro/core/sweep.py": """
                import numpy as np

                def gen(profiles, root_seed):
                    for name, prof in profiles.items():
                        unit_rng = np.random.default_rng(
                            seed_for(root_seed, name)
                        )
                        prof.sample(unit_rng)
                """,
            },
        )
        assert findings == []

    def test_allows_rng_in_list_loop(self):
        """Looping a plain list does not trigger the rule."""
        findings = run_project_rule(
            "W403",
            {
                "src/repro/core/sweep.py": """
                def gen(units, rng):
                    for unit in units:
                        unit.sample(rng)
                """,
            },
        )
        assert findings == []
