"""Tests for the model-driven traffic generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrivals import ArrivalModel
from repro.core.generator import (
    GeneratorError,
    TrafficGenerator,
    generate_campaign_reference,
    unit_rng,
    unit_seed,
)
from repro.core.service_mix import ServiceMix
from repro.dataset.circadian import peak_minute_mask
from repro.dataset.records import SERVICE_NAMES, SessionTable
from repro.io.spool import SEGMENT_SUFFIX
from repro.pipeline.executors import make_executor


@pytest.fixture(scope="module")
def generator(bank):
    arrival = ArrivalModel(peak_mu=10.0, peak_sigma=1.0, night_scale=1.2)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator({0: arrival, 1: arrival}, mix, bank)


class TestConstruction:
    def test_requires_arrival_models(self, bank):
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        with pytest.raises(GeneratorError):
            TrafficGenerator({}, mix, bank)

    def test_mix_must_be_covered_by_bank(self, bank):
        # Uber is too rare in the small fixture campaign to be fitted.
        uncovered = [n for n in SERVICE_NAMES if n not in bank]
        if not uncovered:
            pytest.skip("fixture bank covers every service")
        mix = ServiceMix({uncovered[0]: 1.0})
        arrival = ArrivalModel(5.0, 0.5, 0.6)
        with pytest.raises(GeneratorError):
            TrafficGenerator({0: arrival}, mix, bank)


class TestGeneration:
    def test_day_table_schema(self, generator):
        day = generator.generate_bs_day(0, 0, np.random.default_rng(0))
        table = day.table
        assert len(table) == int(day.minute_counts.sum())
        assert np.all(table.bs_id == 0)
        assert np.all(table.day == 0)
        assert np.all(table.volume_mb > 0)
        assert np.all(table.duration_s >= 1.0)

    def test_day_counts_follow_arrival_model(self, generator):
        day = generator.generate_bs_day(0, 0, np.random.default_rng(1))
        mask = peak_minute_mask()
        assert day.minute_counts[mask].mean() == pytest.approx(10.0, rel=0.1)

    def test_unknown_bs_raises(self, generator):
        with pytest.raises(GeneratorError):
            generator.generate_bs_day(99, 0, np.random.default_rng(0))

    def test_campaign_covers_all_bs_and_days(self, generator):
        table = generator.generate_campaign(2, np.random.default_rng(2))
        assert set(np.unique(table.bs_id)) == {0, 1}
        assert set(np.unique(table.day)) == {0, 1}

    def test_campaign_rejects_zero_days(self, generator):
        with pytest.raises(GeneratorError):
            generator.generate_campaign(0, np.random.default_rng(0))

    def test_generated_mix_matches_requested(self, generator, bank):
        table = generator.generate_campaign(1, np.random.default_rng(3))
        fb = SERVICE_NAMES.index("Facebook")
        share = float((table.service_idx == fb).mean())
        expected = generator.mix.probability("Facebook")
        assert share == pytest.approx(expected, abs=0.02)


@pytest.fixture(scope="module")
def tiny_generator(bank):
    """Low-rate generator keeping determinism tests fast."""
    arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator({0: arrival, 3: arrival, 7: arrival}, mix, bank)


def _tables_identical(a, b) -> bool:
    return all(
        getattr(a, col).dtype == getattr(b, col).dtype
        and np.array_equal(getattr(a, col), getattr(b, col))
        for col in a.COLUMNS
    )


class TestSeedStreams:
    """The satellite bugfix: per-(day, BS) spawned seed streams."""

    def test_serial_matches_parallel(self, tiny_generator):
        serial = tiny_generator.generate_campaign(2, 11)
        with make_executor(2) as executor:
            parallel = tiny_generator.generate_campaign(
                2, 11, executor=executor
            )
        assert _tables_identical(serial, parallel)

    def test_independent_of_arrival_dict_order(self, bank, tiny_generator):
        models = tiny_generator.arrival_models
        reordered = TrafficGenerator(
            dict(sorted(models.items(), reverse=True)),
            tiny_generator.mix,
            bank,
        )
        assert _tables_identical(
            tiny_generator.generate_campaign(2, 11),
            reordered.generate_campaign(2, 11),
        )

    def test_int_seed_is_deterministic(self, tiny_generator):
        assert _tables_identical(
            tiny_generator.generate_campaign(1, 5),
            tiny_generator.generate_campaign(1, 5),
        )

    def test_generator_seed_is_deterministic(self, tiny_generator):
        assert _tables_identical(
            tiny_generator.generate_campaign(1, np.random.default_rng(5)),
            tiny_generator.generate_campaign(1, np.random.default_rng(5)),
        )

    def test_unit_regenerates_its_campaign_slice(self, tiny_generator):
        campaign = tiny_generator.generate_campaign(2, 11)
        rng = unit_rng(11, 1, 3)
        day = tiny_generator.generate_bs_day(3, 1, rng)
        sliced = campaign.select((campaign.day == 1) & (campaign.bs_id == 3))
        assert _tables_identical(day.table, sliced)


class TestChunking:
    def test_chunked_equals_unchunked(self, tiny_generator):
        whole = tiny_generator.generate_campaign(2, 11)
        chunks = list(
            tiny_generator.iter_campaign_chunks(2, 11, chunk_sessions=500)
        )
        assert len(chunks) > 1, "workload must span several chunks"
        chunked = SessionTable.concatenate([c.table for c in chunks])
        assert _tables_identical(whole, chunked)

    def test_chunks_cover_canonical_units_in_order(self, tiny_generator):
        chunks = list(
            tiny_generator.iter_campaign_chunks(2, 11, chunk_sessions=500)
        )
        units = [unit for chunk in chunks for unit in chunk.units]
        assert units == tiny_generator.campaign_units(2)
        assert [c.index for c in chunks] == list(range(len(chunks)))
        assert all(c.n_chunks == len(chunks) for c in chunks)

    def test_plan_respects_expected_budget(self, tiny_generator):
        per_unit = tiny_generator.expected_unit_sessions(0)
        budget = int(per_unit * 2.5)
        plan = tiny_generator.plan_chunks(3, budget)
        assert all(len(chunk) <= 2 for chunk in plan)
        assert sum(len(chunk) for chunk in plan) == 9

    def test_single_unit_over_budget_still_runs(self, tiny_generator):
        plan = tiny_generator.plan_chunks(1, 1)
        assert all(len(chunk) == 1 for chunk in plan)

    def test_invalid_chunk_budget_rejected(self, tiny_generator):
        with pytest.raises(GeneratorError):
            tiny_generator.plan_chunks(1, 0)


class TestSchema:
    """The satellite bugfix: exact dtypes and day-boundary truncation."""

    def test_generated_dtypes_match_session_table_schema(self, generator):
        table = generator.generate_bs_day(0, 0, np.random.default_rng(0)).table
        assert table.service_idx.dtype == np.int16
        assert table.bs_id.dtype == np.int32
        assert table.day.dtype == np.int16
        assert table.start_minute.dtype == np.int16
        assert table.duration_s.dtype == np.float32
        assert table.volume_mb.dtype == np.float32
        assert table.truncated.dtype == np.bool_

    def test_truncated_flags_day_boundary_sessions(self, generator):
        table = generator.generate_campaign(1, 13)
        crossing = (
            table.start_minute.astype(np.float64) * 60.0 + table.duration_s
            > 86400.0
        )
        assert np.array_equal(table.truncated, crossing)

    def test_boundary_crossing_sessions_are_marked(self, bank):
        # A duration model mapping every volume to ~10^6 s guarantees each
        # session crosses the day boundary.
        from repro.core.distributions import LogNormal10
        from repro.core.duration_model import PowerLawModel
        from repro.core.model_bank import ModelBank
        from repro.core.service_model import SessionLevelModel
        from repro.core.volume_model import VolumeModel

        long_bank = ModelBank()
        long_bank.add(
            SessionLevelModel(
                service="Facebook",
                volume=VolumeModel(main=LogNormal10(0.0, 0.1)),
                duration=PowerLawModel(alpha=1e-6, beta=1.0, r2=1.0),
            )
        )
        gen = TrafficGenerator(
            {0: ArrivalModel(2.0, 0.5, 0.4)},
            ServiceMix({"Facebook": 1.0}),
            long_bank,
        )
        table = gen.generate_campaign(1, 3)
        assert len(table) > 0
        assert bool(table.truncated.all())
        # The sampled duration itself is kept (distribution fidelity).
        assert float(table.duration_s.min()) > 86400.0


class TestDistributionFidelity:
    """The batched path must sample the same distributions as the old
    per-unit ``sample_mixed_sessions`` loop."""

    def test_service_draws_match_service_mix_exactly(self, generator):
        sampler = generator.sampler()
        drawn = sampler.sample_services(np.random.default_rng(21), 20_000)
        expected = generator.mix.sample(np.random.default_rng(21), 20_000)
        assert np.array_equal(drawn, expected)

    def test_durations_follow_power_law_inverse(self, generator, bank):
        table = generator.generate_campaign(1, 17)
        for service in bank.services():
            sub = table.for_service(service)
            if not len(sub):
                continue
            model = bank.get(service)
            expected = np.maximum(
                model.duration.duration_for_volume_s(
                    sub.volume_mb.astype(np.float64)
                ),
                1.0,
            )
            np.testing.assert_allclose(
                sub.duration_s, expected, rtol=1e-3
            )

    def test_volume_distribution_matches_reference_path(self, generator):
        from repro.analysis.emd import emd
        from repro.analysis.histogram import LogHistogram

        batched = generator.generate_campaign(2, 23)
        reference = generate_campaign_reference(
            generator, 2, np.random.default_rng(23)
        )
        old = LogHistogram.from_volumes(
            reference.for_service("Facebook").volume_mb
        )
        new = LogHistogram.from_volumes(
            batched.for_service("Facebook").volume_mb
        )
        assert emd(old, new) < 0.1

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_any_seed_yields_schema_valid_reproducible_day(
        self, generator, seed
    ):
        first = generator.generate_bs_day(1, 0, unit_rng(seed, 0, 1))
        second = generator.generate_bs_day(1, 0, unit_rng(seed, 0, 1))
        assert _tables_identical(first.table, second.table)
        assert np.all(first.table.duration_s >= 1.0)
        assert np.all(first.table.volume_mb > 0)


class TestSpooling:
    def test_spool_roundtrip_matches_direct_generation(
        self, tiny_generator, tmp_path
    ):
        from repro.io.cache import ArtifactCache

        cache = ArtifactCache(tmp_path)
        manifest = tiny_generator.spool_campaign(
            2, 11, cache, chunk_sessions=500
        )
        direct = tiny_generator.generate_campaign(2, 11)
        assert manifest.n_sessions == len(direct)
        assert manifest.total_volume_mb == pytest.approx(
            direct.total_volume_mb(), rel=1e-6
        )
        assert _tables_identical(manifest.load(cache), direct)

    def test_spool_resumes_from_cached_chunks(self, tiny_generator, tmp_path):
        from repro.io.cache import ArtifactCache

        cache = ArtifactCache(tmp_path)
        first = tiny_generator.spool_campaign(2, 11, cache, chunk_sessions=500)
        stamps = {
            key: cache.path_for(first.kind, key, SEGMENT_SUFFIX).stat().st_mtime_ns
            for key in first.chunk_keys
        }
        second = tiny_generator.spool_campaign(
            2, 11, cache, chunk_sessions=500
        )
        assert second.chunk_keys == first.chunk_keys
        assert second.n_sessions == first.n_sessions
        for key in second.chunk_keys:
            # untouched on the second run: chunks were loaded, not rebuilt
            assert (
                cache.path_for(second.kind, key, SEGMENT_SUFFIX).stat().st_mtime_ns
                == stamps[key]
            )

    def test_different_seeds_spool_under_different_keys(
        self, tiny_generator, tmp_path
    ):
        from repro.io.cache import ArtifactCache

        cache = ArtifactCache(tmp_path)
        a = tiny_generator.spool_campaign(1, 11, cache)
        b = tiny_generator.spool_campaign(1, 12, cache)
        assert set(a.chunk_keys).isdisjoint(b.chunk_keys)
