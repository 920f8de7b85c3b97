"""Sharded campaign driver: planning, byte-identity, empty shards, fidelity.

The load-bearing assertion everywhere is digest equality: the sharded
driver — serial, parallel, resumed, any shard size — must produce the
**byte-identical** merged aggregate of a single-pass aggregation over the
fully materialized campaign.
"""

from __future__ import annotations

import errno

import pytest

from repro.campaign import (
    CampaignAggregate,
    CampaignError,
    plan_shards,
    run_campaign,
)
from repro.campaign.fidelity import (
    AGGREGATE_CLAIMS,
    evaluate_aggregate,
    measure_aggregate,
)
from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.core.service_mix import ServiceMix
from repro.io.cache import ArtifactCache
from repro.pipeline.executors import ParallelExecutor

SEED = 11
DAYS = 2
N_BS = 6

#: HLL precision small enough that checkpoints stay tiny in tests.
P = 10


@pytest.fixture(scope="module")
def generator(bank):
    """A 6-BS generator with a moderate arrival rate."""
    arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator(
        {bs: arrival for bs in range(N_BS)}, mix, bank
    )


@pytest.fixture(scope="module")
def reference(generator):
    """Single-pass aggregate over the fully materialized campaign."""
    table = generator.generate_campaign(DAYS, SEED)
    return CampaignAggregate.from_table(
        table, n_units=N_BS * DAYS, precision=P
    )


class TestPlanShards:
    def test_day_major_ranges(self):
        shards = plan_shards([3, 1, 2], n_days=2, shard_bs=2)
        assert [s.index for s in shards] == [0, 1, 2, 3]
        assert [(s.day, s.bs_ids) for s in shards] == [
            (0, (1, 2)),
            (0, (3,)),
            (1, (1, 2)),
            (1, (3,)),
        ]

    def test_plan_independent_of_bs_order(self):
        assert plan_shards([5, 1, 9], 1, 2) == plan_shards([9, 5, 1], 1, 2)

    def test_units_carry_the_shard_day(self):
        (shard,) = plan_shards([4, 7], 1, 8)
        assert shard.units() == [(0, 4), (0, 7)]

    @pytest.mark.parametrize(
        "bs_ids, n_days, shard_bs",
        [([], 1, 1), ([1], 0, 1), ([1], 1, 0)],
    )
    def test_invalid_plans_rejected(self, bs_ids, n_days, shard_bs):
        with pytest.raises(CampaignError):
            plan_shards(bs_ids, n_days, shard_bs)


class TestByteIdentity:
    @pytest.mark.parametrize("shard_bs", [1, 2, 4, 100])
    def test_any_shard_size_matches_single_pass(
        self, generator, reference, shard_bs
    ):
        result = run_campaign(
            generator, DAYS, SEED, shard_bs=shard_bs, hll_precision=P
        )
        assert result.digest() == reference.digest()

    def test_parallel_matches_serial(self, generator, reference):
        with ParallelExecutor(jobs=2) as executor:
            result = run_campaign(
                generator,
                DAYS,
                SEED,
                shard_bs=2,
                executor=executor,
                hll_precision=P,
            )
        assert result.digest() == reference.digest()

    def test_chunk_budget_never_changes_the_aggregate(
        self, generator, reference
    ):
        tiny = run_campaign(
            generator,
            DAYS,
            SEED,
            shard_bs=3,
            chunk_sessions=200,
            hll_precision=P,
        )
        assert tiny.digest() == reference.digest()

    def test_resume_folds_checkpoints_byte_identically(
        self, generator, reference, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        first = run_campaign(
            generator, DAYS, SEED, shard_bs=2, cache=cache, hll_precision=P
        )
        again = run_campaign(
            generator, DAYS, SEED, shard_bs=2, cache=cache, hll_precision=P
        )
        assert first.computed_shards == first.n_shards
        assert again.resumed_shards == again.n_shards
        assert again.computed_shards == 0
        assert first.digest() == again.digest() == reference.digest()

    def test_no_resume_recomputes_everything(
        self, generator, reference, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        run_campaign(
            generator, DAYS, SEED, shard_bs=2, cache=cache, hll_precision=P
        )
        fresh = run_campaign(
            generator,
            DAYS,
            SEED,
            shard_bs=2,
            cache=cache,
            resume=False,
            hll_precision=P,
        )
        assert fresh.computed_shards == fresh.n_shards
        assert fresh.digest() == reference.digest()

    def test_invalid_chunk_budget_rejected(self, generator):
        with pytest.raises(CampaignError):
            run_campaign(generator, DAYS, SEED, chunk_sessions=0)


class TestPinnedDigest:
    """The fold's output, pinned to bytes recorded before it was optimised.

    ``PINNED_DIGEST`` and ``PINNED_KEYS`` were recorded by running this
    exact campaign (32 decile-swept BSs at a tenth of the decile peak
    rates, one day, root seed 1, 4 shards of 8 BSs, default HLL
    precision) with the straightforward fold — binary-search binning,
    six-step bit length, out-of-place splitmix64 — and per-shard key
    derivation that re-encoded the model bank for every shard, on x86-64
    with numpy 2.4.  Any change to the fold, the fingerprint hash, the
    serialization or the shard-key parts fails here, in tier-1, without
    running the benchmark.
    """

    PINNED_DIGEST = (
        "0adc7f0cdf9271983e8742a668273ee5a81fa5dfe73d63503a6862fb7c4af4a1"
    )
    PINNED_KEYS = [
        "219ae5750532d3968bc5",
        "41b0fa658dee87159026",
        "a63e938bba8416bb5eb2",
        "fca09f54e19fad61376e",
    ]

    @pytest.fixture(scope="class")
    def decile_generator(self, bank):
        from repro.dataset.network import decile_peak_rate

        arrivals = {}
        for bs_id in range(32):
            peak = decile_peak_rate(1 + bs_id % 9) * 0.1
            arrivals[bs_id] = ArrivalModel(peak, peak / 10.0, peak / 8.0)
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        return TrafficGenerator(arrivals, mix, bank)

    def test_serial_parallel_and_resumed_runs_give_the_pinned_bytes(
        self, decile_generator, tmp_path
    ):
        from repro.campaign.driver import CHECKPOINT_KIND

        cache = ArtifactCache(tmp_path)
        serial = run_campaign(decile_generator, 1, 1, shard_bs=8, cache=cache)
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_campaign(
                decile_generator, 1, 1, shard_bs=8, executor=executor
            )
        resumed = run_campaign(decile_generator, 1, 1, shard_bs=8, cache=cache)
        assert serial.computed_shards == resumed.resumed_shards == 4
        assert serial.digest() == self.PINNED_DIGEST
        assert parallel.digest() == self.PINNED_DIGEST
        assert resumed.digest() == self.PINNED_DIGEST
        keys = sorted(p.stem for p in (tmp_path / CHECKPOINT_KIND).iterdir())
        assert keys == self.PINNED_KEYS

    def test_failed_checkpoint_write_resumes_to_the_pinned_bytes(
        self, decile_generator, tmp_path, full_disk_on_write
    ):
        """A full disk on the 2nd checkpoint: error out, leave no debris."""
        from repro.campaign.driver import CHECKPOINT_KIND, _load_checkpoint

        cache = ArtifactCache(tmp_path)
        full_disk_on_write(2)
        with pytest.raises(OSError) as raised:
            run_campaign(decile_generator, 1, 1, shard_bs=8, cache=cache)
        assert raised.value.errno == errno.ENOSPC
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert [path.name for path in files if path.name.startswith(".tmp-")] == []
        assert len(files) == 1  # the first shard, written before the failure
        assert files[0].stem in self.PINNED_KEYS
        _load_checkpoint(files[0])  # complete: a partial checkpoint fails
        rerun = run_campaign(decile_generator, 1, 1, shard_bs=8, cache=cache)
        assert (rerun.resumed_shards, rerun.computed_shards) == (1, 3)
        assert rerun.digest() == self.PINNED_DIGEST
        keys = sorted(p.stem for p in (tmp_path / CHECKPOINT_KIND).iterdir())
        assert keys == self.PINNED_KEYS


class TestPinnedMultiDayKeys:
    """Shard keys of a plan in which every BS lies in two shards.

    Two days of two 16-BS shards each: every BS's arrival model enters
    one key per day, and each shard's BS ids sort differently as strings
    (``"10" < "9"``) than as numbers.  ``PINNED_KEYS`` and
    ``PINNED_DIGEST`` were recorded with per-shard key derivation that
    encoded every key part afresh for each shard, so a key assembled from
    shared pre-encoded fragments must reproduce them byte for byte —
    otherwise checkpoints already on disk would stop resuming.
    """

    PINNED_DIGEST = (
        "14127fd3d5510ff0d876675eb386052d1c94f0eff594d7f7da87d7070f4bf2ff"
    )
    PINNED_KEYS = [
        "9f4de412c87dfb4fe32e",
        "b75f96e7855a1023e12a",
        "c9346f5f1a95f94515c3",
        "e766dbf4801a6786fb3d",
    ]

    @pytest.fixture(scope="class")
    def decile_generator(self, bank):
        from repro.dataset.network import decile_peak_rate

        arrivals = {}
        for bs_id in range(32):
            peak = decile_peak_rate(1 + bs_id % 9) * 0.1
            arrivals[bs_id] = ArrivalModel(peak, peak / 10.0, peak / 8.0)
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        return TrafficGenerator(arrivals, mix, bank)

    def test_serial_parallel_and_resumed_runs_give_the_pinned_keys(
        self, decile_generator, tmp_path
    ):
        from repro.campaign.driver import CHECKPOINT_KIND

        cache = ArtifactCache(tmp_path)
        serial = run_campaign(
            decile_generator, 2, 1, shard_bs=16, cache=cache
        )
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_campaign(
                decile_generator, 2, 1, shard_bs=16, executor=executor
            )
        resumed = run_campaign(
            decile_generator, 2, 1, shard_bs=16, cache=cache
        )
        assert serial.computed_shards == resumed.resumed_shards == 4
        assert resumed.computed_shards == 0
        keys = sorted(p.stem for p in (tmp_path / CHECKPOINT_KIND).iterdir())
        assert serial.digest() == self.PINNED_DIGEST
        assert parallel.digest() == self.PINNED_DIGEST
        assert resumed.digest() == self.PINNED_DIGEST
        assert keys == self.PINNED_KEYS

class TestEmptyShards:
    """(day, BS) units sampling zero sessions stay identity elements."""

    @pytest.fixture(scope="class")
    def sparse_generator(self, bank):
        """One active BS amid BSs whose arrival rates round to zero."""
        active = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
        silent = ArrivalModel(
            peak_mu=1e-4, peak_sigma=1e-5, night_scale=1e-4
        )
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        return TrafficGenerator(
            {0: silent, 1: active, 2: silent, 3: silent}, mix, bank
        )

    def test_empty_shards_round_trip_through_the_driver(
        self, sparse_generator, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        result = run_campaign(
            sparse_generator,
            1,
            SEED,
            shard_bs=1,  # shards of the silent BSs are entirely empty
            cache=cache,
            hll_precision=P,
        )
        assert result.n_shards == 4
        assert result.aggregate.n_units == 4
        assert result.aggregate.n_sessions > 0
        resumed = run_campaign(
            sparse_generator, 1, SEED, shard_bs=1, cache=cache, hll_precision=P
        )
        assert resumed.resumed_shards == 4
        assert resumed.digest() == result.digest()

    def test_empty_shards_equal_identity_merges(self, sparse_generator):
        sharded = run_campaign(
            sparse_generator, 1, SEED, shard_bs=1, hll_precision=P
        )
        whole = run_campaign(
            sparse_generator, 1, SEED, shard_bs=100, hll_precision=P
        )
        assert sharded.digest() == whole.digest()


class TestAggregateFidelity:
    def test_measures_match_table_measurements(self, generator, reference):
        from repro.verify.checks import measure_circadian, measure_ranking

        table = generator.generate_campaign(DAYS, SEED)
        via_table = {**measure_ranking(table), **measure_circadian(table)}
        via_aggregate = measure_aggregate(reference)
        assert set(via_aggregate) == set(AGGREGATE_CLAIMS)
        for claim in AGGREGATE_CLAIMS:
            assert via_aggregate[claim] == via_table[claim], claim

    def test_evaluate_aggregate_judges_subset_under_real_bands(
        self, reference
    ):
        from repro.verify import Baseline, default_baseline_path

        baseline = Baseline.load(default_baseline_path())
        report = evaluate_aggregate(reference, baseline)
        assert sorted(report.claims()) == sorted(AGGREGATE_CLAIMS)
        for claim in AGGREGATE_CLAIMS:
            band = baseline.claims[claim]
            assert (report.result(claim).lo, report.result(claim).hi) == (
                band.lo,
                band.hi,
            )

    def test_empty_campaign_cannot_be_measured(self):
        from repro.verify.checks import CheckError

        with pytest.raises(CheckError, match="empty"):
            measure_aggregate(CampaignAggregate.empty(precision=P))

    def test_empty_campaign_evaluates_to_skipped_verdict(self):
        from repro.verify import Baseline, default_baseline_path

        baseline = Baseline.load(default_baseline_path())
        report = evaluate_aggregate(
            CampaignAggregate.empty(precision=P), baseline
        )
        assert report.ok  # skipped checks never fail the gate
        assert report.summary()["verdict"] == "SKIPPED"
        assert sorted(report.claims()) == sorted(AGGREGATE_CLAIMS)
        for claim in AGGREGATE_CLAIMS:
            result = report.result(claim)
            band = baseline.claims[claim]
            assert result.skipped
            assert result.passed
            assert (result.lo, result.hi) == (band.lo, band.hi)

    def test_empty_campaign_skipped_report_is_deterministic(self):
        from repro.verify import Baseline, default_baseline_path

        baseline = Baseline.load(default_baseline_path())
        first = evaluate_aggregate(
            CampaignAggregate.empty(precision=P), baseline
        )
        second = evaluate_aggregate(
            CampaignAggregate.empty(precision=P), baseline
        )
        assert first.to_dict() == second.to_dict()

    def test_unknown_claim_subset_rejected(self, reference):
        from repro.verify import Baseline, default_baseline_path
        from repro.verify.checks import CheckError, evaluate

        baseline = Baseline.load(default_baseline_path())
        with pytest.raises(CheckError, match="not in the baseline"):
            evaluate(
                measure_aggregate(reference),
                baseline,
                claims=["no-such-claim"],
            )


class TestTraceProvenance:
    """Trace ids flow seed -> driver -> checkpoints without touching bytes."""

    def test_trace_id_is_a_pure_function_of_the_root_seed(self, generator):
        from repro.pipeline.context import mint_trace_id

        result = run_campaign(generator, DAYS, SEED, hll_precision=P)
        assert result.trace_id == mint_trace_id(SEED)
        assert result.provenance() == {"trace_id": result.trace_id}
        assert result.summary()["trace_id"] == result.trace_id

    def test_telemetry_and_progress_never_change_the_digest(
        self, generator, reference, tmp_path
    ):
        from repro.obs.progress import load_progress
        from repro.obs.telemetry import Telemetry

        plain = run_campaign(generator, DAYS, SEED, hll_precision=P)
        telemetry = Telemetry(directory=tmp_path, verbosity=0)
        observed = run_campaign(
            generator, DAYS, SEED, telemetry=telemetry, hll_precision=P
        )
        telemetry.finalize(command="campaign")
        assert observed.digest() == plain.digest() == reference.digest()
        assert (
            observed.aggregate.canonical_json()
            == plain.aggregate.canonical_json()
        )
        progress = load_progress(tmp_path)
        assert progress["shards"]["done"] == progress["shards"]["total"]
        assert progress["trace_id"] == observed.trace_id

    def test_checkpoints_ride_the_provenance_envelope(
        self, generator, tmp_path
    ):
        import json

        from repro.campaign.driver import CHECKPOINT_KIND, CHECKPOINT_SUFFIX

        result = run_campaign(
            generator,
            DAYS,
            SEED,
            shard_bs=2,
            cache=ArtifactCache(tmp_path),
            hll_precision=P,
        )
        paths = sorted((tmp_path / CHECKPOINT_KIND).glob(f"*{CHECKPOINT_SUFFIX}"))
        assert len(paths) == result.n_shards
        for path in paths:
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["provenance"] == {"trace_id": result.trace_id}
            # The envelope is ignored by the canonical deserializer.
            CampaignAggregate.from_dict(payload)
