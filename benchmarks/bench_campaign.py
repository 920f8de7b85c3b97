"""Scale benchmark of the sharded campaign-aggregation driver.

Runs :func:`~repro.campaign.run_campaign` across a BS-count scale series
at a fixed shard size, records sessions/s and fork-isolated peak RSS per
point into ``BENCH_campaign.json``, and verifies the driver's two load
bearing contracts along the way:

* **bounded memory** — peak RSS must stay flat as the campaign grows,
  because every layer is bounded by the shard/chunk budget, never by
  campaign size: workers stream sessions through a reused arena and keep
  only sketches, and the parent folds shard aggregates as waves complete
  instead of retaining them;
* **byte-identity** — serial, parallel and checkpoint-resumed runs must
  produce the same :meth:`CampaignAggregate.digest`.

Two sizes::

    python benchmarks/bench_campaign.py            # up to 10k BS x 7 days
    python benchmarks/bench_campaign.py --smoke    # CI-sized

Methodology notes, also embedded in the JSON:

* Each scale point runs in a **forked child** that builds its own
  generator before aggregating, because ``ru_maxrss`` is a monotone
  high-water mark: phases measured in one process mask each other, and a
  child forked from a parent that already ran a larger campaign would
  inherit an inflated baseline.
* The full mode scales arrival intensities down by ``FULL_RATE_SCALE``
  so the 10k-BS x 7-day headline stays minutes of single-core work; the
  RSS verdict is unaffected (per-shard workload is what bounds memory,
  and it is held constant across the series), and throughput per session
  is rate-independent.
* The extrapolation block scales the measured headline throughput to the
  paper's real footprint (282k BSs x 45 days) at both the benchmarked
  and paper-scale arrival rates.
"""

import argparse
import json
import sys
import tempfile
import time

import numpy as np

from repro.campaign import run_campaign
from repro.campaign.driver import DEFAULT_SHARD_BS, DEFAULT_SHARD_CHUNK_SESSIONS
from repro.campaign.sketches import DEFAULT_HLL_PRECISION
from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.core.model_bank import ModelBank
from repro.core.service_mix import ServiceMix
from repro.dataset.network import Network, NetworkConfig, decile_peak_rate
from repro.dataset.simulator import SimulationConfig, simulate
from repro.io.cache import ArtifactCache
from repro.pipeline.executors import ParallelExecutor

if __package__:
    from .isolation import isolated_phase
else:  # run as a script: the benchmarks directory is sys.path[0]
    from isolation import isolated_phase

#: Root seed shared by every run; digests are compared across runs.
SEED = 0

#: Full mode: BS-count scale series (1 day each) and the acceptance-scale
#: headline campaign.  Arrival intensities are scaled down so the series
#: is minutes of single-core work; per-shard workload — what actually
#: bounds memory — is identical at every point.
FULL_SERIES_BS = [1250, 2500, 5000, 10000]
FULL_HEADLINE = (10_000, 7)
FULL_RATE_SCALE = 0.1

#: Smoke mode: CI-sized series at unscaled paper-decile arrival rates.
SMOKE_SERIES_BS = [20, 40, 80]
SMOKE_HEADLINE = (80, 2)
SMOKE_RATE_SCALE = 1.0

#: Peak RSS at the largest scale point (and the headline) must stay
#: within this factor of the smallest point's: memory is bounded by the
#: shard/chunk budget, so growing the campaign 8x must not move it.
RSS_FLAT_TOLERANCE = 1.25

#: The paper's real measurement footprint, for the extrapolation block.
PAPER_BS, PAPER_DAYS = 282_000, 45


def build_generator(n_bs: int, rate_scale: float) -> TrafficGenerator:
    """A generator with models fitted on a small simulated campaign.

    Arrival intensities sweep the paper's BS deciles (scaled by
    ``rate_scale``) so the workload mixes quiet and busy cells, as a real
    deployment snapshot would.
    """
    network = Network(NetworkConfig(n_bs=20), np.random.default_rng(101))
    campaign = simulate(
        network, SimulationConfig(n_days=2), np.random.default_rng(202)
    )
    bank = ModelBank.fit_from_table(campaign, min_sessions=500)
    mix = ServiceMix.from_measurements(campaign).restricted_to(
        bank.services()
    )
    arrivals = {}
    for bs_id in range(n_bs):
        peak = decile_peak_rate(1 + (bs_id % 9)) * rate_scale
        arrivals[bs_id] = ArrivalModel(peak, peak / 10.0, peak / 8.0)
    return TrafficGenerator(arrivals, mix, bank)


def campaign_point(n_bs: int, n_days: int, rate_scale: float) -> dict:
    """One scale point: build the generator, run the sharded campaign.

    Runs inside a forked child (see :func:`isolated_phase`), so the
    child's peak RSS covers model fitting plus the whole driver — worker
    synthesis, sketch folding, parent merge — for this point alone.
    """
    generator = build_generator(n_bs, rate_scale)
    start = time.perf_counter()
    result = run_campaign(generator, n_days, SEED)
    elapsed = time.perf_counter() - start
    aggregate = result.aggregate
    return {
        "n_bs": n_bs,
        "n_days": n_days,
        "shards": result.n_shards,
        "sessions": aggregate.n_sessions,
        "units": aggregate.n_units,
        "seconds": round(elapsed, 3),
        "sessions_per_s": round(aggregate.n_sessions / elapsed),
        "distinct_estimate": round(aggregate.distinct_sessions()),
        "digest": result.digest(),
    }


def check_identity(n_bs: int, n_days: int, rate_scale: float) -> dict:
    """Serial == parallel == resumed digest verdicts at one scale point."""
    generator = build_generator(n_bs, rate_scale)
    serial = run_campaign(generator, n_days, SEED).digest()
    with ParallelExecutor(jobs=2) as executor:
        parallel = run_campaign(
            generator, n_days, SEED, executor=executor
        ).digest()
    with tempfile.TemporaryDirectory() as tmpdir:
        cache = ArtifactCache(tmpdir)
        first = run_campaign(generator, n_days, SEED, cache=cache)
        second = run_campaign(generator, n_days, SEED, cache=cache)
    return {
        "n_bs": n_bs,
        "n_days": n_days,
        "serial_digest": serial,
        "serial_equals_parallel": parallel == serial,
        "resumed_equals_serial": (
            second.digest() == serial
            and first.computed_shards == first.n_shards
            and second.resumed_shards == second.n_shards
        ),
    }


def extrapolate(headline: dict, shard_bs: int, rate_scale: float) -> dict:
    """Scale the measured headline to the paper's 282k-BS, 45-day run."""
    units = PAPER_BS * PAPER_DAYS
    shards = -(-PAPER_BS // shard_bs) * PAPER_DAYS
    sessions_per_unit = headline["sessions"] / headline["units"]
    per_s = headline["sessions_per_s"]
    benched = units * sessions_per_unit
    paper_rate = benched / rate_scale  # undo the benchmark's rate scaling
    return {
        "footprint": {"n_bs": PAPER_BS, "n_days": PAPER_DAYS},
        "units": units,
        "shards": shards,
        "checkpoint_files": shards,
        "sessions_at_benchmark_rates": round(benched),
        "sessions_at_paper_rates": round(paper_rate),
        "serial_hours_at_benchmark_rates": round(benched / per_s / 3600, 1),
        "serial_hours_at_paper_rates": round(paper_rate / per_s / 3600, 1),
        "peak_rss_mb": headline["peak_rss_mb"],
        "note": (
            "linear extrapolation from the measured headline: wall clock "
            "scales with session count at the measured sessions/s "
            "(parallel workers divide it), peak RSS does not scale at "
            "all — it is bounded by the shard/chunk budget"
        ),
    }


def run(smoke: bool) -> dict:
    """Execute every benchmark phase and assemble the report payload."""
    if smoke:
        series_bs, headline, rate_scale = (
            SMOKE_SERIES_BS, SMOKE_HEADLINE, SMOKE_RATE_SCALE
        )
    else:
        series_bs, headline, rate_scale = (
            FULL_SERIES_BS, FULL_HEADLINE, FULL_RATE_SCALE
        )

    series = []
    for n_bs in series_bs:
        point, rss = isolated_phase(campaign_point, n_bs, 1, rate_scale)
        point["peak_rss_mb"] = round(rss, 1)
        series.append(point)
        print(
            f"  {n_bs:>6} BS x 1d: {point['sessions']:>12,} sessions, "
            f"{point['sessions_per_s']:>10,}/s, RSS {point['peak_rss_mb']} MiB"
        )

    head_point, head_rss = isolated_phase(
        campaign_point, headline[0], headline[1], rate_scale
    )
    head_point["peak_rss_mb"] = round(head_rss, 1)
    print(
        f"  {headline[0]:>6} BS x {headline[1]}d: "
        f"{head_point['sessions']:>12,} sessions, "
        f"{head_point['sessions_per_s']:>10,}/s, "
        f"RSS {head_point['peak_rss_mb']} MiB  (headline)"
    )

    identity = check_identity(series_bs[0], 1, rate_scale)

    rss_values = [p["peak_rss_mb"] for p in series]
    rss_floor = min(rss_values)
    worst = max(*rss_values, head_point["peak_rss_mb"])
    rss = {
        "series_mb": rss_values,
        "headline_mb": head_point["peak_rss_mb"],
        "floor_mb": rss_floor,
        "worst_mb": worst,
        "growth_ratio": round(worst / rss_floor, 3),
        "tolerance": RSS_FLAT_TOLERANCE,
        "bounded": worst <= RSS_FLAT_TOLERANCE * rss_floor,
    }

    return {
        "benchmark": "campaign-aggregation",
        "mode": "smoke" if smoke else "full",
        "config": {
            "seed": SEED,
            "shard_bs": DEFAULT_SHARD_BS,
            "chunk_sessions": DEFAULT_SHARD_CHUNK_SESSIONS,
            "hll_precision": DEFAULT_HLL_PRECISION,
            "rate_scale": rate_scale,
        },
        "scale_series": series,
        "headline": head_point,
        "rss": rss,
        "identity": identity,
        "extrapolation": extrapolate(head_point, DEFAULT_SHARD_BS, rate_scale),
        "notes": (
            "each scale point runs in a forked child (ru_maxrss is "
            "monotone) that builds its own generator; the series holds "
            "per-BS arrival rates and shard size constant while the BS "
            "count grows 8x, so flat RSS demonstrates shard-bounded "
            "memory; identical root seed throughout, digests compared "
            "across serial/parallel/resumed runs"
        ),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload instead of the full 10k BS x 7 days",
    )
    parser.add_argument(
        "--output",
        default="BENCH_campaign.json",
        help="report path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    report = run(args.smoke)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    rss, identity = report["rss"], report["identity"]
    extrapolation = report["extrapolation"]
    print(
        f"peak RSS: series {rss['series_mb']} MiB, headline "
        f"{rss['headline_mb']} MiB -> growth {rss['growth_ratio']}x "
        f"(tolerance {rss['tolerance']}x)"
    )
    print(
        f"identity at {identity['n_bs']} BS: "
        f"parallel={identity['serial_equals_parallel']} "
        f"resumed={identity['resumed_equals_serial']}"
    )
    print(
        f"extrapolated {PAPER_BS:,} BS x {PAPER_DAYS}d: "
        f"{extrapolation['sessions_at_paper_rates']:,} sessions, "
        f"{extrapolation['serial_hours_at_paper_rates']}h serial, "
        f"{extrapolation['shards']:,} checkpoints, "
        f"RSS {extrapolation['peak_rss_mb']} MiB"
    )
    print(f"report: {args.output}")

    failed = False
    if not rss["bounded"]:
        print(
            f"FAIL: peak RSS grew {rss['growth_ratio']}x across the scale "
            f"series (tolerance {rss['tolerance']}x) — memory is not "
            "shard-bounded",
            file=sys.stderr,
        )
        failed = True
    if not identity["serial_equals_parallel"]:
        print("FAIL: parallel digest differs from serial", file=sys.stderr)
        failed = True
    if not identity["resumed_equals_serial"]:
        print("FAIL: resumed digest differs from serial", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
