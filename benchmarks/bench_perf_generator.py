"""Throughput benchmark of the batched, arena-backed synthesis engine.

Times the pre-PR per-unit generation loop
(:func:`~repro.core.generator.generate_campaign_reference`) against the
batched engine on the same workload and seed, records the results —
sessions per second, speedups, per-phase peak RSS — into
``BENCH_generator.json``, and verifies the engine's determinism contracts
along the way (serial == parallel, chunked == unchunked, byte for byte).

Two sizes::

    python benchmarks/bench_perf_generator.py            # 200 BS x 7 days
    python benchmarks/bench_perf_generator.py --smoke    # CI-sized

Methodology notes, also embedded in the JSON:

* The ``arena`` phase consumes :meth:`TrafficGenerator.iter_campaign_chunks`
  chunk by chunk through one preallocated reused
  :class:`~repro.dataset.records.SessionArena` — the engine's intended mode
  at campaign scale, and the path :meth:`TrafficGenerator.spool_campaign`
  feeds the artifact cache from.  Throughput is best-of-N over full passes
  (the shared VM's timing noise reaches tens of percent; the minimum is
  the defensible estimate of the code's cost), with the median reported
  alongside.  The phase is gated against the pre-refactor recording: at
  least ``SPEEDUP_TARGET``x its sessions/s at equal-or-lower peak RSS.
* Peak RSS is measured per phase in a forked child process, because
  ``ru_maxrss`` is a monotone high-water mark — a parent-process snapshot
  after several phases can only report the largest of them.  Children are
  forked before any campaign-sized allocation happens in the parent, so
  each phase's figure reflects that phase alone on top of the fitted
  models.
* The materialized timing builds the full in-memory table, like the
  reference loop does; at tens of millions of sessions both pay the
  page-fault cost of gigabyte-scale fresh allocations.
* The telemetry phase times the same streamed workload with a full
  :class:`~repro.obs.telemetry.Telemetry` attached (chunk spans, metrics,
  JSONL sink) and reports the overhead against the uninstrumented path —
  the minima of many interleaved short arms, since shared-machine noise
  only ever adds time.  Each arm repeats the workload until the plain
  pass takes at least ``TELEMETRY_MIN_PLAIN_S``, so the <3% relative
  budget is measured on a meaningfully sized denominator; the verdict is
  the relative comparison alone, with no absolute-noise epsilon that
  could mask a real breach.
"""

import argparse
import json
import math
import sys
import tempfile
import time

import numpy as np

from repro.core.arrivals import ArrivalModel
from repro.core.generator import (
    DEFAULT_CHUNK_SESSIONS,
    TrafficGenerator,
    generate_campaign_reference,
)
from repro.core.model_bank import ModelBank
from repro.core.service_mix import ServiceMix
from repro.dataset.network import Network, NetworkConfig, decile_peak_rate
from repro.dataset.records import SessionArena, SessionTable
from repro.dataset.simulator import SimulationConfig, simulate
from repro.pipeline.executors import make_executor, peak_rss_mb

if __package__:
    from .isolation import isolated_phase
else:  # run as a script: the benchmarks directory is sys.path[0]
    from isolation import isolated_phase

#: Full workload — the acceptance scale of the batched engine.
FULL_BS, FULL_DAYS = 200, 7

#: Smoke workload — small enough for a CI job, same code paths.  This is
#: also the workload of the committed ``BENCH_generator.json`` and of the
#: pre-refactor recording the arena phase is gated against.
SMOKE_BS, SMOKE_DAYS = 40, 1

#: Days of the identity checks (full BS population, but one day: each
#: check needs several complete runs).
IDENTITY_DAYS = 1

#: Root seed shared by every timed run.
SEED = 0

#: Pre-refactor ``batched_streamed`` recording (same smoke workload, same
#: seed, this machine) from BENCH_generator.json before the arena-backed
#: engine landed: the denominator of the arena phase's speedup gate and
#: the ceiling of its peak-RSS gate.
PRE_REFACTOR_STREAMED_PER_S = 13_464_239
PRE_REFACTOR_PEAK_RSS_MB = 140.8

#: The arena phase must stream at least this multiple of the
#: pre-refactor recording.
SPEEDUP_TARGET = 3.0

#: Best-of trial counts for the arena throughput phase — per forked
#: child; the phase runs in two children spaced across the benchmark, so
#: a multi-second slow window of the shared VM cannot depress every
#: trial.  The smoke pass is tens of milliseconds, so many trials are
#: cheap and squeeze noise out of the minimum; the full pass is seconds
#: per trial.
ARENA_TRIALS_SMOKE, ARENA_TRIALS_FULL = 24, 2

#: Telemetry overhead budget (relative, no absolute slack) and the
#: minimum plain-arm duration the workload is repeated up to, so the
#: relative comparison has a meaningful denominator.
TELEMETRY_OVERHEAD_PCT = 3.0
TELEMETRY_MIN_PLAIN_S = 0.3

#: Interleaved plain/instrumented trials for the telemetry phase.  Many
#: short arms spread both minima across ~10s of wall clock, so a slow
#: window of the shared VM cannot bias one arm alone.
TELEMETRY_TRIALS = 15


def build_generator(n_bs: int) -> TrafficGenerator:
    """A generator with models fitted on a small simulated campaign.

    Arrival intensities sweep the paper's BS deciles so the workload mixes
    quiet and busy cells, as a real deployment snapshot would.
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
        peak = decile_peak_rate(1 + (bs_id % 9))
        arrivals[bs_id] = ArrivalModel(peak, peak / 10.0, peak / 8.0)
    return TrafficGenerator(arrivals, mix, bank)


def tables_identical(a, b) -> bool:
    """Byte-level equality of two session tables (dtypes included)."""
    for column in type(a).COLUMNS:
        left, right = getattr(a, column), getattr(b, column)
        if left.dtype != right.dtype or not np.array_equal(left, right):
            return False
    return True


def check_determinism(generator: TrafficGenerator) -> dict:
    """Serial==parallel and chunked==unchunked byte-identity verdicts."""
    serial = generator.generate_campaign(IDENTITY_DAYS, SEED)
    with make_executor(2) as executor:
        parallel = generator.generate_campaign(
            IDENTITY_DAYS, SEED, executor=executor
        )
    chunked = SessionTable.concatenate(
        [
            chunk.table
            for chunk in generator.iter_campaign_chunks(
                IDENTITY_DAYS, SEED, chunk_sessions=10_000
            )
        ]
    )
    return {
        "serial_equals_parallel": tables_identical(serial, parallel),
        "chunked_equals_unchunked": tables_identical(serial, chunked),
    }


def time_reference(generator: TrafficGenerator, n_days: int) -> dict:
    """Throughput of the pre-PR per-unit Python loop."""
    start = time.perf_counter()
    table = generate_campaign_reference(
        generator, n_days, np.random.default_rng(SEED)
    )
    elapsed = time.perf_counter() - start
    return {
        "sessions": len(table),
        "seconds": round(elapsed, 3),
        "sessions_per_s": round(len(table) / elapsed),
    }


def time_arena_streamed(
    generator: TrafficGenerator, n_days: int, trials: int
) -> dict:
    """Best-of-N throughput of the arena-backed streamed engine.

    Every trial is a full campaign pass through one preallocated, reused
    :class:`SessionArena`; chunk tables are zero-copy views into it.
    """
    arena = SessionArena(capacity=int(DEFAULT_CHUNK_SESSIONS * 1.1))
    times, sessions, peak_rows = [], 0, 0
    for _ in range(trials):
        start = time.perf_counter()
        sessions = 0
        for chunk in generator.iter_campaign_chunks(
            n_days, SEED, chunk_sessions=DEFAULT_CHUNK_SESSIONS, arena=arena
        ):
            sessions += len(chunk.table)
            peak_rows = max(peak_rows, len(chunk.table))
        times.append(time.perf_counter() - start)
    return {
        "sessions": sessions,
        "trial_seconds": times,
        "chunk_sessions": DEFAULT_CHUNK_SESSIONS,
        "arena_mb": round(arena.nbytes / (1 << 20), 1),
        "arena_capacity_rows": arena.capacity,
        "arena_peak_fill": round(peak_rows / arena.capacity, 3),
    }


def summarize_arena_trials(phases: list[dict]) -> dict:
    """Merge the spaced arena-phase children into one timing summary."""
    times = [t for phase in phases for t in phase["trial_seconds"]]
    sessions = phases[0]["sessions"]
    best = min(times)
    median = float(np.median(times))
    return {
        "sessions": sessions,
        "seconds": round(best, 3),
        "sessions_per_s": round(sessions / best),
        "median_sessions_per_s": round(sessions / median),
        "trials": len(times),
        "chunk_sessions": phases[0]["chunk_sessions"],
        "arena_mb": phases[0]["arena_mb"],
        "arena_capacity_rows": phases[0]["arena_capacity_rows"],
        "arena_peak_fill": max(p["arena_peak_fill"] for p in phases),
    }


def time_materialized(generator: TrafficGenerator, n_days: int) -> dict:
    """Throughput of the batched engine building the full table."""
    start = time.perf_counter()
    table = generator.generate_campaign(n_days, SEED)
    elapsed = time.perf_counter() - start
    return {
        "sessions": len(table),
        "seconds": round(elapsed, 3),
        "sessions_per_s": round(len(table) / elapsed),
    }


def time_telemetry_overhead(generator: TrafficGenerator, n_days: int) -> dict:
    """Streamed-path cost of a fully attached telemetry, min vs min.

    The workload is repeated until one plain arm takes at least
    :data:`TELEMETRY_MIN_PLAIN_S`, so the relative overhead is measured
    against a denominator that dwarfs timer resolution.  Arms run
    interleaved over many short trials and the verdict compares the two
    *minima*: scheduler/steal noise on a shared machine only ever adds
    time, so each arm's minimum is the defensible estimate of its true
    cost, and interleaving spreads both minima over the same seconds of
    wall clock.  Unlike the old absolute-epsilon slack, nothing can
    declare a real relative breach "within budget".  The instrumented arm
    carries the whole subsystem: chunk spans, throughput counters and the
    ``events.jsonl`` sink on real disk.
    """
    from repro.obs.telemetry import Telemetry

    def streamed_pass(telemetry) -> None:
        for chunk in generator.iter_campaign_chunks(
            n_days, SEED, chunk_sessions=DEFAULT_CHUNK_SESSIONS,
            telemetry=telemetry,
        ):
            len(chunk.table)

    calibration_start = time.perf_counter()
    streamed_pass(None)
    single_pass = time.perf_counter() - calibration_start
    repetitions = max(
        1, math.ceil(TELEMETRY_MIN_PLAIN_S / max(single_pass, 1e-9))
    )

    def timed_arm(telemetry) -> float:
        start = time.perf_counter()
        for _ in range(repetitions):
            streamed_pass(telemetry)
        return time.perf_counter() - start

    plain_times, instrumented_times = [], []
    with tempfile.TemporaryDirectory() as tmpdir:
        telemetry = Telemetry(directory=tmpdir, verbosity=0)
        for trial in range(TELEMETRY_TRIALS):
            # Alternate arm order so a machine that speeds up or slows
            # down over the phase cannot systematically favor one arm.
            if trial % 2 == 0:
                plain_times.append(timed_arm(None))
                instrumented_times.append(timed_arm(telemetry))
            else:
                instrumented_times.append(timed_arm(telemetry))
                plain_times.append(timed_arm(None))
        manifest = telemetry.finalize(command="bench-telemetry", seed=SEED)
    plain = min(plain_times)
    instrumented = min(instrumented_times)
    overhead_pct = 100.0 * (instrumented - plain) / plain
    return {
        "plain_seconds": round(plain, 4),
        "instrumented_seconds": round(instrumented, 4),
        "overhead_seconds": round(instrumented - plain, 4),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": TELEMETRY_OVERHEAD_PCT,
        "repetitions_per_arm": repetitions,
        "trials": TELEMETRY_TRIALS,
        "within_budget": overhead_pct <= TELEMETRY_OVERHEAD_PCT,
        "spans_recorded": manifest["spans"]["total"],
        "sessions_counted": manifest["metrics"]["counters"].get(
            "generator.sessions", 0
        ),
    }


def run(smoke: bool) -> dict:
    """Execute every benchmark phase and assemble the report payload."""
    n_bs, n_days = (SMOKE_BS, SMOKE_DAYS) if smoke else (FULL_BS, FULL_DAYS)
    trials = ARENA_TRIALS_SMOKE if smoke else ARENA_TRIALS_FULL
    generator = build_generator(n_bs)
    generator.generate_bs_day(0, 0, np.random.default_rng(0))  # warm imports

    # RSS-measured phases fork first, before the parent materializes any
    # campaign-sized table: each child's ru_maxrss then covers its own
    # phase on top of the fitted models alone.  The arena phase runs in
    # two children separated by the other phases (tens of seconds), so a
    # slow window of the shared VM cannot depress every throughput trial.
    rss_at_fork = peak_rss_mb()
    arena_first, rss_first = isolated_phase(
        time_arena_streamed, generator, n_days, trials
    )
    materialized, materialized_rss = isolated_phase(
        time_materialized, generator, n_days
    )

    identity = check_determinism(generator)
    telemetry = time_telemetry_overhead(generator, n_days)
    reference = time_reference(generator, n_days)

    # Throughput-only second sample: this child forks from a parent that
    # has since materialized full tables, so its inherited RSS baseline
    # is inflated — the arena phase's RSS figure is the first (clean)
    # child's alone.
    arena_second, _ = isolated_phase(
        time_arena_streamed, generator, n_days, trials
    )
    streamed = summarize_arena_trials([arena_first, arena_second])
    streamed_rss = rss_first

    speedup = streamed["sessions_per_s"] / PRE_REFACTOR_STREAMED_PER_S
    arena = {
        "peak_rss_mb": round(streamed_rss, 1),
        "peak_rss_mb_at_fork": round(rss_at_fork, 1),
        "pre_refactor": {
            "sessions_per_s": PRE_REFACTOR_STREAMED_PER_S,
            "peak_rss_mb": PRE_REFACTOR_PEAK_RSS_MB,
        },
        "speedup_vs_pre_refactor": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
        "meets_speedup_target": speedup >= SPEEDUP_TARGET,
        "rss_within_pre_refactor": streamed_rss <= PRE_REFACTOR_PEAK_RSS_MB,
    }

    report = {
        "benchmark": "generator-throughput",
        "mode": "smoke" if smoke else "full",
        "workload": {"n_bs": n_bs, "n_days": n_days, "seed": SEED},
        "determinism": identity,
        "reference_loop": reference,
        "batched_streamed": streamed,
        "batched_materialized": {
            **materialized,
            "peak_rss_mb": round(materialized_rss, 1),
        },
        "arena": arena,
        "telemetry": telemetry,
        "speedup_streamed": round(
            streamed["sessions_per_s"] / reference["sessions_per_s"], 2
        ),
        "speedup_materialized": round(
            materialized["sessions_per_s"] / reference["sessions_per_s"], 2
        ),
        "peak_rss_mb_final": round(peak_rss_mb(), 1),
        "notes": (
            "streamed = iter_campaign_chunks through one preallocated "
            "reused SessionArena, best-of-N full passes (min defends "
            "against shared-VM noise; median reported alongside); "
            "materialized = full in-memory table, like the reference "
            "per-unit loop; phase peak RSS measured in forked children "
            "because ru_maxrss is monotone; identical root seed throughout"
        ),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload instead of the full 200 BS x 7 days",
    )
    parser.add_argument(
        "--output",
        default="BENCH_generator.json",
        help="report path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    report = run(args.smoke)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    arena = report["arena"]
    streamed = report["batched_streamed"]
    telemetry = report["telemetry"]
    print(f"workload: {report['workload']}")
    print(f"reference loop:      {report['reference_loop']['sessions_per_s']:>12,} sessions/s")
    print(
        f"arena streamed:      {streamed['sessions_per_s']:>12,} sessions/s "
        f"(best of {streamed['trials']}, median "
        f"{streamed['median_sessions_per_s']:,}; "
        f"{arena['speedup_vs_pre_refactor']}x pre-refactor, "
        f"RSS {arena['peak_rss_mb']} MiB)"
    )
    print(
        f"batched materialized:{report['batched_materialized']['sessions_per_s']:>12,} sessions/s "
        f"({report['speedup_materialized']}x reference, "
        f"RSS {report['batched_materialized']['peak_rss_mb']} MiB)"
    )
    print(
        f"telemetry overhead:  {telemetry['overhead_pct']:>11}% "
        f"(budget {telemetry['budget_pct']}%, "
        f"{telemetry['repetitions_per_arm']} reps/arm, "
        f"{telemetry['spans_recorded']} spans)"
    )
    print(f"determinism: {report['determinism']}")
    print(f"report: {args.output}")

    failed = False
    if not all(report["determinism"].values()):
        print("FAIL: determinism contract violated", file=sys.stderr)
        failed = True
    if not telemetry["within_budget"]:
        print(
            f"FAIL: telemetry overhead {telemetry['overhead_pct']}% "
            f"exceeds the {telemetry['budget_pct']}% budget",
            file=sys.stderr,
        )
        failed = True
    if not arena["meets_speedup_target"]:
        print(
            f"FAIL: arena streaming at {arena['speedup_vs_pre_refactor']}x "
            f"pre-refactor, target {arena['speedup_target']}x",
            file=sys.stderr,
        )
        failed = True
    if not arena["rss_within_pre_refactor"]:
        print(
            f"FAIL: arena phase peak RSS {arena['peak_rss_mb']} MiB exceeds "
            f"the pre-refactor {PRE_REFACTOR_PEAK_RSS_MB} MiB",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
