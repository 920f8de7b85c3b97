"""The ``campaign_fresh`` and ``campaign_resume`` workloads.

Both call ``run_campaign`` with the serial executor and an
``ArtifactCache``, as ``repro-traffic campaign`` does, inside a forked
child whose peak RSS is the workload's ``peak_rss_mb``.

* ``campaign_fresh``: a fresh cache directory per call, so every shard is
  generated, folded and checkpointed.  The fold dominates here.
* ``campaign_resume``: the same call over a cache whose checkpoints were
  written during set-up; every shard is restored and nothing is
  generated or folded.  The bypass case for a fold optimisation.

Per call the child records the run_campaign wall time, the per-shard
checkpoint lookup times (``read_*``) and the time to persist the merged
aggregate the way ``repro-traffic campaign --output`` does (``write_*``).
Each call contributes one wall, one read and one write sample (the mean
over its lookups and over its writes); the run's figures are medians over
its calls, in host time: each sample is scaled by the host-speed probes
taken beside it (see :func:`common.host_scale`).  After the timed calls
the child also computes, untimed, the output of
:data:`common.REFERENCE_SEED`, which is checked against ``reference.json``
whatever ``--seed`` the run was given.  The child is pinned to one CPU
(see :func:`common.pin`).
Imported after :func:`common.import_system` put the program on the path.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.campaign import run_campaign
from repro.campaign.fidelity import evaluate_aggregate
from repro.io.cache import ArtifactCache
from repro.verify import Baseline

import common
import layers
from tracer import Tracer, self_times


@dataclass(frozen=True)
class CampaignShape:
    """Size of one campaign workload."""

    n_bs: int
    n_days: int
    rate_scale: float


#: Workload sizes.  Fresh uses the campaign's own density (~2k sessions
#: per BS-day) over 8 shards, so a call takes ~0.7 s and a 30 s run makes
#: ~45 of them; resume uses many light shards, so it is dominated by
#: per-shard lookup cost rather than by payload size.
SHAPES = {
    "campaign_fresh": CampaignShape(n_bs=256, n_days=2, rate_scale=0.1),
    "campaign_resume": CampaignShape(n_bs=2048, n_days=2, rate_scale=0.01),
}
SMOKE_SHAPES = {
    "campaign_fresh": CampaignShape(n_bs=128, n_days=1, rate_scale=0.1),
    "campaign_resume": CampaignShape(n_bs=128, n_days=2, rate_scale=0.01),
}

#: The merged output is written this many times per call; the call's
#: write sample is their mean.
OUTPUT_WRITES = 10


class LookupTimedCache(ArtifactCache):
    """Cache that timestamps the end of each shard's lookup.

    ``run_campaign`` looks up every shard before dispatching any: it
    derives the shard key, probes the cache and, when a checkpoint is
    present, fetches and decodes it.  A lookup ends at a negative probe or
    at a completed fetch, so consecutive marks bound one shard's lookup.
    """

    def __init__(self, root):
        super().__init__(root)
        self.marks: list[float] = []

    def has(self, kind, key, suffix):
        present = super().has(kind, key, suffix)
        if not present:
            self.marks.append(time.perf_counter())
        return present

    def fetch(self, kind, key, suffix, load):
        value = super().fetch(kind, key, suffix, load)
        self.marks.append(time.perf_counter())
        return value


def _write_output(result, path: Path) -> None:
    """Persist the merged aggregate as ``repro-traffic campaign --output``.

    A copy of the CLI's output code (``_cmd_campaign`` in ``cli.py``),
    which has no function of its own to call; ``test_perfbench`` checks
    that it writes the same bytes as the CLI.
    """
    document = result.aggregate.to_dict()
    document["provenance"] = result.provenance()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(document, sort_keys=True, separators=(",", ":")))


def _one_call(workload, generator, shape, seed, cache_dir, workdir,
              baseline, tracer):
    """One timed ``run_campaign`` call plus its untimed checks."""
    cache = LookupTimedCache(cache_dir)
    probe_before = common.probe_ms()
    if tracer is not None:
        tracer.phase = "run"
    start = time.perf_counter()
    result = run_campaign(generator, shape.n_days, seed, cache=cache)
    end = time.perf_counter()
    if tracer is not None:
        tracer.phase = "after"
    probe_after = common.probe_ms()
    # The first shard's lookup has no start mark (it would include shard
    # planning), so it is not sampled.
    lookups_ms = [
        (b - a) * 1e3 for a, b in zip(cache.marks, cache.marks[1:])
    ]

    writes_ms = []
    for _ in range(OUTPUT_WRITES):
        write_start = time.perf_counter()
        _write_output(result, workdir / "aggregate.json")
        writes_ms.append((time.perf_counter() - write_start) * 1e3)

    if workload == "campaign_fresh":
        failed = result.n_shards - result.computed_shards
    else:
        failed = result.n_shards - result.resumed_shards
    # Host time: the call beside the probes around it, the writes beside
    # the probe just before them.
    call_scale = common.host_scale(probe_before, probe_after)
    call = {
        "wall_s": end - start,
        "host_wall_s": (end - start) * call_scale,
        "host_read_ms": statistics.fmean(lookups_ms) * call_scale,
        "host_write_ms": (
            statistics.fmean(writes_ms) * common.host_scale(probe_after)
        ),
        "probes_ms": [probe_before, probe_after],
        "sessions": result.aggregate.n_sessions,
        "n_shards": result.n_shards,
        "computed": result.computed_shards,
        "resumed": result.resumed_shards,
        "failed": failed,
        "lookups_ms": lookups_ms,
        "read_ms": statistics.fmean(lookups_ms),
        "write_ms": statistics.fmean(writes_ms),
        "digest": result.digest(),
        "fidelity": evaluate_aggregate(result.aggregate, baseline).summary(),
    }
    if tracer is not None:
        spans = tracer.window("run", start, end)
        totals = self_times(spans)
        # Σ self times equals the root spans' summed duration (the
        # campaign runs on one thread), so this is the wall time no
        # wrapped call accounts for.
        call["self_sum_s"] = sum(totals.values())
        call["layers"] = {
            **layers.layer_seconds(totals),
            "campaign.unattributed_s": call["wall_s"] - call["self_sum_s"],
            "campaign.aggregate_bytes": len(result.aggregate.canonical_json()),
        }
        call["spans"] = dict(Counter(span.name for span in spans))
        call["counts"] = {
            name: tracer.count("run", name)
            for name in (
                "core.generate_sessions", "campaign.fold_sessions",
                "io.checkpoint_write_bytes", "io.checkpoint_read_bytes",
            )
        }
        tracer.counts.clear()
    return call


def child(conn, workload: str, seed: int, seconds: float, smoke: bool,
          traced: bool, workdir: Path) -> None:
    """Forked child: set up, then call ``run_campaign`` for ``seconds``."""
    common.pin(1)
    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    baseline = Baseline.load(common.BASELINE)
    tracer = None
    if traced:
        tracer = Tracer()
        layers.install(tracer)

    setup_s: list[float] = []
    setup_probes: list[list[float]] = []
    cache_dir = None
    for attempt in range(1 if traced else common.SETUP_REPEATS):
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        probe_before = common.probe_ms()
        start = time.perf_counter()
        bank, mix = common.fit_models()
        generator = common.decile_generator(
            bank, mix, shape.n_bs, shape.rate_scale
        )
        if workload == "campaign_resume":
            cache_dir = workdir / f"setup-{attempt}"
            setup_result = run_campaign(
                generator, shape.n_days, seed,
                cache=ArtifactCache(cache_dir),
            )
        setup_s.append(time.perf_counter() - start)
        setup_probes.append([probe_before, common.probe_ms()])
    setup_digest = setup_fidelity = None
    if workload == "campaign_resume":
        setup_digest = setup_result.digest()
        setup_fidelity = evaluate_aggregate(
            setup_result.aggregate, baseline
        ).summary()
    setup_layers = {}
    if tracer is not None:
        totals = self_times([s for s in tracer.spans if s.phase == "setup"])
        setup_layers = {
            "dataset.simulate_s": totals.get("dataset.simulate", 0.0),
            "core.fit_s": totals.get("core.fit", 0.0),
        }
        tracer.counts.clear()

    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        if workload == "campaign_fresh":
            cache_dir = workdir / f"fresh-{len(calls)}"
        calls.append(
            _one_call(workload, generator, shape, seed, cache_dir, workdir,
                      baseline, tracer)
        )
        if workload == "campaign_fresh":
            shutil.rmtree(cache_dir)

    spans_path = reference = None
    if tracer is not None:
        tracer.restore()
        spans_path = tracer.dump(
            common.WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl"
        )
    else:
        # Untimed: the reference seed's output, whatever ``--seed`` is.
        result = run_campaign(generator, shape.n_days, common.REFERENCE_SEED)
        reference = {
            "digest": result.digest(),
            "fidelity": evaluate_aggregate(result.aggregate,
                                           baseline).summary(),
        }
    conn.send({
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "setup_digest": setup_digest,
        "setup_fidelity": setup_fidelity,
        "setup_layers": setup_layers,
        "calls": calls,
        "spans_path": spans_path,
        "reference": reference,
    })


def run(workload, seed, seconds, smoke, trace, workdir, log, deadline):
    """Run the workload; return ``(checks, attempted, failed, metrics)``."""
    untraced = _run_child(workload, seed, seconds, smoke, False, workdir,
                          deadline)
    checks = _checks(workload, seed, smoke, untraced)
    calls = untraced["calls"]
    attempted = sum(c["n_shards"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    walls = [c["wall_s"] for c in calls]
    log("calls", {
        "count": len(calls),
        "wall_s": walls,
        "setup_s": untraced["setup_s"],
        "shards": calls[0]["n_shards"],
        "sessions": calls[0]["sessions"],
        "digest": calls[0]["digest"],
        "fidelity": calls[0]["fidelity"]["verdict"],
    })
    lookups = [v for c in calls for v in c["lookups_ms"]]
    read = common.timing(lookups)
    log("samples", {
        "lookups": read,
        "read_ms": [c["read_ms"] for c in calls],
        "write_ms": [c["write_ms"] for c in calls],
        "writes_per_call": OUTPUT_WRITES,
    })
    if not trace:
        log("host", {
            "raw": {
                "setup_s": statistics.median(untraced["setup_s"]),
                "sessions_per_s": (
                    sum(c["sessions"] for c in calls) / sum(walls)
                ),
                "read_p50_ms": statistics.median(c["read_ms"] for c in calls),
                "write_p50_ms": statistics.median(
                    c["write_ms"] for c in calls
                ),
            },
            "probes_ms": [c["probes_ms"] for c in calls],
            "setup_probes_ms": untraced["setup_probes"],
        })
        metrics = {
            "setup_s": (common.host_setup_s(untraced), "s"),
            "sessions_per_s": (
                sum(c["sessions"] for c in calls)
                / sum(c["host_wall_s"] for c in calls),
                "sessions/s",
            ),
            "peak_rss_mb": (untraced["peak_rss_mb"], "MiB"),
            "read_p50_ms": (
                statistics.median(c["host_read_ms"] for c in calls), "ms"
            ),
            "write_p50_ms": (
                statistics.median(c["host_write_ms"] for c in calls), "ms"
            ),
        }
        return checks, attempted, failed, metrics

    traced = _run_child(workload, seed, seconds, smoke, True, workdir,
                        deadline)
    tcalls = traced["calls"]
    attempted += sum(c["n_shards"] for c in tcalls)
    failed += sum(c["failed"] for c in tcalls)
    checks += _span_checks(workload, tcalls)
    checks += [
        ("traced digest == untraced digest",
         all(c["digest"] == calls[0]["digest"] for c in tcalls),
         tcalls[0]["digest"]),
        ("traced fidelity summary == untraced fidelity summary",
         all(c["fidelity"] == calls[0]["fidelity"] for c in tcalls),
         tcalls[0]["fidelity"]["verdict"]),
    ]
    # The traced call with the median wall time stands for the run.
    chosen = sorted(tcalls, key=lambda c: c["wall_s"])[(len(tcalls) - 1) // 2]
    untraced_wall = statistics.median(walls)
    metrics = {
        **_zero_layers(),
        **traced["setup_layers"],
        **chosen["layers"],
        **chosen["counts"],
        "campaign.shards_computed": chosen["computed"],
        "campaign.shards_resumed": chosen["resumed"],
        "campaign.shards_failed": chosen["failed"],
        "e2e.read_p99_ms": read["p99"],
        "trace.wall_s": chosen["wall_s"],
        "trace.overhead_s": chosen["wall_s"] - untraced_wall,
    }
    log("trace", {
        "calls": len(tcalls),
        "traced_wall_s": [c["wall_s"] for c in tcalls],
        "untraced_median_wall_s": untraced_wall,
        "overhead_share": chosen["wall_s"] / untraced_wall - 1.0,
        "self_sum_s": chosen["self_sum_s"],
        "spans": traced["spans_path"],
    })
    return checks, attempted, failed, _with_units(metrics)


def _run_child(workload, seed, seconds, smoke, traced, workdir, deadline):
    child_dir = workdir / ("traced" if traced else "untraced")
    child_dir.mkdir(parents=True, exist_ok=True)
    proc = common.Child(
        deadline, child, workload, seed, seconds, smoke, traced, child_dir
    )
    try:
        payload = proc.recv()
        payload["peak_rss_mb"] = proc.finish()
    finally:
        proc.kill()
    return payload


def _checks(workload, seed, smoke, payload) -> list[tuple[str, bool, str]]:
    calls = payload["calls"]
    first = calls[0]
    reference = common.reference()
    recorded = reference["fidelity_summary"]
    digests = reference["campaign_digests"][workload][
        "smoke" if smoke else "full"
    ]
    ref_seed, ref_run = common.REFERENCE_SEED, payload["reference"]
    checks = [
        ("every call gives the same digest",
         all(c["digest"] == first["digest"] for c in calls),
         first["digest"]),
        ("every call gives the same fidelity summary",
         all(c["fidelity"] == first["fidelity"] for c in calls),
         json.dumps(first["fidelity"], sort_keys=True)),
        (f"reference seed {ref_seed}: digest equals the recorded digest "
         f"of seed {ref_seed}",
         ref_run["digest"] == digests[str(ref_seed)],
         f"{ref_run['digest']} (recorded {digests[str(ref_seed)]})"),
        (f"reference seed {ref_seed}: fidelity summary equals the "
         f"recorded one (verdict {recorded['verdict']})",
         ref_run["fidelity"] == recorded,
         json.dumps(ref_run["fidelity"], sort_keys=True)),
    ]
    if seed in common.PINNED_SEEDS:
        checks += [
            (f"digest equals the recorded digest of seed {seed}",
             first["digest"] == digests[str(seed)],
             f"{first['digest']} (recorded {digests[str(seed)]})"),
            (f"fidelity summary equals the recorded one of seed {seed}",
             first["fidelity"] == recorded,
             json.dumps(first["fidelity"], sort_keys=True)),
        ]
    if workload == "campaign_fresh":
        # At this density the three claims hold with margin on every
        # seed tried; on the sparse resume shape the day/night ratio
        # sits at the band's upper edge (see METRICS.md), so there the
        # verdict is pinned per seed, not required for every seed.
        checks.append((
            "fidelity verdict OK on every call",
            all(c["fidelity"]["verdict"] == "OK" for c in calls),
            first["fidelity"]["verdict"],
        ))
    if workload == "campaign_resume":
        checks.append((
            "resumed fidelity summary == that of the fresh set-up run",
            first["fidelity"] == payload["setup_fidelity"],
            json.dumps(payload["setup_fidelity"], sort_keys=True),
        ))
        checks.append((
            "resumed digest == digest of the fresh set-up run",
            first["digest"] == payload["setup_digest"],
            str(payload["setup_digest"]),
        ))
        checks.append((
            "shards_resumed == n_shards on resume",
            all(c["resumed"] == c["n_shards"] for c in calls),
            f"{first['resumed']}/{first['n_shards']}",
        ))
    else:
        checks.append((
            "shards_computed == n_shards on a fresh cache",
            all(c["computed"] == c["n_shards"] for c in calls),
            f"{first['computed']}/{first['n_shards']}",
        ))
    return checks


def _span_checks(workload, tcalls) -> list[tuple[str, bool, str]]:
    """Checks that every wrapped layer was reached as often as it must be.

    Σ self times + ``campaign.unattributed_s`` equals the traced wall by
    construction; what can go wrong is a wrapper that is not reached
    (its time then hides in ``unattributed_s``) or spans that overlap.
    """
    checks = [(
        "self times + unattributed == traced wall, unattributed >= 0",
        all(c["layers"]["campaign.unattributed_s"] >= 0.0 for c in tcalls),
        "min unattributed "
        f"{min(c['layers']['campaign.unattributed_s'] for c in tcalls):.4f} s",
    )]
    keys = [c["spans"].get("io.key", 0) for c in tcalls]
    checks.append((
        "one io.key span per shard, every traced call",
        all(k == c["n_shards"] for k, c in zip(keys, tcalls)),
        f"{keys[0]} spans / {tcalls[0]['n_shards']} shards",
    ))
    if workload == "campaign_fresh":
        writes = [c["spans"].get("io.checkpoint_write", 0) for c in tcalls]
        sessions = [
            (c["counts"]["core.generate_sessions"],
             c["counts"]["campaign.fold_sessions"], c["sessions"])
            for c in tcalls
        ]
        checks += [
            ("one io.checkpoint_write span per computed shard",
             all(w == c["computed"] for w, c in zip(writes, tcalls)),
             f"{writes[0]} spans / {tcalls[0]['computed']} computed"),
            ("core.generate_sessions == campaign.fold_sessions == "
             "aggregate n_sessions, every traced call",
             all(len(set(triple)) == 1 for triple in sessions),
             str(sessions[0])),
        ]
    else:
        reads = [c["spans"].get("io.checkpoint_read", 0) for c in tcalls]
        checks.append((
            "one io.checkpoint_read span per resumed shard",
            all(r == c["resumed"] for r, c in zip(reads, tcalls)),
            f"{reads[0]} spans / {tcalls[0]['resumed']} resumed",
        ))
    return checks


def _zero_layers() -> dict:
    return dict.fromkeys(layers.PER_LAYER, 0)


def _with_units(values: dict) -> dict:
    return {
        name: (values[name], unit) for name, unit in layers.PER_LAYER.items()
    }
