"""Standard stages wiring the library's layers into pipelines.

Builders for the named stages the CLI (and scripts) assemble into runs:

* ``network`` — construct the synthetic BS population;
* ``simulate`` — run the measurement campaign across (day, BS) seed-stream
  work units, cached as a raw ``.seg`` session-table segment;
* ``fit-models`` — per-service session-level model fitting fan-out;
* ``fit-arrivals`` — per-decile bi-modal arrival model fitting;
* ``read-trace`` — load a campaign from a CSV(.gz) trace instead;
* ``generate`` — synthesize a campaign from a ``TrafficGenerator`` via the
  batched seed-stream engine, spooled chunk-wise through the cache;
* ``validate`` — check a campaign against the paper's stylized facts;
* ``verify`` — the statistical fidelity gate: measure the paper's headline
  statistics on the run's artifacts and judge them against the golden
  baseline of tolerance bands.

Each builder closes over its scalar configuration and returns a
:class:`~repro.pipeline.stages.Stage`; the cacheable ones declare the
configuration in their :class:`~repro.pipeline.stages.ArtifactSpec` key so
any change — seed, scale, mobility, catalog — cleanly misses the cache.
"""

from __future__ import annotations

from pathlib import Path

from ..io.spool import SEGMENT_SUFFIX, load_segment, save_segment
from .stages import ArtifactSpec, Stage

#: Default BS count of pipeline-built networks (mirrors the CLI default).
DEFAULT_N_BS = 50


def network_stage(n_bs: int) -> Stage:
    """Stage building the synthetic BS population on the ``network`` stream."""
    from ..dataset.network import Network, NetworkConfig

    def build(ctx, artifacts):
        return Network(NetworkConfig(n_bs=n_bs), ctx.rng("network"))

    return Stage(name="network", produces="network", fn=build)


def simulate_stage(n_days: int) -> Stage:
    """Stage simulating the measurement campaign (cached by config + seed).

    The campaign is keyed by the run seed, the network configuration, the
    simulation configuration and the service catalog — the full set of
    facts that determine its content — and persisted as a segment
    (:mod:`repro.io.spool`), so a repeated ``fit``/``validate`` run skips
    re-simulation entirely.
    """
    from ..dataset.records import SERVICE_NAMES
    from ..dataset.simulator import SimulationConfig, simulate

    config = SimulationConfig(n_days=n_days)

    def run(ctx, artifacts):
        with ctx.executor() as executor:
            return simulate(
                artifacts["network"], config, ctx.seed, executor=executor
            )

    def key_parts(ctx, artifacts):
        return {
            "artifact": "campaign",
            "seed": ctx.seed,
            "network": artifacts["network"].config,
            "simulation": config,
            "services": list(SERVICE_NAMES),
        }

    return Stage(
        name="simulate",
        produces="campaign",
        requires=("network",),
        fn=run,
        spec=ArtifactSpec(
            kind="campaign",
            suffix=SEGMENT_SUFFIX,
            save=save_segment,
            load=load_segment,
            key_parts=key_parts,
        ),
    )


def read_trace_stage(path: str | Path) -> Stage:
    """Stage loading the campaign from an existing CSV(.gz) trace."""
    from ..io.traces import read_trace

    def run(ctx, artifacts):
        return read_trace(path)

    return Stage(name="read-trace", produces="campaign", fn=run)


def fit_models_stage(min_sessions: int = 500) -> Stage:
    """Stage fitting one session-level model per service (worker fan-out)."""
    from ..core.model_bank import ModelBank

    def run(ctx, artifacts):
        with ctx.executor() as executor:
            return ModelBank.fit_from_table(
                artifacts["campaign"],
                min_sessions=min_sessions,
                executor=executor,
            )

    return Stage(
        name="fit-models", produces="bank", requires=("campaign",), fn=run
    )


def fit_arrivals_stage(n_days: int) -> Stage:
    """Stage fitting the per-decile bi-modal arrival models (Fig 3)."""
    from ..core.arrivals import fit_decile_arrival_models

    def run(ctx, artifacts):
        fitted = fit_decile_arrival_models(
            artifacts["campaign"], artifacts["network"], n_days
        )
        return {f"decile-{decile}": model for decile, model in fitted.items()}

    return Stage(
        name="fit-arrivals",
        produces="arrivals",
        requires=("campaign", "network"),
        fn=run,
    )


def generate_stage(
    n_days: int,
    chunk_sessions: int | None = None,
    materialize: bool = True,
) -> Stage:
    """Stage synthesizing a campaign from a ``generator`` artifact.

    Runs the batched engine of
    :class:`~repro.core.generator.TrafficGenerator` under the run context's
    executor and root seed; every (day, BS) unit draws from its own spawned
    seed stream, so the produced campaign is byte-identical for any
    ``--jobs`` or ``chunk_sessions`` setting.  With a cache on the context,
    chunks are spooled through it (bounded peak memory, resumable);
    ``materialize=False`` then keeps only the campaign totals, never the
    full table.  Produces a :class:`~repro.core.generator.GenerationResult`.
    """
    from ..core.generator import GenerationResult

    def run(ctx, artifacts):
        generator = artifacts["generator"]
        with ctx.executor() as executor:
            if ctx.cache is not None:
                manifest = generator.spool_campaign(
                    n_days,
                    ctx.seed,
                    ctx.cache,
                    executor=executor,
                    chunk_sessions=chunk_sessions,
                    telemetry=ctx.telemetry,
                )
                return GenerationResult(
                    n_sessions=manifest.n_sessions,
                    total_volume_mb=manifest.total_volume_mb,
                    n_chunks=len(manifest.chunk_keys),
                    chunk_keys=manifest.chunk_keys,
                    table=manifest.load(ctx.cache) if materialize else None,
                )
            n_chunks = len(generator.plan_chunks(n_days, chunk_sessions))
            table = generator.generate_campaign(
                n_days, ctx.seed, executor=executor
            )
            ctx.obs.metrics.counter("generator.sessions").inc(len(table))
            return GenerationResult(
                n_sessions=len(table),
                total_volume_mb=table.total_volume_mb(),
                n_chunks=n_chunks,
                table=table if materialize else None,
            )

    def summarize(result):
        return {
            "sessions": result.n_sessions,
            "chunks": result.n_chunks,
            "GB": round(result.total_volume_mb / 1e3, 1),
        }

    return Stage(
        name="generate",
        produces="generated",
        requires=("generator",),
        fn=run,
        summarize=summarize,
    )


def verify_stage(baseline, n_days: int) -> Stage:
    """Stage running the statistical fidelity gate on the run's artifacts.

    Measures the paper's headline statistics (service ranking, volume and
    duration model fidelity, arrival-process recovery, circadian structure)
    on the campaign/network/bank artifacts and judges them against the
    ``baseline`` tolerance bands.  The produced ``fidelity`` artifact is a
    :class:`~repro.verify.report.FidelityReport`; its verdict counts are
    surfaced through the stage-event payload, so observers see the outcome
    without touching the artifact namespace.
    """

    def run(ctx, artifacts):
        # Imported lazily: repro.verify's runner assembles pipelines from
        # this module, so a module-level import would be circular.
        from ..verify.checks import evaluate, measure_all

        measured = measure_all(
            artifacts["campaign"],
            artifacts["network"],
            artifacts["bank"],
            n_days,
            ctx.rng("verify"),
        )
        report = evaluate(measured, baseline)
        report.meta.update(
            {"seed": ctx.seed, "campaign": baseline.campaign.to_dict()}
        )
        report.record_metrics(ctx.obs.metrics)
        return report

    return Stage(
        name="verify",
        produces="fidelity",
        requires=("campaign", "network", "bank"),
        fn=run,
        summarize=lambda report: report.summary(),
    )


def validate_stage(n_days: int) -> Stage:
    """Stage validating the campaign against the paper's stylized facts."""
    from ..analysis.validation import validate_campaign

    def run(ctx, artifacts):
        return validate_campaign(artifacts["campaign"], n_days)

    return Stage(
        name="validate", produces="report", requires=("campaign",), fn=run
    )
