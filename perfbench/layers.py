"""The layer map: which public call each per-layer metric wraps.

``install`` puts a span-recording wrapper on every public call a
per-layer metric (``--trace 1``) is taken from.  Suffix ``_s`` is self
time in seconds: the time spent inside that call minus the time spent in
wrapped calls it made.

Every metric is emitted on every workload; a layer the workload does not
exercise reads 0.  Set-up metrics (``dataset.simulate_s``, ``core.fit_s``,
``serve.ingest_s``) come from one traced set-up; the rest from the traced
timed phase (the median-wall traced ``run_campaign`` call for the
campaign workloads, the whole traced load phase for ``serve_mixed``).
"""

from __future__ import annotations

from tracer import Tracer

#: Every per-layer metric, in output order, with its unit.  What each
#: measures, the layer, the public call it wraps and the end-to-end metric
#: and workload it should move are documented in ``METRICS.md``.
PER_LAYER: dict[str, str] = {
    "dataset.simulate_s": "s",
    "core.fit_s": "s",
    "core.generate_s": "s",
    "core.generate_sessions": "sessions",
    "campaign.fold_s": "s",
    "campaign.fold_sessions": "sessions",
    "campaign.encode_s": "s",
    "campaign.decode_s": "s",
    "campaign.merge_s": "s",
    "io.key_s": "s",
    "core.bank_json_s": "s",
    "io.checkpoint_write_s": "s",
    "io.checkpoint_write_bytes": "bytes",
    "io.checkpoint_read_s": "s",
    "io.checkpoint_read_bytes": "bytes",
    "campaign.unattributed_s": "s",
    "campaign.shards_computed": "count",
    "campaign.shards_resumed": "count",
    "campaign.shards_failed": "count",
    "campaign.aggregate_bytes": "bytes",
    "serve.ingest_s": "s",
    "serve.submit_s": "s",
    "serve.documents_s": "s",
    "serve.store_read_s": "s",
    "serve.app_s": "s",
    "obs.exposition_s": "s",
    "serve.transport_ms": "ms",
    "serve.transport_submit_ms": "ms",
    "serve.requests": "count",
    "serve.requests_failed": "count",
    "serve.not_modified": "count",
    "serve.submits_applied": "count",
    "serve.response_bytes": "bytes",
    "load.lag_p99_ms": "ms",
    "e2e.read_p99_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _rows(args: tuple, kwargs: dict, result) -> dict:
    return {"core.generate_sessions": len(result)}


def _folded(args: tuple, kwargs: dict, result) -> dict:
    return {"campaign.fold_sessions": len(args[1])}


def _written(args: tuple, kwargs: dict, result) -> dict:
    return {"io.checkpoint_write_bytes": result.stat().st_size}


def _read(args: tuple, kwargs: dict, result) -> dict:
    cache, kind, key, suffix = args[:4]
    return {
        "io.checkpoint_read_bytes":
            cache.path_for(kind, key, suffix).stat().st_size
    }


def install(tracer: Tracer, on_app_exit=None) -> None:
    """Wrap every public call named in :data:`PER_LAYER`.

    ``on_app_exit(args, kwargs, seconds)`` is called after each
    ``ServeApp.__call__``; the serve workload uses it to pair server time
    with client latency per request.
    """
    import repro.campaign.driver as driver
    import repro.dataset.simulator as simulator
    import repro.serve.http as http
    import repro.serve.store as store
    from repro.campaign.sketches import CampaignAggregate
    from repro.core.generator import TrafficGenerator
    from repro.core.model_bank import ModelBank
    from repro.io.cache import ArtifactCache

    tracer.patch(simulator, "simulate", "dataset.simulate")
    tracer.patch(ModelBank, "fit_from_table", "core.fit")
    tracer.patch(ModelBank, "to_json", "core.bank_json")
    tracer.patch(TrafficGenerator, "generate_units", "core.generate", _rows)
    tracer.patch(CampaignAggregate, "update_table", "campaign.fold", _folded)
    tracer.patch(CampaignAggregate, "to_dict", "campaign.encode")
    tracer.patch(CampaignAggregate, "from_dict", "campaign.decode")
    tracer.patch(CampaignAggregate, "merge", "campaign.merge")
    tracer.patch(driver, "content_key", "io.key")
    tracer.patch(ArtifactCache, "store", "io.checkpoint_write", _written)
    tracer.patch(ArtifactCache, "fetch", "io.checkpoint_read", _read)
    tracer.patch(store.AggregateStore, "ingest_aggregate", "serve.ingest")
    tracer.patch(store.AggregateStore, "submit", "serve.submit")
    tracer.patch(store, "build_aggregate_documents", "serve.documents")
    for method in (
        "document", "campaigns", "listing_etag", "trace", "campaign_names"
    ):
        tracer.patch(store.AggregateStore, method, "serve.store_read")
    tracer.patch(http.ServeApp, "__call__", "serve.app", on_exit=on_app_exit)
    tracer.patch(http, "render_exposition", "obs.exposition")


def layer_seconds(totals: dict[str, float]) -> dict[str, float]:
    """Map span self-time totals onto the ``*_s`` metric names."""
    return {
        f"{span}_s": totals.get(span, 0.0)
        for span in (
            "core.generate", "campaign.fold", "campaign.encode",
            "campaign.decode", "campaign.merge", "io.key", "core.bank_json",
            "io.checkpoint_write", "io.checkpoint_read", "serve.submit",
            "serve.documents", "serve.store_read", "serve.app",
            "obs.exposition",
        )
    }
