"""Named stages over typed artifacts — the run architecture of the library.

A :class:`Pipeline` is an ordered list of :class:`Stage` objects.  Each
stage consumes named artifacts produced by earlier stages (or supplied as
initial inputs), produces exactly one named artifact, and may declare an
:class:`ArtifactSpec` describing how its product is content-keyed and
persisted — in which case a matching entry in the run's
:class:`~repro.io.cache.ArtifactCache` short-circuits the computation.

The wiring is validated up front (unique names, no artifact produced twice,
every requirement satisfiable), so a mis-assembled pipeline fails before any
expensive stage runs.  Execution emits one :class:`StageEvent` per stage —
the CLI surfaces them so cache hits and stage timings are visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .context import RunContext


class PipelineError(ValueError):
    """Raised on invalid pipeline wiring or missing artifacts."""


@dataclass(frozen=True)
class ArtifactSpec:
    """How a stage's product is content-keyed and persisted.

    Attributes
    ----------
    kind:
        Cache subdirectory / artifact family name (e.g. ``"campaign"``).
    suffix:
        Filename suffix of the persisted form (e.g. ``".seg"``).
    save:
        ``save(path, value)`` — write the artifact to ``path``.
    load:
        ``load(path) -> value`` — inverse of ``save``.
    key_parts:
        ``key_parts(ctx, artifacts) -> mapping`` — the configuration facts
        that determine the artifact's content; hashed into the cache key.
    """

    kind: str
    suffix: str
    save: Callable[[Path, Any], None]
    load: Callable[[Path], Any]
    key_parts: Callable[[RunContext, dict[str, Any]], Mapping[str, Any]]


@dataclass(frozen=True)
class Stage:
    """One named step of a pipeline.

    Attributes
    ----------
    name:
        Stage name, unique within the pipeline (e.g. ``"simulate"``).
    produces:
        Name of the artifact the stage returns.
    fn:
        ``fn(ctx, artifacts) -> value`` — the stage body; ``artifacts`` maps
        every previously produced artifact name to its value.
    requires:
        Artifact names the stage consumes; checked before the body runs.
    spec:
        Optional :class:`ArtifactSpec` enabling caching of the product.
    summarize:
        Optional ``summarize(value) -> mapping`` turning the stage's product
        into a small JSON-able payload attached to the emitted
        :class:`StageEvent` (on cache hits too) — how result-bearing stages
        such as the fidelity gate surface their outcome through the event
        mechanism.
    """

    name: str
    produces: str
    fn: Callable[[RunContext, dict[str, Any]], Any]
    requires: tuple[str, ...] = ()
    spec: ArtifactSpec | None = None
    summarize: Callable[[Any], Mapping[str, Any]] | None = None


@dataclass(frozen=True)
class StageEvent:
    """Outcome of one executed stage (for logs and cache introspection).

    ``payload`` carries the stage's machine-readable summary (built by the
    stage's ``summarize`` hook), so observers can stream structured results
    — e.g. the fidelity gate's per-check verdict counts — without reaching
    into the artifact namespace.  ``cache_status`` records the stage's
    cache provenance — ``"hit"`` for a replayed artifact, ``"miss"`` for a
    freshly computed (and stored) one, ``None`` for an uncacheable stage or
    a run without a cache — so logs distinguish cached replays from fresh
    runs.
    """

    stage: str
    status: str  # "computed" | "cached"
    seconds: float
    key: str | None = None
    payload: Mapping[str, Any] | None = None
    cache_status: str | None = None  # "hit" | "miss" | None

    def describe(self) -> str:
        """One-line human-readable rendering of the event.

        Cache provenance is always spelled out with the artifact key's
        prefix: ``cache hit [1f0c9a2e]`` for replays, ``cache miss ->
        1f0c9a2e`` for fresh computations of cacheable stages.
        """
        extra = ""
        if self.payload:
            parts = ", ".join(f"{k}={v}" for k, v in self.payload.items())
            extra = f" [{parts}]"
        prefix = self.key[:8] if self.key else None
        if self.status == "cached":
            return f"{self.stage}: cache hit [{prefix}]{extra}"
        suffix = ""
        if self.cache_status == "miss":
            suffix = f", cache miss -> {prefix}"
        elif self.key:
            suffix = f", key {prefix}"
        return f"{self.stage}: computed in {self.seconds:.2f}s{suffix}{extra}"


@dataclass
class PipelineRun:
    """Result of :meth:`Pipeline.run`: artifacts plus per-stage events."""

    artifacts: dict[str, Any] = field(default_factory=dict)
    events: list[StageEvent] = field(default_factory=list)

    def artifact(self, name: str) -> Any:
        """Value of one named artifact."""
        try:
            return self.artifacts[name]
        except KeyError:
            raise PipelineError(f"no artifact named {name!r}") from None

    def event(self, stage: str) -> StageEvent:
        """The event emitted by one named stage."""
        for event in self.events:
            if event.stage == stage:
                return event
        raise PipelineError(f"no stage named {stage!r} ran")


class Pipeline:
    """An ordered, validated sequence of stages."""

    def __init__(self, stages: Sequence[Stage], inputs: tuple[str, ...] = ()):
        self.stages = tuple(stages)
        self.inputs = tuple(inputs)
        if not self.stages:
            raise PipelineError("a pipeline needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise PipelineError(f"duplicate stage names in {names}")
        available = set(self.inputs)
        for stage in self.stages:
            missing = [r for r in stage.requires if r not in available]
            if missing:
                raise PipelineError(
                    f"stage {stage.name!r} requires {missing} which no "
                    "earlier stage produces and no declared input provides"
                )
            if stage.produces in available:
                raise PipelineError(
                    f"artifact {stage.produces!r} produced twice"
                )
            available.add(stage.produces)

    def run(
        self,
        ctx: RunContext,
        initial: Mapping[str, Any] | None = None,
        observer: Callable[[StageEvent], None] | None = None,
    ) -> PipelineRun:
        """Execute every stage in order.

        ``initial`` seeds the artifact namespace (it must cover the declared
        ``inputs``); ``observer`` is called with each :class:`StageEvent` as
        it happens, letting callers stream progress.  When no observer is
        given and the context carries telemetry, the telemetry's
        verbosity-aware :meth:`~repro.obs.telemetry.Telemetry.observe`
        renderer is used — the single event renderer every subcommand
        shares.
        """
        artifacts: dict[str, Any] = dict(initial or {})
        missing = [name for name in self.inputs if name not in artifacts]
        if missing:
            raise PipelineError(f"missing initial artifacts: {missing}")
        if observer is None and ctx.telemetry is not None:
            observer = ctx.telemetry.observe
        events: list[StageEvent] = []
        for stage in self.stages:
            event, value = self._run_stage(stage, ctx, artifacts)
            artifacts[stage.produces] = value
            events.append(event)
            if observer is not None:
                observer(event)
        return PipelineRun(artifacts=artifacts, events=events)

    def _run_stage(
        self, stage: Stage, ctx: RunContext, artifacts: dict[str, Any]
    ) -> tuple[StageEvent, Any]:
        for requirement in stage.requires:
            if requirement not in artifacts:
                raise PipelineError(
                    f"stage {stage.name!r} missing artifact {requirement!r}"
                )
        obs = ctx.obs
        with obs.span(stage.name, kind="stage") as span:
            event, value = self._execute_stage(stage, ctx, artifacts, obs)
            span.attrs["status"] = event.status
            if event.key is not None:
                span.attrs["key"] = event.key
            if event.cache_status is not None:
                span.attrs["cache"] = event.cache_status
        obs.metrics.counter("pipeline.stages").inc()
        return event, value

    def _execute_stage(
        self, stage: Stage, ctx: RunContext, artifacts: dict[str, Any], obs
    ) -> tuple[StageEvent, Any]:
        """Run one stage body (or replay its cached artifact)."""
        key: str | None = None
        cache_status: str | None = None
        spec = stage.spec
        if spec is not None and ctx.cache is not None:
            # Imported lazily: repro.io pulls in the model layers, which in
            # turn import the dataset package this engine underpins.
            from ..io.cache import content_key

            key = content_key(dict(spec.key_parts(ctx, artifacts)))
            cache_status = "miss"
            if ctx.cache.has(spec.kind, key, spec.suffix):
                from ..io.cache import CacheError

                start = time.perf_counter()
                try:
                    value = ctx.cache.fetch(
                        spec.kind, key, spec.suffix, spec.load
                    )
                except CacheError:
                    # An unreadable entry (truncated, hand-edited, stale
                    # format) must never kill the run: recompute and let
                    # the store below overwrite the broken artifact.
                    pass
                else:
                    seconds = time.perf_counter() - start
                    event = StageEvent(
                        stage.name, "cached", seconds, key,
                        payload=self._summarize(stage, value),
                        cache_status="hit",
                    )
                    return event, value
        start = time.perf_counter()
        with obs.profile_stage(stage.name):
            value = stage.fn(ctx, artifacts)
        seconds = time.perf_counter() - start
        if spec is not None and ctx.cache is not None and key is not None:
            ctx.cache.store(
                spec.kind, key, spec.suffix, lambda path: spec.save(path, value)
            )
        event = StageEvent(
            stage.name, "computed", seconds, key,
            payload=self._summarize(stage, value),
            cache_status=cache_status,
        )
        return event, value

    @staticmethod
    def _summarize(stage: Stage, value: Any) -> Mapping[str, Any] | None:
        if stage.summarize is None:
            return None
        return dict(stage.summarize(value))
