"""Command-line interface: simulate, fit, generate.

Subcommands cover the library's end-to-end flow, each assembled from the
staged pipeline engine (:mod:`repro.pipeline`) so campaigns run as
independent per-(day, BS) seed-stream work units:

* ``repro-traffic simulate`` — run a synthetic measurement campaign and
  print its headline statistics;
* ``repro-traffic fit`` — run a campaign, fit the session-level models and
  write a release file with every parameter tuple;
* ``repro-traffic generate`` — load a release file and generate synthetic
  session-level traffic from the models;
* ``repro-traffic campaign`` — run a sharded, aggregate-only campaign at
  scale: (day, BS-range) shards stream through per-worker arenas, only
  mergeable sketches are kept (bounded memory at any BS count), completed
  shards checkpoint through the cache and ``--resume`` folds them back in;
* ``repro-traffic validate`` — check a campaign (simulated and cached, or
  an exported trace) against the paper's stylized facts;
* ``repro-traffic verify`` — run the statistical fidelity gate: simulate
  the baseline campaign, measure the paper's headline statistics and judge
  them against the golden tolerance bands (exit 1 on any breach);
* ``repro-traffic reproduce`` — regenerate a paper artefact at laptop
  scale;
* ``repro-traffic serve`` — run the statistics service: ingest spooled
  campaign checkpoints, merged aggregate JSON, model releases and
  telemetry manifests into a SQLite aggregate store, then answer the
  ``/v1`` query API (per-service shares, volume/duration PDFs, decile
  arrival parameters, fidelity verdicts) for many concurrent clients
  with sketch-digest ETags — strictly out-of-band: campaigns are
  byte-identical whether or not a server ever ingested them;
* ``repro-traffic report`` — render the telemetry of a previous run
  (manifest, stage table, metrics, slowest spans);
* ``repro-traffic lint`` — run the AST-based invariant checker
  (:mod:`repro.lint`) over ``src/``, ``tools/`` and ``benchmarks/``:
  determinism (D), parallel-safety (P) and structure (S) rules, with
  inline suppressions and a checked-in baseline (see
  ``docs/LINTING.md``).

Every subcommand accepts ``--jobs N`` to fan the heavy stages out across
worker processes — output is bit-identical for any worker count thanks to
the per-unit seed streams.  ``simulate``/``fit``/``validate`` cache the
simulated campaign under ``--cache-dir`` (default ``.repro-cache`` or
``$REPRO_CACHE_DIR``), so repeated runs with unchanged config and seed skip
re-simulation; pass ``--no-cache`` to opt out.  ``generate`` runs the
batched synthesis engine: ``--chunk-size`` bounds peak memory by spooling
the campaign chunk-wise through the cache, and repeated runs resume from
already-spooled chunks.

Every run carries a :class:`~repro.obs.telemetry.Telemetry`: pass
``--telemetry-dir DIR`` to stream span/stage/metric events into
``DIR/events.jsonl`` and write a run manifest, ``--log-json`` for
machine-readable stage lines, ``-v``/``-q`` to raise or lower verbosity,
and ``--profile`` to capture per-stage cProfile dumps.  Telemetry is
strictly out-of-band — identical seeds keep producing byte-identical
campaigns whether it is enabled or not.
"""

from __future__ import annotations

import argparse
import sys

from .io.cache import ArtifactCache
from .obs.telemetry import Telemetry
from .pipeline.context import RunContext
from .pipeline.stages import Pipeline
from .pipeline.standard import (
    fit_arrivals_stage,
    fit_models_stage,
    network_stage,
    read_trace_stage,
    simulate_stage,
    validate_stage,
)


def _add_telemetry_flags(sub: argparse.ArgumentParser) -> None:
    """Attach the telemetry/verbosity flags every run subcommand shares."""
    sub.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="write events.jsonl + manifest.json (+ profiles) into DIR",
    )
    sub.add_argument(
        "--log-json", action="store_true",
        help="render stage outcomes as JSON lines instead of text",
    )
    sub.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise verbosity (repeatable; -v adds span timing lines)",
    )
    sub.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="lower verbosity (repeatable; -q silences stage lines)",
    )
    sub.add_argument(
        "--profile", action="store_true",
        help="capture per-stage cProfile dumps into the telemetry dir",
    )
    sub.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="expose the run's live metrics as Prometheus text at "
        "http://127.0.0.1:PORT/metrics for the run's duration "
        "(0 picks an ephemeral port; strictly out-of-band)",
    )


def _add_run_flags(sub: argparse.ArgumentParser, cache: bool = True) -> None:
    """Attach the pipeline flags (``--jobs``, cache control) to a subcommand."""
    sub.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the fan-out stages (default 1 = serial)",
    )
    if cache:
        sub.add_argument(
            "--cache-dir", default=None,
            help="artifact cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
        )
        sub.add_argument(
            "--no-cache", action="store_true",
            help="disable the artifact cache for this run",
        )
    _add_telemetry_flags(sub)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-traffic",
        description="Session-level mobile traffic models (IMC'23 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a synthetic measurement campaign")
    sim.add_argument("--bs", type=int, default=50, help="number of base stations")
    sim.add_argument("--days", type=int, default=1, help="number of days")
    sim.add_argument(
        "--trace", default=None,
        help="also export the campaign as a CSV(.gz) session trace",
    )
    _add_run_flags(sim)

    fit = sub.add_parser("fit", help="fit models from a campaign and save them")
    fit.add_argument("--bs", type=int, default=50)
    fit.add_argument("--days", type=int, default=2)
    fit.add_argument("--output", required=True, help="release file path")
    fit.add_argument(
        "--from-trace", default=None,
        help="fit from an existing CSV(.gz) trace instead of simulating",
    )
    _add_run_flags(fit)

    gen = sub.add_parser("generate", help="generate traffic from saved models")
    gen.add_argument("--models", required=True, help="release file path")
    gen.add_argument("--days", type=int, default=1)
    gen.add_argument("--bs", type=int, default=5, help="number of generated BSs")
    gen.add_argument(
        "--decile", type=int, default=5, help="load decile of the generated BSs"
    )
    gen.add_argument(
        "--chunk-size", type=int, default=None, metavar="SESSIONS",
        help="expected sessions per output chunk (bounds peak memory; "
        "default 1000000)",
    )
    gen.add_argument(
        "--trace", default=None,
        help="also export the generated campaign as a CSV(.gz) trace",
    )
    _add_run_flags(gen)

    camp = sub.add_parser(
        "campaign",
        help="run a sharded aggregate-only campaign (bounded memory at scale)",
    )
    camp.add_argument("--models", required=True, help="release file path")
    camp.add_argument(
        "--bs", type=int, default=100, help="number of generated BSs"
    )
    camp.add_argument("--days", type=int, default=1, help="number of days")
    camp.add_argument(
        "--decile", type=int, default=5, help="load decile of the generated BSs"
    )
    camp.add_argument(
        "--shard-size", type=int, default=None, metavar="BS",
        help="base stations per (day, BS-range) shard (default 64)",
    )
    camp.add_argument(
        "--chunk-size", type=int, default=None, metavar="SESSIONS",
        help="expected sessions a worker materializes at once (bounds its "
        "arena; default 250000; never changes the aggregates)",
    )
    camp.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="fold completed shards back in from cached checkpoints "
        "(--no-resume recomputes every shard)",
    )
    camp.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the merged campaign aggregate as canonical JSON",
    )
    camp.add_argument(
        "--verify-aggregates", action="store_true",
        help="judge the aggregate-determined paper claims against the "
        "golden baseline (exit 1 on any breach)",
    )
    _add_run_flags(camp)

    val = sub.add_parser(
        "validate", help="validate a campaign against stylized facts"
    )
    val.add_argument(
        "--trace", default=None,
        help="CSV(.gz) trace path (default: simulate a campaign instead)",
    )
    val.add_argument("--days", type=int, required=True, help="days covered")
    val.add_argument(
        "--bs", type=int, default=20,
        help="number of base stations when simulating (no --trace)",
    )
    _add_run_flags(val)

    ver = sub.add_parser(
        "verify", help="run the statistical fidelity gate against the baseline"
    )
    ver.add_argument(
        "--baseline", default=None,
        help="baseline JSON path (default: $REPRO_BASELINE or the "
        "checked-in baselines/paper_claims.json)",
    )
    ver.add_argument(
        "--report", default=None,
        help="also write the machine-readable JSON report to this path",
    )
    ver.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline's informational 'observed' values from "
        "this run (tolerance bands are never touched)",
    )
    _add_run_flags(ver)

    rep = sub.add_parser(
        "reproduce", help="reproduce a paper experiment at laptop scale"
    )
    rep.add_argument(
        "experiment",
        choices=["table2", "fig10", "fig13b"],
        help="which paper artefact to regenerate",
    )
    _add_run_flags(rep, cache=False)

    srv = sub.add_parser(
        "serve",
        help="serve ingested campaign aggregates over the /v1 query API",
    )
    srv.add_argument(
        "--db", required=True,
        help="SQLite aggregate-store path (created on first ingest)",
    )
    srv.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    srv.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default 8321; 0 picks an ephemeral port)",
    )
    srv.add_argument(
        "--token", default=None,
        help="bearer token required by POST /v1/submit "
        "(unset leaves submissions disabled)",
    )
    srv.add_argument(
        "--readonly", action="store_true",
        help="refuse every mutating request, token or not",
    )
    srv.add_argument(
        "--ingest-aggregate", action="append", default=[],
        metavar="NAME=PATH",
        help="ingest a merged aggregate JSON (campaign --output) "
        "as campaign NAME (repeatable)",
    )
    srv.add_argument(
        "--ingest-checkpoints", action="append", default=[],
        metavar="NAME=CACHE_ROOT",
        help="merge and ingest the campaign-shard checkpoints spooled "
        "under a cache root (repeatable)",
    )
    srv.add_argument(
        "--ingest-release", default=None, metavar="PATH",
        help="ingest a model release's decile arrival parameters",
    )
    srv.add_argument(
        "--ingest-manifest", action="append", default=[],
        metavar="NAME=DIR",
        help="attach a run's telemetry manifest (directory or "
        "manifest.json) to campaign NAME (repeatable)",
    )
    srv.add_argument(
        "--baseline", default=None,
        help="fidelity baseline JSON (default: the checked-in "
        "baselines/paper_claims.json)",
    )
    srv.add_argument(
        "--ingest-only", action="store_true",
        help="ingest, print the store contents and exit without serving",
    )
    _add_telemetry_flags(srv)

    rpt = sub.add_parser(
        "report", help="render the telemetry of a previous run"
    )
    rpt.add_argument(
        "directory",
        help="telemetry directory of the run (as given to --telemetry-dir)",
    )
    rpt.add_argument(
        "--follow", action="store_true",
        help="tail a live run: stream heartbeat/stage/access events and "
        "progress.json updates until the run finalizes",
    )
    rpt.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="poll interval while following (default 0.5)",
    )
    rpt.add_argument(
        "--follow-timeout", type=float, default=None, metavar="SECONDS",
        help="give up following after this many seconds (exit 1)",
    )

    from .lint.app import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run the repro-lint invariant checker (determinism, "
        "parallel safety, structure)",
    )
    add_lint_arguments(lint)
    return parser


def _make_context(
    args: argparse.Namespace, telemetry: Telemetry
) -> RunContext:
    """Build the run context a subcommand executes under.

    The run's telemetry is threaded through everything that reports into
    it: the artifact cache (hit/miss/bytes counters), the context (stage
    spans, default stage observer) and — via the context — the executors.
    """
    cache = None
    if hasattr(args, "no_cache") and not args.no_cache:
        cache = ArtifactCache(args.cache_dir, telemetry=telemetry)
    return RunContext(
        seed=args.seed,
        jobs=getattr(args, "jobs", 1),
        cache=cache,
        telemetry=telemetry,
    )


def _cmd_simulate(args: argparse.Namespace, ctx: RunContext) -> int:
    from .dataset.aggregation import service_shares
    from .io.tables import print_table

    pipeline = Pipeline(
        [network_stage(args.bs), simulate_stage(args.days)]
    )
    run = pipeline.run(ctx)
    table = run.artifact("campaign")
    shares = service_shares(table)
    top = sorted(shares.items(), key=lambda kv: kv[1][0], reverse=True)[:10]
    print(f"sessions: {len(table)}")
    print(f"total traffic: {table.total_volume_mb() / 1e3:.1f} GB")
    print_table(
        ["service", "session %", "traffic %"],
        [[name, 100 * s, 100 * t] for name, (s, t) in top],
        title="Top services",
    )
    if args.trace:
        from .io.traces import write_trace

        rows = write_trace(table, args.trace)
        print(f"trace: {rows} sessions -> {args.trace}")
    return 0


def _cmd_fit(args: argparse.Namespace, ctx: RunContext) -> int:
    from .io.params import save_release

    if args.from_trace:
        pipeline = Pipeline(
            [read_trace_stage(args.from_trace), fit_models_stage()]
        )
        run = pipeline.run(ctx)
        bank = run.artifact("bank")
        save_release(args.output, bank)
        print(
            f"fitted {len(bank)} service models from {args.from_trace} "
            f"-> {args.output}"
        )
        return 0
    pipeline = Pipeline(
        [
            network_stage(args.bs),
            simulate_stage(args.days),
            fit_models_stage(),
            fit_arrivals_stage(args.days),
        ]
    )
    run = pipeline.run(ctx)
    bank = run.artifact("bank")
    save_release(args.output, bank, run.artifact("arrivals"))
    print(f"fitted {len(bank)} service models -> {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace, ctx: RunContext) -> int:
    from .core.generator import TrafficGenerator
    from .core.service_mix import ServiceMix
    from .dataset.network import decile_peak_rate
    from .io.params import load_release
    from .pipeline.standard import generate_stage

    bank, arrivals = load_release(args.models)
    label = f"decile-{args.decile}"
    if label in arrivals:
        arrival = arrivals[label]
    else:
        # Release without arrival fits: fall back to the published decile
        # anchors of Section 5.1.
        peak = decile_peak_rate(args.decile)
        from .core.arrivals import ArrivalModel

        arrival = ArrivalModel(peak, peak / 10.0, peak / 8.0)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    generator = TrafficGenerator(
        {bs: arrival for bs in range(args.bs)}, mix, bank
    )
    pipeline = Pipeline(
        [
            generate_stage(
                args.days,
                chunk_sessions=args.chunk_size,
                materialize=bool(args.trace),
            )
        ],
        inputs=("generator",),
    )
    run = pipeline.run(ctx, initial={"generator": generator})
    result = run.artifact("generated")
    print(
        f"generated {result.n_sessions} sessions over {args.bs} BSs, "
        f"{args.days} day(s) in {result.n_chunks} chunk(s)"
    )
    print(f"total traffic: {result.total_volume_mb / 1e3:.1f} GB")
    if args.trace:
        from .io.traces import write_trace

        rows = write_trace(result.table, args.trace)
        print(f"trace: {rows} sessions -> {args.trace}")
    return 0


def _cmd_campaign(args: argparse.Namespace, ctx: RunContext) -> int:
    from .campaign import run_campaign
    from .campaign.driver import DEFAULT_SHARD_BS, DEFAULT_SHARD_CHUNK_SESSIONS
    from .core.generator import TrafficGenerator
    from .core.service_mix import ServiceMix
    from .dataset.network import decile_peak_rate
    from .io.params import load_release

    bank, arrivals = load_release(args.models)
    label = f"decile-{args.decile}"
    if label in arrivals:
        arrival = arrivals[label]
    else:
        # Release without arrival fits: fall back to the published decile
        # anchors of Section 5.1 (same convention as ``generate``).
        peak = decile_peak_rate(args.decile)
        from .core.arrivals import ArrivalModel

        arrival = ArrivalModel(peak, peak / 10.0, peak / 8.0)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    generator = TrafficGenerator(
        {bs: arrival for bs in range(args.bs)}, mix, bank
    )
    with ctx.executor() as executor:
        result = run_campaign(
            generator,
            args.days,
            ctx.seed,
            shard_bs=(
                args.shard_size if args.shard_size is not None
                else DEFAULT_SHARD_BS
            ),
            chunk_sessions=(
                args.chunk_size if args.chunk_size is not None
                else DEFAULT_SHARD_CHUNK_SESSIONS
            ),
            executor=executor,
            cache=ctx.cache,
            resume=args.resume,
            telemetry=ctx.telemetry,
        )
    summary = result.summary()
    print(
        f"campaign: {summary['sessions']} sessions over {args.bs} BSs, "
        f"{args.days} day(s) in {summary['shards']} shard(s) "
        f"({summary['resumed_shards']} resumed, "
        f"{summary['computed_shards']} computed)"
    )
    print(f"total traffic: {summary['volume_gb']:.1f} GB")
    print(f"distinct sessions (HLL): ~{summary['distinct_estimate']:.0f}")
    print(f"aggregate digest: {summary['digest']}")
    if args.output:
        import json

        # The merged aggregate rides under a provenance envelope: the
        # trace id sits *outside* the aggregate's canonical serialization,
        # so digests and resume keys are unchanged and ``from_dict``
        # (which ignores unknown keys) still round-trips the document.
        document = result.aggregate.to_dict()
        document["provenance"] = result.provenance()
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(document, sort_keys=True, separators=(",", ":")))
        print(f"aggregate: {args.output}")
    if args.verify_aggregates:
        from .campaign.fidelity import evaluate_aggregate
        from .io.tables import print_table
        from .verify import Baseline, default_baseline_path

        path = default_baseline_path()
        report = evaluate_aggregate(result.aggregate, Baseline.load(path))
        print_table(
            ["claim", "value", "lo", "hi", "verdict"],
            [
                [
                    r.claim, r.value, r.lo, r.hi,
                    "skip" if r.skipped else
                    ("pass" if r.passed else "FAIL"),
                ]
                for r in report.results
            ],
            title=f"Aggregate fidelity (seed {ctx.seed}, baseline {path})",
        )
        print("verdict:", report.summary()["verdict"])
        if not report.ok:
            return 1
    return 0


def _parse_ingest_pairs(
    entries: list[str], flag: str
) -> list[tuple[str, str]]:
    """Split repeatable ``NAME=PATH`` ingest flags, rejecting malformed ones."""
    pairs = []
    for entry in entries:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            raise SystemExit(
                f"error: {flag} expects NAME=PATH, got {entry!r}"
            )
        pairs.append((name, path))
    return pairs


def _cmd_serve(args: argparse.Namespace, ctx: RunContext) -> int:
    from .serve import DEFAULT_PORT, AggregateStore, ServeApp, make_server
    from .serve.store import StoreError

    telemetry = ctx.telemetry
    baseline = None
    if args.baseline:
        from .verify import Baseline

        baseline = Baseline.load(args.baseline)
    store = AggregateStore(args.db, baseline=baseline)

    aggregates = _parse_ingest_pairs(
        args.ingest_aggregate, "--ingest-aggregate"
    )
    checkpoints = _parse_ingest_pairs(
        args.ingest_checkpoints, "--ingest-checkpoints"
    )
    manifests = _parse_ingest_pairs(
        args.ingest_manifest, "--ingest-manifest"
    )
    try:
        if aggregates or checkpoints or manifests or args.ingest_release:
            with telemetry.span("serve:ingest", kind="serve") as span:
                for name, path in aggregates:
                    digest = store.ingest_aggregate_file(name, path)
                    print(f"ingested aggregate {name}: digest {digest}")
                for name, root in checkpoints:
                    digest, n = store.ingest_checkpoints(name, root)
                    print(
                        f"ingested {n} checkpoint(s) as {name}: "
                        f"digest {digest}"
                    )
                for name, path in manifests:
                    store.ingest_manifest_file(name, path)
                    print(f"attached manifest to {name}")
                if args.ingest_release:
                    store.ingest_release(args.ingest_release)
                    print(f"ingested release: {args.ingest_release}")
                span.attrs["campaigns"] = len(store.campaign_names())
            telemetry.metrics.counter("serve.ingested").inc(
                len(aggregates) + len(checkpoints)
            )
    except StoreError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return 2
    names = store.campaign_names()
    telemetry.metrics.gauge("serve.campaigns").set(len(names))
    print(
        f"store {args.db}: {len(names)} campaign(s)"
        + (f" ({', '.join(names)})" if names else "")
    )
    if args.ingest_only:
        return 0

    app = ServeApp(
        store,
        token=args.token,
        readonly=args.readonly,
        telemetry=telemetry,
    )
    port = args.port if args.port is not None else DEFAULT_PORT
    server = make_server(args.host, port, app)
    mode = "read-only" if args.readonly else (
        "submit enabled" if args.token else "submit disabled"
    )
    print(
        f"serving on http://{args.host}:{server.server_port}/v1 ({mode}); "
        f"Ctrl-C to stop"
    )
    with telemetry.span(
        "serve:listen",
        kind="serve",
        attrs={"port": server.server_port, "readonly": args.readonly},
    ):
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
    return 0


def _cmd_validate(args: argparse.Namespace, ctx: RunContext) -> int:
    from .io.tables import print_table

    if args.trace:
        stages = [read_trace_stage(args.trace), validate_stage(args.days)]
        source = args.trace
    else:
        stages = [
            network_stage(args.bs),
            simulate_stage(args.days),
            validate_stage(args.days),
        ]
        source = f"simulated campaign ({args.bs} BSs, {args.days} day(s))"
    run = Pipeline(stages).run(ctx)
    table = run.artifact("campaign")
    report = run.artifact("report")
    print_table(
        ["severity", "check", "message"],
        [[f.severity.value, f.check, f.message] for f in report.findings],
        title=f"Validation of {source} ({len(table)} sessions)",
    )
    print("verdict:", "OK" if report.ok else "FAILED")
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace, ctx: RunContext) -> int:
    from .io.tables import print_table
    from .verify import Baseline, default_baseline_path, run_verification

    path = (
        args.baseline if args.baseline is not None else default_baseline_path()
    )
    baseline = Baseline.load(path)
    report, _run = run_verification(ctx, baseline=baseline)
    report.meta["baseline"] = str(path)
    print_table(
        ["claim", "value", "lo", "hi", "verdict"],
        [
            [r.claim, r.value, r.lo, r.hi, "pass" if r.passed else "FAIL"]
            for r in report.results
        ],
        title=f"Fidelity gate (seed {ctx.seed}, baseline {path})",
    )
    summary = report.summary()
    print(
        f"claims: {summary['claims']}  checks: {summary['checks']}  "
        f"failed: {summary['failed']}"
    )
    print("verdict:", summary["verdict"])
    if args.report:
        report.write(args.report)
        print(f"report: {args.report}")
    if args.update_baseline:
        measured = {r.statistic: r.value for r in report.results}
        baseline.with_observed(measured).save(path)
        print(f"baseline observations refreshed: {path}")
    return 0 if report.ok else 1


def _cmd_reproduce(args: argparse.Namespace, ctx: RunContext) -> int:
    from .dataset.network import Network, NetworkConfig
    from .dataset.simulator import SimulationConfig, simulate
    from .io.tables import print_table

    if args.experiment == "table2":
        from .usecases.slicing import SlicingScenario, run_slicing_experiment

        outcome = run_slicing_experiment(
            ctx.rng("reproduce", "table2"),
            SlicingScenario(n_antennas=10, n_days=2, n_model_days=4),
        )
        print_table(
            ["strategy", "no-drop %", "std %"],
            [
                [name, 100 * r.mean_satisfaction, 100 * r.std_satisfaction]
                for name, r in outcome.results.items()
            ],
            title="Table 2 (paper: model 95.15 / bm a 89.8 / bm b 87.25)",
        )
        return 0

    if args.experiment == "fig10":
        from .core.duration_model import fit_power_law
        from .dataset.aggregation import pooled_duration_volume
        from .dataset.records import SERVICE_NAMES

        network = Network(NetworkConfig(n_bs=20), ctx.rng("network"))
        with ctx.executor() as executor:
            table = simulate(
                network, SimulationConfig(n_days=1), ctx.seed, executor=executor
            )
        rows = []
        for name in SERVICE_NAMES:
            sub = table.for_service(name)
            if len(sub) < 2000:
                continue
            model = fit_power_law(pooled_duration_volume(sub))
            rows.append([name, model.beta, model.r2])
        rows.sort(key=lambda r: -r[1])
        print_table(
            ["service", "beta", "R^2"],
            rows,
            title="Fig 10 (paper: beta in [0.1, 1.8], video super-linear)",
        )
        return 0

    if args.experiment == "fig13b":
        from .usecases.vran import (
            VranScenario,
            VranTopology,
            run_vran_experiment,
        )

        network = Network(NetworkConfig(n_bs=20), ctx.rng("network"))
        with ctx.executor() as executor:
            table = simulate(
                network, SimulationConfig(n_days=1), ctx.seed, executor=executor
            )
        outcome = run_vran_experiment(
            table,
            ctx.rng("reproduce", "fig13b"),
            VranScenario(
                topology=VranTopology(n_es=5, n_ru_per_es=4),
                horizon_s=1200.0,
                warmup_s=400.0,
            ),
        )
        print_table(
            ["strategy", "APE power median %", "p95 %"],
            [
                [name, stats["power"].median, stats["power"].p95]
                for name, stats in outcome.summary().items()
            ],
            title="Fig 13b (paper: model < 5 %, benchmarks 100-1000 %)",
        )
        return 0

    raise AssertionError(f"unhandled experiment {args.experiment!r}")


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the telemetry of a previous run (no context needed)."""
    from .obs.report import ReportRenderError, follow_run, render_run

    if args.follow:
        try:
            outcome = follow_run(
                args.directory,
                poll_s=args.poll,
                timeout_s=args.follow_timeout,
            )
        except BrokenPipeError:
            # Downstream pager/head closed the pipe; not a follow failure.
            return 0
        if outcome == "timeout":
            print("follow: timed out before the run finalized", file=sys.stderr)
            return 1
        return 0
    try:
        lines = render_run(args.directory)
    except ReportRenderError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Run subcommands execute under one :class:`~repro.obs.telemetry.Telemetry`
    built from the telemetry flags: the whole command runs inside a ``run``
    span, stage events flow through the telemetry's verbosity-aware
    renderer, and — telemetry directory or not — the run is finalized on
    the way out, writing the manifest and the final metric snapshot when a
    directory was given.
    """
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "lint":
        from .lint.app import run as run_lint

        return run_lint(args)
    from .pipeline.context import mint_trace_id

    telemetry = Telemetry(
        directory=getattr(args, "telemetry_dir", None),
        verbosity=1 + getattr(args, "verbose", 0) - getattr(args, "quiet", 0),
        log_json=getattr(args, "log_json", False),
        profile=getattr(args, "profile", False),
        trace_id=mint_trace_id(args.seed),
    )
    sidecar = None
    metrics_port = getattr(args, "metrics_port", None)
    if metrics_port is not None:
        from .obs.expose import MetricsSidecar

        sidecar = MetricsSidecar(telemetry.metrics.snapshot, metrics_port)
        print(
            f"metrics: http://127.0.0.1:{sidecar.port}/metrics",
            file=sys.stderr,
        )
    ctx = _make_context(args, telemetry)
    handlers = {
        "simulate": _cmd_simulate,
        "fit": _cmd_fit,
        "generate": _cmd_generate,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "validate": _cmd_validate,
        "verify": _cmd_verify,
        "reproduce": _cmd_reproduce,
    }
    status = "error"
    try:
        with telemetry.span(f"run:{args.command}", kind="run"):
            code = handlers[args.command](args, ctx)
        status = "ok" if code == 0 else "failed"
        return code
    finally:
        telemetry.finalize(
            command=args.command,
            seed=args.seed,
            argv=list(argv) if argv is not None else sys.argv[1:],
            config=vars(args),
            status=status,
        )
        if sidecar is not None:
            sidecar.close()


if __name__ == "__main__":
    sys.exit(main())
