"""The ``serve_mixed`` workload: open-loop reads and writes on the service.

A forked server child builds the store (the ``bench_serve.py`` recipe:
one small campaign aggregate per variant, ingested under 64 regional
names) and runs ``make_server`` on loopback.  The parent is the load
generator: one thread sends an open-loop schedule at a fixed
offered rate, one request every ``1 / rate`` seconds, whether or not
earlier requests have been answered, one connection per request as the
stdlib server expects.  Every latency is timed from the moment the
request was due, so a stall also delays the requests queued behind it.
The timed phase runs as :data:`SEGMENTS` consecutive pieces of the
schedule with the host-speed probe of both processes between them, and
the end-to-end figures are in host time: each latency is scaled by the
probes around its piece (see :func:`common.host_scale`).

The mix: the reads of ``benchmarks/bench_serve.py`` (an equal rotation
over campaign listings, per-service shares, volume/duration PDFs,
fidelity verdicts and ``/metrics``, sweeping campaign names), a share of
repeat reads carrying ``If-None-Match`` (the 304 path) and 5%
authenticated ``POST /v1/submit`` that replace one campaign's aggregate
with another variant.  Writes take the store lock the reads take, so a
read-path gain that costs ingest shows.  Imported after
:func:`common.import_system` put the program on the path.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np
from repro.campaign import run_campaign
from repro.campaign.sketches import CampaignAggregate
from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.obs.expose import parse_exposition
from repro.serve import AggregateStore, ServeApp, make_server
from repro.serve.views import build_aggregate_documents, canonical_body
from repro.verify import Baseline

import common
import layers
from tracer import Tracer, self_times

#: Offered load in requests/s: about a third of the measured 2-client
#: closed-loop capacity (470–670 req/s on a 2-core x86 box), so the
#: server has headroom and queueing shows as tail latency, not collapse.
OFFERED_RATE = 150.0
SMOKE_RATE = 50.0

#: Store size and number of distinct aggregates a campaign can hold.
CAMPAIGNS, SMOKE_CAMPAIGNS = 64, 8
VARIANTS = 4

#: Footprint and HLL precision of each variant aggregate (bench_serve.py).
VARIANT_BS, VARIANT_DAYS, PRECISION = 12, 1, 12

#: Read routes in the order ``benchmarks/bench_serve.py`` rotates over
#: them; read ``i`` takes route ``i % 6`` and campaign ``i % campaigns``.
READ_ROTATION = (
    "listing", "services/shares", "pdf/volume", "pdf/duration", "fidelity",
    "metrics",
)

#: One slot in each block of this many is a submit, at a seeded position
#: (5% of requests).  Submits sweep the campaigns like the reads do.
SUBMIT_BLOCK = 20

#: Share of reads that revalidate with ``If-None-Match`` when the client
#: holds a tag for the path.  Assumed, not measured: nothing in the
#: repository records how often dashboards revalidate.
REVALIDATE_SHARE = 0.3

#: The timed phase runs as this many consecutive segments, with the
#: host-speed probe of both processes between them (see ``load``).
SEGMENTS = 10

#: Seconds of untimed traffic before the timed phase, so first-request
#: costs (code paths, allocator arenas, SQLite pages) are paid up front.
WARMUP_S = 2.0

TOKEN = "perfbench-token"
REQUEST_TIMEOUT_S = 10.0
ROUTES = {
    "services/shares": "/v1/services/shares?campaign={name}",
    "pdf/volume": "/v1/pdf/volume?campaign={name}",
    "pdf/duration": "/v1/pdf/duration?campaign={name}",
    "fidelity": "/v1/fidelity?campaign={name}",
    "listing": "/v1/campaigns?limit=25",
    "metrics": "/metrics",
}


def _names(n: int) -> list[str]:
    return [f"region-{index:03d}" for index in range(n)]


# -- server child ---------------------------------------------------------------
def server_child(conn, seed: int, smoke: bool, traced: bool) -> None:
    """Set up the store, serve it until told to stop, report back."""
    common.pin(1)
    baseline = Baseline.load(common.BASELINE)
    names = _names(SMOKE_CAMPAIGNS if smoke else CAMPAIGNS)
    tracer = None
    app_times: dict[str, float] = {}
    if traced:
        tracer = Tracer()

        def on_app_exit(args, kwargs, seconds):
            request = args[1].get("HTTP_X_BENCH_REQUEST")
            if request is not None:
                app_times[request] = seconds

        layers.install(tracer, on_app_exit)

    setup_s: list[float] = []
    setup_probes: list[list[float]] = []
    store = None
    for _ in range(1 if traced else common.SETUP_REPEATS):
        if store is not None:
            store.close()
        probe_before = common.probe_ms()
        start = time.perf_counter()
        bank, mix = common.fit_models()
        arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
        generator = TrafficGenerator(
            {bs: arrival for bs in range(VARIANT_BS)}, mix, bank
        )
        variants = [
            run_campaign(
                generator, VARIANT_DAYS, common.derived_seed(seed, 3, v),
                hll_precision=PRECISION,
            ).aggregate
            for v in range(VARIANTS)
        ]
        payloads = [aggregate.to_dict() for aggregate in variants]
        store = AggregateStore(":memory:", baseline=baseline)
        for index, name in enumerate(names):
            store.ingest_aggregate(name, payloads[index % VARIANTS])
        setup_s.append(time.perf_counter() - start)
        setup_probes.append([probe_before, common.probe_ms()])
    # Untimed: the reference seed's variants, whatever ``seed`` is.
    reference_digests = [
        run_campaign(
            generator, VARIANT_DAYS,
            common.derived_seed(common.REFERENCE_SEED, 3, v),
            hll_precision=PRECISION,
        ).aggregate.digest()
        for v in range(VARIANTS)
    ]

    setup_layers = {}
    if tracer is not None:
        totals = self_times([s for s in tracer.spans if s.phase == "setup"])
        setup_layers = {
            "dataset.simulate_s": totals.get("dataset.simulate", 0.0),
            "core.fit_s": totals.get("core.fit", 0.0),
            "serve.ingest_s": totals.get("serve.ingest", 0.0),
        }
        tracer.phase = "warmup"

    server = make_server("127.0.0.1", 0, ServeApp(store, token=TOKEN))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn.send({
        "port": server.server_port,
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "setup_layers": setup_layers,
        "names": names,
        "payloads": payloads,
        "digests": [aggregate.digest() for aggregate in variants],
        "reference_digests": reference_digests,
        "sessions": [aggregate.n_sessions for aggregate in variants],
    })
    try:
        while True:
            if not conn.poll(common.RUN_BUDGET_S):
                raise common.BenchError("no message from the generator")
            message = conn.recv()
            if message == "probe":
                conn.send(common.probe_ms())
            elif message == "measure":
                if tracer is not None:
                    tracer.phase = "run"
            elif message == "stop":
                break
            else:
                raise common.BenchError(f"unexpected message {message!r}")
    finally:
        server.shutdown()
        thread.join(10)
        server.server_close()

    report: dict = {"app_times": app_times, "layers": {}, "spans_path": None}
    if tracer is not None:
        tracer.restore()
        totals = self_times([s for s in tracer.spans if s.phase == "run"])
        report["layers"] = layers.layer_seconds(totals)
        report["spans_path"] = tracer.dump(
            common.WORK_ROOT / f"spans-serve_mixed-seed{seed}.jsonl"
        )
    store.close()
    conn.send(report)


# -- load generator ---------------------------------------------------------------
@dataclass
class Slot:
    """One scheduled request."""

    index: int
    kind: str
    campaign: int = -1
    variant: int = -1
    revalidate: bool = False


@dataclass
class Outcome:
    """What happened to one slot."""

    slot: Slot
    path: str
    due: float
    sent: float
    done: float
    status: int | None = None
    etag_sent: str | None = None
    etag: str | None = None
    body: bytes = b""
    error: str | None = None


def plan(seed: int, n_requests: int, n_campaigns: int) -> list[Slot]:
    """The seeded request schedule.

    Reads follow :data:`READ_ROTATION` over swept campaign names; the seed
    places each block's submit and draws which reads revalidate.  Each
    submit rotates its campaign to the next variant.
    """
    rng = np.random.default_rng([seed, 4])
    current = [index % VARIANTS for index in range(n_campaigns)]
    slots = []
    reads = submits = 0
    submit_at = -1
    for index in range(n_requests):
        if index % SUBMIT_BLOCK == 0:
            submit_at = index + int(rng.integers(SUBMIT_BLOCK))
        if index == submit_at:
            slot = Slot(index, "submit", submits % n_campaigns)
            submits += 1
            current[slot.campaign] = (current[slot.campaign] + 1) % VARIANTS
            slot.variant = current[slot.campaign]
        else:
            slot = Slot(
                index, READ_ROTATION[reads % len(READ_ROTATION)],
                reads % n_campaigns,
                revalidate=bool(rng.random() < REVALIDATE_SHARE),
            )
            reads += 1
        slots.append(slot)
    return slots


def _submit_line(name: str, digest: str, payload: dict) -> bytes:
    return json.dumps({
        "type": "aggregate",
        "campaign": name,
        "digest": digest,
        "payload": payload,
    }).encode("utf-8")


def _parse_response(raw: bytes) -> tuple[int, str | None, bytes]:
    """``(status, ETag, body)`` of one HTTP/1.x response."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("truncated response")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "content-length" in headers and int(headers["content-length"]) != len(
        body
    ):
        raise ValueError("body shorter than Content-Length")
    return status, headers.get("etag"), body


class _InFlight:
    """One open connection of the load generator."""

    __slots__ = ("outcome", "sock", "request", "received")

    def __init__(self, outcome: Outcome, sock, request: bytes):
        self.outcome = outcome
        self.sock = sock
        self.request = request
        self.received: list[bytes] = []


class _LoadGenerator:
    """Open-loop client: one thread, any number of requests in flight.

    A ``selectors`` loop opens each slot's connection at its due time,
    whether or not earlier requests have been answered, so a slow server
    builds a queue instead of slowing the generator.  Submits to one
    campaign are serialised (a later one is sent when the earlier one is
    answered, still timed from its own due time), so the client knows
    which digest each campaign must end with.
    """

    def __init__(self, port, rate, names, lines, tag=""):
        self.port = port
        self.tag = tag
        self.rate = rate
        self.names = names
        self.lines = lines
        self.etags: dict[str, str] = {}
        self.outcomes: list[Outcome] = []

    def _request(self, slot: Slot) -> tuple[str, bytes, str | None]:
        if slot.kind == "submit":
            body = self.lines[slot.index]
            path = "/v1/submit"
            head = (
                f"POST {path} HTTP/1.0\r\n"
                f"Authorization: Bearer {TOKEN}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            tag = None
        else:
            body = b""
            path = ROUTES[slot.kind].format(name=self.names[slot.campaign])
            head = f"GET {path} HTTP/1.0\r\n"
            tag = self.etags.get(path) if slot.revalidate else None
            if tag is not None:
                head += f"If-None-Match: {tag}\r\n"
        head += (
            f"Host: 127.0.0.1\r\n"
            f"X-Bench-Request: {self.tag}{slot.index}\r\n\r\n"
        )
        return path, head.encode("latin-1") + body, tag

    def _open(self, selector, slot: Slot, due: float) -> None:
        path, request, tag = self._request(slot)
        sent = time.perf_counter()
        outcome = Outcome(slot, path, due, sent, sent, etag_sent=tag)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.connect_ex(("127.0.0.1", self.port))
        selector.register(
            sock, selectors.EVENT_WRITE, _InFlight(outcome, sock, request)
        )

    def _close(self, selector, flight: _InFlight, error=None) -> None:
        selector.unregister(flight.sock)
        flight.sock.close()
        outcome = flight.outcome
        outcome.done = time.perf_counter()
        if error is None:
            try:
                outcome.status, outcome.etag, outcome.body = _parse_response(
                    b"".join(flight.received)
                )
            except (ValueError, IndexError) as exc:
                error = exc
        if error is not None:
            outcome.error = f"{type(error).__name__}: {error}"
        elif outcome.etag and outcome.status == 200:
            self.etags[outcome.path] = outcome.etag
        self.outcomes.append(outcome)

    def _service(self, selector, key, events) -> bool:
        """Advance one connection; True when its exchange has finished."""
        flight: _InFlight = key.data
        try:
            if events & selectors.EVENT_WRITE:
                sent = flight.sock.send(flight.request)
                flight.request = flight.request[sent:]
                if not flight.request:
                    selector.modify(
                        flight.sock, selectors.EVENT_READ, flight
                    )
                return False
            chunk = flight.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError as exc:
            self._close(selector, flight, exc)
            return True
        if chunk:
            flight.received.append(chunk)
            return False
        self._close(selector, flight)
        return True

    def run(self, slots: list[Slot]) -> float:
        """Send every slot on schedule; return the load phase's wall time."""
        t0 = time.perf_counter() + 0.1
        first = slots[0].index
        done_before = len(self.outcomes)
        waiting: dict[int, list[tuple[Slot, float]]] = {}
        busy: set[int] = set()
        # select(2) takes a microsecond timeout; epoll and poll round it
        # up to whole milliseconds, which would make every send late.
        selector = selectors.SelectSelector()
        following = 0

        def answered(slot: Slot) -> None:
            """Send the next submit queued behind an answered one."""
            if slot.kind != "submit":
                return
            queued = waiting.get(slot.campaign)
            if queued:
                self._open(selector, *queued.pop(0))
            else:
                busy.discard(slot.campaign)

        try:
            while following < len(slots) or selector.get_map():
                now = time.perf_counter()
                while following < len(slots):
                    slot = slots[following]
                    due = t0 + (slot.index - first) / self.rate
                    if due > now:
                        break
                    following += 1
                    if slot.kind == "submit" and slot.campaign in busy:
                        waiting.setdefault(slot.campaign, []).append(
                            (slot, due)
                        )
                        continue
                    if slot.kind == "submit":
                        busy.add(slot.campaign)
                    self._open(selector, slot, due)
                timeout = REQUEST_TIMEOUT_S
                if following < len(slots):
                    next_due = t0 + (slots[following].index - first) / self.rate
                    timeout = max(0.0, next_due - time.perf_counter())
                for key, events in selector.select(timeout):
                    if self._service(selector, key, events):
                        answered(key.data.outcome.slot)
                now = time.perf_counter()
                for key in list(selector.get_map().values()):
                    flight = key.data
                    if now - flight.outcome.sent > REQUEST_TIMEOUT_S:
                        self._close(selector, flight, TimeoutError("no answer"))
                        answered(flight.outcome.slot)
        finally:
            for key in list(selector.get_map().values()):
                key.data.sock.close()
            selector.close()
        return max(o.done for o in self.outcomes[done_before:]) - t0


def load(port, slots, rate, names, lines, tag="", between=None):
    """Drive the schedule open-loop; return outcomes by slot and the wall.

    With ``between``, the schedule runs as :data:`SEGMENTS` consecutive
    pieces (each restarting its clock, with nothing in flight between
    them) and ``between(outcomes)`` is called after each piece with that
    piece's outcomes.  The generator's own garbage collector is paused
    meanwhile, so its pauses cannot make sends late; the server's is
    untouched.
    """
    generator = _LoadGenerator(port, rate, names, lines, tag)
    size = len(slots) if between is None else -(-len(slots) // SEGMENTS)
    wall = 0.0
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for start in range(0, len(slots), size):
            done_before = len(generator.outcomes)
            wall += generator.run(slots[start:start + size])
            if between is not None:
                between(generator.outcomes[done_before:])
    finally:
        gc.enable()
        gc.unfreeze()
    return sorted(generator.outcomes, key=lambda o: o.slot.index), wall


def warmup_plan(n_campaigns: int, n_requests: int) -> list[Slot]:
    """Requests that warm every route without changing the store.

    Each submit re-sends the variant its campaign was ingested with, so
    the store's contents are the same afterwards.
    """
    slots = []
    for index in range(n_requests):
        if index % SUBMIT_BLOCK == SUBMIT_BLOCK - 1:
            campaign = (index // SUBMIT_BLOCK) % VARIANTS
            slot = Slot(index, "submit", campaign, variant=campaign)
        else:
            slot = Slot(
                index, READ_ROTATION[index % len(READ_ROTATION)],
                index % n_campaigns,
            )
        slots.append(slot)
    return slots


def _final_listing(port) -> dict:
    with socket.create_connection(
        ("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S
    ) as sock:
        sock.sendall(b"GET /v1/campaigns HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n")
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    status, _, body = _parse_response(b"".join(chunks))
    if status != 200:
        raise common.BenchError(f"final listing answered {status}")
    return json.loads(body)


# -- checks ------------------------------------------------------------------------
def expected_bodies(names, payloads, baseline) -> dict:
    """Every acceptable 200 body per (family, campaign).

    Built directly from the ingested aggregates with ``serve.views``: a
    campaign holds one of the variants at any moment, so its documents
    are one of ``VARIANTS`` bodies per family.
    """
    aggregates = [CampaignAggregate.from_dict(p) for p in payloads]
    expected: dict[tuple[str, str], set[bytes]] = {}
    for name in names:
        for aggregate in aggregates:
            documents = build_aggregate_documents(name, aggregate, baseline)
            for family, document in documents.items():
                expected.setdefault((family, name), set()).add(
                    canonical_body(document).encode("utf-8")
                )
    return expected


def verify(outcomes, names, ready, expected, final,
           seed) -> tuple[list, int]:
    """Correctness checks over every response; returns (checks, failed)."""
    digests = set(ready["digests"])
    failed = 0
    mismatches: list[str] = []
    last_accepted: dict[int, int] = {}
    for outcome in outcomes:
        slot = outcome.slot
        if outcome.error is not None or outcome.status not in (200, 304):
            failed += 1
            continue
        if outcome.status == 304:
            if slot.kind == "submit" or outcome.etag != outcome.etag_sent:
                mismatches.append(f"{outcome.path}: bad 304")
            continue
        name = names[slot.campaign]
        if slot.kind == "submit":
            answer = json.loads(outcome.body)
            if answer != {"aggregate": 1, "campaigns": [name], "ingested": 1}:
                mismatches.append(f"submit {name}: {answer}")
            last_accepted[slot.campaign] = slot.variant
        elif slot.kind == "metrics":
            try:
                parse_exposition(outcome.body.decode("utf-8"))
            except ValueError as exc:
                mismatches.append(f"/metrics: {exc}")
        elif slot.kind == "listing":
            page = json.loads(outcome.body)
            entries = page["campaigns"]
            if page["total"] != len(names) or len(entries) != min(
                25, len(names)
            ) or any(entry["digest"] not in digests for entry in entries):
                mismatches.append(f"{outcome.path}: listing mismatch")
        elif outcome.body not in expected[(slot.kind, name)]:
            mismatches.append(f"{outcome.path}: body mismatch")

    final_digests = {e["name"]: e["digest"] for e in final["campaigns"]}
    echo_errors = []
    for index, name in enumerate(names):
        variant = last_accepted.get(index, index % VARIANTS)
        if final_digests.get(name) != ready["digests"][variant]:
            echo_errors.append(name)
    ref_seed = common.REFERENCE_SEED
    recorded = common.reference()["serve_variant_digests"][str(ref_seed)]
    checks = [(
        f"reference seed {ref_seed}: variant digests equal the recorded "
        f"ones of seed {ref_seed}",
        ready["reference_digests"] == recorded,
        ", ".join(ready["reference_digests"]),
    )]
    if seed in common.PINNED_SEEDS:
        pinned = common.reference()["serve_variant_digests"][str(seed)]
        checks.append((
            f"variant digests equal the recorded ones of seed {seed}",
            ready["digests"] == pinned, ", ".join(ready["digests"]),
        ))
    checks += [
        ("every 200 body equals the serve.views document / valid listing "
         "/ parseable exposition; every 304 echoes the sent tag",
         not mismatches, "; ".join(mismatches[:3]) or "ok"),
        ("store holds the digest the client computed for each campaign's "
         "last accepted submit",
         not echo_errors, ", ".join(echo_errors[:5]) or "ok"),
    ]
    return checks, failed


# -- driver ----------------------------------------------------------------------
def _one_server(seed, seconds, smoke, traced, log, deadline):
    rate = SMOKE_RATE if smoke else OFFERED_RATE
    proc = common.Child(deadline, server_child, seed, smoke, traced)
    common.pin(0)
    try:
        ready = proc.recv()
        names = ready["names"]
        expected = expected_bodies(
            names, ready["payloads"], Baseline.load(common.BASELINE)
        )
        warm = warmup_plan(len(names), round(rate * WARMUP_S))
        slots = plan(seed, max(1, round(rate * seconds)), len(names))

        def lines(schedule):
            return {
                slot.index: _submit_line(
                    names[slot.campaign], ready["digests"][slot.variant],
                    ready["payloads"][slot.variant],
                )
                for slot in schedule
                if slot.kind == "submit"
            }

        warmed, _ = load(ready["port"], warm, rate, names, lines(warm),
                         tag="warm-")
        proc.send("measure")

        def probe():
            proc.send("probe")
            return [common.probe_ms(), proc.recv()]

        # Host time: each segment's latencies beside the probes of both
        # processes just before and just after it.
        boundary = [probe()]
        scales: dict[int, float] = {}

        def between(finished):
            boundary.append(probe())
            scale = common.host_scale(*boundary[-2], *boundary[-1])
            scales.update((o.slot.index, scale) for o in finished)

        outcomes, wall = load(ready["port"], slots, rate, names,
                              lines(slots), between=between)
        final = _final_listing(ready["port"])
        proc.send("stop")
        report = proc.recv()
        peak_rss = proc.finish()
    finally:
        proc.kill()
    checks, failed = verify(warmed + outcomes, names, ready, expected, final,
                            seed)
    log("load", {
        "traced": traced,
        "offered_rate": rate,
        "requests": len(outcomes),
        "wall_s": wall,
        "failed": failed,
    })
    return {
        "ready": ready, "outcomes": outcomes, "wall": wall, "report": report,
        "attempted": len(warmed) + len(outcomes),
        "peak_rss_mb": peak_rss, "checks": checks, "failed": failed,
        "rate": rate,
        "scales": scales,
        "probes": boundary,
    }


def _latencies(run, host=False) -> tuple[list[float], list[float]]:
    """Read and write latencies (ms, from due); failures count as ∞.

    With ``host``, each is in host time (its segment's scale applied).
    """
    reads, writes = [], []
    for outcome in run["outcomes"]:
        ok = outcome.error is None and outcome.status in (200, 304)
        value = (outcome.done - outcome.due) * 1e3 if ok else float("inf")
        if host:
            value *= run["scales"][outcome.slot.index]
        (writes if outcome.slot.kind == "submit" else reads).append(value)
    return reads, writes


def run(workload, seed, seconds, smoke, trace, workdir, log, deadline):
    """Run ``serve_mixed``; return ``(checks, attempted, failed, metrics)``.

    Same signature as the campaign workloads' ``run``; ``workload`` and
    ``workdir`` are unused because the store lives in memory.
    """
    untraced = _one_server(seed, seconds, smoke, False, log, deadline)
    checks = list(untraced["checks"])
    attempted = untraced["attempted"]
    failed = untraced["failed"]
    reads, writes = _latencies(untraced)
    read = common.timing(reads)
    log("samples", {
        "offered_rate": untraced["rate"],
        "read": read,
        "write": common.timing(writes) if writes else None,
        "setup_s": untraced["ready"]["setup_s"],
    })
    if not trace:
        sessions = untraced["ready"]["sessions"]
        accepted = [
            o for o in untraced["outcomes"]
            if o.slot.kind == "submit" and o.error is None and o.status == 200
        ]
        if not accepted:
            raise common.BenchError("no submit was accepted")
        ready = untraced["ready"]
        scales = untraced["scales"]
        # Median, not total over total: a mean of submit latencies
        # follows the few submits that met a scrape or a queue.
        rates = [sessions[o.slot.variant] / (o.done - o.due) for o in accepted]
        host_reads, host_writes = _latencies(untraced, host=True)
        log("host", {
            "raw": {
                "setup_s": statistics.median(ready["setup_s"]),
                "sessions_per_s": statistics.median(rates),
                "read_p50_ms": read["p50"],
                "write_p50_ms": statistics.median(writes),
            },
            "probes_ms": untraced["probes"],
            "setup_probes_ms": ready["setup_probes"],
        })
        metrics = {
            "setup_s": (common.host_setup_s(ready), "s"),
            "sessions_per_s": (
                statistics.median(
                    rate / scales[o.slot.index]
                    for rate, o in zip(rates, accepted)
                ),
                "sessions/s",
            ),
            "peak_rss_mb": (untraced["peak_rss_mb"], "MiB"),
            "read_p50_ms": (common.percentile(host_reads, 50), "ms"),
            "write_p50_ms": (statistics.median(host_writes), "ms"),
        }
        return checks, attempted, failed, metrics

    traced = _one_server(seed, seconds, smoke, True, log, deadline)
    checks += traced["checks"]
    attempted += traced["attempted"]
    failed += traced["failed"]
    outcomes = traced["outcomes"]
    app_times = traced["report"]["app_times"]
    transport = {"read": [], "submit": []}
    for outcome in outcomes:
        server_s = app_times.get(str(outcome.slot.index))
        if server_s is None or outcome.error is not None:
            continue
        key = "submit" if outcome.slot.kind == "submit" else "read"
        transport[key].append((outcome.done - outcome.sent - server_s) * 1e3)
    traced_reads, _ = _latencies(traced)
    values = dict.fromkeys(layers.PER_LAYER, 0)
    values.update(traced["ready"]["setup_layers"])
    values.update(traced["report"]["layers"])
    values.update({
        "serve.transport_ms": statistics.median(transport["read"]),
        "serve.transport_submit_ms": (
            statistics.median(transport["submit"]) if transport["submit"] else 0
        ),
        "serve.requests": len(outcomes),
        "serve.requests_failed": traced["failed"],
        "serve.not_modified": sum(1 for o in outcomes if o.status == 304),
        "serve.submits_applied": sum(
            1 for o in outcomes if o.slot.kind == "submit" and o.status == 200
        ),
        "serve.response_bytes": sum(len(o.body) for o in outcomes),
        "load.lag_p99_ms": common.percentile(
            [(o.sent - o.due) * 1e3 for o in outcomes], 99
        ),
        "e2e.read_p99_ms": read["p99"],
        "trace.wall_s": traced["wall"],
        "trace.overhead_s": (
            common.percentile(traced_reads, 50) - read["p50"]
        ) / 1e3,
    })
    log("trace", {"spans": traced["report"]["spans_path"],
                  "traced_read_p50_ms": common.percentile(traced_reads, 50)})
    return checks, attempted, failed, {
        name: (values[name], unit) for name, unit in layers.PER_LAYER.items()
    }
