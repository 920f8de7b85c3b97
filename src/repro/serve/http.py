"""Dependency-free threaded HTTP query API over the aggregate store.

A plain WSGI application (:class:`ServeApp`) on the stdlib
``wsgiref``/``socketserver`` stack — no web framework — serving the five
endpoint families of the statistics service:

========================  ====================================================
``GET /v1/campaigns``     ingested campaigns (digests, sizes, manifests)
``GET /v1/services/shares``  per-service session/traffic shares (Table 1/Fig 4)
``GET /v1/pdf/volume``    campaign volume PDF on the global log grid
``GET /v1/pdf/duration``  campaign duration PDF on the Section 3.2 bins
``GET /v1/arrivals/deciles``  decile arrival parameters of the model release
``GET /v1/fidelity``      aggregate-only fidelity verdicts
``POST /v1/submit``       token-authenticated JSONL ingest
========================  ====================================================

Caching: every response carries a strong ``ETag`` derived from the
underlying sketch digest (:func:`repro.serve.views.document_etag`); a
request repeating the tag via ``If-None-Match`` is answered ``304 Not
Modified`` with no body.  ``/v1/campaigns`` and ``/v1/services/shares``
paginate with ``offset``/``limit`` query parameters; the page is folded
into the tag, so each page caches independently.

Submission: ``POST /v1/submit`` requires ``Authorization: Bearer <token>``
(401 otherwise), validates the JSONL body against
:mod:`repro.serve.schema` (400), rejects digest mismatches (409), and is
refused outright in ``--readonly`` mode or when no token is configured
(403).  Ingest is atomic in the store, so concurrent readers never
observe a torn snapshot.

Telemetry is optional and strictly out-of-band: with a telemetry
attached, the app counts ``serve.requests``, ``serve.not_modified``,
``serve.submissions`` and ``serve.rejected`` and keeps the
``serve.campaigns`` gauge current — responses are byte-identical either
way.
"""

from __future__ import annotations

import functools
import hmac
import json
import socketserver
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer
from wsgiref.simple_server import make_server as _wsgiref_make_server

from ..obs.expose import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs.expose import render_exposition
from ..obs.metrics import MetricsRegistry
from .schema import SubmitSchemaError
from .store import (
    ARRIVALS_FAMILY,
    AggregateStore,
    DigestMismatchError,
    StoreError,
)
from .views import RELEASE_SCOPE, canonical_body

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

#: Default TCP port of the statistics service.
DEFAULT_PORT = 8321

#: Upper bound on accepted submission bodies (64 MiB of JSONL).
MAX_SUBMIT_BYTES = 64 * 1024 * 1024

_STATUS_LINES = {
    200: "200 OK",
    304: "304 Not Modified",
    400: "400 Bad Request",
    401: "401 Unauthorized",
    403: "403 Forbidden",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    413: "413 Payload Too Large",
    500: "500 Internal Server Error",
}


#: Methods a read route answers; the first one names its 405 message.
_READ_METHODS = ("GET", "HEAD")

#: WSGI-level handler of one route: ``(environ, start_response) -> body``.
_Responder = Callable[[dict, Any], Iterable[bytes]]


class ServeError(RuntimeError):
    """Raised on invalid server configuration."""


def _salted_etag(etag: str, offset: int | None, limit: int | None) -> str:
    """Fold pagination into a document tag so each page caches alone."""
    if offset is None and limit is None:
        return etag
    return f"{etag}-p{offset if offset is not None else 0}" + (
        f"n{limit}" if limit is not None else ""
    )


def _etag_matches(header: str | None, etag: str) -> bool:
    """``If-None-Match`` semantics for one strong entity tag."""
    if header is None:
        return False
    if header.strip() == "*":
        return True
    candidates = [tag.strip() for tag in header.split(",")]
    return f'"{etag}"' in candidates or etag in candidates


class ServeApp:
    """The WSGI application answering the ``/v1`` query API.

    Parameters
    ----------
    store:
        The :class:`~repro.serve.store.AggregateStore` to serve from.
    token:
        Bearer token required by ``POST /v1/submit``; with no token the
        submit endpoint is disabled (403).
    readonly:
        Refuse every mutating request (403), token or not.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` for the
        ``serve.*`` metrics; never changes a response byte.
    """

    def __init__(
        self,
        store: AggregateStore,
        *,
        token: str | None = None,
        readonly: bool = False,
        telemetry: "Telemetry | None" = None,
    ):
        self.store = store
        self.token = token
        self.readonly = bool(readonly)
        self.telemetry = telemetry
        # RED instrumentation writes here: the run's registry when a
        # telemetry is attached, a private one otherwise — so /metrics
        # always has something to expose and instrumented code never
        # branches.  Either way the registry is out-of-band.
        self.metrics: MetricsRegistry = (
            telemetry.metrics if telemetry is not None else MetricsRegistry()
        )

        def document(getter: Callable[[dict, dict], tuple]) -> _Responder:
            return functools.partial(self._serve_document, getter)

        #: The served route set: path -> (allowed methods, responder).  The
        #: 404/405 dispatch and the RED ``route`` label both read it.
        self._routes: dict[str, tuple[tuple[str, ...], _Responder]] = {
            "/v1/campaigns": (_READ_METHODS, document(self._get_campaigns)),
            "/v1/services/shares": (_READ_METHODS, document(self._get_shares)),
            "/v1/pdf/volume": (_READ_METHODS, document(self._get_volume_pdf)),
            "/v1/pdf/duration": (
                _READ_METHODS,
                document(self._get_duration_pdf),
            ),
            "/v1/arrivals/deciles": (
                _READ_METHODS,
                document(self._get_arrivals),
            ),
            "/v1/fidelity": (_READ_METHODS, document(self._get_fidelity)),
            "/v1/openapi.json": (_READ_METHODS, document(self._get_openapi)),
            "/v1/submit": (("POST",), self._post_submit),
            "/metrics": (_READ_METHODS, self._get_metrics),
        }
        #: Campaign-scoped routes whose responses carry ``X-Repro-Trace``.
        self._traced_routes = frozenset(
            (
                "/v1/services/shares",
                "/v1/pdf/volume",
                "/v1/pdf/duration",
                "/v1/fidelity",
            )
        )

    # -- metrics (out-of-band) -----------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def _gauge_campaigns(self) -> None:
        self.metrics.gauge("serve.campaigns").set(
            len(self.store.campaign_names())
        )

    # -- WSGI entry point ------------------------------------------------
    def __call__(self, environ: dict, start_response) -> Iterable[bytes]:
        """RED-instrumented entry: time, count and log every request.

        Wraps :meth:`_handle` with the request-level telemetry of the
        tentpole: a per-(route, method, status) latency histogram, an
        in-flight gauge, and a schema-validated ``access`` event through
        the run's sink.  The wrapper only observes — status and body pass
        through byte-identical.
        """
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        route = path if path in self._routes else "other"
        captured: dict[str, Any] = {"status": 500}

        def recording_start_response(status, headers, *args):
            captured["status"] = int(status.split()[0])
            return start_response(status, headers, *args)

        self.metrics.gauge("serve.inflight").add(1)
        start = time.perf_counter()
        try:
            body = [
                chunk for chunk in self._handle(environ, recording_start_response)
            ]
        finally:
            self.metrics.gauge("serve.inflight").add(-1)
        seconds = time.perf_counter() - start
        status = int(captured["status"])
        self.metrics.histogram(
            "serve.request.seconds",
            {"route": route, "method": method, "status": str(status)},
        ).observe(seconds)
        if self.telemetry is not None:
            self.telemetry.access(
                route=route,
                method=method,
                status=status,
                seconds=seconds,
                bytes_sent=sum(len(chunk) for chunk in body),
                trace=environ.get("repro.serve.trace"),
            )
        return body

    def _handle(self, environ: dict, start_response) -> Iterable[bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        self._count("serve.requests")
        try:
            route = self._routes.get(path)
            if route is None:
                return self._error(
                    start_response, 404, f"no such endpoint: {path}"
                )
            methods, respond = route
            if method not in methods:
                return self._error(start_response, 405, f"{methods[0]} only")
            return respond(environ, start_response)
        except _BadRequest as exc:
            return self._error(start_response, 400, str(exc))

    def _serve_document(
        self,
        getter: Callable[[dict, dict], tuple],
        environ: dict,
        start_response,
    ) -> Iterable[bytes]:
        """Answer a GET/HEAD of one document route, ETag/304 included.

        ``getter(environ, query)`` returns ``(status, document, etag)``.
        """
        query = {
            key: values[-1]
            for key, values in parse_qs(environ.get("QUERY_STRING", "")).items()
        }
        status, document, etag = getter(environ, query)
        if status != 200:
            return self._error(start_response, status, document)
        trace_headers: list[tuple[str, str]] = []
        if environ.get("PATH_INFO") in self._traced_routes:
            trace = self._campaign_trace(query)
            if trace:
                environ["repro.serve.trace"] = trace
                trace_headers.append(("X-Repro-Trace", trace))
        if _etag_matches(environ.get("HTTP_IF_NONE_MATCH"), etag):
            self._count("serve.not_modified")
            start_response(
                _STATUS_LINES[304],
                [("ETag", f'"{etag}"')] + trace_headers,
            )
            return [b""]
        body = (
            document if isinstance(document, str) else canonical_body(document)
        ).encode("utf-8")
        start_response(
            _STATUS_LINES[200],
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
                ("ETag", f'"{etag}"'),
                ("Cache-Control", "no-cache"),
            ]
            + trace_headers,
        )
        return [body] if environ.get("REQUEST_METHOD", "GET") == "GET" else [b""]

    # -- helpers ---------------------------------------------------------
    def _error(
        self, start_response, status: int, message: str
    ) -> Iterable[bytes]:
        body = json.dumps(
            {"error": message, "status": status}, sort_keys=True
        ).encode("utf-8")
        start_response(
            _STATUS_LINES[status],
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body]

    def _resolve_campaign(self, query: dict) -> str | tuple[int, str]:
        """The campaign a query addresses: explicit, or the only one."""
        name = query.get("campaign")
        if name:
            return name
        names = self.store.campaign_names()
        if len(names) == 1:
            return names[0]
        if not names:
            return 404, "no campaigns ingested"
        return (
            400,
            f"campaign parameter required (ingested: {', '.join(names)})",
        )

    def _campaign_trace(self, query: dict) -> str | None:
        """Trace id of the campaign a query addresses, if recorded."""
        scope = self._resolve_campaign(query)
        if isinstance(scope, tuple):
            return None
        return self.store.trace(scope)

    @staticmethod
    def _pagination(query: dict) -> tuple[int | None, int | None]:
        offset = limit = None
        try:
            if "offset" in query:
                offset = int(query["offset"])
            if "limit" in query:
                limit = int(query["limit"])
        except ValueError as exc:
            raise _BadRequest(f"invalid pagination parameter: {exc}") from exc
        if (offset is not None and offset < 0) or (
            limit is not None and limit < 0
        ):
            raise _BadRequest("offset and limit must be >= 0")
        return offset, limit

    @staticmethod
    def _paginate(
        document: dict, key: str, offset: int | None, limit: int | None
    ) -> dict:
        """Slice a document's item array, annotating the page window."""
        if offset is None and limit is None:
            return document
        items = document[key]
        lo = offset or 0
        hi = lo + limit if limit is not None else None
        page = dict(document)
        page[key] = items[lo:hi]
        page["offset"] = lo
        page["total"] = len(items)
        if limit is not None:
            page["limit"] = limit
        return page

    def _stored_document(
        self, scope: str, family: str, query: dict, items_key: str | None
    ) -> tuple[int, Any, str]:
        stored = self.store.document(scope, family)
        if stored is None:
            return 404, f"no {family} document for {scope!r}", ""
        etag, body = stored
        offset, limit = self._pagination(query)
        if items_key is None or (offset is None and limit is None):
            return 200, body, etag
        document = self._paginate(
            json.loads(body), items_key, offset, limit
        )
        return 200, document, _salted_etag(etag, offset, limit)

    # -- GET endpoint families -------------------------------------------
    def _get_campaigns(self, environ: dict, query: dict) -> tuple:
        offset, limit = self._pagination(query)
        entries = self.store.campaigns()
        document = self._paginate(
            {"campaigns": entries, "count": len(entries)},
            "campaigns",
            offset,
            limit,
        )
        etag = _salted_etag(self.store.listing_etag(), offset, limit)
        return 200, document, etag

    def _get_shares(self, environ: dict, query: dict) -> tuple:
        scope = self._resolve_campaign(query)
        if isinstance(scope, tuple):
            return scope[0], scope[1], ""
        return self._stored_document(
            scope, "services/shares", query, "services"
        )

    def _get_volume_pdf(self, environ: dict, query: dict) -> tuple:
        scope = self._resolve_campaign(query)
        if isinstance(scope, tuple):
            return scope[0], scope[1], ""
        return self._stored_document(scope, "pdf/volume", query, None)

    def _get_duration_pdf(self, environ: dict, query: dict) -> tuple:
        scope = self._resolve_campaign(query)
        if isinstance(scope, tuple):
            return scope[0], scope[1], ""
        return self._stored_document(scope, "pdf/duration", query, None)

    def _get_arrivals(self, environ: dict, query: dict) -> tuple:
        return self._stored_document(
            RELEASE_SCOPE, ARRIVALS_FAMILY, query, None
        )

    def _get_fidelity(self, environ: dict, query: dict) -> tuple:
        scope = self._resolve_campaign(query)
        if isinstance(scope, tuple):
            return scope[0], scope[1], ""
        return self._stored_document(scope, "fidelity", query, None)

    def _get_openapi(self, environ: dict, query: dict) -> tuple:
        from .openapi import render_spec, spec_etag

        return 200, render_spec(), spec_etag()

    # -- GET /metrics ------------------------------------------------------
    def _get_metrics(self, environ: dict, start_response) -> Iterable[bytes]:
        """Prometheus text exposition of the app's metrics registry."""
        body = render_exposition(self.metrics.snapshot()).encode("utf-8")
        start_response(
            _STATUS_LINES[200],
            [
                ("Content-Type", METRICS_CONTENT_TYPE),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body] if environ.get("REQUEST_METHOD", "GET") == "GET" else [b""]

    # -- POST /v1/submit --------------------------------------------------
    def _authorized(self, environ: dict) -> bool:
        header = environ.get("HTTP_AUTHORIZATION", "")
        scheme, _, credential = header.partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            credential.strip(), self.token or ""
        )

    def _post_submit(self, environ: dict, start_response) -> Iterable[bytes]:
        if self.readonly:
            self._count("serve.rejected")
            return self._error(
                start_response, 403, "server is read-only"
            )
        if not self.token:
            self._count("serve.rejected")
            return self._error(
                start_response, 403,
                "submissions disabled (no token configured)",
            )
        if not self._authorized(environ):
            self._count("serve.rejected")
            return self._error(
                start_response, 401, "missing or invalid bearer token"
            )
        header = (environ.get("CONTENT_LENGTH") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            self._count("serve.rejected")
            return self._error(
                start_response, 400,
                f"invalid Content-Length header: {header!r}",
            )
        length = int(header)
        if length > MAX_SUBMIT_BYTES:
            self._count("serve.rejected")
            return self._error(start_response, 413, "submission too large")
        raw = environ["wsgi.input"].read(length) if length else b""
        try:
            outcome = self.store.submit(raw.decode("utf-8", errors="strict"))
        except DigestMismatchError as exc:
            self._count("serve.rejected")
            return self._error(start_response, 409, str(exc))
        except (SubmitSchemaError, StoreError, UnicodeDecodeError) as exc:
            self._count("serve.rejected")
            return self._error(start_response, 400, str(exc))
        self._count("serve.submissions")
        self._gauge_campaigns()
        body = canonical_body(outcome).encode("utf-8")
        start_response(
            _STATUS_LINES[200],
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body]


class _BadRequest(ValueError):
    """Internal signal: malformed query parameters (HTTP 400)."""


class ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
    """One thread per request; daemonic so shutdown never hangs."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """Request handler with access logging routed through telemetry."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        app = getattr(self.server, "_serve_app", None)
        telemetry = getattr(app, "telemetry", None)
        if telemetry is not None and telemetry.verbosity >= 2:
            telemetry.message(format % args, level="debug")


def make_server(
    host: str, port: int, app: ServeApp
) -> ThreadingWSGIServer:
    """A threaded WSGI server bound to ``host:port`` running ``app``."""
    server = _wsgiref_make_server(
        host,
        port,
        app,
        server_class=ThreadingWSGIServer,
        handler_class=_QuietHandler,
    )
    server._serve_app = app  # type: ignore[attr-defined]
    return server
