"""The /v1 query API: correctness, caching, auth, concurrency.

The float-identity tests are the serving layer's reason to exist: a value
read off the HTTP API must equal — bit for bit — what the batch pipeline
computes from the same sketches.  ``json.dumps`` emits shortest-repr
doubles, which round-trip exactly, so equality here is ``==`` on floats,
never ``pytest.approx``.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.request

import pytest

from repro.campaign.fidelity import evaluate_aggregate
from repro.dataset.records import SERVICE_NAMES
from repro.serve import ServeApp, make_server

from .conftest import as_json, wsgi_get, wsgi_post

TOKEN = "test-token-123"


@pytest.fixture()
def app(store, aggregate):
    store.ingest_aggregate("camp", aggregate.to_dict())
    return ServeApp(store, token=TOKEN)


def submit_line(aggregate, name="camp"):
    return json.dumps(
        {
            "type": "aggregate",
            "campaign": name,
            "digest": aggregate.digest(),
            "payload": aggregate.to_dict(),
        }
    ).encode("utf-8")


class TestFloatIdentity:
    def test_shares_match_sketch_derivation(self, app, aggregate):
        status, _, body = wsgi_get(app, "/v1/services/shares")
        assert status == 200
        document = as_json(body)
        shares = aggregate.shares_table()
        assert [s["service"] for s in document["services"]] == list(
            SERVICE_NAMES
        )
        for entry in document["services"]:
            session_share, traffic_share = shares[entry["service"]]
            assert entry["session_share"] == session_share
            assert entry["traffic_share"] == traffic_share
        assert document["total_volume_mb"] == aggregate.total_volume_mb()

    def test_volume_pdf_matches_sketch_derivation(self, app, aggregate):
        status, _, body = wsgi_get(app, "/v1/pdf/volume")
        assert status == 200
        document = as_json(body)
        assert document["density"] == [
            float(d) for d in aggregate.volume_pdf()
        ]
        assert document["samples"] == aggregate.volume_hist.total

    def test_duration_pdf_matches_sketch_derivation(self, app, aggregate):
        status, _, body = wsgi_get(app, "/v1/pdf/duration")
        assert status == 200
        document = as_json(body)
        assert document["density"] == [
            float(d) for d in aggregate.duration_pdf()
        ]

    def test_fidelity_matches_batch_gate(self, app, aggregate, baseline):
        status, _, body = wsgi_get(app, "/v1/fidelity")
        assert status == 200
        document = as_json(body)
        report = evaluate_aggregate(aggregate, baseline)
        assert document["summary"] == report.summary()
        served = {c["claim"]: c for c in document["checks"]}
        for result in report.results:
            assert served[result.claim]["value"] == result.value
            assert served[result.claim]["passed"] == result.passed


class TestCaching:
    def test_repeat_request_not_modified(self, app):
        status, headers, _ = wsgi_get(app, "/v1/services/shares")
        assert status == 200
        etag = headers["ETag"]
        status, headers2, body = wsgi_get(
            app, "/v1/services/shares", headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers2["ETag"] == etag

    def test_unquoted_and_star_tags_match(self, app):
        _, headers, _ = wsgi_get(app, "/v1/pdf/volume")
        bare = headers["ETag"].strip('"')
        assert wsgi_get(
            app, "/v1/pdf/volume", headers={"If-None-Match": bare}
        )[0] == 304
        assert wsgi_get(
            app, "/v1/pdf/volume", headers={"If-None-Match": "*"}
        )[0] == 304

    def test_etag_changes_with_aggregate(self, store, app, aggregate):
        _, headers, _ = wsgi_get(app, "/v1/pdf/volume")
        from repro.campaign.sketches import CampaignAggregate

        from .conftest import PRECISION

        store.ingest_aggregate(
            "camp", CampaignAggregate.empty(precision=PRECISION).to_dict()
        )
        _, headers2, _ = wsgi_get(app, "/v1/pdf/volume")
        assert headers2["ETag"] != headers["ETag"]

    def test_pages_cache_independently(self, app):
        _, full, _ = wsgi_get(app, "/v1/services/shares")
        _, page, _ = wsgi_get(
            app, "/v1/services/shares", query="offset=0&limit=2"
        )
        assert page["ETag"] != full["ETag"]
        assert wsgi_get(
            app,
            "/v1/services/shares",
            query="offset=0&limit=2",
            headers={"If-None-Match": page["ETag"]},
        )[0] == 304


class TestPagination:
    def test_shares_page_window(self, app):
        status, _, body = wsgi_get(
            app, "/v1/services/shares", query="offset=1&limit=2"
        )
        assert status == 200
        document = as_json(body)
        assert len(document["services"]) == 2
        assert document["offset"] == 1
        assert document["limit"] == 2
        assert document["total"] == len(SERVICE_NAMES)
        assert [s["service"] for s in document["services"]] == list(
            SERVICE_NAMES[1:3]
        )

    def test_campaign_listing_paginates(self, app):
        status, _, body = wsgi_get(app, "/v1/campaigns", query="limit=0")
        assert status == 200
        document = as_json(body)
        assert document["campaigns"] == []
        assert document["total"] == 1

    def test_negative_pagination_rejected(self, app):
        assert wsgi_get(
            app, "/v1/services/shares", query="offset=-1"
        )[0] == 400
        assert wsgi_get(
            app, "/v1/services/shares", query="limit=zap"
        )[0] == 400


class TestRouting:
    def test_campaign_listing_entry(self, app, aggregate):
        status, _, body = wsgi_get(app, "/v1/campaigns")
        assert status == 200
        (entry,) = as_json(body)["campaigns"]
        assert entry["name"] == "camp"
        assert entry["digest"] == aggregate.digest()
        assert entry["manifest"] is None

    def test_unknown_endpoint_404(self, app):
        status, _, body = wsgi_get(app, "/v1/nope")
        assert status == 404
        assert "error" in as_json(body)

    def test_unknown_campaign_404(self, app):
        assert wsgi_get(
            app, "/v1/fidelity", query="campaign=ghost"
        )[0] == 404

    def test_ambiguous_campaign_400(self, store, app, aggregate):
        store.ingest_aggregate("other", aggregate.to_dict())
        status, _, body = wsgi_get(app, "/v1/services/shares")
        assert status == 400
        assert "camp" in as_json(body)["error"]

    def test_sole_campaign_resolved_implicitly(self, app):
        explicit = wsgi_get(
            app, "/v1/services/shares", query="campaign=camp"
        )
        implicit = wsgi_get(app, "/v1/services/shares")
        assert explicit[2] == implicit[2]

    def test_get_only_on_query_endpoints(self, app):
        assert wsgi_post(app, "/v1/fidelity", b"")[0] == 405

    def test_openapi_served(self, app):
        from repro.serve.openapi import openapi_spec

        status, _, body = wsgi_get(app, "/v1/openapi.json")
        assert status == 200
        assert as_json(body) == openapi_spec()


class TestSubmitAuth:
    def test_unauthenticated_rejected(self, app, aggregate):
        status, _, body = wsgi_post(
            app, "/v1/submit", submit_line(aggregate, "fresh")
        )
        assert status == 401
        assert wsgi_get(app, "/v1/campaigns", query="")[0] == 200

    def test_wrong_token_rejected(self, app, aggregate):
        status, _, _ = wsgi_post(
            app,
            "/v1/submit",
            submit_line(aggregate, "fresh"),
            headers={"Authorization": "Bearer wrong"},
        )
        assert status == 401

    def test_bearer_token_accepted(self, app, store, aggregate):
        status, _, body = wsgi_post(
            app,
            "/v1/submit",
            submit_line(aggregate, "fresh"),
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 200
        assert as_json(body)["ingested"] == 1
        assert "fresh" in store.campaign_names()

    def test_readonly_mode_refuses_submit(self, store, aggregate):
        app = ServeApp(store, token=TOKEN, readonly=True)
        status, _, _ = wsgi_post(
            app,
            "/v1/submit",
            submit_line(aggregate),
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 403

    def test_no_token_disables_submit(self, store, aggregate):
        app = ServeApp(store)
        status, _, body = wsgi_post(
            app,
            "/v1/submit",
            submit_line(aggregate),
            headers={"Authorization": "Bearer anything"},
        )
        assert status == 403
        assert "disabled" in as_json(body)["error"]

    def test_digest_mismatch_409(self, app, store, aggregate):
        line = json.loads(submit_line(aggregate, "bad"))
        line["digest"] = "0" * 64
        status, _, _ = wsgi_post(
            app,
            "/v1/submit",
            json.dumps(line).encode("utf-8"),
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 409
        assert "bad" not in store.campaign_names()

    def test_schema_violation_400(self, app):
        status, _, _ = wsgi_post(
            app,
            "/v1/submit",
            b'{"type": "mystery"}',
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 400


class TestSubmitContentLength:
    @pytest.mark.parametrize("header", ["-1", "abc", "1.5", "+4"])
    def test_invalid_header_rejected_before_reading(self, app, store, header):
        """A negative length must not turn into ``read(-1)`` (read to EOF)."""
        stream = io.BytesIO(b'{"hello":1}')
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/v1/submit",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": header,
            "HTTP_AUTHORIZATION": f"Bearer {TOKEN}",
            "wsgi.input": stream,
        }
        captured = {}

        def start_response(status, response_headers):
            captured["status"] = int(status.split()[0])

        campaigns = store.campaign_names()
        rejected = app.metrics.counter("serve.rejected").value
        body = b"".join(app(environ, start_response))
        assert captured["status"] == 400
        assert "Content-Length" in as_json(body)["error"]
        assert stream.tell() == 0
        assert store.campaign_names() == campaigns
        assert app.metrics.counter("serve.rejected").value == rejected + 1


@pytest.fixture()
def live_server(store, aggregate):
    """A real threaded HTTP server on an ephemeral port."""
    store.ingest_aggregate("camp", aggregate.to_dict())
    app = ServeApp(store, token=TOKEN)
    server = make_server("127.0.0.1", 0, app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", store
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _fetch(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


class TestConcurrency:
    N_THREADS = 8

    def test_concurrent_readers_identical_bodies(self, live_server):
        base, _ = live_server
        results, errors = [], []

        def hit():
            try:
                results.append(_fetch(base + "/v1/services/shares"))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=hit) for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(results) == self.N_THREADS
        statuses = {status for status, _, _ in results}
        bodies = {body for _, _, body in results}
        etags = {headers["ETag"] for _, headers, _ in results}
        assert statuses == {200}
        assert len(bodies) == 1
        assert len(etags) == 1

    def test_no_torn_reads_during_reingest(self, live_server, aggregate):
        """Readers racing an ingest see a complete snapshot, never a mix.

        The writer flips the campaign between the full aggregate and an
        empty one; every response must be internally consistent — its
        digest field decides which snapshot it came from, and the
        session count must agree with that digest.
        """
        from repro.campaign.sketches import CampaignAggregate

        from .conftest import PRECISION

        base, store = live_server
        empty = CampaignAggregate.empty(precision=PRECISION)
        expected = {
            aggregate.digest(): aggregate.n_sessions,
            empty.digest(): 0,
        }
        stop = threading.Event()
        torn, errors = [], []

        def writer():
            flip = False
            while not stop.is_set():
                payload = (empty if flip else aggregate).to_dict()
                store.ingest_aggregate("camp", payload)
                flip = not flip

        def reader():
            while not stop.is_set():
                try:
                    _, _, body = _fetch(base + "/v1/services/shares")
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)
                    return
                document = json.loads(body)
                if document["sessions"] != expected[document["digest"]]:
                    torn.append(document)  # pragma: no cover - failure path

        workers = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in workers:
            t.start()
        stop_timer = threading.Timer(2.0, stop.set)
        stop_timer.start()
        for t in workers:
            t.join(timeout=60)
        stop_timer.cancel()
        assert not errors
        assert not torn

    def test_served_bytes_identical_to_store_document(self, live_server):
        """Out-of-band check: HTTP adds nothing to the stored bytes."""
        base, store = live_server
        _, _, body = _fetch(base + "/v1/pdf/volume")
        _, stored_body = store.document("camp", "pdf/volume")
        assert body.decode("utf-8") == stored_body
