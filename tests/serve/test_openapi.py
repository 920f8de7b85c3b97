"""OpenAPI spec: sync with the checked-in file, live-response conformance.

Mirrors the telemetry-schema discipline (``tests/obs/test_schema.py``):
``schemas/openapi-serve.json`` is generated from
:func:`repro.serve.openapi.openapi_spec` and committed; drifting the code
without regenerating the file fails here, not in a consumer.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.serve import ServeApp, openapi_spec, validate_response
from repro.serve import http as serve_http
from repro.serve.openapi import SPEC_PATH, render_spec
from repro.serve.views import canonical_body

from .conftest import as_json, wsgi_get, wsgi_post

REPO_ROOT = Path(__file__).resolve().parents[2]

TOKEN = "spec-token"

#: Quoted route literals in serve/http.py: ``"/v1/..."`` or ``"/metrics"``.
ROUTE_LITERAL = re.compile(r'"(/(?:v[0-9]+(?:/[A-Za-z0-9_.\-]+)+|metrics))"')

#: Operation keys of an OpenAPI path item.
HTTP_METHODS = ("get", "put", "post", "delete", "options", "head", "patch")

#: Every path the spec documents a GET for.
GET_PATHS = [
    path for path, item in openapi_spec()["paths"].items() if "get" in item
]


@pytest.fixture()
def app(store, aggregate, bank, tmp_path):
    """An app with one campaign, its manifest and a model release."""
    from repro.core.arrivals import ArrivalModel
    from repro.io.params import save_release

    store.ingest_aggregate("camp", aggregate.to_dict())
    store.ingest_manifest("camp", {"run_id": "r1"})
    release = tmp_path / "release.json"
    save_release(
        release,
        bank,
        {"d1": ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)},
    )
    store.ingest_release(release)
    return ServeApp(store, token=TOKEN)


class TestSpecFile:
    def test_checked_in_spec_is_current(self):
        """Regenerate with ``python -m repro.serve.openapi`` on mismatch."""
        committed = (REPO_ROOT / SPEC_PATH).read_text(encoding="utf-8")
        assert committed == render_spec()

    def test_spec_shape(self):
        spec = openapi_spec()
        assert spec["openapi"].startswith("3.1")
        for path in (
            "/v1/campaigns",
            "/v1/services/shares",
            "/v1/pdf/volume",
            "/v1/pdf/duration",
            "/v1/arrivals/deciles",
            "/v1/fidelity",
            "/v1/submit",
        ):
            assert path in spec["paths"], path

    def test_every_get_documents_304(self):
        """Every ETagged GET documents 304; /metrics is live, un-ETagged."""
        spec = openapi_spec()
        for path, item in spec["paths"].items():
            if "get" in item and path != "/metrics":
                assert "304" in item["get"]["responses"], path

    def test_spec_covers_served_routes(self, app):
        """Spec and app agree in both directions, checked at runtime.

        Every documented (path, method) must reach a handler (no 404/405),
        and every route the app answers — its route table plus the
        literals ``_handle`` dispatches on — must be documented.
        """
        spec = openapi_spec()
        for path, item in spec["paths"].items():
            for method in (m for m in HTTP_METHODS if m in item):
                if method == "post":
                    status = wsgi_post(app, path, b"")[0]
                else:
                    status = wsgi_get(app, path, method=method.upper())[0]
                assert status not in (404, 405), (method, path, status)
        source = Path(serve_http.__file__).read_text(encoding="utf-8")
        served = set(app._routes) | set(ROUTE_LITERAL.findall(source))
        assert sorted(served - set(spec["paths"])) == []


class TestServedBodies:
    """Content-Length / ETag invariants of every documented GET."""

    @pytest.mark.parametrize("path", GET_PATHS)
    def test_length_and_canonical_body(self, app, path):
        status, headers, body = wsgi_get(app, path)
        assert status == 200
        assert int(headers["Content-Length"]) == len(body)
        if path == "/v1/openapi.json":
            assert body == render_spec().encode("utf-8")
        elif path != "/metrics":
            assert body == canonical_body(as_json(body)).encode("utf-8")

    @pytest.mark.parametrize("path", GET_PATHS)
    def test_head_and_revalidation(self, app, path):
        _, headers, _ = wsgi_get(app, path)
        status, head_headers, head_body = wsgi_get(app, path, method="HEAD")
        assert status == 200
        assert head_body == b""
        if path == "/metrics":
            # Live exposition: no tag, and the body changes per request.
            assert "ETag" not in headers and "ETag" not in head_headers
            return
        assert head_headers["Content-Length"] == headers["Content-Length"]
        assert head_headers["ETag"] == headers["ETag"]
        status, revalidated, empty = wsgi_get(
            app, path, headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 304
        assert empty == b""
        assert revalidated["ETag"] == headers["ETag"]


class TestLiveConformance:
    @pytest.mark.parametrize(
        "path",
        [
            "/v1/campaigns",
            "/v1/services/shares",
            "/v1/pdf/volume",
            "/v1/pdf/duration",
            "/v1/arrivals/deciles",
            "/v1/fidelity",
        ],
    )
    def test_get_responses_conform(self, app, path):
        status, _, body = wsgi_get(app, path)
        assert status == 200
        validate_response(path, 200, as_json(body))

    def test_paginated_shares_conform(self, app):
        status, _, body = wsgi_get(
            app, "/v1/services/shares", query="offset=0&limit=1"
        )
        assert status == 200
        validate_response("/v1/services/shares", 200, as_json(body))

    def test_not_modified_conforms(self, app):
        _, headers, _ = wsgi_get(app, "/v1/fidelity")
        status, _, body = wsgi_get(
            app, "/v1/fidelity", headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 304
        validate_response("/v1/fidelity", 304, None)

    def test_submit_result_conforms(self, app, aggregate):
        line = json.dumps(
            {
                "type": "aggregate",
                "campaign": "fresh",
                "digest": aggregate.digest(),
                "payload": aggregate.to_dict(),
            }
        ).encode("utf-8")
        status, _, body = wsgi_post(
            app,
            "/v1/submit",
            line,
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 200
        validate_response("/v1/submit", 200, as_json(body), method="post")

    def test_error_responses_conform(self, app):
        status, _, body = wsgi_get(
            app, "/v1/fidelity", query="campaign=ghost"
        )
        assert status == 404
        validate_response("/v1/fidelity", 404, as_json(body))

    def test_nonconforming_payload_rejected(self):
        with pytest.raises(ValueError):
            validate_response(
                "/v1/pdf/volume", 200, {"campaign": "c"}
            )
