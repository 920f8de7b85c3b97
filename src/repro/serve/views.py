"""Pure builders of the documents the query API serves.

Every endpoint family of :mod:`repro.serve.http` answers with a JSON
document precomputed here at ingest time, straight from the same objects
the batch CLI uses — :class:`~repro.campaign.sketches.CampaignAggregate`
derivations, :class:`~repro.core.arrivals.ArrivalModel` release entries
and :class:`~repro.verify.report.FidelityReport` verdicts.  The builders
are pure functions of those objects, so a served value is *float-identical*
to what ``repro-traffic campaign --verify-aggregates`` would print from
the same sketches: floats travel through ``json.dumps``/``repr``, which
round-trips every finite double exactly.

ETags are derived from sketch digests: every aggregate-determined
document's entity tag is a hash of (campaign digest, family), so a client
that cached a response keeps getting ``304 Not Modified`` until the
underlying aggregate's bytes actually change.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from ..analysis.histogram import LOG_GRID
from ..campaign.fidelity import AGGREGATE_CLAIMS, evaluate_aggregate
from ..campaign.sketches import CampaignAggregate
from ..dataset.aggregation import DURATION_EDGES
from ..dataset.records import SERVICE_NAMES

#: The endpoint families whose documents are precomputed per campaign.
AGGREGATE_FAMILIES = (
    "services/shares",
    "pdf/volume",
    "pdf/duration",
    "fidelity",
)

#: Reserved store key of release-level documents (arrival deciles are a
#: property of the model release, not of any one campaign).
RELEASE_SCOPE = ""


def canonical_body(document: Mapping[str, Any]) -> str:
    """Canonical serialized form of a document (sorted keys, compact)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def document_etag(source_digest: str, family: str) -> str:
    """Strong entity tag of one document, derived from its sketch digest.

    The tag is a pure function of (source digest, family): two ingests of
    byte-identical aggregates produce byte-identical tags, and any change
    to the aggregate's canonical bytes changes every family's tag.
    """
    material = f"{source_digest}:{family}".encode("utf-8")
    return hashlib.sha256(material).hexdigest()[:32]


def shares_document(name: str, aggregate: CampaignAggregate) -> dict:
    """Per-service session/traffic shares (Table 1 / Fig 4 source data).

    Service order and share values come from
    :meth:`CampaignAggregate.shares_table` — the exact floats the
    aggregate fidelity gate ranks and judges.
    """
    shares = aggregate.shares_table()
    return {
        "campaign": name,
        "digest": aggregate.digest(),
        "sessions": aggregate.n_sessions,
        "total_volume_mb": aggregate.total_volume_mb(),
        "services": [
            {
                "service": service,
                "session_share": shares[service][0],
                "traffic_share": shares[service][1],
            }
            for service in SERVICE_NAMES
        ],
    }


def volume_pdf_document(name: str, aggregate: CampaignAggregate) -> dict:
    """Campaign volume PDF over the global ``log10(MB)`` grid."""
    return {
        "campaign": name,
        "digest": aggregate.digest(),
        "axis": "log10_volume_mb",
        "edges": [float(e) for e in LOG_GRID],
        "density": [float(d) for d in aggregate.volume_pdf()],
        "samples": aggregate.volume_hist.total,
    }


def duration_pdf_document(name: str, aggregate: CampaignAggregate) -> dict:
    """Campaign duration PDF over the Section 3.2 geometric bins."""
    return {
        "campaign": name,
        "digest": aggregate.digest(),
        "axis": "duration_s",
        "edges": [float(e) for e in DURATION_EDGES],
        "density": [float(d) for d in aggregate.duration_pdf()],
        "samples": aggregate.duration_hist.total,
    }


def fidelity_document(
    name: str, aggregate: CampaignAggregate, baseline
) -> dict:
    """Aggregate-only fidelity verdicts under the golden baseline.

    The checks are exactly :func:`~repro.campaign.fidelity.evaluate_aggregate`'s
    — same claims, same tolerance bands, same measured floats.  An
    all-empty campaign yields the deterministic per-claim ``skipped``
    verdicts instead of a division error.
    """
    report = evaluate_aggregate(aggregate, baseline)
    return {
        "campaign": name,
        "digest": aggregate.digest(),
        "claims": list(AGGREGATE_CLAIMS),
        "summary": report.summary(),
        "checks": [result.to_dict() for result in report.results],
    }


def arrivals_document(
    arrivals: Mapping[str, Any], release_digest: str
) -> dict:
    """Decile arrival parameters of one model release.

    ``arrivals`` is the label → :class:`~repro.core.arrivals.ArrivalModel`
    mapping of :func:`~repro.io.params.load_release`; labels sort
    lexicographically so the document is independent of mapping order.
    """
    return {
        "release_digest": release_digest,
        "deciles": [
            {
                "label": label,
                "peak_mu": float(model.peak_mu),
                "peak_sigma": float(model.peak_sigma),
                "night_scale": float(model.night_scale),
                "night_shape": float(model.night_shape),
            }
            for label, model in sorted(arrivals.items())
        ],
    }


def build_aggregate_documents(
    name: str, aggregate: CampaignAggregate, baseline
) -> dict[str, dict]:
    """All precomputed per-campaign documents, keyed by family."""
    return {
        "services/shares": shares_document(name, aggregate),
        "pdf/volume": volume_pdf_document(name, aggregate),
        "pdf/duration": duration_pdf_document(name, aggregate),
        "fidelity": fidelity_document(name, aggregate, baseline),
    }
