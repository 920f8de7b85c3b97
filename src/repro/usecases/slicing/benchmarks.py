"""Literature 3-category traffic models — the Section 6 benchmarks.

The paper compares its per-service models against what the prior art
offers: mobile traffic models that distinguish only three service
categories — Interactive Web (IW), Casual Streaming (CS) and Movie
Streaming (MS) — with per-category session behaviour ([42] Tsompanidis et
al. 2014, [31] Navarro-Ortiz et al. 2020).  Two share breakdowns are used
in Section 6.1.1:

* **bm a**: category session shares obtained by aggregating Table 1 over
  the category mapping (IW 49.30 %, CS 48.46 %, MS 2.24 %);
* **bm b**: category session shares taken from the literature
  (IW 50 %, CS 42.11 %, MS 7.89 %).

The per-category session parameters below follow the NGMN-style constant-
bitrate assumptions of those models: each session holds a fixed nominal
throughput for an exponential-ish duration.  These are exactly the kind of
coarse assumptions whose mismatch with measured session-level behaviour the
use cases quantify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...dataset.services import LiteratureCategory


class BenchmarkError(ValueError):
    """Raised on malformed benchmark configuration."""


@dataclass(frozen=True)
class CategoryTrafficModel:
    """Literature session model of one service category.

    Sessions hold ``nominal_throughput_mbps`` for a log-normally distributed
    duration of median ``median_duration_s`` (spread ``sigma_dex`` decades);
    the session volume follows as throughput × duration.
    """

    category: LiteratureCategory
    nominal_throughput_mbps: float
    median_duration_s: float
    sigma_dex: float = 0.30

    def sample_sessions(
        self, rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw (volumes MB, durations s) for ``size`` category sessions."""
        durations = self.median_duration_s * 10.0 ** rng.normal(
            0.0, self.sigma_dex, size=size
        )
        durations = np.clip(durations, 1.0, 86400.0)
        volumes = self.nominal_throughput_mbps * durations / 8.0
        return volumes, durations


#: The literature category models ([42] Table II / [31] Table XVII style):
#: constant nominal bitrates per category.
CATEGORY_MODELS: dict[LiteratureCategory, CategoryTrafficModel] = {
    LiteratureCategory.INTERACTIVE_WEB: CategoryTrafficModel(
        LiteratureCategory.INTERACTIVE_WEB,
        nominal_throughput_mbps=1.0,
        median_duration_s=30.0,
    ),
    LiteratureCategory.CASUAL_STREAMING: CategoryTrafficModel(
        LiteratureCategory.CASUAL_STREAMING,
        nominal_throughput_mbps=2.0,
        median_duration_s=120.0,
    ),
    LiteratureCategory.MOVIE_STREAMING: CategoryTrafficModel(
        LiteratureCategory.MOVIE_STREAMING,
        nominal_throughput_mbps=4.0,
        median_duration_s=900.0,
    ),
}

#: bm a: category session shares from aggregating Table 1 (Section 6.1.1).
BM_A_SHARES: dict[LiteratureCategory, float] = {
    LiteratureCategory.INTERACTIVE_WEB: 0.4930,
    LiteratureCategory.CASUAL_STREAMING: 0.4846,
    LiteratureCategory.MOVIE_STREAMING: 0.0224,
}

#: bm b: category session shares from the literature (Section 6.1.1).
BM_B_SHARES: dict[LiteratureCategory, float] = {
    LiteratureCategory.INTERACTIVE_WEB: 0.5000,
    LiteratureCategory.CASUAL_STREAMING: 0.4211,
    LiteratureCategory.MOVIE_STREAMING: 0.0789,
}


def normalized_shares(
    shares: dict[LiteratureCategory, float]
) -> dict[LiteratureCategory, float]:
    """Validate and renormalize a category share vector."""
    total = sum(shares.values())
    if total <= 0:
        raise BenchmarkError("category shares must have positive total")
    if any(v < 0 for v in shares.values()):
        raise BenchmarkError("category shares must be non-negative")
    return {c: shares.get(c, 0.0) / total for c in LiteratureCategory}


def sample_category_sessions(
    shares: dict[LiteratureCategory, float],
    rng: np.random.Generator,
    size: int,
) -> tuple[list[LiteratureCategory], np.ndarray, np.ndarray]:
    """Draw ``size`` sessions from the 3-category literature model.

    Returns (category per session, volumes MB, durations s).
    """
    shares = normalized_shares(shares)
    categories = list(LiteratureCategory)
    probs = np.array([shares[c] for c in categories])
    idx = rng.choice(len(categories), size=size, p=probs)
    volumes = np.empty(size)
    durations = np.empty(size)
    for i, category in enumerate(categories):
        mask = idx == i
        n = int(mask.sum())
        if n:
            volumes[mask], durations[mask] = CATEGORY_MODELS[
                category
            ].sample_sessions(rng, n)
    return [categories[i] for i in idx], volumes, durations
