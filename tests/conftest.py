"""Shared fixtures: one small measurement campaign reused across the suite.

The campaign is session-scoped because simulating it is the expensive part
of the suite; tests must not mutate it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.core.model_bank import ModelBank

# Property tests must be reproducible across runs: derandomize hypothesis
# so the suite's verdict never depends on the draw of the day.
hypothesis_settings.register_profile("deterministic", derandomize=True)
hypothesis_settings.load_profile("deterministic")
from repro.dataset.aggregation import aggregate_per_bs_day
from repro.dataset.network import Network, NetworkConfig
from repro.dataset.simulator import SimulationConfig, simulate

#: Days of the shared campaign (includes one weekend day: day 5 is Saturday
#: under the day % 7 convention when starting on Monday=0 ... we simulate
#: days 0..6 to cover both).
CAMPAIGN_DAYS = 2


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test session."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def network() -> Network:
    """A 20-BS network with all deciles, regions, cities and RATs."""
    return Network(NetworkConfig(n_bs=20), np.random.default_rng(1))


@pytest.fixture(scope="session")
def campaign(network):
    """A small two-day measurement campaign over the shared network."""
    return simulate(
        network,
        SimulationConfig(n_days=CAMPAIGN_DAYS),
        np.random.default_rng(2),
    )


@pytest.fixture(scope="session")
def campaign_stats(campaign):
    """Per-(service, BS, day) statistics of the shared campaign."""
    return aggregate_per_bs_day(campaign)


@pytest.fixture(scope="session")
def bank(campaign) -> ModelBank:
    """Session-level models fitted on the shared campaign."""
    return ModelBank.fit_from_table(campaign, min_sessions=400)


@pytest.fixture
def full_disk_on_write(monkeypatch):
    """Arm ``ArtifactCache.store`` to fail its ``n``-th write with ENOSPC.

    Call the fixture with ``n``.  The failing ``save`` callback first
    leaves a half-written file at the temporary path, as a disk filling up
    mid-write would, then raises ``OSError(ENOSPC)``.  Every other store
    call writes normally, so a rerun after the failure sees a healthy disk.
    """
    import errno
    import itertools

    from repro.io.cache import ArtifactCache

    def arm(n: int) -> None:
        real_store = ArtifactCache.store
        calls = itertools.count(1)

        def store(self, kind, key, suffix, save):
            if next(calls) != n:
                return real_store(self, kind, key, suffix, save)

            def failing_save(path):
                save(path)
                with open(path, "r+b") as fh:
                    fh.truncate(path.stat().st_size // 2)
                raise OSError(errno.ENOSPC, "No space left on device", str(path))

            return real_store(self, kind, key, suffix, failing_save)

        monkeypatch.setattr(ArtifactCache, "store", store)

    return arm
