"""Slice capacity allocation strategies (Section 6.1.1).

Three allocators are compared:

* :func:`allocate_with_models` — only feasible with the paper's
  session-level per-service models: synthetic traffic is generated from the
  fitted arrival + volume + duration models, and each slice receives the
  95th percentile of its simulated per-minute demand at each antenna;
* :func:`allocate_with_categories` — the literature benchmarks (bm a,
  bm b): the same percentile rule applied at the granularity of the three
  IW/CS/MS categories, whose capacity is then split **uniformly** across
  the category's services, "since no information w.r.t. the intra-category
  session shares is available".
"""

from __future__ import annotations

import numpy as np

from ...core.arrivals import ArrivalModel
from ...core.model_bank import ModelBank
from ...core.service_mix import ServiceMix
from ...dataset.records import SERVICE_INDEX, SERVICE_NAMES
from ...dataset.services import LiteratureCategory, services_in_category
from .benchmarks import sample_category_sessions
from .demand import campaign_peak_mask, spread_sessions

#: SLA percentile of Section 6.1 (demand fully served 95 % of the time).
SLA_PERCENTILE = 95.0


class AllocationError(ValueError):
    """Raised on inconsistent allocation input."""


def percentile_capacity(
    demand: np.ndarray, peak_mask: np.ndarray, percentile: float = SLA_PERCENTILE
) -> np.ndarray:
    """Per-(antenna, slice) capacity at a percentile of peak-hour demand.

    ``demand`` is a (n_bs, n_slices, minutes) matrix; the returned capacity
    is in the same unit (MB per minute).
    """
    if demand.ndim != 3:
        raise AllocationError("demand must be (n_bs, n_slices, minutes)")
    if peak_mask.shape != (demand.shape[2],):
        raise AllocationError("peak mask must align with the minute axis")
    if not 0 < percentile <= 100:
        raise AllocationError("percentile must be in (0, 100]")
    return np.percentile(demand[:, :, peak_mask], percentile, axis=2)


def allocate_with_models(
    arrival_models: dict[int, ArrivalModel],
    mix: ServiceMix,
    bank: ModelBank,
    rng: np.random.Generator,
    n_sim_days: int = 3,
    percentile: float = SLA_PERCENTILE,
) -> np.ndarray:
    """Model-driven allocation: 95th pct of model-generated slice demand.

    Returns a ``(n_antennas, n_services)`` capacity matrix in MB/minute,
    with antennas ordered as ``sorted(arrival_models)``.
    """
    from ...core.generator import TrafficGenerator

    generator = TrafficGenerator(arrival_models, mix, bank)
    table = generator.generate_campaign(n_sim_days, rng)

    bs_ids = sorted(arrival_models)
    from .demand import demand_matrix

    demand = demand_matrix(table, bs_ids, n_sim_days)
    return percentile_capacity(demand, campaign_peak_mask(n_sim_days), percentile)


def allocate_with_categories(
    arrival_models: dict[int, ArrivalModel],
    category_shares: dict[LiteratureCategory, float],
    rng: np.random.Generator,
    n_sim_days: int = 3,
    percentile: float = SLA_PERCENTILE,
) -> np.ndarray:
    """Benchmark allocation from the 3-category literature models.

    Per antenna, sessions are generated with the fitted arrival process but
    typed and sized by the category models; each category slice gets the
    95th percentile of its simulated demand, split uniformly across the
    services mapped to the category.
    """
    bs_ids = sorted(arrival_models)
    categories = list(LiteratureCategory)
    cat_pos = {c: i for i, c in enumerate(categories)}
    n_groups = len(bs_ids) * len(categories)

    all_group, all_day, all_minute, all_vol, all_dur = [], [], [], [], []
    for bs_pos, bs_id in enumerate(bs_ids):
        model = arrival_models[bs_id]
        for day in range(n_sim_days):
            counts = model.sample_day(rng)
            n = int(counts.sum())
            if n == 0:
                continue
            cats, volumes, durations = sample_category_sessions(
                category_shares, rng, n
            )
            group = np.array(
                [bs_pos * len(categories) + cat_pos[c] for c in cats],
                dtype=np.int64,
            )
            all_group.append(group)
            all_day.append(np.full(n, day))
            all_minute.append(np.repeat(np.arange(1440), counts))
            all_vol.append(volumes)
            all_dur.append(durations)

    if not all_group:
        raise AllocationError("arrival models produced no sessions")
    flat = spread_sessions(
        np.concatenate(all_group),
        n_groups,
        np.concatenate(all_day),
        np.concatenate(all_minute),
        np.concatenate(all_vol),
        np.concatenate(all_dur),
        n_sim_days,
    )
    demand = flat.reshape(len(bs_ids), len(categories), n_sim_days * 1440)
    category_capacity = percentile_capacity(
        demand, campaign_peak_mask(n_sim_days), percentile
    )

    capacity = np.zeros((len(bs_ids), len(SERVICE_NAMES)))
    for category in categories:
        members = services_in_category(category)
        if not members:
            continue
        share = category_capacity[:, cat_pos[category]] / len(members)
        for name in members:
            capacity[:, SERVICE_INDEX[name]] = share
    return capacity
