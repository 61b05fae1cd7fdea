"""repro.demand — geo-diurnal demand: who asks, from where, and when.

The seed reproduction models demand as one constant global Poisson rate.
This package makes demand *geographic and diurnal*: a
:class:`~repro.demand.origins.GeoOrigin` registry places population-weighted
demand centres in coarse zones with UTC offsets; a
:class:`~repro.demand.diurnal.DiurnalDemandModel` turns them into
nonstationary per-origin arrival rates (sinusoidal day curve in local time,
weekend damping, burst events); a
:class:`~repro.demand.matrix.LatencyMatrix` prices the network hop of every
(origin, serving-region) pair and :func:`~repro.demand.matrix.assign_origin_traffic`
maps each epoch's origin demand onto the router's regional totals.

Every demand model implements one primitive,
:meth:`~repro.demand.diurnal.DemandModel.rate_matrix`: the per-origin
rates at many fleet times as one ``(n_times, n_origins)`` array.  The
point reads (``rates``, ``rate``, ``total_rate``) and the horizon read
``total_rates`` all derive from it, so the day curve is written once and
every read agrees bit for bit.

Quickstart::

    from repro.demand import DiurnalDemandModel, default_origins

    model = DiurnalDemandModel(
        origins=default_origins(), mean_total_rate_per_s=120.0
    )
    model.rates(t_h=20.0)       # per-origin req/s at hour 20 of the run
    model.total_rate(t_h=20.0)  # the fleet's global rate that epoch
    model.total_rates([20.0, 20.5, 21.0])  # a planning horizon, one call

A scenario's ``[demand]`` section (:class:`repro.scenarios.DemandSpec`)
builds the fleet's model; the :class:`repro.fleet.FleetCoordinator`
constructor also takes a built model with its latency matrix.
"""

from repro.demand.diurnal import (
    BurstEvent,
    ConstantDemandModel,
    DemandModel,
    DiurnalDemandModel,
    WEEKEND_DAYS,
    default_demand,
)
from repro.demand.matrix import (
    LatencyMatrix,
    ZONE_LATENCY_MS,
    assign_origin_traffic,
    default_latency_matrix,
)
from repro.demand.origins import (
    GeoOrigin,
    ORIGIN_NAMES,
    ZONES,
    default_origins,
    normalized_weights,
    origin_by_name,
)

__all__ = [
    "GeoOrigin",
    "ORIGIN_NAMES",
    "ZONES",
    "origin_by_name",
    "default_origins",
    "normalized_weights",
    "DemandModel",
    "ConstantDemandModel",
    "DiurnalDemandModel",
    "BurstEvent",
    "default_demand",
    "WEEKEND_DAYS",
    "LatencyMatrix",
    "ZONE_LATENCY_MS",
    "default_latency_matrix",
    "assign_origin_traffic",
]
