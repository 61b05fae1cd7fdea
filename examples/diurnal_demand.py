#!/usr/bin/env python
"""Geo-diurnal demand: forecast-driven proactive routing, a walkthrough.

The multi-region example (``multi_region_fleet.py``) routes one *constant*
global workload.  Real demand has a geography and a clock: Asia wakes up
~14 fleet-hours before North America, and every grid's solar trough tracks
its own local noon.  This example runs that world:

* three demand origins (NA/EU/APAC) with population weights and
  sinusoidal day curves in their local time (:mod:`repro.demand`),
* three grids whose duck curves are phase-shifted by geography —
  ``apac-solar``'s trough leads the fleet clock by 8 hours,
* an origin→region latency matrix charging the SLA per (origin,
  serving-region) pair,
* session inertia: a region *admits* traffic quickly but resident
  sessions only drain at a bounded rate — entering a briefly-clean grid
  is a commitment,
* the ``forecast-aware`` router, which ranks regions on the predicted
  mean intensity of the coming lookahead window (Diurnal climatology
  forecaster) with a regret guard that falls back toward myopic greedy
  when its forecasts go bad.

    python examples/diurnal_demand.py
    python examples/diurnal_demand.py --lookahead-h 8 --duration-h 24
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_table
from repro.scenarios import (
    DemandSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
)

#: Small clusters + smoke fidelity keep the example interactive (~seconds).
EXAMPLE_GPUS = 2
DEMAND_REGIONS = ("us-ciso", "uk-eso", "apac-solar")


def run_fleet(router: str, args, lookahead_h: float | None = None):
    spec = ScenarioSpec(
        regions=tuple(RegionSpec(name=n) for n in DEMAND_REGIONS),
        application=args.application,
        scheme="clover",
        fidelity="smoke",
        seed=args.seed,
        n_gpus=args.n_gpus,
        duration_h=args.duration_h,
        routing=RoutingSpec(router=router, lookahead_h=lookahead_h),
        demand=DemandSpec(
            kind="diurnal",
            ramp_share_per_h=args.ramp_share_per_h,
            drain_share_per_h=args.drain_share_per_h,
        ),
    )
    return Scenario(spec).run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--application", default="classification")
    parser.add_argument("--duration-h", type=float, default=48.0)
    parser.add_argument("--lookahead-h", type=float, default=6.0,
                        dest="lookahead_h")
    parser.add_argument("--ramp-share-per-h", type=float, default=0.10,
                        dest="ramp_share_per_h")
    parser.add_argument("--drain-share-per-h", type=float, default=0.20,
                        dest="drain_share_per_h")
    parser.add_argument("--n-gpus", type=int, default=EXAMPLE_GPUS,
                        dest="n_gpus")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    runs = {
        "static": run_fleet("static", args),
        "carbon-greedy": run_fleet("carbon-greedy", args),
        "forecast-aware": run_fleet(
            "forecast-aware", args, lookahead_h=args.lookahead_h
        ),
    }

    for label, report in runs.items():
        headers, rows = report.table()
        print(format_table(headers, rows, title=f"-- router: {label} --"))
        print()

    headers, rows = runs["forecast-aware"].origin_table()
    print(format_table(headers, rows, title="-- who served whom (forecast-aware) --"))
    print()

    static = runs["static"]
    for label in ("carbon-greedy", "forecast-aware"):
        r = runs[label]
        save = (1.0 - r.total_carbon_g / static.total_carbon_g) * 100.0
        print(
            f"{label:15s} carbon {r.total_carbon_g:8,.0f} g "
            f"({save:+.2f}% vs static) | user SLA "
            f"{100 * r.user_sla_attainment:.2f}% vs "
            f"{100 * static.user_sla_attainment:.2f}% | mean hop "
            f"{r.mean_net_latency_ms:.1f} ms vs "
            f"{static.mean_net_latency_ms:.1f} ms"
        )
    print()
    print("Reading the tables: the static geo-DNS split serves every origin")
    print("a third everywhere and eats APAC's coal evenings; the carbon")
    print("routers drain APAC to its resident floor and split its users")
    print("between home (cheap hop, dirty grid) and NA (55 ms, cleaner).")
    print("The forecast-aware router makes the same moves *earlier*: with")
    print("drain-limited sessions, leaving a trough late is the expensive")
    print("mistake, and the lookahead window prices the exit in advance.")


if __name__ == "__main__":
    main()
