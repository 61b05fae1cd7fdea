#!/usr/bin/env python
"""Elastic GPU capacity: idle power that follows traffic, a walkthrough.

Every earlier example runs an *always-on* fleet: a region's GPUs draw
their idle power whether the router sends them traffic or not, so
draining a dirty region only saves the dynamic margin.  This example
turns on power-gating and walks the three regimes side by side:

* **always-on** — the PR-2 behaviour; the carbon-greedy-vs-static gap is
  the dynamic margin only (~4%),
* **reactive gating** — a per-region ``CapacityManager`` sleeps whole
  GPUs (hysteresis-guarded) when the routed rate falls and wakes them
  when demand returns; wakes happen *after* the shortfall is observed,
  so part of the epoch is served at yesterday's capacity — the wake
  latency is the real price of reactive scaling,
* **forecast pre-wake** — the forecast-aware router projects next
  epoch's split from its lookahead window and files pre-wakes, so the
  capacity is standing when the demand lands; its policy can afford
  deeper sleeps because a wrong sleep costs a pre-wake, not an SLA hit.

    python examples/elastic_capacity.py
    python examples/elastic_capacity.py --duration-h 24 --n-gpus 4
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_table
from repro.scenarios import (
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
)

#: Small clusters + smoke fidelity keep the example interactive (~seconds).
EXAMPLE_GPUS = 2
REGIONS = ("us-ciso", "uk-eso", "apac-solar")


def run_fleet(router: str, args, gating=None, lookahead_h=None):
    spec = ScenarioSpec(
        regions=tuple(RegionSpec(name=n) for n in REGIONS),
        application=args.application,
        scheme="clover",
        fidelity="smoke",
        seed=args.seed,
        n_gpus=args.n_gpus,
        duration_h=args.duration_h,
        routing=RoutingSpec(router=router, lookahead_h=lookahead_h),
        demand=DemandSpec(
            kind="diurnal", ramp_share_per_h=0.10, drain_share_per_h=0.20
        ),
        gating=GatingSpec(mode=gating),
    )
    return Scenario(spec).run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--application", default="classification")
    parser.add_argument("--duration-h", type=float, default=48.0)
    parser.add_argument("--lookahead-h", type=float, default=6.0,
                        dest="lookahead_h")
    parser.add_argument("--n-gpus", type=int, default=EXAMPLE_GPUS,
                        dest="n_gpus")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    runs = {
        "always-on static": run_fleet("static", args),
        "always-on greedy": run_fleet("carbon-greedy", args),
        "reactive greedy": run_fleet("carbon-greedy", args, gating="reactive"),
        "prewake forecast": run_fleet(
            "forecast-aware", args, gating="forecast",
            lookahead_h=args.lookahead_h,
        ),
    }

    headers = ("Run", "Carbon(g)", "Energy(kWh)", "AwakeGPU%", "UserSLA%")
    rows = [
        (
            label,
            f"{r.total_carbon_g:,.0f}",
            f"{r.total_energy_j / 3.6e6:.2f}",
            f"{100 * r.mean_awake_fraction:.1f}",
            f"{100 * r.user_sla_attainment:.2f}",
        )
        for label, r in runs.items()
    ]
    print(format_table(headers, rows, title="-- elastic capacity --"))
    print()

    static = runs["always-on static"].total_carbon_g
    on_gap = (1.0 - runs["always-on greedy"].total_carbon_g / static) * 100.0
    gated_gap = (1.0 - runs["reactive greedy"].total_carbon_g / static) * 100.0
    print(f"carbon-greedy saves {on_gap:.2f}% over static while always-on,")
    print(f"and {gated_gap:.2f}% once sleeping GPUs stop paying idle power.")
    print()
    print("Reading the table: the static split cannot gate anything — every")
    print("region keeps its third of the traffic, so no pool ever drains.")
    print("The carbon routers concentrate load on clean grids and the dirty")
    print("region's manager sleeps its spare GPUs; waking them back up is")
    print("the cost reactive routing pays when demand returns, which the")
    print("forecast-aware router avoids by pre-waking from its lookahead.")


if __name__ == "__main__":
    main()
