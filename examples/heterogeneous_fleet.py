#!/usr/bin/env python
"""Heterogeneous GPU fleets: routing by gCO2/request, a walkthrough.

Every earlier example models identical A100s everywhere, so carbon per
request differs between regions only through the grid.  Real fleets mix
GPU generations — and carbon per request is grid intensity *times*
joules per request, which now depends on the silicon serving it.  This
example provisions the dirty APAC grid with low-power L4 inference cards
(no MIG, ~0.4x an A100's throughput, a fraction of its watts) while the
other regions keep MIG-capable A100s, then routes the same diurnal
workload three ways:

* **static** — the capacity-proportional geo-DNS split; device- and
  carbon-blind,
* **intensity-only greedy** — the pre-heterogeneity carbon-greedy:
  cleanest *grid* first.  Its blind spot is silicon: a clean grid running
  hungry devices still looks attractive,
* **efficiency-aware greedy** — cheapest *carbon per request* first:
  each region's intensity is multiplied by the marginal joules/request
  of its deployed configuration on its own devices (static draw included
  once power-gating makes idle watts follow traffic).

On an all-A100 fleet the last two are identical by construction; every
gram the efficiency ranking saves here is bought by pricing the device.

    python examples/heterogeneous_fleet.py
    python examples/heterogeneous_fleet.py --duration-h 24 --seed 1
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

#: (region, device) provisioning: cheap efficient silicon on the dirty
#: grid, MIG-capable A100s elsewhere.
FLEET = (("us-ciso", "a100"), ("uk-eso", "a100"), ("apac-solar", "l4"))

#: Per-wake transition energy sized for the smallest device in the fleet
#: (the A100 default of 2 kJ would exceed an L4's static draw over the
#: wake window, which the coordinator rejects).
WAKE_ENERGY_J = 1000.0


def run_fleet(args, efficiency_weighted: bool = True, router: str = "carbon-greedy"):
    spec = ScenarioSpec(
        regions=tuple(
            RegionSpec(name=name, devices=device) for name, device in FLEET
        ),
        application=args.application,
        scheme="clover",
        fidelity="smoke",
        seed=args.seed,
        n_gpus=args.n_gpus,
        duration_h=args.duration_h,
        routing=RoutingSpec(
            router=router, efficiency_weighted=efficiency_weighted
        ),
        demand=DemandSpec(
            kind="diurnal", ramp_share_per_h=0.10, drain_share_per_h=0.20
        ),
        gating=GatingSpec(mode="reactive", wake_energy_j=WAKE_ENERGY_J),
    )
    return Scenario(spec).run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--application", default="classification")
    parser.add_argument("--duration-h", type=float, default=48.0)
    parser.add_argument("--n-gpus", type=int, default=2, dest="n_gpus")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    runs = {
        "static": run_fleet(args, router="static"),
        "intensity-only greedy": run_fleet(args, efficiency_weighted=False),
        "efficiency-aware greedy": run_fleet(args, efficiency_weighted=True),
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
    mixes = ", ".join(f"{name}={dev}" for name, dev in FLEET)
    print(format_table(headers, rows, title=f"-- heterogeneous fleet ({mixes}) --"))
    print()

    intensity = runs["intensity-only greedy"].total_carbon_g
    efficiency = runs["efficiency-aware greedy"].total_carbon_g
    gain = (1.0 - efficiency / intensity) * 100.0
    print(f"pricing the silicon into the ranking saves {gain:.2f}% fleet carbon")
    print("over the intensity-only ranking on the identical fleet.")
    print()
    print("Reading the table: both greedy routers drain the dirty APAC grid,")
    print("but the intensity ranking treats the remaining regions as equal")
    print("whenever their grids are equal.  The efficiency ranking also sees")
    print("the devices: it knows a MIG-partitioned A100 serving small")
    print("variants is leaner than the L4 spec sheet suggests, and it knows")
    print("an awake L4 amortizes its static draw over 0.4x the capacity —")
    print("so it concentrates load where joules (not just grams per kWh)")
    print("are cheapest, and gates what that frees up.")


if __name__ == "__main__":
    main()
