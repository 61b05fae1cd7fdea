"""build_coordinator: what the one fleet assembly derives from a spec."""

import pytest

from repro.scenarios import (
    DEMAND_KINDS,
    DemandSpec,
    RegionSpec,
    ScenarioSpec,
    build_coordinator,
)


def spec(**overrides) -> ScenarioSpec:
    return ScenarioSpec(
        regions=(RegionSpec(name="us-ciso"), RegionSpec(name="uk-eso")),
        fidelity="smoke",
        n_gpus=2,
        **overrides,
    )


class TestDemandModeLatency:
    def test_each_region_serves_at_its_nearest_origin_hop(self):
        fleet = build_coordinator(spec(demand=DemandSpec(kind="diurnal")))
        hops = fleet.latency_matrix.nearest_origin_latency()
        assert [s.region.net_latency_ms for s in fleet.services] == [
            float(h) for h in hops
        ]

    def test_sla_target_is_the_zero_latency_baseline_minus_the_hop(self):
        demand = build_coordinator(spec(demand=DemandSpec(kind="diurnal")))
        zero = build_coordinator(spec(net_latency_ms=0.0))
        for hopped, baseline in zip(demand.services, zero.services):
            assert hopped.region.net_latency_ms > 0.0
            assert hopped.sla_target_ms == (
                baseline.sla_target_ms - hopped.region.net_latency_ms
            )


class TestDemandScale:
    @pytest.mark.parametrize("kind", DEMAND_KINDS)
    def test_scale_one_mean_is_the_nominal_sum_exactly(self, kind):
        fleet = build_coordinator(spec(demand=DemandSpec(kind=kind, scale=1.0)))
        nominal = float(sum(s.nominal_rate_per_s for s in fleet.services))
        assert fleet.demand.mean_total_rate_per_s == nominal
