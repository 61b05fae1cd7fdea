"""Device profiles: registry, pool canonicalization, granularity."""

import pytest

from repro.gpu.partitions import NUM_PARTITIONS
from repro.gpu.power import PowerModel
from repro.gpu.profiles import (
    A100_PROFILE,
    DEVICE_NAMES,
    DevicePool,
    DeviceProfile,
    H100_PROFILE,
    L4_PROFILE,
    profile_by_name,
)
from repro.models.perf import PerfModel
from repro.models.zoo import default_zoo


class TestRegistry:
    def test_names(self):
        assert DEVICE_NAMES == ("a100", "h100", "l4")

    def test_lookup_is_case_insensitive(self):
        assert profile_by_name("A100") is A100_PROFILE
        assert profile_by_name("l4") is L4_PROFILE

    def test_unknown_name_lists_valid(self):
        with pytest.raises(KeyError, match="a100, h100, l4"):
            profile_by_name("v100")

    def test_a100_profile_is_the_seed_hardware(self):
        """The A100 profile must reproduce the pre-heterogeneity model
        exactly: default power model, unit throughput."""
        assert A100_PROFILE.power == PowerModel()
        assert A100_PROFILE.throughput_scale == 1.0
        assert A100_PROFILE.partition_granularity == NUM_PARTITIONS

    def test_l4_has_no_mig(self):
        assert not L4_PROFILE.mig_capable
        assert L4_PROFILE.partition_granularity == 1
        assert H100_PROFILE.mig_capable

    def test_efficiency_ordering(self):
        """The calibrated story: L4 < H100 < A100 joules per request."""
        zoo, perf = default_zoo(), PerfModel()
        fam = zoo.for_application("classification")
        energies = {
            name: profile_by_name(name).reference_energy_per_request_j(
                perf, fam.largest
            )
            for name in DEVICE_NAMES
        }
        assert energies["l4"] < energies["h100"] < energies["a100"]

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError, match="throughput scale"):
            DeviceProfile(name="x", power=PowerModel(), throughput_scale=0.0)
        with pytest.raises(ValueError, match="granularity"):
            DeviceProfile(
                name="x", power=PowerModel(),
                partition_granularity=NUM_PARTITIONS + 1,
            )


class TestPerfScaling:
    def test_a100_perf_is_bit_for_bit_base(self):
        base = PerfModel()
        scaled = A100_PROFILE.perf(base)
        zoo = default_zoo()
        v = zoo.for_application("classification").largest
        from repro.gpu.slices import SLICE_TYPES

        for s in SLICE_TYPES:
            assert scaled.latency_ms(v, s) == base.latency_ms(v, s)
            assert scaled.busy_watts(v, s) == base.busy_watts(v, s)

    def test_h100_is_faster_l4_slower(self):
        base = PerfModel()
        zoo = default_zoo()
        v = zoo.for_application("classification").largest
        from repro.gpu.slices import slice_by_name

        full = slice_by_name("7g")
        tau = base.latency_ms(v, full)
        assert H100_PROFILE.perf(base).latency_ms(v, full) == pytest.approx(
            tau / 1.9
        )
        assert L4_PROFILE.perf(base).latency_ms(v, full) == pytest.approx(
            tau / 0.4
        )

    def test_slowdown_is_device_invariant(self):
        base = PerfModel()
        zoo = default_zoo()
        fam = zoo.for_application("classification")
        from repro.gpu.slices import slice_by_name

        one_g = slice_by_name("1g")
        v = fam.smallest
        assert H100_PROFILE.perf(base).slowdown(v, one_g) == pytest.approx(
            base.slowdown(v, one_g)
        )


class TestDevicePool:
    def test_canonical_order_is_most_efficient_first(self):
        pool = DevicePool.of(("a100", "l4", "h100"))
        assert pool.names == ("l4", "h100", "a100")

    def test_uniform_and_default_detection(self):
        assert DevicePool.uniform("a100", 3).is_default_a100
        assert not DevicePool.uniform("l4", 2).is_default_a100

    def test_granularity_is_the_pool_minimum(self):
        assert DevicePool.uniform("a100", 2).partition_granularity == NUM_PARTITIONS
        assert DevicePool.of(("a100", "l4")).partition_granularity == 1

    def test_throughput_scale_sum(self):
        pool = DevicePool.of(("a100", "l4", "l4"))
        assert pool.throughput_scale_sum == pytest.approx(1.8)

    def test_counts_and_describe(self):
        pool = DevicePool.of(("l4", "a100", "l4"))
        assert pool.counts() == {"a100": 1, "l4": 2}
        assert pool.describe() == "1xa100+2xl4"

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one GPU"):
            DevicePool(profiles=())
