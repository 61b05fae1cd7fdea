"""Region registry and construction."""

import pytest

from repro.carbon.traces import ciso_march_48h, eso_march_48h
from repro.fleet import REGION_NAMES, Region, default_fleet_regions, region_by_name


class TestRegistry:
    def test_known_names(self):
        assert "us-ciso" in REGION_NAMES
        assert "uk-eso" in REGION_NAMES
        assert "nordic-hydro" in REGION_NAMES

    def test_unknown_region_raises_with_listing(self):
        with pytest.raises(KeyError, match="valid"):
            region_by_name("atlantis")

    def test_paper_regions_reuse_embedded_traces(self):
        """An N=1 fleet over a paper grid must see the *identical* trace
        the single-cluster experiments use (lru-cached singleton)."""
        assert region_by_name("us-ciso").trace is ciso_march_48h()
        assert region_by_name("uk-eso").trace is eso_march_48h()

    def test_gpu_count_passthrough(self):
        assert region_by_name("us-ciso", n_gpus=4).n_gpus == 4

    def test_nordic_region_is_clean(self):
        nordic = region_by_name("nordic-hydro")
        ciso = region_by_name("us-ciso")
        assert nordic.trace.mean() < 0.3 * ciso.trace.mean()
        assert nordic.pue < ciso.pue

    def test_default_fleet_is_three_distinct_regions(self):
        regions = default_fleet_regions(n_gpus=2)
        assert len(regions) == 3
        assert len({r.name for r in regions}) == 3
        assert all(r.n_gpus == 2 for r in regions)


class TestRegionValidation:
    def test_pue_below_one_rejected(self):
        with pytest.raises(ValueError, match="PUE"):
            Region(name="x", trace=ciso_march_48h(), pue=0.9)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="latency"):
            Region(name="x", trace=ciso_march_48h(), net_latency_ms=-1.0)

    def test_nonpositive_gpus_rejected(self):
        with pytest.raises(ValueError, match="n_gpus"):
            Region(name="x", trace=ciso_march_48h(), n_gpus=0)

    def test_with_gpus_clones(self):
        r = region_by_name("us-ciso", n_gpus=10)
        r2 = r.with_gpus(2)
        assert r2.n_gpus == 2 and r.n_gpus == 10
        assert r2.trace is r.trace


class TestGpuCountValidation:
    """Regression tests: a region must never accept a non-positive pool.

    Every construction path — the dataclass, the registry and the resize
    helper — validates ``n_gpus > 0``.
    """

    @pytest.mark.parametrize("bad", [0, -1, -10])
    def test_direct_construction_rejects(self, bad):
        with pytest.raises(ValueError, match="n_gpus must be positive"):
            Region(name="x", trace=ciso_march_48h(), n_gpus=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_registry_rejects(self, bad):
        with pytest.raises(ValueError, match="n_gpus must be positive"):
            region_by_name("us-ciso", n_gpus=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_with_gpus_rejects(self, bad):
        region = region_by_name("us-ciso", n_gpus=4)
        with pytest.raises(ValueError, match="n_gpus must be positive"):
            region.with_gpus(bad)


class TestDeviceField:
    def test_default_is_implicit_a100(self):
        region = region_by_name("us-ciso", n_gpus=3)
        assert region.devices is None
        assert region.device_names == ("a100",) * 3
        assert region.device_pool().is_default_a100

    def test_uniform_and_mixed_forms(self):
        uniform = region_by_name("us-ciso", n_gpus=2, devices="L4")
        assert uniform.device_names == ("l4", "l4")
        mixed = region_by_name("us-ciso", n_gpus=2, devices=("a100", "l4"))
        assert mixed.device_pool().names == ("l4", "a100")

    def test_unknown_device_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown device"):
            region_by_name("us-ciso", n_gpus=2, devices="v100")

    def test_device_count_mismatch_rejected_at_construction(self):
        with pytest.raises(ValueError, match="device entries"):
            region_by_name("us-ciso", n_gpus=3, devices=("a100", "l4"))

    def test_with_gpus_broadcasts_uniform_devices(self):
        region = region_by_name("us-ciso", n_gpus=2, devices="l4")
        grown = region.with_gpus(4)
        assert grown.device_names == ("l4",) * 4
        # An explicit uniform tuple degrades to a broadcastable name.
        tup = region_by_name("us-ciso", n_gpus=2, devices=("l4", "l4"))
        assert tup.with_gpus(3).device_names == ("l4",) * 3

    def test_with_gpus_refuses_to_resize_a_mixed_tuple(self):
        region = region_by_name("us-ciso", n_gpus=2, devices=("a100", "l4"))
        with pytest.raises(ValueError, match="with_devices"):
            region.with_gpus(4)

    def test_with_devices_resizes_by_tuple(self):
        region = region_by_name("us-ciso", n_gpus=2)
        mixed = region.with_devices(("a100", "a100", "l4"))
        assert mixed.n_gpus == 3
        assert mixed.device_pool().describe() == "2xa100+1xl4"
