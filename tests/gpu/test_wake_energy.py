"""Per-profile wake energies (ROADMAP "hetero-aware pre-wake economics")."""

import pytest

from repro.fleet import GatingPolicy, region_by_name
from repro.fleet.regional import RegionalService
from repro.gpu.profiles import (
    A100_PROFILE,
    DEVICE_PROFILES,
    DeviceProfile,
    DevicePool,
    H100_PROFILE,
    L4_PROFILE,
)
from repro.scenarios import (
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
)


class TestProfileDefaults:
    def test_ordering_tracks_repaged_memory(self):
        """The satellite's calibration: H100 > A100 > L4."""
        assert (
            H100_PROFILE.wake_energy_j
            > A100_PROFILE.wake_energy_j
            > L4_PROFILE.wake_energy_j
        )

    def test_a100_default_is_the_seed_scalar(self):
        """The pre-per-profile gating default (2 kJ) was the A100 figure;
        homogeneous fleets must keep charging exactly it."""
        assert A100_PROFILE.wake_energy_j == 2000.0

    @pytest.mark.parametrize("name", sorted(DEVICE_PROFILES))
    def test_every_default_fits_its_static_ceiling(self, name):
        """Every profile's wake energy must fit under its own static draw
        over the default 60 s wake window, or the gated-never-out-spends
        invariant could not hold per device."""
        profile = DEVICE_PROFILES[name]
        ceiling = (
            profile.power.static_watts_per_gpu() * GatingPolicy().wake_latency_s
        )
        assert profile.wake_energy_j <= ceiling

    def test_negative_wake_energy_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DeviceProfile(
                name="bad",
                power=A100_PROFILE.power,
                wake_energy_j=-1.0,
            )

    def test_pool_exposes_canonical_wake_energies(self):
        pool = DevicePool.of(("a100", "l4"))
        assert pool.wake_energies_j() == (
            L4_PROFILE.wake_energy_j,
            A100_PROFILE.wake_energy_j,
        )


class TestRegionalWakeEnergy:
    def _service(self, devices=None, n_gpus=2):
        return RegionalService.create(
            region=region_by_name("us-ciso", n_gpus=n_gpus, devices=devices),
            scheme="base",
            fidelity="smoke",
        )

    def test_implicit_fleet_matches_a100_defaults(self):
        svc = self._service()
        assert svc.device_wake_energies_j() == (2000.0, 2000.0)
        assert svc.wake_transition_energy_j(0, 2) == 4000.0

    def test_mixed_pool_charges_each_device_its_own(self):
        svc = self._service(devices=("a100", "l4"))
        # Pool-canonical order: the L4 (most efficient) comes first.
        assert svc.device_wake_energies_j() == (800.0, 2000.0)
        assert svc.wake_transition_energy_j(1, 2) == 2000.0  # the A100
        assert svc.wake_transition_energy_j(0, 1) == 800.0  # the L4

    def test_scalar_override_wins(self):
        svc = self._service(devices=("a100", "l4"))
        assert svc.wake_transition_energy_j(0, 2, override_j=500.0) == 1000.0

    def test_range_validated(self):
        svc = self._service()
        with pytest.raises(ValueError, match="wake range"):
            svc.wake_transition_energy_j(1, 3)


class TestGatedFleetUsesProfileDefaults:
    def _gated(self, wake_energy_j=None, seed=11):
        spec = ScenarioSpec(
            regions=(
                RegionSpec(name="us-ciso"), RegionSpec(name="nordic-hydro")
            ),
            scheme="base",
            fidelity="smoke",
            seed=seed,
            n_gpus=2,
            duration_h=12.0,
            routing=RoutingSpec(router="carbon-greedy"),
            demand=DemandSpec(
                kind="diurnal", ramp_share_per_h=0.2, drain_share_per_h=0.3
            ),
            gating=GatingSpec(mode="reactive", wake_energy_j=wake_energy_j),
        )
        return Scenario(spec).run()

    def test_default_none_equals_explicit_a100_scalar(self):
        """Regression: an all-A100 gated fleet charges exactly what the
        pre-per-profile scalar default charged."""
        profile_defaults = self._gated(wake_energy_j=None)
        explicit_scalar = self._gated(wake_energy_j=2000.0)
        assert (
            profile_defaults.total_energy_j == explicit_scalar.total_energy_j
        )
        assert (
            profile_defaults.total_carbon_g == explicit_scalar.total_carbon_g
        )

    def test_tighter_scalar_lowers_energy_when_wakes_happen(self):
        """The wake-energy knob is live: with any wakes recorded, halving
        the per-wake energy cannot raise total energy."""
        default = self._gated(wake_energy_j=2000.0)
        cheap = self._gated(wake_energy_j=1000.0)
        assert cheap.total_energy_j <= default.total_energy_j
