"""Device profiles: heterogeneous GPU generations as first-class hardware.

Until PR 4 the whole codebase carried an implicit single-device assumption:
every cluster was ``n`` identical A100-40GB boards, so "capacity" was a GPU
*count* and energy-per-request depended only on the configuration.  Real
fleets are heterogeneous — EcoServe (Li et al., 2025) shows that
provisioning mixed GPU generations and steering load by energy-per-request
is a first-order carbon lever, and CarbonEdge makes the same argument for
heterogeneous edge silicon.  This module makes the device explicit:

* :class:`DeviceProfile` — one GPU generation: its
  :class:`~repro.gpu.power.PowerModel` (peak / idle / sleep watts), a
  **throughput scalar** relative to the A100 reference (the analytical
  latency model divides service times by it), a **partition
  granularity** (which MIG configurations the silicon supports — the L4
  has no MIG at all) and the energy of waking it from sleep.
* :class:`DevicePool` — an ordered multiset of profiles: one region's GPU
  fleet, canonically sorted most-carbon-efficient first.  The canonical
  order is load-bearing: the evaluator maps canonical configuration
  assignments onto pool positions (big partitions land on efficient
  silicon), and the elastic-capacity layer sleeps from the *tail* — the
  least-efficient awake device is always the first one gated.

Three profiles are registered (A100 / H100 / L4).  Like every other
hardware number in this reproduction the figures are *calibrated, not
measured*: the A100 profile reproduces the seed power model exactly (an
all-A100 pool is bit-for-bit the pre-heterogeneity code path, tested), the
H100 is faster and slightly more efficient per request, and the L4 is a
slow, low-power inference card — fewer joules per request than an A100 but
a fraction of its capacity, and no MIG.  The resulting efficiency ordering
(L4 < H100 < A100 joules/request at the reference operating point) is what
gives efficiency-aware routing something real to exploit.

>>> profile_by_name("l4").mig_capable
False
>>> pool = DevicePool.of(("a100", "l4", "a100"))
>>> pool.names  # canonical order: most efficient silicon first
('l4', 'a100', 'a100')
>>> pool.partition_granularity  # an L4 in the pool pins the search to full GPUs
1
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.gpu.partitions import NUM_PARTITIONS
from repro.gpu.power import PowerModel

__all__ = [
    "DeviceProfile",
    "DevicePool",
    "DEVICE_PROFILES",
    "DEVICE_NAMES",
    "A100_PROFILE",
    "H100_PROFILE",
    "L4_PROFILE",
    "profile_by_name",
    "parse_devices",
    "parse_region_devices",
]

#: Operating point of the family-independent efficiency ranking: the
#: compute intensity and utilization at which devices are compared when a
#: pool is put into canonical order.  (Per-family energies are computed
#: exactly by :meth:`DeviceProfile.reference_energy_per_request_j`; the
#: rank key only needs a fixed, reproducible ordering.)
_RANK_INTENSITY = 0.8
_RANK_UTILIZATION = 0.65


@dataclass(frozen=True)
class DeviceProfile:
    """One GPU generation: power curve, speed, MIG support, wake energy.

    Attributes
    ----------
    name:
        Registry key (``"a100"``, ``"h100"``, ``"l4"``).
    power:
        The node power model of this generation (idle / peak-dynamic /
        host / sleep watts).  The A100 profile carries the seed defaults.
    throughput_scale:
        Service-rate multiplier relative to the A100 reference: the
        analytical latency model divides every service time by it, so
        ``2.0`` means "every variant runs twice as fast on every slice".
    partition_granularity:
        Highest supported MIG partition config id (1..19).  ``1`` means
        the device cannot partition at all (full-GPU deployments only);
        :data:`~repro.gpu.partitions.NUM_PARTITIONS` means every A100-class
        MIG configuration is available.
    wake_energy_j:
        Transition energy of gating this device back online (rail
        un-gating, HBM scrub, re-paging model weights into every slice).
        Bigger boards re-page more weights, so H100 > A100 > L4.  The
        elastic-capacity layer charges this per woken device when the
        :class:`~repro.fleet.capacity.GatingPolicy` does not override it
        with a fleet-wide scalar; each default is sized below the device's
        own static draw over the default 60 s wake window, so the
        gated-never-out-spends-always-on invariant holds per device.
    """

    name: str
    power: PowerModel
    throughput_scale: float = 1.0
    partition_granularity: int = NUM_PARTITIONS
    wake_energy_j: float = 2_000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device profile needs a name")
        if self.throughput_scale <= 0:
            raise ValueError(
                f"throughput scale must be positive, got {self.throughput_scale}"
            )
        if not 1 <= self.partition_granularity <= NUM_PARTITIONS:
            raise ValueError(
                f"partition granularity must be in [1, {NUM_PARTITIONS}], "
                f"got {self.partition_granularity}"
            )
        if self.wake_energy_j < 0:
            raise ValueError(
                f"wake energy must be non-negative, got {self.wake_energy_j}"
            )

    @property
    def mig_capable(self) -> bool:
        """Whether the device supports any partitioned configuration."""
        return self.partition_granularity > 1

    def perf(self, base: "PerfModel") -> "PerfModel":
        """The device-scaled performance oracle.

        Swaps in this profile's power model and compounds its throughput
        scalar onto ``base``.  With the A100 profile and default ``base``
        this returns a model that evaluates bit-for-bit like ``base``.
        """
        return replace(
            base,
            power=self.power,
            throughput_scale=base.throughput_scale * self.throughput_scale,
        )

    def reference_energy_per_request_j(
        self, base, variant, utilization: float = _RANK_UTILIZATION
    ) -> float:
        """Joules one request costs on this device, statics amortized.

        The closed form prices a request of ``variant`` served on an
        unpartitioned slice of this device at the sizing ``utilization``:
        the slice's dynamic energy plus the board's static draw amortized
        over the requests that utilization implies.  This is the
        per-region efficiency signal routing ranks on (grid intensity x
        this = gCO2 per marginal request at the device).
        """
        from repro.gpu.slices import slice_by_name

        if not 0.0 < utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {utilization}")
        perf = self.perf(base)
        full = slice_by_name("7g")
        tau_s = perf.latency_s(variant, full)
        dynamic_w = perf.busy_watts(variant, full)
        static_w = self.power.static_watts_per_gpu() / utilization
        return (dynamic_w + static_w) * tau_s

    def efficiency_rank_key(self) -> tuple[float, str]:
        """Family-independent sort key: lower = more efficient silicon.

        The watts term prices a device at the reference operating point;
        dividing by the throughput scalar converts it to energy per unit
        of work.  The name tiebreaks so pool canonicalization is total.
        """
        watts = (
            self.power.peak_dynamic_watts * _RANK_INTENSITY
            + self.power.static_watts_per_gpu() / _RANK_UTILIZATION
        )
        return (watts / self.throughput_scale, self.name)


#: The seed testbed device: the A100 profile *is* the pre-heterogeneity
#: model — seed power defaults, unit throughput, full MIG.
A100_PROFILE = DeviceProfile(
    name="a100",
    power=PowerModel(),
    throughput_scale=1.0,
    partition_granularity=NUM_PARTITIONS,
    # The seed gating default: 2 kJ fits under the A100's 35 W static
    # draw over the 60 s wake window (2.1 kJ ceiling).
    wake_energy_j=2_000.0,
)

#: Hopper: ~1.9x the A100's service rate at a higher board power — faster
#: *and* slightly fewer joules per request, with full MIG support
#: (calibrated, not measured; see the module docstring).
H100_PROFILE = DeviceProfile(
    name="h100",
    power=PowerModel(
        idle_watts=30.0,
        peak_dynamic_watts=610.0,
        host_watts_per_gpu=15.0,
        sleep_watts=8.0,
    ),
    throughput_scale=1.9,
    partition_granularity=NUM_PARTITIONS,
    # 80 GB of HBM re-paged per wake: the heaviest transition in the
    # registry, still under the 45 W x 60 s = 2.7 kJ static ceiling.
    wake_energy_j=2_500.0,
)

#: Ada inference card: ~0.4x the A100's service rate at a fraction of the
#: power — the cheapest joules per request in the registry, but slow, and
#: with no MIG at all (full-GPU deployments only).
L4_PROFILE = DeviceProfile(
    name="l4",
    power=PowerModel(
        idle_watts=8.0,
        peak_dynamic_watts=64.0,
        host_watts_per_gpu=10.0,
        sleep_watts=3.0,
    ),
    throughput_scale=0.4,
    partition_granularity=1,
    # A small board with little memory to re-page; well under the L4's
    # 18 W x 60 s = 1.08 kJ static ceiling.
    wake_energy_j=800.0,
)

DEVICE_PROFILES: dict[str, DeviceProfile] = {
    p.name: p for p in (A100_PROFILE, H100_PROFILE, L4_PROFILE)
}

DEVICE_NAMES = tuple(sorted(DEVICE_PROFILES))


def profile_by_name(name: str) -> DeviceProfile:
    """Look a device profile up by registry name (``"a100"``, ``"l4"``)."""
    try:
        return DEVICE_PROFILES[name.lower()]
    except KeyError:
        valid = ", ".join(DEVICE_NAMES)
        raise KeyError(
            f"unknown device profile {name!r}; valid: {valid}"
        ) from None


@dataclass(frozen=True)
class DevicePool:
    """One cluster's GPU fleet, canonically ordered best-silicon-first.

    Build with :meth:`of` (which sorts) rather than the constructor; the
    canonical order is what ties the three layers together:

    * the evaluator maps the canonical configuration's ``i``-th GPU
      assignment onto ``profiles[i]`` — coarse partitions (which
      canonicalization sorts first) land on the most efficient silicon,
    * the capacity manager's awake set is always a canonical *prefix*, so
      sleeping trims the least-efficient devices first,
    * routing's marginal-device efficiency signal reads the last awake
      position.
    """

    profiles: tuple[DeviceProfile, ...]

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError("a device pool needs at least one GPU")

    @classmethod
    def of(cls, devices) -> "DevicePool":
        """Canonical pool from profiles or registry names (any order)."""
        resolved = tuple(
            d if isinstance(d, DeviceProfile) else profile_by_name(d)
            for d in devices
        )
        return cls(
            profiles=tuple(
                sorted(resolved, key=lambda p: p.efficiency_rank_key())
            )
        )

    @classmethod
    def uniform(cls, name: str, n_gpus: int) -> "DevicePool":
        """A homogeneous pool of ``n_gpus`` devices of one profile."""
        if n_gpus <= 0:
            raise ValueError(f"n_gpus must be positive, got {n_gpus}")
        return cls(profiles=(profile_by_name(name),) * n_gpus)

    @property
    def n_gpus(self) -> int:
        return len(self.profiles)

    @property
    def names(self) -> tuple[str, ...]:
        """Profile names in canonical order (doubles as the cache key)."""
        return tuple(p.name for p in self.profiles)

    @property
    def is_default_a100(self) -> bool:
        """Whether this pool is the implicit pre-heterogeneity fleet.

        Callers normalize such pools to ``None`` so the all-A100 path
        stays bit-for-bit the seed code path (same cache keys, same
        arithmetic order).
        """
        return all(p is A100_PROFILE or p == A100_PROFILE for p in self.profiles)

    @property
    def partition_granularity(self) -> int:
        """Highest partition id every device in the pool supports.

        A mixed pool is searched conservatively: the optimizer only
        explores partitions *all* its devices can realize, so one non-MIG
        L4 pins a mixed pool to full-GPU deployments.
        """
        return min(p.partition_granularity for p in self.profiles)

    @property
    def throughput_scale_sum(self) -> float:
        """Pool capacity in A100-equivalents (sizes the nominal rate)."""
        return float(sum(p.throughput_scale for p in self.profiles))

    def throughput_scales(self) -> tuple[float, ...]:
        """Per-device throughput scalars, canonical order."""
        return tuple(p.throughput_scale for p in self.profiles)

    def wake_energies_j(self) -> tuple[float, ...]:
        """Per-device wake transition energies, canonical order."""
        return tuple(p.wake_energy_j for p in self.profiles)

    def counts(self) -> dict[str, int]:
        """Device-name multiset, e.g. ``{"a100": 2, "l4": 2}``."""
        out: dict[str, int] = {}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def describe(self) -> str:
        """Human-readable mix, e.g. ``"2xa100+2xl4"``."""
        return "+".join(
            f"{count}x{name}" for name, count in sorted(self.counts().items())
        )


def parse_region_devices(spec: str) -> str | tuple[str, ...]:
    """Parse one region's device spec into :attr:`Region.devices` form.

    A single-name spec collapses to the bare name (broadcast to the
    region's GPU count); multi-entry specs stay an explicit per-GPU tuple
    whose length must match the region's ``n_gpus``.

    >>> parse_region_devices("l4")
    'l4'
    >>> parse_region_devices("a100:1,l4:1")
    ('a100', 'l4')
    """
    names = parse_devices(spec)
    return names[0] if len(names) == 1 else names


def parse_devices(spec: str) -> tuple[str, ...]:
    """Parse a CLI device-mix string into per-GPU profile names.

    Accepts a bare name (``"a100"`` — uniform, broadcast by the caller), a
    comma list (``"a100,l4"``), and counted entries (``"a100:2,l4:2"``).
    Names are validated against the registry.

    >>> parse_devices("a100:2,l4:2")
    ('a100', 'a100', 'l4', 'l4')
    >>> parse_devices("h100")
    ('h100',)
    """
    names: list[str] = []
    for part in spec.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if ":" in part:
            name, _, count_s = part.partition(":")
            try:
                count = int(count_s)
            except ValueError:
                raise ValueError(
                    f"bad device count in {part!r} (want name:count)"
                ) from None
            if count <= 0:
                raise ValueError(f"device count must be positive in {part!r}")
        else:
            name, count = part, 1
        profile_by_name(name)  # raises KeyError on an unknown name
        names.extend([name] * count)
    if not names:
        raise ValueError(f"no device names in {spec!r}")
    return tuple(names)
