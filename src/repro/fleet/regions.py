"""Region: one datacenter location in a multi-region serving fleet.

A region bundles everything that makes a location distinct for carbon-aware
routing: its grid carbon-intensity trace (built on the calibrated profiles
of :mod:`repro.carbon.generator`), its datacenter PUE, the network latency
users pay to reach it, and its GPU count.  The built-in registry covers the
paper's evaluation grids (so a 1-region fleet over ``"us-ciso"`` sees the
*identical* trace the single-cluster experiments use) plus a hydro-dominated
Nordic region that gives the carbon-greedy router a clean target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.carbon.accounting import DEFAULT_PUE
from repro.carbon.generator import (
    APAC_COAL_SOLAR,
    CISO_MARCH,
    CISO_SEPTEMBER,
    ESO_MARCH,
    GridProfile,
    NORDIC_HYDRO,
    generate_trace,
)
from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.traces import (
    ciso_march_48h,
    ciso_september_48h,
    eso_march_48h,
)
from repro.core.service import PAPER_N_GPUS
from repro.gpu.profiles import DevicePool, profile_by_name

__all__ = [
    "Region",
    "REGION_NAMES",
    "region_by_name",
    "default_fleet_regions",
]


@dataclass(frozen=True)
class Region:
    """One fleet location: grid signal plus datacenter/network properties.

    Attributes
    ----------
    name:
        Registry key (``"us-ciso"``) — also labels per-region reports.
    trace:
        The region's grid carbon-intensity series (gCO2/kWh over hours).
    pue:
        Datacenter power-usage effectiveness; multiplies IT energy.
    net_latency_ms:
        One-way-equivalent network latency users pay to reach the region;
        added on top of the service p95 when checking the SLA.  In
        demand-model fleets this scalar is derived from the origin→region
        latency matrix (the region's nearest-origin hop; farther origins'
        extra latency is charged per pair).
    n_gpus:
        GPUs provisioned in the region's cluster.  Must be positive — a
        region with no hardware can serve nothing and is a configuration
        error, not a degenerate fleet.
    zone:
        Coarse geographic zone (``"na"``, ``"eu"``, ``"apac"``) used by the
        demand layer to price origin→region network latency.
    devices:
        The region's GPU generations: a registry profile name (``"l4"`` —
        every GPU is that device), an explicit per-GPU tuple of names
        (``("a100", "a100", "l4")`` — mixed fleets are allowed; its length
        must equal ``n_gpus``), or ``None`` for the implicit all-A100
        fleet, which keeps the pre-heterogeneity code path bit for bit.
    """

    name: str
    trace: CarbonIntensityTrace
    pue: float = DEFAULT_PUE
    net_latency_ms: float = 0.0
    n_gpus: int = PAPER_N_GPUS
    zone: str = "na"
    devices: tuple[str, ...] | str | None = None

    def __post_init__(self) -> None:
        if self.pue < 1.0:
            raise ValueError(f"PUE cannot be below 1.0, got {self.pue}")
        if self.net_latency_ms < 0:
            raise ValueError(
                f"network latency must be non-negative, got {self.net_latency_ms}"
            )
        if self.n_gpus <= 0:
            raise ValueError(f"n_gpus must be positive, got {self.n_gpus}")
        # Validate the device mix eagerly: an unknown profile name or a
        # count that disagrees with n_gpus must fail at construction, not
        # deep inside fleet assembly.
        for name in self.device_names:
            profile_by_name(name)

    @property
    def device_names(self) -> tuple[str, ...]:
        """Per-GPU profile names (the implicit fleet is all ``"a100"``)."""
        if self.devices is None:
            return ("a100",) * self.n_gpus
        if isinstance(self.devices, str):
            return (self.devices.lower(),) * self.n_gpus
        if len(self.devices) != self.n_gpus:
            raise ValueError(
                f"region {self.name!r} declares {self.n_gpus} GPUs but "
                f"{len(self.devices)} device entries: {self.devices}"
            )
        return tuple(d.lower() for d in self.devices)

    def device_pool(self) -> DevicePool:
        """The region's GPU fleet as a canonically-ordered device pool."""
        return DevicePool.of(self.device_names)

    def with_gpus(self, n_gpus: int) -> "Region":
        """Clone with a different cluster size (experiment convenience).

        A uniform device mix resizes with the cluster; an explicit mixed
        tuple cannot be resized implicitly — use :meth:`with_devices`.
        """
        devices = self.devices
        if isinstance(devices, tuple):
            if len(set(devices)) == 1:
                devices = devices[0]
            else:
                raise ValueError(
                    f"region {self.name!r} has an explicit mixed device "
                    "fleet; resize it with with_devices(...) instead"
                )
        return replace(self, n_gpus=n_gpus, devices=devices)

    def with_devices(self, devices: tuple[str, ...] | str) -> "Region":
        """Clone with a new device mix (n_gpus follows an explicit tuple)."""
        n_gpus = len(devices) if isinstance(devices, tuple) else self.n_gpus
        return replace(self, n_gpus=n_gpus, devices=devices)


#: Registry rows: profile or trace factory, PUE, network latency, trace seed.
#: The three paper grids reuse the exact embedded evaluation traces so an
#: N=1 fleet reproduces the single-cluster experiments bit-for-bit.
_TRACE_FACTORIES = {
    "us-ciso": ciso_march_48h,
    "us-ciso-sept": ciso_september_48h,
    "uk-eso": eso_march_48h,
}

_REGION_SPECS: dict[str, tuple[GridProfile | None, float, float, str]] = {
    # name: (profile or None if embedded, pue, net latency ms, zone)
    "us-ciso": (CISO_MARCH, 1.5, 8.0, "na"),
    "us-ciso-sept": (CISO_SEPTEMBER, 1.5, 8.0, "na"),
    "uk-eso": (ESO_MARCH, 1.4, 18.0, "eu"),
    "nordic-hydro": (NORDIC_HYDRO, 1.1, 28.0, "eu"),
    "apac-solar": (APAC_COAL_SOLAR, 1.6, 35.0, "apac"),
}

#: Deterministic trace seed for registry regions without an embedded trace.
_SYNTH_SEEDS = {"nordic-hydro": 20210322, "apac-solar": 20230115}

REGION_NAMES = tuple(sorted(_REGION_SPECS))


def region_by_name(
    name: str,
    n_gpus: int = PAPER_N_GPUS,
    devices: tuple[str, ...] | str | None = None,
) -> Region:
    """Build a registry region (``"us-ciso"``, ``"uk-eso"``, ...).

    ``devices`` optionally assigns the region's GPU generations — a
    profile name for a uniform fleet or a per-GPU tuple for a mixed one
    (see :attr:`Region.devices`).
    """
    key = name.lower()
    try:
        profile, pue, latency, zone = _REGION_SPECS[key]
    except KeyError:
        valid = ", ".join(REGION_NAMES)
        raise KeyError(f"unknown region {name!r}; valid: {valid}") from None
    if key in _TRACE_FACTORIES:
        trace = _TRACE_FACTORIES[key]()
    else:
        trace = generate_trace(
            profile, days=2.0, step_h=1.0, rng=_SYNTH_SEEDS[key]
        )
    return Region(
        name=key, trace=trace, pue=pue, net_latency_ms=latency, n_gpus=n_gpus,
        zone=zone, devices=devices,
    )


def default_fleet_regions(n_gpus: int = PAPER_N_GPUS) -> tuple[Region, ...]:
    """The standard 3-region fleet: dirty solar, volatile wind, clean hydro."""
    return tuple(
        region_by_name(name, n_gpus=n_gpus)
        for name in ("us-ciso", "uk-eso", "nordic-hydro")
    )
