"""ScenarioSpec: one declarative, serializable description per experiment.

A :class:`ScenarioSpec` is the *entire* description of a fleet
experiment — topology, per-region devices **and schemes**, demand model,
routing policy, gating policy, fidelity and seed — as plain frozen
dataclasses of plain data.  Everything downstream (the
:class:`~repro.scenarios.scenario.Scenario` executor, the sweep expander,
the TOML/JSON serializers, the experiment registry and the CLI's ``run``
and ``sweep`` commands) consumes this one type, so a new scenario axis is
a new spec field instead of a new fork of the harness.

Specs are hashable (they memoize runs), comparable (experiment entries
are tested to build the expected specs) and strict: every field is
validated at construction against the same registries the fleet layer
uses, so a typo fails at spec time with the valid choices in the message,
not three layers deep in assembly.

>>> spec = ScenarioSpec(
...     regions=(
...         RegionSpec(name="nordic-hydro", scheme="co2opt"),
...         RegionSpec(name="us-ciso"),
...     ),
...     scheme="clover", n_gpus=2,
...     routing=RoutingSpec(router="carbon-greedy"),
... )
>>> spec.region_names
('nordic-hydro', 'us-ciso')
>>> spec.region_schemes  # per-region override falls back to the default
('co2opt', 'clover')
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.core.schemes import SCHEME_NAMES
from repro.core.service import PAPER_LAMBDA, PAPER_N_GPUS
from repro.fleet.coordinator import DEFAULT_DEMAND_SCALE
from repro.fleet.regions import REGION_NAMES
from repro.fleet.routing import ROUTER_NAMES
from repro.gpu.profiles import DEVICE_NAMES
from repro.models.families import APPLICATIONS

#: Applications the default model zoo serves (Table-1 registry).
APPLICATION_NAMES = tuple(sorted(APPLICATIONS))

__all__ = [
    "RegionSpec",
    "DemandSpec",
    "RoutingSpec",
    "GatingSpec",
    "BatchSpec",
    "ScenarioSpec",
    "FIDELITY_NAMES",
    "DEMAND_KINDS",
]

#: Fidelity profiles a spec may name (see FidelityProfile.by_name).
FIDELITY_NAMES = ("smoke", "default", "paper")

#: Demand-model kinds a spec may name (None = the constant PR-1 workload).
DEMAND_KINDS = ("constant", "diurnal")

#: Routers whose ranking carries the efficiency term (the only ones the
#: ``efficiency_weighted=False`` ablation applies to).
EFFICIENCY_ROUTERS = ("carbon-greedy", "forecast-aware")

#: Routers with a forecast horizon (the only ones ``lookahead_h`` applies to).
LOOKAHEAD_ROUTERS = ("forecast-aware",)


def _choice(label: str, value: str, valid: tuple[str, ...]) -> str:
    """Validate one registry-backed choice with the choices in the error."""
    if value not in valid:
        raise ValueError(
            f"unknown {label} {value!r}; valid: {', '.join(valid)}"
        )
    return value


@dataclass(frozen=True)
class RegionSpec:
    """One region of the fleet, with optional per-region overrides.

    Attributes
    ----------
    name:
        Fleet region registry key (``"us-ciso"``, ``"nordic-hydro"``, ...).
    n_gpus:
        Cluster size override; ``None`` inherits :attr:`ScenarioSpec.n_gpus`.
    devices:
        GPU generations: a profile name (every GPU that device), an
        explicit per-GPU tuple (mixed pools), or ``None`` for the implicit
        all-A100 fleet.
    scheme:
        Per-region optimization scheme override; ``None`` inherits
        :attr:`ScenarioSpec.scheme`.  This is what expresses mixed-scheme
        fleets (``co2opt`` where the grid is clean, ``clover`` where it is
        dirty).
    """

    name: str
    n_gpus: int | None = None
    devices: tuple[str, ...] | str | None = None
    scheme: str | None = None

    def __post_init__(self) -> None:
        _choice("region", self.name, REGION_NAMES)
        if self.n_gpus is not None and self.n_gpus <= 0:
            raise ValueError(
                f"region {self.name!r}: n_gpus must be positive, "
                f"got {self.n_gpus}"
            )
        if isinstance(self.devices, list):
            object.__setattr__(self, "devices", tuple(self.devices))
        if self.devices is not None:
            names = (
                (self.devices,)
                if isinstance(self.devices, str)
                else self.devices
            )
            for device in names:
                _choice("device", device, DEVICE_NAMES)
        if self.scheme is not None:
            _choice("scheme", self.scheme, SCHEME_NAMES)


@dataclass(frozen=True)
class DemandSpec:
    """The workload: constant global rate or geo-diurnal per-origin demand.

    ``kind=None`` is the constant PR-1 workload (the fleet's nominal
    sizing); ``"diurnal"`` switches to nonstationary geo-origin demand
    with per-(origin, region) SLA charging.  ``scale`` sizes the demand
    model's mean against the fleet's nominal rate; the ramp/drain shares
    bound per-hour traffic migration (``None`` = unconstrained).
    """

    kind: str | None = None
    scale: float = DEFAULT_DEMAND_SCALE
    ramp_share_per_h: float | None = None
    drain_share_per_h: float | None = None

    def __post_init__(self) -> None:
        if self.kind is not None:
            _choice("demand kind", self.kind, DEMAND_KINDS)
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(
                f"demand scale must be in (0, 1], got {self.scale}"
            )
        for label, value in (
            ("ramp", self.ramp_share_per_h),
            ("drain", self.drain_share_per_h),
        ):
            if value is not None and value <= 0.0:
                raise ValueError(
                    f"{label} share per hour must be positive, got {value}"
                )


@dataclass(frozen=True)
class RoutingSpec:
    """The traffic-splitting policy and its forecast knobs.

    ``lookahead_h`` overrides a forecast-aware router's horizon (an error
    on routers without one); ``efficiency_weighted=False`` downgrades the
    carbon-greedy / forecast-aware rankings to intensity-only (the
    heterogeneity ablation; an error on routers that never carry the
    energy term).
    """

    router: str = "static"
    lookahead_h: float | None = None
    forecaster: str = "diurnal"
    efficiency_weighted: bool = True

    def __post_init__(self) -> None:
        _choice("router", self.router, ROUTER_NAMES)
        # The default name is valid; checking it would load the forecast
        # module for a fleet that never forecasts.
        if self.forecaster != RoutingSpec.forecaster:
            from repro.carbon.forecast import FORECASTER_NAMES

            _choice("forecaster", self.forecaster, FORECASTER_NAMES)
        if self.lookahead_h is not None and self.lookahead_h < 0.0:
            raise ValueError(
                f"lookahead must be non-negative, got {self.lookahead_h}"
            )
        if (
            self.lookahead_h is not None
            and self.router not in LOOKAHEAD_ROUTERS
        ):
            raise ValueError(
                f"router {self.router!r} takes no lookahead horizon "
                f"(lookahead_h applies to: {', '.join(LOOKAHEAD_ROUTERS)})"
            )
        if not self.efficiency_weighted and self.router not in EFFICIENCY_ROUTERS:
            raise ValueError(
                f"router {self.router!r} has no intensity-only variant "
                f"(efficiency_weighted=False applies to: "
                f"{', '.join(EFFICIENCY_ROUTERS)})"
            )


@dataclass(frozen=True)
class GatingSpec:
    """Elastic GPU capacity: whether (and how) idle power follows traffic.

    ``mode=None`` keeps every GPU always on.  ``wake_energy_j`` overrides
    the per-device profile wake energies with one fleet-wide scalar
    (``None`` = each woken device owes its own profile's figure).
    """

    mode: str | None = None
    wake_energy_j: float | None = None

    def __post_init__(self) -> None:
        if self.mode is None and self.wake_energy_j is None:
            return  # always on: the gating layer never loads
        from repro.fleet.capacity import GATING_MODES

        if self.mode is not None:
            _choice("gating mode", self.mode, GATING_MODES)
        if self.wake_energy_j is not None:
            if self.mode is None:
                raise ValueError(
                    "wake_energy_j without a gating mode has no effect; "
                    f"set mode to one of: {', '.join(GATING_MODES)}"
                )
            if self.wake_energy_j < 0:
                raise ValueError(
                    f"wake energy must be non-negative, got {self.wake_energy_j}"
                )


@dataclass(frozen=True)
class BatchSpec:
    """Deferrable batch work riding along with the interactive traffic.

    ``jobs_per_h=None`` (the default) means no batch class — the scenario
    is the pure interactive pipeline, bit-for-bit.  Setting it enables the
    temporal scheduler; every other field refines the workload and
    inherits the :class:`~repro.shifting.BatchJobClass` default when left
    ``None`` (so an all-default ``[batch]`` block with only ``jobs_per_h``
    is a valid minimal scenario).
    """

    jobs_per_h: float | None = None
    requests_per_job: float | None = None
    deadline_h: float | None = None
    arrival: str | None = None
    preemptible: bool | None = None
    accuracy_floor_pct: float | None = None
    defer: bool | None = None

    def __post_init__(self) -> None:
        if self.jobs_per_h is None:
            set_fields = [
                name
                for name in (
                    "requests_per_job",
                    "deadline_h",
                    "arrival",
                    "preemptible",
                    "accuracy_floor_pct",
                    "defer",
                )
                if getattr(self, name) is not None
            ]
            if set_fields:
                raise ValueError(
                    f"batch {', '.join(set_fields)} without jobs_per_h has "
                    "no effect; set batch.jobs_per_h to enable the batch "
                    "workload"
                )
            return
        if self.jobs_per_h <= 0.0:
            raise ValueError(
                f"batch jobs per hour must be positive, got {self.jobs_per_h}"
            )
        if self.requests_per_job is not None and self.requests_per_job <= 0.0:
            raise ValueError(
                f"requests per job must be positive, got {self.requests_per_job}"
            )
        if self.deadline_h is not None and self.deadline_h <= 0.0:
            raise ValueError(
                f"batch deadline must be positive, got {self.deadline_h}"
            )
        if self.arrival is not None:
            from repro.shifting.batch import ARRIVAL_PROFILES

            _choice("arrival profile", self.arrival, ARRIVAL_PROFILES)
        if self.accuracy_floor_pct is not None and not (
            0.0 < self.accuracy_floor_pct <= 100.0
        ):
            raise ValueError(
                f"accuracy floor must be in (0, 100] %, got "
                f"{self.accuracy_floor_pct}"
            )

    @property
    def enabled(self) -> bool:
        return self.jobs_per_h is not None


@dataclass(frozen=True)
class ScenarioSpec:
    """The declarative front door: everything one fleet experiment needs.

    Attributes
    ----------
    regions:
        The fleet topology, in fleet order (at least one region).
    application, scheme:
        The served application and the fleet-default optimization scheme
        (regions may override their scheme individually).
    fidelity, seed:
        Simulation fidelity profile and the root RNG seed (region ``i``
        derives ``seed + i``, so reruns of an equal spec are bit-for-bit
        reproducible end to end).
    n_gpus, lambda_weight, duration_h:
        Default per-region cluster size, the Eq. 3 carbon-accuracy
        weight, and the simulated horizon (``None`` = the shortest
        regional trace).
    net_latency_ms:
        Override every region's registry network latency (the
        paper-faithful fig16 path pins 0.0); ``None`` keeps registry
        values.  Constant demand only: with a demand kind each region's
        latency is its nearest-origin hop.
    routing, demand, gating, batch:
        The composable sub-specs (``batch`` adds a deferrable workload
        the temporal scheduler shifts into clean epochs).
    shared_cache:
        Pool analytic evaluator caches across identical-hardware regions
        (results unchanged, warm-up cost drops); ``False`` opts out.
    parallel_regions:
        Step each epoch's regions through a thread pool of this many
        workers (``None``/1 = the serial driver; results identical).
    name:
        Optional human label (report titles); not part of the physics.
    """

    regions: tuple[RegionSpec, ...]
    application: str = "classification"
    scheme: str = "clover"
    fidelity: str = "default"
    seed: int = 0
    n_gpus: int = PAPER_N_GPUS
    lambda_weight: float = PAPER_LAMBDA
    duration_h: float | None = None
    net_latency_ms: float | None = None
    routing: RoutingSpec = field(default_factory=RoutingSpec)
    demand: DemandSpec = field(default_factory=DemandSpec)
    gating: GatingSpec = field(default_factory=GatingSpec)
    batch: BatchSpec = field(default_factory=BatchSpec)
    shared_cache: bool = True
    parallel_regions: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.regions, list):
            object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ValueError("a scenario needs at least one region")
        if not all(isinstance(r, RegionSpec) for r in self.regions):
            raise ValueError("regions must be RegionSpec entries")
        seen = set()
        for r in self.regions:
            if r.name in seen:
                raise ValueError(f"duplicate region {r.name!r} in scenario")
            seen.add(r.name)
        _choice("application", self.application, APPLICATION_NAMES)
        _choice("scheme", self.scheme, SCHEME_NAMES)
        _choice("fidelity", self.fidelity, FIDELITY_NAMES)
        if self.n_gpus <= 0:
            raise ValueError(f"n_gpus must be positive, got {self.n_gpus}")
        if self.duration_h is not None and self.duration_h <= 0.0:
            raise ValueError(
                f"duration must be positive, got {self.duration_h}"
            )
        if self.net_latency_ms is not None and self.net_latency_ms < 0.0:
            raise ValueError(
                f"network latency must be non-negative, got {self.net_latency_ms}"
            )
        if self.parallel_regions is not None and self.parallel_regions < 1:
            raise ValueError(
                f"parallel region workers must be >= 1, got {self.parallel_regions}"
            )
        # The ramp/drain migration limits bind constant-demand fleets
        # too, but the demand scale only sizes a demand *model*.
        if self.demand.kind is None and self.demand.scale != DemandSpec.scale:
            raise ValueError(
                "demand scale has no effect without a demand kind; set "
                f"kind to one of: {', '.join(DEMAND_KINDS)}"
            )
        # A demand model prices each region's hop from the origin latency
        # matrix, so a fleet-wide override would be silently discarded.
        if self.demand.kind is not None and self.net_latency_ms is not None:
            raise ValueError(
                "net_latency_ms has no effect with a demand kind: each "
                "region's latency is its nearest-origin hop; drop "
                "net_latency_ms or the demand kind"
            )

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #

    @property
    def region_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.regions)

    @property
    def region_schemes(self) -> tuple[str, ...]:
        """Each region's effective scheme (override or the fleet default)."""
        return tuple(r.scheme or self.scheme for r in self.regions)

    @property
    def is_mixed_scheme(self) -> bool:
        return len(set(self.region_schemes)) > 1

    @property
    def label(self) -> str:
        """A short human identifier for tables and log lines."""
        if self.name:
            return self.name
        schemes = list(dict.fromkeys(self.region_schemes))
        scheme = schemes[0] if len(schemes) == 1 else "+".join(schemes)
        return f"{self.routing.router}/{scheme}x{len(self.regions)}"

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """Clone with a different root seed (the CLI ``--seed`` thread)."""
        return replace(self, seed=seed)

    def with_fidelity(self, fidelity: str) -> "ScenarioSpec":
        """Clone at a different fidelity (the CLI ``--fidelity`` thread)."""
        return replace(self, fidelity=fidelity)

    def get(self, path: str):
        """Read the field a dotted :meth:`override` path addresses.

        The read counterpart of :meth:`override` — one place owns the
        path grammar, so sweep tables and overrides cannot drift.

        >>> spec = ScenarioSpec(regions=(RegionSpec(name="us-ciso"),))
        >>> spec.get("routing.router")
        'static'
        """
        head, _, rest = path.partition(".")
        self._check_path(head, rest)
        value = getattr(self, head)
        return getattr(value, rest) if rest else value

    def _check_path(self, head: str, rest: str) -> None:
        valid = {f.name for f in fields(self)}
        if head not in valid:
            raise ValueError(
                f"unknown scenario field {head!r}; valid: "
                f"{', '.join(sorted(valid))}"
            )
        if not rest:
            if head in ("routing", "demand", "gating", "batch", "regions"):
                raise ValueError(
                    f"field {head!r} is a sub-spec; address one of its "
                    f"fields (e.g. {head}.<field>) or pass a built value "
                    "via dataclasses.replace"
                )
            return
        sub_valid = {f.name for f in fields(getattr(self, head))}
        if rest not in sub_valid:
            raise ValueError(
                f"unknown field {rest!r} in {head!r}; valid: "
                f"{', '.join(sorted(sub_valid))}"
            )

    def override(self, path: str, value) -> "ScenarioSpec":
        """Clone with one dotted-path field replaced.

        ``path`` is a top-level field (``"seed"``) or a sub-spec field
        (``"routing.router"``, ``"gating.mode"``, ``"demand.kind"``).
        This is the primitive the sweep expander grids over.

        >>> spec = ScenarioSpec(regions=(RegionSpec(name="us-ciso"),))
        >>> spec.override("routing.router", "carbon-greedy").routing.router
        'carbon-greedy'
        >>> spec.override("seed", 3).seed
        3
        """
        head, _, rest = path.partition(".")
        self._check_path(head, rest)
        if not rest:
            return replace(self, **{head: value})
        sub = getattr(self, head)
        return replace(self, **{head: replace(sub, **{rest: value})})
