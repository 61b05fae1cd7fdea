"""ScenarioSpec construction, validation and serialization round-trips."""

import dataclasses

import pytest

from repro.fleet import ROUTER_NAMES, make_router
from repro.scenarios import (
    BatchSpec,
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    ScenarioSpec,
    spec_from_dict,
    spec_from_json,
    spec_from_toml,
    spec_to_dict,
    spec_to_json,
    spec_to_toml,
)
from repro.scenarios.spec import LOOKAHEAD_ROUTERS


def minimal(**overrides) -> ScenarioSpec:
    base = dict(regions=(RegionSpec(name="us-ciso"),))
    base.update(overrides)
    return ScenarioSpec(**base)


#: A spec exercising every serializable field kind: per-region overrides
#: (n_gpus, devices as str and tuple, scheme), all three sub-specs, floats,
#: bools and the optional label.
KITCHEN_SINK = ScenarioSpec(
    name="kitchen-sink",
    regions=(
        RegionSpec(name="us-ciso", scheme="co2opt", n_gpus=3),
        RegionSpec(name="uk-eso", devices="l4"),
        RegionSpec(name="apac-solar", devices=("a100", "l4")),
    ),
    application="classification",
    scheme="clover",
    fidelity="smoke",
    seed=7,
    n_gpus=2,
    lambda_weight=0.3,
    duration_h=12.0,
    net_latency_ms=12.5,
    routing=RoutingSpec(
        router="forecast-aware", lookahead_h=4.0, forecaster="persistence",
        efficiency_weighted=True,
    ),
    demand=DemandSpec(ramp_share_per_h=0.1, drain_share_per_h=0.2),
    gating=GatingSpec(mode="forecast", wake_energy_j=500.0),
    batch=BatchSpec(
        jobs_per_h=120.0, requests_per_job=50.0, deadline_h=6.0,
        arrival="business-hours", preemptible=False,
        accuracy_floor_pct=97.0, defer=True,
    ),
    parallel_regions=2,
)


class TestValidation:
    def test_minimal_defaults(self):
        spec = minimal()
        assert spec.region_names == ("us-ciso",)
        assert spec.region_schemes == ("clover",)
        assert not spec.is_mixed_scheme

    def test_needs_a_region(self):
        with pytest.raises(ValueError, match="at least one region"):
            ScenarioSpec(regions=())

    def test_unknown_region_lists_registry(self):
        with pytest.raises(ValueError, match="valid: .*us-ciso"):
            RegionSpec(name="atlantis")

    def test_unknown_scheme_listed(self):
        with pytest.raises(ValueError, match="valid: .*clover"):
            minimal(scheme="maximizer")
        with pytest.raises(ValueError, match="valid: .*clover"):
            RegionSpec(name="us-ciso", scheme="maximizer")

    def test_unknown_router_listed(self):
        with pytest.raises(ValueError, match="valid: .*carbon-greedy"):
            RoutingSpec(router="carrier-pigeon")

    def test_unknown_device_listed(self):
        with pytest.raises(ValueError, match="valid: .*a100"):
            RegionSpec(name="us-ciso", devices="tpu")

    def test_unknown_fidelity_listed(self):
        with pytest.raises(ValueError, match="valid: .*smoke"):
            minimal(fidelity="warp")

    def test_unknown_application_listed(self):
        with pytest.raises(ValueError, match="valid: .*classification"):
            minimal(application="astrology")

    def test_unknown_forecaster_listed(self):
        with pytest.raises(ValueError, match="valid: .*diurnal"):
            RoutingSpec(forecaster="diurnall")

    def test_default_forecaster_is_a_valid_name(self):
        """The default skips the name check, which would load the
        forecast module for fleets that never forecast."""
        from repro.carbon.forecast import FORECASTER_NAMES

        assert RoutingSpec.forecaster in FORECASTER_NAMES

    def test_duplicate_regions_rejected(self):
        with pytest.raises(ValueError, match="duplicate region"):
            ScenarioSpec(
                regions=(RegionSpec(name="us-ciso"), RegionSpec(name="us-ciso"))
            )

    def test_intensity_only_needs_efficiency_router(self):
        with pytest.raises(ValueError, match="intensity-only"):
            RoutingSpec(router="static", efficiency_weighted=False)

    def test_wake_energy_needs_gating_mode(self):
        with pytest.raises(ValueError, match="gating mode"):
            GatingSpec(wake_energy_j=100.0)

    def test_demand_scale_needs_demand_kind(self):
        with pytest.raises(ValueError, match="demand kind"):
            minimal(demand=DemandSpec(scale=0.5))

    def test_net_latency_rejected_with_demand_kind(self):
        """A demand model sets each region's hop from the origin matrix,
        so the override would be silently discarded."""
        with pytest.raises(ValueError, match="net_latency_ms has no effect"):
            minimal(net_latency_ms=25.0, demand=DemandSpec(kind="diurnal"))

    def test_lookahead_needs_a_router_with_a_horizon(self):
        with pytest.raises(ValueError, match="takes no lookahead horizon"):
            RoutingSpec(router="static", lookahead_h=4.0)
        with pytest.raises(ValueError, match="takes no lookahead horizon"):
            spec_from_toml(
                '[[regions]]\nname = "us-ciso"\n\n'
                '[routing]\nrouter = "carbon-greedy"\nlookahead_h = 4.0\n'
            )

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_lookahead_routers_are_those_with_a_horizon(self, router):
        assert (router in LOOKAHEAD_ROUTERS) == hasattr(
            make_router(router), "lookahead_h"
        )

    def test_ramp_allowed_without_demand_kind(self):
        """Migration limits bind constant-demand fleets too (PR-2 CLI)."""
        spec = minimal(demand=DemandSpec(ramp_share_per_h=0.1))
        assert spec.demand.ramp_share_per_h == 0.1

    def test_parallel_regions_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            minimal(parallel_regions=0)

    def test_specs_are_hashable_memo_keys(self):
        assert hash(minimal()) == hash(minimal())
        assert minimal() == minimal()
        assert minimal(seed=1) != minimal(seed=2)


class TestOverride:
    def test_top_level_override(self):
        assert minimal().override("seed", 9).seed == 9

    def test_nested_override(self):
        spec = minimal().override("gating.mode", "reactive")
        assert spec.gating.mode == "reactive"

    def test_unknown_path_actionable(self):
        with pytest.raises(ValueError, match="valid: .*routing"):
            minimal().override("routr.router", "static")
        with pytest.raises(ValueError, match="valid: .*router"):
            minimal().override("routing.routr", "static")

    def test_sub_spec_needs_dotted_path(self):
        with pytest.raises(ValueError, match="sub-spec"):
            minimal().override("routing", RoutingSpec())

    def test_override_still_validates(self):
        with pytest.raises(ValueError, match="valid:"):
            minimal().override("routing.router", "carrier-pigeon")


class TestRoundTrips:
    @pytest.mark.parametrize(
        "spec",
        [
            minimal(),
            KITCHEN_SINK,
            minimal(duration_h=24.0, net_latency_ms=0.0),
            minimal(demand=DemandSpec(kind="diurnal", scale=0.7)),
            minimal(
                regions=(
                    RegionSpec(name="nordic-hydro", scheme="co2opt"),
                    RegionSpec(name="us-ciso"),
                ),
                routing=RoutingSpec(router="carbon-greedy"),
            ),
        ],
        ids=[
            "minimal", "kitchen-sink", "zero-latency", "diurnal-demand",
            "mixed-scheme",
        ],
    )
    def test_toml_and_json_round_trip_identity(self, spec):
        assert spec_from_toml(spec_to_toml(spec)) == spec
        assert spec_from_json(spec_to_json(spec)) == spec
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_omitted_none_fields_default(self):
        """TOML has no null: None fields are omitted and default back."""
        data = spec_to_dict(minimal())
        assert "duration_h" not in data
        assert spec_from_dict(data).duration_h is None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key.*'bananas'"):
            spec_from_dict(
                {"regions": [{"name": "us-ciso"}], "bananas": 3}
            )

    def test_unknown_section_key_names_section(self):
        with pytest.raises(ValueError, match=r"\[routing\]"):
            spec_from_dict(
                {
                    "regions": [{"name": "us-ciso"}],
                    "routing": {"routr": "static"},
                }
            )

    def test_unknown_region_key_names_entry(self):
        with pytest.raises(ValueError, match=r"\[\[regions\]\] entry 1"):
            spec_from_dict(
                {
                    "regions": [
                        {"name": "us-ciso"},
                        {"name": "uk-eso", "gpus": 4},
                    ]
                }
            )

    def test_missing_regions_actionable(self):
        with pytest.raises(ValueError, match=r"\[\[regions\]\]"):
            spec_from_dict({"scheme": "clover"})

    def test_control_characters_in_name_round_trip(self):
        """The TOML emitter escapes control characters, so any name
        ScenarioSpec accepts survives a save/reload."""
        spec = minimal(name='a\nb\t"c"\\d\x01')
        assert spec_from_toml(spec_to_toml(spec)) == spec

    def test_typoed_section_error_lists_sections(self):
        with pytest.raises(ValueError, match="valid: .*routing"):
            spec_from_dict(
                {"regions": [{"name": "us-ciso"}], "routin": {"router": "x"}}
            )

    def test_toml_integers_coerce_to_float_fields(self):
        spec = spec_from_toml(
            "duration_h = 24\n\n[[regions]]\nname = \"us-ciso\"\n"
        )
        assert spec.duration_h == 24.0
        assert isinstance(spec.duration_h, float)

    def test_device_lists_become_tuples(self):
        spec = spec_from_dict(
            {"regions": [{"name": "us-ciso", "devices": ["a100", "l4"]}],
             "n_gpus": 2}
        )
        assert spec.regions[0].devices == ("a100", "l4")

    def test_round_trip_preserves_field_coverage(self):
        """Every ScenarioSpec field is either serialized or deliberately
        defaulted — a new field cannot silently drop out of the files."""
        data = spec_to_dict(KITCHEN_SINK)
        field_names = {f.name for f in dataclasses.fields(ScenarioSpec)}
        assert set(data) == field_names
