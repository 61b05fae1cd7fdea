"""The cheap experiments, checked against the paper's claims exactly;
the trace-driven ones run under smoke fidelity in the integration tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.experiments import (
    _CELLS,
    _paper_run,
    _ten_gpu_sizing,
    demand_routing,
    fig2_mixed_quality,
    fig3_partitioning,
    fig4_intensity_variation,
    fig6_selection_example,
    fig8_evaluation_traces,
    fleet_load_shifting,
    gating_elasticity,
    hetero_fleet,
    savings_estimate,
    table1,
    temporal_shifting,
)
from repro.analysis.runner import APPLICATIONS_UNDER_TEST, ExperimentRunner


class TestTable1:
    def test_eleven_variants_total(self):
        headers, rows = table1().table()
        assert len(rows) == 3 + 4 + 4
        assert headers[0] == "Application"

    def test_mentions_all_papers_models(self):
        _, rows = table1().table()
        names = {r[3] for r in rows}
        assert "YOLOv5x6" in names
        assert "ALBERT-v2-xxlarge" in names
        assert "EfficientNet-B7" in names


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_mixed_quality()

    def test_mixture_count_is_multisets_of_4(self, result):
        # C(4+4-1, 4) = 35 mixtures of 4 variants over 4 GPUs.
        assert len(result.mixtures) == 35

    def test_star_point_present(self, result):
        """The all-largest mixture is the (0, 1) anchor."""
        idx = result.mixtures.index((4, 4, 4, 4))
        assert result.carbon_reduction_pct[idx] == pytest.approx(0.0, abs=1e-9)
        assert result.accuracy_norm[idx] == pytest.approx(1.0)

    def test_paper_headline_over_60pct_at_5pct_loss(self, result):
        """'over 60% carbon footprint savings, while incurring less than 5%
        accuracy degradation'."""
        assert result.best_saving_within_loss(5.0) > 60.0

    def test_paper_headline_over_80pct_at_10pct_loss(self, result):
        """'more than 80% carbon savings for 10% accuracy loss'."""
        assert result.best_saving_within_loss(10.0) > 80.0

    def test_savings_monotone_in_allowed_loss(self, result):
        assert (
            result.best_saving_within_loss(10.0)
            >= result.best_saving_within_loss(5.0)
            >= result.best_saving_within_loss(1.0)
        )

    def test_pareto_frontier_is_monotone(self, result):
        frontier = result.pareto_points()
        savings = [c for c, _ in frontier]
        accs = [a for _, a in frontier]
        assert savings == sorted(savings)
        assert accs == sorted(accs, reverse=True)


class TestFig3:
    @pytest.mark.parametrize(
        "application", ["detection", "language", "classification"]
    )
    def test_partitioning_saves_carbon_but_hurts_latency(self, application):
        """The paper's Fig. 3 shape: C3 cuts carbon vs C1 while raising
        per-request latency; C2 sits in between."""
        r = fig3_partitioning(application)
        c1, c2, c3 = r.carbon_norm
        l1, l2, l3 = r.latency_norm
        assert c3 < c2 < c1 == 1.0
        assert l3 > l2 > l1 == 1.0

    def test_carbon_reduction_magnitude(self):
        """'we can reduce the carbon footprint by 30%' — C3 lands in the
        20-40% band in our calibration."""
        r = fig3_partitioning("classification")
        assert 0.60 <= r.carbon_norm[2] <= 0.80

    def test_explicit_variant_override(self, zoo):
        r = fig3_partitioning("classification", variant_ordinal=1)
        assert r.variant_name == "EfficientNet-B1"


class TestFig4AndFig8:
    def test_fig4_produces_four_14day_traces(self):
        r = fig4_intensity_variation(days=14.0)
        assert len(r.traces) == 4
        for tr in r.traces:
            assert tr.span_h == pytest.approx(14 * 24.0)

    def test_fig4_big_intraday_swings(self):
        """'carbon intensity can vary by more than 200 gCO2/kWh within half
        a day'."""
        r = fig4_intensity_variation(days=14.0)
        assert max(s.max_half_day_swing for s in r.stats) > 200.0

    def test_fig4_regions_differ(self):
        r = fig4_intensity_variation(days=14.0)
        names = {s.name for s in r.stats}
        assert len(names) == 4

    def test_fig8_three_evaluation_traces(self):
        r = fig8_evaluation_traces()
        assert len(r.traces) == 3
        headers, rows = r.table()
        assert len(rows) == 3


class TestFig6:
    def test_preference_flip(self):
        r = fig6_selection_example()
        assert r.preferred[500.0] == "A"
        assert r.preferred[100.0] == "B"

    def test_table_contains_computed_objectives(self):
        _, rows = fig6_selection_example().table()
        cells = {row[5] for row in rows}
        assert {"4.4", "2.2", "6.0", "7.0"} <= cells


class TestFig15:
    @pytest.mark.parametrize("application", APPLICATIONS_UNDER_TEST)
    def test_fewer_gpus_chase_the_ten_gpu_base_baseline(self, application):
        """The baseline pinned on the fewer-GPU runs is the one the
        10-GPU BASE run measures: same SLA target, same C_base."""
        _, baseline = _ten_gpu_sizing(application, "smoke", 0)
        base10 = _paper_run(
            ExperimentRunner(), application, "base", "smoke", 0,
            duration_h=12.0,
        )
        assert baseline.sla.p95_target_ms == base10.sla_target_ms
        assert baseline.c_base_g_per_request == base10.c_base


class TestDemandRouting:
    """A short smoke-sized run of the demand ladder; the full 48 h
    acceptance ordering is pinned in tests/fleet/test_demand_fleet.py and
    benchmarks/bench_demand_routing.py."""

    @pytest.fixture(scope="class")
    def result(self):
        ladder = replace(
            demand_routing,
            base=replace(demand_routing.base, duration_h=24.0),
        )
        return ladder(fidelity="smoke", seed=0)

    def test_static_is_the_zero_of_the_save_column(self, result):
        headers, rows = result.table()
        save = headers.index("SaveVsStatic%")
        assert rows[0][0] == "static"
        assert rows[0][save] == "0.00"

    def test_carbon_routers_save_vs_static(self, result):
        assert result.saving_pct("carbon-greedy", "static") > 0.0
        assert result.saving_pct("forecast-aware", "static") > 0.0

    def test_origin_shares_cover_the_world(self, result):
        static = result.results["static"]
        assert set(static.origin_names) == set(static.origin_request_shares)
        assert sum(static.origin_request_shares.values()) == pytest.approx(1.0)

    def test_table_renders_one_row_per_router(self, result):
        headers, rows = result.table()
        assert len(rows) == len(result.results)
        assert "UserSLA%" in headers
        assert len(headers) == len(rows[0])


class TestLadder:
    """The one table every fleet ladder renders through."""

    @pytest.mark.parametrize(
        "ladder",
        [
            fleet_load_shifting,
            demand_routing,
            gating_elasticity,
            hetero_fleet,
            temporal_shifting,
        ],
        ids=["fleet", "demand", "gating", "hetero", "shifting"],
    )
    def test_every_column_and_footer_row_exists(self, ladder):
        assert set(ladder.columns) <= set(_CELLS)
        if ladder.footer is not None:
            _, _, pairs = ladder.footer
            assert {label for pair in pairs for label in pair} <= set(
                ladder.rows
            )

    @pytest.fixture(scope="class")
    def shifting(self):
        ladder = replace(
            temporal_shifting,
            base=replace(temporal_shifting.base, duration_h=12.0),
            rows={
                k: temporal_shifting.rows[k]
                for k in ("no-batch", "spatial-only", "joint")
            },
        )
        return ladder(fidelity="smoke", seed=0)

    def test_batch_cells_are_dashes_only_without_batch(self, shifting):
        headers, rows = shifting.table()
        batch = [
            headers.index(h)
            for h in ("BatchReq", "BatchOnTime%", "Batch g/req", "Shift(h)")
        ]
        by_label = {row[0]: row for row in rows}
        assert [by_label["no-batch"][i] for i in batch] == ["-"] * 4
        assert "-" not in [by_label["joint"][i] for i in batch]

    def test_footer_formats_the_saving_of_its_pair(self, shifting):
        headers, rows = shifting.table()
        saving = shifting.saving_pct("joint", "spatial-only")
        assert rows[-1] == (
            "joint vs spatial",
            f"{saving:.2f}% saved",
            *["-"] * (len(headers) - 2),
        )
