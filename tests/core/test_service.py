"""The public facade: assembly, baselines, fidelity profiles."""

import numpy as np
import pytest

from repro.core.service import (
    Baseline,
    CarbonAwareInferenceService,
    FidelityProfile,
    derive_baseline,
)
from repro.models.perf import PerfModel
from repro.models.zoo import default_zoo
from repro.serving.workload import default_rate


class TestFidelityProfile:
    def test_by_name(self):
        assert FidelityProfile.by_name("smoke").name == "smoke"
        assert FidelityProfile.by_name("DEFAULT").name == "default"
        assert FidelityProfile.by_name("paper").name == "paper"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="valid"):
            FidelityProfile.by_name("ludicrous")

    def test_fidelity_ordering(self):
        smoke = FidelityProfile.smoke()
        paper = FidelityProfile.paper()
        assert smoke.step_minutes > paper.step_minutes
        assert smoke.measure_des_requests < paper.measure_des_requests


class TestDeriveBaseline:
    def test_baseline_fields(self, zoo, perf):
        fam = zoo.family("efficientnet")
        rate = default_rate(fam, perf, 4)
        b = derive_baseline(
            zoo, perf, fam.name, 4, rate, ci_base=220.0,
            des_requests=4000, seed=0,
        )
        assert b.a_base == fam.base_accuracy
        assert b.sla.p95_target_ms > 0
        assert b.c_base_g_per_request > 0
        # C_base = carbon(E_base) at ci_base with PUE 1.5.
        assert b.c_base_g_per_request == pytest.approx(
            b.e_base_j_per_request / 3.6e6 * 1.5 * 220.0
        )

    def test_overloaded_baseline_raises(self, zoo, perf):
        fam = zoo.family("efficientnet")
        rate = default_rate(fam, perf, 10)
        with pytest.raises(ValueError, match="overloaded"):
            derive_baseline(
                zoo, perf, fam.name, 1, rate, ci_base=220.0,
                des_requests=1000, seed=0,
            )


class TestServiceCreate:
    def test_create_and_short_run(self):
        service = CarbonAwareInferenceService.create(
            application="classification", scheme="clover",
            fidelity="smoke", seed=0, n_gpus=2,
        )
        report = service.run(duration_h=4.0)
        assert report.scheme_name == "clover"
        assert report.total_requests > 0
        assert report.total_carbon_g > 0
        assert np.isfinite(report.p95_ms)

    def test_default_duration_is_trace_span(self):
        service = CarbonAwareInferenceService.create(
            application="classification", scheme="base",
            fidelity="smoke", seed=0, n_gpus=2,
        )
        report = service.run()
        assert report.duration_h == pytest.approx(48.0)

    def test_seeded_runs_are_reproducible(self):
        runs = []
        for _ in range(2):
            service = CarbonAwareInferenceService.create(
                application="classification", scheme="clover",
                fidelity="smoke", seed=7, n_gpus=2,
            )
            runs.append(service.run(duration_h=6.0))
        assert runs[0].total_carbon_g == pytest.approx(runs[1].total_carbon_g)
        assert runs[0].mean_accuracy == pytest.approx(runs[1].mean_accuracy)

    @pytest.mark.parametrize("scheme", ["clover", "blover"])
    def test_second_run_replays_the_first(self, scheme):
        """A built service's scheme forgets its RNG substream index and
        warm start at every run start, so run two replays run one."""
        service = CarbonAwareInferenceService.create(
            scheme=scheme, fidelity="smoke", seed=0, n_gpus=2
        )
        first = service.run(duration_h=12.0)
        second = service.run(duration_h=12.0)
        assert second.total_carbon_g == first.total_carbon_g
        assert second.epochs == first.epochs
        assert second.invocations == first.invocations

    def test_different_seeds_differ(self):
        reports = []
        for seed in (0, 1):
            service = CarbonAwareInferenceService.create(
                application="classification", scheme="clover",
                fidelity="smoke", seed=seed, n_gpus=2,
            )
            reports.append(service.run(duration_h=12.0))
        assert (
            reports[0].total_carbon_g != reports[1].total_carbon_g
            or reports[0].total_evaluations != reports[1].total_evaluations
        )

    def test_external_baseline_is_used(self, zoo, perf):
        fam = zoo.family("efficientnet")
        from repro.serving.sla import SlaPolicy

        pinned = Baseline(
            a_base=fam.base_accuracy,
            e_base_j_per_request=10.0,
            c_base_g_per_request=0.005,
            sla=SlaPolicy(p95_target_ms=123.0),
            ci_base=200.0,
        )
        service = CarbonAwareInferenceService.create(
            application="classification", scheme="base",
            fidelity="smoke", seed=0, n_gpus=2, baseline=pinned,
        )
        assert service.baseline.sla.p95_target_ms == 123.0
        assert service.controller.objective.sla.p95_target_ms == 123.0

    def test_bad_application_raises(self):
        with pytest.raises(KeyError):
            CarbonAwareInferenceService.create(application="speech")

    def test_bad_scheme_raises(self):
        with pytest.raises(ValueError):
            CarbonAwareInferenceService.create(scheme="wizard")
