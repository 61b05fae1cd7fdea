"""The five competing schemes."""

import numpy as np
import pytest

from repro.core.annealing import SAParams
from repro.core.config import base_config, co2opt_config
from repro.core.evaluator import ConfigEvaluator
from repro.core.objective import ObjectiveSpec
from repro.core.schemes import (
    SCHEME_NAMES,
    enumerate_standardized_configs,
    make_scheme,
)
from repro.serving.sla import SlaPolicy
from repro.serving.workload import default_rate
from repro.utils.rng import RngMixer


@pytest.fixture()
def ctx(zoo, perf):
    fam = zoo.family("efficientnet")
    n_gpus = 3
    rate = default_rate(fam, perf, n_gpus)
    evaluator = ConfigEvaluator(
        zoo=zoo, perf=perf, family=fam.name, rate_per_s=rate, n_gpus=n_gpus,
        method="analytic",
    )
    base_eval = evaluator.evaluate(base_config(fam, n_gpus))
    objective = ObjectiveSpec(
        lambda_weight=0.5,
        a_base=fam.base_accuracy,
        c_base=0.002,
        sla=SlaPolicy(p95_target_ms=base_eval.p95_ms),
    )
    return dict(
        zoo=zoo, family=fam.name, n_gpus=n_gpus, evaluator=evaluator,
        objective=objective,
    )


class TestFactory:
    def test_all_names_resolve(self, ctx):
        for name in SCHEME_NAMES:
            scheme = make_scheme(name, **ctx)
            assert scheme.name == name

    def test_unknown_name_raises(self, ctx):
        with pytest.raises(ValueError, match="valid"):
            make_scheme("zzz", **ctx)

    def test_reoptimization_flags(self, ctx):
        assert not make_scheme("base", **ctx).reoptimizes
        assert not make_scheme("co2opt", **ctx).reoptimizes
        assert make_scheme("blover", **ctx).reoptimizes
        assert make_scheme("clover", **ctx).reoptimizes
        assert make_scheme("oracle", **ctx).reoptimizes


class TestStaticSchemes:
    def test_base_deploys_base_config(self, ctx, zoo):
        scheme = make_scheme("base", **ctx)
        fam = zoo.family("efficientnet")
        out = scheme.optimize(250.0, None)
        assert out.deployed == base_config(fam, 3)
        assert out.virtual_cost_s > 0  # cold start
        assert out.evaluated == ()

    def test_base_second_call_free(self, ctx):
        scheme = make_scheme("base", **ctx)
        first = scheme.optimize(250.0, None)
        second = scheme.optimize(100.0, first.deployed)
        assert second.virtual_cost_s == 0.0
        assert second.deployed == first.deployed

    def test_co2opt_deploys_finest_smallest(self, ctx, zoo):
        scheme = make_scheme("co2opt", **ctx)
        fam = zoo.family("efficientnet")
        out = scheme.optimize(250.0, None)
        assert out.deployed == co2opt_config(fam, 3)


class TestSearchSchemes:
    @pytest.mark.parametrize("name", ["clover", "blover"])
    def test_deployment_meets_sla(self, ctx, name):
        scheme = make_scheme(name, **ctx, mixer=RngMixer(seed=0))
        out = scheme.optimize(250.0, None)
        ev = ctx["evaluator"].evaluate(out.deployed)
        assert ctx["objective"].sla.is_met(ev.p95_ms)

    def test_clover_warm_starts_from_last_best(self, ctx):
        scheme = make_scheme(
            "clover", **ctx, mixer=RngMixer(seed=0),
            sa_params=SAParams(max_evals=30),
        )
        out1 = scheme.optimize(250.0, None)
        out2 = scheme.optimize(240.0, out1.deployed)
        # Warm-started: the first candidate of invocation 2 is the previous
        # best, so it costs only the measurement window if unchanged.
        assert out2.evaluated[0].config == out1.deployed

    def test_clover_improves_objective_vs_base(self, ctx, zoo):
        """Never regresses below BASE; strictly improves for most seeds
        (a single invocation may legally terminate after 5 unlucky
        non-improving proposals)."""
        fam = zoo.family("efficientnet")
        base_ev = ctx["evaluator"].evaluate(base_config(fam, 3))
        base_f = ctx["objective"].f(
            base_ev.accuracy, base_ev.energy_per_request_j, 250.0
        )
        improved = 0
        for seed in range(3):
            scheme = make_scheme("clover", **ctx, mixer=RngMixer(seed=seed))
            out = scheme.optimize(250.0, None)
            ev = ctx["evaluator"].evaluate(out.deployed)
            f = ctx["objective"].f(ev.accuracy, ev.energy_per_request_j, 250.0)
            assert f >= base_f - 1e-9
            if f > base_f + 1e-9:
                improved += 1
        assert improved >= 2

    def test_blover_per_eval_cost_exceeds_clover(self, ctx):
        clover = make_scheme("clover", **ctx, mixer=RngMixer(seed=2))
        blover = make_scheme("blover", **ctx, mixer=RngMixer(seed=2))
        oc = clover.optimize(250.0, None)
        ob = blover.optimize(250.0, None)
        c_cost = oc.virtual_cost_s / max(1, oc.num_evaluations)
        b_cost = ob.virtual_cost_s / max(1, ob.num_evaluations)
        assert b_cost > c_cost

    @pytest.mark.parametrize("name", ["clover", "blover"])
    def test_reset_replays_a_fresh_scheme(self, ctx, name):
        scheme = make_scheme(
            name, **ctx, mixer=RngMixer(seed=4),
            sa_params=SAParams(max_evals=30),
        )
        first = [scheme.optimize(250.0, None)]
        first.append(scheme.optimize(240.0, first[0].deployed))
        scheme.reset()
        assert scheme.invocations == 0
        again = [scheme.optimize(250.0, None)]
        again.append(scheme.optimize(240.0, again[0].deployed))
        for a, b in zip(first, again):
            assert b.deployed == a.deployed
            assert [c.config for c in b.evaluated] == [
                c.config for c in a.evaluated
            ]

    def test_invocation_rngs_differ(self, ctx):
        """Two invocations at the same ci must not replay the same search."""
        scheme = make_scheme("clover", **ctx, mixer=RngMixer(seed=3))
        out1 = scheme.optimize(250.0, None)
        out2 = scheme.optimize(250.0, out1.deployed)
        assert scheme.invocations == 2
        # (Configurations may coincide; the eval traces should not, unless
        # the search immediately converges both times.)
        assert out1.num_evaluations >= 1 and out2.num_evaluations >= 1


class TestStandardizedEnumeration:
    def test_counts_for_single_slice_partitions(self, zoo, ctx):
        configs = enumerate_standardized_configs(zoo, "efficientnet", 2)
        # Partition 1 ({7g}) contributes exactly V=4 configs.
        from_p1 = [c for c in configs if c.partition_ids == (1, 1)]
        assert len(from_p1) == 4

    def test_multiset_counting_for_config19(self, zoo):
        configs = enumerate_standardized_configs(zoo, "efficientnet", 1)
        # All four EfficientNet variants fit 1g: C(4+7-1, 7) = 120 multisets.
        from_p19 = [c for c in configs if c.partition_ids == (19,)]
        assert len(from_p19) == 120

    def test_memory_mask_respected(self, zoo):
        configs = enumerate_standardized_configs(zoo, "albert", 1)
        for cfg in configs:
            cfg.validate_against(zoo)

    def test_all_gpus_identical(self, zoo):
        for cfg in enumerate_standardized_configs(zoo, "yolov5", 3):
            first = cfg.assignments[0]
            assert all(a == first for a in cfg.assignments)

    def test_no_duplicates(self, zoo):
        configs = enumerate_standardized_configs(zoo, "efficientnet", 1)
        assert len(set(configs)) == len(configs)


class TestOracle:
    def test_oracle_selects_sla_compliant_argmax(self, ctx):
        scheme = make_scheme("oracle", **ctx)
        out = scheme.optimize(250.0, None)
        assert out.virtual_cost_s == 0.0
        ev = ctx["evaluator"].evaluate(out.deployed)
        assert ctx["objective"].sla.is_met(ev.p95_ms)

    def test_oracle_dominates_clover(self, ctx):
        """ORACLE's objective at any ci is an upper bound for any scheme
        restricted to standardized configs — and in practice beats Clover's
        online search."""
        oracle = make_scheme("oracle", **ctx)
        clover = make_scheme("clover", **ctx, mixer=RngMixer(seed=4))
        ci = 250.0
        o = oracle.optimize(ci, None)
        c = clover.optimize(ci, None)
        f_of = lambda cfg: ctx["objective"].f(
            ctx["evaluator"].evaluate(cfg).accuracy,
            ctx["evaluator"].evaluate(cfg).energy_per_request_j,
            ci,
        )
        assert f_of(o.deployed) >= f_of(c.deployed) - 1e-9

    def test_oracle_adapts_to_intensity(self, ctx):
        """Low ci must not pick a lower-accuracy config than high ci."""
        scheme = make_scheme("oracle", **ctx)
        high = scheme.optimize(400.0, None)
        low = scheme.optimize(60.0, high.deployed)
        acc_high = ctx["evaluator"].evaluate(high.deployed).accuracy
        acc_low = ctx["evaluator"].evaluate(low.deployed).accuracy
        assert acc_low >= acc_high
