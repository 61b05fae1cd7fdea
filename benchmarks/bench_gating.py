"""Beyond the paper: elastic GPU capacity (power-gating) under demand.

Expected shape: with an always-on fleet, carbon-greedy routing beats the
static geo-DNS split by only the dynamic margin (~4%); once idle power
follows traffic, draining a dirty region also turns its idle draw off and
the same routing gap grows several-fold (the ISSUE-3 acceptance bar is
>= 2x).  The static split itself never drops a region low enough to gate —
gating and carbon-aware drain compound, neither works alone.  Reactive
wakes pay a latency window served at yesterday's capacity; forecast
pre-waking files the wake one epoch ahead from the router's lookahead
window and lands at equal-or-better user SLA for equal-or-lower carbon.
A gated fleet must never spend *more* energy than its always-on twin.
"""

from repro.analysis.experiments import gating_elasticity
from repro.analysis.reporting import render

from benchmarks.conftest import FIDELITY, SEED, once


def test_gating_elasticity(benchmark, runner):
    result = once(
        benchmark, gating_elasticity,
        runner=runner, fidelity=FIDELITY, seed=SEED,
    )
    print()
    print(render(result, title="Gating — elastic capacity comparison"))
    always_on_gap = result.saving_pct("always-on/greedy", "always-on/static")
    gated_gap = result.saving_pct("reactive/greedy", "reactive/static")
    growth = gated_gap / always_on_gap if always_on_gap > 0 else float("inf")
    print(
        f"\ncarbon-greedy-vs-static gap: {always_on_gap:.2f}% "
        f"always-on -> {gated_gap:.2f}% gated ({growth:.1f}x)"
    )

    runs = result.results
    carbon = {label: run.total_carbon_g for label, run in runs.items()}
    sla = {label: run.user_sla_attainment for label, run in runs.items()}

    # The tentpole acceptance: gating multiplies the routing gap >= 2x.
    assert always_on_gap > 0.0
    assert gated_gap >= 2.0 * always_on_gap

    # Gating never spends more energy than always-on, router by router.
    energy = {label: run.total_energy_j for label, run in runs.items()}
    assert energy["reactive/static"] <= energy["always-on/static"] * (1 + 1e-9)
    assert energy["reactive/greedy"] <= energy["always-on/greedy"] * (1 + 1e-9)

    # Idle power genuinely followed traffic for the carbon-aware policies.
    assert runs["reactive/greedy"].mean_awake_fraction < 1.0
    assert runs["prewake/forecast"].mean_awake_fraction < 1.0
    # ... but the static split had nothing to gate.
    assert runs["reactive/static"].mean_awake_fraction == 1.0

    # Forecast pre-wake beats reactive gating: user SLA no worse, carbon
    # no higher, and at least one of the two strictly better.
    assert sla["prewake/forecast"] >= sla["reactive/greedy"]
    assert carbon["prewake/forecast"] <= carbon["reactive/greedy"]
    assert (
        sla["prewake/forecast"] > sla["reactive/greedy"]
        or carbon["prewake/forecast"] < carbon["reactive/greedy"]
    )

    # Accuracy stays in the paper's loss band despite the gating.
    for run in runs.values():
        assert run.accuracy_loss_pct < 5.5
