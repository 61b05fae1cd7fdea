"""Beyond the paper: geo-diurnal demand with forecast-driven routing.

Expected shape: under nonstationary per-origin demand with session-drain
inertia and per-(origin, region) SLA charging, the carbon-greedy router
beats the static geo-DNS split on total fleet carbon, and the
forecast-aware router matches or beats carbon-greedy by pre-positioning
share ahead of predicted intensity-trough edges — both at equal-or-better
user SLA attainment than static.  The forecast margin over myopic greedy
is structurally modest while the GPU fleet is always-on (idle power does
not follow traffic); see the ROADMAP's power-gating follow-up.
"""

from repro.analysis.experiments import demand_routing
from repro.analysis.reporting import render

from benchmarks.conftest import FIDELITY, SEED, once


def test_demand_routing(benchmark, runner):
    result = once(
        benchmark, demand_routing,
        runner=runner, fidelity=FIDELITY, seed=SEED,
    )
    print()
    print(render(result, title="Demand — geo-diurnal routing comparison"))

    runs = result.results
    static = runs["static"].total_carbon_g
    greedy = runs["carbon-greedy"].total_carbon_g
    forecast = runs["forecast-aware"].total_carbon_g
    # The acceptance ordering: static > greedy >= forecast-aware.
    assert greedy < static
    assert forecast <= greedy
    assert result.saving_pct("carbon-greedy", "static") > 2.0
    # Pair-aware carbon routing keeps the user SLA at or above the
    # pair-blind static baseline.
    for router in ("carbon-greedy", "forecast-aware"):
        assert (
            runs[router].user_sla_attainment
            >= runs["static"].user_sla_attainment
        )
    # The shift is real: the dirty APAC grid sheds share.
    assert (
        runs["carbon-greedy"].request_shares["apac-solar"]
        < runs["static"].request_shares["apac-solar"]
    )
    # Accuracy stays in the paper's loss band despite the routing.
    for run in runs.values():
        assert run.accuracy_loss_pct < 5.5
