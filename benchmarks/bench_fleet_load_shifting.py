"""Beyond the paper: multi-region carbon-aware load shifting.

Expected shape: the carbon-greedy router beats the static capacity split
on total fleet carbon by shifting request share toward the cleanest grid
(the Nordic hydro region), while global SLA attainment — measured against
network-latency-tightened targets — stays at or above the static baseline.
"""

from repro.analysis.experiments import fleet_load_shifting
from repro.analysis.reporting import render

from benchmarks.conftest import FIDELITY, SEED, once, strict


def test_fleet_load_shifting(benchmark, runner):
    result = once(
        benchmark, fleet_load_shifting,
        runner=runner, fidelity=FIDELITY, seed=SEED,
    )
    print()
    print(render(result, title="Fleet — routing-policy comparison (3 regions)"))

    runs = result.results
    static = runs["static"].total_carbon_g
    greedy = runs["carbon-greedy"].total_carbon_g
    assert greedy < static
    assert result.saving_pct("carbon-greedy", "static") > 1.0
    assert (
        runs["carbon-greedy"].sla_attainment
        >= runs["static"].sla_attainment
    )
    # The shift is real: the clean region carries more than its static share
    # (at smoke fidelity the coarse epochs can leave the shares tied).
    if strict():
        assert (
            runs["carbon-greedy"].request_shares["nordic-hydro"]
            > runs["static"].request_shares["nordic-hydro"]
        )
    # Accuracy stays in the paper's loss band despite the routing.
    for run in runs.values():
        assert run.accuracy_loss_pct < 5.5
