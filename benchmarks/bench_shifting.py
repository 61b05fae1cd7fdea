"""Beyond the paper: temporal load shifting of deferrable batch work.

Expected shape: admitting the batch the epoch it arrives (spatial-only)
already prices it into the cleanest region with leftover capacity, but
the temporal scheduler can do better — holding lots until the forecast
says the window is clean drops *fleet* carbon below spatial-only at the
same 100% deadline attainment and no interactive SLA loss (the ISSUE-10
acceptance bar).  The gated pair is the interplay headline: reactive
gating sleeps GPUs through demand valleys, and the scheduler's hold
hints keep them awake exactly where the backlog needs the clean window —
batch keeps the fleet awake, but *clean*.
"""

import numpy as np

from repro.analysis.experiments import temporal_shifting
from repro.analysis.reporting import render

from benchmarks.conftest import FIDELITY, SEED, once, strict


def test_temporal_shifting(benchmark, runner):
    result = once(
        benchmark, temporal_shifting,
        runner=runner, fidelity=FIDELITY, seed=SEED,
    )
    print()
    print(render(result, title="Shifting — spatial vs temporal vs joint"))
    joint_saving = result.saving_pct("joint", "spatial-only")
    print(f"\njoint vs spatial-only: {joint_saving:.2f}% fleet carbon saved")

    runs = result.results
    carbon = {label: run.total_carbon_g for label, run in runs.items()}
    sla = {label: run.sla_attainment for label, run in runs.items()}
    awake = {label: run.mean_awake_fraction for label, run in runs.items()}
    # Deadline attainment of every row that ran batch and decided a lot.
    decided = [
        run.batch_deadline_attainment
        for run in runs.values()
        if run.has_batch and np.isfinite(run.batch_deadline_attainment)
    ]

    # The tentpole acceptance: shifting *when* beats admit-on-arrival at
    # the same spatial router, with every deadline met and no SLA loss.
    assert carbon["joint"] <= carbon["spatial-only"]
    assert decided and min(decided) == 1.0
    assert sla["joint"] >= sla["no-batch"] - 1e-12

    # Deferring genuinely moved work in time for the deferred rows.
    assert runs["spatial-only"].mean_shift_h == 0.0
    assert runs["joint"].mean_shift_h > 0.0

    # The batch is never free: every batch row costs more fleet carbon
    # than serving no batch at all on the same fleet.
    for label in ("spatial-only", "temporal-only", "joint"):
        assert carbon[label] >= carbon["no-batch"]

    # Gating interplay: the gated fleet sleeps through demand valleys
    # without batch, and the scheduler's hold hints keep GPUs awake when
    # the backlog needs them.
    assert awake["gated no-batch"] < 1.0
    assert awake["joint+gating"] >= awake["gated no-batch"]
    assert np.isfinite(runs["joint+gating"].batch_deadline_attainment)

    if strict():
        # Calibrated at default fidelity: the temporal lever is worth a
        # measurable fraction on top of the spatial one, and the
        # scheduler's per-request batch carbon beats admit-on-arrival.
        assert joint_saving > 0.5
        assert (
            runs["joint"].batch_carbon_g_per_request
            < runs["spatial-only"].batch_carbon_g_per_request
        )

    # Accuracy stays in the paper's loss band despite the batch load.
    for run in runs.values():
        assert run.accuracy_loss_pct < 5.5
