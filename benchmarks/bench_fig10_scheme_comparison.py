"""Fig. 10: the scheme-comparison scatter (CO2OPT/BLOVER/CLOVER/ORACLE).

Paper shape: CO2OPT saves the most carbon with the worst accuracy; CLOVER
is the closest scheme to ORACLE; CLOVER beats BLOVER.
"""

import numpy as np

from repro.analysis.experiments import fig10_scheme_comparison
from repro.analysis.reporting import render

from benchmarks.conftest import FIDELITY, SEED, once


def test_fig10_scheme_comparison(benchmark, runner):
    result = once(
        benchmark, fig10_scheme_comparison,
        runner=runner, fidelity=FIDELITY, seed=SEED,
    )
    print()
    print(render(result, title="Fig. 10 — scheme comparison vs BASE (48 h)"))

    for app in result.applications:
        save = {s: result.carbon_save_pct[(app, s)] for s in result.schemes}
        gain = {s: result.accuracy_gain_pct[(app, s)] for s in result.schemes}

        # CO2OPT: most carbon saved, worst accuracy.
        assert save["co2opt"] >= max(save.values()) - 1.0
        assert gain["co2opt"] == min(gain.values())
        # CLOVER within 8 points of ORACLE's carbon saving (paper: ~5).
        assert save["oracle"] - save["clover"] < 8.0
        # CLOVER beats BLOVER on carbon while keeping accuracy no worse
        # than CO2OPT's floor.
        assert save["clover"] > save["blover"]
        assert gain["clover"] >= gain["co2opt"]
        # CLOVER is the closest scheme to ORACLE in the 2-D plane — except
        # for detection, where the Eq. 3 optimum sits at the CO2OPT corner
        # under our energy calibration (lambda=0.5 is carbon-dominated
        # there), making CO2OPT trivially closest.
        if app == "detection":
            assert result.closest_to_oracle(app) in ("clover", "co2opt")
        else:
            assert result.closest_to_oracle(app) == "clover"
