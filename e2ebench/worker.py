"""One benchmark repetition, run in a fresh process by ``run.py``.

Untraced: import ``repro``, parse the workload's scenario file, build the
coordinator (``setup_s`` ends here, measured from the launch time the
parent passes in), run it (``run_s``), then build and run an equal spec
again in the same process (``warm_run_s``).  A fixed calibration kernel
is timed right after set-up and after each run (``kernel_s``), so the
parent can tell how fast the host was running at the time.

Traced (``--spans PATH``): wrap every layer boundary, build and run once,
restore the originals and write the spans to ``PATH`` at exit.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import atexit
import heapq
import json
import resource
import sys
import time
from pathlib import Path


def machine_time() -> float:
    """Seconds a fixed interpreter-and-numpy kernel takes right now.

    A heap loop like the DES and small-array numpy calls like the p95
    solver, but none of the program's code: a change to the program
    cannot move it, while a host that is slower for a while slows it
    roughly as much as the runs next to it (the tracking is partial when
    the host's speed changes within one run).
    """
    import numpy as np

    t = time.perf_counter()
    heap = [0.0] * 8
    x = 0.5
    clock = 0.0
    for _ in range(160_000):
        x = (x * 3.9999) % 1.0
        clock += x * 1e-3
        free = heapq.heappop(heap)
        heapq.heappush(heap, (clock if clock > free else free) + 0.004)
    v = np.linspace(0.1, 1.0, 16)
    for _ in range(6000):
        v = np.exp(-np.abs(v)) * 0.5 + 0.5 * v
        float(np.dot(v, v))
    return time.perf_counter() - t


def _outputs(result, names) -> dict[str, float]:
    return {name: float(getattr(result, name)) for name in names}


def _counters(result) -> dict[str, int]:
    """Evaluations and evaluator cache counters summed over regions."""
    out = {"evaluations": 0}
    for r in result.results:
        out["evaluations"] += r.total_evaluations
        for prefix, stats in (("opt", r.opt_cache), ("measure", r.measure_cache)):
            for name in ("hits", "misses", "batched"):
                key = f"{prefix}_{name}"
                out[key] = out.get(key, 0) + (getattr(stats, name) if stats else 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    root = Path.cwd()

    import repro
    from repro.scenarios import Scenario, spec_from_toml

    if not Path(repro.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"repro imported from {repro.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2

    patcher = None
    if args.spans is not None:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder(f"{args.workload}-seed{args.seed}-{time.time_ns()}")
        atexit.register(recorder.dump, args.spans)
        patcher = layers.install(recorder)

    text = (root / workload.scenario).read_text()
    spec = spec_from_toml(text).with_fidelity(workload.fidelity).with_seed(args.seed)
    coordinator = Scenario(spec).build()
    setup_s = time.monotonic() - args.launch

    kernel_s = [machine_time()]
    t2 = time.perf_counter()
    result = coordinator.run(
        duration_h=spec.duration_h, parallel_regions=spec.parallel_regions
    )
    run_s = time.perf_counter() - t2
    kernel_s.append(machine_time())
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "kernel_s": kernel_s,
        "outputs": _outputs(result, workload.outputs),
        "counters": _counters(result),
    }

    if patcher is not None:
        patcher.restore()
        report["patches_left"] = patcher.active
    else:
        coordinator = Scenario(spec).build()
        t3 = time.perf_counter()
        warm = coordinator.run(
            duration_h=spec.duration_h, parallel_regions=spec.parallel_regions
        )
        report["warm_run_s"] = time.perf_counter() - t3
        kernel_s.append(machine_time())
        report["warm_outputs"] = _outputs(warm, workload.outputs)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
