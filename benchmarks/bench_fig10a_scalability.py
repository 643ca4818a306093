"""Figure 10a — reshaping time vs network size (K ∈ {2,4,8}).

The paper reports near-logarithmic growth, reaching 14.08 rounds at
51,200 nodes with K=8.  The sweep sizes come from the active preset;
REPRO_SCALE=paper sweeps up to the full 320×160 torus.  The grid runs
through the parallel runtime (REPRO_WORKERS processes), which is what
makes the paper-scale sweep tractable.
"""

import math

from repro.experiments import fig10
from repro.runtime.dispatch import ExecOptions


def test_fig10a_scalability(benchmark, preset, emit, workers, engine):
    result = benchmark.pedantic(
        fig10.run_fig10a,
        args=(preset,),
        kwargs={
            "repetitions": 1,
            "base_seed": 0,
            "options": ExecOptions(workers=workers, engine=engine),
        },
        rounds=1,
        iterations=1,
    )
    emit("fig10a", result.report, data={"cells": result.cells})

    # Growth must be sub-linear (consistent with the paper's
    # near-logarithmic curve): quadrupling the network must not double
    # the reshaping time, and everything converges.
    by_k = {}
    for cell in result.cells:
        assert not math.isnan(cell.reshaping.mean), cell
        assert cell.non_converged == 0
        by_k.setdefault(cell.label, []).append((cell.n_nodes, cell.reshaping.mean))
    for label, series in by_k.items():
        series.sort()
        smallest_n, smallest_t = series[0]
        largest_n, largest_t = series[-1]
        assert largest_n >= 4 * smallest_n  # the sweep really spans sizes
        size_ratio = largest_n / smallest_n
        # Clearly sub-linear growth: K=2/K=4 track the paper's
        # near-logarithmic curve; K=8 grows faster (more redundant
        # copies to de-duplicate) but still far below linear.
        time_ratio = largest_t / max(smallest_t, 2.0)
        assert time_ratio <= 0.75 * size_ratio, (label, series)
        assert largest_t <= 40.0, (label, series)
