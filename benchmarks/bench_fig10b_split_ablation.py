"""Figure 10b — impact of the SPLIT function on reshaping time (K=4).

The paper: at 51,200 nodes the PD heuristic alone is ~2.8× faster than
SPLIT_BASIC, PD+MD ~2.9×.  At any scale the ordering must hold at the
largest swept size: advanced ≤ basic, and basic degrades fastest.
"""

import math

from repro.experiments import fig10
from repro.runtime.dispatch import ExecOptions


def test_fig10b_split_functions(benchmark, preset, emit, workers):
    result = benchmark.pedantic(
        fig10.run_fig10b,
        args=(preset,),
        kwargs={
            "repetitions": 1,
            "base_seed": 0,
            "options": ExecOptions(workers=workers),
        },
        rounds=1,
        iterations=1,
    )
    emit("fig10b", result.report, data={"cells": result.cells})

    largest = max(cell.n_nodes for cell in result.cells)
    at_largest = {
        cell.label: cell.reshaping.mean
        for cell in result.cells
        if cell.n_nodes == largest
    }
    advanced = at_largest["split=advanced"]
    basic = at_largest["split=basic"]
    assert not math.isnan(advanced)
    # Advanced must not be slower than basic at the largest size; at
    # paper scale the gap approaches 2.9x.
    assert advanced <= basic + 0.5, at_largest
    benchmark.extra_info["basic_over_advanced"] = (
        basic / advanced if advanced else float("nan")
    )
