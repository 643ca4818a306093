"""Table II — reshaping time and reliability vs K (mean ± 95% CI).

Paper values (80×40 torus, 25 runs): K=2 → 5.00 rounds / 87.73%;
K=4 → 6.96 / 96.88%; K=8 → 9.08 / 99.80%.  Reliability must track the
analytical model 1−0.5^(K+1); reshaping must be fast and slow down
with K (deduplication cost).
"""

from repro.experiments import table2
from repro.runtime.dispatch import ExecOptions


def test_table2_reshaping_and_reliability(benchmark, preset, emit, workers):
    repetitions = min(preset.repetitions, 5)
    result = benchmark.pedantic(
        table2.run_table2,
        args=(preset,),
        kwargs={
            "repetitions": repetitions,
            "base_seed": 0,
            "options": ExecOptions(workers=workers),
        },
        rounds=1,
        iterations=1,
    )
    emit("table2", result.report, data={"rows": result.rows})

    rows = {row.replication: row for row in result.rows}
    for k, row in rows.items():
        # Reliability within a few points of the analytical model.
        assert abs(row.reliability.mean - row.expected_reliability) < 6.0
        assert row.non_converged == 0
        assert row.reshaping.mean <= 20
        benchmark.extra_info[f"reshaping_K{k}"] = row.reshaping.mean
    # Ordering: more copies -> better reliability, slower reshaping.
    assert rows[2].reliability.mean < rows[8].reliability.mean
    assert rows[2].reshaping.mean <= rows[8].reshaping.mean + 0.5
