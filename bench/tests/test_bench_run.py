"""The benchmark measured on itself, at a size that runs in seconds.

Run with ``python -m pytest bench/tests -q`` (tier-1's ``testpaths``
does not reach here).  Every run goes through the same parent/child
path as the real workloads; only the ``Workload`` values are smaller.
"""

import json
import re

import pytest

import run
from workloads import ALL_METRICS, WORKLOADS, Workload, nominal_node_rounds

SMALL = dict(width=16, height=8, metrics=ALL_METRICS,
             failure_round=4, reinjection_round=8, total_rounds=12)
SMALL_BATCH = Workload("small-batch-16x8", "sim", "test", dict(SMALL, engine="batch"))
SMALL_EVENT = Workload("small-event-16x8", "sim", "test", dict(SMALL, engine="event"))
NO_EXPECTED = {"seed": None, "workloads": {}}
#: A child record as ``check_outputs`` reads it, for the pure checks.
FAKE_REPEAT = {"attempted": 1, "failed": 0, "failures": [], "semantics_version": 2,
               "reliability": 0.96, "reshaping_rounds": 5, "node_rounds": 1152, "msgs": {}}


def summary_of(workload, trace):
    (session,) = run.run_sessions([workload], 1, 0, trace, run.environment())
    return run.summarize(session, NO_EXPECTED), session


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


@pytest.fixture(scope="module")
def batch():
    return summary_of(SMALL_BATCH, "all")


@pytest.fixture(scope="module")
def event():
    return summary_of(SMALL_EVENT, "1")


@pytest.fixture(scope="module")
def gate():
    return summary_of(WORKLOADS["gate-smoke-batch"], "1")


def test_every_contract_metric_is_emitted_with_its_unit(contract, batch):
    summary, _ = batch
    metrics = run.contract_metrics(summary, contract, "all")
    named = contract["end_to_end"] + contract["per_layer"]
    assert list(metrics) == [spec["name"] for spec in named]
    for spec in named:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", spec["name"])
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert isinstance(metrics[spec["name"]]["value"], (int, float))
    for spec in contract["end_to_end"]:
        assert metrics[spec["name"]]["value"] > 0


def test_each_per_layer_metric_comes_from_some_workload(contract, batch, event, gate):
    produced = set()
    for summary, _ in (batch, event, gate):
        assert summary["failed"] == 0, summary["notes"]
        produced |= set(summary["per_layer"])
    assert produced == {spec["name"] for spec in contract["per_layer"]}


def test_layers_a_workload_never_enters_read_zero(contract, batch, event):
    assert not any(k.startswith("sim.batch.") for k in event[0]["per_layer"])
    idle = ("gossip.", "core.", "eval.", "runtime.checkpoint.", "runtime.forksweep.")
    assert not any(k.startswith(idle) for k in batch[0]["per_layer"])
    metrics = run.contract_metrics(event[0], contract, "1")
    assert metrics["sim.batch.topology.step_s"] == {"value": 0, "unit": "s"}
    assert metrics["gossip.tman.step_s"]["value"] > 0


def test_gate_runs_every_claim_and_forks_every_cell(gate):
    layers = gate[0]["per_layer"]
    assert layers["eval.claims_passed"] == layers["eval.claims_total"] == 11
    assert layers["runtime.forksweep.cells_forked"] == layers["eval.runner.executed"]
    assert layers["runtime.forksweep.cells_cold"] == 0
    assert layers["runtime.checkpoint.bytes"] > 0


def test_traced_and_untraced_digests_agree(batch):
    summary, session = batch
    assert summary["failed"] == 0, summary["notes"]
    digests = {r["digest"] for r in session.repeats if r["digest"]}
    assert digests == {session.traced["digest"]}


def test_spans_account_for_the_round_wall(batch):
    summary, session = batch
    with (run.OUT_DIR / f"trace-{SMALL_BATCH.name}.json").open() as fh:
        trace = json.load(fh)
    assert trace["otherData"]["environment"]["nproc"]
    total = {}
    for event in trace["traceEvents"]:
        total[event["name"]] = total.get(event["name"], 0.0) + event["dur"] / 1e6
    layers = summary["per_layer"]
    stepped = sum(layers[f"sim.batch.{m}.step_s"] for m in ("rps", "topology", "protocol"))
    observed = total["sim.observers.recorder"] + total["sim.observers.snapshotter"]
    wall = sum(session.traced["round_s"])
    assert stepped + observed + layers["engine.self_s"] == pytest.approx(wall, rel=0.01)
    assert layers["phase.converge_s"] + layers["phase.repair_s"] + layers[
        "phase.reinject_s"] == pytest.approx(total["engine.round"])
    # Span-derived message counts are the meter's own, exactly.
    for key, units in session.traced["msgs"].items():
        assert layers[key] == units
    assert layers["engine.node_rounds"] == nominal_node_rounds(SMALL_BATCH.config)


def test_a_failing_output_check_lowers_pass_ratio():
    # Reinjection one round after the failure leaves no window to
    # reshape in, so a workload that needs reshaping must fail.
    doomed = Workload("small-doomed", "sim", "test",
                      dict(SMALL, engine="batch", reinjection_round=5),
                      needs_reshaping=True)
    record = run.run_child(doomed, 1, 0, run.environment(), digest=False)
    assert record["reshaping_rounds"] is None
    checks = run.check_outputs(doomed, 1, [record], None, NO_EXPECTED)
    assert checks["failed"] == checks["attempted"] == 1
    assert "never reshaped" in checks["notes"][0]


def test_a_crashed_child_is_a_failed_operation():
    broken = Workload("small-broken", "sim", "test", dict(SMALL, engine="warp"))
    record = run.run_child(broken, 1, 0, run.environment(), digest=False)
    assert record["crashed"] and record["failed"] == 1
    assert "engine must be one of" in record["failures"][0]


def test_expected_digest_is_checked_only_at_the_recorded_version_and_seed():
    repeats = [dict(FAKE_REPEAT, digest="aaaa")] * 2

    def check(seed, digest, version, reshaping=5):
        expected = {"seed": 1, "workloads": {SMALL_BATCH.name: {
            "state_digest": digest, "semantics_version": version,
            "reshaping_rounds": reshaping}}}
        return run.check_outputs(SMALL_BATCH, seed, repeats, None, expected)

    assert check(1, "aaaa", 2)["failed"] == 0
    mismatch = check(1, "bbbb", 2)
    assert mismatch["failed"] == 1 and "differs from expected.json" in mismatch["notes"][0]
    bumped = check(1, "bbbb", 3, reshaping=6)
    assert bumped["failed"] == 0
    assert bumped["notes"][0] == "exact counts differ from expected.json: reshaping_rounds 6 -> 5"
    assert bumped["notes"][1].startswith("digest_unchecked")
    other_seed = check(7, "bbbb", 2)
    assert other_seed["failed"] == 0 and other_seed["notes"] == []


def test_nondeterministic_repeats_fail():
    repeats = [dict(FAKE_REPEAT, digest=d) for d in ("aaaa", "bbbb")]
    checks = run.check_outputs(SMALL_BATCH, 1, repeats, None, NO_EXPECTED)
    assert checks["failed"] == 1 and checks["notes"][0].startswith("nondeterministic")
