"""Tests of the benchmark itself: classifier, percentiles, smoke runs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import socket
import threading

import pytest

import calib
import checks
import inputs
import layers
import run
import workloads
from server import Connection
from stats import median, percentile

OFFSETS = {"v1": {"src": 0}, "v2": {"src": 3, "a": 1}}
OK = ("ok", OFFSETS)
UNFEASIBLE = ("error", "UnfeasibleConstraintsError")


def body(obj) -> bytes:
    return json.dumps(obj).encode()


# -- percentiles -------------------------------------------------------


@pytest.mark.parametrize("values, q, want", [
    ([1, 2, 3, 4], 50, 2.5),
    ([3, 1, 2], 0, 1),
    ([3, 1, 2], 100, 3),
    ([7], 99, 7),
    (list(range(1, 101)), 99, 99.01),
    (list(range(1, 101)), 25, 25.75),
    ([10, 20], 90, 19),
])
def test_percentile_known_samples(values, q, want):
    assert percentile(values, q) == pytest.approx(want)


def test_median_and_bad_input():
    assert median([5, 1, 3]) == 3
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


# -- the classifier ----------------------------------------------------


def test_exact_offsets_are_correct():
    assert checks.schedule_failure(
        200, body({"schedule": {"offsets": OFFSETS}}), OK) is None


def test_perturbed_offset_is_a_failure():
    wrong = {"v1": {"src": 0}, "v2": {"src": 4, "a": 1}}
    assert checks.schedule_failure(
        200, body({"schedule": {"offsets": wrong}}), OK) is not None


@pytest.mark.parametrize("status", [500, 503, 504, 400, 429])
def test_error_statuses_are_failures(status):
    error = body({"error": "x", "error_type": "PoolSaturatedError"})
    assert checks.schedule_failure(status, error, OK) is not None
    assert checks.schedule_failure(status, error, UNFEASIBLE) is not None


def test_422_on_unfeasible_graph_is_correct():
    error = body({"error": "positive cycle",
                  "error_type": "UnfeasibleConstraintsError"})
    assert checks.schedule_failure(422, error, UNFEASIBLE) is None
    # ...but not on a graph the reference schedules, nor with the
    # wrong taxonomy error.
    assert checks.schedule_failure(422, error, OK) is not None
    assert checks.schedule_failure(
        422, body({"error_type": "IllPosedError"}), UNFEASIBLE) is not None
    assert checks.schedule_failure(
        200, body({"schedule": {"offsets": OFFSETS}}), UNFEASIBLE) is not None


def test_dropped_connection_is_a_failure():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def hang_up():
        conn, _ = listener.accept()
        conn.recv(65536)
        conn.close()

    thread = threading.Thread(target=hang_up)
    thread.start()
    try:
        status, raw = Connection(listener.getsockname()[1], timeout=10) \
            .request("POST", "/schedule", b"{}")
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    assert (status, raw) == (None, None)
    assert checks.schedule_failure(status, raw, OK) == "dropped connection"
    assert checks.log_failure(status, raw, {}) == "dropped connection"


def test_session_log_check_and_unchecked_fields():
    expected = {"issues": {"a": 0, "b": 5}, "done": {"a": 4}}
    good = {"log": dict(expected, reschedules=3), "batched": True}
    assert checks.log_failure(200, body(good), expected) is None
    bad = {"log": {"issues": {"a": 0, "b": 6}, "done": {"a": 4}}}
    assert checks.log_failure(200, body(bad), expected) is not None
    assert checks.log_failure(503, body(good), expected) is not None
    assert checks.strip_unchecked(good) == {"log": expected}


def test_renamed_isomorph_maps_reference_offsets():
    data = {"format": 1, "source": "s", "sink": "t",
            "vertices": [{"name": "s", "delay": "unbounded"},
                         {"name": "t", "delay": 0},
                         {"name": "x", "delay": 2}],
            "edges": [{"tail": "s", "head": "x", "weight": "unbounded",
                       "kind": "sequencing"},
                      {"tail": "x", "head": "t", "weight": 2,
                       "kind": "sequencing"}]}
    import random
    copy, mapping = inputs.renamed(data, random.Random(1))
    assert mapping["s"] == "s" and mapping["x"] != "x"
    expected, _ = inputs.reference(data)
    assert inputs.rename_expected(expected, mapping) == inputs.reference(copy)[0]


# -- smoke runs through run.main ----------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every size knob; the code path stays the full run's."""
    for name, value in [("SETUP_SAMPLES", 2), ("WARMUP_OPS", 10),
                        ("RPC_BASES", 12), ("BATCH_SAMPLE", 40),
                        ("SESSION_CASES", 6), ("OPEN_SESSIONS", 3),
                        ("RECOVERY_SAMPLES", 1)]:
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(inputs, "LARGE_SIZES", (400,))
    monkeypatch.setattr(inputs, "CORPUS_RECIPE",
                        dict(inputs.CORPUS_RECIPE, size=120, n_unique=12))
    for name, value in [("SCHEDULE_OPS", 8), ("KERNEL_OPS", 8),
                        ("SESSION_OPS", 3), ("CANONICAL_KEYS", 50)]:
        monkeypatch.setattr(layers, name, value)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["rpc-schedule", "session-stream",
                                      "kernel-offline"])
def test_smoke_run(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.5", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in section)
    for metric in section:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) or isinstance(got["value"], int)


# -- spans -------------------------------------------------------------


def test_self_time_and_coverage():
    from spans import COVER_SLACK_S, COVER_TOLERANCE, Recorder

    rec = Recorder()
    root = rec.add("app.dispatch_schedule", 0, 0.0, 1.0)
    rec.add("guard.untrusted_graph", 0, 0.0, 0.3, root)
    rec.add("batcher.schedule", 0, 0.3, 0.75, root)
    loose = rec.add("app.dispatch_schedule", 1, 2.0, 3.0)
    rec.add("guard.untrusted_graph", 1, 2.0, 2.5, loose)
    bare = rec.add("app.dispatch_schedule", 2, 4.0, 5.0)
    assert rec.self_times()[root] == pytest.approx(0.25)
    shares = {s.op: share for s, share in rec.coverage("app.dispatch_schedule")}
    assert shares == pytest.approx({0: 0.75, 1: 0.5, 2: 0.0})
    spans = {s.op: s for s, _ in rec.coverage("app.dispatch_schedule")}
    assert not rec.covered(spans[0], 0.75)       # 25% gap > 10% + slack
    assert not rec.covered(spans[2], 0.0)        # no layer spans at all
    assert rec.covered(spans[0], 1 - COVER_TOLERANCE - COVER_SLACK_S / 2)
    assert bare in rec.self_times()


def test_nested_spans_inherit_operation():
    from spans import Recorder

    rec = Recorder()
    with rec.span("app.dispatch_events", 7):
        with rec.span("journal.append"):
            pass
    child, parent = rec.spans
    assert (child.op, child.parent) == (7, parent.span_id)
    assert parent.parent is None


def test_uncovered_operation_is_a_failed_check():
    from spans import Recorder

    rec = Recorder()
    # Operation 0: two tries, the second covered.  Operation 1: one
    # try whose layers miss half of it.
    for op, start, covered_end in [(0, 0.0, 0.5), (0, 1.0, 1.98),
                                   (1, 2.0, 2.5)]:
        parent = rec.add("app.dispatch_schedule", op, start, start + 1.0)
        rec.add("guard.untrusted_graph", op, start, covered_end, parent)
    res = workloads.Result()
    layers.coverage(rec, res)
    assert (res.attempted, res.failed) == (2, 1)
    assert res.notes["trace_uncovered_ops"] == 1
    assert res.layers["trace.coverage_min"][0] == pytest.approx(0.5)


def test_instrument_wraps_and_restores_layer_functions():
    import repro.qa.serialize as serialize
    from spans import Recorder

    rec = Recorder()
    original = serialize.validate_graph_dict
    instrument = layers.Instrument(rec, [
        ("repro.qa.serialize", "validate_graph_dict", "serialize.validate"),
        ("repro.qa.serialize", "no_such_function", "gone"),
        ("repro.no_such_module", "f", "gone")])
    assert instrument.missing == ["repro.qa.serialize.no_such_function",
                                  "repro.no_such_module.f"]
    data = {"format": 1, "source": "s", "sink": "t",
            "vertices": [{"name": "s", "delay": "unbounded"},
                         {"name": "t", "delay": 0}],
            "edges": [{"tail": "s", "head": "t", "weight": 0,
                       "kind": "sequencing"}]}
    with instrument:
        with rec.span("app.dispatch_schedule", 4):
            serialize.validate_graph_dict(data, strict=True)
    assert serialize.validate_graph_dict is original
    names = [(s.name, s.op) for s in rec.spans]
    assert names == [("serialize.validate", 4), ("app.dispatch_schedule", 4)]


# -- inputs and metrics -------------------------------------------------


def test_rpc_verdict_mix_follows_its_recipe():
    bases = inputs.rpc_bases(5, 2 * len(inputs.RPC_KINDS))
    assert [b.kind for b in bases] == list(inputs.RPC_KINDS) * 2
    assert inputs.RPC_KINDS.count("unfeasible") / len(inputs.RPC_KINDS) \
        == inputs.CORPUS_RECIPE["unfeasible_share"]
    assert workloads.RPC_BASES % len(inputs.RPC_KINDS) == 0


def test_held_out_seed_schedules_other_large_graphs():
    tuning = inputs.large_graphs(1)
    assert [g.n for g in tuning] == list(inputs.LARGE_SIZES)
    assert inputs.large_graphs(2)[0].data == tuning[0].data
    held_out = inputs.large_graphs(inputs.HELD_OUT_SEED)
    assert [g.n for g in held_out] == list(inputs.LARGE_SIZES)
    assert all(h.data != t.data for h, t in zip(held_out, tuning))


REF = calib.REFERENCE_S["service"]


def _segmented(latency_s, count, probe_s, stolen=()):
    """*count* back-to-back operations of *latency_s*, cut into 1-s
    segments each followed by a probe of *probe_s*, with the *stolen*
    share of each CPU."""
    per = round(1 / latency_s)
    ops = [(i // per, (i % per) * latency_s, (i % per + 1) * latency_s)
           for i in range(count)]
    return ops, [(1.0, probe_s, list(stolen))] * -(-count // per)


def _timed(ops, segments):
    res = workloads.Result()
    workloads._timed_metrics(res, ops, segments, REF, coupled=True,
                             p99=True)
    return res


def test_timed_metrics_count_every_segment():
    """A stall in half the run lowers the gated throughput and latency."""
    ref = REF
    steady = _segmented(0.01, 1000, ref)
    fast, _ = _segmented(0.01, 500, ref)
    slow, _ = _segmented(0.04, 125, ref)
    stalled = (fast + [(s + 5, t0, t1) for s, t0, t1 in slow],
               [(1.0, ref, [])] * 10)
    got = {name: _timed(*run) for name, run in (("steady", steady),
                                                ("stalled", stalled))}
    assert got["steady"].metrics["scaled_ops_per_s"][0] == pytest.approx(100)
    assert got["stalled"].metrics["scaled_ops_per_s"][0] \
        == pytest.approx(62.5)
    assert got["stalled"].table["ops_per_s"][0] == pytest.approx(62.5)
    per_segment = got["stalled"].notes["segment_ops"]
    assert sum(per_segment) == 625 and min(per_segment[:5]) == 4 * max(
        per_segment[5:])
    assert got["stalled"].table["latency_p99_ms"][0] == pytest.approx(40)


def test_scaled_metrics_follow_the_program_not_the_host():
    """A host at half speed (operations and probes twice as long) leaves
    the gated figures alone; a program at half speed halves them."""
    ref = REF
    base = _timed(*_segmented(0.01, 1000, ref))
    slow_host = _timed(*_segmented(0.02, 500, 2 * ref))
    slow_program = _timed(*_segmented(0.02, 500, ref))
    for name in ("scaled_ops_per_s", "scaled_latency_p50_ms"):
        assert slow_host.metrics[name][0] == pytest.approx(
            base.metrics[name][0])
    assert slow_host.table["ops_per_s"][0] == pytest.approx(50)
    assert slow_program.metrics["scaled_ops_per_s"][0] == pytest.approx(50)
    assert slow_program.metrics["scaled_latency_p50_ms"][0] \
        == pytest.approx(20)


def test_stolen_time_is_taken_out():
    """30% of each CPU stolen: the coupled loop runs 0.7 * 0.7 of the
    time and each probe lane 0.7; the gated figures stay put."""
    assert calib.ran_share([0.3, 0.3], coupled=True) == pytest.approx(0.49)
    assert calib.ran_share([0.3, 0.1], coupled=False) == pytest.approx(0.8)
    assert calib.ran_share([], coupled=True) == 1.0
    base = _timed(*_segmented(0.01, 1000, REF))
    stolen = _timed(*_segmented(0.01 / 0.49, 490, REF / 0.7, [0.3, 0.3]))
    assert stolen.table["ops_per_s"][0] == pytest.approx(49)
    for name in ("scaled_ops_per_s", "scaled_latency_p50_ms"):
        assert stolen.metrics[name][0] == pytest.approx(
            base.metrics[name][0])
    before = calib.steal_ticks()
    assert all(0 <= s <= 1 for s in calib.steal_shares(
        before, calib.steal_ticks(), 0.001))


def test_probes_run_and_owe_nothing_to_the_program():
    import ast
    tree = ast.parse((run.BENCH_DIR / "calib.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "repro" not in imported
    for kind in calib.REFERENCE_S:
        assert 0 < calib.probe(kind) < 1
    with calib.PairedProbe("service") as paired:
        assert 0 < paired() < 1
    assert paired.helper.returncode == 0
