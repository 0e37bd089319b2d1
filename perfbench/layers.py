"""The traced run's layer replay: per-layer metrics.

A sample of the workload's inputs goes through the program's public
entry points in this process, with each layer's public function
wrapped in a span for the duration of the replay (``Instrument``).  So
every layer span is a piece of one real operation, never a second run
of it, and an operation's children must account for its measured time
to within ``spans.COVER_TOLERANCE`` (+ ``COVER_SLACK_S``).  A session
or kernel run that misses it is replayed afresh, up to ``RTT_REPEATS``
times, since host noise only ever widens a gap; an operation whose best
try is outside the tolerance is a failed check.

Operations and the layers wrapped inside them:

* ``app.dispatch_schedule`` -- ``SchedulingService.dispatch`` of one
  ``/schedule`` body: ``guard.untrusted_graph`` (itself
  ``serialize.validate`` + ``serialize.build``), ``batcher.schedule``
  (or ``guard.schedule`` when the service schedules without the
  batcher), ``io.to_dict``;
* ``core.schedule_graph`` -- the Fig. 9 pipeline in the workload's
  anchor mode: ``core.find_anchor_sets``, ``core.check_well_posed``,
  ``core.make_well_posed``, ``core.anchor_sets_for_mode``,
  ``core.scheduler_init``, ``core.scheduler_run``, ``core.validate``;
* ``app.dispatch_sessions`` -- ``POST /sessions``: the guard, the
  schedule, the executor, the genesis journal record;
* ``app.dispatch_events`` -- one completion per ``POST
  /sessions/{id}/events``: ``journal.validate_batch``,
  ``journal.append`` (fsync ``always``), ``executor.apply_batch``.

The ``/schedule`` requests are also checked end to end: the client's
round trips to the live server must equal, within ``RTT_TOLERANCE``
summed over the sample, the server's transport (the round trip of the
same body to a path the server decodes and answers 404, minus that
decode) plus body decode, dispatch and response encode measured in
process.  Each term is the best of ``RTT_REPEATS`` tries per request.

Single-layer calls are their own root spans: ``guard.schedule`` on the
graph the batcher scheduled, ``batch.schedule_many`` and
``canonical.key`` over the batch, journal appends with fsync
``always`` and ``never`` on identical records, and the journal's
``read`` and ``replay``.

A full collection runs before each covered operation, outside its
span, so a collection the replay's own garbage triggered does not land
in one operation's gap (it did, 5 ms in one event dispatch).

Every answer the replay gets is checked like the timed loop's.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import time
from dataclasses import dataclass
from functools import wraps
from typing import Any, Dict, List, Optional, Tuple

from repro.core.anchors import AnchorMode
from repro.core.batch import schedule_many
from repro.core.canonical import canonical_key
from repro.core.exceptions import ConstraintGraphError
from repro.core.scheduler import schedule_graph
from repro.qa.serialize import graph_from_dict
from repro.resilience.guard import guarded_schedule
from repro.runtime.executor import OnlineExecutor
from repro.runtime.journal import (
    SessionJournal,
    apply_batch,
    read_journal,
    replay_journal,
    validate_batch,
)
from repro.service.app import SchedulingService, ServiceConfig

import checks
import inputs
from server import Connection
from stats import mean
from workloads import check_batch

SCHEDULE_OPS = 100
KERNEL_OPS = 100
SESSION_OPS = 20
CANONICAL_KEYS = 2_000
#: Tries per /schedule round-trip check (each side's best try is used),
#: and at most per replayed session or kernel run (see coverage).
RTT_REPEATS = 3
#: The round trip is measured in another process, so its tolerance is
#: wider than that of spans nested in one call.
RTT_TOLERANCE = 0.15
#: A path the service answers 404 after decoding the body.
NULL_PATH = "/perfbench-null"

#: Wrapped layer functions: (module, attribute path, span name).  An
#: attribute the program no longer has is skipped, and its metric reads
#: absent.
SERVICE_LAYERS = [
    ("repro.service.app", "untrusted_graph_from_dict", "guard.untrusted_graph"),
    ("repro.qa.serialize", "validate_graph_dict", "serialize.validate"),
    ("repro.qa.serialize", "graph_from_dict", "serialize.build"),
    ("repro.service.app", "guarded_schedule", "guard.schedule"),
    ("repro.service.app", "schedule_to_dict", "io.to_dict"),
    ("repro.qa.serialize", "graph_to_dict", "serialize.to_dict"),
    ("repro.runtime.executor", "OnlineExecutor.__init__", "executor.init"),
    ("repro.runtime.journal", "SessionJournal.append_open", "journal.append_open"),
    ("repro.runtime.journal", "validate_batch", "journal.validate_batch"),
    ("repro.runtime.journal", "SessionJournal.append_events", "journal.append"),
    ("repro.runtime.journal", "apply_batch", "executor.apply_batch"),
]
KERNEL_LAYERS = [
    ("repro.core.anchors", "find_anchor_sets", "core.find_anchor_sets"),
    ("repro.core.scheduler", "check_well_posed", "core.check_well_posed"),
    ("repro.core.scheduler", "make_well_posed", "core.make_well_posed"),
    ("repro.core.scheduler", "anchor_sets_for_mode", "core.anchor_sets_for_mode"),
    ("repro.core.scheduler", "IterativeIncrementalScheduler.__init__",
     "core.scheduler_init"),
    ("repro.core.scheduler", "IterativeIncrementalScheduler.run",
     "core.scheduler_run"),
    ("repro.core.indexed", "certify_offset_lists", "core.validate"),
    ("repro.core.schedule", "RelativeSchedule.validate", "core.validate"),
]

STAGES = ("find_anchor_sets", "check_well_posed", "make_well_posed",
          "anchor_sets_for_mode", "scheduler_run", "validate")

#: Operations whose child spans must account for their duration.
COVERED = ("app.dispatch_schedule", "core.schedule_graph",
           "kernel.schedule_graph", "app.dispatch_sessions",
           "app.dispatch_events")


@dataclass
class ScheduleCase:
    payload: Dict[str, Any]
    body: bytes
    expected: inputs.Expected


def schedule_cases(pairs) -> List[ScheduleCase]:
    return [ScheduleCase(payload, json.dumps(payload).encode(), expected)
            for payload, expected in pairs]


def overhead(res, plain_rate: float, traced_rate: float) -> None:
    """Tracing overhead: the traced loop's throughput against the
    untraced loop's, run back to back for equal times on the same
    inputs, with the spans recorded inside the timed region."""
    res.layers["trace.overhead_share"] = (1 - traced_rate / plain_rate,
                                          "ratio")
    res.notes["untraced_rate"] = plain_rate
    res.notes["traced_rate"] = traced_rate


class Instrument:
    """Wrap layer functions in spans while the ``with`` block runs.

    Targets are ``(module, "func" or "Class.method", span name)``;
    *instances* adds ``(object, method name, span name)`` for bound
    methods such as a service's batcher.  Missing targets are skipped
    and listed in ``missing``.
    """

    def __init__(self, rec, targets, instances=()) -> None:
        self.rec = rec
        self.patches: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        for module_name, path, span in targets:
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(f"{module_name}.{path}")
                continue
            self.patches.append((owner, attr, span))
        for obj, attr, span in instances:
            if obj is None or not callable(getattr(obj, attr, None)):
                self.missing.append(f"{type(obj).__name__}.{attr}")
                continue
            self.patches.append((obj, attr, span))

    def _wrap(self, fn, name: str):
        rec = self.rec

        @wraps(fn)
        def traced(*args, **kwargs):
            with rec.span(name):
                return fn(*args, **kwargs)
        return traced

    def __enter__(self) -> "Instrument":
        self._saved = []
        for owner, attr, span in self.patches:
            in_dict = attr in vars(owner)
            original = vars(owner)[attr] if in_dict else None
            self._saved.append((owner, attr, in_dict, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), span))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, in_dict, original in reversed(self._saved):
            if in_dict:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _reject_nonfinite(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


def replay(ctx, res, server, sched: List[ScheduleCase], mode: str, *,
           kernel_cases: Optional[List[Tuple[dict, dict]]] = None,
           batch: list, batch_expected: list,
           session_graphs: List[dict]) -> None:
    """Replay the sample through every layer and fill ``res.layers``.

    *kernel_cases* (wire graph, reference offsets) default to the
    ``/schedule`` sample; *batch* holds built graphs for
    ``schedule_many`` (copied before use) with their reference verdicts.
    """
    rec = ctx.recorder
    gc.collect()
    gc.freeze()   # keep the run's long-lived inputs out of GC passes
    service = SchedulingService(ServiceConfig(
        journal_dir=str(ctx.tmp / "replay-journals")))
    instrument = Instrument(rec, SERVICE_LAYERS, [
        (getattr(service, "batcher", None), "schedule", "batcher.schedule")])
    try:
        with instrument:
            _schedule_ops(rec, res, server, service, sched[:SCHEDULE_OPS])
            _session_ops(ctx, rec, res, service, session_graphs[:SESSION_OPS])
        if kernel_cases is None:
            kernel = [(c.payload["graph"], c.expected)
                      for c in sched[:KERNEL_OPS]]
        else:
            kernel = [(data, ("ok", offsets)) for data, offsets in kernel_cases]
        with Instrument(rec, KERNEL_LAYERS) as kinst:
            _kernel_ops(rec, res, kernel, mode)
        _batch_op(rec, res, batch, batch_expected)
    finally:
        service.close()
    res.notes["unwrapped_layers"] = instrument.missing + kinst.missing
    coverage(rec, res)


# ----------------------------------------------------------------------
# /schedule
# ----------------------------------------------------------------------


def _timed(fn) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _schedule_ops(rec, res, server, service, cases) -> None:
    conn = Connection(server.port)
    ops: List[Dict[str, float]] = []
    try:
        for op, case in enumerate(cases):
            best: Dict[str, float] = {}

            def keep(name: str, seconds: float) -> None:
                best[name] = min(seconds, best.get(name, seconds))

            for _ in range(RTT_REPEATS):
                t, (status, raw) = _timed(lambda: conn.request(
                    "POST", "/schedule", case.body))
                keep("rtt", t)
                res.check(checks.schedule_failure(status, raw, case.expected))
                t, (null_status, _) = _timed(lambda: conn.request(
                    "POST", NULL_PATH, case.body))
                keep("null_rtt", t)
                res.check(None if null_status == 404 else
                          f"{NULL_PATH} answered {null_status}, not 404")
                with rec.span("decode.json", op):
                    t, payload = _timed(lambda: json.loads(
                        case.body.decode("utf-8"),
                        parse_constant=_reject_nonfinite))
                keep("decode", t)
                gc.collect()
                with rec.span("app.dispatch_schedule", op):
                    t, (d_status, d_body) = _timed(lambda: service.dispatch(
                        "POST", "/schedule", payload))
                keep("dispatch", t)
                with rec.span("io.dumps", op):
                    t, encoded = _timed(
                        lambda: json.dumps(d_body).encode("utf-8"))
                keep("dumps", t)
                res.check(checks.schedule_failure(d_status, encoded,
                                                  case.expected))
            ops.append(best)
            graph = graph_from_dict(case.payload["graph"])
            try:
                with rec.span("guard.schedule", op):
                    guarded_schedule(graph, anchor_mode=AnchorMode.FULL)
            except ConstraintGraphError:
                pass
    finally:
        conn.close()
    # Round trip against its layers, over every replayed request.  The
    # server's side of one request runs in another process, so single
    # requests differ from the in-process sum by -8% to +28% (best of 5
    # tries, measured on a 2-core box); the sum over the sample is what
    # the tolerance is stated for.
    rtt = sum(b["rtt"] for b in ops)
    parts = sum(b["null_rtt"] + b["dispatch"] + b["dumps"] for b in ops)
    res.check(None if abs(rtt - parts) <= RTT_TOLERANCE * rtt else
              f"round trips differ from transport + decode + dispatch + "
              f"encode by {(rtt - parts) / rtt:.0%}")
    res.layers["server.rtt_gap_share"] = ((rtt - parts) / rtt, "ratio")
    res.layers["server.overhead_ms"] = (
        mean([b["rtt"] - b["dispatch"] for b in ops]) * 1e3, "ms")
    res.layers["server.transport_ms"] = (
        mean([b["null_rtt"] - b["decode"] for b in ops]) * 1e3, "ms")
    root = "app.dispatch_schedule"
    res.layers["app.dispatch_schedule_ms"] = (_per_root(rec, root) * 1e3,
                                              "ms")
    res.layers["decode.json_ms"] = (_per_root(rec, "decode.json") * 1e3, "ms")
    res.layers["guard.untrusted_graph_ms"] = (
        _per_op(rec, root, "guard.untrusted_graph") * 1e3, "ms")
    for layer in ("serialize.validate", "serialize.build"):
        res.layers[layer + "_ms"] = (
            _per_op(rec, "guard.untrusted_graph", layer, per=root) * 1e3, "ms")
    res.layers["guard.schedule_ms"] = (_per_root(rec, "guard.schedule") * 1e3,
                                       "ms")
    batched = _per_op(rec, root, "batcher.schedule")
    res.layers["batcher.schedule_ms"] = (
        batched * 1e3 if any(s.name == "batcher.schedule" for s in rec.spans)
        else None, "ms")
    res.layers["io.encode_ms"] = (
        (_per_op(rec, root, "io.to_dict") + _per_root(rec, "io.dumps")) * 1e3,
        "ms")


# ----------------------------------------------------------------------
# kernel stages
# ----------------------------------------------------------------------


def _kernel_ops(rec, res, cases, mode_name: str) -> None:
    mode = AnchorMode(mode_name)
    anchors, iterations = [], []
    for op, (data, expected) in enumerate(cases):
        # Scheduled again, on a fresh graph, while its stages miss the
        # coverage tolerance; judged by the best try (see _session_ops).
        for _try in range(RTT_REPEATS):
            graph = graph_from_dict(data)
            gc.collect()
            first = len(rec.spans)
            try:
                with rec.span("core.schedule_graph", op):
                    schedule = schedule_graph(graph, anchor_mode=mode)
                verdict = ("ok", inputs.plain_offsets(schedule.offsets))
                iterations.append(schedule.iterations)
            except ConstraintGraphError as error:
                verdict = ("error", type(error).__name__)
            res.check(None if verdict == expected
                      else "schedule_graph differs from reference")
            if _all_covered(rec, first):
                break
        anchors.append(len(graph.anchors))
    root = "core.schedule_graph"
    for stage in STAGES:
        res.layers[f"core.{stage}_ms"] = (
            _per_op(rec, root, "core." + stage) * 1e3, "ms")
    roots = {s.span_id for s in rec.spans if s.name == root}
    serialized = {s.parent for s in rec.spans
                  if s.name == "core.make_well_posed" and s.parent in roots}
    res.layers["core.anchors_mean"] = (mean(anchors), "count")
    res.layers["core.iterations_mean"] = (mean(iterations or [0]), "count")
    res.layers["core.serialized_share"] = (len(serialized) / len(roots),
                                           "ratio")


# ----------------------------------------------------------------------
# schedule_many + canonical keys
# ----------------------------------------------------------------------


def _batch_op(rec, res, built, expected) -> None:
    graphs = [g.copy() for g in built]
    keyed = [g.copy() for g in built[:CANONICAL_KEYS]]
    with rec.span("batch.schedule_many", 0):
        run = schedule_many(graphs)
    with rec.span("canonical.key", 0):
        keys = [canonical_key(g) for g in keyed]
    check_batch(res, run, expected)
    n = len(graphs)
    res.layers["batch.schedule_many_s"] = (
        _per_root(rec, "batch.schedule_many"), "s")
    res.layers["canonical.key_ms"] = (
        _per_root(rec, "canonical.key") / len(keyed) * 1e3, "ms")
    unique = len({k for k in keys if k is not None}) + keys.count(None)
    res.layers["batch.unique_share"] = (unique / len(keys), "ratio")
    res.layers["batch.fallback_share"] = (run.stats["fallbacks"] / n, "ratio")
    res.layers["batch.error_share"] = (run.stats["errors"] / n, "ratio")


# ----------------------------------------------------------------------
# sessions: service dispatch, then fsync cost and recovery by hand
# ----------------------------------------------------------------------


class _FsyncCounter:
    """Counts ``os.fsync`` calls made inside a ``with`` block."""

    def __init__(self) -> None:
        self.calls = 0
        self._real = os.fsync

    def __enter__(self) -> "_FsyncCounter":
        def counting(fd: int) -> None:
            self.calls += 1
            self._real(fd)
        os.fsync = counting
        return self

    def __exit__(self, *exc: Any) -> None:
        os.fsync = self._real


def _stream_session(rec, res, service, case, op: int) -> int:
    """Create, stream and delete one session through
    ``SchedulingService.dispatch``, checked; returns the fsyncs its event
    dispatches made."""
    gc.collect()
    with rec.span("app.dispatch_sessions", op):
        status, body = service.dispatch("POST", "/sessions",
                                        {"graph": case.data})
    res.check(checks.status_failure(status))
    sid = body.get("session")
    fsyncs = 0
    for seq, event in enumerate(case.events, 1):
        gc.collect()
        with _FsyncCounter() as counter:
            with rec.span("app.dispatch_events", op * 1000 + seq):
                status, _ = service.dispatch(
                    "POST", f"/sessions/{sid}/events",
                    {"seq": seq, "events": [list(event)]})
        fsyncs += counter.calls
        res.check(checks.status_failure(status))
    with rec.span("app.dispatch_delete", op):
        status, final = service.dispatch("DELETE", f"/sessions/{sid}", None)
    res.check(checks.log_failure(status, json.dumps(final).encode(),
                                 case.expected_log))
    return fsyncs


def _all_covered(rec, first: int) -> bool:
    """Whether every covered operation recorded since span index
    *first* is within the coverage tolerance."""
    recent = {s.span_id for s in rec.spans[first:]}
    return all(rec.covered(span, share) for root in COVERED
               for span, share in rec.coverage(root)
               if span.span_id in recent)


def _session_ops(ctx, rec, res, service, datas) -> None:
    rng = random.Random(f"{ctx.seed}:replay-sessions")
    cases = []
    for data in datas:
        _, schedule = inputs.reference(data)
        case = inputs.session_case(data, schedule, rng) if schedule else None
        if case is not None:
            cases.append(case)
    events_total, fsyncs, journal_bytes, records = 0, 0, 0, []
    dispatched = 0
    reschedules: Optional[int] = 0
    for op, case in enumerate(cases):
        # A session whose create or any event dispatch misses the
        # coverage tolerance is streamed again as a fresh session, up
        # to RTT_REPEATS times; each operation is judged by its best
        # try (noise only ever widens a gap), as for /schedule.
        for _try in range(RTT_REPEATS):
            first = len(rec.spans)
            fsyncs += _stream_session(rec, res, service, case, op)
            dispatched += len(case.events)
            if _all_covered(rec, first):
                break

        # fsync cost: identical records appended with each policy.
        schedule = guarded_schedule(graph_from_dict(case.data),
                                    anchor_mode=AnchorMode.FULL)
        executor = OnlineExecutor(schedule)
        always = SessionJournal(ctx.tmp / "write-path" / f"{op}-a.journal",
                                fsync="always")
        never = SessionJournal(ctx.tmp / "write-path" / f"{op}-n.journal",
                               fsync="never")
        for journal in (always, never):
            journal.append_open(f"replay{op}", case.data, mode="full",
                                watchdog=None, source_done=0,
                                auto_well_pose=True)
        genesis = always.path.stat().st_size
        for seq, event in enumerate(case.events, 1):
            batch = [event]
            validate_batch(executor, batch)
            with rec.span("journal.append_always", op):
                always.append_events(seq, batch)
            with rec.span("journal.append_never", op):
                never.append_events(seq, batch)
            apply_batch(executor, seq, batch)
        with rec.span("journal.read", op):
            state = read_journal(always.path)
        with rec.span("journal.replay", op):
            replayed, _outcomes = replay_journal(state)
        for log in (executor.log, replayed.log):
            got = {"issues": dict(log.issues), "done": dict(log.done)}
            res.check(None if got == case.expected_log
                      else "write-path log differs from execute_stream")
        events_total += len(case.events)
        journal_bytes += always.path.stat().st_size - genesis
        records.append(1 + len(state.batches))
        if reschedules is not None and hasattr(executor.log, "reschedules"):
            reschedules += executor.log.reschedules
        else:
            reschedules = None

    def event_us(name: str, root: Optional[str] = "app.dispatch_events",
                 events: Optional[int] = None) -> float:
        """Microseconds per event, over the dispatched events (every
        try) unless *events* says otherwise."""
        spans = (_children(rec, root, name) if root else
                 [s for s in rec.spans if s.name == name and s.parent is None])
        return sum(s.duration for s in spans) / (events or dispatched) * 1e6

    res.layers["app.dispatch_sessions_ms"] = (
        _per_root(rec, "app.dispatch_sessions") * 1e3, "ms")
    res.layers["app.dispatch_events_ms"] = (
        event_us("app.dispatch_events", None) / 1e3, "ms")
    res.layers["journal.validate_batch_us"] = (
        event_us("journal.validate_batch"), "us")
    res.layers["journal.append_us"] = (event_us("journal.append"), "us")
    res.layers["journal.fsync_us"] = (
        event_us("journal.append_always", None, events_total)
        - event_us("journal.append_never", None, events_total), "us")
    res.layers["executor.apply_batch_us"] = (
        event_us("executor.apply_batch"), "us")
    res.layers["journal.read_ms"] = (_per_root(rec, "journal.read") * 1e3,
                                     "ms")
    res.layers["journal.replay_ms"] = (
        _per_root(rec, "journal.replay") * 1e3, "ms")
    res.layers["journal.bytes_per_event"] = (journal_bytes / events_total, "B")
    res.layers["journal.fsyncs_per_event"] = (fsyncs / dispatched, "count")
    res.layers["journal.records_per_session"] = (mean(records), "count")
    res.layers["executor.reschedules_per_event"] = (
        reschedules / events_total if reschedules is not None else None,
        "count")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _children(rec, root: str, child: str) -> list:
    """Spans named *child* that are direct children of a *root* span."""
    roots = {s.span_id for s in rec.spans if s.name == root}
    return [s for s in rec.spans if s.name == child and s.parent in roots]


def _per_root(rec, name: str) -> float:
    """Mean duration of the root spans named *name* (0 when none)."""
    spans = [s.duration for s in rec.spans
             if s.name == name and s.parent is None]
    return mean(spans) if spans else 0.0


def _per_op(rec, root: str, child: str, per: Optional[str] = None) -> float:
    """Seconds of *child* spans directly under *root* spans, per *per*
    span (default: per *root* span; 0 when never called)."""
    count = sum(s.name == (per or root) for s in rec.spans)
    if not count:
        return 0.0
    return sum(s.duration for s in _children(rec, root, child)) / count


def coverage(rec, res) -> None:
    """Each covered operation's children against its duration.  An
    operation replayed more than once (the ``/schedule`` tries, and
    sessions or kernel runs retried after missing the tolerance) is
    judged by its best-covered try."""
    best: Dict[Tuple[str, int], Tuple[bool, float]] = {}
    for root in COVERED:
        for span, share in rec.coverage(root):
            key = (root, span.op)
            best[key] = max(best.get(key, (False, 0.0)),
                            (rec.covered(span, share), share))
    for (root, _op), (covered, share) in best.items():
        res.check(None if covered else
                  f"{root} spans cover {share:.0%} of the operation")
    res.layers["trace.coverage_min"] = (
        min(share for _, share in best.values()), "ratio")
    res.notes["trace_uncovered_ops"] = sum(not c for c, _ in best.values())
    res.notes["trace_checked_ops"] = len(best)
