"""The three workloads: closed loops, answer checks, end-to-end metrics.

``rpc-schedule`` and ``session-stream`` drive a ``repro serve``
subprocess from this process over CONNECTIONS keep-alive connections,
one thread each (the box has 2 cores; the server gets its own
process, so the load generator never shares the server's GIL).
``kernel-offline`` calls the library from this process's main thread.

Request bodies are encoded before the timed loop and responses are
decoded and checked after it, so the load generator spends as little
CPU as possible while the server is measured.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import calib
import checks
import inputs
from server import Connection, Server
from spans import Recorder
from stats import median, percentile

CONNECTIONS = 2
#: The closed loops stop every SEGMENT_S for a calibration probe
#: (calib.py); the operations per segment go to the record, so a stall
#: inside a run can be told from uniform slowness.
SEGMENT_S = 1.0
#: A gated timing is rescaled by the median probe of its own segment and
#: of up to this many segments on each side (see _timed_metrics).
PROBE_WINDOW = 4
#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5
#: Sequential requests (or sessions) sent before timing starts, so
#: lazy imports and first-call costs in the server are paid.
WARMUP_OPS = 30
#: Pre-built /schedule bodies per measured second; beyond that the
#: renamed isomorphs are reused in order.
RPC_BODIES_PER_S = 250
#: A multiple of len(inputs.RPC_KINDS), so the verdict mix is exact.
RPC_BASES = 792
#: /schedule bodies the traced run replays through schedule_many.
BATCH_SAMPLE = 500
SESSION_CASES = 64
#: Sessions left open mid-stream when the session loop ends, and how
#: many SIGKILL + restart cycles recover them.
OPEN_SESSIONS = 24
RECOVERY_SAMPLES = 3
#: kernel-offline: share of --seconds spent scheduling large graphs.
KERNEL_LARGE_SHARE = 0.8

RECOVERED_RE = re.compile(rb"-- (\d+) session\(s\) recovered")


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    tmp: Path
    recorder: Optional[Recorder] = None   # set for the traced run


@dataclass
class Result:
    """Checked operations plus every reported number.

    ``metrics`` holds the end-to-end metrics every workload reports;
    ``table`` the workload-specific end-to-end rows; ``layers`` the
    per-layer metrics of the traced run.  Values are ``(value, unit)``;
    a None value means the source of the metric is absent.
    """

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    metrics: Dict[str, Tuple[Optional[float], str]] = field(default_factory=dict)
    table: Dict[str, Tuple[Optional[float], str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[Optional[float], str]] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def check(self, failure: Optional[str]) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures[failure] += 1


#: One measured stretch of a run: its wall seconds, then -- when the run
#: is calibrated -- the probe seconds after it and each CPU's stolen
#: share over both (calib.py).
Segment = Tuple[float, Optional[float], Optional[List[float]]]


def _timed_metrics(res: Result, ops: List[Tuple[int, float, float]],
                   segments: List[Segment], reference: float,
                   coupled: bool, p99: bool) -> None:
    """End-to-end throughput and latency from every operation
    ``(segment, start, end)`` of a run cut into *segments*.

    The raw figures are every operation over the segments' summed wall
    time (the calibration pauses between segments excluded) and the
    percentiles of every operation's time.  The gated ``scaled_*``
    figures first take stolen time out of each segment and each probe
    (``calib.ran_share``; *coupled* for the HTTP loops), then rescale to
    the speed at which the probe takes *reference* seconds, by the
    median probe of the segments within PROBE_WINDOW of it.  So a host
    that runs slower for minutes does not read as a slower program,
    while a stall of the program still counts in full.
    """
    ran = [calib.ran_share(shares, coupled) for _w, _p, shares in segments]
    probes = [p * calib.ran_share(shares, False)
              for _w, p, shares in segments]
    factors = [r * reference
               / median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
               for i, r in enumerate(ran)]
    latencies = [t1 - t0 for _s, t0, t1 in ops]
    scaled = [(t1 - t0) * factors[s] for s, t0, t1 in ops]
    scaled_wall = sum(w * f for (w, _p, _s), f in zip(segments, factors))
    res.metrics["scaled_ops_per_s"] = (len(ops) / scaled_wall, "1/s")
    res.metrics["scaled_latency_p50_ms"] = (median(scaled) * 1e3, "ms")
    res.table["ops_per_s"] = (len(ops) / sum(w for w, _p, _s in segments),
                              "1/s")
    res.table["latency_p50_ms"] = (median(latencies) * 1e3, "ms")
    if p99:
        res.table["latency_p99_ms"] = (percentile(latencies, 99) * 1e3,
                                       "ms")
    res.notes["latency_samples"] = len(ops)
    res.notes["speed_factors"] = [min(factors), median(factors),
                                  max(factors)]
    res.notes["ran_share"] = [min(ran), median(ran)]
    per_segment = Counter(s for s, _t0, _t1 in ops)
    res.notes["segment_ops"] = [per_segment[i] for i in range(len(segments))]
    res.notes["segments"] = segments


def _closed_loop(port: int, step, start: int, seconds: float,
                 probe: Optional[Callable[[], float]]
                 ) -> Tuple[list, List[Segment]]:
    """Run ``step(conn, k)`` back to back on CONNECTIONS keep-alive
    connections, one thread each, *k* counting up from *start*, for
    *seconds*.  With a *probe*, the loop stops every SEGMENT_S, once the
    operations in flight have completed, and times a calibration probe
    (``calib.PairedProbe``) while the server is idle.

    Returns ``[(segment, k, step result)]`` and the segments.
    """
    counter = itertools.count(start)
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    done: list = []
    segments: List[Segment] = []
    lock = threading.Lock()

    def worker(conn: Connection, segment: int, until: float) -> None:
        local = []
        try:
            while time.perf_counter() < until:
                k = next(counter)
                local.append((segment, k, step(conn, k)))
        finally:
            with lock:
                done.extend(local)

    deadline = time.perf_counter() + seconds
    try:
        while True:
            steal = calib.steal_ticks()
            begin = time.perf_counter()
            if begin >= deadline:
                break
            until = deadline if probe is None else min(deadline,
                                                        begin + SEGMENT_S)
            threads = [threading.Thread(target=worker, daemon=True,
                                        args=(conn, len(segments), until))
                       for conn in conns]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - begin
            if probe is None:
                segments.append((wall, None, None))
                continue
            probe_s = probe()
            segments.append((wall, probe_s, calib.steal_shares(
                steal, calib.steal_ticks(), time.perf_counter() - begin)))
    finally:
        for conn in conns:
            conn.close()
    return done, segments


def _rate(count: int, segments: List[Segment]) -> float:
    """Unscaled operations per second of a loop."""
    return count / sum(wall for wall, _p, _s in segments)


def _setup_servers(ctx: Context, journal: bool) -> Tuple[List[float], Server]:
    """SETUP_SAMPLES cold starts (fresh empty journal dir each); the
    last server stays up for the workload."""
    samples, server = [], None
    try:
        for i in range(SETUP_SAMPLES):
            if server is not None:
                server.kill()
            server = Server(ctx.root, ctx.tmp / f"serve-{i}.log",
                            ctx.tmp / f"journals-{i}" if journal else None)
            samples.append(server.start())
    except BaseException:
        if server is not None:
            server.kill()
        raise
    return samples, server


# ----------------------------------------------------------------------
# rpc-schedule
# ----------------------------------------------------------------------


def _rpc_step(bodies: List[bytes], recorder: Optional[Recorder]):
    """One closed-loop operation: POST the next body and wait.  Returns
    ``(status, raw body, start, end)``."""
    def step(conn: Connection, k: int):
        t0 = time.perf_counter()
        status, raw = conn.request("POST", "/schedule",
                                   bodies[k % len(bodies)])
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.add("http.schedule", k, t0, t1)
        return status, raw, t0, t1
    return step


def _rpc_inputs(ctx: Context) -> Tuple[list, list]:
    bases = inputs.rpc_bases(ctx.seed, RPC_BASES)
    count = WARMUP_OPS + int(RPC_BODIES_PER_S * ctx.seconds)
    return bases, inputs.rpc_requests(ctx.seed, bases, count)


def _check_rpc(res: Result, requests: list, records: list) -> None:
    for _segment, k, (status, raw, _t0, _t1) in records:
        res.check(checks.schedule_failure(status, raw,
                                          requests[k % len(requests)][1]))


def _warm_rpc(server: Server, requests: list, res: Result) -> None:
    conn = Connection(server.port)
    try:
        for k in range(WARMUP_OPS):
            status, raw = conn.request("POST", "/schedule", requests[k][0])
            res.check(checks.schedule_failure(status, raw, requests[k][1]))
    finally:
        conn.close()


def _batcher_rows(res: Result, server: Server) -> None:
    """Coalescing counts from GET /stats; absent when the service no
    longer reports them."""
    stats = server.stats() or {}
    batching = stats.get("batching")
    if isinstance(batching, dict) and batching.get("batches"):
        requests, batches = batching.get("requests"), batching["batches"]
        res.layers["batcher.mean_batch"] = (requests / batches, "count")
        res.layers["batcher.coalesced_share"] = (
            batching.get("coalesced_requests", 0) / max(requests, 1), "ratio")
    else:
        res.layers["batcher.mean_batch"] = (None, "count")
        res.layers["batcher.coalesced_share"] = (None, "ratio")


def _drain(res: Result, server: Server) -> None:
    code = server.stop()
    res.check(None if code == 0 else f"SIGTERM drain exited {code}")


def rpc_schedule(ctx: Context) -> Result:
    res = Result()
    bases, requests = _rpc_inputs(ctx)
    res.notes["base_kinds"] = dict(Counter(b.kind for b in bases))
    bodies = [body for body, _ in requests]
    samples, server = _setup_servers(ctx, journal=False)
    try:
        res.metrics["setup_s"] = (median(samples), "s")
        _warm_rpc(server, requests, res)
        with calib.PairedProbe("service") as probe:
            records, segments = _closed_loop(server.port,
                                             _rpc_step(bodies, None),
                                             WARMUP_OPS, ctx.seconds, probe)
        _timed_metrics(res, [(s, t0, t1) for s, _k, (status, _r, t0, t1)
                             in records if status is not None],
                       segments, calib.REFERENCE_S["service"],
                       coupled=True, p99=True)
        _drain(res, server)
    finally:
        server.kill()
    _check_rpc(res, requests, records)
    return res


def rpc_schedule_traced(ctx: Context) -> Result:
    import layers

    res = Result()
    bases, requests = _rpc_inputs(ctx)
    bodies = [body for body, _ in requests]
    server = Server(ctx.root, ctx.tmp / "serve.log")
    try:
        server.start()
        _warm_rpc(server, requests, res)
        plain, p_segs = _closed_loop(server.port, _rpc_step(bodies, None),
                                     WARMUP_OPS, ctx.seconds / 4, None)
        traced, t_segs = _closed_loop(server.port,
                                      _rpc_step(bodies, ctx.recorder),
                                      WARMUP_OPS + len(plain),
                                      ctx.seconds / 4, None)
        layers.overhead(res, _rate(len(plain), p_segs),
                        _rate(len(traced), t_segs))
        _batcher_rows(res, server)
        sample = requests[:BATCH_SAMPLE]
        cases = layers.schedule_cases([(json.loads(body), exp)
                                       for body, exp in sample])
        layers.replay(ctx, res, server, cases, mode="full",
                      batch=build_graphs([c.payload["graph"] for c in cases]),
                      batch_expected=[c.expected for c in cases],
                      session_graphs=[b.data for b in bases
                                      if b.kind == "clean"])
        _drain(res, server)
    finally:
        server.kill()
    _check_rpc(res, requests, plain + traced)
    return res


# ----------------------------------------------------------------------
# session-stream
# ----------------------------------------------------------------------


@dataclass
class SessionRun:
    case: int
    create: Tuple[Optional[int], float, float]
    events: List[Tuple[Optional[int], float, float]]
    final: Tuple[Optional[int], Optional[bytes]] = (None, None)
    final_span: Tuple[float, float] = (0.0, 0.0)
    session_id: Optional[str] = None


def _event_bodies(case: inputs.SessionCase) -> List[bytes]:
    return [json.dumps({"seq": i + 1, "events": [list(e)]}).encode()
            for i, e in enumerate(case.events)]


def _stream(conn: Connection, create_body: bytes, events: List[bytes],
            case: int, stop_after: Optional[int] = None) -> SessionRun:
    """Create a session and post its events one per request, in order;
    DELETE it unless *stop_after* leaves it open mid-stream."""
    t0 = time.perf_counter()
    status, raw = conn.request("POST", "/sessions", create_body)
    run = SessionRun(case, (status, t0, time.perf_counter()), [])
    body = checks.decode(raw) if status == 200 else None
    if not isinstance(body, dict) or "session" not in body:
        return run
    run.session_id = body["session"]
    path = f"/sessions/{run.session_id}"
    for event in events[:stop_after]:
        t0 = time.perf_counter()
        status, _ = conn.request("POST", path + "/events", event)
        run.events.append((status, t0, time.perf_counter()))
        if status != 200:
            return run
    if stop_after is None:
        t0 = time.perf_counter()
        run.final = conn.request("DELETE", path)
        run.final_span = (t0, time.perf_counter())
    return run


def _session_step(create_bodies: List[bytes],
                  event_bodies: List[List[bytes]],
                  recorder: Optional[Recorder]):
    """One closed-loop operation: a whole session, created, streamed one
    event per request and deleted.  Returns its SessionRun."""
    def step(conn: Connection, op: int) -> SessionRun:
        case = op % len(create_bodies)
        t0 = time.perf_counter()
        run = _stream(conn, create_bodies[case], event_bodies[case], case)
        t1 = time.perf_counter()
        if recorder is not None:
            root = recorder.add("http.session", op, t0, t1)
            recorder.add("http.create", op, *run.create[1:], root)
            for _status, e0, e1 in run.events:
                recorder.add("http.event", op, e0, e1, root)
            if run.session_id is not None:
                recorder.add("http.delete", op, *run.final_span, root)
        return run
    return step


def _event_count(done: list) -> int:
    return sum(len(run.events) for _s, _k, run in done)


def _check_sessions(res: Result, cases: List[inputs.SessionCase],
                    runs: List[SessionRun]) -> None:
    for run in runs:
        res.check(checks.status_failure(run.create[0]))
        for status, _t0, _t1 in run.events:
            res.check(checks.status_failure(status))
        if run.session_id is not None:
            res.check(checks.log_failure(*run.final,
                                         cases[run.case].expected_log))


def _session_inputs(ctx: Context):
    cases = inputs.session_cases(ctx.seed, SESSION_CASES)
    creates = [json.dumps({"graph": c.data}).encode() for c in cases]
    return cases, creates, [_event_bodies(c) for c in cases]


def _recover(ctx: Context, res: Result, server: Server,
             cases, creates, events, first: int) -> List[float]:
    """Leave OPEN_SESSIONS streams half-done, then SIGKILL and restart
    RECOVERY_SAMPLES times over the same journal dir.  After every
    restart each open session must read back exactly as before the
    first kill; after the last one each must stream to completion."""
    conn = Connection(server.port)
    open_runs, before = [], {}
    try:
        for j in range(OPEN_SESSIONS):
            case = (first + j) % len(cases)
            half = max(1, len(cases[case].events) // 2)
            run = _stream(conn, creates[case], events[case], case,
                          stop_after=half)
            res.check(checks.status_failure(run.create[0]))
            for status, _t0, _t1 in run.events:
                res.check(checks.status_failure(status))
            if run.session_id is not None and len(run.events) == half:
                open_runs.append(run)
                status, raw = conn.request("GET",
                                           f"/sessions/{run.session_id}")
                before[run.session_id] = checks.strip_unchecked(
                    checks.decode(raw))
    finally:
        conn.close()
    samples = []
    for i in range(RECOVERY_SAMPLES):
        server.kill()
        server.log_path = ctx.tmp / f"restart-{i}.log"
        samples.append(server.start())
        match = RECOVERED_RE.search(server.log_path.read_bytes())
        res.check(None if match and int(match.group(1)) == len(open_runs)
                  else "restart did not recover every open session")
        conn = Connection(server.port)
        try:
            for run in open_runs:
                status, raw = conn.request("GET",
                                           f"/sessions/{run.session_id}")
                same = (status == 200 and checks.strip_unchecked(
                    checks.decode(raw)) == before[run.session_id])
                res.check(None if same else
                          "recovered session differs from pre-kill state")
        finally:
            conn.close()
    conn = Connection(server.port)
    try:
        for run in open_runs:
            path = f"/sessions/{run.session_id}"
            for event in events[run.case][len(run.events):]:
                status, _ = conn.request("POST", path + "/events", event)
                res.check(checks.status_failure(status))
            res.check(checks.log_failure(*conn.request("DELETE", path),
                                         cases[run.case].expected_log))
    finally:
        conn.close()
    return samples


def _warm_sessions(server: Server, cases, creates, events,
                   res: Result) -> None:
    conn = Connection(server.port)
    try:
        runs = [_stream(conn, creates[k % len(cases)],
                        events[k % len(cases)], k % len(cases))
                for k in range(WARMUP_OPS // 10)]
    finally:
        conn.close()
    _check_sessions(res, cases, runs)


def session_stream(ctx: Context) -> Result:
    res = Result()
    cases, creates, events = _session_inputs(ctx)
    samples, server = _setup_servers(ctx, journal=True)
    try:
        res.metrics["setup_s"] = (median(samples), "s")
        _warm_sessions(server, cases, creates, events, res)
        with calib.PairedProbe("service") as probe:
            done, segments = _closed_loop(
                server.port, _session_step(creates, events, None), 0,
                ctx.seconds, probe)
        runs = [run for _s, _k, run in done]
        _timed_metrics(res, [(s, e0, e1) for s, _k, run in done
                             for status, e0, e1 in run.events
                             if status == 200], segments,
                       calib.REFERENCE_S["service"], coupled=True, p99=True)
        creates_ms = [(r.create[2] - r.create[1]) * 1e3 for r in runs
                      if r.create[0] == 200]
        res.table["session_create_p50_ms"] = (median(creates_ms), "ms")
        res.notes["sessions_completed"] = len(runs)
        recovery = _recover(ctx, res, server, cases, creates, events,
                            len(runs))
        res.table["recovery_s"] = (median(recovery), "s")
        res.notes["recovery_samples_s"] = recovery
        _drain(res, server)
    finally:
        server.kill()
    _check_sessions(res, cases, runs)
    return res


def session_stream_traced(ctx: Context) -> Result:
    import layers

    res = Result()
    cases, creates, events = _session_inputs(ctx)
    server = Server(ctx.root, ctx.tmp / "serve.log", ctx.tmp / "journals")
    try:
        server.start()
        _warm_sessions(server, cases, creates, events, res)
        plain, p_segs = _closed_loop(
            server.port, _session_step(creates, events, None), 0,
            ctx.seconds / 4, None)
        traced, t_segs = _closed_loop(
            server.port, _session_step(creates, events, ctx.recorder),
            len(plain), ctx.seconds / 4, None)
        layers.overhead(res, _rate(_event_count(plain), p_segs),
                        _rate(_event_count(traced), t_segs))
        _batcher_rows(res, server)
        sched = layers.schedule_cases(
            [({"graph": c.data}, inputs.reference(c.data)[0])
             for c in cases])
        layers.replay(ctx, res, server, sched, mode="full",
                      batch=build_graphs([c.data for c in cases]),
                      batch_expected=[c.expected for c in sched],
                      session_graphs=[c.data for c in cases])
        _drain(res, server)
    finally:
        server.kill()
    _check_sessions(res, cases, [run for _s, _k, run in plain + traced])
    return res


# ----------------------------------------------------------------------
# kernel-offline
# ----------------------------------------------------------------------


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter running ``import repro``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], cwd=root,
                   env=env, check=True)
    return time.perf_counter() - t0


def build_graphs(datas: List[Dict[str, Any]]) -> list:
    from repro.qa.serialize import graph_from_dict

    gc.disable()
    try:
        return [graph_from_dict(d) for d in datas]
    finally:
        gc.enable()


def _large_rounds(ctx: Context, res: Result, large: list, seconds: float,
                  recorder: Optional[Recorder], tag: str, probe: bool
                  ) -> Tuple[list, list]:
    """Rounds over the large graphs until *seconds* of scheduling time
    have been measured.

    A round schedules every large graph once, in a seeded order, each
    time as a fresh renamed isomorph built before its timer starts
    (``inputs.renamed_large``: the order of a graph changes its cost,
    so a run averages over many orders).  With *probe*, a calibration
    probe follows every operation.  With a *recorder*, the kernel
    stages are wrapped in spans inside the timed region.

    Returns the operations ``(segment, start, end)`` and the segments,
    one per operation, for ``_timed_metrics``.
    """
    from repro.core.exceptions import ConstraintGraphError
    from repro.core.scheduler import schedule_graph

    rng = random.Random(f"{ctx.seed}:rounds:{tag}")
    ops: list = []
    segments: list = []
    if recorder is None:
        instrument = contextlib.nullcontext()
        span = lambda *_: contextlib.nullcontext()  # noqa: E731
    else:
        import layers
        instrument = layers.Instrument(recorder, layers.KERNEL_LAYERS)
        span = recorder.span
    with instrument:
        while not ops or sum(w for w, _p, _s in segments) < seconds:
            order = list(range(len(large)))
            rng.shuffle(order)
            for i in order:
                variant = inputs.renamed_large(large[i], rng)
                graph = build_graphs([variant.data])[0]
                gc.collect()
                steal = calib.steal_ticks()
                t0 = time.perf_counter()
                try:
                    with span("kernel.schedule_graph", len(ops)):
                        schedule = schedule_graph(graph)
                    failure = None
                except ConstraintGraphError as error:
                    schedule, failure = None, (f"schedule_graph raised "
                                               f"{error!r}")
                t1 = time.perf_counter()
                ops.append((len(segments), t0, t1))
                if probe:
                    probe_s = calib.probe("kernel")
                    segments.append((t1 - t0, probe_s, calib.steal_shares(
                        steal, calib.steal_ticks(),
                        time.perf_counter() - t0)))
                else:
                    segments.append((t1 - t0, None, None))
                if schedule is not None:
                    same = (inputs.plain_offsets(schedule.offsets)
                            == variant.offsets)
                    failure = None if same else "large-graph offsets differ"
                res.check(failure)
                del schedule, graph
    return ops, segments


def _corpus_expected(corpus: inputs.Corpus) -> list:
    return [inputs.rename_expected(corpus.expected[b], m)
            for b, m in zip(corpus.base_of, corpus.mapping)]


def check_batch(res: Result, run, expected: list) -> None:
    """Every schedule_many verdict against the reference, graph by graph."""
    for result, (kind, value) in zip(run.results, expected):
        if kind == "error":
            res.check(None if result.error_type == value else
                      f"batch verdict {result.error_type}, reference {value}")
        elif result.error is not None:
            res.check(f"batch raised {result.error_type}, reference ok")
        else:
            same = inputs.plain_offsets(result.schedule.offsets) == value
            res.check(None if same else "batch offsets differ")


def _corpus_run(res: Result, built: list, expected: list) -> float:
    """One ``schedule_many`` over the freshly built corpus, checked graph
    by graph; returns its wall time."""
    from repro.core.batch import schedule_many

    gc.collect()
    t0 = time.perf_counter()
    run = schedule_many(built)
    seconds = time.perf_counter() - t0
    check_batch(res, run, expected)
    return seconds


def _kernel_inputs(ctx: Context):
    large = inputs.large_graphs(ctx.seed)
    corpus = inputs.corpus(ctx.seed)
    expected = _corpus_expected(corpus)
    built = build_graphs(corpus.graphs)
    gc.collect()
    gc.freeze()   # the inputs are long-lived: keep them out of GC passes
    return large, corpus, expected, built


def kernel_offline(ctx: Context) -> Result:
    res = Result()
    samples = [import_seconds(ctx.root) for _ in range(SETUP_SAMPLES)]
    res.metrics["setup_s"] = (median(samples), "s")
    large, corpus, expected, built = _kernel_inputs(ctx)
    ops, segments = _large_rounds(ctx, res, large,
                                  ctx.seconds * KERNEL_LARGE_SHARE, None,
                                  "timed", probe=True)
    # Every operation counts: graphs over the time spent scheduling them.
    # A run has ~40 operations, too few for a p99.
    _timed_metrics(res, ops, segments, calib.REFERENCE_S["kernel"],
                   coupled=False, p99=False)
    res.notes["rounds"] = len(ops) / len(large)
    seconds = _corpus_run(res, built, expected)
    res.table["corpus_graphs_per_s"] = (len(built) / seconds, "1/s")
    return res


def _has_duplicate_edge(data: Dict[str, Any]) -> bool:
    edges = [tuple(sorted(e.items())) for e in data["edges"]]
    return len(set(edges)) < len(edges)


def kernel_offline_traced(ctx: Context) -> Result:
    import layers

    res = Result()
    large, corpus, expected, built = _kernel_inputs(ctx)
    share = ctx.seconds * KERNEL_LARGE_SHARE / 4
    # The same seeded graph orders in both loops (one tag).
    plain = _large_rounds(ctx, res, large, share, None, "overhead", False)
    traced = _large_rounds(ctx, res, large, share, ctx.recorder, "overhead",
                           False)
    layers.overhead(res, _rate(len(plain[0]), plain[1]),
                    _rate(len(traced[0]), traced[1]))
    # The service rejects exact duplicate edges (strict validation), which
    # the chain-ladder recipe can produce; replay the others.
    sample = [i for i in range(0, len(built), max(1, len(built) // 200))
              if not _has_duplicate_edge(corpus.graphs[i])]
    sched = layers.schedule_cases(
        [({"graph": corpus.graphs[i]}, expected[i]) for i in sample])
    server = Server(ctx.root, ctx.tmp / "serve.log")
    try:
        server.start()
        layers.replay(ctx, res, server, sched, mode="irredundant",
                      kernel_cases=[(g.data, g.offsets) for g in large],
                      batch=built, batch_expected=expected,
                      session_graphs=[d for d, e in zip(corpus.bases,
                                                        corpus.expected)
                                      if e[0] == "ok"
                                      and not _has_duplicate_edge(d)])
        _batcher_rows(res, server)
        _drain(res, server)
    finally:
        server.kill()
    return res


WORKLOADS = {
    "rpc-schedule": (rpc_schedule, rpc_schedule_traced),
    "session-stream": (session_stream, session_stream_traced),
    "kernel-offline": (kernel_offline, kernel_offline_traced),
}


def cleanup(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
