#!/usr/bin/env python
"""Service throughput benchmark: the HTTP layer must stay thin.

Starts a real :class:`repro.service.ServiceServer` on an ephemeral port
(in-process, so the numbers need no separate server to be running),
fires a mixed corpus of serialized graphs at ``/schedule`` from
concurrent client threads, and reports requests/sec and latency
percentiles for two phases:

* **cold** -- first pass over the corpus: every request schedules for
  real (analysis caches empty, persistent cache empty);
* **warm** -- repeated passes over the same corpus: the shared
  :class:`~repro.core.resultcache.ScheduleCache` answers from canonical
  keys, so these numbers measure the service overhead (HTTP parse,
  dispatch, pool hop, serialization) more than the scheduler.

The **direct** baseline times ``schedule_graph(anchor_mode=FULL)`` on
the same graphs in the same process -- the warm service p50 over it is
the per-request service tax, which :mod:`benchmarks.perf_guard` gates
(``service_throughput``: warm p50 within 3x of direct, plus the noise
floor).

Usage::

    python benchmarks/bench_service.py            # writes BENCH_service.json
    python benchmarks/bench_service.py --quick    # CI smoke sizes
"""

import argparse
import json
import platform
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.anchors import AnchorMode  # noqa: E402
from repro.core.scheduler import schedule_graph  # noqa: E402
from repro.designs.random_graphs import random_constraint_graph  # noqa: E402
from repro.qa.serialize import graph_to_dict  # noqa: E402
from repro.service import ServiceClient, ServiceConfig, ServiceServer  # noqa: E402

#: Corpus recipe: request-sized graphs (tens of vertices), the shape a
#: synthesis frontend would POST one design at a time.
FULL = {"n_graphs": 120, "n_lo": 8, "n_hi": 48, "threads": 8,
        "warm_passes": 3}
QUICK = {"n_graphs": 30, "n_lo": 8, "n_hi": 24, "threads": 4,
         "warm_passes": 2}


def make_corpus(n_graphs, n_lo, n_hi, seed=1990):
    rng = random.Random(seed)
    graphs = []
    for _ in range(n_graphs):
        graphs.append(random_constraint_graph(
            rng, rng.randint(n_lo, n_hi),
            edge_probability=rng.uniform(0.1, 0.3),
            unbounded_probability=rng.uniform(0.1, 0.35),
            n_min_constraints=rng.randint(0, 4),
            n_max_constraints=rng.randint(0, 3)))
    return graphs


def percentile(sorted_values, q):
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return round(sorted_values[index] * 1e3, 3)


def fire(port, payloads, n_threads):
    """One pass over *payloads* from *n_threads* clients; returns
    (elapsed_s, per-request latencies in seconds)."""
    latencies = []
    failures = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_threads + 1)

    def worker(thread_index):
        mine = payloads[thread_index::n_threads]
        own = []
        with ServiceClient(port=port, timeout=120) as client:
            barrier.wait()
            for payload in mine:
                t0 = time.perf_counter()
                status, body = client.schedule(payload)
                own.append(time.perf_counter() - t0)
                if status != 200:
                    failures.append((status, body))
        with lock:
            latencies.extend(own)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if failures:
        raise AssertionError(f"{len(failures)} failed requests, first: "
                             f"{failures[0]}")
    return elapsed, latencies


def bench_service(quick=False, workers=4):
    """Run the service workload; returns the BENCH_service workload dict."""
    recipe = QUICK if quick else FULL
    corpus = make_corpus(recipe["n_graphs"], recipe["n_lo"], recipe["n_hi"])
    payloads = [graph_to_dict(g) for g in corpus]

    # Direct baseline first (no server running): FULL mode, the mode the
    # coalesced service path answers in.
    direct_cold = []
    for graph in corpus:
        fresh = graph.copy()
        t0 = time.perf_counter()
        schedule_graph(fresh, anchor_mode=AnchorMode.FULL)
        direct_cold.append(time.perf_counter() - t0)
    direct_warm = []
    for graph in corpus:  # analysis caches now warm on *graph* itself
        schedule_graph(graph, anchor_mode=AnchorMode.FULL)
        t0 = time.perf_counter()
        schedule_graph(graph, anchor_mode=AnchorMode.FULL)
        direct_warm.append(time.perf_counter() - t0)

    with tempfile.TemporaryDirectory() as tmp:
        server = ServiceServer(ServiceConfig(
            port=0, workers=workers,
            cache_path=str(Path(tmp) / "bench_cache.jsonl")))
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            cold_s, cold_lat = fire(server.port, payloads,
                                    recipe["threads"])
            warm_s, warm_lat = 0.0, []
            for _ in range(recipe["warm_passes"]):
                elapsed, latencies = fire(server.port, payloads,
                                          recipe["threads"])
                warm_s += elapsed
                warm_lat.extend(latencies)
            with ServiceClient(port=server.port) as client:
                _, stats = client.stats()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    cold_lat.sort()
    warm_lat.sort()
    direct_cold.sort()
    direct_warm.sort()
    n = len(payloads)
    return {
        "name": f"service-{n}x{recipe['threads']}t",
        "n_graphs": n,
        "client_threads": recipe["threads"],
        "workers": workers,
        "warm_passes": recipe["warm_passes"],
        "cold": {
            "requests_per_s": round(n / cold_s, 1),
            "p50_ms": percentile(cold_lat, 0.50),
            "p99_ms": percentile(cold_lat, 0.99),
        },
        "warm": {
            "requests_per_s": round(n * recipe["warm_passes"] / warm_s, 1),
            "p50_ms": percentile(warm_lat, 0.50),
            "p99_ms": percentile(warm_lat, 0.99),
        },
        "direct": {
            "cold_p50_ms": percentile(direct_cold, 0.50),
            "warm_p50_ms": percentile(direct_warm, 0.50),
        },
        "server_stats": {
            "cache": stats.get("cache"),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small corpus / fewer threads (CI smoke)")
    parser.add_argument("--workers", type=int, default=4,
                        help="service worker-pool size (default 4)")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = bench_service(args.quick, args.workers)
    report = {
        "meta": {
            "schema": 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
            "timer": "per-request wall latency over concurrent client "
                     "threads; throughput = requests / pass wall time",
        },
        "workloads": [workload],
        "headline": {
            "workload": workload["name"],
            "stage": "warm_requests_per_s",
            "requests_per_s": workload["warm"]["requests_per_s"],
        },
    }
    print(f"{workload['name']}: cold {workload['cold']['requests_per_s']} "
          f"req/s (p50 {workload['cold']['p50_ms']} ms, "
          f"p99 {workload['cold']['p99_ms']} ms), "
          f"warm {workload['warm']['requests_per_s']} req/s "
          f"(p50 {workload['warm']['p50_ms']} ms, "
          f"p99 {workload['warm']['p99_ms']} ms)")
    print(f"  direct schedule_graph p50: cold "
          f"{workload['direct']['cold_p50_ms']} ms, "
          f"warm {workload['direct']['warm_p50_ms']} ms")
    print(f"  server: {workload['workers']} workers, "
          f"stats {workload['server_stats']}")
    output = args.output or REPO_ROOT / "BENCH_service.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
