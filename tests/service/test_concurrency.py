"""Concurrency correctness: the service under parallel fire.

The load-bearing test is the differential one: N client threads push a
mixed corpus through a live server (shared cache, small pool) and
every response must be *bit-identical* to a serial
``schedule_graph(anchor_mode=FULL)`` run of the same graph -- the
worker pool, the shared cache and the contextvar tracer must all be
invisible to results.
"""

import random
import threading

import pytest

from repro.core.anchors import AnchorMode
from repro.core.scheduler import schedule_graph
from repro.designs.random_graphs import random_constraint_graph
from repro.io import schedule_to_dict
from repro.qa.serialize import graph_to_dict
from repro.service import (
    PoolSaturatedError,
    ServiceClient,
    WorkerPool,
)

from tests.service.test_endpoints import make_server, stop_server


def mixed_corpus(n_graphs, seed):
    rng = random.Random(seed)
    graphs = []
    for _ in range(n_graphs):
        graphs.append(random_constraint_graph(
            rng, rng.randint(6, 30),
            edge_probability=rng.uniform(0.1, 0.3),
            unbounded_probability=rng.uniform(0.1, 0.4),
            n_min_constraints=rng.randint(0, 4),
            n_max_constraints=rng.randint(0, 3)))
    return graphs


class TestDifferential:
    N_THREADS = 8
    PER_THREAD = 6

    def test_concurrent_schedule_bit_identical_to_serial(self, tmp_path):
        corpus = mixed_corpus(self.N_THREADS * self.PER_THREAD, seed=1990)
        expected = [
            schedule_to_dict(schedule_graph(g, anchor_mode=AnchorMode.FULL))
            for g in corpus]
        payloads = [graph_to_dict(g) for g in corpus]

        server, thread = make_server(
            workers=4, cache_path=str(tmp_path / "cache.jsonl"))
        failures = []
        barrier = threading.Barrier(self.N_THREADS)

        def worker(thread_index):
            with ServiceClient(port=server.port, timeout=60) as client:
                barrier.wait()
                for k in range(self.PER_THREAD):
                    index = thread_index * self.PER_THREAD + k
                    status, body = client.schedule(payloads[index])
                    if status != 200:
                        failures.append((index, status, body))
                    elif body["schedule"] != expected[index]:
                        failures.append((index, "mismatch", body["schedule"]))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N_THREADS)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            stop_server(server, thread)
        assert not failures, failures[:3]

    def test_repeat_requests_hit_shared_cache(self, tmp_path):
        graph = mixed_corpus(1, seed=7)[0]
        payload = graph_to_dict(graph)
        server, thread = make_server(
            workers=2, cache_path=str(tmp_path / "cache.jsonl"))
        try:
            with ServiceClient(port=server.port) as client:
                first = client.schedule(payload)
                repeats = [client.schedule(payload) for _ in range(5)]
                _, stats = client.stats()
        finally:
            stop_server(server, thread)
        assert first[0] == 200
        assert all(status == 200 for status, _ in repeats)
        schedules = {tuple(sorted(body["schedule"]["offsets"]))
                     for _, body in [first] + repeats}
        assert len(schedules) == 1
        assert stats["cache"]["hits"] >= 1


class TestAdmission:
    def test_saturated_pool_answers_503(self):
        # One worker, a one-slot queue, and a blocking job: the next
        # submissions must be refused, not queued without bound.
        pool = WorkerPool(workers=1, queue_capacity=1)
        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            release.wait(30)

        blocker = pool.submit(block)
        assert started.wait(10)
        pool.submit(lambda: None)  # fills the single queue slot
        with pytest.raises(PoolSaturatedError):
            pool.submit(lambda: None)
        release.set()
        blocker.wait(10)
        pool.shutdown()

    def test_health_answers_while_pool_is_saturated(self):
        server, thread = make_server(workers=1, queue_capacity=1)
        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            release.wait(30)

        job = server.pool.submit(block)
        assert started.wait(10)
        server.pool.submit(lambda: None)
        try:
            with ServiceClient(port=server.port, timeout=10) as client:
                status, body = client.healthz()
                assert status == 200  # GET bypasses the pool
                status, body = client.schedule({"vertices": []})
                assert status == 503
                assert body["error_type"] == "PoolSaturatedError"
        finally:
            release.set()
            job.wait(10)
            stop_server(server, thread)

