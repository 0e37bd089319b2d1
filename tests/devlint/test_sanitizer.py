"""Unit tests for the lock-order sanitizer (repro.sanitize)."""

import os
import subprocess
import sys
import threading

from repro.sanitize import (
    Recorder,
    TrackedLock,
    TrackedRLock,
    install_io_hooks,
    make_lock,
    make_rlock,
    uninstall_io_hooks,
)

REPO = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


def test_disabled_factories_return_plain_primitives():
    """REPRO_SANITIZE=0 (this test process): zero wrapper, zero cost."""
    assert type(make_lock("x")) is type(threading.Lock())
    assert type(make_rlock("x")) is type(threading.RLock())


def test_inversion_is_detected():
    recorder = Recorder()
    a = TrackedLock(recorder, "a")
    b = TrackedLock(recorder, "b")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    report = recorder.report()
    assert len(report["cycles"]) == 1
    assert report["cycles"][0]["path"] in ("a -> b -> a", "b -> a -> b")
    assert all(witness for witness in report["cycles"][0]["witnesses"])


def test_consistent_order_is_clean():
    recorder = Recorder()
    a = TrackedLock(recorder, "a")
    b = TrackedLock(recorder, "b")
    for _ in range(3):
        with a:
            with b:
                pass
    report = recorder.report()
    assert report["cycles"] == []
    assert list(report["order_edges"]) == ["a -> b"]


def test_three_way_cycle():
    recorder = Recorder()
    locks = {name: TrackedLock(recorder, name) for name in "abc"}
    for outer, inner in (("a", "b"), ("b", "c"), ("c", "a")):
        with locks[outer]:
            with locks[inner]:
                pass
    assert len(recorder.cycles()) == 1


def test_rlock_reentrancy_is_not_a_self_edge():
    recorder = Recorder()
    lock = TrackedRLock(recorder, "graph.cache")
    with lock:
        with lock:
            pass
    report = recorder.report()
    assert report["order_edges"] == {}
    assert report["cycles"] == []


def test_release_out_of_order_unwinds_correctly():
    recorder = Recorder()
    a = TrackedLock(recorder, "a")
    b = TrackedLock(recorder, "b")
    a.acquire()
    b.acquire()
    a.release()  # not LIFO; the stack must drop the right entry
    assert recorder.held() == ["b"]
    b.release()
    assert recorder.held() == []


def test_io_under_plain_lock_is_flagged():
    recorder = Recorder()
    lock = TrackedLock(recorder, "sessions.table")
    with lock:
        recorder.note_io("fsync", "fd=7")
    findings = recorder.report()["io_findings"]
    assert len(findings) == 1
    assert findings[0]["kind"] == "fsync"
    assert findings[0]["locks"] == "sessions.table"


def test_io_under_io_ok_lock_is_declared_clean():
    recorder = Recorder()
    lock = TrackedLock(recorder, "journal.append", io_ok=True)
    with lock:
        recorder.note_io("flock", "fd=7")
    assert recorder.report()["io_findings"] == []


def test_io_with_no_lock_held_is_clean():
    recorder = Recorder()
    recorder.note_io("fsync")
    assert recorder.report()["io_findings"] == []


def test_fsync_hook_reports_held_lock(tmp_path):
    recorder = Recorder()
    lock = TrackedLock(recorder, "table")
    install_io_hooks(recorder)
    try:
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with lock:
                os.fsync(fd)
        finally:
            os.close(fd)
    finally:
        uninstall_io_hooks()
    findings = recorder.report()["io_findings"]
    assert [f["kind"] for f in findings] == ["fsync"]
    assert findings[0]["locks"] == "table"


def test_cross_thread_orders_merge():
    recorder = Recorder()
    a = TrackedLock(recorder, "a")
    b = TrackedLock(recorder, "b")

    def forward():
        with a:
            with b:
                pass

    def backward():
        with b:
            with a:
                pass

    t1 = threading.Thread(target=forward)
    t1.start()
    t1.join()
    t2 = threading.Thread(target=backward)
    t2.start()
    t2.join()
    assert len(recorder.report()["cycles"]) == 1


def test_reset_clears_state():
    recorder = Recorder()
    a = TrackedLock(recorder, "a")
    with a:
        recorder.note_io("fsync")
    recorder.reset()
    report = recorder.report()
    assert report["order_edges"] == {}
    assert report["io_findings"] == []
    assert report["acquisitions"] == 0


def test_env_enabled_process_tracks_and_reports():
    """End to end under REPRO_SANITIZE=1: the session-table path is
    clean (the eviction fsync happens outside the table lock)."""
    code = (
        "import json, tempfile\n"
        "import repro.sanitize as san\n"
        "from repro.service.sessions import SessionTable\n"
        "from repro.runtime.executor import OnlineExecutor\n"
        "from repro.core.graph import ConstraintGraph\n"
        "assert san.enabled()\n"
        "tmp = tempfile.mkdtemp()\n"
        "table = SessionTable(journal_dir=tmp, cap=1, ttl_s=3600.0)\n"
        "def executor_for():\n"
        "    g = ConstraintGraph('src')\n"
        "    g.add_operation('op', 1)\n"
        "    g.add_sequencing_edge('src', 'op')\n"
        "    return OnlineExecutor.from_graph(g)\n"
        "for _ in range(3):\n"  # cap=1 -> two evictions with journals
        "    table.create(executor_for(), graph_dict={}, mode='full',\n"
        "                 watchdog=None, source_done=0,\n"
        "                 auto_well_pose=True)\n"
        "assert table.evictions >= 2\n"
        "report = san.report()\n"
        "assert report['enabled']\n"
        "assert report['acquisitions'] > 0, report\n"
        "assert report['cycles'] == [], report\n"
        "assert report['io_findings'] == [], report\n"
        "print(json.dumps(sorted(report['order_edges'])))\n")
    env = dict(os.environ)
    env["REPRO_SANITIZE"] = "1"
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_eviction_syncs_journal_outside_table_lock(tmp_path):
    """Regression for the held-lock fsync the sanitizer surfaced:
    journal.sync during eviction must run after the table lock drops."""
    from repro.service.sessions import Session, SessionTable

    table = SessionTable(journal_dir=str(tmp_path), cap=1, ttl_s=3600.0)
    observed = []

    class SpyJournal:
        def sync(self):
            # The table lock must be re-acquirable here.
            free = table._lock.acquire(blocking=False)
            if free:
                table._lock.release()
            observed.append(free)

        def append_open(self, *args, **kwargs):
            pass

    for index in range(3):
        session = Session(f"sid{index}", executor=object(),
                          journal=SpyJournal())
        table._admit(session)
    assert len(observed) >= 2
    assert all(observed), "journal.sync ran while the table lock was held"
