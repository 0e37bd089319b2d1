"""The repository's benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload rpc-schedule --seed 1 --seconds 30 --trace 0

Workloads (the reason for each gated one is in ``BENCHMARK.json``):

* ``rpc-schedule``   -- closed loop of ``POST /schedule`` over 2
  keep-alive connections against ``python -m repro serve``;
* ``kernel-offline`` -- ``schedule_graph`` on large graphs, then
  ``schedule_many`` over the batch corpus, in this process;
* ``session-stream`` -- closed loop of durable sessions (create, one
  completion event per request, delete) over 2 connections against a
  journaled server, then SIGKILL + restart recovery of open sessions.
  It runs and checks like the others but is not in ``BENCHMARK.json``:
  on a 2-core box shared with other tenants its throughput moved by
  up to 43% (IQR over median, 10 seeds) with the CPU time they took,
  past the largest regression bound a gated metric may have.  Its
  layers are measured by the traced run of the other two workloads.

The gated timings, ``scaled_ops_per_s`` and ``scaled_latency_p50_ms``,
have the time the hypervisor stole from the box's CPUs taken out and
are rescaled to a reference machine speed by a calibration probe timed
between segments of the run (``calib.py``); the raw ``ops_per_s`` and
``latency_*_ms`` are printed beside them.

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
runs the same loop twice (untraced, then with spans) and replays the
inputs through each layer (``layers.py``) for the per-layer metrics.
Every answer is checked against the reference kernel or
``execute_stream``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record -- provenance, every metric, the failure reasons and, for traced
runs, the spans -- goes to ``.perfbench/results/``.

Seeds 1-99 were used while the benchmark was tuned.
``inputs.HELD_OUT_SEED`` was not, and it alone selects the held-out set
of large graphs; re-check a claimed gain on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"


def provenance(root: Path, seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed, "held_out_seed": seed == inputs.HELD_OUT_SEED}


def cpu_jiffies() -> list:
    """The aggregate ``cpu`` line of /proc/stat (empty where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list, after: list) -> float:
    """Share of CPU time the hypervisor gave to other guests between
    two /proc/stat readings: other tenants' load, which slows a run."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rpc-schedule", "session-stream",
                                 "kernel-offline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ctx = workloads.Context(
        root=ROOT, seed=args.seed, seconds=args.seconds,
        tmp=STATE_DIR / "tmp" / f"{tag}-{os.getpid()}",
        recorder=spans.Recorder() if args.trace else None)
    untraced, traced = workloads.WORKLOADS[args.workload]
    jiffies = cpu_jiffies()
    try:
        res = (traced if args.trace else untraced)(ctx)
    finally:
        workloads.cleanup(ctx.tmp)
    res.notes["cpu_steal_share"] = steal_share(jiffies, cpu_jiffies())

    failed_share = res.failed / max(res.attempted, 1)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        rows = dict(res.layers)
        title = f"per-layer metrics, {args.workload} (traced run)"
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        rows = dict(res.metrics, **res.table,
                    failed_share=(failed_share, "ratio"))
        title = f"end-to-end metrics, {args.workload}"
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<32} {_fmt(value):>14} {unit}")
    print(f"  checked operations: {res.attempted}, failed: {res.failed}")
    for reason, count in res.failures.most_common():
        print(f"  FAILED x{count}: {reason}")
    if "latency_samples" in res.notes:
        print(f"  latency samples: {res.notes['latency_samples']}")
    print(f"  CPU time stolen by other tenants: "
          f"{_fmt(res.notes['cpu_steal_share'])}")
    if args.trace:
        print(f"  spans: {len(ctx.recorder.spans)}; replayed operations "
              f"outside the {spans.COVER_TOLERANCE:.0%} coverage "
              f"tolerance: {res.notes['trace_uncovered_ops']} of "
              f"{res.notes['trace_checked_ops']}")

    STATE_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace,
              "provenance": provenance(ROOT, args.seed),
              "attempted": res.attempted, "failed": res.failed,
              "failures": dict(res.failures),
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in rows.items()},
              "notes": res.notes}
    out = STATE_DIR / "results" / f"{tag}.json"
    out.write_text(json.dumps(record, indent=2, default=str))
    if args.trace:
        ctx.recorder.dump(STATE_DIR / "results" / f"{tag}-spans.jsonl")
    print(f"  record: {out.relative_to(ROOT)}")

    metrics = {}
    for name in names:
        value, unit = rows[name]
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": res.failed == 0 and res.attempted > 0,
                      "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
