"""Regenerate the stored kernel-offline large graphs and their reference
schedules: ``data/large_graphs.json.gz`` (the set every tuning seed uses)
and ``data/large_graphs_heldout.json.gz`` (the set only the held-out seed
uses).

The graphs follow the random recipe of ``benchmarks/run_benchsuite.py``
(forward degree ~40, 15% unbounded operations, n/8 minimum and n/16
maximum constraints) at ``random.Random(base + n)``, with base 1990 for
the tuning set and the held-out seed for the other.  Generating an
n=1600 graph takes ~13 s and its reference schedule ~9 s on a 2-core
x86 box, too slow to repeat in every run, so both are stored here.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_large_graphs.py [tuning|held-out]

With no argument both sets are written.
"""

from __future__ import annotations

import gzip
import json
import random
import sys

from inputs import LARGE_SETS, LARGE_SIZES, plain_offsets


def write_set(name: str) -> None:
    from repro.core.reference import schedule_graph_reference
    from repro.designs.random_graphs import random_constraint_graph
    from repro.qa.serialize import graph_to_dict

    path, base = LARGE_SETS[name]
    graphs = []
    for n in LARGE_SIZES:
        graph = random_constraint_graph(
            random.Random(base + n), n,
            edge_probability=min(0.15, 40 / n), unbounded_probability=0.15,
            n_min_constraints=n // 8, n_max_constraints=n // 16)
        schedule = schedule_graph_reference(graph.copy())
        graphs.append({"n": n, "anchors": len(graph.anchors),
                       "graph": graph_to_dict(graph),
                       "offsets": plain_offsets(schedule.offsets)})
        print(f"{name} n={n}: {len(graph.anchors)} anchors, "
              f"{schedule.iterations} iterations", flush=True)
    path.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(path, "wb", compresslevel=9, mtime=0) as out:
        out.write(json.dumps({"recipe": f"run_benchsuite random, "
                                        f"Random({base} + n)",
                              "mode": "irredundant", "graphs": graphs},
                             separators=(",", ":")).encode("utf-8"))


def main(argv=None) -> None:
    for name in (argv if argv else list(LARGE_SETS)):
        write_set(name)


if __name__ == "__main__":
    main(sys.argv[1:])
