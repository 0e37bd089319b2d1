"""Machine-speed calibration for the gated timings.

The benchmark runs on a few cores of a shared host whose speed moves
with other tenants' load, by up to 3x between runs minutes apart.
Process CPU time does not remove it (it is slower cycles, not stolen
ones).  So the benchmark times a fixed probe next to the program and
rescales each measured interval to the speed at which the probe takes
its reference time: ``scaled = measured * reference / probe``.  A probe
owes nothing to the repository's code, so a change to the program
cannot move it; the raw, unscaled figures are reported too.

Each probe imitates the work of the workload it calibrates, because
other tenants slow interpreter-bound and memory-bound code by different
amounts:

* ``kernel`` -- depth-first reachability over int-indexed adjacency
  lists with bytearray visited sets and big-int slot masks, then numpy
  column sweeps over a ~1.5 MB float matrix (the anchor analyses of
  ``schedule_graph`` on large graphs);
* ``service`` -- decode a ~20 kB wire-format graph, index it in name
  keyed dicts, relax longest paths over it and encode the result (the
  server's work per ``/schedule`` request).

The HTTP workloads keep both cores busy (load generator and server),
so they are calibrated by PairedProbe, the probe on two cores at once.
Run as a script, this module is PairedProbe's helper process.

The hypervisor also takes whole slices of time from the VM's CPUs
("steal", counted per CPU in /proc/stat).  A probe's two lanes each
lose their own CPU's share, but the request loop stalls when either
CPU is taken, so it loses much more (throughput fell by more than half
at about 30% steal per CPU).  So the benchmark takes stolen time out of both measures
before it compares them (``ran_share``).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Callable, Dict, List

import numpy as np

_rng = random.Random(20240601)

# -- kernel ------------------------------------------------------------

_N, _M = 1200, 160
_ADJ = [[_rng.randrange(_N) for _ in range(3)] for _ in range(_N)]
_SOURCES = [_rng.randrange(_N) for _ in range(80)]
_MATRIX = np.array([[_rng.random() * 100 for _ in range(_M)]
                    for _ in range(_N)])
_COLUMNS = [np.array(sorted(_rng.sample(range(_M), 40)), dtype=np.intp)
            for _ in range(_M)]


def _kernel_pass() -> int:
    masks = [0] * _N
    for slot, source in enumerate(_SOURCES):
        bit = 1 << slot
        visited = bytearray(_N)
        visited[source] = 1
        stack = [source]
        while stack:
            current = stack.pop()
            masks[current] |= bit
            for head in _ADJ[current]:
                if not visited[head] and not (masks[head] >> (slot // 2)) & 1:
                    visited[head] = 1
                    stack.append(head)
    marked = np.zeros((_N, _M), dtype=bool)
    for r in range(0, _M, 8):
        xs = _COLUMNS[r]
        cond = _MATRIX[:, xs] <= _MATRIX[r, xs] + _MATRIX[:, r:r + 1]
        cond &= _MATRIX[:, xs] > 5.0
        marked[:, xs] |= cond
    return sum(m.bit_count() for m in masks) + int(marked.sum())


# -- service -----------------------------------------------------------

def _wire_graph(n: int, edges: int) -> bytes:
    names = [f"op{k}_{_rng.randrange(10**6)}" for k in range(n)]
    return json.dumps({"graph": {
        "source": "src", "sink": "snk",
        "vertices": [{"name": v, "delay": _rng.randrange(8)} for v in names],
        "edges": [{"from": names[a], "to": names[b],
                   "weight": _rng.randrange(-4, 9)}
                  for a, b in sorted((_rng.randrange(n), _rng.randrange(n))
                                     for _ in range(edges)) if a < b]},
        "mode": "full"}).encode()


_BODY = _wire_graph(48, 400)


def _service_pass() -> int:
    total = 0
    for _ in range(150):
        graph = json.loads(_BODY)["graph"]
        delay = {v["name"]: v["delay"] for v in graph["vertices"]}
        out: Dict[str, list] = {name: [] for name in delay}
        for edge in graph["edges"]:
            out[edge["from"]].append((edge["to"], edge["weight"]))
        longest = dict.fromkeys(delay, 0)
        for _round in range(4):
            for tail, heads in out.items():
                base = longest[tail] + delay[tail]
                for head, weight in heads:
                    if base + weight > longest[head]:
                        longest[head] = base + weight
        total += len(json.dumps({"offsets": longest, "n": len(delay)}))
    return total


# ----------------------------------------------------------------------

_PASSES: Dict[str, Callable[[], int]] = {"kernel": _kernel_pass,
                                         "service": _service_pass}

#: Probe time at the reference speed, as each workload runs it (kernel
#: alone, service paired): about the medians on a 2-core shared VM
#: (Intel Xeon, Python 3.11).  Only a unit: a scaled figure reads "on a
#: machine where the probe takes this long".
REFERENCE_S = {"kernel": 0.040, "service": 0.060}


def steal_ticks() -> List[int]:
    """Per-CPU stolen time so far, in clock ticks (empty where
    /proc/stat is absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(line.split()[8]) for line in stat
                    if line.startswith("cpu") and line[3].isdigit()]
    except (OSError, ValueError, IndexError):
        return []


def steal_shares(before: List[int], after: List[int], seconds: float
                 ) -> List[float]:
    """Share of *seconds* stolen from each CPU between two readings."""
    tick = 1 / os.sysconf("SC_CLK_TCK")
    return [min(1.0, (b - a) * tick / seconds)
            for a, b in zip(before, after)]


def ran_share(shares: List[float], coupled: bool) -> float:
    """Share of an interval in which work on the box's CPUs could run,
    given each CPU's stolen share (independent steal assumed).

    Work *coupled* across every CPU -- a closed request loop whose load
    generator and server wait on each other -- runs only while all of
    them do; one thread, or each lane of a probe, runs while its own
    CPU does, the mean share when the CPU is not known.
    """
    if not shares:
        return 1.0
    if not coupled:
        return 1 - sum(shares) / len(shares)
    share = 1.0
    for stolen in shares:
        share *= 1 - stolen
    return share


def probe(kind: str) -> float:
    """Wall seconds of one pass of the *kind* probe."""
    t0 = time.perf_counter()
    _PASSES[kind]()
    return time.perf_counter() - t0


class PairedProbe:
    """The *kind* probe on two cores at once: this process and one
    helper process run it together, and a call returns the mean of the
    two times.  Use as a context manager; the helper is stopped and
    waited for on exit."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.helper.stdin.write(self.kind + "\n")
        self.helper.stdin.flush()
        mine = probe(self.kind)
        return (mine + float(self.helper.stdout.readline())) / 2

    def __enter__(self) -> "PairedProbe":
        return self

    def __exit__(self, *_exc) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()


if __name__ == "__main__":
    # PairedProbe's helper: one probe per line naming its kind, until EOF.
    for line in sys.stdin:
        print(probe(line.strip()), flush=True)
