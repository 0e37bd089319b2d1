"""Seeded workload inputs and their reference answers.

Everything here runs before a timed region.  The program under test
only ever sees the wire-format graph dicts (``repro.qa.serialize``) and
event lists built here; the expected answers come from the retained
dict reference kernel (``repro.core.reference``) and the runtime's
``execute_stream``.

Many inputs are *renamed isomorphs* of a smaller set of seeded base
graphs: fresh vertex names plus shuffled vertex and edge order, so every
request body is distinct while its reference answer is the base
graph's answer under the renaming.  That keeps reference checking
cheap enough to check every answer of every run.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Seeds below 100 were used while the benchmark was tuned; this one was
#: not.  It also selects a second stored set of large graphs, so a claim
#: can be re-checked on kernel-offline inputs nobody tuned against.
HELD_OUT_SEED = 7919

#: The stored large-graph sets: file and the generator seed base of the
#: ``run_benchsuite.py`` random recipe (``random.Random(base + n)``).
LARGE_SETS = {"tuning": (DATA_DIR / "large_graphs.json.gz", 1990),
              "held-out": (DATA_DIR / "large_graphs_heldout.json.gz",
                           HELD_OUT_SEED)}

#: Sizes of the stored large graphs.  An odd count puts the median
#: operation inside one size's group of timings rather than between two.
LARGE_SIZES = (400, 700, 1000, 1300, 1600)

#: The ``batch-10000`` corpus recipe (``run_benchsuite.BATCH_FULL``).
CORPUS_RECIPE = {"size": 10_000, "n_unique": 360, "unfeasible_share": 1 / 6,
                 "n_lo": 32, "n_hi": 64, "unbounded_probability": 0.25}

#: Reference verdict of a graph: ("ok", offsets) or ("error", type name).
Expected = Tuple[str, Any]


# ----------------------------------------------------------------------
# renaming
# ----------------------------------------------------------------------


def renamed(data: Dict[str, Any], rng: random.Random, prefix: str = "r"
            ) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """A renamed isomorph of a wire graph and the old->new name map.

    Source and sink keep their names (the wire format names them
    explicitly); operations get ``<prefix><k>`` under a random
    permutation, and vertex and edge insertion orders are shuffled.
    """
    keep = {data["source"], data["sink"]}
    names = [v["name"] for v in data["vertices"] if v["name"] not in keep]
    permutation = list(range(len(names)))
    rng.shuffle(permutation)
    mapping = {name: f"{prefix}{p}" for name, p in zip(names, permutation)}
    mapping.update({name: name for name in keep})
    vertices = [{"name": mapping[v["name"]], "delay": v["delay"]}
                for v in data["vertices"]]
    rng.shuffle(vertices)
    edges = [dict(e, tail=mapping[e["tail"]], head=mapping[e["head"]])
             for e in data["edges"]]
    rng.shuffle(edges)
    out = dict(data, vertices=vertices, edges=edges)
    return out, mapping


def rename_offsets(offsets: Dict[str, Dict[str, int]],
                   mapping: Dict[str, str]) -> Dict[str, Dict[str, int]]:
    return {mapping[v]: {mapping[a]: s for a, s in row.items()}
            for v, row in offsets.items()}


def rename_expected(expected: Expected, mapping: Dict[str, str]) -> Expected:
    kind, value = expected
    return (kind, rename_offsets(value, mapping)) if kind == "ok" else expected


# ----------------------------------------------------------------------
# reference answers
# ----------------------------------------------------------------------


def reference(data: Dict[str, Any], mode: str = "full"
              ) -> Tuple[Expected, Any]:
    """The reference verdict for a wire graph, plus the reference
    schedule (None on a taxonomy rejection)."""
    from repro.core.anchors import AnchorMode
    from repro.core.exceptions import ConstraintGraphError
    from repro.core.reference import schedule_graph_reference
    from repro.qa.serialize import graph_from_dict

    try:
        schedule = schedule_graph_reference(graph_from_dict(data),
                                            anchor_mode=AnchorMode(mode))
    except ConstraintGraphError as error:
        return ("error", type(error).__name__), None
    return ("ok", plain_offsets(schedule.offsets)), schedule


def plain_offsets(offsets: Any) -> Dict[str, Dict[str, int]]:
    return {v: dict(row) for v, row in offsets.items()}


# ----------------------------------------------------------------------
# rpc-schedule: 32-64 vertex graphs, some ill-posed, some unfeasible
# ----------------------------------------------------------------------

#: Verdict mix of the /schedule base graphs, per 6 consecutive bases.
#: ``random_constraint_graph`` at these parameters gives only clean
#: graphs (1000 of 1000 drawn), so the other verdicts are made by adding
#: one racing maximum constraint (``_add_race``).  The unfeasible share
#: is the batch corpus recipe's (CORPUS_RECIPE, 1/6).  No recipe or
#: measurement in the repository gives an ill-posed share; 1/6 for
#: serialized graphs is an assumption, set equal to the unfeasible one.
#: The mix is fixed rather than drawn, because serialized graphs cost
#: several times a clean one and a drawn mix moves throughput by seed.
RPC_KINDS = ("clean",) * 4 + ("serialized",) + ("unfeasible",)


def _small_graph(rng: random.Random):
    from repro.designs.random_graphs import random_constraint_graph

    n = rng.randint(32, 64)
    return random_constraint_graph(
        rng, n, edge_probability=0.15, unbounded_probability=0.15,
        n_min_constraints=n // 8, n_max_constraints=n // 16)


def _forward_reach(graph, start: str) -> set:
    seen, stack = {start}, [start]
    while stack:
        for edge in graph.out_edges(stack.pop(), forward_only=True):
            if edge.head not in seen:
                seen.add(edge.head)
                stack.append(edge.head)
    return seen


def _add_race(graph, rng: random.Random, kind: str) -> bool:
    """Add one maximum constraint that makes a well-posed graph either
    ill-posed but serializable (Fig. 3(b)) or unfeasible (Theorem 1)."""
    from repro.core.anchors import find_anchor_sets
    from repro.core.paths import NO_PATH, longest_paths_from

    anchor_sets = find_anchor_sets(graph)
    ops = [v.name for v in graph.vertices()
           if v.name not in (graph.source, graph.sink)]
    for _ in range(200):
        tail, head = rng.sample(ops, 2)
        reach = _forward_reach(graph, tail)
        span = longest_paths_from(graph, tail)[head]
        if kind == "unfeasible":
            if head in reach and span is not NO_PATH and span > 0 \
                    and anchor_sets[head] <= anchor_sets[tail]:
                graph.add_max_constraint(tail, head, rng.randint(0, span - 1))
                return True
            continue
        extra = anchor_sets[head] - anchor_sets[tail]
        # Serializable only if no extra anchor lies downstream of tail
        # (Fig. 3(a) is beyond rescue).
        if extra and not (extra & reach):
            bound = rng.randint(0, 16)
            if span is not NO_PATH:
                bound = max(bound, span)
            graph.add_max_constraint(tail, head, bound)
            return True
    return False


@dataclass
class BaseGraph:
    data: Dict[str, Any]
    expected: Expected
    kind: str


def rpc_bases(seed: int, count: int) -> List[BaseGraph]:
    """*count* base graphs whose reference verdicts follow RPC_KINDS."""
    from repro.qa.serialize import graph_to_dict

    bases = []
    for i in range(count):
        rng = random.Random(f"{seed}:rpc:{i}")
        kind = RPC_KINDS[i % len(RPC_KINDS)]
        for _attempt in range(20):
            graph = _small_graph(rng)
            if kind != "clean" and not _add_race(graph, rng, kind):
                continue
            data = graph_to_dict(graph)
            expected, schedule = reference(data)
            got = ("unfeasible" if expected[0] == "error" else
                   "serialized" if len(schedule.graph.edges())
                   > len(data["edges"]) else "clean")
            if got == kind:
                break
        bases.append(BaseGraph(data, expected, got))
    return bases


def rpc_requests(seed: int, bases: List[BaseGraph], count: int
                 ) -> List[Tuple[bytes, Expected]]:
    """*count* distinct ``/schedule`` bodies: renamed isomorphs cycling
    through the bases (consecutive requests never share a base, so the
    batcher cannot dedup two concurrent requests)."""
    rng = random.Random(f"{seed}:rpc-requests")
    out = []
    for k in range(count):
        base = bases[k % len(bases)]
        data, mapping = renamed(base.data, rng, prefix=f"q{k}_")
        out.append((json.dumps({"graph": data}).encode(),
                    rename_expected(base.expected, mapping)))
    return out


# ----------------------------------------------------------------------
# session-stream: small anchored graphs and their completion streams
# ----------------------------------------------------------------------


@dataclass
class SessionCase:
    data: Dict[str, Any]
    events: List[Tuple[str, int]]
    expected_log: Dict[str, Dict[str, int]]  # {"issues": .., "done": ..}


def completion_events(schedule: Any, rng: random.Random
                      ) -> List[Tuple[str, int]]:
    """Every non-source anchor's completion, in completion order.

    Anchor delays are drawn from *rng*; start times follow the paper's
    runtime rule on the reference offsets (``start_times``).  Same-cycle
    completions arrive in forward topological order, as a controller
    observing one clock would emit them.
    """
    graph = schedule.graph
    anchors = [a for a in graph.anchors if a != graph.source]
    delays = {a: rng.randint(1, 12) for a in anchors}
    start = schedule.start_times(delays)
    position = {v: i for i, v in enumerate(graph.forward_topological_order())}
    return sorted(((a, start[a] + delays[a]) for a in anchors),
                  key=lambda e: (e[1], position[e[0]]))


def session_case(data: Dict[str, Any], schedule: Any,
                 rng: random.Random) -> Optional[SessionCase]:
    from repro.runtime import execute_stream

    events = completion_events(schedule, rng)
    if not events:
        return None
    log = execute_stream(schedule, events)
    return SessionCase(data, events, {"issues": dict(log.issues),
                                      "done": dict(log.done)})


def session_cases(seed: int, count: int) -> List[SessionCase]:
    """*count* well-posed graphs of 16-32 vertices with 3+ anchors."""
    from repro.designs.random_graphs import random_constraint_graph
    from repro.qa.serialize import graph_to_dict

    cases: List[SessionCase] = []
    i = 0
    while len(cases) < count:
        rng = random.Random(f"{seed}:session:{i}")
        i += 1
        n = rng.randint(16, 32)
        graph = random_constraint_graph(
            rng, n, edge_probability=0.2, unbounded_probability=0.3,
            n_min_constraints=n // 8, n_max_constraints=n // 8)
        data = graph_to_dict(graph)
        expected, schedule = reference(data)
        if expected[0] != "ok" or len(graph.anchors) < 4:
            continue
        case = session_case(data, schedule, rng)
        if case is not None:
            cases.append(case)
    return cases


# ----------------------------------------------------------------------
# kernel-offline: stored large graphs and the batch corpus
# ----------------------------------------------------------------------


@dataclass
class LargeGraph:
    n: int
    data: Dict[str, Any]
    offsets: Dict[str, Dict[str, int]]  # reference, IRREDUNDANT mode


def large_graphs(seed: int) -> List[LargeGraph]:
    """The stored large graphs this seed schedules: the held-out set for
    HELD_OUT_SEED, the tuning set for every other seed."""
    path, _base = LARGE_SETS["held-out" if seed == HELD_OUT_SEED
                             else "tuning"]
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        stored = json.load(handle)
    return [LargeGraph(e["n"], e["graph"], e["offsets"])
            for e in stored["graphs"] if e["n"] in LARGE_SIZES]


def renamed_large(graph: LargeGraph, rng: random.Random) -> LargeGraph:
    """A renamed isomorph of a stored large graph, with its reference
    offsets renamed to match.  Vertex and edge order change what
    ``schedule_graph`` costs on the same graph by up to ~40% (measured at
    n=800), so every scheduled copy gets its own order."""
    data, mapping = renamed(graph.data, rng)
    return LargeGraph(graph.n, data, rename_offsets(graph.offsets, mapping))


@dataclass
class Corpus:
    graphs: List[Dict[str, Any]]
    base_of: List[int]                 # index into bases
    mapping: List[Dict[str, str]]      # base name -> graph name
    bases: List[Dict[str, Any]]
    expected: List[Expected]           # per base, FULL mode


def corpus(seed: int) -> Corpus:
    """The batch corpus recipe: ``n_unique`` chain-ladder designs (a
    sixth unfeasible) padded to ``size`` with renamed isomorphs,
    shuffled."""
    from repro.qa.generators import chain_ladder_graph, unfeasible_chain_graph
    from repro.qa.serialize import graph_to_dict

    r = CORPUS_RECIPE
    size, n_unique = r["size"], r["n_unique"]
    rng = random.Random(f"{seed}:corpus")
    n_unfeasible = int(n_unique * r["unfeasible_share"])
    bases = [graph_to_dict(chain_ladder_graph(
        rng, r["n_lo"], r["n_hi"], r["unbounded_probability"]))
        for _ in range(n_unique - n_unfeasible)]
    bases += [graph_to_dict(unfeasible_chain_graph(rng, r["n_lo"], r["n_hi"]))
              for _ in range(n_unfeasible)]
    order = list(range(n_unique))
    order += [rng.randrange(n_unique) for _ in range(size - n_unique)]
    order = order[:size]
    rng.shuffle(order)
    graphs, mappings = [], []
    for b in order:
        data, mapping = renamed(bases[b], rng)
        graphs.append(data)
        mappings.append(mapping)
    expected = [reference(b)[0] for b in bases]
    return Corpus(graphs, order, mappings, bases, expected)
