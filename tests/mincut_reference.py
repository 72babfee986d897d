"""Decrease-by-k and nearest-min-cut queries over a min-cut structure,
and its size accounting.

The shipped oracles read the strip-graph order through mincut.precedes
only. These queries check that order against brute force (the structural
equivalences of test_mincut.py and AC9), and word_count checks the
structure's size bound (AC3), so they live with the tests.
"""

from flowsentry.errors import QueryError
from flowsentry.family import classify_edges
from flowsentry.flows import (
    ResidualGraph,
    cancel_flow_cycles,
    decompose_into_paths,
    max_flow,
)
from flowsentry.graph import FlowNetwork
from flowsentry.mincut import (
    CutPartition,
    MinCutOracleStruct,
    build_classes,
    build_path_system,
    build_strip_graph,
    precedes,
)


def word_count(o: MinCutOracleStruct) -> int:
    """Machine words held by the query tables (size-bound accounting)."""
    words = len(o.classes.class_of) + 3
    words += 3 * len(o.strip.arcs)
    words += sum(len(s) for s in o.strip.succ)
    words += sum(len(p) for p in o.strip.pred)
    words += sum(2 * len(f) for f in o.paths.first_reach)
    words += 2 * len(o.paths.path_of) + 2 * len(o.paths.position)
    words += 2 * len(o.paths.head_class)
    words += 2 * len(o.labels.nu) + len(o.labels.critical)
    return words


def decreases_by_k(o: MinCutOracleStruct, F, k: int | None = None,
                   known=None) -> bool:
    """True iff deleting F drops the max-flow by exactly |F|.

    Holds exactly when every edge of F is critical and no two are ordered by
    a strip path (they form an anti-chain, i.e. lie in one min-cut together).
    An edge outside known (default: the edges of the structure's network,
    the keys of o.labels.nu) raises QueryError. Edges absent from the
    structure's network are never critical, so any such edge makes the
    answer false.
    """
    if known is None:
        known = o.labels.nu
    edges = list(F)
    if k is not None and len(edges) != k:
        raise QueryError(f"expected {k} edges, got {len(edges)}")
    if len(set(edges)) != len(edges):
        raise QueryError("duplicate EdgeId in failure set")
    if not edges:
        raise QueryError("empty failure set")
    for e in edges:
        if e not in known:
            raise QueryError(f"unknown EdgeId {e}")
        if e not in o.labels.critical:
            return False
    for i, a in enumerate(edges):
        for b in edges[i + 1 :]:
            if precedes(o.paths, a, b) or precedes(o.paths, b, a):
                return False
    return True


def report_nmc_after(o: MinCutOracleStruct, F) -> CutPartition:
    """Source side of the nearest min-cut of the graph minus F.

    Requires decreases_by_k(o, F); a vertex lands on the source side exactly
    when its class reaches the tail class of some failed edge in the strip
    graph (checked through the first-reach table, one lookup per failed edge).
    """
    edges = list(F)
    if not decreases_by_k(o, edges):
        raise QueryError("report_nmc_after needs a decrease-by-k failure set")
    targets = [(o.paths.path_of[e], o.paths.position[e]) for e in edges]
    side = []
    for v, c in enumerate(o.classes.class_of):
        for p, limit in targets:
            pos = o.paths.first_reach[p].get(c)
            if pos is not None and pos <= limit:
                side.append(v)
                break
    return CutPartition(source_side=frozenset(side))


def build_mincut_oracle_raw(net: FlowNetwork) -> MinCutOracleStruct:
    """The min-cut structure of a network taken as-is (no calibration).

    Every edge stays in play. The reference flow is cycle-canceled so its
    path decomposition exists.
    """
    f = max_flow(net)
    labels = classify_edges(net)
    if labels.lam < 1:
        raise ValueError("mincut oracle needs lam >= 1")
    f = cancel_flow_cycles(net, f)
    res = ResidualGraph(net, f)
    classes = build_classes(net, res)
    strip = build_strip_graph(net, classes, labels, res)
    paths = build_path_system(strip, classes, labels,
                              decompose_into_paths(net, f), net)
    return MinCutOracleStruct(lam=labels.lam, classes=classes, strip=strip,
                              paths=paths, labels=labels)
