"""The min-cut structure as tests read it: the strip graph by its
definition, decrease-by-k and nearest-min-cut queries, and size
accounting.

The shipped oracles keep only the path tables and read the strip-graph
order through mincut.precedes; the build passes the classes around as
the class-id list of f's residual SCCs. MinCutStructure adds the
classes as a record, the predecessor lists and the critical set they
were built from, so that strip_arcs can derive the strip graph from the
paper's definition and the tests can check src's lists and tables
against it. The queries check that order against brute force (the
structural equivalences of test_mincut.py and AC9), and word_count
checks the size bound (AC3).
"""

from dataclasses import dataclass

from flowsentry.errors import QueryError
from flowsentry.flows import (
    cancel_flow_cycles,
    decompose_into_paths,
    residual_scc_ids,
)
from flowsentry.graph import FlowNetwork
from flowsentry.mincut import (
    CutPartition,
    PathSystem,
    build_mincut_oracle,
    build_path_system,
    precedes,
    strip_pred,
)

from calibration_reference import classify
from conftest import unit_max_flow


@dataclass(frozen=True)
class EquivalenceClasses:
    """Vertex classes: two vertices share one iff no min-cut separates them."""

    class_of: tuple[int, ...]
    class_count: int
    source_class: int
    sink_class: int


@dataclass(frozen=True)
class MinCutStructure:
    """One network's classes, strip predecessor lists and path tables,
    with the max-flow value and critical set they were built from."""

    net: FlowNetwork
    lam: int
    critical: frozenset[int]
    classes: EquivalenceClasses
    pred: list[list[int]]
    paths: PathSystem


def _structure(net, lam, critical, f, paths=None) -> MinCutStructure:
    """The structure over the max-flow f of net; paths, when given, are
    the tables the shipped build made from the same flow."""
    ids = residual_scc_ids(net, f)
    classes = EquivalenceClasses(tuple(ids), max(ids) + 1, ids[net.s],
                                 ids[net.t])
    pred = strip_pred(net, ids, critical, f)
    if paths is None:
        paths = build_path_system(pred, ids, critical,
                                  decompose_into_paths(net, f), net)
    return MinCutStructure(net, lam, critical, classes, pred, paths)


def mincut_structure(bf) -> MinCutStructure:
    """The structure the sensitivity oracle's build sweeps, over the
    calibrated subgraph and f-tilde, with build_mincut_oracle's tables."""
    return _structure(bf.sub.network, bf.sub.lam, bf.sub.critical,
                      bf.family.f_tilde, build_mincut_oracle(bf))


def build_mincut_oracle_raw(net: FlowNetwork) -> MinCutStructure:
    """The min-cut structure of a network taken as-is (no calibration).

    Every edge stays in play. The reference flow is cycle-canceled so its
    path decomposition exists.
    """
    lam, _, critical = classify(net)
    if lam < 1:
        raise ValueError("mincut oracle needs lam >= 1")
    f = cancel_flow_cycles(net, unit_max_flow(net))
    return _structure(net, lam, critical, f)


def strip_arcs(o: MinCutStructure) -> set[tuple[int, int, int]]:
    """The strip graph by definition, as (from_class, to_class, EdgeId)
    arcs: each inter-class edge joins its endpoints' classes, critical
    edges in their own direction and every other edge flipped."""
    cls = o.classes.class_of
    arcs = set()
    for eid, (u, v) in o.net.edges.items():
        a, b = cls[u], cls[v]
        if a != b:
            arcs.add((a, b, eid) if eid in o.critical else (b, a, eid))
    return arcs


def pred_of_arcs(o: MinCutStructure) -> list[list[int]]:
    """Each class's predecessors in strip_arcs(o), ascending."""
    pred = [set() for _ in range(o.classes.class_count)]
    for a, b, _ in strip_arcs(o):
        pred[b].add(a)
    return [sorted(p) for p in pred]


def word_count(o: MinCutStructure) -> int:
    """Machine words the build keeps: the class of every vertex and the
    path tables (size-bound accounting)."""
    words = len(o.classes.class_of) + 3
    words += sum(2 * len(f) for f in o.paths.first_reach)
    words += 2 * len(o.paths.path_of) + 2 * len(o.paths.position)
    words += 2 * len(o.paths.head_class)
    return words


def decreases_by_k(o: MinCutStructure, F, k: int | None = None,
                   known=None) -> bool:
    """True iff deleting F drops the max-flow by exactly |F|.

    Holds exactly when every edge of F is critical and no two are ordered by
    a strip path (they form an anti-chain, i.e. lie in one min-cut together).
    An edge outside known (default: the edges of the structure's network)
    raises QueryError. Edges absent from the structure's network are never
    critical, so any such edge makes the answer false.
    """
    if known is None:
        known = o.net.edges
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
        if e not in o.critical:
            return False
    for i, a in enumerate(edges):
        for b in edges[i + 1 :]:
            if precedes(o.paths, a, b) or precedes(o.paths, b, a):
                return False
    return True


def report_nmc_after(o: MinCutStructure, F) -> CutPartition:
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
