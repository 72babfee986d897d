"""Equivalence classes, the strip graph, and the min-cut sensitivity core.

The objects here describe the min-cuts of a unit-capacity network at
max-flow value lam through an acyclic quotient (the strip graph): a set of
critical edges all lies in one min-cut exactly when no strip-graph path
orders two of them (they form an anti-chain), and deleting such a set drops
the max-flow by its size. precedes answers the order query in constant
time.

Everything is built against one reference max-flow and is immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, QueryError, checked
from .family import BuiltFamily, CriticalityLabels
from .flows import ResidualGraph
from .graph import FlowNetwork, scc_from_adjacency


@dataclass(frozen=True)
class EquivalenceClasses:
    """Vertex classes: two vertices share one iff no min-cut separates them."""

    class_of: tuple[int, ...]
    class_count: int
    source_class: int
    sink_class: int


@dataclass(frozen=True)
class StripGraph:
    """Quotient DAG: critical edges keep direction, other inter-class edges flip.

    arcs[i] = (from_class, to_class, EdgeId). succ/pred are class adjacency
    lists over arc indices' endpoints, deduplicated.
    """

    nodes: int
    arcs: tuple[tuple[int, int, int], ...]
    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PathSystem:
    """The strip-graph order tables precedes reads.

    They describe lam edge-disjoint source-to-sink class paths: the
    reference flow's decomposition paths, cut down to their critical
    edges. path_of maps each critical EdgeId to its path index, so its
    keys are exactly the critical edges; position maps it to the position
    of its tail class on that path (the source class is position 0), and
    head_class to the class its strip arc enters. first_reach[i] maps any
    class x to the earliest position on path i whose class is reachable
    from x in the strip graph (absent when none is).
    """

    path_of: dict[int, int]
    position: dict[int, int]
    head_class: dict[int, int]
    first_reach: tuple[dict[int, int], ...]


@dataclass(frozen=True)
class CutPartition:
    """A vertex bipartition, stored as its source side; every other
    vertex is on the sink side."""

    source_side: frozenset[int]


def crossing_edges(net: FlowNetwork, source_side) -> list[int]:
    """EdgeIds crossing the partition from the source side, ascending."""
    side = set(source_side)
    return sorted(
        eid for eid, (u, v) in net.graph.edges.items() if u in side and v not in side
    )


def build_classes(net: FlowNetwork, res: ResidualGraph) -> EquivalenceClasses:
    """Classes are the SCCs of the residual graph of a max-flow."""
    ids = res.scc_ids()
    return EquivalenceClasses(
        class_of=tuple(ids),
        class_count=max(ids) + 1 if ids else 0,
        source_class=ids[net.s],
        sink_class=ids[net.t],
    )


def build_strip_graph(
    net: FlowNetwork, classes: EquivalenceClasses, labels: CriticalityLabels, res: ResidualGraph
) -> StripGraph:
    """Quotient the network by classes and flip the non-critical arcs.

    Asserted on the way out: the result is acyclic and equals the reverse of
    the SCC condensation of the residual graph (the two constructions must
    describe the same DAG).
    """
    cls = classes.class_of
    arcs = []
    for eid in sorted(net.edges):
        u, v = net.graph.edges[eid]
        cu, cv = cls[u], cls[v]
        if cu == cv:
            continue
        if eid in labels.critical:
            arcs.append((cu, cv, eid))
        else:
            arcs.append((cv, cu, eid))

    nodes = classes.class_count
    succ = [set() for _ in range(nodes)]
    pred = [set() for _ in range(nodes)]
    for a, b, _ in arcs:
        succ[a].add(b)
        pred[b].add(a)

    comp = scc_from_adjacency(nodes, [sorted(s) for s in succ])
    if len(set(comp)) != nodes:
        raise InternalInvariantError("strip graph contains a cycle")

    # Cross-construction check: reversed condensation of the residual graph.
    cond = set()
    for arc in res.arcs:
        ca, cb = cls[arc.tail], cls[arc.head]
        if ca != cb:
            cond.add((cb, ca))
    if cond != {(a, b) for a, b, _ in arcs}:
        raise InternalInvariantError(
            "strip graph disagrees with the reversed residual condensation"
        )

    return StripGraph(
        nodes=nodes,
        arcs=tuple(arcs),
        succ=tuple(tuple(sorted(s)) for s in succ),
        pred=tuple(tuple(sorted(p)) for p in pred),
    )


def build_path_system(
    strip: StripGraph,
    classes: EquivalenceClasses,
    labels: CriticalityLabels,
    edge_paths,
    net: FlowNetwork,
) -> PathSystem:
    """Project the reference flow's path decomposition onto the strip graph.

    Non-critical edges on a decomposition path are saturated, hence
    intra-class, so dropping them leaves a contiguous class walk; the
    surviving critical edges of the lam paths are edge-disjoint and cover all
    critical edges. The first-reach tables are filled with one reverse
    reachability sweep per path node, latest position first, so each class
    records the earliest position it reaches.
    """
    cls = classes.class_of
    chains: list[list[int]] = []
    path_of: dict[int, int] = {}
    position: dict[int, int] = {}
    head_class: dict[int, int] = {}

    for i, path in enumerate(edge_paths):
        chain = [classes.source_class]
        for eid in path:
            u, v = net.graph.edges[eid]
            if eid not in labels.critical:
                if cls[u] != cls[v]:
                    raise InternalInvariantError(
                        f"saturated non-critical edge {eid} crosses classes"
                    )
                continue
            if cls[u] != chain[-1]:
                raise InternalInvariantError(
                    f"path {i} jumps classes at edge {eid}"
                )
            if eid in path_of:
                raise InternalInvariantError(f"critical edge {eid} on two paths")
            path_of[eid] = i
            position[eid] = len(chain) - 1
            head_class[eid] = cls[v]
            chain.append(cls[v])
        if chain[-1] != classes.sink_class:
            raise InternalInvariantError(f"path {i} does not end at the sink class")
        if len(set(chain)) != len(chain):
            raise InternalInvariantError("path revisits a class")
        chains.append(chain)

    if set(path_of) != set(labels.critical):
        raise InternalInvariantError("paths do not cover the critical edges")

    first: list[dict[int, int]] = []
    for chain in chains:
        reach_first: dict[int, int] = {}
        # Latest-to-earliest sweep; overwriting leaves the earliest position.
        for pos in range(len(chain) - 1, -1, -1):
            stack = [chain[pos]]
            seen = {chain[pos]}
            while stack:
                c = stack.pop()
                reach_first[c] = pos
                for p in strip.pred[c]:
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
        first.append(reach_first)

    return PathSystem(
        path_of=path_of,
        position=position,
        head_class=head_class,
        first_reach=tuple(first),
    )


@dataclass(frozen=True)
class MinCutOracleStruct:
    """Classes, strip graph, path system and criticality labels of one network."""

    lam: int
    classes: EquivalenceClasses
    strip: StripGraph
    paths: PathSystem
    labels: CriticalityLabels


def precedes(ps: PathSystem, e_a: int, e_b: int) -> bool:
    """True iff some source-to-sink strip path uses e_a strictly before e_b.

    Constant-time: with P the path carrying e_b, e_a precedes e_b exactly when
    the head class of e_a reaches some class on P no later than e_b's tail.
    """
    if e_a not in ps.path_of or e_b not in ps.path_of:
        raise QueryError(f"precedes needs critical edges, got {e_a}, {e_b}")
    pos = ps.first_reach[ps.path_of[e_b]].get(ps.head_class[e_a])
    return pos is not None and pos <= ps.position[e_b]


def build_mincut_oracle(bf: BuiltFamily) -> MinCutOracleStruct:
    """O_MINCUT over the calibrated subgraph of a built family: classes,
    strip graph and path system of its reference flow f_tilde."""
    net, labels = bf.sub.network, bf.labels
    res = checked(ResidualGraph, net, bf.family.f_tilde)
    classes = build_classes(net, res)
    strip = build_strip_graph(net, classes, labels, res)
    return MinCutOracleStruct(
        lam=labels.lam,
        classes=classes,
        strip=strip,
        paths=build_path_system(strip, classes, labels, bf.family.paths, net),
        labels=labels,
    )
