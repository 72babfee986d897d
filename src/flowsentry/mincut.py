"""The strip order and the min-cut sensitivity core.

The objects here describe the min-cuts of a unit-capacity network at
max-flow value lam through an acyclic quotient (the strip graph of
Picard and Queyranne): a set of critical edges all lies in one min-cut
exactly when no strip-graph path orders two of them (they form an
anti-chain), and deleting such a set drops the max-flow by its size.
precedes answers the order query in constant time.

The vertex classes, two vertices sharing one iff no min-cut separates
them, are the SCCs of the residual graph of a max-flow, given as the
class-id list flows.residual_scc_ids returns: ids[v] is v's class, so
the source class is ids[s] and the sink class ids[t]. The strip graph is
the reversed condensation of that residual graph, so it is never built:
the sweep that fills the first-reach tables reads, for each class, the
classes its residual arcs enter.

Everything is built against one reference max-flow and is immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, QueryError, checked
from .family import BuiltFamily
from .flows import IntFlow, residual_scc_ids
from .graph import FlowNetwork, scc_from_adjacency


@dataclass(frozen=True)
class PathSystem:
    """The strip-graph order tables precedes reads.

    They describe lam edge-disjoint source-to-sink class paths: the
    reference flow's decomposition paths, cut down to their critical
    edges. A class is an entry of the class-id list of the reference
    flow's residual SCCs (see the module docstring). critical maps each
    critical EdgeId, and no other, to its record (path, position, head):
    the index of the path carrying it, the position of its tail class on
    that path (the source class is position 0), and the class its strip
    arc enters. first_reach[i] maps each such head class that reaches
    path i in the strip graph to the earliest position on path i whose
    class it reaches; no other class is a key. The strip predecessors of a
    class are the classes its residual arcs enter, so the sweep that fills
    first_reach follows residual arcs forward from each class of the path.
    """

    critical: dict[int, tuple[int, int, int]]
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
        eid for eid, (u, v) in net.edges.items() if u in side and v not in side
    )


def strip_pred(net: FlowNetwork, cls, critical, f: IntFlow) -> list[list[int]]:
    """Each class's strip predecessors, ascending: the classes its arcs in
    the residual graph of the max-flow f enter. cls is the class-id list
    of that residual graph's SCCs.

    The strip graph is the reversed condensation of that residual graph:
    an inter-class edge (u, v) that f carries gives the arc class(u) ->
    class(v), one that f leaves idle the arc class(v) -> class(u). Checked
    on every edge: it is critical exactly when f carries it across
    classes. Checked at the end: the lists describe an acyclic graph.
    """
    pred = [set() for _ in range(max(cls) + 1)]
    for eid, (u, v) in net.edges.items():
        carried, cu, cv = f.values[eid] == 1, cls[u], cls[v]
        if (eid in critical) != (carried and cu != cv):
            raise InternalInvariantError(
                f"criticality of edge {eid} disagrees with the residual graph")
        if cu != cv:
            if carried:
                pred[cv].add(cu)
            else:
                pred[cu].add(cv)
    pred = [sorted(p) for p in pred]
    if len(set(scc_from_adjacency(len(pred), pred))) != len(pred):
        raise InternalInvariantError("strip graph contains a cycle")
    return pred


def build_path_system(pred, cls, critical, edge_paths,
                      net: FlowNetwork) -> PathSystem:
    """Project the reference flow's path decomposition onto the strip graph,
    whose classes are the entries of cls, the class-id list strip_pred took.

    Non-critical edges on a decomposition path are saturated, hence
    intra-class, so dropping them leaves a contiguous class walk; the
    surviving critical edges of the lam paths are edge-disjoint and cover all
    critical edges. Each first-reach table is filled by one sweep along its
    path, earliest position first, following pred (strip_pred: the classes
    each class's residual arcs enter) back into classes not yet reached: the
    first position to reach a class is its earliest. Only the head classes
    of critical edges are kept, keys ascending by class.
    """
    chains: list[list[int]] = []
    records: dict[int, tuple[int, int, int]] = {}

    for i, path in enumerate(edge_paths):
        chain = [cls[net.s]]
        for eid in path:
            u, v = net.edges[eid]
            if eid not in critical:
                if cls[u] != cls[v]:
                    raise InternalInvariantError(
                        f"saturated non-critical edge {eid} crosses classes"
                    )
                continue
            if cls[u] != chain[-1]:
                raise InternalInvariantError(
                    f"path {i} jumps classes at edge {eid}"
                )
            if eid in records:
                raise InternalInvariantError(f"critical edge {eid} on two paths")
            records[eid] = (i, len(chain) - 1, cls[v])
            chain.append(cls[v])
        if chain[-1] != cls[net.t]:
            raise InternalInvariantError(f"path {i} does not end at the sink class")
        if len(set(chain)) != len(chain):
            raise InternalInvariantError("path revisits a class")
        chains.append(chain)

    if set(records) != critical:
        raise InternalInvariantError("paths do not cover the critical edges")

    heads = {head for _, _, head in records.values()}
    first: list[dict[int, int]] = []
    for chain in chains:
        reach_first: dict[int, int] = {}
        for pos, c in enumerate(chain):
            reach_first.setdefault(c, pos)
            stack = [c]
            while stack:
                for p in pred[stack.pop()]:
                    if p not in reach_first:
                        reach_first[p] = pos
                        stack.append(p)
        first.append({c: pos for c, pos in sorted(reach_first.items())
                      if c in heads})

    return PathSystem(critical=records, first_reach=tuple(first))


def precedes(ps: PathSystem, e_a: int, e_b: int) -> bool:
    """True iff some source-to-sink strip path uses e_a strictly before e_b.

    Constant-time: with P the path carrying e_b, e_a precedes e_b exactly when
    the head class of e_a reaches some class on P no later than e_b's tail.
    """
    crit = ps.critical
    if e_a not in crit or e_b not in crit:
        raise QueryError(f"precedes needs critical edges, got {e_a}, {e_b}")
    path, position, _ = crit[e_b]
    pos = ps.first_reach[path].get(crit[e_a][2])
    return pos is not None and pos <= position


def build_mincut_oracle(bf: BuiltFamily) -> PathSystem:
    """O_MINCUT over the calibrated subgraph of a built family: the path
    tables of its reference flow f_tilde, whose residual graph gives the
    classes and the strip order."""
    net, f, critical = bf.sub.network, bf.family.f_tilde, bf.sub.critical
    cls = checked(residual_scc_ids, net, f)
    return build_path_system(strip_pred(net, cls, critical, f), cls,
                             critical, bf.family.paths, net)
