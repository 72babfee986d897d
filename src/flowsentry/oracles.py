"""Failure-sensitivity oracles: max-flow and min-cut under 1-2 edge faults.

``SensitivityOracle`` is built once over a raw network. It walk-prunes
the graph and builds the flow family and the min-cut structure over the
calibrated subgraph. What it keeps is the paper's encoding: the stored
flows, their null sets, the canonical table and the min-cut tables, plus
one incidence list of the walk-pruned graph. Queries then run on lookups
plus at most two BFS traversals of the residual of one stored flow, which
reads each edge's flow bit from the stored flow as it goes.

Conventions the queries rely on:
  * edges outside every (s,t)-walk, and edges removed by calibration,
    have no effect on any max-flow value under at most two failures;
    they are dropped from failure sets up front.
  * flow answers are deltas against the representative flow f-tilde.
    A reported flow lives on the walk-pruned network (rerouting cycles
    may travel through calibration-removed edges) and its value equals
    the max-flow of the original network minus the failures.
  * a disconnected instance (max-flow 0) short-circuits every query.
"""

import logging
from collections import deque
from dataclasses import dataclass

from .errors import InternalInvariantError, QueryError
from .family import build_flow_family
from .flows import ARTIFICIAL, Arc
from .graph import FlowNetwork, prune_to_st_paths
from .mincut import build_mincut_oracle, decreases_by_k

log = logging.getLogger(__name__)


# ---- residual traversals ----
#
# A flow is an EdgeId -> bit map in which a missing edge carries 0, so a
# calibrated-subgraph flow reads as its zero extension to the walk-pruned
# net. An edge carrying 0 gives a forward residual arc, one carrying 1 a
# reverse arc. Arcs out of a vertex are scanned in ascending EdgeId order,
# forward before reverse, and the optional artificial s->t arc last: that
# order fixes the reported cycle.


def incidence(net: FlowNetwork) -> list[list[tuple[int, int, bool]]]:
    """Per vertex, (EdgeId, other end, is_reverse) of each arc a unit
    flow's residual may have out of it, in scan order."""
    inc: list[list[tuple[int, int, bool]]] = [[] for _ in range(net.n)]
    for eid in sorted(net.edges):
        u, v = net.edges[eid]
        inc[u].append((eid, v, False))
        inc[v].append((eid, u, True))
    return inc


def _search(net, inc, flow, src, dst, failed, st_arc=False):
    """BFS parent map from src until dst is found in the residual of flow
    minus edge failed, or None; parent[w] = (x, eid, is_reverse) is the
    arc x->w that found w."""
    parent = {src: None}
    if src == dst:
        return parent
    queue = deque([src])
    while queue:
        x = queue.popleft()
        arcs = inc[x]
        if st_arc and x == net.s:
            arcs = arcs + [(ARTIFICIAL, net.t, False)]
        for eid, w, rev in arcs:
            if w in parent or eid == failed or (
                    eid is not ARTIFICIAL and flow.get(eid, 0) != rev):
                continue
            parent[w] = (x, eid, rev)
            if w == dst:
                return parent
            queue.append(w)
    return None


def strongly_connected_without(net: FlowNetwork, inc, flow, x, y,
                               failed) -> bool:
    """Whether x and y are strongly connected in the residual of flow on
    net minus edge failed; inc is incidence(net)."""
    if not (0 <= x < net.n and 0 <= y < net.n):
        raise QueryError(f"vertex out of range: {x}, {y}")
    if failed not in net.edges:
        raise QueryError(f"unknown failed edge {failed!r}")
    return _search(net, inc, flow, x, y, failed) is not None and \
        _search(net, inc, flow, y, x, failed) is not None


def cycle_through_arc_without(net: FlowNetwork, inc, flow, target, failed,
                              st_arc: bool = False):
    """Simple cycle, as a tuple of Arcs, through the reverse arc of target
    in the residual of flow on net minus edge failed, starting with that
    arc; None when there is none. st_arc adds the artificial s->t arc,
    which models releasing one unit of value."""
    for eid in (failed, target):
        if eid not in net.edges:
            raise QueryError(f"unknown edge {eid!r}")
    if target == failed:
        raise QueryError("target edge coincides with the failed edge")
    if flow.get(target, 0) == 0:
        raise QueryError(f"edge {target} carries no flow; it has no reverse arc")
    u, v = net.edges[target]
    parent = _search(net, inc, flow, u, v, failed, st_arc)
    if parent is None:
        return None
    cycle = [Arc(v, u, target, True)]
    w = v
    while w != u:
        x, eid, rev = parent[w]
        cycle.insert(1, Arc(x, w, eid, rev))
        w = x
    return tuple(cycle)


@dataclass(frozen=True)
class FlowDiff:
    """Delta encoding of a post-failure max-flow.

    The reconstruction sends one unit on edge x iff f-tilde does XOR
    x is in ``toggled``. It is feasible in the walk-pruned network minus
    the failures and its value is ``new_value``, the true max-flow of
    the network minus the failures.
    """

    toggled: frozenset[int]
    new_value: int
    base: str = "f~"


class SensitivityOracle:
    """Single- and dual-failure query oracle for one network."""

    def __init__(self, net: FlowNetwork):
        self.net = net
        pruned, info = prune_to_st_paths(net)
        self.pruned_net = pruned
        self.walk_dropped = info.removed
        # over the walk-pruned network, so rerouting cycles may use
        # calibration-removed edges
        self.incidence = incidence(pruned)
        if info.disconnected:
            self.lam = 0
            self.built = None
            self.mincut = None
            self.no_effect = frozenset(net.edges)
            self.union_min1 = frozenset()
            return
        bf = build_flow_family(pruned)
        self.built = bf
        self.lam = bf.sub.lam
        self.mincut = build_mincut_oracle(bf)
        self.no_effect = frozenset(self.walk_dropped | bf.sub.pruned)
        fam = bf.family
        self.union_min1 = frozenset().union(
            *(fam.nullmin1[("A", i)] for i in range(len(fam.A)))
        )

    def _known(self, eid: int) -> None:
        if eid not in self.net.edges:
            raise QueryError(f"unknown edge {eid}")

    def _kept(self, eid: int) -> bool:
        return eid not in self.no_effect

    @property
    def _rep_key(self):
        return ("A", self.built.family.representative)

    # ---- single failure ----

    def query_edge_flow(self, e: int, x: int) -> int:
        """Flow bit through x in the canonical max-flow after e fails."""
        self._known(e)
        self._known(x)
        if e == x:
            raise QueryError("edge x does not survive the failure of e")
        if self.lam == 0:
            return 0
        fam = self.built.family
        if not self._kept(e) or fam.f_tilde.values.get(e, 0) == 0:
            return fam.f_tilde.values.get(x, 0)
        return fam.canonical_flow(e).values.get(x, 0)

    def report_flow_diff_single(self, e: int) -> FlowDiff:
        """Max-flow after e fails, as a delta against f-tilde."""
        self._known(e)
        if self.lam == 0:
            return FlowDiff(frozenset(), 0)
        fam = self.built.family
        if not self._kept(e) or fam.f_tilde.values.get(e, 0) == 0:
            return FlowDiff(frozenset(), self.lam)
        diff = fam.nullsets[self._rep_key] ^ fam.nullsets[fam.canonical[e]]
        bound = 6 * self.pruned_net.n
        if len(diff) > bound:
            raise InternalInvariantError(
                f"flow diff of edge {e} has {len(diff)} edges, bound is {bound}"
            )
        crit = self.built.labels.is_critical(e)
        return FlowDiff(diff, self.lam - (1 if crit else 0))

    # ---- dual failure ----

    def report_flow_diff_dual(self, e: int, e2: int) -> FlowDiff:
        """Max-flow after both e and e2 fail, as a delta against f-tilde."""
        self._known(e)
        self._known(e2)
        if e == e2:
            raise QueryError("dual-failure query needs two distinct edges")
        if self.lam == 0:
            return FlowDiff(frozenset(), 0)
        live = [x for x in (e, e2) if self._kept(x)]
        if not live:
            return FlowDiff(frozenset(), self.lam)
        if len(live) == 1:
            if live[0] == e2:
                log.info(
                    "dual query (%d, %d): %d has no effect, "
                    "answering the single failure of %d",
                    e, e2, e, e2,
                )
            return self.report_flow_diff_single(live[0])
        fam = self.built.family
        key = fam.canonical[e]
        f = fam.flow(key).values
        val_f = self.lam - (1 if self.built.labels.is_critical(e) else 0)
        base = fam.nullsets[self._rep_key] ^ fam.nullsets[key]
        if f.get(e2, 0) == 0:
            return FlowDiff(base, val_f)
        net, inc = self.pruned_net, self.incidence
        cycle = cycle_through_arc_without(net, inc, f, e2, e)
        value = val_f
        if cycle is None:
            cycle = cycle_through_arc_without(net, inc, f, e2, e, st_arc=True)
            if cycle is None:
                raise InternalInvariantError(
                    "no rerouting cycle even after releasing one unit of value"
                )
            value = val_f - 1
        eids = [a.eid for a in cycle if a.eid is not ARTIFICIAL]
        if len(eids) != len(set(eids)):
            raise InternalInvariantError("rerouting cycle repeats an edge")
        return FlowDiff(base ^ frozenset(eids), value)

    def mincut_size_dual(self, e: int, e2: int) -> int:
        """Min-cut (= max-flow) value after both e and e2 fail."""
        self._known(e)
        self._known(e2)
        if e == e2:
            raise QueryError("dual-failure query needs two distinct edges")
        if self.lam == 0:
            return 0
        live = [x for x in (e, e2) if self._kept(x)]
        crit = self.built.labels.is_critical
        if not live:
            return self.lam
        if len(live) == 1:
            return self.lam - (1 if crit(live[0]) else 0)
        c1, c2 = crit(e), crit(e2)
        if c1 or c2:
            if c1 and c2 and decreases_by_k(self.mincut, (e, e2), 2):
                return self.lam - 2
            return self.lam - 1
        # both non-critical: the drop happens iff the second failure cannot
        # be routed around in the residual of the flow avoiding the first
        fam = self.built.family
        key = fam.canonical[e]
        u, v = self.pruned_net.edges[e2]
        if (
            e in self.union_min1
            and e2 in self.union_min1
            and e2 not in fam.nullmin1[key]
            and not strongly_connected_without(
                self.pruned_net, self.incidence, fam.flow(key).values, u, v, e
            )
        ):
            return self.lam - 1
        return self.lam
