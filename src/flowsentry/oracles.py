"""Failure-sensitivity oracles: max-flow and min-cut under 1-2 edge faults.

``SensitivityOracle`` is built once over a raw network. It walk-prunes
the graph and builds the flow family and the min-cut structure over the
calibrated subgraph, then keeps only the paper's encoding, each table
once:
  * ``null``, the null set of the representative flow f-tilde: the
    edges calibration kept that f-tilde leaves at 0;
  * ``flip``, which maps each kept edge f-tilde carries to the delta of
    its canonical flow (a max-flow avoiding that edge) against f-tilde.
    A critical edge's canonical flow is g_i, f-tilde minus decomposition
    path i, so its delta is path i. Edges that share a canonical flow
    share one frozenset: at most 2*lam+1 deltas are stored;
  * the path tables ``precedes`` reads, keyed by the critical edges;
  * one graph, the walk-pruned network.
No flow is stored. The canonical flow after e fails carries edge x
exactly when x is kept and (x not in null) != (x in flip[e]); an edge
outside ``flip`` leaves f-tilde itself as its canonical flow. Queries
run on lookups plus searches of the residual rows of one canonical flow
and of a BFS tree from t over them (see "residual traversals" below), a
cache filled on first use, never part of the oracle file. MF2 takes its
value from the strip order when e or e2 is critical and then looks for
one rerouting cycle, else for up to two.

Conventions the queries rely on:
  * edges outside every (s,t)-walk, and edges removed by calibration,
    have no effect on any max-flow value under at most two failures;
    they are dropped from failure sets up front.
  * flow answers are deltas against f-tilde. A reported flow lives on
    the walk-pruned network (rerouting cycles may travel through
    calibration-removed edges) and its value equals the max-flow of the
    original network minus the failures.
  * a disconnected instance (max-flow 0) keeps no edge, so every query
    short-circuits to 0.
"""

import logging
from dataclasses import dataclass

from .errors import InternalInvariantError, QueryError
from .family import build_flow_family
from .flows import ARTIFICIAL, Arc
from .graph import FlowNetwork, prune_to_st_paths
from .mincut import build_mincut_oracle, precedes

log = logging.getLogger(__name__)

EMPTY = frozenset()


# ---- residual traversals ----
#
# A flow's residual is given as rows: rows[x] holds the entries of x's
# incidence list (DirectedMultigraph.incidence) that are residual arcs of
# the flow, an idle edge's forward entry and a carrying edge's reverse
# one. The rows keep the incidence order, ascending EdgeId, forward before
# reverse: that order fixes the reported cycle. The artificial s->t arc is
# never scanned; a cycle through it joins a search from u to s with a
# t~>v leg read off the flow's BfsTree: one FIFO BFS from t with no edge
# failed, run until v is found and resumed for the next v. The search
# from t without the failed edge e differs from it only where e's arc
# would find its head b. So unless e's arc found b no later than v, that
# search runs step for step as the tree did up to v and returns the
# tree's leg; otherwise the leg is searched. SensitivityOracle._tree fills
# a canonical flow's rows on first use: f-tilde's from the incidence list,
# any other as a copy of f-tilde's with only the rows at the endpoints of
# its delta's edges rebuilt, so each costs O(n + sum of those degrees).
# Each canonical flow, f-tilde included, has one row set and one tree;
# they stay out of the pickle, and the first traversals after a load
# refill them.


def _search(rows, src, dst, failed):
    """BFS parent map from src until dst is found in the residual rows
    minus edge failed, or None; parent[w] = (x, eid, is_reverse) is the
    arc x->w that found w."""
    parent = {src: None}
    if src == dst:
        return parent
    queue = [src]
    for x in queue:
        for eid, w, rev in rows[x]:
            if w in parent or eid == failed:
                continue
            parent[w] = (x, eid, rev)
            if w == dst:
                return parent
            queue.append(w)
    return None


def strongly_connected_without(net: FlowNetwork, rows, x, y, failed) -> bool:
    """Whether x and y are strongly connected in the residual rows of a
    flow on net minus edge failed."""
    if not (0 <= x < net.n and 0 <= y < net.n):
        raise QueryError(f"vertex out of range: {x}, {y}")
    if failed not in net.edges:
        raise QueryError(f"unknown failed edge {failed!r}")
    return _search(rows, x, y, failed) is not None and \
        _search(rows, y, x, failed) is not None


def _bfs(rows, queue, arc):
    """FIFO BFS over rows from queue; arc[w] = (x, w, eid, is_reverse), the
    arc that found w. Pauses once the vertex sent in is found."""
    v = yield
    for x in queue:
        for eid, w, rev in rows[x]:
            if w not in arc:
                arc[w] = (x, w, eid, rev)
                queue.append(w)
                if w == v:
                    v = yield


class BfsTree:
    """BFS tree from root over residual rows with no edge failed, grown
    only until the vertex asked for is found. arc[w] (None for root) is
    made an Arc when first read; queue lists the vertices as found."""

    def __init__(self, rows, root):
        self.rows, self.arc, self.queue = rows, {root: None}, [root]
        self._scan = _bfs(rows, self.queue, self.arc)
        next(self._scan)

    def path(self, v, failed, ends):
        """Arcs of the path _search finds from root to v in the rows minus
        edge failed, whose endpoints are ends, v's end first; None when
        the scan never finds v or failed's arc found its head no later
        than v (see "residual traversals")."""
        arc, queue = self.arc, self.queue
        if v not in arc:
            try:
                self._scan.send(v)
            except StopIteration:
                return None
        leg, a = [], arc[v]
        for b in ends if a else ():  # v is root: nothing came before it
            c = arc.get(b)
            if c and c[2] == failed and queue.index(b) <= queue.index(v):
                return None
        while a:
            if type(a) is not Arc:
                a = arc[a[1]] = Arc(*a)
            leg.append(a)
            a = arc[a[0]]
        return leg


def cycle_through_arc_without(net: FlowNetwork, rows, target, failed,
                              st_arc: bool = False, tree=None):
    """Simple cycle, as a tuple of Arcs, through the reverse arc v->u of
    target in the residual rows of a flow on net minus edge failed,
    starting with that arc; None when there is none.

    st_arc closes the cycle through the artificial s->t arc, which models
    releasing one unit of value: u~>s, s->t, t~>v, from two searches. The
    caller must know that no cycle avoids the artificial arc. Then what u
    reaches is closed under residual arcs and misses v, so the legs are
    disjoint and are the path one search scanning the arc would find.
    The t~>v leg is read off tree, a BfsTree from t over rows (a new one
    when None), where the tree can tell it."""
    for eid in (failed, target):
        if eid not in net.edges:
            raise QueryError(f"unknown edge {eid!r}")
    if target == failed:
        raise QueryError("target edge coincides with the failed edge")
    u, v = net.edges[target]
    if (target, u, True) not in rows[v]:
        raise QueryError(f"edge {target} carries no flow; it has no reverse arc")
    legs = ((u, net.s), (net.t, v)) if st_arc else ((u, v),)
    cycle = [Arc(v, u, target, True)]
    for i, (src, dst) in enumerate(legs):
        leg = (tree or BfsTree(rows, src)).path(
            dst, failed, net.edges[failed]) if i else None
        if leg is None:
            parent = _search(rows, src, dst, failed)
            if parent is None:
                return None
            leg = []
            while dst != src:
                x, eid, rev = parent[dst]
                leg.append(Arc(x, dst, eid, rev))
                dst = x
        if i:
            leg.append(Arc(net.s, net.t, ARTIFICIAL, False))
        cycle += reversed(leg)
    return tuple(cycle)


@dataclass(frozen=True)
class FlowDiff:
    """Delta encoding of a post-failure max-flow against f-tilde.

    The reconstruction sends one unit on edge x iff f-tilde does XOR
    x is in ``toggled``. It is feasible in the walk-pruned network minus
    the failures and its value is ``new_value``, the true max-flow of
    the network minus the failures.
    """

    toggled: frozenset[int]
    new_value: int


class SensitivityOracle:
    """Single- and dual-failure query oracle for one network.

    Every EdgeId of the input network is in exactly one of
    ``pruned_net.edges`` and ``walk_dropped``; only the calibrated
    subgraph's edges, ``kept``, affect any answer. ``null`` and ``flip``
    encode the 2*lam+1 family flows as described in the module
    docstring; an edge is critical exactly when it is a key of
    ``paths.path_of``.
    """

    def __init__(self, net: FlowNetwork):
        pruned, info = prune_to_st_paths(net)
        self._fill(pruned, info.removed,
                   None if info.disconnected else build_flow_family(pruned))

    def _fill(self, pruned: FlowNetwork, walk_dropped, bf) -> None:
        """Store the encoding of bf, pruned's family (None if disconnected)."""
        self.pruned_net = pruned
        self.walk_dropped = walk_dropped
        if bf is None:
            self.lam = 0
            self.kept = self.null = EMPTY
            self.flip = {}
            self.paths = None
            return
        fam = bf.family
        self.lam = bf.sub.lam
        self.kept = bf.sub.kept
        self.null, self.flip = fam.null, fam.flip
        self.paths = build_mincut_oracle(bf)

    def _known(self, eid: int) -> None:
        if eid not in self.pruned_net.edges and eid not in self.walk_dropped:
            raise QueryError(f"unknown edge {eid}")

    def __getstate__(self):
        # the residual rows and trees are a cache _tree refills after a load
        return {k: v for k, v in vars(self).items() if k != "_residual"}

    def _tree(self, d: frozenset[int]) -> BfsTree:
        """BFS tree from t over the residual rows of the canonical flow
        whose delta against f-tilde is d (EMPTY for f-tilde), built on
        first use and scanned only as far as queries ask."""
        cache = self.__dict__.setdefault("_residual", {})
        tree = cache.get(d)
        if tree is None:
            net, carried = self.pruned_net, (self.kept - self.null) ^ d
            inc = net.graph.incidence()
            if d:  # f-tilde's rows, rebuilt at the ends of d's edges
                rows = list(self._tree(EMPTY).rows)
                at = {x for eid in d for x in net.edges[eid]}
            else:
                rows, at = [None] * net.n, range(net.n)
            for x in at:
                rows[x] = [a for a in inc[x] if (a[0] in carried) == a[2]]
            tree = cache[d] = BfsTree(rows, net.t)
        return tree

    # ---- single failure ----

    def query_edge_flow(self, e: int, x: int) -> int:
        """Flow bit through x in the canonical max-flow after e fails."""
        self._known(e)
        self._known(x)
        if e == x:
            raise QueryError("edge x does not survive the failure of e")
        if x not in self.kept:
            return 0
        return int((x not in self.null) != (x in self.flip.get(e, EMPTY)))

    def report_flow_diff_single(self, e: int) -> FlowDiff:
        """Max-flow after e fails, as a delta against f-tilde."""
        self._known(e)
        d = self.flip.get(e)
        if d is None:
            return FlowDiff(EMPTY, self.lam)
        bound = 6 * self.pruned_net.n
        if len(d) > bound:
            raise InternalInvariantError(
                f"flow diff of edge {e} has {len(d)} edges, bound is {bound}"
            )
        return FlowDiff(d, self.lam - (e in self.paths.path_of))

    # ---- dual failure ----

    def report_flow_diff_dual(self, e: int, e2: int) -> FlowDiff:
        """Max-flow after both e and e2 fail, as a delta against f-tilde."""
        self._known(e)
        self._known(e2)
        if e == e2:
            raise QueryError("dual-failure query needs two distinct edges")
        live = [x for x in (e, e2) if x in self.kept]
        if not live:
            return FlowDiff(EMPTY, self.lam)
        if len(live) == 1:
            if live[0] == e2:
                log.info(
                    "dual query (%d, %d): %d has no effect, "
                    "answering the single failure of %d",
                    e, e2, e, e2,
                )
            return self.report_flow_diff_single(live[0])
        d = self.flip.get(e, EMPTY)
        crit = self.paths.path_of
        val_f = self.lam - (e in crit)
        # e2 idle in e's canonical flow: nothing to reroute
        if (e2 in self.null) != (e2 in d):
            return FlowDiff(d, val_f)
        # over the walk-pruned network, so rerouting cycles may use
        # calibration-removed edges. A critical edge in the pair fixes the
        # value by the strip order; if it drops, no plain cycle exists and
        # only the released-unit one is searched
        net, tree = self.pruned_net, self._tree(d)
        rows = tree.rows
        crit_pair = e in crit or e2 in crit
        value = self._critical_value(e, e2) if crit_pair else val_f
        cycle = cycle_through_arc_without(net, rows, e2, e, value < val_f,
                                          tree)
        if cycle is None and not crit_pair:
            value -= 1
            cycle = cycle_through_arc_without(net, rows, e2, e, True, tree)
        if cycle is None:
            raise InternalInvariantError(
                f"no rerouting cycle for the post-failure value {value}")
        if len({a.tail for a in cycle}) != len(cycle):
            raise InternalInvariantError("rerouting cycle repeats a vertex")
        return FlowDiff(
            d ^ frozenset(a.eid for a in cycle if a.eid is not ARTIFICIAL),
            value)

    def _critical_value(self, e: int, e2: int) -> int:
        """Value after kept edges e and e2 fail, at least one critical:
        the drop is 2 iff both are critical and lie in one min-cut, that
        is iff no strip path orders them."""
        crit = self.paths.path_of
        if e in crit and e2 in crit and not (
                precedes(self.paths, e, e2) or precedes(self.paths, e2, e)):
            return self.lam - 2
        return self.lam - 1

    def mincut_size_dual(self, e: int, e2: int) -> int:
        """Min-cut (= max-flow) value after both e and e2 fail."""
        self._known(e)
        self._known(e2)
        if e == e2:
            raise QueryError("dual-failure query needs two distinct edges")
        live = [x for x in (e, e2) if x in self.kept]
        if not live:
            return self.lam
        crit = self.paths.path_of
        if len(live) == 1:
            return self.lam - (live[0] in crit)
        if e in crit or e2 in crit:
            return self._critical_value(e, e2)
        # both non-critical: the drop happens iff the second failure cannot
        # be routed around in the residual of the flow avoiding the first.
        # Calibration keeps only edges with nu <= lam+1, so both have nu =
        # lam+1 and lie in null(f, min+1) wherever they lie in null(f): the
        # test below is e2 carrying flow in e's canonical flow.
        u, v = self.pruned_net.edges[e2]
        d = self.flip.get(e, EMPTY)
        if (e2 in self.null) == (e2 in d) and not strongly_connected_without(
                self.pruned_net, self._tree(d).rows, u, v, e):
            return self.lam - 1
        return self.lam
