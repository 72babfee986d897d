"""Failure-sensitivity oracles: max-flow and min-cut under 1-2 edge faults.

``SensitivityOracle`` is built once over a raw network. It walk-prunes
the graph and builds the flow family and the min-cut structure over the
calibrated subgraph, then keeps only the paper's encoding, each table
once:
  * ``kept``, the edges calibration kept;
  * ``flip``, which maps each kept edge the representative flow f-tilde
    carries to the delta of its canonical flow (a max-flow avoiding that
    edge) against f-tilde. Its key set is the set of edges f-tilde
    carries, so f-tilde's null set, the kept edges it leaves at 0, is
    not stored. A critical edge's canonical flow is g_i, f-tilde minus
    decomposition path i, so its delta is path i. Edges that share a
    canonical flow share one frozenset: at most 2*lam+1 deltas are
    stored;
  * the path tables ``precedes`` reads, keyed by the critical edges;
  * one graph, the walk-pruned network, and the input's edge count m.
No flow is stored. The canonical flow after e fails carries edge x
exactly when (x in flip) != (x in flip[e]), which is 0 for every edge
outside ``kept``; an edge outside ``flip`` leaves f-tilde itself as its
canonical flow. Queries run on lookups plus at most one search of the
residual rows of one canonical flow or one walk along its first carried
edges (see "residual traversals" below), a cache filled on first use,
never part of the oracle file. MF2 takes its value from the strip order
when e or e2 is critical, else from whether a plain rerouting cycle
exists. Where the value stays it toggles that cycle; where it drops, it
removes the unit of e's canonical flow through e2, read by walking that
flow, which is acyclic.

Answers are shared immutable objects, kept in caches outside the oracle
file. An edge's single-failure answer is built on its first query that
returns it; every known edge outside ``flip`` shares one no-effect
answer. MF, MFD, and MF2 where the pair's answer is a single failure's
(an edge outside ``kept``, or e2 idle in e's canonical flow) return that
one object. An MF2 answer that releases a unit is built on the first
query for its canonical flow's delta d and e2, and kept per d twice:
under e2, and under its toggled set, so every e2 whose walk gives the
same unit shares one answer. d fixes the flow, so also its value, and
the walk reads nothing else; a later query still runs every value check
but no walk. Per d the answers number at most the edges the flow
carries.

Conventions the queries rely on:
  * the input's EdgeIds are 0..m-1, as parse_network and the generators
    number them, so an EdgeId is known exactly when it lies in that
    range; the build raises ValueError on any other numbering.
  * edges outside every (s,t)-walk, and edges removed by calibration,
    have no effect on any max-flow value under at most two failures;
    they are dropped from failure sets up front.
  * flow answers are deltas against f-tilde. A reported flow lives on
    the walk-pruned network (rerouting cycles may travel through
    calibration-removed edges) and its value equals the max-flow of the
    original network minus the failures.
  * a disconnected instance builds like any other, with lam = 0 and
    no kept edge, so every query answers 0.
"""

import logging
from typing import NamedTuple

from .errors import InternalInvariantError, QueryError
from .family import build_flow_family
from .graph import FlowNetwork, prune_to_st_paths
from .mincut import build_mincut_oracle, precedes

log = logging.getLogger(__name__)

EMPTY = frozenset()
DISTINCT = "dual-failure query needs two distinct edges"
_NO_EFFECT = object()  # the answer cache's key for the no-effect answer


# ---- residual traversals ----
#
# A flow's residual is given as rows: rows[x] holds the entries of x's
# incidence list (FlowNetwork.incidence) that are residual arcs of
# the flow, an idle edge's forward entry and a carrying edge's reverse
# one. The rows keep the incidence order, ascending EdgeId, forward before
# reverse: that order fixes the reported cycle. A unit of value is
# released by walking the flow itself, not its residual: every canonical
# flow is a sub-flow of the cycle-cancelled f_H, so it is acyclic and the
# walks out of an edge it carries end at t and at s. Each step reads one
# entry of two per-vertex lists, out[x], the first carried out-edge of x
# in incidence order as (EdgeId, head), and into[x], the first carried
# in-edge as (EdgeId, tail), None where x has none.
# SensitivityOracle._residual_of fills a canonical flow's rows, carried
# set and both lists on first use, in one pass over the incidence entries
# of each vertex it builds: f-tilde's from the whole incidence list, any
# other's as copies of f-tilde's with only the entries at the endpoints
# of its delta's edges rebuilt, so each costs O(n + sum of those
# degrees). The cache stays out of the pickle, and the first traversals
# after a load refill it. Every entry is complete before one dict
# assignment stores it, so threads querying one oracle at worst build an
# equal entry twice. SensitivityOracle._answer keeps the single-failure
# answers the same way, and SensitivityOracle._release the MF2 answers
# that release a unit.


def _search(rows, src, dst, failed):
    """BFS parent map from src until dst is found in the residual rows
    minus edge failed, or None; parent[w] = (x, eid) is the arc x->w
    that found w."""
    parent = {src: None}
    if src == dst:
        return parent
    queue = [src]
    for x in queue:
        for eid, w, _ in rows[x]:
            if w in parent or eid == failed:
                continue
            parent[w] = (x, eid)
            if w == dst:
                return parent
            queue.append(w)
    return None


def cycle_through_arc_without(net: FlowNetwork, rows, carried, target,
                              failed):
    """Simple cycle through the reverse arc v->u of target in the residual
    rows of a flow on net minus edge failed, as EdgeIds: target, then the
    u~>v path a BFS from u finds, in path order; None when there is
    none. carried is the set of edges the flow carries."""
    for eid in (failed, target):
        if eid not in net.edges:
            raise QueryError(f"unknown edge {eid!r}")
    if target == failed:
        raise QueryError("target edge coincides with the failed edge")
    if target not in carried:
        raise QueryError(f"edge {target} carries no flow; it has no reverse arc")
    u, v = net.edges[target]
    parent = _search(rows, u, v, failed)
    if parent is None:
        return None
    leg = []
    while v != u:
        v, eid = parent[v]
        leg.append(eid)
    return (target, *reversed(leg))


def released_unit(net: FlowNetwork, out, into, target) -> list[int]:
    """EdgeIds of the s-t path of an acyclic flow through target, an edge
    it carries: target, the first carried out-edges from its head to t,
    then the first carried in-edges back from its tail to s. out[x] and
    into[x] are x's first carried out-edge as (EdgeId, head) and in-edge
    as (EdgeId, tail) in incidence order, None where it has none."""
    u, v = net.edges[target]
    path, seen = [target], {u, v}
    for x, end, step in ((v, net.t, out), (u, net.s, into)):
        while x != end:
            edge = step[x]
            if edge is None:
                raise InternalInvariantError(
                    "released unit: the flow walk finds no carried edge")
            eid, w = edge
            if w in seen:
                raise InternalInvariantError(
                    "released unit: the flow walk re-enters a vertex")
            seen.add(w)
            path.append(eid)
            x = w
    return path


class FlowDiff(NamedTuple):
    """Delta encoding of a post-failure max-flow against f-tilde.

    The reconstruction sends one unit on edge x iff f-tilde does XOR
    x is in ``toggled``. It is feasible in the walk-pruned network minus
    the failures and its value is ``new_value``, the true max-flow of
    the network minus the failures. An answer is immutable, so the
    oracle shares it: every query that returns an edge's single-failure
    answer returns one object.
    """

    toggled: frozenset[int]
    new_value: int


class SensitivityOracle:
    """Single- and dual-failure query oracle for one network.

    The input's EdgeIds must be 0..m-1 (ValueError otherwise); those are
    the known edges. ``pruned_net`` holds the ones on some (s,t)-walk,
    and only the calibrated subgraph's edges, ``kept``, affect any
    answer. ``flip`` encodes the 2*lam+1 family flows as described in
    the module docstring; an edge is critical exactly when it is a key
    of ``paths.path_of``.
    """

    def __init__(self, net: FlowNetwork):
        if set(net.edges) != set(range(net.m)):
            raise ValueError("SensitivityOracle needs the EdgeIds 0..m-1, "
                             "as parse_network numbers them")
        self.pruned_net, self.m = prune_to_st_paths(net), net.m
        bf = build_flow_family(self.pruned_net)
        self.lam, self.kept = bf.sub.lam, bf.sub.kept
        self.flip = bf.family.flip
        self.paths = build_mincut_oracle(bf)

    def _known(self, eid: int) -> None:
        if not 0 <= eid < self.m:
            raise QueryError(f"unknown edge {eid}")

    def _refuse(self, e: int, x: int, same: str):
        """Raise the QueryError for a pair that is not two known, distinct
        edges: an unknown edge in argument order, else QueryError(same).
        The pair queries call it only once their inline check failed."""
        self._known(e)
        self._known(x)
        raise QueryError(same)

    def __getstate__(self):
        # the residual rows and the answers are caches refilled after a load
        return {k: v for k, v in vars(self).items()
                if k not in ("_residual", "_answers", "_released")}

    def _answer(self, e: int) -> FlowDiff:
        """e's single-failure answer, built on e's first query and shared
        by every later query that returns it. Every known edge outside
        flip shares one no-effect answer, stored under _NO_EFFECT when
        the cache is made."""
        try:
            return self._answers[e]
        except KeyError:
            answers = self._answers
        except AttributeError:
            answers = self.__dict__.setdefault(
                "_answers", {_NO_EFFECT: FlowDiff(EMPTY, self.lam)})
        d = self.flip.get(e)
        if d is None:  # an edge in flip is kept, so known
            self._known(e)
            answer = answers[_NO_EFFECT]
        else:
            bound = 6 * self.pruned_net.n
            if len(d) > bound:
                raise InternalInvariantError(
                    f"flow diff of edge {e} has {len(d)} edges, "
                    f"bound is {bound}")
            answer = FlowDiff(d, self.lam - (e in self.paths.path_of))
        answers[e] = answer
        return answer

    def _residual_of(self, d: frozenset[int]):
        """(rows, carried, out, into) of the canonical flow whose delta
        against f-tilde is d (EMPTY for f-tilde): its residual rows, the
        edges it carries, and per vertex its first carried out-edge as
        (EdgeId, head) and first carried in-edge as (EdgeId, tail), or
        None; built on first use."""
        cache = self.__dict__.setdefault("_residual", {})
        res = cache.get(d)
        if res is None:
            net, carried = self.pruned_net, self.flip.keys() ^ d
            inc = net.incidence()
            if d:  # f-tilde's, rebuilt at the ends of d's edges
                rows, _, out, into = self._residual_of(EMPTY)
                rows, out, into = list(rows), list(out), list(into)
                at = {x for eid in d for x in net.edges[eid]}
            else:
                rows, out, into = ([None] * net.n for _ in range(3))
                at = range(net.n)
            for x in at:
                row, first_out, first_in = [], None, None
                for a in inc[x]:
                    if (a[0] in carried) == a[2]:
                        row.append(a)
                        if a[2] and first_in is None:
                            first_in = a[:2]
                    elif first_out is None and not a[2]:
                        first_out = a[:2]
                rows[x], out[x], into[x] = row, first_out, first_in
            res = cache[d] = rows, carried, out, into
        return res

    # ---- single failure ----

    def query_edge_flow(self, e: int, x: int) -> int:
        """Flow bit through x in the canonical max-flow after e fails."""
        m = self.m
        if e == x or not (0 <= e < m and 0 <= x < m):
            self._refuse(e, x, "edge x does not survive the failure of e")
        if x not in self.kept:
            return 0
        return int((x in self.flip) != (x in self.flip.get(e, EMPTY)))

    def report_flow_diff_single(self, e: int) -> FlowDiff:
        """Max-flow after e fails, as a delta against f-tilde."""
        return self._answer(e)

    # ---- dual failure ----

    def report_flow_diff_dual(self, e: int, e2: int) -> FlowDiff:
        """Max-flow after both e and e2 fail, as a delta against f-tilde."""
        m, kept = self.m, self.kept
        if e == e2 or not (0 <= e < m and 0 <= e2 < m):
            self._refuse(e, e2, DISTINCT)
        if e not in kept or e2 not in kept:
            if e2 in kept:
                log.info(
                    "dual query (%d, %d): %d has no effect, "
                    "answering the single failure of %d",
                    e, e2, e, e2,
                )
                return self._answer(e2)
            return self._answer(e)  # the no-effect one if e is not kept
        flip = self.flip
        d = flip.get(e, EMPTY)
        # e2 idle in e's canonical flow: nothing to reroute
        if (e2 in flip) == (e2 in d):
            return self._answer(e)
        crit = self.paths.path_of
        val_f = self.lam - (e in crit)
        # over the walk-pruned network, so rerouting cycles may use
        # calibration-removed edges. A critical edge in the pair fixes the
        # value by the strip order, and a plain cycle is searched only
        # where it stays. Where it drops, e's flow gives up its unit
        # through e2; that flow leaves e idle, so the unit avoids e
        crit_pair = e in crit or e2 in crit
        value = self._critical_value(e, e2) if crit_pair else val_f
        if value == val_f:
            net, (rows, carried, _, _) = self.pruned_net, self._residual_of(d)
            reroute = cycle_through_arc_without(net, rows, carried, e2, e)
            if reroute is not None:
                if len({x for eid in reroute for x in net.edges[eid]}) != \
                        len(reroute):
                    raise InternalInvariantError(
                        "rerouting cycle repeats a vertex")
                return FlowDiff(d ^ frozenset(reroute), value)
            if crit_pair:
                raise InternalInvariantError(
                    f"no rerouting cycle for the post-failure value {value}")
        elif value < val_f - 1:
            raise InternalInvariantError(
                f"post-failure value {value} drops more than one unit")
        try:
            return self._released[d][0][e2]
        except (AttributeError, KeyError):
            return self._release(d, e2, val_f - 1)

    def _release(self, d: frozenset[int], e2: int, value: int) -> FlowDiff:
        """FlowDiff(d ^ P, value): P is the unit that the canonical flow
        with delta d gives up through e2, an edge it carries
        (released_unit), and value is that flow's value less one. Kept in
        d's tables of _released, e2 -> answer and toggled set -> answer,
        so every e2 whose walk gives the same unit shares one answer; for
        a fixed d the toggled set is one-to-one with P, so the tables hold
        no set the answers do not. d is key enough: flows are 0/1, so d
        fixes the edges the flow carries, and a canonical flow of value
        lam and one of value lam-1 never share a delta."""
        _, _, out, into = self._residual_of(d)
        toggled = d ^ frozenset(released_unit(self.pruned_net, out, into, e2))
        by_edge, by_unit = self.__dict__.setdefault(
            "_released", {}).setdefault(d, ({}, {}))
        answer = by_unit.setdefault(toggled, FlowDiff(toggled, value))
        by_edge[e2] = answer
        return answer

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
        m, kept = self.m, self.kept
        if e == e2 or not (0 <= e < m and 0 <= e2 < m):
            self._refuse(e, e2, DISTINCT)
        e_kept, e2_kept = e in kept, e2 in kept
        if not (e_kept or e2_kept):
            return self.lam
        crit = self.paths.path_of
        if not (e_kept and e2_kept):
            return self.lam - ((e if e_kept else e2) in crit)
        if e in crit or e2 in crit:
            return self._critical_value(e, e2)
        # both non-critical: the drop happens iff the second failure cannot
        # be routed around in the residual of the flow avoiding the first.
        # Calibration keeps only edges with nu <= lam+1, so both have nu =
        # lam+1 and lie in null(f, min+1) wherever they lie in null(f): the
        # test below is e2 carrying flow in e's canonical flow. e2's own
        # reverse arc then joins its head to its tail, so the two ends stay
        # strongly connected exactly when a plain cycle runs through it.
        d = self.flip.get(e, EMPTY)
        if (e2 in self.flip) != (e2 in d) and cycle_through_arc_without(
                self.pruned_net, *self._residual_of(d)[:2], e2, e) is None:
            return self.lam - 1
        return self.lam
