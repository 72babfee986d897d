"""The residual traversals and dual-failure queries as they read a flow
before residual rows, kept as a reference.

A flow is a (kept, null) pair of EdgeId sets: it carries edge x exactly
when x is in kept and not in null. The shipped traversals read rows,
per vertex the incidence entries that are residual arcs of one flow,
which SensitivityOracle caches per canonical flow. The traversals here
scan the graph's whole incidence list and test each entry against
(kept, null), and so does first_carried, the reference for the first
carried edges the released-unit walk reads; the queries build the
canonical flow's null set (canonical_null) just before a search.
Scan order, and so every plain cycle, must be the same; test_ftscc.py
checks it.

Where the value drops, the reference releases a unit by searching for a
cycle through an artificial s->t arc (u~>s, s->t, t~>v), and MC2 asks
whether u and v are strongly connected with two searches. The shipped
queries walk e's flow for the unit and ask only for the plain cycle; the
values must agree, and the toggled sets wherever the reference's cycle
avoids the artificial arc.
"""

from flowsentry.errors import InternalInvariantError, QueryError
from flowsentry.oracles import EMPTY, FlowDiff

from conftest import Arc

ARTIFICIAL = None  # EdgeId of the artificial (s,t) arc


def canonical_null(o, d):
    """The null set of a SensitivityOracle's canonical flow whose delta
    against f-tilde is d: f-tilde carries the keys of flip, so the flow
    leaves idle the kept edges outside flip's keys ^ d."""
    return o.kept - (o.flip.keys() ^ d)


def residual_rows(net, kept, null):
    """The rows the shipped traversals read for the flow (kept, null),
    built from scratch: per vertex, the incidence entries that are
    residual arcs, in incidence order."""
    return [[a for a in row if (a[0] in kept and a[0] not in null) == a[2]]
            for row in net.incidence()]


def first_carried(net, carried):
    """Per vertex, the first carried out-edge as (EdgeId, head) and the
    first carried in-edge as (EdgeId, tail), in incidence order, or None:
    the entries the released-unit walk reads, found by scanning the whole
    incidence list."""
    def first(row, rev):
        return next(((eid, w) for eid, w, r in row
                     if r == rev and eid in carried), None)

    inc = net.incidence()
    return [first(row, False) for row in inc], [first(row, True) for row in inc]


def _search(net, kept, null, src, dst, failed):
    """BFS parent map from src until dst is found in the residual of the
    flow (kept, null) minus edge failed, or None; parent[w] =
    (x, eid, is_reverse) is the arc x->w that found w."""
    parent = {src: None}
    if src == dst:
        return parent
    inc = net.incidence()
    queue = [src]
    for x in queue:
        for eid, w, rev in inc[x]:
            if w in parent or eid == failed or (
                    eid in kept and eid not in null) != rev:
                continue
            parent[w] = (x, eid, rev)
            if w == dst:
                return parent
            queue.append(w)
    return None


def strongly_connected_without(net, kept, null, x, y, failed) -> bool:
    if not (0 <= x < net.n and 0 <= y < net.n):
        raise QueryError(f"vertex out of range: {x}, {y}")
    if failed not in net.edges:
        raise QueryError(f"unknown failed edge {failed!r}")
    return _search(net, kept, null, x, y, failed) is not None and \
        _search(net, kept, null, y, x, failed) is not None


def cycle_through_arc_without(net, kept, null, target, failed,
                              st_arc=False):
    for eid in (failed, target):
        if eid not in net.edges:
            raise QueryError(f"unknown edge {eid!r}")
    if target == failed:
        raise QueryError("target edge coincides with the failed edge")
    if target not in kept or target in null:
        raise QueryError(f"edge {target} carries no flow; it has no reverse arc")
    u, v = net.edges[target]
    legs = ((u, net.s), (net.t, v)) if st_arc else ((u, v),)
    cycle = [Arc(v, u, target, True)]
    for i, (src, dst) in enumerate(legs):
        parent = _search(net, kept, null, src, dst, failed)
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


def report_flow_diff_dual(o, e, e2) -> FlowDiff:
    """SensitivityOracle.report_flow_diff_dual over (kept, null) searches."""
    o._known(e)
    o._known(e2)
    if e == e2:
        raise QueryError("dual-failure query needs two distinct edges")
    live = [x for x in (e, e2) if x in o.kept]
    if not live:
        return FlowDiff(EMPTY, o.lam)
    if len(live) == 1:
        return o.report_flow_diff_single(live[0])
    d = o.flip.get(e, EMPTY)
    crit = o.paths.path_of
    val_f = o.lam - (e in crit)
    if (e2 in o.flip) == (e2 in d):
        return FlowDiff(d, val_f)
    net, kept, null = o.pruned_net, o.kept, canonical_null(o, d)
    crit_pair = e in crit or e2 in crit
    value = o._critical_value(e, e2) if crit_pair else val_f
    cycle = cycle_through_arc_without(net, kept, null, e2, e, value < val_f)
    if cycle is None and not crit_pair:
        value -= 1
        cycle = cycle_through_arc_without(net, kept, null, e2, e, st_arc=True)
    if cycle is None:
        raise InternalInvariantError(
            f"no rerouting cycle for the post-failure value {value}")
    return FlowDiff(
        d ^ frozenset(a.eid for a in cycle if a.eid is not ARTIFICIAL),
        value)


def mincut_size_dual(o, e, e2) -> int:
    """SensitivityOracle.mincut_size_dual over (kept, null) searches."""
    o._known(e)
    o._known(e2)
    if e == e2:
        raise QueryError("dual-failure query needs two distinct edges")
    live = [x for x in (e, e2) if x in o.kept]
    if not live:
        return o.lam
    crit = o.paths.path_of
    if len(live) == 1:
        return o.lam - (live[0] in crit)
    if e in crit or e2 in crit:
        return o._critical_value(e, e2)
    u, v = o.pruned_net.edges[e2]
    d = o.flip.get(e, EMPTY)
    if (e2 in o.flip) != (e2 in d) and not strongly_connected_without(
            o.pruned_net, o.kept, canonical_null(o, d), u, v, e):
        return o.lam - 1
    return o.lam
