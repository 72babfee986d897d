"""The released-unit cycle found by one search, as a reference.

The shipped cycle_through_arc_without(..., st_arc=True) joins two
searches, u~>s and t~>v, through the artificial s->t arc. This module
keeps the single breadth-first search it replaced: one search from u
that scans the artificial arc last among s's arcs. When no cycle avoids
that arc, the two must return equal Arcs, which test_ftscc.py checks.
"""

from collections import deque

from flowsentry.flows import ARTIFICIAL, Arc


def released_unit_cycle_one_search(net, kept, null, target, failed):
    """Simple cycle through the reverse arc of target, which carries flow
    in (kept, null), and the artificial s->t arc, in the residual minus
    edge failed, starting with the reverse arc; None when there is none."""
    u, v = net.edges[target]
    inc = net.graph.incidence()
    parent = {u: None}
    queue = deque([u])
    while queue and v not in parent:
        x = queue.popleft()
        arcs = inc[x]
        if x == net.s:
            arcs = arcs + [(ARTIFICIAL, net.t, False)]
        for eid, w, rev in arcs:
            if w in parent or eid == failed or (
                    eid in kept and eid not in null) != rev:
                continue
            parent[w] = (x, eid, rev)
            if w == v:
                break
            queue.append(w)
    if v not in parent:
        return None
    path = []
    w = v
    while w != u:
        x, eid, rev = parent[w]
        path.append(Arc(x, w, eid, rev))
        w = x
    return (Arc(v, u, target, True), *reversed(path))
