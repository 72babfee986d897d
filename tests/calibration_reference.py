"""Calibration and edge classification as they stood when every probe ran
two arc-scan augmentations with flows.augment_unit.

A probe of e = (u, v) pushes up to two units from {s, u} to {t, v} over
the graph's incidence list, building both paths, and toggles both back.
calibrate deletes an edge by replacing its two incidence rows with copies
that leave it out, and reroutes a deleted edge's unit with one u -> v
augmentation.

test_family.py checks that family.calibrate and family._capped_nu,
which probe on flows.UnitResidual's bitmasks instead, return the same
kept, pruned and critical sets, lam and min(nu, lam+2): those depend only
on max-flow values, not on the paths a search finds. classify is also
the tests' source of nu.
"""

from flowsentry.errors import InternalInvariantError
from flowsentry.flows import augment_unit

from conftest import unit_max_flow

# nu of an edge that crosses no s-t partition (tail t, head s, or a
# self-loop): above any lam+1 at the scales the library accepts
NU_UNBOUNDED = 1 << 60


def capped_nu(arcs, flow, net, eid, lam):
    """min(nu, lam+2) of eid over the live arcs, from their max-flow flow of
    value lam; the augmentations are toggled back, leaving flow as found."""
    u, v = net.edges[eid]
    if u == v or u == net.t or v == net.s:
        return NU_UNBOUNDED
    paths = []
    while len(paths) < 2:
        path = augment_unit(arcs, flow, (net.s, u), (net.t, v))
        if path is None:
            break
        paths.append(path)
    for path in paths:
        for x in path:
            flow[x] ^= 1
    return lam + len(paths)


def classify(net):
    """(lam, nu, critical) with nu probed on one max-flow of net."""
    f = unit_max_flow(net)
    lam = f.value
    flow, arcs = dict(f.values), net.incidence()
    nu = {eid: capped_nu(arcs, flow, net, eid, lam) for eid in sorted(net.edges)}
    return lam, nu, frozenset(e for e in nu if lam > 0 and nu[e] == lam)


def calibrate(net):
    """(lam, kept, pruned, critical, nu): one probe per edge in ascending
    EdgeId on the shrinking subgraph, deleting each edge with nu > lam+1."""
    f = unit_max_flow(net)
    lam = f.value
    flow, arcs = dict(f.values), list(net.incidence())
    nu = {}
    removed = []
    for eid in sorted(net.edges):
        nu[eid] = capped_nu(arcs, flow, net, eid, lam)
        if nu[eid] <= lam + 1:
            continue
        u, v = net.edges[eid]
        # rows are replaced, never edited: the graph's own list is shared
        arcs[u] = [a for a in arcs[u] if a[0] != eid]
        arcs[v] = [a for a in arcs[v] if a[0] != eid]
        removed.append(eid)
        if flow[eid]:
            flow[eid] = 0
            if augment_unit(arcs, flow, (u,), (v,)) is None:
                raise InternalInvariantError(
                    f"no flow reroutes around deleted edge {eid}"
                )
    critical = frozenset(e for e in nu if lam > 0 and nu[e] == lam)
    pruned = frozenset(removed)
    return lam, frozenset(net.edges) - pruned, pruned, critical, nu
