"""Edge criticality, the calibrated subgraph, and the fault-tolerant flow families.

Everything in this module operates on a network that has already been pruned to
its s-t walks (see graph.prune_to_st_paths). The pipeline is:

    sub     = calibrate(net)              # drop edges useless for <=1 failure,
                                          # keep lam and the critical set
    f_H     = build_auxiliary(sub)        # max-flow of H, lam*(lam+1)
    A       = peel_family_A(sub, f_H)     # unit augmentations per round
    family  = extend_family_B(A, sub)     # A plus B's encoding

or just build_flow_family(net), which runs the lot and cross-checks the
invariants that make the later oracle answers trustworthy. Every stage
reads lam and the critical set from sub. When calibration deleted edges,
build_flow_family certifies the fixpoint by calibrating sub.network
again, which must delete nothing.

Family B, 2*lam+1 flows holding a max-flow of the subgraph minus e for
every kept e, is never built: family is A plus the encoding of B that the
sensitivity oracle stores as is (FlowFamily).

nu(e) is the merge-flow value of e = (u, v): the s-t max-flow once u is merged
into s and v into t. Only its comparisons with lam, lam+1 and ">lam+1" are ever
read, so it is stored as min(nu, lam+2), and an edge that crosses no s-t
partition (tail t, head s, or a self-loop) gets lam+2. Each merged cut is a
cut of G that separates e's endpoints and a max-flow of G is feasible there
with value lam, so at most two more units from {s, u} to {t, v} decide the
capped value. A probe runs on the flow's flows.UnitResidual: an idle e is its
own first unit, a flow-carrying e needs one path search for it, and the second
unit is a reachability test with the first laid over the masks, which builds
no path. No probe changes the flow, so one flow serves every edge. Probes read
max-flow values, not the paths found, so any exact search gives the same
labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, checked
from .flows import (
    IntFlow,
    UnitFlow,
    UnitResidual,
    augment_unit,
    cancel_flow_cycles,
    decompose_into_paths,
    max_flow,
    residual_scc_ids,
)
from .graph import FlowNetwork


@dataclass(frozen=True)
class CalibratedSubgraph:
    """The kept/pruned split produced by calibrate, the live subnetwork, the
    input's critical edges, all of which calibration keeps."""

    kept: frozenset[int]
    pruned: frozenset[int]
    lam: int
    network: FlowNetwork
    critical: frozenset[int]


def _capped_nu(res: UnitResidual, net: FlowNetwork, eid: int, lam: int) -> int:
    """min(nu, lam+2) of eid in res, whose flow is a max-flow of value lam,
    by the probe of the module docstring; res is left as found."""
    u, v = net.edges[eid]
    if u == v or u == net.t or v == net.s:
        return lam + 2
    ends = 1 << net.s | 1 << u, 1 << net.t | 1 << v
    first = res.path(*ends) if res.flow[eid] else [eid]
    if first is None:
        return lam
    return lam + 1 + res.reaches_after(first, *ends)


def calibrate(net: FlowNetwork) -> CalibratedSubgraph:
    """Delete every edge whose nu exceeds lam+1, evaluated in the shrinking subgraph.

    One probe per edge, in ascending EdgeId order, on the unit residual of
    one max-flow, from which each deleted edge leaves as a dead edge. nu
    never grows under deletion, so one pass reaches the fixpoint;
    build_flow_family certifies it by calibrating the output again if any
    edge was deleted. Deleting an edge with nu >= lam+2 changes no cut of
    size <= lam+1, so the probes also decide criticality in net (checked
    against the residual test), and once a deleted edge (u, v) drops its
    unit, one u -> v augmentation restores a max-flow of value lam. The
    outputs depend on the visit order and on max-flow values only, not on
    which max-flow the reroutes leave.
    """
    f = max_flow(net)
    lam = f.value
    res = UnitResidual(net, f.values)
    nu: dict[int, int] = {}
    removed: list[int] = []
    for eid in sorted(net.edges):
        nu[eid] = _capped_nu(res, net, eid, lam)
        if nu[eid] <= lam + 1:
            continue
        u, v = net.edges[eid]
        carried = res.flow[eid]
        res.delete(eid)
        removed.append(eid)
        path = res.path(1 << u, 1 << v) if carried else []
        if path is None:
            raise InternalInvariantError(
                f"no flow reroutes around deleted edge {eid}"
            )
        for x in path:
            res.toggle(x)
    current = net.without_edges(removed) if removed else net
    kept = frozenset(current.edges)
    bound = lam * net.n + 2 * net.n * (lam + 1)
    if len(kept) > bound:
        raise InternalInvariantError(
            f"calibrated subgraph has {len(kept)} edges, bound is {bound}"
        )
    # nu == lam against the residual test on f: saturated, endpoints in
    # distinct residual SCCs; disagreement means a solver bug
    scc = checked(residual_scc_ids, net, f)
    critical = frozenset(eid for eid in nu if lam > 0 and nu[eid] == lam)
    for eid, (u, v) in net.edges.items():
        if (eid in critical) != (f.values[eid] == 1 and scc[u] != scc[v]):
            raise InternalInvariantError(
                f"criticality tests disagree on edge {eid}: nu={nu[eid]} lam={lam}"
            )
    return CalibratedSubgraph(kept=kept, pruned=frozenset(removed), lam=lam,
                              network=current, critical=critical)


def build_auxiliary(sub: CalibratedSubgraph) -> IntFlow:
    """Max-flow f_H of the capacitated auxiliary network H on the calibrated subgraph.

    Capacities: lam+1 on critical edges, lam on the rest; f_H's value must be
    lam*(lam+1). It is the one flow of the build that is not 0/1. The flow is
    cycle-canceled before it is returned so that its support is acyclic; the
    peel below inherits that, which is what makes f-tilde decomposable into
    paths. Canceling changes neither value nor feasibility, so the stored f_H
    is still a max-flow of H and the peel identity sum(f_i) == f_H is checked
    against exactly this object.
    """
    lam = sub.lam
    if lam < 1:
        raise ValueError("auxiliary network needs lam >= 1")
    caps = {
        eid: lam + 1 if eid in sub.critical else lam for eid in sub.network.edges
    }
    f_h = max_flow(sub.network, capacities=caps)
    want = lam * (lam + 1)
    if f_h.value != want:
        raise InternalInvariantError(
            f"auxiliary max-flow is {f_h.value}, expected lam*(lam+1) = {want}"
        )
    return cancel_flow_cycles(sub.network, f_h)


def peel_family_A(sub: CalibratedSubgraph, f_h: IntFlow) -> list[UnitFlow]:
    """Peel lam+1 unit max-flows out of f_H, returned as [f_1, ..., f_{lam+1}].

    Round i (from lam+1 down to 1) finds a 0/1 flow g of value lam with
    g <= h_i and g = 1 where h_i(e) == i. Feasibility is guaranteed (h_i/i
    is a fractional solution and the polytope is integral), so infeasibility
    raises. g starts at those forced units; unit augmentations over the
    other edges with h_i > 0 clear the surplus they and the demands leave
    (lam at s, -lam at t), each from every surplus vertex, ascending, to
    the first deficit vertex found. That is the path the super source/sink
    reduction of lower bounds would augment (its BFS pops vertices in the
    order it finds them and no source has a deficit), so g is the flow
    that circulation solver would return. state holds g, or g + 2 on an
    edge with no live arc. Checked every round: 0 <= h_i(e) <= i,
    conservation with value lam, no flow on spent edges, flow on forced ones.
    """
    net, lam, n = sub.network, sub.lam, sub.network.n
    arcs = net.graph.incidence()
    h = dict(f_h.values)
    peeled: list[UnitFlow] = []
    for i in range(lam + 1, 0, -1):
        surplus, state = [0] * n, {}
        surplus[net.s], surplus[net.t] = lam, -lam
        for eid, (u, v) in net.edges.items():
            val = h[eid]
            if not 0 <= val <= i:
                raise InternalInvariantError(
                    f"peel round {i}: h({eid}) = {val} out of [0, {i}]"
                )
            if val == i:
                surplus[u] -= 1
                surplus[v] += 1
            state[eid] = 3 if val == i else 0 if val else 2
        for _ in range(sum(x for x in surplus if x > 0)):
            path = augment_unit(arcs, state, [v for v, x in enumerate(surplus) if x > 0],
                                {v for v, x in enumerate(surplus) if x < 0})
            if path is None:
                raise InternalInvariantError(f"peel round {i}: infeasible")
            for eid in path:  # +1 on a forward arc, -1 on a reverse one
                u, v = net.edges[eid]
                surplus[u] -= 2 * state[eid] - 1
                surplus[v] += 2 * state[eid] - 1
        # balance: the demands (lam out of s, into t) less g's net outflow
        g, balance = {}, [0] * n
        balance[net.s], balance[net.t] = lam, -lam
        for eid, (u, v) in net.edges.items():
            x = g[eid] = state[eid] & 1
            balance[u] -= x
            balance[v] += x
            if x and not h[eid]:
                raise InternalInvariantError(f"peel round {i}: flow on spent edge {eid}")
            if h[eid] == i and not x:
                raise InternalInvariantError(f"peel round {i}: forced edge {eid} idle")
            h[eid] -= x
        for v, b in enumerate(balance):
            if b:
                raise InternalInvariantError(f"peel round {i}: vertex {v} off balance by {b}")
        peeled.append(checked(UnitFlow, net, g))
    if any(h.values()):
        raise InternalInvariantError("peel left residue; sum(f_i) != f_H")
    peeled.reverse()
    return peeled


@dataclass(frozen=True)
class FlowFamily:
    """Family A and the encoding of family B: A plus g_i, f-tilde = A[0]
    with paths[i] zeroed, for each of f-tilde's lam decomposition paths.

    null is null(f-tilde), the kept edges f-tilde leaves at 0, so null(g_i)
    is null plus paths[i]. flip maps each kept edge f-tilde carries to the
    delta against f-tilde of its canonical flow, a max-flow of the
    calibrated subgraph minus that edge: paths[i] for a critical edge on
    path i, null ^ null(A[j]) for a non-critical edge that A[j] is the first
    member of A to leave at 0; one frozenset per path and per j.
    Calibration keeps only edges with nu <= lam+1 and A saturates the
    critical edges, so null(f, min+1) is null(f) on A, and the union of
    A's null sets is the kept non-critical edges: neither is stored.
    """

    A: tuple[UnitFlow, ...]
    paths: tuple[tuple[int, ...], ...]
    null: frozenset[int]
    flip: dict[int, frozenset[int]]

    @property
    def f_tilde(self) -> UnitFlow:
        return self.A[0]


def extend_family_B(A: list[UnitFlow], sub: CalibratedSubgraph) -> FlowFamily:
    """Decompose f-tilde into paths and encode family B against it.

    No per-flow bound is put on the null sets: they are subsets of the
    kept edges, which calibrate bounds by lam*n + 2n(lam+1). On
    gen_matrix(r, L) every member of A leaves the crossing edges idle,
    about lam*n/8 of them, so a 2n or 3n bound per flow fails once
    lam >= 16 on graphs the oracle answers exactly.
    """
    lam = sub.lam
    paths = tuple(map(tuple, checked(decompose_into_paths, sub.network, A[0])))
    if len(paths) != lam:
        raise InternalInvariantError(
            f"f-tilde decomposed into {len(paths)} paths, expected {lam}"
        )
    on_path: dict[int, frozenset[int]] = {}
    for path in paths:
        delta = frozenset(path)
        for eid in path:
            if eid in on_path:
                raise InternalInvariantError(f"edge {eid} on two decomposition paths")
            on_path[eid] = delta

    nulls = [frozenset(e for e in sub.kept if f.values[e] == 0) for f in A]
    null = nulls[0]

    deltas = [null ^ z for z in nulls]
    flip: dict[int, frozenset[int]] = {}
    for eid in sorted(sub.kept):
        if eid in sub.critical:
            if eid not in on_path:
                raise InternalInvariantError(
                    f"critical edge {eid} missing from the path decomposition"
                )
            delta = on_path[eid]
        else:
            j = next((j for j, z in enumerate(nulls) if eid in z), None)
            if j is None:
                raise InternalInvariantError(
                    f"non-critical edge {eid} saturated in every member of A"
                )
            delta = deltas[j]
        if eid not in null:
            flip[eid] = delta
    return FlowFamily(A=tuple(A), paths=paths, null=null, flip=flip)


@dataclass(frozen=True)
class BuiltFamily:
    """Everything downstream oracle construction needs, in one bundle."""

    sub: CalibratedSubgraph
    f_h: IntFlow
    family: FlowFamily


def build_flow_family(net: FlowNetwork) -> BuiltFamily:
    """Run the full pipeline on a pruned network with lam >= 1.

    Every later stage reads lam and the critical set from sub. If
    calibration deleted edges, calibrating sub.network again certifies it:
    that run must delete nothing (the fixpoint, nu <= lam+1 on every kept
    edge) and find the same lam and critical set. It deletes nothing
    before its first edge with nu > lam+1, so up to there it is a pure
    classification: one max-flow, one probe per edge, both criticality
    tests. If nothing was deleted, sub.network is net and a second run
    would repeat the first.
    """
    sub = calibrate(net)
    if sub.lam < 1:
        raise ValueError("flow family needs a connected instance (lam >= 1)")
    if sub.pruned:
        again = calibrate(sub.network)
        if again.lam != sub.lam:
            raise InternalInvariantError(
                f"calibration changed the max-flow value: {sub.lam} -> {again.lam}"
            )
        if again.critical != sub.critical:
            raise InternalInvariantError("calibration changed edge criticality")
        if again.pruned:
            raise InternalInvariantError(
                f"calibration fixpoint violated: nu({min(again.pruned)}) > "
                "lam+1 in the subgraph"
            )
    f_h = build_auxiliary(sub)
    A = peel_family_A(sub, f_h)
    family = extend_family_B(A, sub)
    for eid, val in f_h.values.items():
        total = sum(f.values[eid] for f in family.A)
        if total != val:
            raise InternalInvariantError(
                f"peel identity broken on edge {eid}: {total} != {val}"
            )
    return BuiltFamily(sub=sub, f_h=f_h, family=family)
