"""A circulation solver with lower bounds, and the flow family's peel as
it stood when it solved one such circulation per round.

solve_circulation: the standard reduction to one max-flow; the auxiliary
edges take ids 0.. in order, the graph's edges by EdgeId and then the
super arcs, only where a vertex has a nonzero surplus. test_flows.py and
test_acceptance.py (AC8) check it against conftest.hoffman_feasible.

peel_family_A: round i solves the lower-bound circulation with
solve_circulation. test_family.py checks that family.peel_family_A, which
augments on the subgraph instead, peels the same flows, so oracle files
stay byte-identical.
"""

from dataclasses import dataclass, field

from flowsentry.errors import InternalInvariantError
from flowsentry.flows import IntFlow, max_flow
from flowsentry.graph import FlowNetwork


@dataclass(frozen=True)
class CirculationInstance:
    """Circulation with lower bounds: find g with lower <= g <= upper and
    in(v) - out(v) = demand(v) at every vertex; a missing key reads 0.
    The graph's source and sink play no part."""

    graph: FlowNetwork
    demand: dict[int, int] = field(default_factory=dict)
    lower: dict[int, int] = field(default_factory=dict)
    upper: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for eid in self.graph.edges:
            lo = self.lower.get(eid, 0)
            hi = self.upper.get(eid, 0)
            if lo < 0 or hi < 0 or lo > hi:
                raise ValueError(f"bad bounds on edge {eid}: lower={lo} upper={hi}")


def solve_circulation(inst: CirculationInstance) -> dict[int, int] | None:
    g = inst.graph
    if sum(inst.demand.get(v, 0) for v in range(g.n)) != 0:
        return None
    n = g.n
    S, T = n, n + 1
    aux_edges: list[tuple[int, int]] = []
    aux_caps: dict[int, int] = {}
    orig_of: dict[int, int] = {}
    # surplus(v): net amount v must ship out after lower bounds are routed
    surplus = [-inst.demand.get(v, 0) for v in range(n)]
    for eid in sorted(g.edges):
        u, v = g.edges[eid]
        lo = inst.lower.get(eid, 0)
        surplus[v] += lo
        surplus[u] -= lo
        aux_caps[len(aux_edges)] = inst.upper.get(eid, 0) - lo
        orig_of[len(aux_edges)] = eid
        aux_edges.append((u, v))
    need = 0
    for v in range(n):
        if surplus[v] > 0:
            aux_caps[len(aux_edges)] = surplus[v]
            aux_edges.append((S, v))
            need += surplus[v]
        elif surplus[v] < 0:
            aux_caps[len(aux_edges)] = -surplus[v]
            aux_edges.append((v, T))
    result = max_flow(FlowNetwork(n + 2, aux_edges, S, T), aux_caps)
    if result.value != need:
        return None
    out = {eid: inst.lower.get(eid, 0) for eid in g.edges}
    for aid, orig in orig_of.items():
        out[orig] += result.values[aid]
    return out


def peel_family_A(sub, f_h) -> list[IntFlow]:
    """[f_1, ..., f_{lam+1}] peeled from f_H: round i (from lam+1 down to 1)
    solves a circulation with demands d(s) = -lam, d(t) = +lam, upper
    bounds min(1, h_i(e)) and lower bound 1 exactly where h_i(e) == i."""
    net = sub.network
    lam = sub.lam
    h = dict(f_h.values)
    peeled: list[IntFlow] = []
    for i in range(lam + 1, 0, -1):
        for eid, val in h.items():
            if not 0 <= val <= i:
                raise InternalInvariantError(
                    f"peel round {i}: h({eid}) = {val} out of [0, {i}]"
                )
        demand = {net.s: -lam, net.t: lam}
        lower = {eid: 1 if h[eid] == i else 0 for eid in net.edges}
        upper = {eid: min(1, h[eid]) for eid in net.edges}
        g = solve_circulation(CirculationInstance(net, demand, lower, upper))
        if g is None:
            raise InternalInvariantError(f"peel round {i}: circulation infeasible")
        f_i = IntFlow(net, g)
        if f_i.value != lam:
            raise InternalInvariantError(
                f"peel round {i}: flow value {f_i.value} != lam = {lam}"
            )
        for eid in net.edges:
            if h[eid] == 0 and g[eid] != 0:
                raise InternalInvariantError(f"peel round {i}: flow on spent edge {eid}")
            if h[eid] == i and g[eid] != 1:
                raise InternalInvariantError(f"peel round {i}: forced edge {eid} idle")
        peeled.append(f_i)
        for eid in h:
            h[eid] -= g[eid]
    if any(h.values()):
        raise InternalInvariantError("peel left residue; sum(f_i) != f_H")
    peeled.reverse()
    return peeled
