"""A circulation solver with lower bounds, and the flow family's peel as
it stood when it solved one such circulation per round.

solve_circulation: the standard reduction to one max-flow; every auxiliary
edge takes the next free id as it is added, super arcs only where a vertex
has a nonzero surplus. test_flows.py and test_acceptance.py (AC8) check it
against conftest.hoffman_feasible.

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
    aux = FlowNetwork(n + 2, {}, S, T)
    aux_caps: dict[int, int] = {}
    orig_of: dict[int, int] = {}
    for eid in sorted(g.edges):
        u, v = g.edges[eid]
        aid = aux.add_edge(u, v)
        aux_caps[aid] = inst.upper.get(eid, 0) - inst.lower.get(eid, 0)
        orig_of[aid] = eid
    need = 0
    for v in range(n):
        # surplus(v): net amount v must ship out after lower bounds are routed
        inc = sum(inst.lower.get(e, 0) for e in g.in_edges(v))
        out = sum(inst.lower.get(e, 0) for e in g.out_edges(v))
        surplus = inc - out - inst.demand.get(v, 0)
        if surplus > 0:
            aid = aux.add_edge(S, v)
            aux_caps[aid] = surplus
            need += surplus
        elif surplus < 0:
            aid = aux.add_edge(v, T)
            aux_caps[aid] = -surplus
    result = max_flow(aux, aux_caps)
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
