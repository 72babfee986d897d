"""The circulation solver as it stood before its auxiliary network got
fixed EdgeIds: every auxiliary edge takes the next free id as it is added,
super arcs only where a vertex has a nonzero surplus.

test_flows.py checks that flows.solve_circulation returns the same dicts,
so the flow family's peel, which reads those dicts, stays byte-identical.
"""

from flowsentry.flows import CirculationInstance, max_flow
from flowsentry.graph import DirectedMultigraph, FlowNetwork


def solve_circulation(inst: CirculationInstance) -> dict[int, int] | None:
    g = inst.graph
    if sum(inst.demand.get(v, 0) for v in range(g.n)) != 0:
        return None
    n = g.n
    S, T = n, n + 1
    aux = DirectedMultigraph(n + 2)
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
    result = max_flow(FlowNetwork(aux, S, T), aux_caps)
    if result.value != need:
        return None
    out = {eid: inst.lower.get(eid, 0) for eid in g.edges}
    for aid, orig in orig_of.items():
        out[orig] += result.values[aid]
    return out
