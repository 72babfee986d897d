import random
from typing import NamedTuple

import pytest

from flowsentry.flows import IntFlow, max_flow
from flowsentry.generators import matrix_x_vertex, matrix_y_vertex
from flowsentry.graph import FlowNetwork


class Arc(NamedTuple):
    """A residual arc of a test host: a reverse arc where eid carries flow;
    eid is None for the reference's artificial (s,t) arc."""

    tail: int
    head: int
    eid: int | None
    is_reverse: bool


def make_net(n, edge_list, s=0, t=None):
    if t is None:
        t = n - 1
    return FlowNetwork(n, edge_list, s, t)


def random_net(rng: random.Random, n_max=10, m_max=24):
    """Small random multigraph for cross-checking; may be disconnected."""
    n = rng.randint(2, n_max)
    m = rng.randint(0, m_max)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v))
    s = 0
    t = n - 1
    return make_net(n, edges, s=s, t=t)


def support(flow):
    """The EdgeIds a flow carries, ascending."""
    return sorted(e for e, x in flow.values.items() if x > 0)


def matrix_failure_pair(net, r, length, k, i, j):
    """EdgeIds of gen_matrix(r, length) whose joint failure decodes bit
    [i][j] of matrix k.

    The pair is e1 = (x_{k,i}, x_{k+1,i}) and e2 = (y_{k-1,j}, y_{k,j}),
    reading x_{L+1,i} as t and y_{0,j} as s. The dual min-cut answer is
    2r-1 when the bit is set (the blocked flow reroutes across the
    crossing) and 2r-2 when it is not.
    """
    if not (1 <= k <= length and 1 <= i <= r and 1 <= j <= r):
        raise ValueError("k, i, j out of range")
    u1 = matrix_x_vertex(r, length, k, i)
    v1 = net.t if k == length else matrix_x_vertex(r, length, k + 1, i)
    u2 = net.s if k == 1 else matrix_y_vertex(r, length, k - 1, j)
    v2 = matrix_y_vertex(r, length, k, j)
    by_pair = {}
    for eid, uv in net.edges.items():
        by_pair.setdefault(uv, eid)
    return by_pair[(u1, v1)], by_pair[(u2, v2)]


def unit_max_flow(net):
    """max_flow under unit capacities: a 0/1 max-flow of net."""
    return max_flow(net, dict.fromkeys(net.edges, 1))


def residual_arcs(net, flow):
    """The residual arcs of a 0/1 flow, one per edge in ascending EdgeId:
    an idle edge's forward arc, a flow-carrying edge's reverse arc."""
    arcs = []
    for eid in sorted(net.edges):
        u, v = net.edges[eid]
        arcs.append(Arc(v, u, eid, True) if flow.values[eid] else
                    Arc(u, v, eid, False))
    return arcs


def brute_min_cut(net, inside, outside):
    """Min crossing-edge count over all vertex subsets that hold every vertex
    of inside and none of outside; None when no such subset exists.
    Exponential; keep n small."""
    need = sum(1 << x for x in set(inside))
    forbid = sum(1 << x for x in set(outside))
    best = None
    for mask in range(1 << net.n):
        if mask & need != need or mask & forbid:
            continue
        crossing = sum(
            1
            for (u, v) in net.edges.values()
            if (mask >> u) & 1 and not (mask >> v) & 1
        )
        best = crossing if best is None else min(best, crossing)
    return best


def brute_max_flow_value(net):
    """Independent max-flow value: min crossing-edge count over all s-side
    vertex subsets (max-flow min-cut duality)."""
    return brute_min_cut(net, (net.s,), (net.t,))


def brute_nu(net, eid):
    """Independent merge-flow value of edge (u, v): min crossing-edge count
    over vertex subsets holding s and u but neither t nor v. None when no
    such subset exists (tail t, head s, or a self-loop)."""
    u, v = net.edges[eid]
    return brute_min_cut(net, (net.s, u), (net.t, v))


def hoffman_feasible(inst):
    """Feasibility of a CirculationInstance by exhaustive cut conditions.

    True iff demands sum to zero and every vertex bipartition (A,B)
    satisfies d(B) + lower(B->A) <= upper(A->B). Exponential in n, so it
    refuses instances with more than 20 vertices.
    """
    g = inst.graph
    n = g.n
    if n > 20:
        raise ValueError(f"hoffman_feasible is exponential; n={n} exceeds 20")
    if sum(inst.demand.get(v, 0) for v in range(n)) != 0:
        return False
    edge_items = sorted(g.edges.items())
    for mask in range(1 << n):
        # A = vertices with bit set, B = rest
        d_b = sum(inst.demand.get(v, 0) for v in range(n) if not (mask >> v) & 1)
        lo_ba = hi_ab = 0
        for eid, (u, v) in edge_items:
            u_in_a = (mask >> u) & 1
            v_in_a = (mask >> v) & 1
            if u_in_a and not v_in_a:
                hi_ab += inst.upper.get(eid, 0)
            elif v_in_a and not u_in_a:
                lo_ba += inst.lower.get(eid, 0)
        if d_b + lo_ba > hi_ab:
            return False
    return True


@pytest.fixture
def diamond():
    # s=0, a=1, b=2, t=3; EdgeIds 0=(s,a), 1=(a,t), 2=(s,b), 3=(b,t)
    return make_net(4, [(0, 1), (1, 3), (0, 2), (2, 3)])


@pytest.fixture
def bottleneck():
    # s=0, x=1, t=2; a1=0, a2=1 into x; b1=2, b2=3, b3=4 out of x
    return make_net(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2)])


@pytest.fixture
def chain():
    # s=0 -> v=1 -> t=2
    return make_net(3, [(0, 1), (1, 2)])


def reconstruct_flow(oracle, diff, failures):
    """Apply a FlowDiff to f-tilde and check it on the pruned net minus
    the failed edges: toggles stay inside the pruned edge set, failed
    edges end up carrying nothing, and the result is a feasible flow of
    exactly the reported value."""
    pruned = oracle.pruned_net

    def bit(eid):
        # f-tilde carries exactly the keys of flip
        return int(eid in oracle.flip) ^ (1 if eid in diff.toggled else 0)

    assert diff.toggled <= frozenset(pruned.edges)
    for eid in failures:
        if eid in pruned.edges:
            assert bit(eid) == 0, f"reconstruction uses failed edge {eid}"
    net = pruned.without_edges(failures)
    flow = IntFlow(net, {eid: bit(eid) for eid in net.edges})
    flow.check()
    assert flow.value == diff.new_value
    return flow


def family_B(bf):
    """The 2*lam+1 flows of family B, rebuilt from a BuiltFamily's A and
    paths: the members of A, then g_i, f-tilde with path i zeroed."""
    fam = bf.family
    extra = [IntFlow(bf.sub.network,
                      {**fam.f_tilde.values, **dict.fromkeys(p, 0)})
             for p in fam.paths]
    return [*fam.A, *extra]


def canonical_flow(bf, eid):
    """Kept edge eid's canonical flow, decoded from the stored encoding:
    it carries a kept x exactly when (x in flip) != (x in flip[eid])."""
    flip = bf.family.flip
    d = flip.get(eid, frozenset())
    return IntFlow(bf.sub.network,
                    {x: int((x in flip) != (x in d)) for x in bf.sub.kept})
