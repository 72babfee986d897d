import random

import networkx as nx
import pytest

import flowsentry
from flowsentry import flows, generators, graph, mincut
from flowsentry.flows import (
    IntFlow,
    cancel_flow_cycles,
    decompose_into_paths,
    max_flow,
    residual_scc_ids,
)
from flowsentry.graph import FlowNetwork, reachable_set
from flowsentry.oracles import SensitivityOracle
from circulation_reference import CirculationInstance, solve_circulation
from conftest import (
    brute_max_flow_value,
    hoffman_feasible,
    make_net,
    random_net,
    residual_arcs,
    support,
    unit_max_flow,
)


def nx_max_flow_value(net):
    g = nx.DiGraph()
    g.add_nodes_from(range(net.n))
    for u, v in net.edges.values():
        if u == v:
            continue
        if g.has_edge(u, v):
            g[u][v]["capacity"] += 1
        else:
            g.add_edge(u, v, capacity=1)
    return nx.maximum_flow_value(g, net.s, net.t)


def test_diamond_max_flow(diamond):
    f = unit_max_flow(diamond)
    assert f.value == 2
    assert support(f) == [0, 1, 2, 3]
    f.check()


def test_bottleneck_max_flow_is_deterministic(bottleneck):
    f = unit_max_flow(bottleneck)
    assert f.value == 2
    # lowest-EdgeId augmenting: a1+b1 first, then a2+b2, b3 untouched
    assert support(f) == [0, 1, 2, 3]
    assert unit_max_flow(bottleneck).values == f.values


def test_capacitated_max_flow(diamond):
    caps = {eid: 3 for eid in diamond.edges}
    f = max_flow(diamond, caps)
    assert f.value == 6
    assert all(0 <= x <= caps[e] for e, x in f.values.items())
    f.check()


def test_zero_capacity_edge_blocks(chain):
    f = max_flow(chain, {0: 0, 1: 5})
    assert f.value == 0


def test_negative_capacity_rejected(chain):
    with pytest.raises(ValueError):
        max_flow(chain, {0: -1, 1: 1})


def test_max_flow_matches_networkx_on_random_graphs():
    rng = random.Random(431)
    for _ in range(60):
        net = random_net(rng)
        assert unit_max_flow(net).value == nx_max_flow_value(net)


def test_max_flow_matches_cut_duality_on_random_graphs():
    rng = random.Random(77)
    for _ in range(40):
        net = random_net(rng, n_max=8, m_max=18)
        assert unit_max_flow(net).value == brute_max_flow_value(net)


# residual_scc_ids lists no arcs. These tests read conftest's residual_arcs;
# test_ftscc.py checks residual_scc_ids against the same list


def test_residual_of_saturating_flow(diamond):
    arcs = residual_arcs(diamond, unit_max_flow(diamond))
    assert all(a.is_reverse for a in arcs)
    assert len(arcs) == 4


def test_residual_of_zero_flow(diamond):
    arcs = residual_arcs(diamond, IntFlow(diamond, {}))
    assert all(not a.is_reverse for a in arcs)
    assert [(a.tail, a.head) for a in arcs] == list(diamond.edges.values())


def test_residual_bottleneck_shape(bottleneck):
    arcs = residual_arcs(bottleneck, unit_max_flow(bottleneck))
    forward = [a for a in arcs if not a.is_reverse]
    assert [a.eid for a in forward] == [4]  # only b3 unsaturated
    assert len([a for a in arcs if a.is_reverse]) == 4


def test_residual_rejects_infeasible_flow(diamond):
    bad = IntFlow(diamond, {0: 1})  # edge into a with no edge out
    with pytest.raises(ValueError, match="conservation"):
        residual_scc_ids(diamond, bad)


def test_residual_refuses_capacitated_flow(diamond):
    f = max_flow(diamond, {e: 3 for e in diamond.edges})
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        residual_scc_ids(diamond, f)
    # conservation fails at a too, but the range is checked first
    bad = IntFlow(diamond, {0: 1, 3: 2})
    with pytest.raises(ValueError, match=r"flow 2 on edge 3 outside \[0, 1\]"):
        residual_scc_ids(diamond, bad)


def test_check_rejects_negative_flow(diamond):
    with pytest.raises(ValueError, match="negative"):
        IntFlow(diamond, {0: -1, 1: -1}).check()


def residual_digraph(net, flow):
    """The residual arcs as a graph, each under its originating EdgeId."""
    arcs = residual_arcs(net, flow)
    return FlowNetwork(net.n, {a.eid: (a.tail, a.head) for a in arcs},
                       net.s, net.t)


def test_augmenting_path_exists_iff_not_maximum(diamond):
    partial = IntFlow(diamond, {0: 1, 1: 1})  # one unit, over s->a->t
    assert diamond.t in reachable_set(residual_digraph(diamond, partial), diamond.s)
    full = unit_max_flow(diamond)
    assert diamond.t not in reachable_set(residual_digraph(diamond, full), diamond.s)


def test_residual_banned_edges_vanish_from_traversal(bottleneck):
    r = residual_digraph(bottleneck, unit_max_flow(bottleneck))
    t = bottleneck.t
    assert 1 in reachable_set(r, t)  # x reachable from t via b1 or b2 reversed
    assert 1 in reachable_set(r, t, excluded=(2,))  # via b2 reversed
    assert reachable_set(r, t, excluded=(2, 3)) == {t}


def test_unit_residual_parallel_edges():
    # s=0, x=1, t=2 with two s -> x edges: the s -> x bit stays set until
    # both carry flow, a toggle back restores it, and a deleted edge drops
    # out of the masks
    net = make_net(3, [(0, 1), (0, 1), (1, 2)])
    res = flows.UnitResidual(net, {0: 0, 1: 0, 2: 0})
    assert res.out == [0b010, 0b100, 0]
    assert res.reaches_after([0], 0b001, 0b010)  # over the parallel edge 1
    res.toggle(0)
    assert res.out == [0b010, 0b101, 0]
    assert not res.reaches_after([1], 0b001, 0b010)  # edge 1 is the last one
    assert res.out == [0b010, 0b101, 0]
    res.toggle(1)
    assert res.out == [0, 0b101, 0]
    assert res.count[1, 0] == 2
    res.toggle(1)
    assert res.out == [0b010, 0b101, 0]
    res.delete(1)
    assert res.out == [0, 0b101, 0] and res.flow[1] == 2
    res.delete(0)
    assert res.out == [0, 0b100, 0]
    assert res.levels(0b001, 0b100) is None
    assert res.path(0b001, 0b100) is None


def test_unit_residual_augments_to_a_max_flow():
    # pushing path after path from a zero flow reaches the max-flow value and
    # leave a conserving 0/1 flow whose masks equal a fresh build's; before
    # each one, laying its path over the masks tells whether another
    # would follow, and leaves the masks as found
    rng = random.Random(9)
    for _ in range(60):
        net = random_net(rng)
        res = flows.UnitResidual(net, dict.fromkeys(net.edges, 0))
        ends = 1 << net.s, 1 << net.t
        value = 0
        while (path := res.path(*ends)) is not None:
            out = list(res.out)
            more = res.reaches_after(path, *ends)
            assert res.out == out
            for eid in path:
                res.toggle(eid)
            value += 1
            assert more == (res.path(*ends) is not None)
        assert value == brute_max_flow_value(net)
        f = IntFlow(net, res.flow)
        f.check()
        assert f.value == value
        fresh = flows.UnitResidual(net, res.flow)
        assert res.out == fresh.out


def test_cancel_noop_on_acyclic(diamond):
    f = unit_max_flow(diamond)
    assert cancel_flow_cycles(diamond, f).values == f.values


def test_cancel_removes_isolated_cycle():
    # s->t path plus a disjoint 3-cycle 1->2->3->1 carrying flow
    net = make_net(5, [(0, 4), (1, 2), (2, 3), (3, 1)], t=4)
    f = IntFlow(net, {0: 1, 1: 1, 2: 1, 3: 1})
    g = cancel_flow_cycles(net, f)
    assert g.value == 1
    assert support(g) == [0]


def test_cancel_removes_cycle_through_source():
    # flow s->a->t plus a cycle s->a->s; support edges: (s,a) x2 parallel? use distinct edges
    net = make_net(3, [(0, 1), (1, 0), (1, 2), (0, 1)], t=2)
    f = IntFlow(net, {0: 1, 1: 1, 2: 1, 3: 1})
    f.check()
    g = cancel_flow_cycles(net, f)
    assert g.value == 1
    assert g.values[1] == 0  # back edge a->s zeroed
    assert sum(g.values.values()) == 2


def test_cancel_preserves_value_on_random_flows():
    rng = random.Random(2024)
    for _ in range(100):
        net = random_net(rng)
        f = unit_max_flow(net)
        g = cancel_flow_cycles(net, f)
        g.check()
        assert g.value == f.value
        decompose_into_paths(net, g)  # must not raise


def test_decompose_diamond(diamond):
    paths = decompose_into_paths(diamond, unit_max_flow(diamond))
    assert paths == [[0, 1], [2, 3]]


def test_decompose_bottleneck(bottleneck):
    paths = decompose_into_paths(bottleneck, unit_max_flow(bottleneck))
    assert paths == [[0, 2], [1, 3]]


def test_decompose_zero_flow(diamond):
    assert decompose_into_paths(diamond, IntFlow(diamond, {})) == []


def test_decompose_rejects_cyclic_flow():
    net = make_net(5, [(0, 4), (1, 2), (2, 3), (3, 1)], t=4)
    f = IntFlow(net, {0: 1, 1: 1, 2: 1, 3: 1})
    with pytest.raises(ValueError):
        decompose_into_paths(net, f)


def test_decompose_partitions_support():
    rng = random.Random(99)
    for _ in range(50):
        net = random_net(rng)
        f = cancel_flow_cycles(net, unit_max_flow(net))
        paths = decompose_into_paths(net, f)
        used = [e for p in paths for e in p]
        assert sorted(used) == support(f)
        assert len(set(used)) == len(used)
        for p in paths:
            assert net.edges[p[0]][0] == net.s
            assert net.edges[p[-1]][1] == net.t
            for a, b in zip(p, p[1:]):
                assert net.edges[a][1] == net.edges[b][0]


def simple_circulation(n, edges, demand, lower, upper):
    g = FlowNetwork(n, edges, 0, n - 1)
    return CirculationInstance(g, demand, lower, upper)


def test_circulation_single_edge_feasible():
    inst = simple_circulation(2, [(0, 1)], {0: -1, 1: 1}, {}, {0: 1})
    assert solve_circulation(inst) == {0: 1}
    assert hoffman_feasible(inst)


def test_circulation_single_edge_infeasible():
    inst = simple_circulation(2, [(0, 1)], {0: -2, 1: 2}, {}, {0: 1})
    assert solve_circulation(inst) is None
    assert not hoffman_feasible(inst)


def test_circulation_unbalanced_demand():
    inst = simple_circulation(2, [(0, 1)], {0: 1, 1: 1}, {}, {0: 5})
    assert solve_circulation(inst) is None
    assert not hoffman_feasible(inst)


def test_circulation_lower_bound_forces_cycle():
    inst = simple_circulation(
        3, [(0, 1), (1, 2), (2, 0)], {}, {0: 1}, {0: 1, 1: 1, 2: 1}
    )
    assert solve_circulation(inst) == {0: 1, 1: 1, 2: 1}
    assert hoffman_feasible(inst)


def test_circulation_lower_bound_infeasible_without_return_path():
    inst = simple_circulation(3, [(0, 1), (1, 2)], {}, {0: 1}, {0: 1, 1: 1})
    assert solve_circulation(inst) is None
    assert not hoffman_feasible(inst)


def test_circulation_bad_bounds_rejected():
    with pytest.raises(ValueError):
        simple_circulation(2, [(0, 1)], {}, {0: 2}, {0: 1})


def test_hoffman_refuses_large_instances():
    g = FlowNetwork(21, {}, 0, 20)
    with pytest.raises(ValueError):
        hoffman_feasible(CirculationInstance(g))


def random_circulations(seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(1, 10)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        g = FlowNetwork(n, edges, 0, n - 1)
        lower = {e: rng.randint(0, 1) for e in range(m)}
        upper = {e: lower[e] + rng.randint(0, 2) for e in range(m)}
        raw = [rng.randint(-2, 2) for _ in range(n)]
        raw[n - 1] -= sum(raw)  # rebalance so demands sum to zero
        yield CirculationInstance(g, dict(enumerate(raw)), lower, upper)


def test_circulation_agrees_with_hoffman_on_random_instances():
    agree = feasible_count = 0
    for inst in random_circulations(1234):
        g, n = inst.graph, inst.graph.n
        sol = solve_circulation(inst)
        ok = hoffman_feasible(inst)
        assert (sol is not None) == ok
        agree += 1
        if sol is not None:
            feasible_count += 1
            for eid in g.edges:
                assert inst.lower.get(eid, 0) <= sol[eid] <= inst.upper.get(eid, 0)
            balance = [0] * n  # in - out per vertex
            for eid, (u, v) in g.edges.items():
                balance[v] += sol[eid]
                balance[u] -= sol[eid]
            assert balance == [inst.demand.get(v, 0) for v in range(n)]
    assert agree == 200 and feasible_count > 10


def test_max_flow_repeated_runs_identical():
    rng = random.Random(5)
    for _ in range(20):
        net = random_net(rng)
        assert unit_max_flow(net).values == unit_max_flow(net).values


def test_public_api_resolves():
    for name in flowsentry.__all__:
        assert hasattr(flowsentry, name), name
    namespace = {}
    exec("from flowsentry import *", namespace)
    assert set(flowsentry.__all__) <= namespace.keys()
    for gone in ("solve_circulation", "CirculationInstance"):
        assert not hasattr(flowsentry, gone)
        assert not hasattr(flows, gone)
    # verification-only helpers stay in the tests
    for gone in ("reaches", "strongly_connected_components"):
        assert not hasattr(flowsentry, gone)
        assert not hasattr(graph, gone)
    # the strip graph is read off the residual graph, never built
    for gone in ("MinCutOracleStruct", "StripGraph", "build_strip_graph"):
        assert not hasattr(flowsentry, gone)
        assert not hasattr(mincut, gone)
    # the residual classes are a class-id list; callers know the rest
    # one network type: the flow network is its own graph container
    for module, gone in ((graph, "DirectedMultigraph"),
                         (flows, "ResidualGraph"),
                         (flows, "UnitFlow"),
                         (mincut, "EquivalenceClasses"),
                         (mincut, "build_classes"),
                         (generators, "matrix_failure_pair"),
                         (SensitivityOracle, "_fill")):
        assert not hasattr(flowsentry, gone)
        assert not hasattr(module, gone)
    # graphs and flows are mutable, so they compare but do not hash
    net = make_net(3, [(0, 1), (1, 2)])
    for obj in (net, unit_max_flow(net)):
        with pytest.raises(TypeError):
            hash(obj)
    assert net == make_net(3, [(0, 1), (1, 2)])
    assert net != make_net(3, [(0, 1), (1, 2), (0, 2)])
