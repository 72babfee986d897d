"""Fault-tolerant strong connectivity: the residual traversals the
dual-failure queries run, and the sparse SCC certificate the family size
bounds lean on (a verification-only witness, kept here)."""

import random
from collections import deque
from dataclasses import dataclass

import networkx as nx
import pytest

from flowsentry.errors import QueryError
from flowsentry.flows import (
    ARTIFICIAL,
    Arc,
    ResidualGraph,
    UnitFlow,
    cancel_flow_cycles,
    max_flow,
)
from flowsentry.generators import gen_matrix
from flowsentry.graph import scc_from_adjacency
from flowsentry.oracles import (
    SensitivityOracle,
    cycle_through_arc_without,
    strongly_connected_without,
)

from conftest import make_net, random_net
from ftscc_reference import released_unit_cycle_one_search


@dataclass(frozen=True)
class SccCertificate:
    """Arc subset of a host preserving its SCC partition.

    ``arcs`` are indices into ``host.arcs``: per non-singleton SCC, a
    BFS out-tree and a BFS in-tree rooted at the component's smallest
    vertex. Two trees of at most k-1 arcs each certify a k-vertex
    component, so the total stays under 2n.
    """

    host: ResidualGraph
    arcs: tuple[int, ...]

    def scc_ids(self) -> list[int]:
        """SCC id per vertex using only the certificate's arcs."""
        n = self.host.net.n
        succ: list[list[int]] = [[] for _ in range(n)]
        for idx in self.arcs:
            a = self.host.arcs[idx]
            succ[a.tail].append(a.head)
        succ = [sorted(set(v)) for v in succ]
        return scc_from_adjacency(n, succ)


def _tree_arcs(arcs_of_comp, root, members, backward):
    """BFS tree arc indices over one component's induced arcs."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in members}
    for idx, a in arcs_of_comp:
        if backward:
            adj[a.head].append((idx, a.tail))
        else:
            adj[a.tail].append((idx, a.head))
    seen = {root}
    picked: list[int] = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for idx, w in adj[v]:
            if w not in seen:
                seen.add(w)
                picked.append(idx)
                queue.append(w)
    assert seen == members, "component not spanned; SCC ids are inconsistent"
    return picked


def build_certificate(host: ResidualGraph) -> SccCertificate:
    n = host.net.n
    comp = host.scc_ids()
    members: dict[int, set[int]] = {}
    for v in range(n):
        members.setdefault(comp[v], set()).add(v)
    # arcs whose endpoints share a component, grouped by that component
    by_comp: dict[int, list[tuple[int, Arc]]] = {}
    for idx, a in enumerate(host.arcs):
        if comp[a.tail] == comp[a.head]:
            by_comp.setdefault(comp[a.tail], []).append((idx, a))
    picked: set[int] = set()
    for cid, verts in sorted(members.items()):
        if len(verts) < 2:
            continue
        root = min(verts)
        induced = by_comp.get(cid, [])
        picked.update(_tree_arcs(induced, root, verts, backward=False))
        picked.update(_tree_arcs(induced, root, verts, backward=True))
    assert len(picked) <= 2 * n
    cert = SccCertificate(host=host, arcs=tuple(sorted(picked)))
    assert cert.scc_ids() == comp, "certificate changed the SCC partition"
    return cert


def _with_st_arc(host, st_arc):
    # the artificial s->t arc as the last arc; certificates and scc_ids
    # read only host.arcs
    if st_arc:
        host.arcs.append(Arc(host.net.s, host.net.t, ARTIFICIAL, False))
    return host


def zero_host(net, st_arc=False):
    return _with_st_arc(ResidualGraph(net, UnitFlow(net, {})), st_arc)


def max_unit_flow(net):
    return cancel_flow_cycles(net, max_flow(net))


def flow_host(net, st_arc=False):
    return _with_st_arc(ResidualGraph(net, max_unit_flow(net)), st_arc)


def kept_null(net, f):
    """The (kept, null) pair the traversals read a unit flow f from."""
    return frozenset(net.edges), frozenset(
        e for e in net.edges if f.values.get(e, 0) == 0)


def connected(net, f, x, y, failed):
    return strongly_connected_without(net, *kept_null(net, f), x, y, failed)


def cycle(net, f, target, failed, st_arc=False):
    return cycle_through_arc_without(net, *kept_null(net, f), target, failed,
                                     st_arc)


def brute_scc_pairs(host, banned_eid):
    """Independent ground truth: strongly-connected vertex pairs of the
    host minus one EdgeId, via networkx."""
    g = nx.DiGraph()
    g.add_nodes_from(range(host.net.n))
    for a in host.arcs:
        if a.eid != banned_eid:
            g.add_edge(a.tail, a.head)
    comp = {}
    for i, c in enumerate(nx.strongly_connected_components(g)):
        for v in c:
            comp[v] = i
    return comp


class TestCertificate:
    def test_three_cycle(self):
        net = make_net(3, [(0, 1), (1, 2), (2, 0)], s=0, t=2)
        host = zero_host(net)
        cert = build_certificate(host)
        assert len(cert.arcs) <= 4
        assert cert.scc_ids() == host.scc_ids()
        assert len(set(cert.scc_ids())) == 1

    def test_dag_is_empty(self):
        net = make_net(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        cert = build_certificate(zero_host(net))
        assert cert.arcs == ()

    def test_certificate_is_subset(self):
        net = make_net(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
        host = zero_host(net)
        cert = build_certificate(host)
        assert all(0 <= i < len(host.arcs) for i in cert.arcs)

    def test_random_graphs_preserve_partition(self):
        rng = random.Random(7001)
        for trial in range(200):
            n = rng.randint(2, 8)
            m = rng.randint(1, 16)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            net = make_net(n, edges, s=0, t=n - 1)
            host = zero_host(net, st_arc=bool(trial % 3 == 0))
            cert = build_certificate(host)
            assert len(cert.arcs) <= 2 * n
            assert cert.scc_ids() == host.scc_ids()

    def test_residual_hosts(self):
        rng = random.Random(7002)
        for _ in range(60):
            net = random_net(rng, n_max=8, m_max=18)
            host = flow_host(net, st_arc=bool(rng.getrandbits(1)))
            cert = build_certificate(host)
            assert len(cert.arcs) <= 2 * net.n
            assert cert.scc_ids() == host.scc_ids()


class TestIndexQueries:
    def test_bottleneck_hand_trace(self, bottleneck):
        # flow saturating a1,a2,b1,b2 leaves b3 as the only forward 1->2 arc
        f = UnitFlow(bottleneck, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        assert connected(bottleneck, f, 1, 2, 4) is False
        assert connected(bottleneck, f, 1, 2, 2) is True
        assert connected(bottleneck, f, 1, 2, 3) is True

    def test_diamond_branches_never_connected(self, diamond):
        f = max_unit_flow(diamond)
        for eid in diamond.edges:
            assert connected(diamond, f, 1, 2, eid) is False

    def test_same_vertex(self, diamond):
        assert connected(diamond, max_unit_flow(diamond), 2, 2, 0) is True

    def test_unknown_edge_rejected(self, diamond):
        f = max_unit_flow(diamond)
        with pytest.raises(QueryError):
            connected(diamond, f, 0, 1, 99)
        with pytest.raises(QueryError):
            connected(diamond, f, 0, 1, ARTIFICIAL)
        with pytest.raises(QueryError):
            connected(diamond, f, -1, 1, 0)

    def test_exhaustive_agreement(self):
        rng = random.Random(7003)
        checked = 0
        for _ in range(50):
            net = random_net(rng, n_max=8, m_max=16)
            f = max_unit_flow(net)
            host = ResidualGraph(net, f)
            # the traversal reads an edge outside kept as carrying 0
            support = frozenset(f.support())
            for eid in sorted(net.edges):
                comp = brute_scc_pairs(host, eid)
                for x in range(net.n):
                    for y in range(net.n):
                        got = strongly_connected_without(
                            net, support, frozenset(), x, y, eid)
                        assert got == (comp[x] == comp[y]), (x, y, eid)
                        checked += 1
        assert checked > 5000


class TestCycleExtraction:
    def test_bottleneck_reroute(self, bottleneck):
        f = UnitFlow(bottleneck, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        found = cycle(bottleneck, f, 3, 2)
        assert found is not None
        assert [(a.tail, a.head, a.eid) for a in found] == \
            [(2, 1, 3), (1, 2, 4)]

    def test_diamond_needs_artificial_arc(self, diamond):
        f = max_unit_flow(diamond)
        assert cycle(diamond, f, 1, 2) is None
        found = cycle(diamond, f, 1, 2, st_arc=True)
        assert found is not None
        assert [(a.tail, a.head, a.eid) for a in found] == \
            [(3, 1, 1), (1, 0, 0), (0, 3, ARTIFICIAL)]

    def test_zero_flow_target_rejected(self, bottleneck):
        f = UnitFlow(bottleneck, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        with pytest.raises(QueryError):
            cycle(bottleneck, f, 4, 2)

    def test_target_equals_failed_rejected(self, bottleneck):
        f = UnitFlow(bottleneck, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        with pytest.raises(QueryError):
            cycle(bottleneck, f, 2, 2)

    def test_cycle_properties_random(self):
        rng = random.Random(7004)
        found = 0
        for _ in range(60):
            net = random_net(rng, n_max=8, m_max=16)
            use_st = bool(rng.getrandbits(1))
            f = max_unit_flow(net)
            kept, null = kept_null(net, f)
            carrying = [e for e in sorted(net.edges) if f[e] > 0]
            for target in carrying:
                for failed in sorted(net.edges):
                    if failed == target:
                        continue
                    arcs = cycle_through_arc_without(
                        net, kept, null, target, failed)
                    # the released-unit cycle is asked for only where
                    # no plain cycle exists, as its contract requires
                    if use_st and arcs is None:
                        arcs = cycle_through_arc_without(
                            net, kept, null, target, failed, st_arc=True)
                        if arcs is not None:
                            assert any(a.eid is ARTIFICIAL for a in arcs)
                    if arcs is None:
                        continue
                    found += 1
                    tails = [a.tail for a in arcs]
                    assert len(set(tails)) == len(tails), "not simple"
                    assert all(a.eid != failed for a in arcs)
                    assert any(a.eid == target and a.is_reverse
                               for a in arcs)
                    for a in arcs:
                        if a.eid is ARTIFICIAL:
                            assert use_st
                            assert (a.tail, a.head) == (net.s, net.t)
                        else:
                            # a residual arc of f: reverse iff edge carries
                            u, v = net.edges[a.eid]
                            assert f[a.eid] == (1 if a.is_reverse else 0)
                            assert (a.tail, a.head) == \
                                ((v, u) if a.is_reverse else (u, v))
                    for a, b in zip(arcs, arcs[1:]):
                        assert a.head == b.tail
                    assert arcs[-1].head == arcs[0].tail
        assert found > 50


class TestReleasedUnitCycle:
    """The released-unit cycle joined from two searches equals the one
    search it replaced wherever no plain cycle exists."""

    @staticmethod
    def _check(net, kept, null, failed, targets):
        """Compare on every target with no plain cycle; count the cycles."""
        found = 0
        for target in targets:
            if target == failed or cycle_through_arc_without(
                    net, kept, null, target, failed) is not None:
                continue
            got = cycle_through_arc_without(net, kept, null, target, failed,
                                            st_arc=True)
            assert got == released_unit_cycle_one_search(
                net, kept, null, target, failed), (target, failed)
            found += got is not None
        return found

    def test_random_flows(self):
        rng = random.Random(7005)
        found = 0
        for _ in range(80):
            net = random_net(rng, n_max=9, m_max=18)
            kept, null = kept_null(net, max_unit_flow(net))
            for failed in sorted(net.edges):
                found += self._check(net, kept, null, failed,
                                     sorted(kept - null))
        assert found > 1000

    def test_canonical_flows_of_matrix(self):
        # the flows MF2 searches: each kept edge's canonical flow, with
        # that edge failed
        o = SensitivityOracle(gen_matrix(3, 4, seed=1))
        found = 0
        for e in sorted(o.kept):
            null = o._null_after(e)
            found += self._check(o.pruned_net, o.kept, null, e,
                                 sorted(o.kept - null))
        assert found > 1000
