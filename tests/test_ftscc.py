"""Fault-tolerant strong connectivity: the residual traversals the
dual-failure queries run, the residual rows they read, and the sparse SCC
certificate the family size bounds lean on (a verification-only witness,
kept here)."""

import itertools
import pickle
import random
from collections import deque
from dataclasses import dataclass

import networkx as nx
import pytest

from flowsentry.errors import QueryError
from flowsentry.flows import (
    ARTIFICIAL,
    Arc,
    UnitFlow,
    cancel_flow_cycles,
    max_flow,
    residual_scc_ids,
)
from flowsentry.generators import gen_matrix, gen_random
from flowsentry.graph import FlowNetwork, scc_from_adjacency
from flowsentry.oracles import (
    EMPTY,
    BfsTree,
    SensitivityOracle,
    cycle_through_arc_without,
    strongly_connected_without,
)

import ftscc_reference as ref
from conftest import make_net, random_net, residual_arcs, support
from ftscc_reference import released_unit_cycle_one_search, residual_rows


def _scc_ids(n, arcs):
    succ: list[list[int]] = [[] for _ in range(n)]
    for a in arcs:
        succ[a.tail].append(a.head)
    return scc_from_adjacency(n, [sorted(set(v)) for v in succ])


@dataclass(frozen=True)
class Host:
    """A residual graph as an explicit arc list, which certificates index."""

    net: FlowNetwork
    arcs: list[Arc]

    def scc_ids(self) -> list[int]:
        return _scc_ids(self.net.n, self.arcs)


@dataclass(frozen=True)
class SccCertificate:
    """Arc subset of a host preserving its SCC partition.

    ``arcs`` are indices into ``host.arcs``: per non-singleton SCC, a
    BFS out-tree and a BFS in-tree rooted at the component's smallest
    vertex. Two trees of at most k-1 arcs each certify a k-vertex
    component, so the total stays under 2n.
    """

    host: Host
    arcs: tuple[int, ...]

    def scc_ids(self) -> list[int]:
        """SCC id per vertex using only the certificate's arcs."""
        return _scc_ids(self.host.net.n,
                        [self.host.arcs[idx] for idx in self.arcs])


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


def build_certificate(host: Host) -> SccCertificate:
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


def _host(net, f, st_arc):
    # the artificial s->t arc as the last arc; certificates and scc_ids
    # read only host.arcs. Without it the ids are residual_scc_ids's own
    host = Host(net, residual_arcs(net, f))
    assert host.scc_ids() == residual_scc_ids(net, f)
    if st_arc:
        host.arcs.append(Arc(net.s, net.t, ARTIFICIAL, False))
    return host


def zero_host(net, st_arc=False):
    return _host(net, UnitFlow(net, {}), st_arc)


def max_unit_flow(net):
    return cancel_flow_cycles(net, max_flow(net))


def flow_host(net, st_arc=False):
    return _host(net, max_unit_flow(net), st_arc)


def kept_null(net, f):
    """The (kept, null) pair the reference traversals read a unit flow f
    from."""
    return frozenset(net.edges), frozenset(
        e for e in net.edges if f.values.get(e, 0) == 0)


def rows_of(net, f):
    """The residual rows the traversals read a unit flow f from."""
    return residual_rows(net, *kept_null(net, f))


def connected(net, f, x, y, failed):
    return strongly_connected_without(net, rows_of(net, f), x, y, failed)


def cycle(net, f, target, failed, st_arc=False):
    return cycle_through_arc_without(net, rows_of(net, f), target, failed,
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
            host = Host(net, residual_arcs(net, f))
            # the rows read an edge outside kept as carrying 0
            rows = residual_rows(net, frozenset(support(f)), EMPTY)
            for eid in sorted(net.edges):
                comp = brute_scc_pairs(host, eid)
                for x in range(net.n):
                    for y in range(net.n):
                        got = strongly_connected_without(
                            net, rows, x, y, eid)
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
            rows = rows_of(net, f)
            carrying = [e for e in sorted(net.edges) if f.values[e] > 0]
            for target in carrying:
                for failed in sorted(net.edges):
                    if failed == target:
                        continue
                    arcs = cycle_through_arc_without(
                        net, rows, target, failed)
                    # the released-unit cycle is asked for only where
                    # no plain cycle exists, as its contract requires
                    if use_st and arcs is None:
                        arcs = cycle_through_arc_without(
                            net, rows, target, failed, st_arc=True)
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
                            assert f.values[a.eid] == (1 if a.is_reverse else 0)
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
        rows = residual_rows(net, kept, null)
        found = 0
        for target in targets:
            if target == failed or cycle_through_arc_without(
                    net, rows, target, failed) is not None:
                continue
            got = cycle_through_arc_without(net, rows, target, failed,
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
            null = o.null ^ o.flip.get(e, EMPTY)
            found += self._check(o.pruned_net, o.kept, null, e,
                                 sorted(o.kept - null))
        assert found > 1000


def _same(new, reference):
    """Call both; equal results, or QueryErrors with one message."""
    try:
        want = reference()
    except QueryError as exc:
        with pytest.raises(QueryError) as got:
            new()
        assert str(got.value) == str(exc)
        return None
    got = new()
    assert got == want
    return got


# the oracles of the identity tests, each built once
_ORACLE_GRAPHS = {
    "random8": lambda: gen_random(8, 1),
    "random10": lambda: gen_random(10, 1),
    "random14": lambda: gen_random(14, 1),
    "matrix3x4": lambda: gen_matrix(3, 4, seed=1),
    "random60": lambda: gen_random(60, 1),
    "matrix6x8": lambda: gen_matrix(6, 8, seed=1),
}
_oracles = {}


def _oracle(name):
    if name not in _oracles:
        _oracles[name] = SensitivityOracle(_ORACLE_GRAPHS[name]())
    return _oracles[name]


class TestReferenceIdentity:
    """The row traversals and the queries on them answer as the (kept,
    null) scans of ftscc_reference do: equal Arcs, bools and answers."""

    def test_random_multigraphs(self):
        rng = random.Random(7006)
        parallel = loops = cycles = released = fallbacks = 0
        for trial in range(300):
            net = random_net(rng, n_max=9, m_max=20)
            edges = sorted(net.edges)
            # a max unit flow, or any 0/1 assignment; kept may leave idle
            # edges out, which read as carrying 0
            carrying = set(support(max_unit_flow(net))) if trial % 2 else \
                {e for e in edges if rng.random() < 0.5}
            kept = frozenset(carrying | {e for e in edges
                                         if rng.random() < 0.5})
            null = kept - carrying
            rows = residual_rows(net, kept, null)
            # one tree from t serves every failed edge of the trial
            tree = BfsTree(rows, net.t)
            parallel += len(set(net.edges.values())) < net.m
            loops += any(u == v for u, v in net.edges.values())
            for failed in edges:
                for x, y in itertools.combinations_with_replacement(
                        range(net.n), 2):
                    _same(lambda: strongly_connected_without(
                              net, rows, x, y, failed),
                          lambda: ref.strongly_connected_without(
                              net, kept, null, x, y, failed))
                for target in edges:
                    for st_arc in (False, True):
                        got = _same(lambda: cycle_through_arc_without(
                                        net, rows, target, failed, st_arc),
                                    lambda: ref.cycle_through_arc_without(
                                        net, kept, null, target, failed,
                                        st_arc))
                        if got:
                            assert all(type(a) is Arc for a in got)
                            cycles += not st_arc
                            released += st_arc
                    # the released-unit cycle again, its t~>v leg read
                    # off the trial's shared tree, grown by earlier asks
                    got = _same(lambda: cycle_through_arc_without(
                                    net, rows, target, failed, True, tree),
                                lambda: ref.cycle_through_arc_without(
                                    net, kept, null, target, failed, True))
                    if got:
                        assert all(type(a) is Arc for a in got)
                        fallbacks += tree.path(
                            net.edges[target][1], failed,
                            net.edges[failed]) is None
        assert parallel > 100 and loops > 100
        assert cycles > 5000 and released > 5000
        # the tree gives up where the failed edge found a vertex first
        assert 0 < fallbacks < released // 2

    @staticmethod
    def _compare(o, pairs):
        """MF2 and MC2 on each pair against the reference; count the
        pairs whose MF2 reroutes, e2 carrying flow in e's canonical flow."""
        rerouted = 0
        for e, e2 in pairs:
            assert o.report_flow_diff_dual(e, e2) == \
                ref.report_flow_diff_dual(o, e, e2), (e, e2)
            assert o.mincut_size_dual(e, e2) == \
                ref.mincut_size_dual(o, e, e2), (e, e2)
            rerouted += e in o.kept and e2 in o.kept and \
                o.query_edge_flow(e, e2) == 1
        return rerouted

    def test_every_ordered_pair(self):
        # gen_random(8, 1) has max-flow 0: every query short-circuits
        rerouted = 0
        for name in ("random8", "random10", "random14", "matrix3x4"):
            o = _oracle(name)
            rerouted += self._compare(
                o, itertools.permutations(sorted(o.pruned_net.edges), 2))
        assert rerouted > 1000

    @pytest.mark.parametrize("name", ["random60", "matrix6x8"])
    def test_seeded_pairs(self, name):
        o = _oracle(name)
        rng = random.Random(7007)
        edges = sorted(o.pruned_net.edges)
        pairs = [tuple(rng.sample(edges, 2)) for _ in range(20_000)]
        assert self._compare(o, pairs) > 100


class TestResidualRows:
    """SensitivityOracle's per-flow row cache."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_GRAPHS))
    def test_shared_copy_equals_scratch(self, name):
        # each canonical flow's rows equal rows built from scratch for it,
        # and only the rows at the ends of its delta's edges are its own
        o = _oracle(name)
        net, base = o.pruned_net, o._tree(EMPTY).rows
        assert base == residual_rows(net, o.kept, o.null)
        deltas = set(o.flip.values())
        assert deltas or o.lam == 0
        for d in deltas:
            rows = o._tree(d).rows
            assert rows == residual_rows(net, o.kept, o.null ^ d)
            ends = {x for eid in d for x in net.edges[eid]}
            assert all(rows[x] is base[x]
                       for x in range(net.n) if x not in ends)

    def test_cache_holds_one_entry_per_flow(self):
        o = SensitivityOracle(gen_random(10, 1))
        before = pickle.dumps(o)
        assert "_residual" not in vars(o)
        for e, e2 in itertools.permutations(sorted(o.pruned_net.edges), 2):
            o.report_flow_diff_dual(e, e2)
            o.mincut_size_dual(e, e2)
        cache = vars(o)["_residual"]
        assert 1 < len(cache) <= len(set(o.flip.values())) + 1
        # each entry is a flow's rows and its BFS tree from t; the
        # released-unit cycles grew some of the trees
        assert all(type(tree) is BfsTree for tree in cache.values())
        assert any(len(tree.queue) > 1 for tree in cache.values())
        # the cache stays out of the pickled oracle
        assert pickle.dumps(o) == before
