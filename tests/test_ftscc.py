"""Fault-tolerant strong connectivity: the residual traversal and the
flow walk the dual-failure queries run, the residual rows they read, and
the sparse SCC certificate the family size bounds lean on (a
verification-only witness, kept here)."""

import itertools
import pickle
import random
import sys
import threading
from collections import deque
from dataclasses import dataclass

import networkx as nx
import pytest

from flowsentry.bruteforce import brute_force
from flowsentry.errors import InternalInvariantError, QueryError
from flowsentry.flows import IntFlow, cancel_flow_cycles, residual_scc_ids
from flowsentry.generators import gen_matrix, gen_random
from flowsentry.graph import FlowNetwork, scc_from_adjacency
from flowsentry.oracles import (
    EMPTY,
    SensitivityOracle,
    cycle_through_arc_without,
    released_unit,
)

import ftscc_reference as ref
from conftest import (
    Arc,
    make_net,
    random_net,
    reconstruct_flow,
    residual_arcs,
    support,
    unit_max_flow,
)
from ftscc_reference import (
    ARTIFICIAL,
    canonical_null,
    first_carried,
    residual_rows,
)


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
    return _host(net, IntFlow(net, {}), st_arc)


def max_unit_flow(net):
    return cancel_flow_cycles(net, unit_max_flow(net))


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


def cycle(net, f, target, failed):
    return cycle_through_arc_without(net, rows_of(net, f),
                                     frozenset(support(f)), target, failed)


def walk(net, carried, target):
    """released_unit over the first carried edges a scan of the incidence
    list finds."""
    return released_unit(net, *first_carried(net, carried), target)


def assert_released_unit(net, carried, target, unit):
    """unit, a collection of EdgeIds, is one simple s-t path through
    target of edges in carried."""
    unit = set(unit)
    assert target in unit and unit <= carried
    out = {}
    for eid in unit:
        out.setdefault(net.edges[eid][0], []).append(eid)
    x, seen = net.s, {net.s}
    while x != net.t:
        assert len(out.get(x, ())) == 1, "not one chained path"
        (eid,) = out.pop(x)
        x = net.edges[eid][1]
        assert x not in seen, "not simple"
        seen.add(x)
    assert not out, "edges off the path"


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
    """The plain-cycle question MC2 and MF2 ask: a carried edge (u, v) has
    a simple cycle through its reverse arc v->u exactly when u and v stay
    strongly connected."""

    def test_bottleneck_hand_trace(self, bottleneck):
        # flow saturating a1,a2,b1,b2 leaves b3 as the only forward 1->2 arc
        f = IntFlow(bottleneck, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        assert cycle(bottleneck, f, 2, 4) is None
        assert cycle(bottleneck, f, 2, 3) == (2, 4)
        assert cycle(bottleneck, f, 3, 2) == (3, 4)

    def test_diamond_branches_never_connected(self, diamond):
        f = max_unit_flow(diamond)
        for target in support(f):
            for eid in diamond.edges:
                if eid != target:
                    assert cycle(diamond, f, target, eid) is None

    def test_same_vertex(self):
        # a carried self-loop's reverse arc is a cycle on its own
        net = make_net(2, [(0, 1), (1, 1), (0, 1)])
        f = IntFlow(net, {0: 1, 1: 1, 2: 0})
        assert cycle(net, f, 1, 0) == (1,)

    def test_unknown_edge_rejected(self, diamond):
        f = max_unit_flow(diamond)
        with pytest.raises(QueryError):
            cycle(diamond, f, 0, 99)
        with pytest.raises(QueryError):
            cycle(diamond, f, 0, ARTIFICIAL)
        with pytest.raises(QueryError):
            cycle(diamond, f, 99, 0)

    def test_exhaustive_agreement(self):
        rng = random.Random(7003)
        checked = found = 0
        for _ in range(200):
            net = random_net(rng, n_max=8, m_max=16)
            f = max_unit_flow(net)
            host = Host(net, residual_arcs(net, f))
            # the rows read an edge outside kept as carrying 0
            carried = frozenset(support(f))
            rows = residual_rows(net, carried, EMPTY)
            for eid in sorted(net.edges):
                comp = brute_scc_pairs(host, eid)
                for target in support(f):
                    if target == eid:
                        continue
                    u, v = net.edges[target]
                    got = cycle_through_arc_without(net, rows, carried,
                                                    target, eid)
                    assert (got is not None) == (comp[u] == comp[v]), \
                        (target, eid)
                    checked += 1
                    found += got is not None
        assert checked > 1500 and 0 < found < checked


class TestCycleExtraction:
    def test_bottleneck_reroute(self, bottleneck):
        f = IntFlow(bottleneck, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        assert cycle(bottleneck, f, 3, 2) == (3, 4)

    def test_diamond_releases_a_unit(self, diamond):
        # no plain cycle: the unit through the edge is released instead,
        # walked forward to t and back to s
        f = max_unit_flow(diamond)
        assert cycle(diamond, f, 1, 2) is None
        carried = frozenset(support(f))
        assert walk(diamond, carried, 1) == [1, 0]
        assert walk(diamond, carried, 0) == [0, 1]
        assert walk(diamond, carried, 3) == [3, 2]

    def test_zero_flow_target_rejected(self, bottleneck):
        f = IntFlow(bottleneck, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        with pytest.raises(QueryError):
            cycle(bottleneck, f, 4, 2)

    def test_target_equals_failed_rejected(self, bottleneck):
        f = IntFlow(bottleneck, {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
        with pytest.raises(QueryError):
            cycle(bottleneck, f, 2, 2)

    def test_cycle_properties_random(self):
        rng = random.Random(7004)
        found = 0
        for _ in range(60):
            net = random_net(rng, n_max=8, m_max=16)
            f = max_unit_flow(net)
            rows, carried = rows_of(net, f), frozenset(support(f))
            for target in support(f):
                for failed in sorted(net.edges):
                    if failed == target:
                        continue
                    eids = cycle_through_arc_without(
                        net, rows, carried, target, failed)
                    if eids is None:
                        continue
                    found += 1
                    assert eids[0] == target and failed not in eids
                    # after the reverse arc v->u, a chain of residual arcs
                    # of f from u back to v: reverse iff the edge carries
                    u, v = net.edges[target]
                    x, seen = u, [v, u]
                    for eid in eids[1:]:
                        a, b = net.edges[eid]
                        assert x == (b if f.values[eid] else a)
                        x = a if f.values[eid] else b
                        seen.append(x)
                    assert x == v
                    assert len(set(seen[1:])) == len(eids), "not simple"
        assert found > 50


class TestReleasedUnitCycle:
    """The walk that releases one unit of an acyclic flow through an edge
    it carries: one simple s-t path of carried edges, the lowest-EdgeId
    carried out-edge at each step to t and the lowest-EdgeId carried
    in-edge at each step back to s, each read off one list entry."""

    @staticmethod
    def _check(net, carried, targets):
        for target in targets:
            path = walk(net, carried, target)
            assert_released_unit(net, carried, target, path)
            # target, then at each step the lowest-EdgeId carried edge:
            # out of the vertex on the way to t, into it on the way to s
            u, v = net.edges[target]
            want = [target]
            for x, end, side in ((v, net.t, 0), (u, net.s, 1)):
                while x != end:
                    eid = min(y for y in carried if net.edges[y][side] == x)
                    want.append(eid)
                    x = net.edges[eid][1 - side]
            assert path == want
        return len(targets)

    def test_random_flows(self):
        rng = random.Random(7005)
        found = 0
        for _ in range(300):
            net = random_net(rng, n_max=10, m_max=40)
            f = max_unit_flow(net)
            carried = frozenset(support(f))
            found += self._check(net, carried, sorted(carried))
            # the flow minus the unit is a flow of one less value
            for target in carried:
                rest = carried - set(walk(net, carried, target))
                g = IntFlow(net, {x: int(x in rest) for x in net.edges})
                g.check()
                assert g.value == f.value - 1
        assert found > 1000

    def test_canonical_flows_of_matrix(self):
        # the flows MF2 walks: each kept edge's canonical flow, which
        # leaves that edge idle
        o = SensitivityOracle(gen_matrix(3, 4, seed=1))
        found = 0
        for e in sorted(o.kept):
            carried = o.flip.keys() ^ o.flip.get(e, EMPTY)
            assert e not in carried
            found += self._check(o.pruned_net, carried, sorted(carried))
        assert found > 1000

    def test_broken_flow_raises(self):
        # 0->1->2 with only the second edge carried: no way back to s
        chain = make_net(3, [(0, 1), (1, 2)])
        with pytest.raises(InternalInvariantError, match="no carried edge"):
            walk(chain, frozenset({1}), 1)
        # a carried cycle 1->2->1 hanging off the path: the walk loops
        net = make_net(4, [(0, 1), (1, 2), (2, 1), (1, 3)], t=3)
        with pytest.raises(InternalInvariantError, match="re-enters"):
            walk(net, frozenset({0, 1, 2}), 1)


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


def _eids(arcs):
    """A reference cycle as the EdgeIds the shipped one returns."""
    return arcs and tuple(a.eid for a in arcs)


class TestReferenceIdentity:
    """The row traversal and the queries on it answer as the (kept, null)
    scans of ftscc_reference do: equal cycles and values, and equal
    toggled sets except where the reference releases a unit through its
    artificial arc."""

    def test_random_multigraphs(self):
        rng = random.Random(7006)
        parallel = loops = cycles = 0
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
            carried = frozenset(carrying)
            parallel += len(set(net.edges.values())) < net.m
            loops += any(u == v for u, v in net.edges.values())
            for failed in edges:
                for target in edges:
                    got = _same(lambda: cycle_through_arc_without(
                                    net, rows, carried, target, failed),
                                lambda: _eids(ref.cycle_through_arc_without(
                                    net, kept, null, target, failed)))
                    cycles += got is not None
                    # a carried edge's reverse arc joins v to u, so the
                    # cycle answers the reference's two-search question
                    if target in carrying and target != failed:
                        u, v = net.edges[target]
                        assert (got is not None) == \
                            ref.strongly_connected_without(
                                net, kept, null, u, v, failed)
        assert parallel > 100 and loops > 100
        assert cycles > 5000

    @staticmethod
    def _compare(o, pairs):
        """MF2 and MC2 on each pair against the reference; count the
        pairs whose MF2 reroutes, e2 carrying flow in e's canonical flow,
        and those whose value drops there, releasing a unit."""
        rerouted = released = 0
        for e, e2 in pairs:
            got = o.report_flow_diff_dual(e, e2)
            want = ref.report_flow_diff_dual(o, e, e2)
            assert got.new_value == want.new_value, (e, e2)
            assert o.mincut_size_dual(e, e2) == \
                ref.mincut_size_dual(o, e, e2), (e, e2)
            carried = e in o.kept and e2 in o.kept and \
                o.query_edge_flow(e, e2) == 1
            rerouted += carried
            if not (carried and got.new_value <
                    o.report_flow_diff_single(e).new_value):
                assert got == want, (e, e2)
                continue
            # the reference's cycle runs through its artificial arc; the
            # answer is e's canonical flow less one unit through e2
            d = o.flip.get(e, EMPTY)
            assert_released_unit(o.pruned_net, o.flip.keys() ^ d, e2,
                                 got.toggled ^ d)
            reconstruct_flow(o, got, [e, e2])
            assert got.new_value == brute_force(o.pruned_net, [e, e2])[0]
            released += 1
        return rerouted, released

    def test_every_ordered_pair(self):
        # gen_random(8, 1) has max-flow 0: every query short-circuits
        rerouted = released = 0
        for name in ("random8", "random10", "random14", "matrix3x4"):
            o = _oracle(name)
            counts = self._compare(
                o, itertools.permutations(sorted(o.pruned_net.edges), 2))
            rerouted += counts[0]
            released += counts[1]
        assert rerouted > 1000 and released > 100

    @pytest.mark.parametrize("name", ["random60", "matrix6x8"])
    def test_seeded_pairs(self, name):
        o = _oracle(name)
        rng = random.Random(7007)
        edges = sorted(o.pruned_net.edges)
        pairs = [tuple(rng.sample(edges, 2)) for _ in range(20_000)]
        rerouted, released = self._compare(o, pairs)
        assert rerouted > 100 and released > 10


class TestResidualRows:
    """SensitivityOracle's per-flow cache of residual rows, carried sets
    and first carried edges."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_GRAPHS))
    def test_shared_copy_equals_scratch(self, name):
        # each canonical flow's rows and first carried edges equal those
        # built from scratch for it, and only the entries at the ends of
        # its delta's edges are its own
        o = _oracle(name)
        net, base = o.pruned_net, o._residual_of(EMPTY)
        assert base[0] == residual_rows(net, o.kept, canonical_null(o, EMPTY))
        assert base[2:] == first_carried(net, o.flip.keys())
        deltas = set(o.flip.values())
        assert deltas or o.lam == 0
        for d in deltas:
            rows, carried, out, into = o._residual_of(d)
            assert rows == residual_rows(net, o.kept, canonical_null(o, d))
            assert carried == o.kept - canonical_null(o, d)
            assert (out, into) == first_carried(net, carried)
            ends = {x for eid in d for x in net.edges[eid]}
            for got, shared in zip((rows, out, into),
                                   (base[0], base[2], base[3])):
                assert all(got[x] is shared[x]
                           for x in range(net.n) if x not in ends)

    @pytest.mark.parametrize("name", sorted(_ORACLE_GRAPHS))
    def test_filled_cache_stays_out_of_the_pickle(self, name):
        # a loaded oracle saved after every flow's entry and every edge's
        # answer is filled saves the bytes it saved before
        o = pickle.loads(pickle.dumps(_oracle(name)))
        assert not {"_residual", "_answers"} & vars(o).keys()
        saved = pickle.dumps(o)
        for d in {EMPTY, *o.flip.values()}:
            o._residual_of(d)
        for e in range(o.m):
            o.report_flow_diff_single(e)
        assert len(vars(o)["_residual"]) == len(set(o.flip.values())) + 1
        # each known edge's answer, and the no-effect one they may share
        assert len(vars(o)["_answers"]) == o.m + 1
        assert pickle.dumps(o) == saved

    def test_cache_holds_one_entry_per_flow(self):
        o = SensitivityOracle(gen_random(10, 1))
        before = pickle.dumps(o)
        assert not {"_residual", "_answers"} & vars(o).keys()
        for e, e2 in itertools.permutations(sorted(o.pruned_net.edges), 2):
            o.report_flow_diff_dual(e, e2)
            o.mincut_size_dual(e, e2)
        for e in range(o.m):
            o.report_flow_diff_single(e)
        cache = vars(o)["_residual"]
        assert 1 < len(cache) <= len(set(o.flip.values())) + 1
        # each entry is a flow's rows, the set of edges it carries and its
        # first carried out- and in-edge per vertex
        for d, (rows, carried, out, into) in cache.items():
            assert len(rows) == len(out) == len(into) == o.pruned_net.n
            assert carried == o.kept - canonical_null(o, d)
        # the caches stay out of the pickled oracle
        assert {"_answers", "_released"} <= vars(o).keys()
        assert pickle.dumps(o) == before

    def test_threads_fill_one_oracle(self):
        # each cache entry is built whole and stored by one assignment, so
        # threads that fill a freshly loaded oracle's caches at once, from
        # one barrier, answer as one thread does
        o = _oracle("matrix3x4")
        pairs = list(itertools.permutations(sorted(o.pruned_net.edges), 2))
        want = [(o.report_flow_diff_dual(*p), o.mincut_size_dual(*p))
                for p in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                shared, got = pickle.loads(pickle.dumps(o)), {}
                start = threading.Barrier(6, timeout=60)

                def answer(i, shared=shared, got=got, start=start):
                    start.wait()
                    try:
                        got[i] = [(shared.report_flow_diff_dual(*p),
                                   shared.mincut_size_dual(*p))
                                  for p in pairs]
                    except Exception as exc:  # reported by the assert
                        got[i] = exc

                threads = [threading.Thread(target=answer, args=(i,))
                           for i in range(6)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert all(got[i] == want for i in range(6))
        finally:
            sys.setswitchinterval(interval)
