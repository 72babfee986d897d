"""Equivalence classes, strip order, path system, and the min-cut oracle."""

import dataclasses
import itertools
import random

import pytest

from flowsentry.errors import InternalInvariantError, QueryError
from flowsentry.family import build_flow_family
from flowsentry.flows import residual_scc_ids
from flowsentry.generators import gen_matrix, gen_random, gen_twopaths
from flowsentry.graph import prune_to_st_paths
from flowsentry.mincut import (
    build_mincut_oracle,
    build_path_system,
    crossing_edges,
    precedes,
    strip_pred,
)
from conftest import brute_max_flow_value, make_net, random_net
from mincut_reference import (
    build_mincut_oracle_raw,
    decreases_by_k,
    mincut_structure,
    pred_of_arcs,
    report_nmc_after,
    strip_arcs,
    word_count,
)


def oracle_for(net):
    pruned = prune_to_st_paths(net)
    assert pruned.m
    bf = build_flow_family(pruned)
    return mincut_structure(bf), bf, pruned


def min_cut_partitions(net):
    """All source-side sets with crossing size exactly the max-flow value."""
    lam = brute_max_flow_value(net)
    rest = [v for v in range(net.n) if v not in (net.s, net.t)]
    out = []
    for bits in range(1 << len(rest)):
        side = {net.s} | {v for i, v in enumerate(rest) if bits >> i & 1}
        if len(crossing_edges(net, side)) == lam:
            out.append(frozenset(side))
    return lam, out


class TestClasses:
    def test_diamond_singletons(self, diamond):
        o, _, _ = oracle_for(diamond)
        assert o.classes.class_count == 4
        assert o.classes.class_of == (0, 1, 2, 3)

    def test_bottleneck_merges_x_t(self, bottleneck):
        o, _, _ = oracle_for(bottleneck)
        assert o.classes.class_of == (0, 1, 1)
        assert o.classes.source_class == 0
        assert o.classes.sink_class == 1

    def test_chain_singletons(self, chain):
        o, _, _ = oracle_for(chain)
        assert o.classes.class_count == 3

    def test_classes_refine_min_cut_sides(self):
        # Two vertices of one class are never split by a min-cut partition.
        # (The converse is false: a zero-flow dead-end vertex can sit on the
        # source side of every min-cut yet form its own residual SCC.)
        rng = random.Random(5001)
        done = 0
        for _ in range(40):
            net = random_net(rng, n_max=7, m_max=14)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            o, bf, _ = oracle_for(net)
            sub = bf.sub.network
            _, partitions = min_cut_partitions(sub)
            cls = o.classes.class_of
            for a in partitions:
                for x in range(sub.n):
                    for y in range(x + 1, sub.n):
                        if cls[x] == cls[y]:
                            assert (x in a) == (y in a), (x, y, a)
            done += 1
        assert done > 15

    def test_min_cut_sides_are_closed_class_unions(self):
        # Picard-Queyranne: the min-cut source sides are exactly the
        # class unions containing the source class, missing the sink class,
        # and closed under the strip graph's predecessor relation (a strip
        # arc u->v means v's side forces u's side: either a critical edge
        # v-side would cut twice, or a flipped non-critical edge that would
        # carry crossing flow). Equivalently: closed under residual
        # reachability. Checked both directions by enumeration, on the
        # predecessor lists the build sweeps, which must equal those of
        # the strip graph by definition.
        rng = random.Random(5011)
        done = 0
        for _ in range(40):
            net = random_net(rng, n_max=7, m_max=14)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            o, bf, _ = oracle_for(net)
            sub = bf.sub.network
            lam, partitions = min_cut_partitions(sub)
            assert o.pred == pred_of_arcs(o)
            cls = o.classes.class_of
            classes = range(o.classes.class_count)
            want = set()
            for bits in range(1 << o.classes.class_count):
                chosen = {c for c in classes if bits >> c & 1}
                if o.classes.source_class not in chosen:
                    continue
                if o.classes.sink_class in chosen:
                    continue
                # closed: no residual arc leaves the union, i.e. every strip
                # predecessor of a class inside is inside too
                if any(a not in chosen for b in chosen for a in o.pred[b]):
                    continue
                want.add(frozenset(v for v in range(sub.n) if cls[v] in chosen))
            assert want == set(partitions)
            done += 1
        assert done > 15


class TestStripGraph:
    def test_diamond_is_itself(self, diamond):
        o, _, _ = oracle_for(diamond)
        assert o.classes.class_count == 4
        assert strip_arcs(o) == {(0, 1, 0), (1, 3, 1), (0, 2, 2), (2, 3, 3)}
        assert o.pred == pred_of_arcs(o) == [[], [0], [0], [1, 2]]

    def test_bottleneck_two_nodes(self, bottleneck):
        o, _, _ = oracle_for(bottleneck)
        assert o.classes.class_count == 2
        assert strip_arcs(o) == {(0, 1, 0), (0, 1, 1)}
        assert o.pred == pred_of_arcs(o) == [[], [0]]

    def test_non_critical_inter_cluster_edge_reversed(self, diamond):
        # diamond plus a->b: the new edge survives calibration (nu = 3) but is
        # non-critical and joins two singleton classes, so its strip arc flips.
        net = make_net(4, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)])
        o, bf, _ = oracle_for(net)
        assert 4 not in bf.sub.critical
        cls = o.classes.class_of
        assert (cls[2], cls[1], 4) in strip_arcs(o)
        assert o.pred == pred_of_arcs(o)
        assert cls[2] in o.pred[cls[1]]

    @pytest.mark.parametrize("toggle", [4, 0])
    def test_criticality_disagreeing_with_residual_raises(self, toggle):
        # edge 4 (a->b) is inter-class and idle in f-tilde, edge 0 (s->a)
        # inter-class and carried: listing the first as critical, or not
        # listing the second, fails the per-edge check
        net = make_net(4, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)])
        bf = build_flow_family(net)
        assert bf.family.f_tilde.values[4] == 0 and 0 in bf.sub.critical
        sub = dataclasses.replace(bf.sub, critical=bf.sub.critical ^ {toggle})
        with pytest.raises(InternalInvariantError,
                           match=f"criticality of edge {toggle} disagrees"):
            build_mincut_oracle(dataclasses.replace(bf, sub=sub))


class TestPathSystem:
    def test_diamond_paths_and_ranks(self, diamond):
        o, _, _ = oracle_for(diamond)
        ps = o.paths
        # class paths (0, 1, 3) over edges 0, 1 and (0, 2, 3) over 2, 3;
        # each record is (path, position, head class)
        assert ps.critical == {0: (0, 0, 1), 1: (0, 1, 3),
                               2: (1, 0, 2), 3: (1, 1, 3)}
        # only head classes are keys, and a class reaches itself first:
        # the source class 0 heads no critical edge
        assert ps.first_reach == ({1: 1, 2: 2, 3: 2}, {1: 2, 2: 1, 3: 2})

    def test_bottleneck_parallel_paths(self, bottleneck):
        o, _, _ = oracle_for(bottleneck)
        assert {e: r[:2] for e, r in o.paths.critical.items()} == \
            {0: (0, 0), 1: (1, 0)}

    def test_first_reach_is_earliest_reachable_position(self):
        # the records' keys are the critical set; first_reach[i][x] is the
        # earliest position on path i whose class x reaches along strip
        # arcs, its keys exactly the head classes that reach path i, listed
        # ascending
        rng = random.Random(5003)
        nets = [random_net(rng, n_max=9, m_max=20) for _ in range(40)]
        nets += [gen_random(n, 1) for n in (12, 20, 40)]
        nets += [gen_matrix(3, 4, seed=1), gen_twopaths(12)]
        done = 0
        for net in nets:
            if not prune_to_st_paths(net).m:
                continue
            o, _, _ = oracle_for(net)
            ps, succ = o.paths, {}
            assert set(ps.critical) == o.critical
            heads = {h for _, _, h in ps.critical.values()}
            for a, b, _ in strip_arcs(o):
                succ.setdefault(a, set()).add(b)
            for i, table in enumerate(ps.first_reach):
                edges = sorted((pos, e) for e, (p, pos, _) in
                               ps.critical.items() if p == i)
                chain = [o.classes.source_class]
                chain += [ps.critical[e][2] for _, e in edges]
                want = {}
                for x in heads:
                    seen, stack = {x}, [x]
                    while stack:
                        for y in succ.get(stack.pop(), ()):
                            if y not in seen:
                                seen.add(y)
                                stack.append(y)
                    pos = [p for p, c in enumerate(chain) if c in seen]
                    if pos:
                        want[x] = pos[0]
                assert table == want
                assert list(table) == sorted(table)
            done += 1
        assert done > 20


class TestStageGuards:
    """strip_pred and build_path_system handed a broken intermediate of an
    honest build, each raising its own guard's text. On the diamond plus
    a -> b, f-tilde carries the paths (0, 1) and (2, 3), each vertex is a
    class of its own, and the idle edge 4 is not critical."""

    @pytest.fixture
    def stage(self):
        net = make_net(4, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)])
        bf = build_flow_family(net)
        f = bf.family.f_tilde
        cls = residual_scc_ids(net, f)
        assert (cls, bf.sub.critical, bf.family.paths) == \
            ([0, 1, 2, 3], {0, 1, 2, 3}, ((0, 1), (2, 3)))
        return net, f, cls, bf.sub.critical, bf.family.paths

    # s and t in one class, a and b in the other: s -> a and a -> t give
    # strip arcs both ways, and path 0 leaves the class it ends in
    CYCLIC = [0, 1, 1, 0]

    def test_cyclic_class_list(self, stage):
        net, f, _, critical, _ = stage
        with pytest.raises(InternalInvariantError,
                           match="strip graph contains a cycle"):
            strip_pred(net, self.CYCLIC, critical, f)

    @pytest.mark.parametrize("change, message", [
        ({"critical": {0, 2, 3}},
         "saturated non-critical edge 1 crosses classes"),
        ({"critical": {0, 1, 2, 3, 4}},
         "paths do not cover the critical edges"),
        ({"paths": ((1, 0), (2, 3))}, "path 0 jumps classes at edge 1"),
        ({"paths": ((0, 1), (0, 1))}, "critical edge 0 on two paths"),
        ({"paths": ((0,), (2, 3))}, "path 0 does not end at the sink class"),
        ({"cls": CYCLIC}, "path revisits a class"),
    ], ids=["missing-critical", "extra-critical", "reordered", "repeated",
            "truncated", "cyclic"])
    def test_path_system_guards(self, stage, change, message):
        net, f, cls, critical, paths = stage
        pred = strip_pred(net, cls, critical, f)
        args = {"cls": cls, "critical": critical, "paths": paths, **change}
        with pytest.raises(InternalInvariantError, match=message):
            build_path_system(pred, args["cls"], args["critical"],
                              args["paths"], net)


class TestPrecedes:
    def test_diamond_same_path(self, diamond):
        o, _, _ = oracle_for(diamond)
        assert precedes(o.paths, 0, 1)
        assert not precedes(o.paths, 1, 0)

    def test_diamond_anti_chain(self, diamond):
        o, _, _ = oracle_for(diamond)
        assert not precedes(o.paths, 0, 3)
        assert not precedes(o.paths, 3, 0)

    def test_bottleneck_parallel(self, bottleneck):
        o, _, _ = oracle_for(bottleneck)
        assert not precedes(o.paths, 0, 1)
        assert not precedes(o.paths, 1, 0)

    def test_non_critical_rejected(self, bottleneck):
        o, _, _ = oracle_for(bottleneck)
        with pytest.raises(QueryError):
            precedes(o.paths, 0, 2)

    def test_matches_strip_path_enumeration(self):
        rng = random.Random(5002)
        done = 0
        for _ in range(30):
            net = random_net(rng, n_max=7, m_max=16)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            o, bf, _ = oracle_for(net)
            crit = sorted(bf.sub.critical)
            assert o.pred == pred_of_arcs(o)
            # enumerate every source->sink strip path's edge sequence
            orders = set()
            src, dst = o.classes.source_class, o.classes.sink_class
            arcs_from = {}
            for a, b, eid in strip_arcs(o):
                arcs_from.setdefault(a, []).append((b, eid))
            stack = [(src, [])]
            while stack:
                node, used = stack.pop()
                if node == dst:
                    for i, x in enumerate(used):
                        for y in used[i + 1 :]:
                            if x in bf.sub.critical and y in bf.sub.critical:
                                orders.add((x, y))
                    continue
                for b, eid in arcs_from.get(node, []):
                    stack.append((b, used + [eid]))
            for ea in crit:
                for eb in crit:
                    if ea == eb:
                        continue
                    assert precedes(o.paths, ea, eb) == ((ea, eb) in orders), (ea, eb)
            done += 1
        assert done > 10


class TestDecreases:
    def test_diamond_pairs(self, diamond):
        o, _, _ = oracle_for(diamond)
        assert decreases_by_k(o, [0, 3], 2)
        assert not decreases_by_k(o, [0, 1], 2)

    def test_bottleneck_non_critical_member(self, bottleneck):
        o, _, _ = oracle_for(bottleneck)
        assert not decreases_by_k(o, [0, 2], 2)

    def test_query_errors(self, diamond):
        o, _, _ = oracle_for(diamond)
        with pytest.raises(QueryError):
            decreases_by_k(o, [0, 0], 2)
        with pytest.raises(QueryError):
            decreases_by_k(o, [0], 2)
        with pytest.raises(QueryError):
            decreases_by_k(o, [99], 1)
        with pytest.raises(QueryError):
            decreases_by_k(o, [], None)

    def test_matches_brute_force_drops(self):
        # Lemma A.3 semantics: deleting F drops max-flow by |F| iff F is a
        # critical anti-chain. Checked on the walk-pruned host graph, which
        # the calibrated structures must answer for.
        rng = random.Random(5003)
        done = 0
        for _ in range(25):
            net = random_net(rng, n_max=7, m_max=14)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            o, bf, pruned = oracle_for(net)
            lam = bf.sub.lam
            eids = sorted(pruned.edges)
            for k in (1, 2, 3):
                for F in itertools.combinations(eids, k):
                    want = brute_max_flow_value(pruned.without_edges(F)) == lam - k
                    assert decreases_by_k(o, F, k, known=pruned.edges) == want, (F, lam)
            done += 1
        assert done > 10


class TestNmcReport:
    def test_diamond_pair(self, diamond):
        o, _, pruned = oracle_for(diamond)
        part = report_nmc_after(o, [0, 3])
        assert part.source_side == {0, 2}
        assert crossing_edges(pruned.without_edges([0, 3]), part.source_side) == []

    def test_diamond_single(self, diamond):
        o, _, pruned = oracle_for(diamond)
        part = report_nmc_after(o, [0])
        assert part.source_side == {0}
        assert crossing_edges(pruned.without_edges([0]), part.source_side) == [2]

    def test_bottleneck_pair(self, bottleneck):
        o, _, _ = oracle_for(bottleneck)
        part = report_nmc_after(o, [0, 1])
        assert part.source_side == {0}

    def test_rejects_non_decreasing(self, diamond):
        o, _, _ = oracle_for(diamond)
        with pytest.raises(QueryError):
            report_nmc_after(o, [0, 1])

    def test_partition_valid_on_pruned_graph(self):
        rng = random.Random(5004)
        done = 0
        for _ in range(30):
            net = random_net(rng, n_max=8, m_max=18)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            o, bf, pruned = oracle_for(net)
            lam = bf.sub.lam
            crit = sorted(bf.sub.critical)
            for k in (1, 2):
                for F in itertools.combinations(crit, k):
                    if not decreases_by_k(o, F, k):
                        continue
                    part = report_nmc_after(o, F)
                    assert pruned.s in part.source_side
                    assert pruned.t not in part.source_side
                    cut = crossing_edges(pruned.without_edges(F), part.source_side)
                    assert len(cut) == lam - k, (F, cut)
                    done += 1
        assert done > 30


class TestStructSize:
    def test_word_count_linear_in_lam_n(self, diamond, bottleneck):
        for net in (diamond, bottleneck):
            o, bf, _ = oracle_for(net)
            assert word_count(o) <= 20 * bf.sub.lam * net.n

    def test_word_count_random(self):
        rng = random.Random(5005)
        worst = 0.0
        for _ in range(30):
            net = random_net(rng)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            o, bf, _ = oracle_for(net)
            worst = max(worst, word_count(o) / (bf.sub.lam * net.n))
        assert worst <= 20


class TestRawOracle:
    def test_uncalibrated_host_keeps_heavy_edges(self):
        # lam=1 instance whose second x->t edge would be calibration-deleted;
        # the raw build keeps it and still answers drops correctly.
        net = make_net(4, [(0, 1), (1, 3), (1, 3), (1, 2), (2, 3)], t=3)
        o = build_mincut_oracle_raw(net)
        assert o.lam == 1
        assert decreases_by_k(o, [0], 1)
        part = report_nmc_after(o, [0])
        assert part.source_side == {0}

    def test_matches_calibrated_on_fixture(self, bottleneck):
        raw = build_mincut_oracle_raw(bottleneck)
        cal, _, _ = oracle_for(bottleneck)
        assert raw.classes == cal.classes
        assert strip_arcs(raw) == strip_arcs(cal)
        assert raw.pred == cal.pred == pred_of_arcs(raw)
        assert raw.paths == cal.paths
