import io
import itertools
import pickle
import random

import pytest

from flowsentry import oracles
from flowsentry.errors import InternalInvariantError, QueryError
from flowsentry.family import BuiltFamily, FlowFamily
from flowsentry.flows import IntFlow
from flowsentry.generators import gen_matrix, gen_random
from flowsentry.graph import FlowNetwork
from flowsentry.kfault import build_kfault_oracle
from flowsentry.oracles import FlowDiff, SensitivityOracle

from conftest import (
    brute_max_flow_value,
    make_net,
    random_net,
    reconstruct_flow,
)


def brute_after(net, failures):
    return brute_max_flow_value(net.without_edges(failures))


@pytest.fixture
def wide_bottleneck():
    # s=0, x=1, t=2; two a-edges, four parallel x->t edges. Calibration
    # removes the first x->t edge (id 2), so the pruned net and the
    # calibrated net genuinely differ.
    return make_net(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (1, 2)])


class TestEdgeFlowQuery:
    def test_diamond_reroutes_on_failure(self, diamond):
        o = SensitivityOracle(diamond)
        assert o.query_edge_flow(0, 2) == 1
        assert o.query_edge_flow(0, 1) == 0
        assert o.query_edge_flow(0, 3) == 1

    def test_bottleneck_critical_stays_saturated(self, bottleneck):
        o = SensitivityOracle(bottleneck)
        # whichever branch serves e=b3, the critical a-edges stay at 1
        assert o.query_edge_flow(4, 0) == 1
        assert o.query_edge_flow(4, 1) == 1

    def test_same_edge_rejected(self, diamond):
        o = SensitivityOracle(diamond)
        with pytest.raises(QueryError):
            o.query_edge_flow(1, 1)

    def test_unknown_edge_rejected(self, diamond):
        o = SensitivityOracle(diamond)
        with pytest.raises(QueryError):
            o.query_edge_flow(9, 0)
        with pytest.raises(QueryError):
            o.query_edge_flow(0, 9)

    def test_bits_assemble_the_reported_flow(self):
        rng = random.Random(8101)
        checked = 0
        for _ in range(25):
            net = random_net(rng, n_max=8, m_max=16)
            o = SensitivityOracle(net)
            for e in sorted(net.edges):
                diff = o.report_flow_diff_single(e)
                flow = reconstruct_flow(o, diff, [e])
                for x in sorted(net.edges):
                    if x == e:
                        continue
                    want = flow.values.get(x, 0) if x in flow.values else 0
                    assert o.query_edge_flow(e, x) == want, (e, x)
                    checked += 1
        assert checked > 800


class TestFlowDiffSingle:
    def test_zero_flow_edge_is_free(self, bottleneck):
        o = SensitivityOracle(bottleneck)
        # null(f-tilde): the kept edges f-tilde leaves at 0, those outside
        # flip's keys
        zeros = sorted(o.kept - o.flip.keys())
        assert set(zeros) <= o.kept
        assert zeros, "peel should leave some b-edge unused"
        for e in zeros:
            d = o.report_flow_diff_single(e)
            assert d.toggled == frozenset() and d.new_value == 2

    def test_diamond_drops_one_path(self, diamond):
        o = SensitivityOracle(diamond)
        d = o.report_flow_diff_single(0)
        assert d.toggled == frozenset({0, 1})
        assert d.new_value == 1
        reconstruct_flow(o, d, [0])

    def test_calibration_removed_edge_is_no_effect(self, wide_bottleneck):
        o = SensitivityOracle(wide_bottleneck)
        assert set(o.pruned_net.edges) - o.kept == {2}
        d = o.report_flow_diff_single(2)
        assert d.toggled == frozenset() and d.new_value == 2

    def test_walk_pruned_edge_is_no_effect(self):
        net = make_net(5, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 4)], t=3)
        o = SensitivityOracle(net)
        assert 4 not in o.pruned_net.edges and o.m == 5
        d = o.report_flow_diff_single(4)
        assert d.toggled == frozenset() and d.new_value == 2

    def test_random_reconstructions_are_maximum(self):
        rng = random.Random(8102)
        checked = 0
        for _ in range(40):
            net = random_net(rng, n_max=9, m_max=18)
            o = SensitivityOracle(net)
            for e in sorted(net.edges):
                d = o.report_flow_diff_single(e)
                assert d.new_value == brute_after(net, [e]), e
                reconstruct_flow(o, d, [e])
                checked += 1
        assert checked > 300


class TestFlowDiffDual:
    def test_bottleneck_loses_one_unit(self, bottleneck):
        o = SensitivityOracle(bottleneck)
        d = o.report_flow_diff_dual(2, 3)
        assert d.new_value == 1
        reconstruct_flow(o, d, [2, 3])

    def test_diamond_collapses_to_zero(self, diamond):
        o = SensitivityOracle(diamond)
        d = o.report_flow_diff_dual(0, 3)
        assert d.new_value == 0
        flow = reconstruct_flow(o, d, [0, 3])
        assert all(v == 0 for v in flow.values.values())

    def test_reroute_through_calibration_removed_edge(self, wide_bottleneck):
        # failing two of the three kept x->t edges leaves full value 2,
        # but only by sending flow through the edge calibration removed
        o = SensitivityOracle(wide_bottleneck)
        d = o.report_flow_diff_dual(3, 4)
        assert d.new_value == 2
        flow = reconstruct_flow(o, d, [3, 4])
        assert flow.values[2] == 1

    def test_no_effect_edge_reduces_to_single(self):
        net = make_net(5, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 4)], t=3)
        o = SensitivityOracle(net)
        assert o.report_flow_diff_dual(4, 1) == o.report_flow_diff_single(1)
        assert o.report_flow_diff_dual(1, 4) == o.report_flow_diff_single(1)
        assert o.report_flow_diff_dual(4, 1).new_value == 1

    def test_same_edge_rejected(self, diamond):
        o = SensitivityOracle(diamond)
        with pytest.raises(QueryError):
            o.report_flow_diff_dual(2, 2)

    def test_exhaustive_pairs_match_brute_force(self):
        rng = random.Random(8103)
        checked = 0
        for _ in range(35):
            net = random_net(rng, n_max=9, m_max=16)
            o = SensitivityOracle(net)
            for e, e2 in itertools.combinations(sorted(net.edges), 2):
                for a, b in ((e, e2), (e2, e)):
                    d = o.report_flow_diff_dual(a, b)
                    assert d.new_value == brute_after(net, [a, b]), (a, b)
                    reconstruct_flow(o, d, [a, b])
                    checked += 1
        assert checked > 2000

    def test_critical_pair_searches_once(self, monkeypatch):
        # a critical edge in the pair fixes the value by the strip order,
        # so where e2 carries flow in e's canonical flow MF2 searches once
        # for a plain cycle if the value stays, and not at all if it drops:
        # it walks e's flow for the unit through e2 instead
        net = gen_matrix(3, 4, seed=1)
        o = SensitivityOracle(net)
        calls = []
        real = oracles.cycle_through_arc_without

        def counted(net, rows, carried, target, failed):
            calls.append((target, failed))
            return real(net, rows, carried, target, failed)

        monkeypatch.setattr(oracles, "cycle_through_arc_without", counted)
        crit = o.paths.path_of
        dropped = 0
        for e, e2 in itertools.permutations(sorted(net.edges), 2):
            calls.clear()
            d = o.report_flow_diff_dual(e, e2)
            searched = list(calls)
            assert d.new_value == o.mincut_size_dual(e, e2), (e, e2)
            if e not in crit and e2 not in crit:
                continue
            carried = e in o.kept and e2 in o.kept and \
                o.query_edge_flow(e, e2) == 1
            drop = d.new_value < o.report_flow_diff_single(e).new_value
            assert searched == ([(e2, e)] if carried and not drop else []), \
                (e, e2)
            dropped += carried and drop
        assert dropped > 1000


class TestSharedAnswers:
    """Each single-failure answer is built once per oracle and every
    query that returns it returns that one object."""

    @pytest.fixture
    def oracle(self):
        # edges f-tilde leaves idle both inside and outside kept
        o = SensitivityOracle(gen_random(12, 1))
        idle = set(range(o.m)) - o.flip.keys()
        assert idle & o.kept and idle - o.kept
        return o

    def test_edges_outside_flip_share_one_answer(self, oracle):
        o = oracle
        idle = [e for e in range(o.m) if e not in o.flip]
        first = o.report_flow_diff_single(idle[-1])
        assert first == FlowDiff(frozenset(), o.lam)
        assert all(o.report_flow_diff_single(e) is first for e in idle)
        outside = [e for e in idle if e not in o.kept]
        assert o.report_flow_diff_dual(*outside[:2]) is first

    def test_dual_shares_the_single_answer(self, oracle):
        # a pair with one edge outside kept, or whose second edge is idle
        # in the first's canonical flow, answers with a single failure's
        # answer; the dual query comes first, so it builds that answer
        o = oracle
        outside = min(set(range(o.m)) - o.kept)
        idle_pairs = [(e, e2) for e in sorted(o.flip) for e2 in sorted(o.kept)
                      if e2 != e and (e2 in o.flip) == (e2 in o.flip[e])]
        assert idle_pairs
        for e, e2 in idle_pairs:
            assert o.report_flow_diff_dual(e, e2) is \
                o.report_flow_diff_single(e)
        for e in sorted(o.kept):
            assert o.report_flow_diff_dual(outside, e) is \
                o.report_flow_diff_dual(e, outside) is \
                o.report_flow_diff_single(e)

    def test_tampered_delta_raises_on_first_dual_query(self, diamond):
        # the 6n bound is checked where an answer is built, whichever query
        # builds it, and a refused answer is not stored
        o = SensitivityOracle(diamond)
        o.flip[0] = frozenset(range(100))
        assert 1 in o.flip  # so 1 is idle in 0's tampered flow
        for _ in range(2):
            with pytest.raises(InternalInvariantError, match="bound is 24"):
                o.report_flow_diff_dual(0, 1)
        with pytest.raises(InternalInvariantError, match="bound is 24"):
            o.report_flow_diff_single(0)


class TestReleasedUnits:
    """Each MF2 answer that releases a unit is built once per canonical
    flow and unit, and every later query for it returns that object."""

    @staticmethod
    def _drops(o):
        """Every ordered pair of o's kept edges whose MF2 answer releases
        a unit: both kept, e2 carried in e's canonical flow, the value
        below e's single-failure value; with that answer."""
        found = {}
        for e, e2 in itertools.permutations(sorted(o.kept), 2):
            got = o.report_flow_diff_dual(e, e2)
            if o.query_edge_flow(e, e2) == 1 and \
                    got.new_value < o.report_flow_diff_single(e).new_value:
                found[e, e2] = got
        return found

    @pytest.fixture(scope="class")
    def matrix(self):
        o = SensitivityOracle(gen_matrix(3, 4, seed=1))
        return o, self._drops(o)

    def test_repeated_query_walks_once(self, matrix, monkeypatch):
        o, drops = matrix
        walks = []
        real = oracles.released_unit
        monkeypatch.setattr(oracles, "released_unit",
                            lambda *args: walks.append(args) or real(*args))
        assert len(drops) > 100
        for (e, e2), first in drops.items():
            assert o.report_flow_diff_dual(e, e2) is first
        assert walks == []

    def test_one_unit_shares_one_answer(self, matrix):
        # e2 on the walk from another carried edge of the same flow may
        # release the same unit: its answer is then the same object
        o, drops = matrix
        by_unit = {}
        for (e, e2), got in drops.items():
            by_unit.setdefault((o.flip.get(e, oracles.EMPTY), got.toggled),
                               set()).add((e2, id(got)))
        assert all(len({i for _, i in v}) == 1 for v in by_unit.values())
        assert max(len({x for x, _ in v}) for v in by_unit.values()) > 1

    @pytest.mark.parametrize("make", [lambda: gen_random(10, 1),
                                      lambda: gen_matrix(3, 4, seed=1)],
                             ids=["random10", "matrix3x4"])
    def test_entries_answer_as_a_fresh_oracle(self, make):
        # each entry is the answer an oracle with empty caches gives the
        # pair that filled it, and a flow shares at most one answer per
        # edge it carries
        o = SensitivityOracle(make())
        pristine = pickle.dumps(o)
        drops = self._drops(o)
        tables = vars(o)["_released"]
        assert drops and set(tables) <= set(o.flip.values()) | {oracles.EMPTY}
        entries = 0
        for d, (by_edge, by_unit) in tables.items():
            carried = o.flip.keys() ^ d
            assert by_edge.keys() <= carried
            assert len(by_unit) <= len(carried)
            assert {id(a) for a in by_edge.values()} == \
                {id(a) for a in by_unit.values()}
            for e2, answer in by_edge.items():
                e = next(e for (e, x), got in drops.items()
                         if x == e2 and got is answer)
                assert o.flip.get(e, oracles.EMPTY) == d
                fresh = pickle.loads(pristine)
                assert fresh.report_flow_diff_dual(e, e2) == answer
                assert by_unit[answer.toggled] is answer
                entries += 1
        assert entries == len({(o.flip.get(e, oracles.EMPTY), e2)
                               for e, e2 in drops})


class TestMinCutDual:
    def test_bottleneck_pairs(self, bottleneck):
        o = SensitivityOracle(bottleneck)
        assert o.mincut_size_dual(2, 3) == 1
        assert o.mincut_size_dual(2, 4) == 1
        assert o.mincut_size_dual(3, 4) == 1
        assert o.mincut_size_dual(0, 1) == 0
        assert o.mincut_size_dual(0, 2) == 1

    def test_diamond_pairs(self, diamond):
        o = SensitivityOracle(diamond)
        assert o.mincut_size_dual(0, 3) == 0
        assert o.mincut_size_dual(0, 1) == 1
        assert o.mincut_size_dual(0, 2) == 0
        assert o.mincut_size_dual(1, 3) == 0

    def test_full_graph_hosts_save_noncritical_pair(self, wide_bottleneck):
        # kept x->t edges 3,4,5: failing two still leaves value 2 thanks
        # to the calibration-removed edge 2; an oracle reasoning only on
        # the calibrated subgraph would wrongly report a drop
        o = SensitivityOracle(wide_bottleneck)
        assert o.mincut_size_dual(3, 4) == 2
        assert o.mincut_size_dual(3, 5) == 2
        assert o.mincut_size_dual(4, 5) == 2

    def test_unknown_and_equal_rejected(self, diamond):
        o = SensitivityOracle(diamond)
        with pytest.raises(QueryError):
            o.mincut_size_dual(0, 9)
        with pytest.raises(QueryError):
            o.mincut_size_dual(3, 3)

    def test_exhaustive_pairs_match_brute_force(self):
        rng = random.Random(8104)
        checked = 0
        for _ in range(45):
            net = random_net(rng, n_max=9, m_max=16)
            o = SensitivityOracle(net)
            for e, e2 in itertools.combinations(sorted(net.edges), 2):
                want = brute_after(net, [e, e2])
                assert o.mincut_size_dual(e, e2) == want, (e, e2)
                assert o.mincut_size_dual(e2, e) == want, (e2, e)
                checked += 1
        assert checked > 1500


# query kind -> (library call, QueryError text for a pair of equal edges)
PAIR_KINDS = {
    "MFX": (SensitivityOracle.query_edge_flow,
            "edge x does not survive the failure of e"),
    "MF2": (SensitivityOracle.report_flow_diff_dual,
            "dual-failure query needs two distinct edges"),
    "MC2": (SensitivityOracle.mincut_size_dual,
            "dual-failure query needs two distinct edges"),
}
SAME = object()  # stands for the kind's text for equal edges
# EdgeIds of the oracle below: 0 is kept, 2 calibration-removed, 6
# walk-dropped, 7 (= m), 98 and 99 unknown
PAIR_CASES = [
    ((99, 0), "unknown edge 99"),
    ((0, 99), "unknown edge 99"),
    ((99, 2), "unknown edge 99"),
    ((2, 99), "unknown edge 99"),
    ((99, 6), "unknown edge 99"),
    ((6, 99), "unknown edge 99"),
    ((-1, 0), "unknown edge -1"),
    ((98, 99), "unknown edge 98"),
    ((99, 98), "unknown edge 99"),
    ((99, 99), "unknown edge 99"),
    ((0, 0), SAME),
    ((2, 2), SAME),
    ((6, 6), SAME),
    ((0, 2), None),
    ((2, 0), None),
    ((0, 6), None),
    ((6, 0), None),
    ((2, 6), None),
    ((6, 2), None),
    ((7, 0), "unknown edge 7"),
    ((0, 7), "unknown edge 7"),
]


class TestQueryErrors:
    """The exact QueryError each query kind raises, and which of its
    inputs raises first: an unknown edge in argument order, then equal
    edges, whether the edges are kept, calibration-removed or
    walk-dropped."""

    @pytest.fixture(scope="class")
    def oracle(self):
        # wide_bottleneck plus edge 6 into vertex 3, a dead end that
        # walk-pruning drops
        o = SensitivityOracle(make_net(4, [(0, 1), (0, 1), (1, 2), (1, 2),
                                           (1, 2), (1, 2), (1, 3)], t=2))
        assert 0 in o.kept and 2 in o.pruned_net.edges
        assert 2 not in o.kept and 6 not in o.pruned_net.edges and o.m == 7
        return o

    @pytest.mark.parametrize("kind", sorted(PAIR_KINDS))
    @pytest.mark.parametrize("pair, text", PAIR_CASES)
    def test_pair_kinds(self, oracle, kind, pair, text):
        query, same = PAIR_KINDS[kind]
        if text is None:
            query(oracle, *pair)
            return
        with pytest.raises(QueryError) as got:
            query(oracle, *pair)
        assert str(got.value) == (same if text is SAME else text)

    @pytest.mark.parametrize("e, text", [
        (99, "unknown edge 99"), (-1, "unknown edge -1"),
        (7, "unknown edge 7"),
        (0, None), (2, None), (6, None),
    ])
    def test_single_kinds(self, oracle, e, text):
        # MF and MFD both answer from this call
        if text is None:
            oracle.report_flow_diff_single(e)
            return
        with pytest.raises(QueryError) as got:
            oracle.report_flow_diff_single(e)
        assert str(got.value) == text


class TestEdgeIds:
    @pytest.mark.parametrize("edges", [
        {1: (0, 1), 2: (1, 2)},
        {0: (0, 1), 2: (1, 2)},
        {0: (0, 1), -1: (1, 2)},
    ], ids=["from-1", "gap", "negative"])
    def test_noncontiguous_ids_raise(self, edges):
        # the oracle knows an EdgeId by its range, 0..m-1
        with pytest.raises(ValueError, match="EdgeIds 0..m-1"):
            SensitivityOracle(FlowNetwork(3, edges, 0, 2))

    def test_contiguous_ids_in_any_order_build(self):
        o = SensitivityOracle(FlowNetwork(3, {1: (1, 2), 0: (0, 1)}, 0, 2))
        assert (o.m, o.lam) == (2, 1)


class TestDisconnected:
    def test_all_queries_answer_zero(self):
        net = make_net(3, [(1, 0), (2, 1)])
        o = SensitivityOracle(net)
        assert o.lam == 0
        assert o.query_edge_flow(0, 1) == 0
        assert o.report_flow_diff_single(0) == FlowDiff(frozenset(), 0)
        assert o.report_flow_diff_dual(0, 1) == FlowDiff(frozenset(), 0)
        assert o.mincut_size_dual(0, 1) == 0


def reached_objects(obj):
    """Per class, the distinct instances pickling obj reaches."""
    seen = {}

    class Recorder(pickle.Pickler):
        def reducer_override(self, o):
            seen.setdefault(type(o), set()).add(id(o))
            return NotImplemented

    Recorder(io.BytesIO()).dump(obj)
    return {cls: len(ids) for cls, ids in seen.items()}


class TestStoredEncoding:
    def test_pickled_size_stays_small(self):
        # the kept set, the flip deltas, the precedes tables, the edge
        # count and one graph: 4,696 bytes here. Storing any dropped table
        # again fails this: f-tilde's null set alone adds 80 bytes, the
        # critical set 71, the union of A's null sets 157, the canonical
        # table 932, the per-flow null sets 2,446; the graph's incidence
        # list would add 5 KB, the family's flows 47 KB
        o = SensitivityOracle(gen_random(40, 1))
        assert len(pickle.dumps(o)) < 4_750

    def test_kfault_pickled_size_stays_small(self):
        # seven cuts, each as its canonical source side, and the graph:
        # 531 bytes here. Storing the certificate's derived tables again
        # fails this: each cut's Z adds 88 bytes, the EdgeId -> cuts index
        # 137, the partitions 323
        o = build_kfault_oracle(gen_random(16, 1), 3)
        assert len(o.entries) == 7
        assert len(pickle.dumps(o)) < 560

    @pytest.mark.parametrize("build, fields", [
        (lambda: SensitivityOracle(gen_random(40, 1)),
         ["pruned_net", "m", "lam", "kept", "flip", "paths"]),
        (lambda: build_kfault_oracle(gen_random(12, 1), 2),
         ["net", "k", "lam", "entries"]),
    ], ids=["sensitivity", "kfault"])
    def test_stores_no_flow_and_one_graph(self, build, fields):
        o = build()
        reached = reached_objects(o)
        for cls in reached:
            assert not issubclass(cls, (IntFlow, FlowFamily, BuiltFamily)), cls
        assert reached[FlowNetwork] == 1
        assert list(vars(pickle.loads(pickle.dumps(o)))) == fields

    def test_tampered_canonical_flow_raises(self, diamond):
        # f-tilde sends its unit into a over edge 0; with edge 0 failed, a
        # has no residual arc out, so edge 1's unit cannot be rerouted,
        # artificial arc or not
        o = SensitivityOracle(diamond)
        o.flip[0] = frozenset()
        with pytest.raises(InternalInvariantError, match="no rerouting cycle"):
            o.report_flow_diff_dual(0, 1)

    def test_value_dropping_two_units_raises(self, diamond):
        # 0 and 2 are critical and share a min-cut: the strip order drops
        # the value to 0, one unit below e's canonical value. A strip order
        # that claimed one unit more is caught before a unit is released
        o = SensitivityOracle(diamond)
        assert o.report_flow_diff_dual(0, 2).new_value == 0
        o._critical_value = lambda e, e2: o.lam - 3
        with pytest.raises(InternalInvariantError,
                           match="post-failure value -1 drops more than one "
                                 "unit"):
            o.report_flow_diff_dual(0, 2)

    def test_cycle_repeating_a_vertex_raises(self, wide_bottleneck,
                                             monkeypatch):
        # failing x->t edges 3 and 4 reroutes through edge 2 on a plain
        # cycle; a cycle search that returned its last edge twice passes
        # a vertex twice
        o = SensitivityOracle(wide_bottleneck)
        real = oracles.cycle_through_arc_without

        def doubled(*args):
            cycle = real(*args)
            return (*cycle, cycle[-1])

        monkeypatch.setattr(oracles, "cycle_through_arc_without", doubled)
        with pytest.raises(InternalInvariantError,
                           match="rerouting cycle repeats a vertex"):
            o.report_flow_diff_dual(3, 4)

    def test_tampered_null_set_raises(self, diamond):
        o = SensitivityOracle(diamond)
        o.flip[0] = frozenset(range(100))
        with pytest.raises(InternalInvariantError, match="bound is 24"):
            o.report_flow_diff_single(0)
