import pickle

import pytest
from hypothesis import given, strategies as st

from flowsentry.errors import ParseError
from flowsentry.graph import (
    FlowNetwork,
    parse_network,
    prune_to_st_paths,
    reachable_set,
    scc_from_adjacency,
    serialize_network,
)
from conftest import make_net

DIAMOND_TEXT = """p 4 4 1 4
e 1 2
e 2 4
e 1 3
e 3 4
"""


def test_parse_diamond():
    net = parse_network(DIAMOND_TEXT)
    assert net.n == 4 and net.m == 4
    assert net.s == 0 and net.t == 3
    assert net.edges == {0: (0, 1), 1: (1, 3), 2: (0, 2), 3: (2, 3)}


def test_parse_accepts_bytes_comments_and_blanks():
    text = b"# a comment\n\np 2 1 1 2\n# another\ne 1 2\n"
    net = parse_network(text)
    assert net.edges == {0: (0, 1)}


def test_parse_signed_ascii_vertices():
    # a sign is not a digit, so such a line takes ascii_int's checks
    net = parse_network("p 3 2 +1 3\ne +1 3\ne 1 +0003\n")
    assert net.edges == {0: (0, 2), 1: (0, 2)}


def test_parse_parallel_edges_get_distinct_ids():
    net = parse_network("p 2 3 1 2\ne 1 2\ne 1 2\ne 2 1\n")
    assert net.edges == {0: (0, 1), 1: (0, 1), 2: (1, 0)}


@pytest.mark.parametrize(
    "text, lineno, needle",
    [
        ("p 2 0 1 1", 1, "source equals sink"),
        ("p 3 1 1 3\ne 1 5", 2, "out of range"),
        ("p 3 1 0 3\ne 1 2", 1, "out of range"),
        ("e 1 2\np 2 1 1 2", 1, "before problem line"),
        ("p 2 1 1 2\ne 1 2\ne 2 1", 3, "more than 1"),
        ("p 2 2 1 2\ne 1 2", 3, "expected 2 edge lines"),
        ("p 2 1 1 2\nq 1 2", 2, "unknown line type"),
        ("p 2 x 1 2", 1, "expected integer"),
        # int() alone would read these as 10, 2 and 1
        ("p 2 1 1 2\ne 1 1_0", 2, "expected integer, got '1_0'"),
        ("p \uff12 1 1 2", 1, "expected integer, got '\uff12'"),
        ("p 3 1 1 3\ne 0_1 3", 2, "expected integer, got '0_1'"),
        # str.isdigit() holds for these, which are not ASCII
        ("p 2 1 1 2\ne 1 \uff12", 2, "expected integer, got '\uff12'"),
        ("p 2 1 1 2\ne \u00b2 1", 2, "expected integer, got '\u00b2'"),
        ("p 3 1 1 3\ne 1 \u0663", 2, "expected integer, got '\u0663'"),
        ("p 3 1 1 3\ne -1 3", 2, "vertex -1 out of range 1..3"),
        ("p 2 1 1 2\np 2 1 1 2", 2, "duplicate problem line"),
        ("# nothing\n", 2, "missing problem line"),
        ("p 2 1 1 2\ne 1", 2, "got 1 fields"),
        ("p 0 0 1 1", 1, "at least 1"),
        ("p 2 -1 1 2", 1, "non-negative"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, needle):
    with pytest.raises(ParseError) as exc:
        parse_network(text)
    assert exc.value.lineno == lineno
    assert needle in str(exc.value)


def test_serialize_round_trip_is_byte_identical():
    assert serialize_network(parse_network(DIAMOND_TEXT)) == DIAMOND_TEXT


def test_parse_serialize_identity_on_network():
    net = parse_network(DIAMOND_TEXT)
    assert parse_network(serialize_network(net)) == net


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=14,
            ),
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
    )
)
def test_round_trip_property(data):
    n, edge_list, s, t = data
    if s == t:
        t = (s + 1) % n
    net = make_net(n, edge_list, s=s, t=t)
    assert parse_network(serialize_network(net)) == net


def removed_by_prune(net):
    """(pruned network, EdgeIds pruning dropped)."""
    pruned = prune_to_st_paths(net)
    return pruned, net.edges.keys() - pruned.edges.keys()


def test_prune_keeps_diamond_intact(diamond):
    pruned, removed = removed_by_prune(diamond)
    assert isinstance(pruned, FlowNetwork) and pruned == diamond
    assert removed == set()


def test_prune_drops_vertex_off_all_st_paths(diamond):
    # u=4 -> a, u unreachable from s
    net = FlowNetwork(5, {**diamond.edges, 4: (4, 1)}, 0, 3)
    pruned, removed = removed_by_prune(net)
    assert removed == {4}
    assert pruned.edges == diamond.edges


def test_prune_drops_dead_end_branch():
    # s -> a -> t plus a -> c where c goes nowhere
    net = make_net(4, [(0, 1), (1, 3), (1, 2)])
    pruned, removed = removed_by_prune(net)
    assert removed == {2}
    assert set(pruned.edges) == {0, 1}


def test_prune_drops_self_loop():
    net = make_net(3, [(0, 1), (1, 1), (1, 2)])
    pruned, removed = removed_by_prune(net)
    assert removed == {1}


def test_prune_keeps_cycle_edge_through_source():
    # s -> a, a -> s, a -> t: the back edge lies on the walk s,a,s,a,t
    net = make_net(3, [(0, 1), (1, 0), (1, 2)])
    pruned, removed = removed_by_prune(net)
    assert removed == set()


def test_prune_disconnected_signals_empty_network():
    # t unreachable from s: the pruned network has no edges
    net = make_net(4, [(0, 1), (2, 3)])
    pruned, removed = removed_by_prune(net)
    assert pruned.m == 0
    assert removed == {0, 1}
    assert (pruned.n, pruned.s, pruned.t) == (net.n, net.s, net.t)


def test_prune_idempotent():
    net = make_net(6, [(0, 1), (1, 5), (0, 2), (2, 3), (1, 1), (4, 1), (2, 5)], t=5)
    once = prune_to_st_paths(net)
    twice, second = removed_by_prune(once)
    assert twice == once
    assert second == set()


def test_scc_two_cycle_merges():
    assert scc_from_adjacency(2, [[1], [0]]) == [0, 0]


def test_scc_dag_is_singletons():
    assert scc_from_adjacency(2, [[1], []]) == [0, 1]


def test_scc_ids_ordered_by_smallest_vertex():
    # {0} alone, {1,2} a cycle, {3} alone
    assert scc_from_adjacency(4, [[], [2], [1], [1]]) == [0, 1, 1, 2]


def test_scc_deterministic_on_copies():
    succ = [[1], [2], [0, 3], [4], [3]]
    assert scc_from_adjacency(5, succ) == \
        scc_from_adjacency(5, [list(s) for s in succ]) == [0, 0, 0, 1, 1]


def test_scc_long_path_recursion_safe():
    n = 5000
    succ = [[i + 1] for i in range(n - 1)] + [[]]
    assert scc_from_adjacency(n, succ) == list(range(n))


def test_reaches(diamond, chain):
    assert 3 in reachable_set(diamond, 0)
    assert 0 not in reachable_set(diamond, 3)
    assert 0 in reachable_set(diamond, 3, reverse=True)
    assert 2 in reachable_set(chain, 0)
    assert 2 not in reachable_set(chain, 0, excluded=[0])
    assert 2 not in reachable_set(chain, 0, excluded=[1])


def test_without_edges_keeps_ids():
    g = make_net(3, [(0, 1), (1, 2), (0, 2)])
    h = g.without_edges([1])
    assert set(h.edges) == {0, 2}
    assert h.edges[2] == (0, 2)
    assert set(g.edges) == {0, 1, 2}  # original untouched


def test_without_edges_keeps_source_and_sink():
    net = make_net(4, [(2, 1), (1, 3), (2, 3)], s=2, t=1)
    h = net.without_edges([1])
    assert (h.n, h.s, h.t) == (4, 2, 1)
    assert h == make_net(4, {0: (2, 1), 2: (2, 3)}, s=2, t=1)


def test_equality_compares_source_and_sink():
    edges = [(0, 1), (1, 2), (2, 0)]
    net = make_net(3, edges)
    assert net == make_net(3, edges, s=0, t=2)
    assert net != make_net(3, edges, s=1, t=2)
    assert net != make_net(3, edges, s=0, t=1)
    assert net != make_net(4, edges, s=0, t=2)
    assert net != make_net(3, edges[:2])


def test_network_rejects_bad_endpoints():
    with pytest.raises(ValueError, match="source equals sink"):
        FlowNetwork(3, [(0, 1)], 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        FlowNetwork(3, [(0, 1)], 0, 3)
    with pytest.raises(ValueError, match="out of range"):
        FlowNetwork(3, [(0, 3)], 0, 2)


@pytest.mark.parametrize("s, t", [(-1, 2), (3, 2), (0, -1), (0, 3)])
def test_network_rejects_source_or_sink_out_of_range(s, t):
    with pytest.raises(ValueError, match=r"source/sink .* out of range"):
        FlowNetwork(3, [(0, 1), (1, 2)], s, t)


def test_network_rejects_no_vertices():
    with pytest.raises(ValueError, match="at least 1"):
        FlowNetwork(0, [], 0, 0)


def merged_incidence(g):
    """Reference incidence list: per vertex, an out-entry for each edge it
    is the tail of and an in-entry for each it is the head of, by EdgeId,
    an edge's out-entry before its in-entry."""
    rows = [[] for _ in range(g.n)]
    for eid, (u, v) in g.edges.items():
        rows[u].append((eid, v, False))
        rows[v].append((eid, u, True))
    return [sorted(row, key=lambda a: (a[0], a[2])) for row in rows]


class TestIncidence:
    # ids 5 and 0 parallel 0 -> 1, 3 a self-loop at 1, 2 and 7 back edges;
    # inserted out of id order so the list cannot inherit insertion order
    EDGES = {5: (0, 1), 3: (1, 1), 0: (0, 1), 7: (1, 0), 2: (2, 1), 4: (1, 2)}

    def test_order_merges_out_and_in_edges(self):
        g = FlowNetwork(3, self.EDGES, 0, 2)
        assert g.incidence() == merged_incidence(g)
        assert g.incidence()[1] == [
            (0, 0, True), (2, 2, True), (3, 1, False), (3, 1, True),
            (4, 2, False), (5, 0, True), (7, 0, False),
        ]

    def test_not_pickled_and_rebuilt(self):
        g = FlowNetwork(3, self.EDGES, 2, 0)
        g.incidence()
        _, state = g.__getstate__()
        assert state == {"n": 3, "edges": self.EDGES, "s": 2, "t": 0,
                         "_adj": None}
        assert pickle.dumps(g) == pickle.dumps(FlowNetwork(3, self.EDGES, 2, 0))
        h = pickle.loads(pickle.dumps(g))
        assert h == g and (h.s, h.t) == (2, 0)
        assert h.incidence() == g.incidence()
