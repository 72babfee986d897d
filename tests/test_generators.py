import itertools

import pytest

from flowsentry.bruteforce import brute_force
from flowsentry.generators import (
    gen_bottleneck,
    gen_diamond,
    gen_matrix,
    gen_random,
    gen_twopaths,
    generate,
)
from flowsentry.graph import serialize_network

from conftest import matrix_failure_pair


def count_simple_paths(net, failures=()):
    banned = set(failures)
    total = 0
    stack = [(net.s, frozenset({net.s}))]
    while stack:
        u, seen = stack.pop()
        if u == net.t:
            total += 1
            continue
        for eid, (a, b) in net.edges.items():
            if eid in banned or a != u or b in seen:
                continue
            stack.append((b, seen | {b}))
    return total


class TestFixedFamilies:
    def test_diamond(self):
        net = gen_diamond()
        assert net.n == 4 and len(net.edges) == 4
        assert brute_force(net)[0] == 2

    def test_bottleneck(self):
        net = gen_bottleneck(2)
        assert net.n == 3 and len(net.edges) == 5
        assert brute_force(net)[0] == 2
        assert brute_force(gen_bottleneck(5))[0] == 5
        with pytest.raises(ValueError):
            gen_bottleneck(0)


class TestTwopaths:
    def test_shape_n10(self):
        net = gen_twopaths(10)
        assert net.n == 10
        assert len(net.edges) == 13
        assert brute_force(net)[0] == 1
        # both paths have (n-2)/2 internal edges
        x_edges = [(i, i + 1) for i in range(1, 5)]
        assert all(uv in net.edges.values() for uv in x_edges)
        assert len(x_edges) == 4

    def test_rejects_bad_sizes(self):
        for bad in (4, 5, 9):
            with pytest.raises(ValueError):
                gen_twopaths(bad)

    def test_dual_failure_leaves_unique_path(self):
        net = gen_twopaths(10)
        p = 5
        by_pair = {}
        for eid, uv in net.edges.items():
            by_pair.setdefault(uv, eid)

        def x(i):
            return i

        def y(i):
            return x(i) if i in (1, p) else p + i - 1

        for i in range(2, p):
            e1 = by_pair[(x(i), x(i + 1))]
            e2 = by_pair[(y(i - 1), y(i))]
            assert brute_force(net, [e1, e2])[0] == 1
            assert count_simple_paths(net, [e1, e2]) == 1


class TestMatrix:
    def test_value_is_2r(self):
        net = gen_matrix(2, 2, seed=13)
        assert net.n == 10
        assert brute_force(net)[0] == 4
        assert brute_force(gen_matrix(3, 4, seed=5))[0] == 6

    def test_explicit_matrices_decode_by_brute_force(self):
        mats = [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 1]],
        ]
        net = gen_matrix(2, 2, matrices=mats)
        for k, i, j in itertools.product((1, 2), (1, 2), (1, 2)):
            e1, e2 = matrix_failure_pair(net, 2, 2, k, i, j)
            want = 3 if mats[k - 1][i - 1][j - 1] else 2
            assert brute_force(net, [e1, e2])[0] == want, (k, i, j)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_matrix(0, 2, seed=1)
        with pytest.raises(ValueError):
            gen_matrix(2, 2)
        with pytest.raises(ValueError):
            gen_matrix(2, 2, matrices=[[[1]]])
        net = gen_matrix(2, 2, seed=1)
        with pytest.raises(ValueError):
            matrix_failure_pair(net, 2, 2, 3, 1, 1)

    def test_seed_determinism(self):
        a = serialize_network(gen_matrix(3, 3, seed=42))
        b = serialize_network(gen_matrix(3, 3, seed=42))
        c = serialize_network(gen_matrix(3, 3, seed=43))
        assert a == b
        assert a != c


class TestRandom:
    def test_determinism(self):
        a = serialize_network(gen_random(20, 7))
        b = serialize_network(gen_random(20, 7))
        assert a == b
        assert a != serialize_network(gen_random(20, 8))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random(1, 0)
        with pytest.raises(ValueError):
            gen_random(10, 0, density=0)

    def test_most_instances_are_connected(self):
        connected = sum(
            1 for seed in range(20) if brute_force(gen_random(15, seed))[0]
        )
        assert connected >= 15


class TestDispatch:
    def test_families(self):
        assert generate("diamond", []).n == 4
        assert generate("bottleneck", [3]).n == 3
        assert generate("twopaths", [10]).n == 10
        assert generate("matrix", [2, 3], seed=1).n == 14
        assert generate("random", [12], seed=9).n == 12
        assert generate("random", [12, 50], seed=9).n == 12

    def test_arity_errors(self):
        with pytest.raises(ValueError):
            generate("diamond", [4])
        with pytest.raises(ValueError):
            generate("twopaths", [])
        with pytest.raises(ValueError):
            generate("matrix", [2], seed=1)
        with pytest.raises(ValueError):
            generate("nosuch", [])


class TestBruteForce:
    def test_diamond_examples(self):
        net = gen_diamond()
        assert brute_force(net, [])[0] == 2
        assert brute_force(net, [0, 3])[0] == 0

    def test_bottleneck_example(self):
        net = gen_bottleneck(2)
        assert brute_force(net, [2, 3])[0] == 1

    def test_partition_is_reported(self):
        net = gen_bottleneck(2)
        value, side = brute_force(net, [2, 3])
        assert net.s in side and net.t not in side
        assert value == 1

    def test_agrees_with_engine_on_random(self):
        from flowsentry.flows import max_flow

        for seed in range(30):
            net = gen_random(12, seed)
            assert brute_force(net)[0] == max_flow(net).value
