import dataclasses
import itertools
import random

import pytest

import flowsentry.kfault
from flowsentry.bruteforce import brute_force
from flowsentry.errors import (
    EnumerationBudgetExceeded,
    InternalInvariantError,
    QueryError,
)
from flowsentry.generators import (
    gen_bottleneck,
    gen_diamond,
    gen_matrix,
    gen_random,
    gen_twopaths,
)
from flowsentry.graph import reachable_set
from flowsentry.kfault import (
    build_kfault_oracle,
    enumerate_minimal_cuts,
    mincut_partition_k,
    mincut_size_k,
    reachable_under_failures,
)
from flowsentry.mincut import crossing_edges

from conftest import brute_max_flow_value, make_net, random_net, unit_max_flow
import kfault_reference
from kfault_reference import cut_list, scan_minimal_cuts, side_of


def brute_after(net, failures):
    return brute_max_flow_value(net.without_edges(failures))


def listed_cuts(net, limit):
    """The crossing sets of the sides enumerate_minimal_cuts lists."""
    return {frozenset(crossing_edges(net, side_of(net, mask)))
            for mask in enumerate_minimal_cuts(net, limit)}


def brute_minimal_cuts(net, limit):
    """Reference: all inclusion-minimal cutting subsets of size <= limit,
    found by scanning edge subsets directly.

    A member of a minimal cut lies on an (s,t)-path, so only such edges
    are scanned, and a subset that already cuts is not grown further,
    since none of its supersets is minimal.
    """
    from_s = reachable_set(net, net.s)
    to_t = reachable_set(net, net.t, reverse=True)
    eids = sorted(e for e, (u, v) in net.edges.items()
                  if u in from_s and v in to_t)
    out = {}
    for e in eids:
        u, v = net.edges[e]
        out.setdefault(u, []).append((e, v))

    def cuts(z):
        seen, stack = {net.s}, [net.s]
        while stack:
            for e, v in out.get(stack.pop(), ()):
                if v not in seen and e not in z:
                    if v == net.t:
                        return False
                    seen.add(v)
                    stack.append(v)
        return True

    found = set()
    stack = [((), 0)]
    while stack:
        combo, start = stack.pop()
        z = frozenset(combo)
        if cuts(z):
            if not any(cuts(z - {e}) for e in z):
                found.add(z)
            continue
        if len(combo) < limit:
            stack.extend((combo + (eids[i],), i + 1)
                         for i in range(start, len(eids)))
    return found


class TestEnumeration:
    def test_bottleneck(self, bottleneck):
        cuts = listed_cuts(bottleneck, 3)
        assert cuts == {frozenset({0, 1}), frozenset({2, 3, 4})}

    def test_diamond(self, diamond):
        cuts = listed_cuts(diamond, 3)
        assert cuts == {
            frozenset({0, 3}),
            frozenset({0, 2}),
            frozenset({1, 3}),
            frozenset({1, 2}),
        }

    def test_chain(self, chain):
        cuts = listed_cuts(chain, 2)
        assert cuts == {frozenset({0}), frozenset({1})}

    def test_partition_is_reachability_canonical(self, diamond):
        for mask in enumerate_minimal_cuts(diamond, 3):
            side = side_of(diamond, mask)
            rest = diamond.without_edges(crossing_edges(diamond, side))
            assert side == reachable_set(rest, diamond.s)

    def test_budget_refused(self, diamond, monkeypatch):
        # the diamond's search visits 7 nodes at limit 2
        monkeypatch.setattr(flowsentry.kfault, "ENUMERATION_PROBE_BUDGET", 7)
        assert len(enumerate_minimal_cuts(diamond, 2)) == 4
        monkeypatch.setattr(flowsentry.kfault, "ENUMERATION_PROBE_BUDGET", 6)
        with pytest.raises(EnumerationBudgetExceeded, match="budget of 6"):
            enumerate_minimal_cuts(diamond, 2)
        with pytest.raises(EnumerationBudgetExceeded):
            build_kfault_oracle(diamond, 1)

    def test_leaf_that_is_not_canonical_raises(self, diamond, monkeypatch):
        # the side check reads t into every forward reach, which no leaf's
        # A holds
        def tampered(net, src, excluded=(), reverse=False):
            seen = real(net, src, excluded, reverse)
            return seen if reverse else seen | {net.t}

        real = flowsentry.kfault.reachable_set
        monkeypatch.setattr(flowsentry.kfault, "reachable_set", tampered)
        with pytest.raises(InternalInvariantError,
                           match="a leaf that is not a canonical side"):
            build_kfault_oracle(diamond, 1)

    def test_identical_to_subset_scan(self):
        # the source sides of the reference subset scan's partitions, in
        # its order
        rng = random.Random(9008)
        nets = [random_net(rng, n_max=9, m_max=16) for _ in range(30)]
        nets += [gen_random(n, seed) for n in range(10, 17)
                 for seed in range(1, 7)]
        nets += [gen_matrix(2, 3, seed=1), gen_twopaths(10), gen_diamond(),
                 gen_bottleneck(2)]
        for net in nets:
            lam = unit_max_flow(net).value
            # the scan keeps or drops each cut regardless of the limit but
            # for the size test, so one scan serves every limit
            want = scan_minimal_cuts(net, lam + 3)
            for limit in range(lam, lam + 4):
                got = enumerate_minimal_cuts(net, limit)
                ref = [sum(1 << v for v in p.source_side)
                       for z, p in want if len(z) <= limit]
                assert got == ref, (net, limit)

    @pytest.mark.parametrize("make, nodes, leaves", [
        (lambda: gen_random(16, 1), 193, 20),
        (lambda: gen_matrix(2, 4, seed=1), 1955, 782),
    ])
    def test_work_per_node(self, make, nodes, leaves, monkeypatch):
        # each of the search's nodes resumes its parent's flow, so it runs
        # the augmentations past the parent's value plus one failed or
        # over-limit search; each of the leaves that pass the size test
        # runs one search for minimality and one for its side
        calls = {"augment_unit": 0, "reachable_set": 0}
        for name in calls:
            def counted(*args, _fn=getattr(flowsentry.kfault, name),
                        _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(flowsentry.kfault, name, counted)
        build_kfault_oracle(make(), 3)
        assert 0 < calls["augment_unit"] <= 2 * nodes
        assert 0 < calls["reachable_set"] <= 2 * leaves
        monkeypatch.setattr(flowsentry.kfault, "ENUMERATION_PROBE_BUDGET",
                            nodes - 1)
        with pytest.raises(EnumerationBudgetExceeded):
            build_kfault_oracle(make(), 3)

    def test_matches_subset_scan(self):
        rng = random.Random(9001)
        for _ in range(25):
            net = random_net(rng, n_max=7, m_max=12)
            limit = brute_max_flow_value(net) + 2
            assert listed_cuts(net, limit) == brute_minimal_cuts(net, limit)


class TestBuild:
    def test_bottleneck_entries(self, bottleneck):
        # cuts of size lam+k never win, so they are not kept
        o = build_kfault_oracle(bottleneck, 1)
        assert o.lam == 2
        assert [z for z, _ in cut_list(o)] == [frozenset({0, 1})]
        o = build_kfault_oracle(bottleneck, 2)
        assert [z for z, _ in cut_list(o)] == \
            [frozenset({0, 1}), frozenset({2, 3, 4})]

    def test_diamond_entries(self, diamond):
        o = build_kfault_oracle(diamond, 1)
        assert [len(z) for z, _ in cut_list(o)] == [2, 2, 2, 2]
        assert len(set(o.entries)) == 4

    def test_bad_k_rejected(self, diamond):
        with pytest.raises(ValueError):
            build_kfault_oracle(diamond, 0)


class TestSizeQueries:
    def test_bottleneck_triple(self, bottleneck):
        o = build_kfault_oracle(bottleneck, 3)
        assert mincut_size_k(o, [0, 2, 3]) == 1
        assert mincut_size_k(o, []) == 2
        assert mincut_size_k(o, [2, 3, 4]) == 0
        assert mincut_size_k(o, [0]) == 1

    def test_query_validation(self, bottleneck):
        o = build_kfault_oracle(bottleneck, 2)
        with pytest.raises(QueryError):
            mincut_size_k(o, [0, 1, 2])
        with pytest.raises(QueryError):
            mincut_size_k(o, [0, 0])
        with pytest.raises(QueryError):
            mincut_size_k(o, [99])

    def test_exhaustive_matches_brute(self):
        rng = random.Random(9002)
        checked = 0
        for _ in range(12):
            net = random_net(rng, n_max=7, m_max=12)
            o = build_kfault_oracle(net, 3)
            eids = sorted(net.edges)
            for size in range(0, 4):
                for combo in itertools.combinations(eids, size):
                    want = brute_after(net, combo)
                    assert mincut_size_k(o, combo) == want, combo
                    checked += 1
        assert checked > 800

    def test_lemma_formula_identity(self):
        # the query must reproduce min(lam, min over minimal cuts of
        # |Z - F|) computed straight from the enumeration
        rng = random.Random(9003)
        for _ in range(8):
            net = random_net(rng, n_max=7, m_max=12)
            o = build_kfault_oracle(net, 3)
            cuts = [z for z, _ in scan_minimal_cuts(net, o.lam + o.k)]
            eids = sorted(net.edges)
            for combo in itertools.combinations(eids, 3):
                fs = set(combo)
                want = min(
                    [o.lam] + [len(z - fs) for z in cuts]
                )
                assert mincut_size_k(o, combo) == want, combo

    def test_monotone_in_failure_set(self):
        rng = random.Random(9004)
        for _ in range(10):
            net = random_net(rng, n_max=7, m_max=12)
            o = build_kfault_oracle(net, 3)
            eids = sorted(net.edges)
            for combo in itertools.combinations(eids, 3):
                v3 = mincut_size_k(o, combo)
                for sub in itertools.combinations(combo, 2):
                    assert v3 <= mincut_size_k(o, sub)


class TestPartitionQueries:
    def test_bottleneck_reports_the_deep_cut(self, bottleneck):
        o = build_kfault_oracle(bottleneck, 3)
        part = mincut_partition_k(o, [0, 2, 3])
        assert part.source_side == frozenset({0, 1})
        cross = [e for e in crossing_edges(bottleneck, part.source_side)
                 if e not in {0, 2, 3}]
        assert cross == [4]

    def test_diamond_single_failure(self, diamond):
        o = build_kfault_oracle(diamond, 1)
        part = mincut_partition_k(o, [0])
        assert part.source_side == frozenset({0})

    def test_empty_failure_set(self, bottleneck):
        o = build_kfault_oracle(bottleneck, 2)
        part = mincut_partition_k(o, [])
        assert len(crossing_edges(bottleneck, part.source_side)) == 2

    def test_partitions_always_valid(self):
        rng = random.Random(9005)
        checked = 0
        for _ in range(10):
            net = random_net(rng, n_max=7, m_max=12)
            o = build_kfault_oracle(net, 3)
            eids = sorted(net.edges)
            for size in range(0, 4):
                for combo in itertools.combinations(eids, size):
                    q = mincut_size_k(o, combo)
                    part = mincut_partition_k(o, combo)
                    assert net.s in part.source_side
                    assert net.t not in part.source_side
                    live = [
                        eid
                        for eid, (u, v) in net.edges.items()
                        if eid not in combo
                        and u in part.source_side
                        and v not in part.source_side
                    ]
                    assert len(live) == q, (combo, q)
                    checked += 1
        assert checked > 700


class TestReachability:
    def test_diamond(self, diamond):
        o = build_kfault_oracle(diamond, 2)
        assert reachable_under_failures(o, [0, 2]) is False
        assert reachable_under_failures(o, [0, 3]) is False
        assert reachable_under_failures(o, [0, 1]) is True
        assert reachable_under_failures(o, []) is True

    def test_disconnected_instance(self):
        net = make_net(3, [(1, 0), (2, 1)])
        o = build_kfault_oracle(net, 2)
        assert o.lam == 0
        assert mincut_size_k(o, [0]) == 0
        assert reachable_under_failures(o, []) is False
        part = mincut_partition_k(o, [0, 1])
        assert net.s in part.source_side and net.t not in part.source_side


def reference_cuts(net, k):
    """(lam, [(Z, source side)]) for every minimal cut of size <= lam+k.

    The cuts come from the edge-subset scan, each with the vertices s
    reaches in G - Z as its source side. They are listed in the documented
    construction order: ascending bitmask of the first vertex set whose
    crossing set is Z.
    """
    lam = brute_max_flow_value(net)
    cuts = brute_minimal_cuts(net, lam + k)
    first = {}
    for mask in range(1 << net.n):
        if (mask >> net.s) & 1 and not (mask >> net.t) & 1:
            side = [v for v in range(net.n) if (mask >> v) & 1]
            first.setdefault(frozenset(crossing_edges(net, side)), mask)
    return lam, [
        (z, frozenset(reachable_set(net.without_edges(z), net.s)))
        for z in sorted(cuts, key=first.__getitem__)
    ]


def reference_size(lam, cuts, f):
    """min(lam, min over minimal cuts Z of |Z - f|)."""
    return min([lam] + [len(z - set(f)) for z, _ in cuts])


def reference_base_side(net):
    """Source side of the residual-reachable min-cut of a max-flow."""
    return brute_force(net)[1]


def reference_source_side(net, lam, cuts, f):
    """The value first, then the source side of the cut with the smallest
    documented key (|Z - f|, -|Z & f|, sorted Z & f, construction order)
    among those that drop below lam; the residual-reachable side when none
    does."""
    q = reference_size(lam, cuts, f)
    if q == lam:
        return reference_base_side(net)
    fs = set(f)
    _, _, _, i = min((len(z - fs), -len(z & fs), sorted(z & fs), i)
                     for i, (z, _) in enumerate(cuts) if len(z - fs) == q)
    return cuts[i][1]


def reference_corpus():
    return [gen_random(n, seed) for n in (6, 8, 10, 12)
            for seed in range(1, 7)]


class TestOnePassQuery:
    def test_matches_two_pass_reference(self):
        lams = set()
        checked = 0
        for net in reference_corpus():
            o = build_kfault_oracle(net, 3)
            lam, cuts = reference_cuts(net, 3)
            lams.add(lam)
            eids = sorted(net.edges)
            for size in range(0, 4):
                for combo in itertools.combinations(eids, size):
                    q = reference_size(lam, cuts, combo)
                    assert mincut_size_k(o, combo) == q, combo
                    assert reachable_under_failures(o, combo) == (q >= 1)
                    got = mincut_partition_k(o, combo).source_side
                    want = reference_source_side(net, lam, cuts, combo)
                    assert got == want, combo
                    checked += 1
        assert 0 in lams and max(lams) >= 3
        assert checked > 5000

    def test_no_max_flow_at_query_time(self, bottleneck, monkeypatch):
        o = build_kfault_oracle(bottleneck, 3)

        def refuse(*args):
            raise AssertionError("augment_unit called at query time")

        monkeypatch.setattr(flowsentry.kfault, "augment_unit", refuse)
        assert mincut_partition_k(o, [2]).source_side == frozenset({0})
        assert mincut_partition_k(o, []).source_side == frozenset({0})
        assert mincut_partition_k(o, [0, 2, 3]).source_side == \
            frozenset({0, 1})

    def test_base_partition_is_residual_reachable(self):
        rng = random.Random(9007)
        nets = reference_corpus()
        nets += [random_net(rng, n_max=7, m_max=12) for _ in range(20)]
        for net in nets:
            o = build_kfault_oracle(net, 2)
            assert mincut_partition_k(o, []).source_side == \
                reference_base_side(net)

    def test_tampered_partition_raises(self, bottleneck):
        o = build_kfault_oracle(bottleneck, 2)
        wrong = sum(1 << v for v in (0, 1))
        entries = tuple(wrong if len(z) == o.lam else mask
                        for mask, (z, _) in zip(o.entries, cut_list(o)))
        tampered = dataclasses.replace(o, entries=entries)
        with pytest.raises(InternalInvariantError):
            mincut_partition_k(tampered, [])


def assert_same_answers(o, failure_sets):
    """MCK, MCKP and RQ as the recounting reference answers them. Returns
    (drops, ties): the sets whose value falls below lam, and those among
    them where two or more cuts reach that value, so the tie-break picks
    the partition."""
    drops = ties = 0
    cuts = cut_list(o)
    for f in failure_sets:
        q = kfault_reference.size_k(o, cuts, f)
        assert mincut_size_k(o, f) == q, f
        assert reachable_under_failures(o, f) == (q >= 1), f
        assert mincut_partition_k(o, f) == \
            kfault_reference.partition_k(o, cuts, f), f
        if q < o.lam:
            drops += 1
            fs = set(f)
            ties += sum(len(z - fs) == q for z, _ in cuts) > 1
    return drops, ties


class TestCertifiedQuery:
    def test_identical_to_recounting_reference(self):
        for net in reference_corpus():
            o = build_kfault_oracle(net, 3)
            eids = sorted(net.edges)
            assert_same_answers(o, (
                combo for size in range(4)
                for combo in itertools.combinations(eids, size)))

    @pytest.mark.parametrize("make, entries, least_ties", [
        # lam is 1 and two cuts are single edges: a tie at 0 needs both
        (lambda: gen_twopaths(40), 192, 0),
        (lambda: gen_matrix(2, 4, seed=1), 400, 100),
    ])
    def test_identical_on_large_cut_lists(self, make, entries, least_ties):
        # most failure sets hit several of these cuts at once
        net = make()
        o = build_kfault_oracle(net, 2)
        assert len(o.entries) == entries
        rng = random.Random(entries)
        pools = [sorted(net.edges),
                 sorted(set().union(*(z for z, _ in cut_list(o))))]
        sets = [rng.sample(pools[i % 2], rng.randint(0, 2))
                for i in range(600)]
        drops, ties = assert_same_answers(o, sets)
        assert drops > 50 and ties >= least_ties

    def test_certificate_runs_once(self, monkeypatch):
        o = build_kfault_oracle(gen_matrix(2, 3, seed=1), 2)
        calls = []
        certify = flowsentry.kfault._certify
        monkeypatch.setattr(flowsentry.kfault, "_certify",
                            lambda o: calls.append(o) or certify(o))
        for f in ([], [0], [0, 1]):
            mincut_size_k(o, f)
            mincut_partition_k(o, f)
            reachable_under_failures(o, f)
        assert calls == [o]

    @pytest.mark.parametrize("tamper, message", [
        (lambda o: {"entries": (*o.entries[:-1],
                                o.entries[-1] | 1 << o.net.t)}, "side 1"),
        (lambda o: {"entries": (*o.entries[:-1],
                                o.entries[-1] ^ 1 << o.net.s)}, "side 1"),
        (lambda o: {"entries": o.entries[::-1]}, "side 1"),
        (lambda o: {"entries": (o.entries[0], *o.entries)}, "side 1"),
        (lambda o: {"entries": (o.entries[0],
                                o.entries[1] | 1 << o.net.n)}, "side 1"),
        (lambda o: {"entries": (o.entries[0], float(o.entries[1]))},
         "side 1"),
        (lambda o: {"lam": o.lam + 1}, "lam=3"),
        (lambda o: {"lam": o.lam - 1}, "lam=1"),
    ], ids=["side", "side-without-s", "order", "repeated", "no-such-vertex",
            "not-an-int", "lam", "lam-down"])
    def test_tampered_oracle_raises_on_any_query(self, bottleneck, tamper,
                                                 message):
        # the sides are {s} and {s, x}; each tamper breaks one check at
        # the second side, or the duality of the smallest cut with lam = 2.
        # A loaded file is outside input: a vertex past n or a side that is
        # not an int must raise this error, not an IndexError or TypeError
        o = build_kfault_oracle(bottleneck, 2)
        assert o.entries == (0b001, 0b011) and (o.net.s, o.net.t) == (0, 2)
        for query in (mincut_size_k, mincut_partition_k,
                      reachable_under_failures):
            with pytest.raises(InternalInvariantError, match=message):
                query(dataclasses.replace(o, **tamper(o)), [])
