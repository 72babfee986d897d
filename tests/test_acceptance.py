"""Acceptance suite: one test per shipped guarantee.

Each test covers one criterion end to end against the independent
brute-force oracle, asserts the stated time budget where there is one,
and prints a single PASS line (visible with -s; under plain `pytest -v`
the test's own PASSED/FAILED line is the verdict).
"""

import itertools
import random
import time

import pytest

from flowsentry.bruteforce import brute_force
from flowsentry.family import build_flow_family
from flowsentry.generators import (
    gen_bottleneck,
    gen_diamond,
    gen_matrix,
    gen_random,
    gen_twopaths,
)
from flowsentry.graph import DirectedMultigraph, prune_to_st_paths
from flowsentry.kfault import (
    build_kfault_oracle,
    mincut_partition_k,
    mincut_size_k,
)
from flowsentry.mincut import crossing_edges
from flowsentry.oracles import SensitivityOracle

import calibration_reference
from circulation_reference import CirculationInstance, solve_circulation
from conftest import (
    canonical_flow,
    family_B,
    hoffman_feasible,
    make_net,
    matrix_failure_pair,
    reconstruct_flow,
)
from kfault_reference import scan_minimal_cuts
from mincut_reference import (
    build_mincut_oracle_raw,
    decreases_by_k,
    mincut_structure,
    word_count,
)

# Documented constant for the min-cut structure's footprint: the words the
# build keeps (class_of and the path tables) are at most
# MINCUT_WORDS_PER_LAM_N * lam * n. Measured maximum over the 200-network
# acceptance corpus plus fixtures: 8.25, attained at lam = 1 on a 4-vertex
# instance, where the per-vertex table and fixed per-oracle overhead
# dominate the lam*n yardstick.
MINCUT_WORDS_PER_LAM_N = 20


def fixture_nets():
    return [
        gen_diamond(),
        gen_bottleneck(1),
        gen_bottleneck(2),
        gen_bottleneck(3),
        # parallel-heavy instance whose calibration drops an edge
        make_net(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (1, 2)]),
        make_net(4, [(0, 1), (1, 2), (2, 3)]),
        gen_twopaths(10),
        gen_matrix(2, 2, seed=7),
    ]


def disconnected_net():
    return make_net(3, [(1, 0), (2, 1)])


def draw_random_nets(sizes, count, accept, seed_cap=4000):
    """Deterministic corpus: cycle sizes over seeds, keep nets passing accept."""
    out = []
    seed = 0
    while len(out) < count and seed < seed_cap:
        net = gen_random(sizes[seed % len(sizes)], seed)
        seed += 1
        if accept(net):
            out.append(net)
    assert len(out) == count, f"only {len(out)} of {count} networks drawn"
    return out


@pytest.fixture(scope="module")
def corpus200():
    sizes = [6, 9, 12, 15, 18, 21, 24, 27, 30]
    return draw_random_nets(
        sizes, 200, lambda net: 1 <= brute_force(net)[0] <= 6
    )


def built_families(corpus200):
    for net in fixture_nets() + corpus200:
        pruned, info = prune_to_st_paths(net)
        if info.disconnected:
            continue
        yield net, pruned, build_flow_family(pruned)


def test_ac01_family_a_exactness(corpus200):
    t0 = time.perf_counter()
    checked = 0
    for net, pruned, bf in built_families(corpus200):
        lam, _ = brute_force(net)
        fam = bf.family
        assert bf.sub.lam == lam
        assert len(fam.A) == lam + 1
        for f in fam.A:
            f.check()
            assert f.value == lam
            assert all(x in (0, 1) for x in f.values.values())
        for eid in bf.sub.kept:
            assert sum(f.values[eid] for f in fam.A) == bf.f_h.values[eid]
        assert bf.f_h.value == lam * (lam + 1)
        for eid in bf.sub.kept - bf.sub.critical:
            assert any(f.values[eid] == 0 for f in fam.A)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 200
    assert elapsed <= 120.0
    print(f"AC1 PASS: family A exact on {checked} networks ({elapsed:.1f}s)")


def test_ac02_family_b_exactness(corpus200):
    checked_edges = 0
    for net, pruned, bf in built_families(corpus200):
        lam = bf.sub.lam
        assert len(family_B(bf)) == 2 * lam + 1
        for eid in sorted(bf.sub.kept):
            want, _ = brute_force(net, [eid])
            f = canonical_flow(bf, eid)
            f.check()
            assert f.values[eid] == 0
            assert f.value == want
            checked_edges += 1
    for lam in range(1, 6):
        bb = build_flow_family(gen_bottleneck(lam))
        flows = [f.values for f in family_B(bb)]
        assert len(flows) == 2 * lam + 1
        for i, j in itertools.combinations(range(len(flows)), 2):
            assert flows[i] != flows[j]
    print(f"AC2 PASS: canonical flows exact on {checked_edges} edges; "
          f"bottleneck families pairwise distinct for lam 1..5")


def test_ac03_size_bounds(corpus200):
    worst = 0.0
    checked = 0
    for net, pruned, bf in built_families(corpus200):
        fam = bf.family
        n = bf.sub.network.n
        lam = bf.sub.lam
        members = family_B(bf)
        # the subgraph's own nu: deleting an edge with nu >= lam+2 changes
        # no cut of size <= lam+1, so kept edges keep their calibration nu
        _, nu, _ = calibration_reference.classify(bf.sub.network)
        for i, f in enumerate(members):
            null = {e for e in bf.sub.kept if f.values[e] == 0}
            assert len(null) <= 3 * n
            if i < len(fam.A):
                min1 = {e for e in null if nu[e] == lam + 1}
                assert len(min1) <= 2 * n
        for f1, f2 in itertools.combinations(members, 2):
            disagree = sum(
                1 for eid in bf.sub.kept if f1.values[eid] != f2.values[eid]
            )
            assert disagree <= 6 * n
        assert len(bf.sub.kept) <= lam * n + 2 * n * (lam + 1)
        worst = max(worst, word_count(mincut_structure(bf)) / (lam * n))
        checked += 1
    assert worst <= MINCUT_WORDS_PER_LAM_N
    print(f"AC3 PASS: null-set/edge/word bounds on {checked} networks; "
          f"max words/(lam*n) = {worst:.2f} <= {MINCUT_WORDS_PER_LAM_N}")


def test_ac04_single_failure_oracle():
    t0 = time.perf_counter()
    sizes = [6, 10, 14, 18, 22, 26, 30, 34, 38, 42]
    randoms = draw_random_nets(
        sizes,
        100,
        lambda net: len(net.edges) <= 400 and brute_force(net)[0] >= 1,
    )
    assert max(len(net.edges) for net in randoms) >= 300
    checked = 0
    for net in fixture_nets() + [disconnected_net()] + randoms:
        o = SensitivityOracle(net)
        for e in sorted(net.edges):
            want, _ = brute_force(net, [e])
            diff = o.report_flow_diff_single(e)
            assert diff.new_value == want
            flow = reconstruct_flow(o, diff, [e])
            for x in sorted(net.edges):
                if x != e:
                    assert o.query_edge_flow(e, x) == flow.values.get(x, 0)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    print(f"AC4 PASS: single-failure bits and reconstructions exact over "
          f"{checked} edge failures on 109 graphs ({elapsed:.1f}s)")


def test_ac05_dual_failure_flow():
    small = draw_random_nets(
        [6, 8, 10, 12, 14, 16],
        20,
        lambda net: len(net.edges) <= 60 and brute_force(net)[0] >= 1,
    )
    pairs = 0
    for net in fixture_nets() + small:
        o = SensitivityOracle(net)
        for e, e2 in itertools.combinations(sorted(net.edges), 2):
            want, _ = brute_force(net, [e, e2])
            diff = o.report_flow_diff_dual(e, e2)
            assert diff.new_value == want
            flow = reconstruct_flow(o, diff, [e, e2])
            assert flow.value == want
            pairs += 1

    sampled = 0
    rng = random.Random(20260819)
    for seed in (0, 1):
        net = gen_random(42, seed)
        assert len(net.edges) > 60
        o = SensitivityOracle(net)
        eids = sorted(net.edges)
        for _ in range(5000):
            e, e2 = rng.sample(eids, 2)
            want, _ = brute_force(net, [e, e2])
            diff = o.report_flow_diff_dual(e, e2)
            assert diff.new_value == want
            flow = reconstruct_flow(o, diff, [e, e2])
            assert flow.value == want
            sampled += 1
    assert sampled == 10000
    print(f"AC5 PASS: dual-failure flows exact and feasible on {pairs} "
          f"exhaustive pairs plus {sampled} sampled pairs")


def simple_st_paths(net):
    """All simple s-t paths as edge tuples (tiny graphs only)."""
    out = []
    path = []
    seen = {net.s}

    def walk(v):
        if v == net.t:
            out.append(tuple(path))
            return
        for eid in sorted(net.graph.out_edges(v)):
            w = net.graph.head(eid)
            if w not in seen:
                seen.add(w)
                path.append(eid)
                walk(w)
                path.pop()
                seen.remove(w)

    walk(net.s)
    return out


def test_ac06_dual_failure_mincut():
    pairs = 0
    for net in fixture_nets() + [disconnected_net()]:
        o = SensitivityOracle(net)
        for e, e2 in itertools.combinations(sorted(net.edges), 2):
            assert o.mincut_size_dual(e, e2) == brute_force(net, [e, e2])[0]
            pairs += 1

    # two-paths instance: each designated pair leaves exactly one survivor
    # path, so the min-cut stays at lam = 1
    net = gen_twopaths(20)
    p = 10
    by_pair = {(u, v): eid for eid, (u, v) in net.edges.items()}

    def y(i):
        return i if i in (1, p) else p + i - 1

    o = SensitivityOracle(net)
    for i in range(2, p):
        e_x = by_pair[(i, i + 1)]
        e_y = by_pair[(y(i - 1), y(i))]
        rest = net.without_edges([e_x, e_y])
        assert len(simple_st_paths(rest)) == 1
        assert o.mincut_size_dual(e_x, e_y) == 1
        assert brute_force(net, [e_x, e_y])[0] == 1

    # grid-of-paths instance, r=4 and L=6: the answer to the designated
    # failure pair recovers the wiring bit exactly (drop 1 iff bit set)
    r, length = 4, 6
    bits_rng = random.Random(2026)
    mats = [
        [[bits_rng.getrandbits(1) for _ in range(r)] for _ in range(r)]
        for _ in range(length)
    ]
    mnet = gen_matrix(r, length, matrices=mats)
    mo = SensitivityOracle(mnet)
    assert mo.lam == 2 * r
    decoded = 0
    for k in range(1, length + 1):
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                e1, e2 = matrix_failure_pair(mnet, r, length, k, i, j)
                want = 2 * r - 1 if mats[k - 1][i - 1][j - 1] else 2 * r - 2
                got = mo.mincut_size_dual(e1, e2)
                assert got == want
                assert brute_force(mnet, [e1, e2])[0] == want
                decoded += 1
    assert decoded == r * r * length
    print(f"AC6 PASS: dual min-cut sizes exact on {pairs} fixture pairs; "
          f"8 unique-survivor pairs answer 1; {decoded} wiring bits decoded")


def check_kfault_answers(net, o, cuts, failure_sets):
    for combo in failure_sets:
        want, _ = brute_force(net, combo)
        got = mincut_size_k(o, combo)
        assert got == want, (combo, got, want)
        fs = set(combo)
        assert want == min([o.lam] + [len(z - fs) for z in cuts])
        part = mincut_partition_k(o, combo)
        assert net.s in part.source_side
        assert net.t not in part.source_side
        live = [
            e for e in crossing_edges(net, part.source_side) if e not in fs
        ]
        assert len(live) == want


def test_ac07_k_failure_oracle():
    t0 = time.perf_counter()
    small = draw_random_nets(
        [9, 11, 13, 15],
        8,
        lambda net: net.n <= 15 and brute_force(net)[0] >= 1,
    )
    nets = [
        gen_diamond(),
        gen_bottleneck(2),
        gen_bottleneck(3),
        make_net(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (1, 2)]),
        gen_twopaths(10),
    ] + small
    exhaustive = 0
    for net in nets:
        o = build_kfault_oracle(net, 3)
        cuts = [z for z, _ in scan_minimal_cuts(net, o.lam + o.k)]
        eids = sorted(net.edges)
        sets = [
            combo
            for size in range(0, 4)
            for combo in itertools.combinations(eids, size)
        ]
        check_kfault_answers(net, o, cuts, sets)
        exhaustive += len(sets)

    sampled = 0
    rng = random.Random(4144)
    for seed in (2, 5):
        net = gen_random(16, seed)
        if brute_force(net)[0] < 1:
            continue
        o = build_kfault_oracle(net, 4)
        cuts = [z for z, _ in scan_minimal_cuts(net, o.lam + o.k)]
        eids = sorted(net.edges)
        sets = [
            tuple(rng.sample(eids, rng.randint(1, 4))) for _ in range(5000)
        ]
        check_kfault_answers(net, o, cuts, sets)
        sampled += len(sets)
    assert sampled == 10000
    elapsed = time.perf_counter() - t0
    assert elapsed <= 900.0
    print(f"AC7 PASS: k-failure sizes, partitions and the min-over-cuts "
          f"formula agree on {exhaustive} exhaustive plus {sampled} sampled "
          f"failure sets ({elapsed:.1f}s)")


def test_ac08_circulation_feasibility():
    # the lower-bound circulation solver that test_family.py's peel
    # identity test replays is itself checked against Hoffman's condition
    rng = random.Random(88)
    done = 0
    feasible = 0
    while done < 500:
        n = rng.randint(2, 10)
        edges = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(1, 14))
        ]
        edges = [(u, v) for u, v in edges if u != v]
        if not edges:
            continue
        g = DirectedMultigraph(n, edges)
        lower, upper = {}, {}
        for eid in range(len(edges)):
            lo = rng.randint(0, 2)
            hi = lo + rng.randint(0, 2)
            if lo:
                lower[eid] = lo
            if hi:
                upper[eid] = hi
        demand = {}
        if rng.random() < 0.7:
            for _ in range(rng.randint(0, 3)):
                a, b = rng.randrange(n), rng.randrange(n)
                amount = rng.randint(1, 2)
                demand[a] = demand.get(a, 0) - amount
                demand[b] = demand.get(b, 0) + amount
        else:
            for v in range(n):
                if rng.random() < 0.3:
                    demand[v] = rng.randint(-2, 2)
        inst = CirculationInstance(g, demand, lower, upper)
        sol = solve_circulation(inst)
        assert (sol is not None) == hoffman_feasible(inst)
        if sol is not None:
            feasible += 1
            for eid in g.edges:
                x = sol.get(eid, 0)
                assert lower.get(eid, 0) <= x <= upper.get(eid, 0)
            for v in range(n):
                inc = sum(sol.get(e, 0) for e in g.in_edges(v))
                out = sum(sol.get(e, 0) for e in g.out_edges(v))
                assert inc - out == demand.get(v, 0)
        done += 1
    assert 0 < feasible < 500  # both outcomes genuinely exercised
    print(f"AC8 PASS: reference circulation solver and feasibility test "
          f"agree on 500 instances ({feasible} feasible)")


def strip_reachability(o):
    succ = [[] for _ in o.pred]
    for b, pred in enumerate(o.pred):
        for a in pred:
            succ[a].append(b)
    reach = []
    for c in range(len(succ)):
        seen = {c}
        stack = [c]
        while stack:
            x = stack.pop()
            for nxt in succ[x]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach.append(seen)
    return reach


def check_cut_antichain_equivalence(net):
    """Min-cuts vs critical-edge anti-chains, by full enumeration."""
    lam, _ = brute_force(net)
    o = build_mincut_oracle_raw(net)
    reach = strip_reachability(o)
    cls = o.classes.class_of
    scls, tcls = o.classes.source_class, o.classes.sink_class
    crit = sorted(o.critical)
    tail = {e: cls[net.edges[e][0]] for e in crit}
    head = {e: cls[net.edges[e][1]] for e in crit}

    def before(a, b):
        # a strictly precedes b on some source-to-sink strip path
        return (
            tail[a] in reach[scls]
            and tail[b] in reach[head[a]]
            and tcls in reach[head[b]]
        )

    def comparable(a, b):
        return before(a, b) or before(b, a)

    def share_any_path(a, b):
        return tail[b] in reach[head[a]] or tail[a] in reach[head[b]]

    interior = [v for v in range(net.n) if v not in (net.s, net.t)]
    all_cuts = set()
    min_cuts = set()
    for mask in range(1 << len(interior)):
        side = {net.s} | {
            interior[i] for i in range(len(interior)) if mask >> i & 1
        }
        c = frozenset(crossing_edges(net, side))
        all_cuts.add(c)
        if len(c) == lam:
            min_cuts.add(c)

    antichains = []

    def grow(start, acc):
        if acc:
            antichains.append(frozenset(acc))
        for idx in range(start, len(crit)):
            e = crit[idx]
            if all(not comparable(e, a) for a in acc):
                acc.append(e)
                grow(idx + 1, acc)
                acc.pop()

    grow(0, [])
    maximal = {
        a
        for a in antichains
        if all(any(comparable(e, x) for x in a) for e in crit if e not in a)
    }
    assert maximal == min_cuts, (sorted(maximal), sorted(min_cuts))

    for c in all_cuts:
        transversal = set(c) <= set(crit) and all(
            not share_any_path(a, b)
            for a, b in itertools.combinations(sorted(c), 2)
        )
        assert (len(c) == lam) == transversal, sorted(c)
    return len(all_cuts)


def test_ac09_structural_equivalences():
    nets = [n for n in fixture_nets() if n.n <= 12]
    nets += draw_random_nets(
        [5, 7, 9, 11, 12],
        30,
        lambda net: brute_force(net)[0] >= 1,
    )
    cuts_checked = 0
    for net in nets:
        pruned, info = prune_to_st_paths(net)
        assert not info.disconnected
        cuts_checked += check_cut_antichain_equivalence(pruned)

    drop_sets = 0
    a3_nets = draw_random_nets(
        [8, 10, 12],
        6,
        lambda net: brute_force(net)[0] >= 1 and len(net.edges) <= 20,
    )
    a3_nets += draw_random_nets(
        [16],
        1,
        lambda net: brute_force(net)[0] >= 2
        and 36 <= len(prune_to_st_paths(net)[0].edges) <= 40,
    )
    for net in a3_nets:
        pruned, _ = prune_to_st_paths(net)
        lam, _ = brute_force(pruned)
        o = build_mincut_oracle_raw(pruned)
        eids = sorted(pruned.edges)
        for k in range(1, 5):
            for combo in itertools.combinations(eids, k):
                want = brute_force(pruned, combo)[0] == lam - k
                assert decreases_by_k(o, combo) == want, combo
                drop_sets += 1
    print(f"AC9 PASS: cut/anti-chain and transversality equivalences on "
          f"{cuts_checked} enumerated cuts; decrease-by-k exact on "
          f"{drop_sets} failure sets")


def test_ac10_twopaths_flow_family_lower_bound():
    net = gen_twopaths(20)
    eids = sorted(net.edges)
    survivors = set()
    for e, e2 in itertools.combinations(eids, 2):
        rest = net.without_edges([e, e2])
        paths = simple_st_paths(rest)
        if len(paths) == 1:
            assert brute_force(net, [e, e2])[0] == 1
            survivors.add(frozenset(paths[0]))
    assert len(survivors) >= (20 - 2) // 2
    assert len(survivors) == 10
    print("AC10 PASS: 10 pairwise-distinct unique-survivor flows on "
          "twopaths(20); any dual-failure covering family needs >= 9")
