"""Merge-flow probes, calibration and its certificate, and the flow
families A and B."""

import dataclasses
import random

import pytest

from flowsentry import family, flows
from flowsentry.errors import InternalInvariantError
from flowsentry.family import (
    build_auxiliary,
    build_flow_family,
    calibrate,
    extend_family_B,
    peel_family_A,
)
from flowsentry.generators import gen_matrix, gen_random
from flowsentry.graph import prune_to_st_paths
from flowsentry.oracles import SensitivityOracle
import calibration_reference
import circulation_reference
from conftest import (
    brute_max_flow_value,
    brute_nu,
    canonical_flow,
    family_B,
    make_net,
    random_net,
    unit_max_flow,
)


def built(net):
    pruned = prune_to_st_paths(net)
    return build_flow_family(pruned)


def probed_nu(net):
    """lam and family._capped_nu of every edge, probed in ascending EdgeId
    on the unit residual of one max-flow of net."""
    f = unit_max_flow(net)
    res = flows.UnitResidual(net, f.values)
    return f.value, {eid: family._capped_nu(res, net, eid, f.value)
                     for eid in sorted(net.edges)}


class TestClassify:
    def test_diamond_all_critical(self, diamond):
        lam, nu = probed_nu(diamond)
        assert lam == 2
        assert calibrate(diamond).critical == {0, 1, 2, 3}
        assert all(nu[e] == 2 for e in range(4))

    def test_bottleneck_split(self, bottleneck):
        lam, nu = probed_nu(bottleneck)
        assert lam == 2
        assert calibrate(bottleneck).critical == {0, 1}
        assert nu[0] == nu[1] == 2
        assert nu[2] == nu[3] == nu[4] == 3

    def test_direct_st_edge_is_critical(self):
        # diamond plus an s->t edge: lam becomes 3 and the shortcut is a
        # bridge of its own path, hence critical.
        net = make_net(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
        sub = calibrate(net)
        assert sub.lam == 3
        assert 4 in sub.critical
        assert sub.critical == {0, 1, 2, 3, 4}

    def test_edge_out_of_sink_unbounded(self):
        # s->t plus a detour t->w->t: the edge leaving t crosses no s-t
        # partition, so nu is unbounded, capped at lam+2 by the probe, and
        # it can never be critical.
        net = make_net(3, [(0, 2), (2, 1), (1, 2)])
        lam, nu = probed_nu(net)
        assert lam == 1
        assert nu[1] == lam + 2
        assert calibration_reference.classify(net)[1][1] == \
            calibration_reference.NU_UNBOUNDED
        assert nu[2] == 2
        assert calibrate(net).critical == {0}

    def test_critical_matches_brute_force_drop(self):
        rng = random.Random(4001)
        for _ in range(40):
            net = random_net(rng)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            sub = calibrate(pruned)
            for eid in pruned.edges:
                drop = brute_max_flow_value(pruned.without_edges([eid]))
                assert (eid in sub.critical) == (drop == sub.lam - 1), (
                    f"edge {eid}: lam={sub.lam} after-deletion={drop}"
                )

    def test_nu_is_capped_merge_flow_value(self):
        # The corpus is not pruned: it holds lam = 0 networks, edges out of t
        # or into s, self-loops, and edges whose nu exceeds the lam+2 cap.
        rng = random.Random(4003)
        seen = {"lam0": 0, "unbounded": 0, "capped": 0}
        for _ in range(60):
            net = random_net(rng)
            lam, nu = probed_nu(net)
            assert lam == brute_max_flow_value(net)
            seen["lam0"] += lam == 0
            for eid in net.edges:
                want = brute_nu(net, eid)
                if want is None:
                    assert nu[eid] == lam + 2
                    seen["unbounded"] += 1
                else:
                    assert nu[eid] == min(want, lam + 2), (
                        f"edge {eid}: nu={want} lam={lam} got {nu[eid]}"
                    )
                    seen["capped"] += want > lam + 2
        assert all(seen.values()), seen

    def test_probe_leaves_warm_flow_as_found(self):
        # a probe lays its first unit over the masks and takes it off after,
        # so after every probe the flow and the masks equal a fresh build's
        rng = random.Random(4007)
        seen = {"augmented": 0, "carried": 0}
        for _ in range(30):
            net = random_net(rng)
            f = unit_max_flow(net)
            _, ref_nu, _ = calibration_reference.classify(net)
            fresh = flows.UnitResidual(net, f.values)
            res = flows.UnitResidual(net, f.values)
            for eid in sorted(net.edges):
                seen["carried"] += f.values[eid]
                nu = family._capped_nu(res, net, eid, f.value)
                assert res.flow == f.values, eid
                assert res.out == fresh.out, eid
                assert res.count == fresh.count, eid
                assert nu == min(ref_nu[eid], f.value + 2)
                seen["augmented"] += (f.value < ref_nu[eid]
                                      < calibration_reference.NU_UNBOUNDED)
        assert all(seen.values()), seen


def reference_calibrate(net, lam):
    """Kept set of the sequential deletion rule, with nu recomputed from
    scratch by brute force in the current subgraph at every visit."""
    current = net
    for eid in sorted(net.edges):
        nu = brute_nu(current, eid)
        if nu is None or nu > lam + 1:
            current = current.without_edges([eid])
    return frozenset(current.edges)


class TestCalibrate:
    def test_diamond_keeps_everything(self, diamond):
        sub = calibrate(diamond)
        assert sub.kept == {0, 1, 2, 3}
        assert sub.pruned == frozenset()
        assert sub.critical == {0, 1, 2, 3}

    def test_bottleneck_keeps_everything(self, bottleneck):
        sub = calibrate(bottleneck)
        assert sub.kept == {0, 1, 2, 3, 4}

    def test_fourth_parallel_edge_sequential_fixpoint(self):
        # bottleneck plus a fourth x->t edge: every b-edge starts at nu = 4,
        # but deleting them all would disconnect the graph. The sequential
        # rule deletes only the first one; the rest drop to nu = 3 and stay.
        net = make_net(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (1, 2)])
        _, nu, critical = calibration_reference.classify(net)
        assert all(nu[e] == 4 for e in (2, 3, 4, 5))
        sub = calibrate(net)
        assert sub.pruned == {2}
        assert sub.kept == {0, 1, 3, 4, 5}
        assert sub.critical == critical == {0, 1}
        _, nu, _ = calibration_reference.classify(sub.network)
        assert all(nu[e] == 3 for e in (3, 4, 5))

    def test_unbounded_nu_edge_deleted(self):
        net = make_net(3, [(0, 2), (2, 1), (1, 2)])
        sub = calibrate(net)
        assert 1 in sub.pruned
        assert 0 in sub.kept

    def test_matches_from_scratch_reference(self):
        rng = random.Random(4004)
        lams = set()
        for _ in range(60):
            net = random_net(rng)
            lam, _, critical = calibration_reference.classify(net)
            sub = calibrate(net)
            lams.add(lam)
            assert sub.lam == lam
            # the folded classification equals the reference's
            assert sub.critical == critical
            assert sub.kept == reference_calibrate(net, lam)
            assert sub.pruned == frozenset(net.edges) - sub.kept
            assert sub.network.edges == {e: net.edges[e] for e in sub.kept}
            if not sub.pruned:
                assert sub.network is net
        assert 0 in lams and max(lams) >= 2, lams

    def test_preserves_single_failure_values(self):
        # Calibration soundness: max-flow of G-e and of subgraph-e agree for
        # every original edge (with subgraph-e meaning the subgraph itself
        # when e was deleted).
        rng = random.Random(4002)
        for _ in range(30):
            net = random_net(rng)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            sub = calibrate(pruned)
            assert brute_max_flow_value(sub.network) == sub.lam
            for eid in pruned.edges:
                want = brute_max_flow_value(pruned.without_edges([eid]))
                if eid in sub.kept:
                    got = brute_max_flow_value(sub.network.without_edges([eid]))
                else:
                    got = sub.lam
                assert got == want, f"edge {eid}: {got} != {want}"

    def test_matches_arc_scan_reference(self):
        # the bitmask probes find other paths than the arc-scan probes of
        # calibration_reference, but the same max-flow values, so the same
        # kept, pruned and critical sets, lam and capped nu
        rng = random.Random(4010)
        nets = [random_multigraph(rng) for _ in range(500)]
        nets += [prune_to_st_paths(gen_random(60, 1)),
                 prune_to_st_paths(gen_matrix(6, 8, seed=1))]
        seen = dict.fromkeys(("lam 0", "parallel", "self-loop", "into s",
                              "out of t", "pruned", "reroute"), 0)
        for net in nets:
            lam, kept, pruned, critical, _ = calibration_reference.calibrate(net)
            sub = calibrate(net)
            assert (sub.lam, sub.kept, sub.pruned, sub.critical) == \
                (lam, kept, pruned, critical)
            lam, nu, critical = calibration_reference.classify(net)
            assert probed_nu(net) == (
                lam, {e: min(x, lam + 2) for e, x in nu.items()})
            assert sub.critical == critical
            ends = list(net.edges.values())
            f = unit_max_flow(net)
            seen["lam 0"] += lam == 0
            seen["parallel"] += len(set(ends)) < len(ends)
            seen["self-loop"] += any(u == v for u, v in ends)
            seen["into s"] += any(v == net.s for _, v in ends)
            seen["out of t"] += any(u == net.t for u, _ in ends)
            seen["pruned"] += bool(pruned)
            seen["reroute"] += any(f.values[e] for e in pruned)
        assert all(seen.values()), seen


def random_multigraph(rng):
    """Small random multigraph that repeats edges on purpose; s = 0 and
    t = n-1, which may be disconnected."""
    n = rng.randint(2, 9)
    edges = []
    for _ in range(rng.randint(0, 20)):
        edges += [(rng.randrange(n), rng.randrange(n))] * rng.choice((1, 1, 2, 3))
    return make_net(n, edges, s=0, t=n - 1)


def auxiliary_flow(net):
    """f_H on a pruned net, checked against H's capacities: value
    lam*(lam+1), at most lam+1 on critical edges and lam on the rest."""
    sub = calibrate(net)
    f_h = build_auxiliary(sub)
    lam = sub.lam
    assert f_h.value == lam * (lam + 1)
    for eid, x in f_h.values.items():
        assert 0 <= x <= (lam + 1 if eid in sub.critical else lam), eid
    return f_h, sub


class TestAuxiliary:
    def test_diamond_caps_and_value(self, diamond):
        f_h, _ = auxiliary_flow(diamond)
        assert f_h.values == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_bottleneck_caps_and_value(self, bottleneck):
        # both bounds are reached: lam+1 on the critical a-edges, lam on b
        f_h, sub = auxiliary_flow(bottleneck)
        assert sub.critical == {0, 1}
        assert f_h.values == {0: 3, 1: 3, 2: 2, 3: 2, 4: 2}

    def test_chain_caps_and_value(self, chain):
        f_h, _ = auxiliary_flow(chain)
        assert f_h.values == {0: 2, 1: 2}

    @pytest.mark.parametrize("make", [
        lambda: gen_random(20, 1), lambda: gen_random(40, 1),
        lambda: gen_random(60, 1), lambda: gen_matrix(3, 4, seed=1),
        lambda: gen_matrix(6, 8, seed=1),
    ])
    def test_generated_caps_and_value(self, make):
        auxiliary_flow(prune_to_st_paths(make()))


class TestPeel:
    def test_diamond_three_copies(self, diamond):
        sub = calibrate(diamond)
        f_h = build_auxiliary(sub)
        A = peel_family_A(sub, f_h)
        assert len(A) == 3
        for f in A:
            assert f.values == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_bottleneck_coverage(self, bottleneck):
        sub = calibrate(bottleneck)
        f_h = build_auxiliary(sub)
        A = peel_family_A(sub, f_h)
        assert len(A) == 3
        for f in A:
            assert f.values[0] == f.values[1] == 1
            assert sum(f.values[b] for b in (2, 3, 4)) == 2
        for b in (2, 3, 4):
            assert any(f.values[b] == 0 for f in A)
        for eid in bottleneck.edges:
            assert sum(f.values[eid] for f in A) == f_h.values[eid]

    def test_random_graphs_peel_clean(self):
        # The per-round 0 <= h <= i assertion and the sum identity are
        # enforced inside the builder; this just needs to not raise.
        rng = random.Random(4003)
        checked = 0
        for _ in range(50):
            net = random_net(rng)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            bf = built(net)
            checked += 1
            assert len(bf.family.A) == bf.sub.lam + 1
        assert checked > 25

    def test_matches_circulation_reference(self):
        # the peel augments on the subgraph in the order the lower-bound
        # circulation reduction searches, so it peels that solver's flows,
        # round for round, whether or not calibration deleted edges
        rng = random.Random(4008)
        nets = [random_net(rng) for _ in range(100)]
        nets += [gen_random(n, s) for n in (10, 20, 40, 60) for s in (1, 2, 3)]
        # one of the few gen_random graphs whose flows change if reverse
        # arcs are scanned before forward ones
        nets.append(gen_random(92, 1))
        nets += [gen_matrix(r, c, seed=s) for r, c in ((2, 3), (3, 4), (4, 5),
                                                       (6, 8)) for s in (1, 2)]
        compared, deleted = 0, 0
        for net in nets:
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            bf = build_flow_family(pruned)
            want = circulation_reference.peel_family_A(bf.sub, bf.f_h)
            assert [f.values for f in bf.family.A] == [f.values for f in want]
            compared += 1
            deleted += bool(bf.sub.pruned)
        assert compared > 60 and 0 < deleted < compared

    @pytest.mark.parametrize("make, searches", [
        (lambda: gen_random(60, 1), 201),
        # every round's forced units already form a flow of value lam
        (lambda: gen_matrix(6, 8, seed=1), 0),
    ])
    def test_one_search_per_augmentation(self, make, searches, monkeypatch):
        # the reduction's auxiliary max-flows augment 201 and 0 times over
        # all rounds; the peel searches once per augmentation and solves no
        # max-flow or circulation
        bf = built(make())
        calls = []

        def banned(*args, **kwargs):
            raise AssertionError("the peel solved a max-flow")

        def counted(*args):
            calls.append(1)
            return augment(*args)

        augment = family.augment_unit
        for module in (family, flows):
            monkeypatch.setattr(module, "max_flow", banned)
        monkeypatch.setattr(family, "augment_unit", counted)
        A = peel_family_A(bf.sub, bf.f_h)
        assert len(calls) == searches
        assert [f.values for f in A] == [f.values for f in bf.family.A]


class TestFamilyB:
    def test_bottleneck_size_and_distinct(self, bottleneck):
        bf = built(bottleneck)
        flows = family_B(bf)
        assert len(flows) == 2 * bf.sub.lam + 1 == 5
        seen = {tuple(sorted(f.values.items())) for f in flows}
        assert len(seen) == 5

    def test_diamond_g1_and_canonical(self, diamond):
        bf = built(diamond)
        fam = bf.family
        assert fam.paths == ((0, 1), (2, 3))
        g1 = family_B(bf)[3]
        assert g1.values == {0: 0, 1: 0, 2: 1, 3: 1}
        assert g1.value == 1
        # every edge is critical: its delta is its path, one object each
        assert fam.flip == {0: {0, 1}, 1: {0, 1}, 2: {2, 3}, 3: {2, 3}}
        assert fam.flip[0] is fam.flip[1]
        assert fam.flip[2] is fam.flip[3]

    def test_diamond_null_sets_empty(self, diamond):
        bf = built(diamond)
        for f in bf.family.A:
            assert all(f.values[e] == 1 for e in bf.sub.kept)
        assert bf.family.flip.keys() == bf.sub.kept
        assert bf.sub.kept == bf.sub.critical

    def test_bottleneck_null_sets(self, bottleneck):
        bf = built(bottleneck)
        fam = bf.family
        missing = [{b for b in (2, 3, 4) if f.values[b] == 0} for f in fam.A]
        assert fam.flip.keys() == bf.sub.kept - missing[0]
        assert set().union(*missing) == bf.sub.kept - bf.sub.critical
        # a b-edge f-tilde carries flips to the first member of A that
        # leaves it idle
        for b in {2, 3, 4} - missing[0]:
            j = next(j for j, z in enumerate(missing) if b in z)
            assert bf.sub.kept - (fam.flip.keys() ^ fam.flip[b]) == missing[j]
        # g_1 zeroes one a-edge and one b-edge of f-tilde, which already had
        # one b-edge idle: the null set has exactly three edges.
        null_g1 = missing[0] | set(fam.paths[0])
        assert len(null_g1) == 3
        assert len(null_g1 & {0, 1}) == 1
        assert len(null_g1 & {2, 3, 4}) == 2

    def test_nullmin1_equals_null_on_family_A(self):
        # Members of A are max-flows, so they saturate every critical edge,
        # and a kept non-critical edge has nu = lam+1: null(f, min+1) is
        # null(f) on A. Every kept non-critical edge is idle in some member
        # of A, so the union of A's null sets is kept - critical, a set the
        # oracle derives rather than stores.
        rng = random.Random(4004)
        nets = [random_net(rng) for _ in range(25)]
        # the pinned graphs; calibration deletes edges of gen_random(120),
        # whose subgraph is then calibrated again
        nets += [gen_random(60, 1), gen_matrix(6, 8, seed=1),
                 gen_random(120, 1)]
        checked = 0
        for net in nets:
            if not prune_to_st_paths(net).m:
                continue
            bf = built(net)
            critical = bf.sub.critical
            _, nu, _ = calibration_reference.classify(bf.sub.network)
            nulls = [{e for e in bf.sub.kept if f.values[e] == 0}
                     for f in bf.family.A]
            for z in nulls:
                assert not z & critical
                assert all(nu[e] == bf.sub.lam + 1 for e in z)
            assert set().union(*nulls) == bf.sub.kept - critical
            checked += 1
        assert checked >= 15

    def test_canonical_value_matches_brute_force(self):
        rng = random.Random(4005)
        checked = 0
        for _ in range(40):
            net = random_net(rng)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            bf = built(net)
            for eid in sorted(bf.sub.kept):
                f = canonical_flow(bf, eid)
                assert f.values[eid] == 0
                f.check()
                want = brute_max_flow_value(pruned.without_edges([eid]))
                assert f.value == want, f"edge {eid}: canonical {f.value} != {want}"
                checked += 1
        assert checked > 100

    def test_family_deterministic(self, bottleneck):
        a = built(bottleneck)
        b = built(bottleneck)
        assert [f.values for f in family_B(a)] == [
            f.values for f in family_B(b)
        ]
        assert (a.family.paths, a.family.flip) == \
            (b.family.paths, b.family.flip)
        assert a.sub.kept == b.sub.kept


    def test_critical_edge_off_every_path_raises(self, bottleneck):
        bf = built(bottleneck)
        # a b-edge f-tilde leaves at 0
        idle = min(bf.sub.kept - bf.family.flip.keys())
        sub = dataclasses.replace(bf.sub, critical=bf.sub.critical | {idle})
        with pytest.raises(InternalInvariantError,
                           match=f"critical edge {idle} missing"):
            extend_family_B(list(bf.family.A), sub)

    def test_noncritical_edge_carried_by_all_of_A_raises(self, bottleneck):
        bf = built(bottleneck)
        f_tilde = bf.family.f_tilde
        with pytest.raises(InternalInvariantError,
                           match="saturated in every member of A"):
            extend_family_B([f_tilde] * 3, bf.sub)

    def test_edge_on_two_paths_raises(self, bottleneck, monkeypatch):
        bf = built(bottleneck)
        path = list(bf.family.paths[0])
        monkeypatch.setattr(family, "decompose_into_paths",
                            lambda net, f: [path, path])
        with pytest.raises(InternalInvariantError,
                           match=f"edge {path[0]} on two decomposition paths"):
            extend_family_B(list(bf.family.A), bf.sub)

class TestOrchestrator:
    def test_disconnected_builds_with_lam_0(self):
        # t is unreachable, so the pruned network is empty and lam = 0:
        # one empty flow in A, no paths, nothing kept, and every answer 0
        net = make_net(4, [(0, 1), (1, 2), (2, 1), (3, 2)], t=3)
        pruned = prune_to_st_paths(net)
        assert pruned.m == 0
        bf = build_flow_family(pruned)
        assert (bf.sub.lam, bf.sub.kept, bf.sub.critical) == \
            (0, frozenset(), frozenset())
        assert [f.value for f in bf.family.A] == [0]
        assert bf.family.paths == () and bf.family.flip == {}
        o = SensitivityOracle(net)
        assert (o.lam, o.kept, o.flip) == (0, frozenset(), {})
        assert o.paths.path_of == {}
        for e in net.edges:
            assert o.report_flow_diff_single(e) == (frozenset(), 0)
            for x in net.edges.keys() - {e}:
                assert o.query_edge_flow(e, x) == 0
                assert o.report_flow_diff_dual(e, x) == (frozenset(), 0)
                assert o.mincut_size_dual(e, x) == 0

    def test_subgraph_nu_bounded(self):
        rng = random.Random(4006)
        for _ in range(20):
            net = random_net(rng)
            pruned = prune_to_st_paths(net)
            if not pruned.m:
                continue
            bf = built(net)
            _, nu, critical = calibration_reference.classify(bf.sub.network)
            assert critical == bf.sub.critical
            for eid in bf.sub.kept:
                assert nu[eid] <= bf.sub.lam + 1
                if eid not in critical:
                    assert nu[eid] == bf.sub.lam + 1

    def test_calibration_is_idempotent(self):
        # the certificate's premise: calibrating a calibrated subgraph
        # deletes nothing and finds the same lam and critical set
        rng = random.Random(4009)
        nets = [random_net(rng) for _ in range(40)]
        nets += [gen_random(60, 1), gen_random(120, 1),
                 gen_matrix(8, 2, seed=1)]
        deleted = 0
        for net in nets:
            sub = calibrate(prune_to_st_paths(net))
            again = calibrate(sub.network)
            assert again.pruned == frozenset()
            assert (again.lam, again.critical, again.kept) == \
                (sub.lam, sub.critical, sub.kept)
            deleted += bool(sub.pruned)
        assert deleted >= 10

    @pytest.mark.parametrize("change, message", [
        (dict(pruned=frozenset({5, 3})),
         r"calibration fixpoint violated: nu\(3\) > lam\+1"),
        (dict(lam=3), "calibration changed the max-flow value: 2 -> 3"),
        (dict(critical=frozenset({0})), "calibration changed edge criticality"),
    ])
    def test_certificate_rejects_a_moved_fixpoint(self, change, message,
                                                  monkeypatch):
        # calibration deletes edge 2 of four parallel x->t edges, so the
        # build calibrates again; a second run that deletes an edge or
        # finds another lam or critical set is a bug
        net = make_net(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (1, 2)])
        runs = []

        def lying(net):
            sub = real_calibrate(net)
            runs.append(sub)
            return dataclasses.replace(sub, **change) if len(runs) == 2 else sub

        real_calibrate = family.calibrate
        monkeypatch.setattr(family, "calibrate", lying)
        with pytest.raises(InternalInvariantError, match=message):
            build_flow_family(net)
        assert runs[0].pruned == {2} and len(runs) == 2

    @pytest.mark.parametrize("make", [lambda: gen_random(60, 1),
                                      lambda: gen_matrix(6, 8, seed=1)])
    def test_one_probe_per_edge(self, make, monkeypatch):
        # calibration builds its max-flow with lam+1 path searches, the last
        # finding none. Then it probes each walk-pruned edge once: one
        # reachability search at most, after one path search if the edge
        # carries flow, and one more path search per deleted edge that
        # carried flow. It never runs augment_unit's arc scan. The
        # certificate calibrates the kept edges again, and runs only when
        # calibration deleted some (gen_random(60) yes, gen_matrix(6,8) no)
        net = prune_to_st_paths(make())
        calls = {"idle": 0, "carried": 0, "levels": 0, "path": 0}
        initial = {}

        def counted(name):
            real = getattr(flows.UnitResidual, name)

            def wrapper(self, *args):
                calls[name] += 1
                return real(self, *args)
            monkeypatch.setattr(flows.UnitResidual, name, wrapper)

        def probe(res, net, eid, lam):
            if not initial:
                initial.update(calls)
            calls["carried" if res.flow[eid] else "idle"] += 1
            return real_probe(res, net, eid, lam)

        def no_scan(*args):
            raise AssertionError("calibration ran augment_unit")

        counted("levels")
        counted("path")
        real_probe = family._capped_nu
        monkeypatch.setattr(family, "_capped_nu", probe)
        monkeypatch.setattr(family, "augment_unit", no_scan)
        sub = calibrate(net)
        m, kept = len(net.edges), len(sub.kept)
        assert initial["path"] == initial["levels"] == sub.lam + 1
        path = calls["path"] - initial["path"]
        levels = calls["levels"] - initial["levels"]
        assert calls["idle"] + calls["carried"] == m
        assert 0 < path <= calls["carried"] + (m - kept)
        assert levels <= m + path <= 2 * m + (m - kept)
        monkeypatch.undo()

        calibrated = []

        def counted_calibrate(net):
            calibrated.append(net)
            return real_calibrate(net)

        real_calibrate = family.calibrate
        monkeypatch.setattr(family, "calibrate", counted_calibrate)
        o = SensitivityOracle(make())
        assert len(o.kept) == kept
        assert len(calibrated) == 1 + (kept < m)


class TestBuildGuards:
    """Guards an honest build never fires, each driven by a tampered input
    or a patched stage, and each raising its own text. The criticality
    cross-check is fired in test_cli.py, through main()."""

    # s=0, t=3: s -> 2 is the one critical edge (capacity 2 in H), 2 -> t
    # twice, and 1 -> 2, which nothing reaches, so f_H leaves it at 0
    SPARSE = [(1, 2), (2, 3), (2, 3), (0, 2)]

    def test_calibration_edge_bound(self, monkeypatch):
        # a probe that keeps every edge, on one s-t edge and ten self-loops:
        # 11 kept edges, past lam*n + 2n(lam+1) = 10
        net = make_net(2, [(0, 1)] + [(0, 0)] * 10)
        monkeypatch.setattr(family, "_capped_nu",
                            lambda res, net, eid, lam: lam + 1)
        with pytest.raises(InternalInvariantError,
                           match="calibrated subgraph has 11 edges, bound is 10"):
            calibrate(net)

    def test_auxiliary_value(self, bottleneck):
        # at lam = 3, H's capacities (4 into x twice, 3 out of it three
        # times) admit 8, not 12
        sub = dataclasses.replace(calibrate(bottleneck), lam=3)
        with pytest.raises(InternalInvariantError,
                           match=r"auxiliary max-flow is 8, expected "
                                 r"lam\*\(lam\+1\) = 12"):
            build_auxiliary(sub)

    def test_decomposition_count(self, bottleneck):
        bf = built(bottleneck)
        sub = dataclasses.replace(bf.sub, lam=3)
        with pytest.raises(InternalInvariantError,
                           match="f-tilde decomposed into 2 paths, expected 3"):
            extend_family_B(list(bf.family.A), sub)

    def test_peel_identity(self, bottleneck, monkeypatch):
        # f_H gains a unit on edge 0 after the peel read it
        def tampered(sub, f_h):
            A = real(sub, f_h)
            f_h.values[0] += 1
            return A

        real = family.peel_family_A
        monkeypatch.setattr(family, "peel_family_A", tampered)
        with pytest.raises(InternalInvariantError,
                           match="peel identity broken on edge 0: 3 != 4"):
            build_flow_family(bottleneck)

    @pytest.mark.parametrize("h, message", [
        ({3: 3}, r"peel round 2: h\(3\) = 3 out of \[0, 2\]"),
        ({3: -1}, r"peel round 2: h\(3\) = -1 out of \[0, 2\]"),
        # a unit on an edge outside the subgraph, which no round can take
        ({9: 1}, r"peel left residue; sum\(f_i\) != f_H"),
    ], ids=["above-round", "negative", "residue"])
    def test_peel_rejects_tampered_f_h(self, h, message):
        sub = calibrate(make_net(4, self.SPARSE, t=3))
        f_h = build_auxiliary(sub)
        assert f_h.values == {0: 0, 1: 1, 2: 1, 3: 2}
        f_h.values.update(h)
        with pytest.raises(InternalInvariantError, match=message):
            peel_family_A(sub, f_h)

    @pytest.mark.parametrize("edge, state, message", [
        (0, 3, "peel round 2: flow on spent edge 0"),
        (3, 2, "peel round 2: forced edge 3 idle"),
    ], ids=["spent", "forced"])
    def test_peel_rejects_a_tampered_round(self, edge, state, message,
                                           monkeypatch):
        # round 2 forces edge 3 and augments once, from 2 to t; after that
        # augmentation edge 0, which f_H left at 0, carries a unit, or the
        # forced edge 3 is dropped
        def tampered(arcs, flow, sources, sinks):
            path = real(arcs, flow, sources, sinks)
            flow[edge] = state
            return path

        sub = calibrate(make_net(4, self.SPARSE, t=3))
        f_h = build_auxiliary(sub)
        real = family.augment_unit
        monkeypatch.setattr(family, "augment_unit", tampered)
        with pytest.raises(InternalInvariantError, match=message):
            peel_family_A(sub, f_h)
