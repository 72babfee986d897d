"""Verification driver: profiles, reports, and mismatch detection."""

import pytest

from flowsentry.family import build_flow_family
from flowsentry.generators import gen_matrix, gen_random
from flowsentry.graph import prune_to_st_paths
from flowsentry.oracles import FlowDiff, SensitivityOracle
from flowsentry import verify
from flowsentry.verify import (
    Mismatch,
    VerificationReport,
    parse_profile,
    run_verify,
)

from conftest import family_B, make_net, random_net


class TestProfileParsing:
    def test_bare_names(self):
        assert parse_profile("exhaustive-1") == ("exhaustive-1", ())
        assert parse_profile("exhaustive-2") == ("exhaustive-2", ())
        assert parse_profile("invariants") == ("invariants", ())

    def test_parameterized(self):
        assert parse_profile("exhaustive-k(3,12)") == ("exhaustive-k", (3, 12))
        assert parse_profile("sampled(10000, 7)") == ("sampled", (10000, 7))
        assert parse_profile("  exhaustive-k( 2 , 9 )  ") == (
            "exhaustive-k",
            (2, 9),
        )

    def test_unknown_rejected(self):
        for bad in ("exhaustive-3", "sampled(5)", "sampled(a,b)", ""):
            with pytest.raises(ValueError):
                parse_profile(bad)


class TestExhaustiveSingle:
    def test_diamond_clean(self, diamond):
        rep = run_verify(diamond, "exhaustive-1")
        assert rep.ok
        assert rep.counts["MF"] == 4
        assert rep.counts["MFD"] == 4
        assert rep.counts["MFX"] == 4 * 3
        assert rep.mismatches == []

    def test_random_clean(self):
        import random

        rng = random.Random(11)
        done = 0
        for _ in range(12):
            net = random_net(rng)
            rep = run_verify(net, "exhaustive-1")
            assert rep.ok, rep.render()
            done += sum(rep.counts.values())
        assert done > 200


class TestExhaustiveDual:
    def test_bottleneck_ten_pairs(self, bottleneck):
        rep = run_verify(bottleneck, "exhaustive-2")
        assert rep.ok
        assert rep.counts["MF2"] == 10
        assert rep.counts["MC2"] == 10

    def test_calibration_pruned_instance(self):
        net = make_net(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (1, 2)])
        rep = run_verify(net, "exhaustive-2")
        assert rep.ok, rep.render()
        assert rep.counts["MF2"] == 15

    def test_random_clean(self):
        import random

        rng = random.Random(23)
        for _ in range(8):
            net = random_net(rng, n_max=8, m_max=14)
            rep = run_verify(net, "exhaustive-2")
            assert rep.ok, rep.render()


class TestExhaustiveK:
    def test_bottleneck_counts(self, bottleneck):
        rep = run_verify(bottleneck, "exhaustive-k(3,12)")
        assert rep.ok, rep.render()
        # C(5,0)+C(5,1)+C(5,2)+C(5,3) failure sets
        assert rep.counts["MCK"] == 1 + 5 + 10 + 10
        assert rep.counts["MCKP"] == rep.counts["MCK"]
        assert rep.counts["RQ"] == rep.counts["MCK"]

    def test_cap_enforced(self, bottleneck):
        with pytest.raises(ValueError, match="cap"):
            run_verify(bottleneck, "exhaustive-k(2,2)")

    def test_random_clean(self):
        import random

        rng = random.Random(5)
        for _ in range(5):
            net = random_net(rng, n_max=6, m_max=10)
            rep = run_verify(net, "exhaustive-k(2,8)")
            assert rep.ok, rep.render()


class TestSampled:
    def test_deterministic_and_clean(self):
        import random

        net = random_net(random.Random(77), n_max=10, m_max=20)
        a = run_verify(net, "sampled(300,9)")
        b = run_verify(net, "sampled(300,9)")
        assert a.ok and b.ok
        assert a.counts == b.counts
        assert sum(a.counts.values()) > 200


class TestHardInstance:
    def test_matrix_lam_16_exact(self):
        # gen_matrix(8, 2), lam = 16: every member of A leaves the 71
        # crossing edges idle, more than 2n = 68 of them, so no per-flow
        # O(n) bound holds on the null sets; the answers are still exact
        net = gen_matrix(8, 2, seed=1)
        bf = build_flow_family(prune_to_st_paths(net)[0])
        assert bf.sub.lam == 16
        assert min(sum(f.values[e] == 0 for e in bf.sub.kept)
                   for f in bf.family.A) > 2 * net.n
        rep = run_verify(net, "exhaustive-2")
        assert rep.ok, rep.render()
        assert sum(rep.counts.values()) == 14042


class TestInvariants:
    def test_diamond_rows(self, diamond):
        rep = run_verify(diamond, "invariants")
        assert rep.ok
        rows = dict(rep.invariants)
        assert rows["|A| = lam+1"] is True
        assert rows["|B| = 2*lam+1"] is True
        assert rows["sum over A of f_i = f_H edgewise"] is True
        # diamond has lam=2, so |A|=3 and |B|=5
        bf = build_flow_family(prune_to_st_paths(diamond)[0])
        assert len(bf.family.A) == 3
        assert len(family_B(bf)) == 5

    def test_disconnected_instance(self):
        net = make_net(3, [(1, 0), (2, 1)])
        rep = run_verify(net, "invariants")
        assert rep.ok
        assert len(rep.invariants) == 1

    def test_random_all_pass(self):
        import random

        rng = random.Random(41)
        for _ in range(15):
            rep = run_verify(random_net(rng), "invariants")
            assert rep.ok, rep.render()

    @pytest.mark.parametrize("net", [
        lambda: gen_random(10, 1),
        lambda: gen_random(20, 1),
        lambda: gen_random(60, 1),
        lambda: gen_matrix(6, 8, seed=1),
        lambda: gen_matrix(8, 2, seed=1),
    ], ids=["random10", "random20", "random60", "matrix6x8", "matrix8x2"])
    def test_stored_encoding_reproduces_family(self, net):
        rep = run_verify(net(), "invariants")
        assert rep.ok, rep.render()
        rows = dict(rep.invariants)
        for name in (
            "stored null set is null(f-tilde)",
            "null ^ flip[e] is the null set of e's canonical flow",
            "critical edges = keys of the path tables",
            "at most 2*lam+1 distinct flip deltas",
        ):
            assert rows[name] is True

    def test_swapped_flip_delta_fails_its_row(self, bottleneck,
                                              monkeypatch):
        # a-edges 0 and 1 lie on different paths; giving edge 0 the
        # other path's delta decodes to a member of B that carries it
        # the profile builds its oracle through the class verify imports,
        # so the tampering goes in a subclass's __init__
        class Swapped(SensitivityOracle):
            def __init__(self, net):
                super().__init__(net)
                self.flip[0] = self.flip[1]

        monkeypatch.setattr(verify, "SensitivityOracle", Swapped)
        rows = dict(run_verify(bottleneck, "invariants").invariants)
        assert rows["null ^ flip[e] is the null set of e's canonical flow"] \
            is False
        assert rows["stored null set is null(f-tilde)"] is True


class TestReporting:
    def test_render_mentions_replay_command(self):
        rep = VerificationReport(profile="exhaustive-2", graph_label="g.txt")
        rep.count("MC2")
        rep.mismatch("MC2 1 2", 2, 1)
        text = rep.render()
        assert not rep.ok
        assert "MISMATCH" in text
        assert "echo 'MC2 1 2' | flowsentry query -g g.txt -q -" in text

    def test_render_order_independent(self):
        def build(order):
            rep = VerificationReport(profile="p", graph_label="g")
            for q in order:
                rep.mismatch(q, 1, 0)
            rep.count("MC2")
            rep.count("MC2")
            return rep.render()

        assert build(["MC2 1 2", "MC2 1 3"]) == build(["MC2 1 3", "MC2 1 2"])

    def test_failed_invariant_flips_ok(self):
        rep = VerificationReport(profile="invariants", graph_label="g")
        rep.invariants.append(("something", False))
        assert not rep.ok
        assert "[FAIL] something" in rep.render()

    def test_lying_oracle_is_caught(self, diamond, monkeypatch):
        class LyingDual(SensitivityOracle):
            def mincut_size_dual(self, e, e2):
                return 99

        class LyingSingle(SensitivityOracle):
            def report_flow_diff_single(self, e):
                diff = super().report_flow_diff_single(e)
                return FlowDiff(diff.toggled, diff.new_value + 5)

            def query_edge_flow(self, e, x):
                return 1 - super().query_edge_flow(e, x)

        def text(m):
            kind, *eids = m.query.split()
            if kind == "MC2":  # sampled pairs come in either order
                eids = sorted(eids)
            return kind, tuple(eids), m.expected, m.got

        # the exhaustive profile and the sampled one route each kind
        # through the same check, so they report the same mismatch text
        for lying, exhaustive, kinds in (
            (LyingDual, "exhaustive-2", {"MC2"}),
            (LyingSingle, "exhaustive-1", {"MF", "MFX"}),
        ):
            monkeypatch.setattr(verify, "SensitivityOracle", lying)
            full = {text(m) for m in run_verify(diamond, exhaustive).mismatches}
            assert {t[0] for t in full} == kinds
            sampled = run_verify(diamond, "sampled(40,1)").mismatches
            assert {m.query.split()[0] for m in sampled} == kinds
            assert {text(m) for m in sampled} <= full

    def test_timing_recorded(self, diamond):
        rep = run_verify(diamond, "exhaustive-1")
        assert rep.seconds >= 0.0
