"""CLI surface: gen/build/query/verify, exit codes, oracle files."""

import gc
import hashlib
import io
import itertools
import os
import pickle
import random
import shlex
import struct
import subprocess
import sys

import pytest

import flowsentry.cli as cli
from flowsentry import family, flows, kfault, mincut, oracles
from flowsentry.bruteforce import brute_force
from flowsentry.cli import load_oracle, main
from flowsentry.errors import InternalInvariantError
from flowsentry.family import build_flow_family
from flowsentry.generators import gen_matrix, gen_random, gen_twopaths, generate
from flowsentry.graph import parse_network, prune_to_st_paths, serialize_network
from flowsentry.oracles import SensitivityOracle

from conftest import make_net


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def bottleneck_file(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    code = main(["gen", "--family", "bottleneck", "--size", "2",
                 "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


class TestGen:
    def test_diamond(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        code, _, _ = run(capsys, "gen", "--family", "diamond", "-o", str(path))
        assert code == 0
        net = parse_network(path.read_text())
        assert net.n == 4 and len(net.edges) == 4

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (a, b):
            run(capsys, "gen", "--family", "random", "--size", "14",
                "--seed", "9", "-o", str(p))
        assert a.read_bytes() == b.read_bytes()

    def test_matrix_two_sizes(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        code, _, _ = run(capsys, "gen", "--family", "matrix", "--size", "2",
                         "--size", "2", "--seed", "5", "-o", str(path))
        assert code == 0
        assert parse_network(path.read_text()).n == 10

    def test_bad_sizes_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--family", "twopaths",
                           "--size", "7", "-o", str(tmp_path / "x.txt"))
        assert code == 2
        assert "error:" in err

    def test_unknown_family_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "nope", "-o", str(tmp_path / "x.txt")])
        assert exc.value.code == 2

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "diamond", "-o", "-")
        assert code == 0
        assert out.startswith("p 4 4 1 4")


class TestQuery:
    def test_all_query_kinds(self, bottleneck_file, tmp_path, capsys):
        net = parse_network(bottleneck_file.read_text())
        o = SensitivityOracle(net)
        d1 = sorted(e + 1 for e in o.report_flow_diff_single(0).toggled)
        dd = o.report_flow_diff_dual(0, 2)
        d2 = sorted(e + 1 for e in dd.toggled)
        qf = tmp_path / "q.txt"
        qf.write_text(
            "# exercise every query kind\n"
            "MF 1\n"
            "MF 3\n"
            "MFX 1 2\n"
            "MFD 1\n"
            "MF2 1 3\n"
            "MC2 1 2\n"
            "MC2 3 4\n"
            "MCK 2 1 2\n"
            "MCK 1 3\n"
            "MCK 0\n"
            "MCKP 2 1 2\n"
            "RQ 2 1 2\n"
            "RQ 1 1\n"
        )
        code, out, _ = run(capsys, "query", "-g", str(bottleneck_file),
                           "-q", str(qf))
        assert code == 0
        assert out.splitlines() == [
            "MF 1 => 1",
            "MF 3 => 2",
            "MFX 1 2 => 1",
            f"MFD 1 => {d1}",
            f"MF2 1 3 => {dd.new_value} {d2}",
            "MC2 1 2 => 0",
            "MC2 3 4 => 1",
            "MCK 2 1 2 => 0",
            "MCK 1 3 => 2",
            "MCK 0 => 2",
            "MCKP 2 1 2 => [1]",
            "RQ 2 1 2 => 0",
            "RQ 1 1 => 1",
        ]

    def test_over_k_exits_2(self, bottleneck_file, tmp_path, capsys):
        qf = tmp_path / "q.txt"
        qf.write_text("MCK 3 1 2 3\n")
        code, _, err = run(capsys, "query", "-g", str(bottleneck_file),
                           "-q", str(qf))
        assert code == 2
        assert "exceeds oracle k=2" in err

    def test_k_flag_raises_cap(self, bottleneck_file, tmp_path, capsys):
        qf = tmp_path / "q.txt"
        qf.write_text("MCK 3 1 2 3\n")
        code, out, _ = run(capsys, "query", "-g", str(bottleneck_file),
                           "-k", "3", "-q", str(qf))
        assert code == 0
        assert out.strip() == "MCK 3 1 2 3 => 0"

    def test_bad_query_kind_exits_2(self, bottleneck_file, tmp_path, capsys):
        qf = tmp_path / "q.txt"
        qf.write_text("WAT 1\n")
        code, _, err = run(capsys, "query", "-g", str(bottleneck_file),
                           "-q", str(qf))
        assert code == 2
        assert "unknown query kind" in err

    def test_unknown_edge_exits_2(self, bottleneck_file, tmp_path, capsys):
        qf = tmp_path / "q.txt"
        qf.write_text("MF 99\n")
        code, _, err = run(capsys, "query", "-g", str(bottleneck_file),
                           "-q", str(qf))
        assert code == 2

    def test_zero_based_id_rejected(self, bottleneck_file, tmp_path, capsys):
        qf = tmp_path / "q.txt"
        qf.write_text("MF 0\n")
        code, _, err = run(capsys, "query", "-g", str(bottleneck_file),
                           "-q", str(qf))
        assert code == 2
        assert "1-based" in err

    @pytest.mark.parametrize("line", [
        "MF 99", "MFX 1 99", "MFD 99", "MF2 99 1", "MC2 1 99", "MCK 1 99",
        "MCKP 2 1 99", "RQ 1 99"])
    def test_unknown_edge_named_as_typed(self, bottleneck_file, tmp_path,
                                         capsys, line):
        qf = tmp_path / "q.txt"
        qf.write_text(line + "\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "-q", str(qf))
        assert (code, out) == (2, "")
        assert err == "error: query line 1: unknown edge 99\n"

    @pytest.mark.parametrize("kind", ["MCK", "MCKP", "RQ"])
    def test_negative_failure_count_exits_2(self, bottleneck_file, tmp_path,
                                            capsys, kind):
        qf = tmp_path / "q.txt"
        qf.write_text(f"{kind} -1\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "-q", str(qf))
        assert (code, out) == (2, "")
        assert err == "error: line 1: negative failure count -1\n"

    def test_malformed_graph_exits_2(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("p 3 1 1 3\ne 1\n")
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, _, err = run(capsys, "query", "-g", str(g), "-q", str(qf))
        assert code == 2

    def test_oracle_from_stdin_exits_2(self, bottleneck_file, tmp_path,
                                       capsys, monkeypatch):
        # an oracle file is binary and read whole; - is not a file name here
        monkeypatch.chdir(tmp_path)
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "--oracle", "-", "-q", str(qf))
        assert code == 2 and out == ""
        assert "--oracle" in err

    def test_graph_and_queries_both_stdin_exit_2(self, bottleneck_file,
                                                 capsys, monkeypatch):
        # the graph parser would read the queries as graph lines
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            bottleneck_file.read_text() + "MF 1\n"))
        code, out, err = run(capsys, "query", "-g", "-", "-q", "-")
        assert code == 2 and out == ""
        assert "-g/--graph" in err and "-q/--queries" in err

    def test_stdin_queries(self, bottleneck_file):
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentry.cli", "query",
             "-g", str(bottleneck_file), "-q", "-"],
            input="MC2 1 2\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "MC2 1 2 => 0"


class TestBuildAndOracleFile:
    def test_round_trip_answers_match(self, bottleneck_file, tmp_path, capsys):
        ob = tmp_path / "oracle.bin"
        code, _, _ = run(capsys, "build", "-g", str(bottleneck_file),
                         "-k", "3", "-o", str(ob))
        assert code == 0
        assert ob.read_bytes()[:8] == b"FLOWSNTY"
        qf = tmp_path / "q.txt"
        qf.write_text("MC2 1 2\nMCK 3 1 3 4\nMCKP 0\n")
        direct = run(capsys, "query", "-g", str(bottleneck_file), "-k", "3",
                     "-q", str(qf))
        loaded = run(capsys, "query", "-g", str(bottleneck_file),
                     "--oracle", str(ob), "-q", str(qf))
        assert direct[0] == loaded[0] == 0
        assert direct[1] == loaded[1]

    def test_build_to_stdout_exits_2(self, bottleneck_file, tmp_path, capsys,
                                     monkeypatch):
        # gen -o - streams text; build writes a binary file and must not
        # create one named -
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "build", "-g", str(bottleneck_file),
                             "-o", "-")
        assert code == 2 and out == ""
        assert "-o/--output" in err
        assert not (tmp_path / "-").exists()

    def test_load_keeps_gc_setting(self, bottleneck_file, tmp_path, capsys):
        ob = tmp_path / "oracle.bin"
        run(capsys, "build", "-g", str(bottleneck_file), "-o", str(ob))
        digest = hashlib.sha256(bottleneck_file.read_bytes()).digest()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                load_oracle(str(ob), digest)
                assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_stored_k_wins(self, bottleneck_file, tmp_path, capsys):
        ob = tmp_path / "oracle.bin"
        run(capsys, "build", "-g", str(bottleneck_file), "-k", "3",
            "-o", str(ob))
        qf = tmp_path / "q.txt"
        qf.write_text("MCK 3 1 2 3\n")
        # default -k is 2, but the stored oracle was built for k=3
        code, out, _ = run(capsys, "query", "-g", str(bottleneck_file),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 0
        assert out.strip() == "MCK 3 1 2 3 => 0"

    def test_digest_mismatch_exits_2(self, bottleneck_file, tmp_path, capsys):
        ob = tmp_path / "oracle.bin"
        run(capsys, "build", "-g", str(bottleneck_file), "-o", str(ob))
        other = tmp_path / "other.txt"
        run(capsys, "gen", "--family", "diamond", "-o", str(other))
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, _, err = run(capsys, "query", "-g", str(other),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 2
        assert "different graph" in err

    def test_old_format_version_exits_2(self, bottleneck_file, tmp_path,
                                        capsys):
        ob = tmp_path / "oracle.bin"
        run(capsys, "build", "-g", str(bottleneck_file), "-o", str(ob))
        blob = bytearray(ob.read_bytes())
        old = cli.ORACLE_VERSION - 1
        blob[8:10] = old.to_bytes(2, "little")
        ob.write_bytes(bytes(blob))
        qf = tmp_path / "q.txt"
        qf.write_text("MF2 1 3\n")
        code, _, err = run(capsys, "query", "-g", str(bottleneck_file),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 2
        assert (f"format version {old}, this build reads version "
                f"{cli.ORACLE_VERSION}") in err

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_damaged_file_exits_2(self, bottleneck_file, tmp_path, capsys,
                                  damage):
        ob = tmp_path / "oracle.bin"
        run(capsys, "build", "-g", str(bottleneck_file), "-o", str(ob))
        blob = bytearray(ob.read_bytes())
        if damage == "truncated":
            blob = blob[:len(blob) // 2]
        else:
            blob[-len(blob) // 3] ^= 0x01  # a byte inside the payload
        ob.write_bytes(bytes(blob))
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentry.cli", "query",
             "-g", str(bottleneck_file), "--oracle", str(ob), "-q", str(qf)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "corrupt oracle file; rebuild it" in lines[0]

    def test_budget_exhausted_skips_kfault(self, tmp_path, capsys,
                                           monkeypatch):
        graph = tmp_path / "g30.txt"
        run(capsys, "gen", "--family", "random", "--size", "30",
            "--seed", "1", "-o", str(graph))
        # the search needs 113 nodes on this graph at k=2
        monkeypatch.setattr(kfault, "ENUMERATION_PROBE_BUDGET", 10)
        ob = tmp_path / "oracle.bin"
        code, _, err = run(capsys, "build", "-g", str(graph), "-o", str(ob))
        assert code == 0
        assert "k-fault oracle skipped" in err and "budget of 10" in err
        want = SensitivityOracle(parse_network(graph.read_text()))
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, out, _ = run(capsys, "query", "-g", str(graph),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 0
        assert out.strip() == \
            f"MF 1 => {want.report_flow_diff_single(0).new_value}"
        qf.write_text("MCK 1 1\n")
        code, _, err = run(capsys, "query", "-g", str(graph),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 2
        assert "budget of 10 search nodes" in err

    def test_loaded_file_without_kfault_builds_nothing(self, tmp_path,
                                                       capsys, monkeypatch):
        graph = tmp_path / "g30.txt"
        run(capsys, "gen", "--family", "random", "--size", "30",
            "--seed", "1", "-o", str(graph))
        monkeypatch.setattr(kfault, "ENUMERATION_PROBE_BUDGET", 10)
        ob = tmp_path / "oracle.bin"
        run(capsys, "build", "-g", str(graph), "-o", str(ob))

        def no_enumeration(*args):
            raise AssertionError("minimal-cut enumeration ran at query time")

        monkeypatch.setattr(kfault, "enumerate_minimal_cuts", no_enumeration)
        qf = tmp_path / "q.txt"
        for line in ("MCK 1 1", "MCKP 2 1 2", "RQ 0"):
            qf.write_text(line + "\n")
            code, out, err = run(capsys, "query", "-g", str(graph),
                                 "--oracle", str(ob), "-q", str(qf))
            assert code == 2 and out == ""
            assert err.startswith("error: the oracle file holds no k-fault")
            assert "budget of 10 search nodes" in err

    @pytest.mark.parametrize("payload", [
        [None, None],
        {"sensitivity": None},
        {"sensitivity": None, "kfault": None, "extra": None},
        {"sensitivity": "oracle", "kfault": None},
        {"sensitivity": None, "kfault": 3},
    ], ids=["list", "missing-key", "extra-key", "bad-sensitivity",
            "bad-kfault"])
    def test_payload_of_wrong_shape_exits_2(self, tmp_path, capsys,
                                            payload):
        graph = tmp_path / "g.txt"
        run(capsys, "gen", "--family", "diamond", "-o", str(graph))
        ob = tmp_path / "oracle.bin"
        blob = pickle.dumps(payload)
        ob.write_bytes(cli.ORACLE_MAGIC
                       + struct.pack("<HH", cli.ORACLE_VERSION, 2)
                       + hashlib.sha256(graph.read_bytes()).digest()
                       + hashlib.sha256(blob).digest() + blob)
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, out, err = run(capsys, "query", "-g", str(graph),
                             "--oracle", str(ob), "-q", str(qf))
        assert code == 2 and out == ""
        assert "corrupt oracle file; rebuild it" in err

    def test_loaded_file_without_sensitivity_builds_nothing(
            self, tmp_path, capsys, monkeypatch):
        graph = tmp_path / "g.txt"
        run(capsys, "gen", "--family", "diamond", "-o", str(graph))
        ob = tmp_path / "oracle.bin"
        digest = hashlib.sha256(graph.read_bytes()).digest()
        cli.save_oracle(str(ob), 2, digest, None, None)

        def no_build(*args):
            raise AssertionError("sensitivity oracle built at query time")

        monkeypatch.setattr(oracles, "build_flow_family", no_build)
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, _, err = run(capsys, "query", "-g", str(graph),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 2
        assert "holds no sensitivity oracle" in err

    def test_thirty_vertex_graph_builds_kfault(self, tmp_path, capsys):
        graph = tmp_path / "g30.txt"
        run(capsys, "gen", "--family", "random", "--size", "30",
            "--seed", "1", "-o", str(graph))
        ob = tmp_path / "oracle.bin"
        code, _, err = run(capsys, "build", "-g", str(graph), "-o", str(ob))
        assert code == 0 and err == ""
        net = parse_network(graph.read_text())
        digest = hashlib.sha256(graph.read_bytes()).digest()
        kf = load_oracle(str(ob), digest)[2]
        assert kf is not None
        # half the sets fail edges of the stored cuts, so answers drop
        rng = random.Random(30)
        hot = sorted(set().union(*(e.z for e in kf.entries)))
        pools = [sorted(net.edges), hot]
        sets = [rng.sample(pools[i % 2], rng.randint(0, 2))
                for i in range(60)]
        qf = tmp_path / "q.txt"
        qf.write_text("".join(
            f"MCK {len(f)} {' '.join(str(e + 1) for e in f)}\n" for f in sets))
        code, out, _ = run(capsys, "query", "-g", str(graph),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 0
        got = [int(line.rsplit(" ", 1)[1]) for line in out.splitlines()]
        assert got == [brute_force(net, f)[0] for f in sets]
        assert min(got) <= kf.lam - 2

    def test_loaded_oracle_answers_dual_queries_alike(self, tmp_path,
                                                      monkeypatch):
        # gen_random(10, 1) runs both residual traversals; the loaded
        # oracle starts with no residual rows and no BFS trees, and
        # rebuilds its graph's incidence list, the rows and the trees on
        # the first traversals. The single-failure queries read null and
        # flip alone
        net = generate("random", [10], seed=1)
        sens = SensitivityOracle(net)
        path = tmp_path / "oracle.bin"
        digest = hashlib.sha256(b"graph").digest()
        cli.save_oracle(str(path), 0, digest, sens, None)
        _, loaded, _ = load_oracle(str(path), digest)
        assert not vars(loaded).get("_residual")
        # edges that share a canonical flow still share one delta object
        assert len({id(d) for d in loaded.flip.values()}) == \
            len({id(d) for d in sens.flip.values()}) < len(sens.flip)
        calls = {}
        for name in ("cycle_through_arc_without", "strongly_connected_without"):
            def counted(*args, _fn=getattr(oracles, name), _name=name, **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kw)
            monkeypatch.setattr(oracles, name, counted)
        for e in sorted(net.edges):
            # MF and MFD: the value and the toggled set
            assert loaded.report_flow_diff_single(e) == \
                sens.report_flow_diff_single(e), e
        for e, e2 in itertools.permutations(sorted(net.edges), 2):
            assert loaded.query_edge_flow(e, e2) == \
                sens.query_edge_flow(e, e2), (e, e2)
            assert loaded.report_flow_diff_dual(e, e2) == \
                sens.report_flow_diff_dual(e, e2), (e, e2)
            assert loaded.mincut_size_dual(e, e2) == \
                sens.mincut_size_dual(e, e2), (e, e2)
        assert calls["cycle_through_arc_without"] > 0
        assert calls["strongly_connected_without"] > 0
        assert vars(loaded)["_residual"]
        assert any(len(tree.queue) > 1
                   for tree in vars(loaded)["_residual"].values())
        # the filled rows stay out of a file saved after the queries
        again = tmp_path / "again.bin"
        cli.save_oracle(str(again), 0, digest, loaded, None)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("make, sha256", [
        (lambda: gen_random(60, 1),
         "9ca017ddeff34eb63ee2a2a284d39051c0e7198a237888dd25099f2ed020902a"),
        (lambda: gen_matrix(6, 8, seed=1),
         "19af993f94b43993c79b2f430d7665bcbb1e6e517725779ca7db61411fce6cbc"),
        # calibration deletes edges here, so the subgraph is re-classified
        (lambda: gen_random(120, 1),
         "63a3568573ece7dd717247df9e75a971feaa706f58f99971518873120e51e8d9"),
        # the hard instance past lam = 16
        (lambda: gen_matrix(8, 2, seed=1),
         "34f06168aca275196cb17aedffbd760246638e1dfb6de4af30f946ffd245a25a"),
    ])
    def test_oracle_bytes_pinned(self, make, sha256, tmp_path):
        # the file a build writes, as the benchmark saves it: a change to
        # the build that alters any stored byte must show up here
        text = serialize_network(make())
        path = tmp_path / "oracle.bin"
        cli.save_oracle(str(path), 0, hashlib.sha256(text.encode()).digest(),
                        SensitivityOracle(parse_network(text)), None)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("make, k, sha256", [
        (lambda: gen_random(16, 1), 3,
         "fa0a0bc15c1fb9fc0f1f0c01d2d2e15538b1502ac3436c21dd0670055b57df4b"),
        (lambda: gen_matrix(2, 4, seed=1), 3,
         "f09d8fc55b9da31ced50d3c9d282d569fefc1f4534345e576cd38ab605c43b90"),
        (lambda: gen_twopaths(40), 2,
         "822f4afd6750d09d4074bd6d0716e7d013e96a779fb508231009b2abc8a4627b"),
    ])
    def test_kfault_bytes_pinned(self, make, k, sha256, tmp_path):
        # the k-fault file, as the benchmark saves it: the cut list, its
        # order and the byte order of each stored set must not change
        text = serialize_network(make())
        path = tmp_path / "oracle.bin"
        cli.save_oracle(str(path), k, hashlib.sha256(text.encode()).digest(),
                        None, kfault.build_kfault_oracle(parse_network(text), k))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_corrupt_file_exits_2(self, bottleneck_file, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage-not-an-oracle")
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, _, err = run(capsys, "query", "-g", str(bottleneck_file),
                           "--oracle", str(bad), "-q", str(qf))
        assert code == 2
        assert "not a flowsentry oracle" in err


class TestInternalError:
    def test_invariant_violation_exits_3(self, bottleneck_file, tmp_path,
                                         capsys, monkeypatch):
        def broken(net):
            raise InternalInvariantError("strip graph contains a cycle")

        monkeypatch.setattr(cli, "SensitivityOracle", broken)
        code, out, err = run(capsys, "build", "-g", str(bottleneck_file),
                             "-o", str(tmp_path / "oracle.bin"))
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines() == [
            "error: internal invariant violated: strip graph contains a cycle"]

    def test_infeasible_build_flow_exits_3(self, bottleneck_file, tmp_path,
                                           capsys, monkeypatch):
        # the build checks flows it made itself, so a failed check is a
        # bug (exit 3), not the usage error its ValueError would map to
        real = family.max_flow

        def infeasible(net, capacities=None):
            f = real(net, capacities)
            f.values[min(net.edges)] += 1
            return f

        monkeypatch.setattr(family, "max_flow", infeasible)
        pruned, _ = prune_to_st_paths(parse_network(bottleneck_file.read_text()))
        with pytest.raises(InternalInvariantError, match="outside"):
            build_flow_family(pruned)
        code, out, err = run(capsys, "build", "-g", str(bottleneck_file),
                             "-o", str(tmp_path / "oracle.bin"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal invariant violated: flow 2 on")

    def test_infeasible_mincut_flow_exits_3(self, bottleneck_file, tmp_path,
                                            capsys, monkeypatch):
        # the min-cut structure checks the family's reference flow through
        # the residual graph it shares between classes and strip graph; a
        # flow that fails the check is a bug too
        real = oracles.build_flow_family

        def corrupted(net):
            bf = real(net)
            bf.family.f_tilde.values[min(net.edges)] += 1
            return bf

        monkeypatch.setattr(oracles, "build_flow_family", corrupted)
        net = parse_network(bottleneck_file.read_text())
        bf = corrupted(prune_to_st_paths(net)[0])
        with pytest.raises(InternalInvariantError, match="outside"):
            mincut.build_mincut_oracle(bf)
        code, out, err = run(capsys, "build", "-g", str(bottleneck_file),
                             "-o", str(tmp_path / "oracle.bin"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal invariant violated: flow 2 on")

    def test_unrerouted_deletion_exits_3(self, tmp_path, capsys, monkeypatch):
        # s=0, x=1, t=2: calibration deletes x -> t edge 2 (nu 4 > lam+1),
        # which carries flow. Deleting every other live out-edge of x with
        # it leaves x nothing to reroute that unit over
        net = make_net(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (1, 2)])
        real = flows.UnitResidual.delete

        def delete(res, eid):
            tail = res.edges[eid][0]
            for e, (u, _) in res.edges.items():
                if u == tail and res.flow[e] in (0, 1):
                    real(res, e)

        monkeypatch.setattr(flows.UnitResidual, "delete", delete)
        with pytest.raises(InternalInvariantError,
                           match="no flow reroutes around deleted edge 2"):
            build_flow_family(net)
        graph = tmp_path / "graph.txt"
        graph.write_text(serialize_network(net))
        code, out, err = run(capsys, "build", "-g", str(graph),
                             "-o", str(tmp_path / "oracle.bin"))
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: internal invariant violated: "
            "no flow reroutes around deleted edge 2"]

    def test_infeasible_peel_round_exits_3(self, bottleneck_file, tmp_path,
                                           capsys, monkeypatch):
        # f_H with nothing leaving s: the first round cannot ship lam
        real = family.build_auxiliary

        def starved(sub):
            f_h = real(sub)
            for eid in sub.network.graph.out_edges(sub.network.s):
                f_h.values[eid] = 0
            return f_h

        monkeypatch.setattr(family, "build_auxiliary", starved)
        pruned, _ = prune_to_st_paths(parse_network(bottleneck_file.read_text()))
        with pytest.raises(InternalInvariantError, match="round 3: infeasible"):
            build_flow_family(pruned)
        code, out, err = run(capsys, "build", "-g", str(bottleneck_file),
                             "-o", str(tmp_path / "oracle.bin"))
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: internal invariant violated: peel round 3: infeasible"]

    def test_unbalanced_peel_round_exits_3(self, bottleneck_file, tmp_path,
                                           capsys, monkeypatch):
        # the peel's first augmentation also sets one idle edge, x -> t
        # here: the round's flow leaves x one more unit than enters it
        peel, augment, stray = family.peel_family_A, family.augment_unit, []

        def leaky(arcs, state, sources, sinks):
            path = augment(arcs, state, sources, sinks)
            if not stray:
                stray.append(min(e for e, x in state.items() if x == 0))
                state[stray[0]] = 1
            return path

        def leaky_peel(sub, f_h):
            stray.clear()
            monkeypatch.setattr(family, "augment_unit", leaky)
            try:
                return peel(sub, f_h)
            finally:
                monkeypatch.setattr(family, "augment_unit", augment)

        monkeypatch.setattr(family, "peel_family_A", leaky_peel)
        pruned, _ = prune_to_st_paths(parse_network(bottleneck_file.read_text()))
        with pytest.raises(InternalInvariantError,
                           match="round 3: vertex 1 off balance by -1"):
            build_flow_family(pruned)
        code, out, err = run(capsys, "build", "-g", str(bottleneck_file),
                             "-o", str(tmp_path / "oracle.bin"))
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: internal invariant violated: "
                                    "peel round 3: vertex 1 off balance by -1"]

    def test_overlapping_rerouting_legs_exit_3(self, tmp_path, capsys,
                                               monkeypatch):
        # a strip-order value one too low sends MF2 to the released-unit
        # cycle although a plain cycle exists; here the two legs meet,
        # and the repeated-vertex check reports it
        net = make_net(4, [(0, 1), (1, 3), (2, 2), (3, 3), (0, 0), (1, 2),
                           (0, 3), (2, 1), (0, 2), (0, 2), (1, 3)], t=3)
        real = SensitivityOracle._critical_value
        monkeypatch.setattr(SensitivityOracle, "_critical_value",
                            lambda self, e, e2: real(self, e, e2) - 1)
        with pytest.raises(InternalInvariantError, match="repeats a vertex"):
            SensitivityOracle(net).report_flow_diff_dual(0, 9)
        g, qf = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text(serialize_network(net))
        qf.write_text("MF2 1 10\n")
        code, out, err = run(capsys, "query", "-g", str(g), "-q", str(qf))
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: internal invariant violated: "
                                    "rerouting cycle repeats a vertex"]


class TestVerifyCommand:
    def test_clean_run_exits_0(self, bottleneck_file, capsys):
        code, out, _ = run(capsys, "verify", "-g", str(bottleneck_file),
                           "--profile", "exhaustive-2")
        assert code == 0
        assert "0 mismatches" in out
        assert "result: ok" in out

    def test_invariants_profile(self, bottleneck_file, capsys):
        code, out, _ = run(capsys, "verify", "-g", str(bottleneck_file),
                           "--profile", "invariants")
        assert code == 0
        assert "[pass] |A| = lam+1" in out

    def test_bad_profile_exits_2(self, bottleneck_file, capsys):
        code, _, err = run(capsys, "verify", "-g", str(bottleneck_file),
                           "--profile", "exhaustive-9")
        assert code == 2
        assert "unknown profile" in err

    def test_mismatch_exits_1(self, bottleneck_file, capsys, monkeypatch):
        from flowsentry.verify import VerificationReport
        import flowsentry.cli as cli_mod

        def fake(net, profile, graph_label="g"):
            rep = VerificationReport(profile=profile, graph_label=graph_label)
            rep.mismatch("MC2 1 2", 2, 1)
            return rep

        monkeypatch.setattr(cli_mod, "run_verify", fake)
        code, out, _ = run(capsys, "verify", "-g", str(bottleneck_file),
                           "--profile", "exhaustive-2")
        assert code == 1
        assert "result: MISMATCH" in out


    def test_exhaustive_k_replay_carries_k(self, bottleneck_file, capsys,
                                           monkeypatch):
        # a lying 3-failure answer prints a replay line that must run with
        # k=3: query's default k=2 would refuse it at the failure count
        import flowsentry.verify as verify_mod

        real = verify_mod.mincut_size_k

        def lying(oracle, combo):
            return real(oracle, combo) + (tuple(combo) == (2, 3, 4))

        monkeypatch.setattr(verify_mod, "mincut_size_k", lying)
        code, out, _ = run(capsys, "verify", "-g", str(bottleneck_file),
                           "--profile", "exhaustive-k(3,12)")
        monkeypatch.undo()
        assert code == 1
        (line,) = [x for x in out.splitlines() if "replay:" in x]
        echo, query, pipe, prog, *argv = shlex.split(line.split("replay:")[1])
        assert (echo, query, pipe, prog) == ("echo", "MCK 3 3 4 5", "|",
                                             "flowsentry")
        assert argv == ["query", "-g", str(bottleneck_file), "-k", "3",
                        "-q", "-"]
        want, _ = brute_force(parse_network(bottleneck_file.read_text()),
                              [2, 3, 4])
        monkeypatch.setattr(sys, "stdin", io.StringIO(query + "\n"))
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == f"MCK 3 3 4 5 => {want}\n"

    def test_stdin_graph_replay_names_a_placeholder(self, bottleneck_file,
                                                    capsys, monkeypatch):
        # with the graph on stdin, `query -g - -q -` could not run: the
        # replay line names GRAPH, and a note says where the graph came from
        import flowsentry.verify as verify_mod

        real = verify_mod.mincut_size_k

        def lying(oracle, combo):
            return real(oracle, combo) + (tuple(combo) == (2, 3, 4))

        monkeypatch.setattr(verify_mod, "mincut_size_k", lying)
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(bottleneck_file.read_text()))
        code, out, _ = run(capsys, "verify", "-g", "-",
                           "--profile", "exhaustive-k(3,12)")
        monkeypatch.undo()
        assert code == 1
        assert "the graph was read from stdin" in out
        assert "-g -" not in out
        (line,) = [x for x in out.splitlines() if "replay:" in x]
        echo, query, pipe, prog, *argv = shlex.split(line.split("replay:")[1])
        assert argv == ["query", "-g", "GRAPH", "-k", "3", "-q", "-"]
        argv[2] = str(bottleneck_file)
        want, _ = brute_force(parse_network(bottleneck_file.read_text()),
                              [2, 3, 4])
        monkeypatch.setattr(sys, "stdin", io.StringIO(query + "\n"))
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == f"MCK 3 3 4 5 => {want}\n"


class TestEntryPoint:
    @pytest.mark.parametrize("argv, stdin", [
        (["verify", "--profile", "exhaustive-2"], None),
        (["query", "-q", "-"], b"MF2 1 2\nMC2 1 2\n"),
    ])
    def test_closed_stdout_exits_141_quietly(self, bottleneck_file, argv,
                                             stdin):
        # a reader that stops early, as `| head` does, is not a usage
        # error: no `error:` line, and the exit code of a SIGPIPE stop
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "flowsentry.cli", argv[0], "-g",
                 str(bottleneck_file), *argv[1:]],
                input=stdin, stdout=w, stderr=subprocess.PIPE)
        finally:
            os.close(w)
        assert proc.stderr == b""
        assert proc.returncode == 141

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentry.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "verify" in proc.stdout

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentry.cli"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_optimized_build_query_verify(self, tmp_path):
        # invariant checks are raises, not asserts: python -O keeps them
        def cli_O(*argv, stdin=None):
            return subprocess.run(
                [sys.executable, "-O", "-m", "flowsentry.cli", *argv],
                input=stdin, capture_output=True, text=True,
            )

        graph, ob = tmp_path / "g.txt", tmp_path / "oracle.bin"
        proc = cli_O("gen", "--family", "random", "--size", "10",
                     "--seed", "1", "-o", str(graph))
        assert proc.returncode == 0, proc.stderr
        proc = cli_O("build", "-g", str(graph), "-o", str(ob))
        assert proc.returncode == 0, proc.stderr
        proc = cli_O("query", "-g", str(graph), "--oracle", str(ob),
                     "-q", "-", stdin="MF2 1 2\nMC2 1 2\nMCK 1 1\n")
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 3
        proc = cli_O("verify", "-g", str(graph), "--profile", "exhaustive-2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "result: ok"
