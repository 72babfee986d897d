"""CLI surface: gen/build/query/verify, exit codes, oracle files."""

import dataclasses
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
from kfault_reference import cut_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class _Call:
    """Pickles as a call of fn(arg), as a tampered oracle file might."""

    def __init__(self, fn, arg):
        self.fn, self.arg = fn, arg

    def __reduce__(self):
        return self.fn, (self.arg,)


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
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_query_k_below_1_exits_2(self, bottleneck_file, tmp_path, capsys,
                                     k):
        # refused before any line is answered, the MF line included
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\nMCK 1 1\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "-k", k, "-q", str(qf))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: -k must be at least 1, got {k}"]

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

    @pytest.mark.parametrize("line, message", [
        ("MF2 1 1", "dual-failure query needs two distinct edges"),
        ("MCK 2 1 1", "failure set has repeated edges"),
    ])
    def test_oracle_errors_name_the_line(self, bottleneck_file, tmp_path,
                                         capsys, line, message):
        # raised inside the oracle, not by the query parser
        qf = tmp_path / "q.txt"
        qf.write_text(f"MF 1\n\n{line}\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "-q", str(qf))
        assert (code, out) == (2, "MF 1 => 1\n")
        assert err == f"error: query line 3: {message}\n"

    @pytest.mark.parametrize("kind", ["MCK", "MCKP", "RQ"])
    def test_negative_failure_count_exits_2(self, bottleneck_file, tmp_path,
                                            capsys, kind):
        qf = tmp_path / "q.txt"
        qf.write_text(f"{kind} -1\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "-q", str(qf))
        assert (code, out) == (2, "")
        assert err == "error: line 1: negative failure count -1\n"

    @pytest.mark.parametrize("line, message", [
        # int() alone would read these as 10, 2 and 0
        ("MF 1_0", "'1_0' is not an integer"),
        ("MF2 1 \uff12", "'\uff12' is not an integer"),
        ("MCK \uff10", "bad failure count '\uff10'"),
        ("RQ 1 1_0", "'1_0' is not an integer"),
    ])
    def test_integers_take_ascii_digits_only(self, bottleneck_file, tmp_path,
                                             capsys, line, message):
        qf = tmp_path / "q.txt"
        qf.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "-q", str(qf))
        assert (code, out) == (2, "")
        assert err == f"error: line 1: {message}\n"

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
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_build_k_below_1_exits_2(self, tmp_path, capsys, k):
        # refused before the graph is read, which does not exist here, and
        # before any oracle is built or written
        ob = tmp_path / "oracle.bin"
        code, out, err = run(capsys, "build", "-g", str(tmp_path / "none.txt"),
                             "-k", k, "-o", str(ob))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: -k must be at least 1, got {k}"]
        assert not ob.exists()

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
        # version 10 stored three per-edge strip dicts where version 11
        # stores one record per critical edge
        ob = tmp_path / "oracle.bin"
        run(capsys, "build", "-g", str(bottleneck_file), "-o", str(ob))
        blob = bytearray(ob.read_bytes())
        qf = tmp_path / "q.txt"
        qf.write_text("MF2 1 3\n")
        for old in (9, 10):
            blob[8:10] = old.to_bytes(2, "little")
            ob.write_bytes(bytes(blob))
            code, _, err = run(capsys, "query", "-g", str(bottleneck_file),
                               "--oracle", str(ob), "-q", str(qf))
            assert code == 2
            assert (f"format version {old}, this build reads version "
                    f"{cli.ORACLE_VERSION}") in err

    def test_default_build_pickles_one_network(self, tmp_path, capsys):
        # walk-pruning drops no edge of gen_random(60, 1), so both oracles
        # hold the input network and the file pickles it once: 9,370 bytes,
        # where a second copy of the graph would add 7,223
        graph, ob = tmp_path / "g.txt", tmp_path / "oracle.bin"
        graph.write_text(serialize_network(gen_random(60, 1)))
        net = parse_network(graph.read_text())
        sens, kf = SensitivityOracle(net), kfault.build_kfault_oracle(net, 2)
        assert sens.pruned_net is kf.net is net
        code, _, _ = run(capsys, "build", "-g", str(graph), "-o", str(ob))
        assert code == 0
        assert ob.stat().st_size <= 9_400
        digest = hashlib.sha256(graph.read_bytes()).digest()
        _, sens, kf = load_oracle(str(ob), digest)
        assert sens.pruned_net is kf.net
        assert sens.pruned_net == net

    def test_pruned_build_keeps_two_networks(self, tmp_path, capsys):
        # walk-pruning drops edges of gen_random(16, 1): the sensitivity
        # oracle keeps the pruned network, the k-fault oracle the raw one,
        # and the loaded file answers as brute force does
        net = gen_random(16, 1)
        pruned = prune_to_st_paths(net)
        assert 0 < pruned.m < net.m
        graph, ob = tmp_path / "g.txt", tmp_path / "oracle.bin"
        graph.write_text(serialize_network(net))
        code, _, _ = run(capsys, "build", "-g", str(graph), "-o", str(ob))
        assert code == 0
        _, sens, kf = load_oracle(str(ob),
                                  hashlib.sha256(graph.read_bytes()).digest())
        assert sens.pruned_net is not kf.net
        assert (sens.pruned_net, kf.net) == (pruned, net)
        for e in net.edges:
            want = brute_force(net, [e])[0]
            assert sens.report_flow_diff_single(e).new_value == want, e
            assert kfault.mincut_size_k(kf, [e]) == want, e
        for e, e2 in itertools.combinations(net.edges, 2):
            want = brute_force(net, [e, e2])[0]
            assert sens.report_flow_diff_dual(e, e2).new_value == want, (e, e2)
            assert sens.mincut_size_dual(e2, e) == want, (e, e2)
            assert kfault.mincut_size_k(kf, [e, e2]) == want, (e, e2)

    @pytest.mark.parametrize("call", ["system", "eval"])
    def test_payload_naming_another_global_exits_2(self, bottleneck_file,
                                                   tmp_path, call):
        # a re-signed payload that would run a command on unpickling is
        # refused: the loader resolves only the oracle classes, so nothing
        # runs, also under python -O
        marker = tmp_path / "marker"
        fn, arg = (os.system, f"touch {shlex.quote(str(marker))}") \
            if call == "system" else \
            (eval, f"open({str(marker)!r}, 'w').close()")
        payload = pickle.dumps({"sensitivity": _Call(fn, arg),
                                "kfault": None})
        ob = tmp_path / "oracle.bin"
        ob.write_bytes(cli.ORACLE_MAGIC
                       + struct.pack("<HH", cli.ORACLE_VERSION, 2)
                       + hashlib.sha256(bottleneck_file.read_bytes()).digest()
                       + hashlib.sha256(payload).digest() + payload)
        argv = ["-m", "flowsentry.cli", "query", "-g", str(bottleneck_file),
                "--oracle", str(ob), "-q", "-"]
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, *argv],
                                  input="MF 1\n", capture_output=True,
                                  text=True)
            assert (proc.returncode, proc.stdout) == (2, ""), flags
            assert proc.stderr == \
                f"error: {ob} is a corrupt oracle file; rebuild it\n"
            assert not marker.exists(), flags
        # the payload is live: a plain unpickling runs it
        pickle.loads(payload)
        assert marker.exists()

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
        for line in ("MCK 1 1", "MCKP 2 1 2"):
            qf.write_text(line + "\n")
            code, out, err = run(capsys, "query", "-g", str(graph),
                                 "--oracle", str(ob), "-q", str(qf))
            assert code == 2 and out == ""
            assert err.startswith(
                "error: query line 1: the oracle file holds no k-fault")
            assert "budget of 10 search nodes" in err
        # lam is 8, so fewer failures than that leave a path: RQ needs no
        # cut list, but still rejects a repeated edge
        qf.write_text("RQ 0\nRQ 2 1 2\n")
        code, out, _ = run(capsys, "query", "-g", str(graph),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 0
        assert out.splitlines() == ["RQ 0 => 1", "RQ 2 1 2 => 1"]
        qf.write_text("RQ 2 1 1\n")
        code, out, err = run(capsys, "query", "-g", str(graph),
                             "--oracle", str(ob), "-q", str(qf))
        assert (code, out) == (2, "")
        assert err == "error: query line 1: failure set has repeated edges\n"

    def test_rq_below_lam_without_kfault(self, tmp_path, capsys):
        # the hard instance outgrows the cut-list budget at k=2, lam 12
        graph = tmp_path / "m.txt"
        run(capsys, "gen", "--family", "matrix", "--size", "6", "--size", "8",
            "--seed", "1", "-o", str(graph))
        ob = tmp_path / "oracle.bin"
        code, _, err = run(capsys, "build", "-g", str(graph), "-k", "2",
                           "-o", str(ob))
        assert code == 0 and "k-fault oracle skipped" in err
        qf = tmp_path / "q.txt"
        qf.write_text("MC2 1 2\nRQ 2 1 2\n")
        code, out, _ = run(capsys, "query", "-g", str(graph),
                           "--oracle", str(ob), "-q", str(qf))
        assert code == 0
        assert out.splitlines() == ["MC2 1 2 => 11", "RQ 2 1 2 => 1"]

    def test_rq_below_lam_without_oracle_file(self, tmp_path, capsys,
                                              monkeypatch):
        # without a file, RQ below lam builds the sensitivity oracle and
        # never the cut list, which outgrows its budget on this graph
        graph = tmp_path / "m.txt"
        run(capsys, "gen", "--family", "matrix", "--size", "6", "--size", "8",
            "--seed", "1", "-o", str(graph))

        def no_enumeration(*args):
            raise AssertionError("minimal-cut enumeration ran")

        monkeypatch.setattr(kfault, "enumerate_minimal_cuts", no_enumeration)
        qf = tmp_path / "q.txt"
        qf.write_text("RQ 2 1 2\n")
        code, out, err = run(capsys, "query", "-g", str(graph), "-q", str(qf))
        assert (code, out, err) == (0, "RQ 2 1 2 => 1\n", "")

    def test_rq_at_lam_without_kfault_exits_2(self, bottleneck_file, tmp_path,
                                              capsys, monkeypatch):
        # lam is 2 on the bottleneck: one failure leaves a path, two may not
        monkeypatch.setattr(kfault, "ENUMERATION_PROBE_BUDGET", 1)
        ob = tmp_path / "oracle.bin"
        code, _, err = run(capsys, "build", "-g", str(bottleneck_file),
                           "-o", str(ob))
        assert code == 0 and "k-fault oracle skipped" in err
        qf = tmp_path / "q.txt"
        qf.write_text("RQ 1 1\nRQ 2 1 2\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "--oracle", str(ob), "-q", str(qf))
        assert (code, out) == (2, "RQ 1 1 => 1\n")
        assert err.startswith(
            "error: query line 2: the oracle file holds no k-fault oracle")

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

    @pytest.mark.parametrize("field, value", [
        ("k", "2"), ("lam", 1.0), ("net", None), ("entries", None),
    ])
    def test_kfault_field_of_wrong_type_exits_2(self, tmp_path, capsys,
                                                field, value):
        # a re-signed file whose k-fault oracle holds a field of another
        # type is corrupt: it is refused on load, before any query reads it
        graph, ob = tmp_path / "g.txt", tmp_path / "oracle.bin"
        run(capsys, "gen", "--family", "random", "--size", "10",
            "--seed", "1", "-o", str(graph))
        run(capsys, "build", "-g", str(graph), "-o", str(ob))
        digest = hashlib.sha256(graph.read_bytes()).digest()
        k, sens, kf = load_oracle(str(ob), digest)
        if field == "entries":
            value = list(kf.entries)
        cli.save_oracle(str(ob), k, digest, sens,
                        dataclasses.replace(kf, **{field: value}))
        qf = tmp_path / "q.txt"
        for line in ("MCK 1 1", "RQ 1 1", "MCKP 0"):
            qf.write_text(line + "\n")
            code, out, err = run(capsys, "query", "-g", str(graph),
                                 "--oracle", str(ob), "-q", str(qf))
            assert (code, out) == (2, ""), line
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
        hot = sorted(set().union(*(z for z, _ in cut_list(kf))))
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
        # gen_random(10, 1) runs the plain-cycle search and the
        # released-unit walk; the loaded oracle starts with no residual
        # rows, and rebuilds its graph's incidence list, the rows and the
        # carried sets on the first traversals. The single-failure queries
        # read flip alone
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
        for name in ("cycle_through_arc_without", "released_unit"):
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
        assert calls["released_unit"] > 0
        assert vars(loaded)["_residual"]
        # the filled rows stay out of a file saved after the queries
        again = tmp_path / "again.bin"
        cli.save_oracle(str(again), 0, digest, loaded, None)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("make, sha256", [
        (lambda: gen_random(60, 1),
         "0a90775d8c9dd0073e8c413c439d04ca8a92a9853360e27484bc6f3591875dd4"),
        (lambda: gen_matrix(6, 8, seed=1),
         "46676263407caa1468aff040854df9e4e86b4fba032abb7311cdc3f8a6b4a1b2"),
        # calibration deletes edges here, so the subgraph is re-classified
        (lambda: gen_random(120, 1),
         "e90fa8d815ad2b5dc3d6f8243922e0fea46fc1c80a53013411c31c4d2388e940"),
        # the hard instance past lam = 16
        (lambda: gen_matrix(8, 2, seed=1),
         "ffdcf74577591f653889b2614522ee614a2b23ed235d23bbeb42a141e77757ba"),
    ], ids=["random60", "matrix6x8", "random120", "matrix8x2"])
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
         "a4d81f01fad1d7d5746d61d7f37bce939a5d78a20af4c44239843982efd851e6"),
        (lambda: gen_matrix(2, 4, seed=1), 3,
         "db620ac3ff9c0b3397fa7fc3ebc3f5365a0e5c2d366e6521dc65312986c07685"),
        (lambda: gen_twopaths(40), 2,
         "cde36c21eaa4800c900534c475b76a6a4b45c3fc5bc3ef9500f613ca1f5d6e88"),
    ], ids=["random16-k3", "matrix2x4-k3", "twopaths40-k2"])
    def test_kfault_bytes_pinned(self, make, k, sha256, tmp_path):
        # the k-fault file, as the benchmark saves it: the cut list and its
        # order must not change
        text = serialize_network(make())
        path = tmp_path / "oracle.bin"
        cli.save_oracle(str(path), k, hashlib.sha256(text.encode()).digest(),
                        None, kfault.build_kfault_oracle(parse_network(text), k))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_kfault_file_unchanged_by_queries(self, tmp_path):
        # a loaded oracle saves to the bytes of the file it came from, and
        # the cut-list certificate the first query caches stays out of the
        # file, whether the oracle was built or loaded
        digest = hashlib.sha256(b"graph").digest()
        path = tmp_path / "oracle.bin"
        for net, k in ((gen_random(16, 1), 3), (gen_matrix(2, 4, seed=1), 2)):
            built = kfault.build_kfault_oracle(net, k)
            cli.save_oracle(str(path), k, digest, None, built)
            original = path.read_bytes()
            _, _, loaded = load_oracle(str(path), digest)
            hot = sorted(set().union(*(z for z, _ in cut_list(built))))
            for o in (built, loaded):
                cli.save_oracle(str(path), k, digest, None, o)
                assert path.read_bytes() == original
                assert "_certificate" not in vars(o)
                for f in ([], hot[:1], hot[:2], hot[-2:]):
                    kfault.mincut_size_k(o, f)
                    kfault.mincut_partition_k(o, f)
                assert "_certificate" in vars(o)
                cli.save_oracle(str(path), k, digest, None, o)
                assert path.read_bytes() == original

    @pytest.mark.parametrize("tail", ["short", "not-a-pickle"])
    def test_corrupt_signed_file_exits_2(self, bottleneck_file, tmp_path,
                                         capsys, tail):
        # the magic and fewer than the 76 header bytes; or a whole header,
        # graph and payload digests correct, over a payload that is not a
        # pickle
        head = cli.ORACLE_MAGIC + struct.pack("<HH", cli.ORACLE_VERSION, 2)
        graph = hashlib.sha256(bottleneck_file.read_bytes()).digest()
        payload = b"not a pickle"
        blob = head + bytes(40) if tail == "short" else \
            head + graph + hashlib.sha256(payload).digest() + payload
        ob = tmp_path / "oracle.bin"
        ob.write_bytes(blob)
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "--oracle", str(ob), "-q", str(qf))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: {ob} is a corrupt oracle file; rebuild it"]

    def test_payload_digest_mismatch_exits_2(self, bottleneck_file, tmp_path,
                                             capsys):
        # a built file whose payload is sound but whose payload digest
        # (header bytes 44-75) is not the payload's
        ob = tmp_path / "oracle.bin"
        run(capsys, "build", "-g", str(bottleneck_file), "-o", str(ob))
        blob = bytearray(ob.read_bytes())
        blob[44] ^= 0x01
        ob.write_bytes(bytes(blob))
        qf = tmp_path / "q.txt"
        qf.write_text("MF 1\n")
        code, out, err = run(capsys, "query", "-g", str(bottleneck_file),
                             "--oracle", str(ob), "-q", str(qf))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: {ob} is a corrupt oracle file; rebuild it"]

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
        # bug (exit 3), not the usage error its ValueError would map to;
        # calibrate's snapshot of its max-flow is the first IntFlow built
        real = family.IntFlow

        def infeasible(net, values):
            f = real(net, values)
            f.values[min(net.edges)] += 1
            return f

        monkeypatch.setattr(family, "IntFlow", infeasible)
        pruned = prune_to_st_paths(parse_network(bottleneck_file.read_text()))
        with pytest.raises(InternalInvariantError, match="outside"):
            build_flow_family(pruned)
        code, out, err = run(capsys, "build", "-g", str(bottleneck_file),
                             "-o", str(tmp_path / "oracle.bin"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal invariant violated: flow 2 on")

    def test_criticality_disagreement_exits_3(self, bottleneck_file, tmp_path,
                                              capsys, monkeypatch):
        # a probe that reports nu = lam on x -> t edge 2, which shares its
        # residual SCC with t, makes calibrate's two criticality tests
        # disagree. Invariant checks are raises, not asserts: python -O
        # keeps this one too
        real = family._capped_nu
        monkeypatch.setattr(
            family, "_capped_nu",
            lambda res, net, eid, lam: lam if eid == 2 else real(res, net, eid, lam))
        pruned = prune_to_st_paths(parse_network(bottleneck_file.read_text()))
        with pytest.raises(InternalInvariantError,
                           match="criticality tests disagree on edge 2: nu=2 lam=2"):
            build_flow_family(pruned)
        oracle = tmp_path / "oracle.bin"
        argv = ["build", "-g", str(bottleneck_file), "-o", str(oracle)]
        want = ["error: internal invariant violated: "
                "criticality tests disagree on edge 2: nu=2 lam=2"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err.splitlines()) == (3, "", want)
        script = ("import sys\nfrom flowsentry import cli, family\n"
                  "real = family._capped_nu\n"
                  "family._capped_nu = lambda res, net, eid, lam: "
                  "lam if eid == 2 else real(res, net, eid, lam)\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.splitlines() == want
        assert not oracle.exists()

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
        bf = corrupted(prune_to_st_paths(net))
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
            for eid, _, rev in sub.network.incidence()[sub.network.s]:
                if not rev:
                    f_h.values[eid] = 0
            return f_h

        monkeypatch.setattr(family, "build_auxiliary", starved)
        pruned = prune_to_st_paths(parse_network(bottleneck_file.read_text()))
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
        pruned = prune_to_st_paths(parse_network(bottleneck_file.read_text()))
        with pytest.raises(InternalInvariantError,
                           match="round 3: vertex 1 off balance by -1"):
            build_flow_family(pruned)
        code, out, err = run(capsys, "build", "-g", str(bottleneck_file),
                             "-o", str(tmp_path / "oracle.bin"))
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: internal invariant violated: "
                                    "peel round 3: vertex 1 off balance by -1"]

    @pytest.mark.parametrize("extra, carried, message", [
        ([], {2}, "finds no carried edge"),
        ([(2, 1), (1, 2)], {2, 4, 5}, "re-enters a vertex"),
    ], ids=["breaks-off", "loops"])
    def test_broken_released_unit_walk_exits_3(self, tmp_path, capsys,
                                               extra, carried, message):
        # both out-edges of s and both into t are critical, so failing
        # edges 0 and 2 drops the value by the strip order and MF2 walks
        # e = 0's canonical flow from edge 2. Tampered to carry only
        # `carried`, that flow ends at b, or turns back into the walk
        net = make_net(4, [(0, 1), (1, 3), (0, 2), (2, 3), *extra], t=3)
        sens = SensitivityOracle(net)
        sens.flip[0] = frozenset(sens.flip.keys() ^ carried)
        with pytest.raises(InternalInvariantError, match=message):
            sens.report_flow_diff_dual(0, 2)
        g, ob = tmp_path / "g.txt", tmp_path / "oracle.bin"
        g.write_text(serialize_network(net))
        cli.save_oracle(str(ob), 2, hashlib.sha256(g.read_bytes()).digest(),
                        sens, None)
        argv = ["query", "-g", str(g), "--oracle", str(ob), "-q", "-"]
        want = ["error: internal invariant violated: released unit: the "
                f"flow walk {message}"]
        proc = subprocess.run([sys.executable, "-m", "flowsentry.cli", *argv],
                              input="MF2 1 3\n", capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.splitlines() == want
        # invariant checks are raises, not asserts: python -O keeps them
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "flowsentry.cli", *argv],
            input="MF2 1 3\n", capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.splitlines() == want


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
    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "random", "--size", "\uff16", "-o", "out.txt"],
        ["gen", "--family", "random", "--size", "6", "--seed", "1_0", "-o",
         "out.txt"],
        ["build", "-g", "graph.txt", "-k", "1_0", "-o", "out.txt"],
        ["query", "-g", "graph.txt", "-k", "\uff12", "-q", "-"],
    ], ids=["gen-size", "gen-seed", "build-k", "query-k"])
    def test_option_integers_take_ascii_digits_only(self, tmp_path, capsys,
                                                    monkeypatch, argv):
        # a usage error, as in graph and query files: int() alone would
        # read 1_0 as 10 and full-width digits as ASCII ones
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        option, value = argv[-4:-2]
        assert f"argument {option}: invalid ascii_int value: {value!r}" in \
            capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

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
        # both MF2 lines drop the value and release a unit of e's flow
        proc = cli_O("query", "-g", str(graph), "--oracle", str(ob), "-q", "-",
                     stdin="MF2 1 2\nMF2 9 2\nMC2 1 2\nMCK 1 1\nMCKP 2 1 2\n"
                           "RQ 2 1 2\n")
        assert proc.returncode == 0, proc.stderr
        answers = proc.stdout.splitlines()
        assert len(answers) == 6
        assert answers[1].startswith("MF2 9 2 => 1 [")
        # a re-signed file whose cut list is out of order: the k-fault
        # oracle checks its cut list on first use
        digest = hashlib.sha256(graph.read_bytes()).digest()
        _, sens, kf = load_oracle(str(ob), digest)
        assert len(kf.entries) > 1
        bad = tmp_path / "tampered.bin"
        cli.save_oracle(str(bad), kf.k, digest, sens,
                        dataclasses.replace(kf, entries=kf.entries[::-1]))
        proc = cli_O("query", "-g", str(graph), "--oracle", str(bad),
                     "-q", "-", stdin="MF2 1 2\nMCKP 0\n")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout.splitlines() == answers[:1]
        assert proc.stderr.startswith("error: internal invariant violated: ")
        proc = cli_O("verify", "-g", str(graph), "--profile", "exhaustive-2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "result: ok"
