"""Command line surface: gen, build, query, verify.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 internal invariant violated (a bug), 141 stdout closed early.
"""

import argparse
import gc
import hashlib
import os
import pickle
import struct
import sys

from . import kfault
from .errors import InternalInvariantError, ParseError, QueryError
from .generators import FAMILIES, generate
from .graph import FlowNetwork, ascii_int, parse_network, serialize_network
from .kfault import (
    EnumerationBudgetExceeded,
    KFaultOracle,
    build_kfault_oracle,
    mincut_partition_k,
    mincut_size_k,
    reachable_under_failures,
)
from .oracles import SensitivityOracle
from .verify import run_verify

# Oracle file layout, version 10 (stability across versions not promised):
#   8 bytes   magic b"FLOWSNTY"
#   u16 LE    format version
#   u16 LE    k the failure oracle was built for
#   32 bytes  sha256 of the graph file bytes the oracle was built from
#   32 bytes  sha256 of the payload
#   rest      payload: pickle of {"sensitivity": ..., "kfault": ...}; each
#             oracle holds one FlowNetwork (n, edges, s, t): the
#             sensitivity oracle the walk-pruned one with the input's
#             edge count, the k-fault oracle the raw one with k, lam and
#             its cut list as ascending source-side bitmasks
ORACLE_MAGIC = b"FLOWSNTY"
ORACLE_VERSION = 10
_HEADER = 76
_NONE = type(None)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_net(path: str):
    text = _read_text(path)
    return parse_network(text), hashlib.sha256(text.encode()).digest()


def save_oracle(path: str, k: int, digest: bytes, sens, kf) -> None:
    payload = pickle.dumps({"sensitivity": sens, "kfault": kf})
    with open(path, "wb") as fh:
        fh.write(ORACLE_MAGIC)
        fh.write(struct.pack("<HH", ORACLE_VERSION, k))
        fh.write(digest)
        fh.write(hashlib.sha256(payload).digest())
        fh.write(payload)


def _kfault_shaped(kf) -> bool:
    """Whether kf is None or a KFaultOracle whose fields have the types
    built ones have; the first query certifies their values."""
    return kf is None or (
        isinstance(kf, KFaultOracle) and type(kf.k) is int
        and type(kf.lam) is int and isinstance(kf.net, FlowNetwork)
        and type(kf.entries) is tuple)


def load_oracle(path: str, digest: bytes):
    """Returns (k, sensitivity, kfault); raises ValueError on any mismatch."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != ORACLE_MAGIC:
        raise ValueError(f"{path} is not a flowsentry oracle file")
    corrupt = ValueError(f"{path} is a corrupt oracle file; rebuild it")
    if len(blob) < _HEADER:
        raise corrupt
    version, k = struct.unpack_from("<HH", blob, 8)
    if version != ORACLE_VERSION:
        raise ValueError(
            f"{path} has oracle format version {version}, "
            f"this build reads version {ORACLE_VERSION}"
        )
    if blob[12:44] != digest:
        raise ValueError(
            f"{path} was built from a different graph file; rebuild it"
        )
    if hashlib.sha256(blob[_HEADER:]).digest() != blob[44:_HEADER]:
        raise corrupt
    # Unpickling makes thousands of containers and no cyclic garbage; GC
    # passes during it are pure cost, set by what was allocated before.
    # The shape check allocates, so it runs with the collector still off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        payload = pickle.loads(blob[_HEADER:])
        if (type(payload) is dict
                and payload.keys() == {"sensitivity", "kfault"}
                and isinstance(payload["sensitivity"],
                               (SensitivityOracle, _NONE))
                and _kfault_shaped(payload["kfault"])):
            return k, payload["sensitivity"], payload["kfault"]
    except Exception as exc:
        raise corrupt from exc
    finally:
        if enabled:
            gc.enable()
    raise corrupt


def cmd_gen(args) -> int:
    net = generate(args.family, args.size or [], seed=args.seed)
    _write_text(args.output, serialize_network(net))
    return 0


def cmd_build(args) -> int:
    if args.output == "-":
        raise ValueError("build -o/--output cannot be -: the oracle file is "
                         "binary; name a file")
    if args.k < 1:
        raise ValueError(f"-k must be at least 1, got {args.k}")
    net, digest = _load_net(args.graph)
    sens = SensitivityOracle(net)
    try:
        kf = build_kfault_oracle(net, args.k)
    except EnumerationBudgetExceeded as exc:
        kf = None
        print(f"note: k-fault oracle skipped: {exc}; MCK/MCKP/RQ queries "
              "need a graph with fewer small cuts", file=sys.stderr)
    save_oracle(args.output, args.k, digest, sens, kf)
    return 0


class _QueryContext:
    """The oracles a query stream touches: a loaded file's, never rebuilt,
    or without a file each built on first use."""

    def __init__(self, net, k, preloaded=None):
        self.net = net
        self.k = k
        self.loaded = preloaded is not None
        self._sens, self._kf = preloaded or (None, None)

    @property
    def sens(self):
        if self._sens is None:
            if self.loaded:
                raise QueryError("the oracle file holds no sensitivity oracle")
            self._sens = SensitivityOracle(self.net)
        return self._sens

    @property
    def kf(self):
        if self._kf is None:
            if self.loaded:
                raise QueryError(
                    "the oracle file holds no k-fault oracle: its build ran "
                    "past the minimal-cut enumeration budget of "
                    f"{kfault.ENUMERATION_PROBE_BUDGET} search nodes")
            self._kf = build_kfault_oracle(self.net, self.k)
        return self._kf

    def reachable(self, f) -> bool:
        """RQ. Fewer than lam failures leave a flow of at least 1, so
        without a cut list at hand they are answered from the sensitivity
        oracle's lam, which walk-pruning keeps."""
        if self._kf is None and len(f) < self.sens.lam:
            if len(set(f)) != len(f):
                raise QueryError("failure set has repeated edges")
            return True
        return reachable_under_failures(self.kf, f)


def _parse_eid(tok: str, lineno: int, ctx) -> int:
    """The graph's EdgeId for a typed 1-based one; errors name it as typed."""
    try:
        v = ascii_int(tok)
    except ValueError:
        raise ParseError(lineno, f"{tok!r} is not an integer")
    if v < 1:
        raise ParseError(lineno, "EdgeIds are 1-based")
    if v - 1 not in ctx.net.edges:
        raise QueryError(f"unknown edge {v}")
    return v - 1


def _failure_list(toks, lineno: int, ctx) -> list[int]:
    if not toks:
        raise ParseError(lineno, "missing failure count")
    try:
        j = ascii_int(toks[0])
    except ValueError:
        raise ParseError(lineno, f"bad failure count {toks[0]!r}")
    if j < 0:
        raise ParseError(lineno, f"negative failure count {j}")
    if j > ctx.k:
        raise QueryError(f"{j} failures exceeds oracle k={ctx.k}")
    if len(toks) - 1 != j:
        raise ParseError(lineno, f"expected {j} EdgeIds, got {len(toks) - 1}")
    return [_parse_eid(t, lineno, ctx) for t in toks[1:]]


def answer_query(line: str, lineno: int, ctx) -> str:
    toks = line.split()
    kind = toks[0]
    args = toks[1:]

    def eids(count):
        if len(args) != count:
            raise ParseError(lineno, f"{kind} takes {count} argument(s)")
        return [_parse_eid(t, lineno, ctx) for t in args]

    if kind == "MF":
        e, = eids(1)
        return str(ctx.sens.report_flow_diff_single(e).new_value)
    if kind == "MFX":
        e, x = eids(2)
        return str(ctx.sens.query_edge_flow(e, x))
    if kind == "MFD":
        e, = eids(1)
        diff = ctx.sens.report_flow_diff_single(e)
        return str(sorted(x + 1 for x in diff.toggled))
    if kind == "MF2":
        e, e2 = eids(2)
        diff = ctx.sens.report_flow_diff_dual(e, e2)
        return f"{diff.new_value} {sorted(x + 1 for x in diff.toggled)}"
    if kind == "MC2":
        e, e2 = eids(2)
        return str(ctx.sens.mincut_size_dual(e, e2))
    if kind == "MCK":
        f = _failure_list(args, lineno, ctx)
        return str(mincut_size_k(ctx.kf, f))
    if kind == "MCKP":
        f = _failure_list(args, lineno, ctx)
        part = mincut_partition_k(ctx.kf, f)
        return str(sorted(v + 1 for v in part.source_side))
    if kind == "RQ":
        f = _failure_list(args, lineno, ctx)
        return "1" if ctx.reachable(f) else "0"
    raise ParseError(lineno, f"unknown query kind {kind!r}")


def cmd_query(args) -> int:
    if args.oracle == "-":
        raise ValueError("query --oracle cannot be -: name the file that "
                         "'build' wrote")
    if args.graph == args.queries == "-":
        raise ValueError("query -g/--graph and -q/--queries cannot both be -: "
                         "stdin holds one of them")
    if args.k < 1:
        raise ValueError(f"-k must be at least 1, got {args.k}")
    net, digest = _load_net(args.graph)
    preloaded = None
    k = args.k
    if args.oracle is not None:
        stored_k, sens, kf = load_oracle(args.oracle, digest)
        preloaded = (sens, kf)
        k = stored_k
    ctx = _QueryContext(net, k, preloaded)
    for lineno, raw in enumerate(_read_text(args.queries).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            answer = answer_query(line, lineno, ctx)
        except QueryError as exc:
            raise QueryError(f"query line {lineno}: {exc}") from None
        print(f"{line} => {answer}")
    return 0


def cmd_verify(args) -> int:
    net, _ = _load_net(args.graph)
    report = run_verify(net, args.profile, graph_label=args.graph)
    print(report.render())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flowsentry",
        description="Fault-tolerant flow families and sensitivity oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark instance")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--seed", type=ascii_int, default=0)
    g.add_argument(
        "--size",
        type=ascii_int,
        action="append",
        help="size parameter; repeat for families taking several",
    )
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build and serialize the oracles")
    b.add_argument("-g", "--graph", required=True)
    b.add_argument("-k", type=ascii_int, default=2)
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="answer failure queries from a file")
    q.add_argument("-g", "--graph", required=True)
    q.add_argument("-k", type=ascii_int, default=2)
    q.add_argument("-q", "--queries", required=True,
                   help="query file, or - for stdin")
    q.add_argument("--oracle", default=None,
                   help="prebuilt oracle file from 'build' (optional)")
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="replay oracle answers against brute force")
    v.add_argument("-g", "--graph", required=True)
    v.add_argument("--profile", required=True)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # ParseError, QueryError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
