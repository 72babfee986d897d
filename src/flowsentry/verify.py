"""Verification profiles: oracle answers replayed against brute force.

Each profile builds the oracles fresh, runs a deterministic set of
queries, recomputes every answer with the independent reference oracle,
and collects mismatches instead of raising, so a broken build yields a
readable report and a nonzero exit instead of a stack trace. Mismatch
records carry the exact query line needed to replay the failure against
the same graph file.
"""

import itertools
import random
import re
import time
from dataclasses import dataclass, field

from .bruteforce import brute_force
from .family import build_flow_family
from .flows import IntFlow
from .graph import FlowNetwork, prune_to_st_paths
from .kfault import (
    build_kfault_oracle,
    mincut_partition_k,
    mincut_size_k,
    reachable_under_failures,
)
from .mincut import crossing_edges
from .oracles import SensitivityOracle

PROFILES = (
    "exhaustive-1",
    "exhaustive-2",
    "exhaustive-k(K,NCAP)",
    "sampled(COUNT,SEED)",
    "invariants",
)


def parse_profile(text: str) -> tuple[str, tuple[int, ...]]:
    """Profile name plus its numeric arguments, or ValueError."""
    t = text.strip()
    if t in ("exhaustive-1", "exhaustive-2", "invariants"):
        return t, ()
    m = re.fullmatch(r"exhaustive-k\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)", t)
    if m:
        return "exhaustive-k", (int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"sampled\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)", t)
    if m:
        return "sampled", (int(m.group(1)), int(m.group(2)))
    raise ValueError(
        f"unknown profile {text!r}; expected one of {', '.join(PROFILES)}"
    )


@dataclass(frozen=True)
class Mismatch:
    query: str  # replayable query line, 1-based edge ids
    expected: str
    got: str


@dataclass
class VerificationReport:
    profile: str
    graph_label: str
    counts: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    invariants: list = field(default_factory=list)  # (name, passed) rows
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches and all(ok for _, ok in self.invariants)

    def count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def mismatch(self, query: str, expected, got) -> None:
        self.mismatches.append(Mismatch(query, str(expected), str(got)))

    def render(self) -> str:
        # an exhaustive-k mismatch may name k > 2 failures, past query's default
        k = ""
        if self.profile.startswith("exhaustive-k"):
            k = f" -k {parse_profile(self.profile)[1][0]}"
        lines = [
            f"profile {self.profile} on {self.graph_label}: "
            f"{sum(self.counts.values())} checks, "
            f"{len(self.mismatches)} mismatches, {self.seconds:.2f}s"
        ]
        for kind in sorted(self.counts):
            lines.append(f"  {kind}: {self.counts[kind]}")
        for name, passed in self.invariants:
            lines.append(f"  [{'pass' if passed else 'FAIL'}] {name}")
        graph = self.graph_label
        if graph == "-" and self.mismatches:
            lines.append("  the graph was read from stdin: save it as a file "
                         "and put its path for GRAPH to replay")
            graph = "GRAPH"
        for mm in sorted(self.mismatches, key=lambda m: m.query):
            lines.append(
                f"  MISMATCH {mm.query!r}: expected {mm.expected}, "
                f"got {mm.got}"
            )
            lines.append(
                f"    replay: echo '{mm.query}' | "
                f"flowsentry query -g {graph}{k} -q -"
            )
        lines.append("result: " + ("ok" if self.ok else "MISMATCH"))
        return "\n".join(lines)


def _reconstructed_flow(oracle, diff, failures):
    """Apply a FlowDiff; returns the flow or a reason string."""
    pruned, carried = oracle.pruned_net, oracle.flip.keys()

    def bit(eid):
        return int((eid in carried) != (eid in diff.toggled))

    if not diff.toggled <= frozenset(pruned.edges):
        return "diff toggles edges outside the pruned network"
    for eid in failures:
        if eid in pruned.edges and bit(eid):
            return f"diff routes flow through failed edge {eid}"
    net = pruned.without_edges(failures)
    flow = IntFlow(net, {eid: bit(eid) for eid in net.edges})
    try:
        flow.check()
    except ValueError as exc:
        return f"infeasible reconstruction: {exc}"
    return flow


def _q(kind, *eids) -> str:
    return " ".join([kind] + [str(e + 1) for e in eids])


def _check_mfd(report, oracle, net, e):
    """MF and MFD of the failure of e against brute force; returns the
    reconstructed flow, or None when there is none."""
    want, _ = brute_force(net, [e])
    diff = oracle.report_flow_diff_single(e)
    report.count("MF")
    if diff.new_value != want:
        report.mismatch(_q("MF", e), want, diff.new_value)
    flow = _reconstructed_flow(oracle, diff, [e])
    report.count("MFD")
    if isinstance(flow, str):
        report.mismatch(_q("MFD", e), "feasible max-flow", flow)
        return None
    if flow.value != want:
        report.mismatch(_q("MFD", e), want, flow.value)
    return flow


def _check_mfx(report, oracle, flow, e, x):
    """MFX against flow, the reconstruction of the single failure of e."""
    report.count("MFX")
    got = oracle.query_edge_flow(e, x)
    ref = flow.values.get(x, 0)
    if got != ref:
        report.mismatch(_q("MFX", e, x), ref, got)


def _check_mf2(report, oracle, want, e, e2):
    """MF2 against want, the brute-force max-flow without e and e2."""
    diff = oracle.report_flow_diff_dual(e, e2)
    report.count("MF2")
    if diff.new_value != want:
        report.mismatch(_q("MF2", e, e2), want, diff.new_value)
        return
    flow = _reconstructed_flow(oracle, diff, [e, e2])
    if isinstance(flow, str):
        report.mismatch(_q("MF2", e, e2), "feasible max-flow", flow)
    elif flow.value != want:
        report.mismatch(_q("MF2", e, e2), want, flow.value)


def _check_mc2(report, oracle, want, e, e2):
    """MC2 against want, the brute-force max-flow without e and e2."""
    report.count("MC2")
    got = oracle.mincut_size_dual(e, e2)
    if got != want:
        report.mismatch(_q("MC2", e, e2), want, got)


def _run_exhaustive_1(report, net):
    oracle = SensitivityOracle(net)
    for e in sorted(net.edges):
        flow = _check_mfd(report, oracle, net, e)
        if flow is None:
            continue
        for x in sorted(net.edges):
            if x != e:
                _check_mfx(report, oracle, flow, e, x)


def _run_exhaustive_2(report, net):
    oracle = SensitivityOracle(net)
    for e, e2 in itertools.combinations(sorted(net.edges), 2):
        want, _ = brute_force(net, [e, e2])
        _check_mf2(report, oracle, want, e, e2)
        _check_mc2(report, oracle, want, e, e2)


def _run_exhaustive_k(report, net, k, ncap):
    if net.n > ncap:
        raise ValueError(
            f"graph has {net.n} vertices, over the profile's cap {ncap}"
        )
    oracle = build_kfault_oracle(net, k)
    eids = sorted(net.edges)
    for size in range(0, k + 1):
        for combo in itertools.combinations(eids, size):
            want, _ = brute_force(net, combo)
            report.count("MCK")
            got = mincut_size_k(oracle, combo)
            if got != want:
                report.mismatch(_q(f"MCK {size}", *combo), want, got)
                continue
            report.count("MCKP")
            part = mincut_partition_k(oracle, combo)
            live = [eid for eid in crossing_edges(net, part.source_side)
                    if eid not in combo]
            if (
                net.s not in part.source_side
                or net.t in part.source_side
                or len(live) != want
            ):
                report.mismatch(
                    _q(f"MCKP {size}", *combo),
                    f"valid cut of size {want}",
                    f"crossing {len(live)}",
                )
            report.count("RQ")
            if reachable_under_failures(oracle, combo) != (want >= 1):
                report.mismatch(_q(f"RQ {size}", *combo), want >= 1, "flip")


def _run_sampled(report, net, count, seed):
    oracle = SensitivityOracle(net)
    rng = random.Random(seed)
    eids = sorted(net.edges)
    if not eids:
        return
    for _ in range(count):
        kind = rng.choice(("MFX", "MFD", "MF2", "MC2"))
        if kind == "MFD":
            _check_mfd(report, oracle, net, rng.choice(eids))
        elif kind == "MFX":
            e, x = rng.choice(eids), rng.choice(eids)
            if e == x:
                continue
            flow = _check_mfd(report, oracle, net, e)
            if flow is not None:
                _check_mfx(report, oracle, flow, e, x)
        else:
            e, e2 = rng.sample(eids, 2) if len(eids) > 1 else (None, None)
            if e is None:
                continue
            want, _ = brute_force(net, [e, e2])
            check = _check_mf2 if kind == "MF2" else _check_mc2
            check(report, oracle, want, e, e2)


def _run_invariants(report, net):
    def row(name, passed):
        report.invariants.append((name, bool(passed)))

    bf = build_flow_family(prune_to_st_paths(net))
    fam, kept, critical = bf.family, bf.sub.kept, bf.sub.critical
    n, lam = bf.sub.network.n, bf.sub.lam
    # family B's null sets, from the flows: A's, then f-tilde's plus path i
    a_nulls = [frozenset(e for e in kept if f.values[e] == 0) for f in fam.A]
    g_nulls = [a_nulls[0] | frozenset(p) for p in fam.paths]
    row("|A| = lam+1", len(fam.A) == lam + 1)
    row("|B| = 2*lam+1", len(a_nulls) + len(g_nulls) == 2 * lam + 1)
    row("sum over A of f_i = f_H edgewise", all(
        sum(f.values[e] for f in fam.A) == bf.f_h.values[e] for e in kept))
    row("every A member is a max-flow", all(f.value == lam for f in fam.A))
    row("non-critical edges covered by null sets",
        kept - critical <= frozenset().union(*a_nulls, *g_nulls))
    row("kept edge count within lam*n + 2n(lam+1)",
        len(kept) <= lam * n + 2 * n * (lam + 1))
    value, _ = brute_force(net)
    row("engine max-flow equals reference", value == lam)
    oracle = SensitivityOracle(net)
    carried = oracle.flip.keys()
    row("flip's keys are the kept edges f-tilde carries",
        carried == kept - a_nulls[0])
    # a critical edge's canonical flow is a g_i, a non-critical one's a
    # member of A, and neither carries its edge
    row("flip's keys ^ flip[e] are the edges e's canonical flow carries",
        all(e not in carried ^ d and kept - (carried ^ d)
            in (g_nulls if e in critical else a_nulls)
            for e, d in oracle.flip.items()))
    row("critical edges = keys of the strip records",
        set(oracle.paths.critical) == critical)
    row("at most 2*lam+1 distinct flip deltas",
        len({id(d) for d in oracle.flip.values()}) <= 2 * lam + 1)
    report.counts["invariant"] = len(report.invariants)


def run_verify(net: FlowNetwork, profile_text: str,
               graph_label: str = "graph.txt") -> VerificationReport:
    name, args = parse_profile(profile_text)
    report = VerificationReport(profile=profile_text.strip(),
                                graph_label=graph_label)
    start = time.perf_counter()
    if name == "exhaustive-1":
        _run_exhaustive_1(report, net)
    elif name == "exhaustive-2":
        _run_exhaustive_2(report, net)
    elif name == "exhaustive-k":
        _run_exhaustive_k(report, net, args[0], args[1])
    elif name == "sampled":
        _run_sampled(report, net, args[0], args[1])
    else:
        _run_invariants(report, net)
    report.seconds = time.perf_counter() - start
    return report
