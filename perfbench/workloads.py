"""The benchmark's workloads: graph, oracle build, query pool and answer check.

Each workload's graph is a fixed member of the seeded corpus (GRAPH_SEED),
handed to the program as serialized text. The run's ``--seed`` draws the
query pool: kinds, edge pairs and failure sets. The graph is not drawn
from the run seed because build cost and query cost swing with it far
beyond any bound a regression check can use: over graph seeds 1..6 the
k=3 oracle on gen_random(16) builds in 0.6 s to 40 s (7 to 111 entries),
and lam of gen_random(60) ranges 14..21.
"""

import random
import time
from dataclasses import dataclass
from typing import Callable

from flowsentry import bruteforce, cli, generators, kfault, oracles, verify
from flowsentry.graph import FlowNetwork

GRAPH_SEED = 1
SENS_KINDS = ("MF", "MFX", "MFD", "MF2", "MC2")
KFAULT_KINDS = ("MCK", "MCKP", "RQ")
DUAL_KINDS = ("MF2", "MC2")


@dataclass(frozen=True)
class Workload:
    name: str
    full: Callable[[], FlowNetwork]  # the measured graph
    tiny: Callable[[], FlowNetwork]  # a small graph for the self-test
    k: int  # failure bound of the k-fault oracle; 0 for the sensitivity oracle
    build_reps: int  # rounds per run, one build each; divides LOADS_PER_RUN
    pool: int  # queries drawn per run, cycled through for --seconds
    checked: int  # pool queries whose answers are checked with brute_force

    @property
    def kinds(self):
        return KFAULT_KINDS if self.k else SENS_KINDS

    def network(self, tiny):
        return self.tiny() if tiny else self.full()

    def build(self, net):
        if self.k:
            return kfault.build_kfault_oracle(net, self.k)
        return oracles.SensitivityOracle(net)

    @property
    def build_span(self):
        """Name of the span the benchmark opens around one build."""
        return "kfault.build" if self.k else "oracles.build"

    def save(self, path, digest, oracle):
        if self.k:
            cli.save_oracle(path, self.k, digest, None, oracle)
        else:
            cli.save_oracle(path, 0, digest, oracle, None)

    def load(self, path, digest):
        _, sens, kf = cli.load_oracle(path, digest)
        return kf if self.k else sens

    def make_pool(self, net, seed, tiny):
        """Seeded (kind, args) list: equal shares per kind over uniformly
        drawn edges, shuffled."""
        rng = random.Random(seed)
        eids = sorted(net.edges)
        size = 40 if tiny else self.pool
        pool = []
        for i in range(size):
            kind = self.kinds[i % len(self.kinds)]
            if self.k:
                # k failures each: a query already checks every subset of its
                # failure set, and with sizes 1..k mixed the median fell in
                # the gap between the size-2 and size-3 latency clusters
                args = (tuple(rng.sample(eids, self.k)),)
            elif kind in ("MF", "MFD"):
                args = (rng.choice(eids),)
            else:
                args = tuple(rng.sample(eids, 2))
            pool.append((kind, args))
        rng.shuffle(pool)
        return pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sens-build",
            lambda: generators.gen_random(60, GRAPH_SEED),
            lambda: generators.gen_random(12, GRAPH_SEED),
            k=0, build_reps=2, pool=10000, checked=1000,
        ),
        Workload(
            "dual-matrix",
            lambda: generators.gen_matrix(6, 8, seed=GRAPH_SEED),
            lambda: generators.gen_matrix(2, 3, seed=GRAPH_SEED),
            k=0, build_reps=4, pool=5000, checked=2000,
        ),
        Workload(
            "kfault",
            lambda: generators.gen_random(16, GRAPH_SEED),
            lambda: generators.gen_random(10, GRAPH_SEED),
            k=3, build_reps=4, pool=1500, checked=1500,
        ),
    )
}


def bind(oracle, kind):
    """The library call a query of this kind makes, bound to the oracle."""
    if kind in ("MF", "MFD"):
        return oracle.report_flow_diff_single
    if kind == "MFX":
        return oracle.query_edge_flow
    if kind == "MF2":
        return oracle.report_flow_diff_dual
    if kind == "MC2":
        return oracle.mincut_size_dual
    fn = {"MCK": kfault.mincut_size_k, "MCKP": kfault.mincut_partition_k,
          "RQ": kfault.reachable_under_failures}[kind]
    return lambda failures: fn(oracle, failures)


def failures_of(kind, args):
    """The failed edges a query's answer is about."""
    if kind in ("MF", "MFX", "MFD"):
        return (args[0],)
    if kind in DUAL_KINDS:
        return args
    return args[0]


class Checker:
    """Judges answers against brute_force, one brute-force call per
    distinct failure set, and keeps each call's time for the reference
    latency."""

    def __init__(self, net, oracle):
        self.net = net
        self.oracle = oracle
        self._brute = {}

    def brute(self, failures):
        """(max-flow value, min-cut source side, seconds) of net minus failures."""
        key = tuple(sorted(failures))
        if key not in self._brute:
            t0 = time.perf_counter()
            value, side = bruteforce.brute_force(self.net, key)
            self._brute[key] = (value, side, time.perf_counter() - t0)
        return self._brute[key]

    def _reconstruct(self, diff, failures, want):
        """The flow a FlowDiff encodes, or None unless it is a feasible flow
        of value want in the network minus the failures."""
        flow = verify._reconstructed_flow(self.oracle, diff, list(failures))
        if isinstance(flow, str) or flow.value != want:
            return None
        return flow

    def check(self, kind, args, answer):
        failures = failures_of(kind, args)
        want = self.brute(failures)[0]
        if kind == "MF":
            return answer.new_value == want
        if kind in ("MFD", "MF2"):
            return answer.new_value == want and \
                self._reconstruct(answer, failures, want) is not None
        if kind == "MFX":
            diff = self.oracle.report_flow_diff_single(args[0])
            flow = self._reconstruct(diff, failures, want)
            return flow is not None and answer == flow.values.get(args[1], 0)
        if kind in ("MC2", "MCK"):
            return answer == want
        if kind == "RQ":
            return answer == (want >= 1)
        # MCKP: a valid (s,t)-cut of the network minus F of the stated size
        side = answer.source_side
        live = sum(1 for eid, (u, v) in self.net.edges.items()
                   if eid not in failures and u in side and v not in side)
        return self.net.s in side and self.net.t not in side and live == want
