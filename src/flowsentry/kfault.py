"""Min-cut sensitivity under up to k edge failures.

The oracle enumerates every minimal (s,t)-cut of size at most L = lam+k,
then augments the graph once per cut so that the cut becomes minimum in
the augmented graph, and keeps a min-cut structure for each. The answer
for a failure set F is min(lam, min over minimal cuts Z of |Z minus F|),
which is the max-flow of G - F.

A query is one pass over the entries. A set F0 of failed edges lowers
an entry's cut by |F0| exactly when every edge of F0 is critical there
and no strip path orders two of them, so an entry offers lam_E - |F0|
for the lexicographically first largest such F0 among its critical
failed edges. Ties go to the deepest drop, then the first F0, then
construction order, and the partition query reports that entry's nearest
min-cut. When nothing drops, it reports the smallest min-cut source side
among the entries, which is the residual-reachable set of any max-flow.

Everything here works on the raw input network: minimal cuts of size up
to lam+k may use edges that walk-pruning or calibration would remove,
so neither is applied.
"""

import itertools
from dataclasses import dataclass

from .errors import InternalInvariantError, QueryError
from .flows import max_flow
from .graph import DirectedMultigraph, FlowNetwork, reachable_set, reaches
from .mincut import (
    CutPartition,
    MinCutOracleStruct,
    build_mincut_oracle_raw,
    crossing_edges,
    precedes,
    report_nmc_after,
)

ENUMERATION_VERTEX_CAP = 22


def enumerate_minimal_cuts(net: FlowNetwork, limit: int):
    """All minimal (s,t)-cuts of size <= limit, with canonical partitions.

    A crossing set Z is minimal when every member lies on an (s,t)-path
    of G - (Z minus that member); the canonical partition puts exactly
    the vertices reachable from s in G - Z on the source side. Returns
    (Z, (A, B)) pairs, deduplicated by Z, in ascending bitmask order of
    the generating source side.
    """
    n = net.n
    if n > ENUMERATION_VERTEX_CAP:
        raise ValueError(
            f"minimal-cut enumeration visits all vertex subsets; n={n} "
            f"exceeds {ENUMERATION_VERTEX_CAP}. Use the sampled "
            "verification profiles for graphs this size."
        )
    out = []
    seen: set[frozenset[int]] = set()
    for mask in range(1 << n):
        if not (mask >> net.s) & 1 or (mask >> net.t) & 1:
            continue
        z = frozenset(
            eid
            for eid, (u, v) in net.edges.items()
            if (mask >> u) & 1 and not (mask >> v) & 1
        )
        if len(z) > limit or z in seen:
            continue
        if not all(_on_st_path(net, z, eid) for eid in z):
            continue
        seen.add(z)
        rest = net.graph.without_edges(z)
        a = frozenset(reachable_set(rest, net.s))
        b = frozenset(range(n)) - a
        if net.t not in b:
            raise InternalInvariantError("a cut that does not cut")
        out.append((z, CutPartition(source_side=a, sink_side=b)))
    return out


def _on_st_path(net: FlowNetwork, z, eid) -> bool:
    """Is eid on some (s,t)-path once the rest of z is removed?"""
    g = net.graph.without_edges(z - {eid})
    u, v = net.edges[eid]
    return reaches(g, net.s, u) and reaches(g, v, net.t)


@dataclass(frozen=True)
class AugmentedEntry:
    """One minimal cut Z, frozen as a min-cut of an augmented graph.

    The augmented graph (see _augment) is a build-time object; the entry
    keeps Z, its canonical partition, lam_e = |Z|, the min-cut value of
    the augmented graph, and the min-cut structure built over it (None
    for the empty cut of a disconnected instance).
    """

    z: frozenset[int]
    partition: CutPartition
    lam_e: int
    oracle: MinCutOracleStruct


def _augment(net: FlowNetwork, part: CutPartition, copies: int) -> FlowNetwork:
    """net plus copies parallel edges s->a for every other source-side
    vertex a, and b->t for every other sink-side vertex b, with fresh
    EdgeIds; with copies > limit, any (s,t)-cut avoiding the partition's
    crossing set costs more than limit."""
    edges = dict(net.edges)
    next_id = max(edges, default=-1) + 1
    pairs = [(net.s, a) for a in sorted(part.source_side) if a != net.s]
    pairs += [(b, net.t) for b in sorted(part.sink_side) if b != net.t]
    for u, v in pairs:
        for _ in range(copies):
            edges[next_id] = (u, v)
            next_id += 1
    return FlowNetwork(DirectedMultigraph(net.n, edges), net.s, net.t)


@dataclass(frozen=True)
class KFaultOracle:
    net: FlowNetwork
    k: int
    lam: int
    limit: int  # lam + k
    entries: tuple[AugmentedEntry, ...]


def build_kfault_oracle(net: FlowNetwork, k: int) -> KFaultOracle:
    if k < 1:
        raise ValueError("k must be at least 1")
    lam = max_flow(net).value
    limit = lam + k
    entries = []
    seen_partitions = set()
    for z, part in enumerate_minimal_cuts(net, limit):
        if part.source_side in seen_partitions:
            continue
        seen_partitions.add(part.source_side)
        aug = _augment(net, part, limit + 1)
        if frozenset(crossing_edges(aug, part.source_side)) != z:
            raise InternalInvariantError("augmented edges cross the cut")
        if not z:
            # nothing crosses: the empty cut of a disconnected instance,
            # which needs no oracle
            entries.append(AugmentedEntry(z, part, 0, None))
            continue
        oracle = build_mincut_oracle_raw(aug)
        if oracle.lam != len(z):
            raise InternalInvariantError(
                f"augmented cut {oracle.lam} != {len(z)}")
        entries.append(AugmentedEntry(z, part, oracle.lam, oracle))
    return KFaultOracle(net=net, k=k, lam=lam, limit=limit,
                        entries=tuple(entries))


def _check_failures(o: KFaultOracle, failures) -> tuple[int, ...]:
    f = tuple(failures)
    if len(f) > o.k:
        raise QueryError(f"{len(f)} failures exceed the oracle's k={o.k}")
    if len(set(f)) != len(f):
        raise QueryError("failure set has repeated edges")
    for eid in f:
        if eid not in o.net.edges:
            raise QueryError(f"unknown edge {eid}")
    return tuple(sorted(f))


def _first_antichain(ps, fc: list[int]) -> tuple[int, ...]:
    """Lexicographically first largest subset of fc no strip path orders."""
    for size in range(len(fc), 1, -1):
        for combo in itertools.combinations(fc, size):
            if not any(precedes(ps, a, b) or precedes(ps, b, a)
                       for a, b in itertools.combinations(combo, 2)):
                return combo
    return (fc[0],)


def _deepest_drop(o: KFaultOracle, f: tuple[int, ...]):
    """(q, combo, entry) for sorted failures f; entry is None when nothing
    drops below lam, else entry certifies q = lam_E - |combo|."""
    best, win = (o.lam,), (None, None)
    for entry in o.entries:
        if entry.oracle is None:
            continue
        critical = entry.oracle.labels.critical
        fc = [e for e in f if e in critical]
        if not fc or entry.lam_e - len(fc) > best[0]:
            continue
        combo = _first_antichain(entry.oracle.paths, fc)
        key = (entry.lam_e - len(combo), -len(combo), combo)
        if key < best:  # (lam,) sorts before every key of value lam
            best, win = key, (combo, entry)
    return (best[0],) + win


def mincut_size_k(o: KFaultOracle, failures) -> int:
    """Max-flow (= min-cut) value of the network minus the failures."""
    return _deepest_drop(o, _check_failures(o, failures))[0]


def mincut_partition_k(o: KFaultOracle, failures) -> CutPartition:
    """A concrete min-cut partition of the network minus the failures."""
    f = _check_failures(o, failures)
    q, combo, entry = _deepest_drop(o, f)
    if entry is None:
        part = min((e.partition for e in o.entries if e.lam_e == o.lam),
                   key=lambda p: len(p.source_side))
    else:
        part = report_nmc_after(entry.oracle, combo)
    cross = crossing_edges(o.net, part.source_side)
    survivors = [eid for eid in cross if eid not in f]
    if entry is None and len(survivors) != len(cross):
        raise InternalInvariantError("failed edge crosses a surviving cut")
    if len(survivors) != q:
        raise InternalInvariantError(
            f"reported partition crosses {len(survivors)} != {q}")
    return part


def reachable_under_failures(o: KFaultOracle, failures) -> bool:
    """Does any (s,t)-path survive the failures?"""
    return mincut_size_k(o, failures) >= 1
