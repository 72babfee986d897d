"""Min-cut sensitivity under up to k edge failures.

The max-flow of G - F is min(lam, min over minimal (s,t)-cuts Z of
|Z minus F|). With |F| <= k, a cut of size lam+k or more keeps at least
lam edges and never goes below lam. So the oracle keeps one
(Z, partition) pair per minimal cut of size at most lam+k-1, the
partition canonical, plus an index from each EdgeId to the cuts that
hold it.

A query visits only the cuts F hits, because a cut F misses keeps its
|Z| >= lam edges. Among the hit cuts with |Z minus F| < lam, the winner
has the smallest key (|Z minus F|, -|F and Z|, the sorted F and Z,
construction order), and the partition query reports its partition.
When nothing drops below lam, it reports the smallest source side among
the cuts of size lam, which is the residual-reachable set of any
max-flow.

Everything here works on the raw input network: minimal cuts of size up
to lam+k-1 may use edges that walk-pruning or calibration would remove,
so neither is applied.
"""

from dataclasses import dataclass

from .errors import InternalInvariantError, QueryError
from .flows import max_flow
from .graph import FlowNetwork, reachable_set, reaches
from .mincut import CutPartition, crossing_edges

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
class CutEntry:
    """One minimal cut Z and its canonical partition."""

    z: frozenset[int]
    partition: CutPartition


@dataclass(frozen=True)
class KFaultOracle:
    net: FlowNetwork
    k: int
    lam: int
    entries: tuple[CutEntry, ...]
    cuts_of: dict[int, tuple[int, ...]]  # EdgeId -> indices of entries holding it


def build_kfault_oracle(net: FlowNetwork, k: int) -> KFaultOracle:
    if k < 1:
        raise ValueError("k must be at least 1")
    lam = max_flow(net).value
    entries = tuple(CutEntry(z, part)
                    for z, part in enumerate_minimal_cuts(net, lam + k - 1))
    cuts_of: dict[int, list[int]] = {}
    for i, entry in enumerate(entries):
        for eid in entry.z:
            cuts_of.setdefault(eid, []).append(i)
    return KFaultOracle(net=net, k=k, lam=lam, entries=entries,
                        cuts_of={e: tuple(ix) for e, ix in cuts_of.items()})


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


def _deepest_drop(o: KFaultOracle, f: tuple[int, ...]):
    """(q, entry) for sorted failures f; entry is None when nothing drops
    below lam, else the winning cut, with q = |Z minus f|."""
    hit: dict[int, list[int]] = {}
    for eid in f:
        for i in o.cuts_of.get(eid, ()):
            hit.setdefault(i, []).append(eid)
    best, win = (o.lam,), None
    for i, fz in hit.items():
        key = (len(o.entries[i].z) - len(fz), -len(fz), fz, i)
        if key < best:  # (lam,) sorts before every key of value lam
            best, win = key, o.entries[i]
    return best[0], win


def mincut_size_k(o: KFaultOracle, failures) -> int:
    """Max-flow (= min-cut) value of the network minus the failures."""
    return _deepest_drop(o, _check_failures(o, failures))[0]


def mincut_partition_k(o: KFaultOracle, failures) -> CutPartition:
    """A concrete min-cut partition of the network minus the failures."""
    f = _check_failures(o, failures)
    q, entry = _deepest_drop(o, f)
    if entry is None:
        part = min((e.partition for e in o.entries if len(e.z) == o.lam),
                   key=lambda p: len(p.source_side))
    else:
        part = entry.partition
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
