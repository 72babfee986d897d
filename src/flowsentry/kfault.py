"""Min-cut sensitivity under up to k edge failures.

The max-flow of G - F is min(lam, min over minimal (s,t)-cuts Z of
|Z minus F|). With |F| <= k, a cut of size lam+k or more keeps at least
lam edges and never goes below lam. So the oracle keeps one
(Z, partition) pair per minimal cut of size at most lam+k-1, the
partition canonical, plus an index from each EdgeId to the cuts that
hold it. The list is ordered by the bitmask of the source side.

The cuts are listed by a depth-first search over source sides that a
max-flow bound prunes (Provan & Shier, "A paradigm for listing
(s,t)-cuts in graphs", 1996), so the build costs about two augmenting-path
searches per search node instead of a scan of all 2^n vertex subsets. A
graph whose search outgrows ENUMERATION_PROBE_BUDGET gets no oracle.

A query visits only the cuts F hits, because a cut F misses keeps its
|Z| >= lam edges. Among the hit cuts with |Z minus F| < lam, the winner
has the smallest key (|Z minus F|, -|F and Z|, the sorted F and Z,
list order), and the partition query reports its partition.
When nothing drops below lam, it reports the smallest source side among
the cuts of size lam, which is the residual-reachable set of any
max-flow.

Everything here works on the raw input network: minimal cuts of size up
to lam+k-1 may use edges that walk-pruning or calibration would remove,
so neither is applied.
"""

from dataclasses import dataclass

from .errors import (
    EnumerationBudgetExceeded,
    InternalInvariantError,
    QueryError,
)
from .flows import augment_unit, max_flow
from .graph import FlowNetwork, reachable_set
from .mincut import CutPartition, crossing_edges

# Search nodes enumerate_minimal_cuts may visit. gen_random(16, 1) at k=3
# takes 193 and gen_matrix(2, 4) 1,955; on gen_matrix(6, 8) a node costs
# about 0.04 ms, so a graph that size is refused after about 0.2 s.
ENUMERATION_PROBE_BUDGET = 5000


def enumerate_minimal_cuts(net: FlowNetwork, limit: int):
    """All minimal (s,t)-cuts of size <= limit, with canonical partitions.

    A crossing set Z is minimal when every member lies on an (s,t)-path
    of G - (Z minus that member); the canonical partition puts exactly
    the vertices reachable from s in G - Z on the source side. Returns
    (Z, partition) pairs in ascending bitmask order of the source side.

    The search branches over pairs (A, X) of vertex sets, A holding s and
    X vertices kept off the source side, starting from ({s}, {}). A node
    takes the smallest out-neighbour v of A outside A, X and {t}, and
    branches on A + v, then on X + v. A node whose max-flow from A to
    X + {t} exceeds limit is pruned: every source side between them
    crosses more edges. A child resumes its parent's max-flow, feasible
    still since v had in = out, and augments only past its value. A node
    with no such v is a leaf, and its A is the canonical side of the cut Z
    leaving A, since every vertex of A was reached from s along edges
    inside A. So each edge of Z starts on an (s,t)-path, and Z is minimal
    when each ends at a vertex that reaches t in G - Z (a path that used
    the edge would return to its head). Each minimal cut's canonical side
    is the leaf of exactly one branch, so each cut is listed once.

    Raises EnumerationBudgetExceeded when the search needs more than
    ENUMERATION_PROBE_BUDGET nodes.
    """
    g, s, t = net.graph, net.s, net.t
    arcs = g.incidence()
    rank = {eid: i for i, eid in enumerate(net.edges)}
    out = []
    probes = 0
    # (A, X, out-neighbours of A outside A, X and {t}, flow, flow value)
    heads = {y for _, y, rev in arcs[s] if not rev} - {s, t}
    stack = [(frozenset((s,)), frozenset(), heads, dict.fromkeys(net.edges, 0), 0)]
    while stack:
        a, x, frontier, flow, value = stack.pop()
        probes += 1
        if probes > ENUMERATION_PROBE_BUDGET:
            raise EnumerationBudgetExceeded(
                "minimal-cut enumeration needs more than its budget of "
                f"{ENUMERATION_PROBE_BUDGET} search nodes (cut size limit "
                f"{limit})"
            )
        sinks = x | {t}
        while value <= limit and augment_unit(arcs, flow, a, sinks):
            value += 1
        if value > limit:
            continue
        if frontier:
            v = min(frontier)
            rest, grown = frontier - {v}, a | {v}
            heads = {y for _, y, rev in arcs[v] if not rev} - grown - sinks
            stack.append((a, x | {v}, rest, dict(flow), value))
            stack.append((grown, x, rest | heads, flow, value))
            continue
        # no frontier is left, so Z runs from A into X + {t}. Z is built in
        # net.edges order and the side in BFS order, as the subset scan did:
        # equal frozensets built in another order can pickle to other bytes
        z = frozenset(sorted([eid for y in sinks for eid, w, rev in arcs[y]
                              if rev and w in a], key=rank.__getitem__))
        if len(z) > limit:
            continue
        to_t = reachable_set(g, t, z, reverse=True)
        if any(g.edges[eid][1] not in to_t for eid in z):
            continue
        side = frozenset(reachable_set(g, s, z))
        if side != a:
            raise InternalInvariantError("a leaf that is not a canonical side")
        out.append((z, CutPartition(source_side=side)))
    out.sort(key=lambda entry: sum(1 << v for v in entry[1].source_side))
    return out


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
