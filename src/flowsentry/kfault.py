"""Min-cut sensitivity under up to k edge failures.

The max-flow of G - F is min(lam, min over minimal (s,t)-cuts Z of
|Z minus F|). With |F| <= k, a cut of size lam+k or more keeps at least
lam edges and never goes below lam. So the oracle stores one entry per
minimal cut of size at most lam+k-1: the source side of its canonical
partition, as a vertex bitmask, in ascending order. Z is the set of
edges leaving that side, so it is not stored.

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

The first query on an oracle, built or loaded, certifies the list once
and derives from it everything a query reads (_certify), in O(n + m)
per entry: each Z as the crossing set of its side, |Z|, the index from
each EdgeId to the cuts that hold it, one partition per entry and the
no-drop entry. The reported partition then crosses |Z| - |F and Z| = q
surviving edges, and no failed edge crosses the no-drop side, whose Z
is itself an entry that F would hit. Every later query costs
O(k log k + sum over e in F of the number of cuts holding e). The
certificate stays out of the pickle.

Everything here works on the raw input network. Walk-pruning would keep
every edge of a minimal cut, since each lies on an (s,t)-path, but it
would change the canonical sides that MCKP reports: a vertex s reaches
off every (s,t)-walk belongs to the raw side and not to the pruned one.
Calibration removes edges that lie in no cut of size up to lam+1, and
from k = 3 on the minimal cuts of size up to lam+k-1 may use them.
Neither is applied.
"""

from dataclasses import dataclass

from .errors import (
    EnumerationBudgetExceeded,
    InternalInvariantError,
    QueryError,
)
from .flows import augment_unit
from .graph import FlowNetwork, reachable_set
from .mincut import CutPartition

# Search nodes enumerate_minimal_cuts may visit. gen_random(16, 1) at k=3
# takes 193 and gen_matrix(2, 4) 1,955; on gen_matrix(6, 8) a node costs
# about 0.04 ms, so a graph that size is refused after about 0.2 s.
ENUMERATION_PROBE_BUDGET = 5000


def enumerate_minimal_cuts(net: FlowNetwork, limit: int) -> list[int]:
    """The canonical source sides of all minimal (s,t)-cuts of size <= limit,
    as ascending vertex bitmasks.

    A crossing set Z is minimal when every member lies on an (s,t)-path
    of G - (Z minus that member); its canonical source side is exactly
    the vertices reachable from s in G - Z.

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
    s, t = net.s, net.t
    arcs = net.incidence()
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
        # no frontier is left, so Z runs from A into X + {t}
        z = {eid for y in sinks for eid, w, rev in arcs[y] if rev and w in a}
        if len(z) > limit:
            continue
        to_t = reachable_set(net, t, z, reverse=True)
        if any(net.edges[eid][1] not in to_t for eid in z):
            continue
        if reachable_set(net, s, z) != a:
            raise InternalInvariantError("a leaf that is not a canonical side")
        out.append(sum(1 << v for v in a))
    out.sort()
    return out


@dataclass(frozen=True)
class KFaultOracle:
    net: FlowNetwork
    k: int
    lam: int
    entries: tuple[int, ...]  # canonical source sides as bitmasks, ascending

    def __getstate__(self):
        # _certificate refills its cache on the first query after a load
        return {k: v for k, v in vars(self).items() if k != "_certificate"}


def build_kfault_oracle(net: FlowNetwork, k: int) -> KFaultOracle:
    if k < 1:
        raise ValueError("k must be at least 1")
    arcs, flow, lam = net.incidence(), dict.fromkeys(net.edges, 0), 0
    while augment_unit(arcs, flow, (net.s,), {net.t}):
        lam += 1
    return KFaultOracle(net=net, k=k, lam=lam,
                        entries=tuple(enumerate_minimal_cuts(net, lam + k - 1)))


def _check_failures(o: KFaultOracle, failures) -> tuple[int, ...]:
    f = tuple(failures)
    if len(f) > o.k:
        raise QueryError(f"{len(f)} failures exceed the oracle's k={o.k}")
    if len(set(f)) != len(f):
        raise QueryError("failure set has repeated edges")
    edges = o.net.edges
    for eid in f:
        if eid not in edges:
            raise QueryError(f"unknown edge {eid}")
    return tuple(sorted(f))


def _certify(o: KFaultOracle):
    """(|Z| per entry, EdgeId -> indices of the entries whose Z holds it,
    the partition per entry, index of the no-drop entry), cached on the
    oracle as _certificate for every later query.

    Raises InternalInvariantError unless the entries are strictly
    ascending bitmasks of source sides that hold s and not t, and the
    smallest cuts have size lam, the max-flow value the build computed.
    The no-drop entry is the size-lam cut with the smallest source side,
    the first in list order on a tie: the residual-reachable side of any
    max-flow, which lies in every min-cut side.
    """
    net, n, s, t = o.net, o.net.n, o.net.s, o.net.t
    heads = [[(eid, v) for eid, v, rev in row if not rev]
             for row in net.incidence()]
    sizes, cuts_of, parts = [], {}, []
    prev = 0
    for i, mask in enumerate(o.entries):
        if (type(mask) is not int or not prev < mask < 1 << n
                or not mask >> s & 1 or mask >> t & 1):
            raise InternalInvariantError(
                f"stored side {i} is not the next source side in order")
        prev = mask
        side = frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)
        size = 0
        for u in side:
            for eid, v in heads[u]:
                if v not in side:  # eid is in Z
                    cuts_of.setdefault(eid, []).append(i)
                    size += 1
        sizes.append(size)
        parts.append(CutPartition(source_side=side))
    if min(sizes, default=-1) != o.lam:
        raise InternalInvariantError(
            f"the smallest stored cut is not lam={o.lam}")
    base = min((i for i, size in enumerate(sizes) if size == o.lam),
               key=lambda i: len(parts[i].source_side))
    cert = o.__dict__["_certificate"] = (sizes, cuts_of, parts, base)
    return cert


def _deepest_drop(o: KFaultOracle, f: tuple[int, ...]) -> tuple[int, CutPartition]:
    """(q, partition) for sorted failures f: the partition of the winning
    cut, or of the no-drop entry when nothing drops below lam;
    q = |Z minus f|."""
    sizes, cuts_of, parts, base = o.__dict__.get("_certificate") or _certify(o)
    hit: dict[int, list[int]] = {}
    for eid in f:
        for i in cuts_of.get(eid, ()):
            hit.setdefault(i, []).append(eid)
    best, win = (o.lam,), base
    for i, fz in hit.items():
        q = sizes[i] - len(fz)
        # (lam,) sorts before every key of value lam
        if q <= best[0] and (key := (q, -len(fz), fz, i)) < best:
            best, win = key, i
    return best[0], parts[win]


def mincut_size_k(o: KFaultOracle, failures) -> int:
    """Max-flow (= min-cut) value of the network minus the failures."""
    return _deepest_drop(o, _check_failures(o, failures))[0]


def mincut_partition_k(o: KFaultOracle, failures) -> CutPartition:
    """A concrete min-cut partition of the network minus the failures."""
    return _deepest_drop(o, _check_failures(o, failures))[1]


def reachable_under_failures(o: KFaultOracle, failures) -> bool:
    """Does any (s,t)-path survive the failures?"""
    return mincut_size_k(o, failures) >= 1
