"""Code paths the k-fault oracle replaced, kept as identity references.

scan_minimal_cuts is the vertex-subset scan that
kfault.enumerate_minimal_cuts replaced. It visits all 2^n source sides,
so it stays exact and independent of the branch-and-bound search, and
the tests compare the two on graphs of up to 16 vertices.

cut_list recomputes each stored cut Z and its partition from the
oracle's source-side bitmasks with mincut.crossing_edges, apart from the
certificate the queries read. deepest_drop, size_k and partition_k are
the queries from before the cut list was certified once per oracle:
they read |Z| off each hit cut, scan every cut for the no-drop
partition and recount the reported partition's crossing edges on every
call.
"""

from flowsentry.errors import InternalInvariantError
from flowsentry.graph import FlowNetwork, reachable_set
from flowsentry.kfault import _check_failures
from flowsentry.mincut import CutPartition, crossing_edges

SCAN_VERTEX_CAP = 22


def scan_minimal_cuts(net: FlowNetwork, limit: int):
    """All minimal (s,t)-cuts of size <= limit, with canonical partitions.

    Every vertex subset holding s and not t is scanned in ascending
    bitmask order; its crossing set Z is kept when |Z| <= limit, Z was
    not seen before, and every member lies on an (s,t)-path of
    G - (Z minus that member). The partition is the vertices s reaches
    in G - Z. Returns (Z, partition) pairs in scan order.
    """
    n = net.n
    if n > SCAN_VERTEX_CAP:
        raise ValueError(f"the subset scan is exponential; n={n} exceeds "
                         f"{SCAN_VERTEX_CAP}")
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
        rest = net.without_edges(z)
        a = frozenset(reachable_set(rest, net.s))
        if net.t in a:
            raise InternalInvariantError("a cut that does not cut")
        out.append((z, CutPartition(source_side=a)))
    return out


def _on_st_path(net: FlowNetwork, z, eid) -> bool:
    g = net.without_edges(z - {eid})
    u, v = net.edges[eid]
    return u in reachable_set(g, net.s) and net.t in reachable_set(g, v)


def side_of(net: FlowNetwork, mask: int) -> frozenset[int]:
    """The vertex set a source-side bitmask stands for."""
    return frozenset(v for v in range(net.n) if (mask >> v) & 1)


def cut_list(o):
    """(Z, partition) per stored entry of the k-fault oracle o, in list
    order: Z is the crossing set of the entry's source side."""
    out = []
    for mask in o.entries:
        side = side_of(o.net, mask)
        out.append((frozenset(crossing_edges(o.net, side)),
                    CutPartition(source_side=side)))
    return out


def deepest_drop(o, cuts, f: tuple[int, ...]):
    """(q, cut) for sorted failures f and cuts = cut_list(o); cut is None
    when nothing drops below lam, else the winning (Z, partition) pair,
    with q = |Z minus f|."""
    best, win = (o.lam,), None
    for i, cut in enumerate(cuts):
        fz = [eid for eid in f if eid in cut[0]]
        if not fz:
            continue
        key = (len(cut[0]) - len(fz), -len(fz), fz, i)
        if key < best:  # (lam,) sorts before every key of value lam
            best, win = key, cut
    return best[0], win


def size_k(o, cuts, failures) -> int:
    return deepest_drop(o, cuts, _check_failures(o, failures))[0]


def partition_k(o, cuts, failures) -> CutPartition:
    f = _check_failures(o, failures)
    q, cut = deepest_drop(o, cuts, f)
    if cut is None:
        part = min((p for z, p in cuts if len(z) == o.lam),
                   key=lambda p: len(p.source_side))
    else:
        part = cut[1]
    cross = crossing_edges(o.net, part.source_side)
    survivors = [eid for eid in cross if eid not in f]
    if cut is None and len(survivors) != len(cross):
        raise InternalInvariantError("failed edge crosses a surviving cut")
    if len(survivors) != q:
        raise InternalInvariantError(
            f"reported partition crosses {len(survivors)} != {q}")
    return part
