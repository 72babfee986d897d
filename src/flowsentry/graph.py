"""Directed multigraphs, network parsing, pruning, and reachability helpers.

Edges are addressed exclusively by integer EdgeId. Ids are stable under
deletion (removing an edge never renumbers the survivors), which is what
lets failure queries, calibration, and the verification harness all talk
about the same edge. Vertices are 0-based internally; the file format is
1-based.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ParseError


class DirectedMultigraph:
    """Directed multigraph with edges indexed by EdgeId.

    Parallel edges and self-loops are permitted. Adjacency lists are kept
    sorted by EdgeId so every traversal in the package is deterministic.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges=None):
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        self.n = n
        self.edges: dict[int, tuple[int, int]] = {}
        self._adj = None
        if edges is not None:
            items = edges.items() if isinstance(edges, dict) else enumerate(edges)
            for eid, (u, v) in items:
                self.add_edge(u, v, eid)

    def add_edge(self, u: int, v: int, eid: int | None = None) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge endpoints ({u}, {v}) out of range for n={self.n}")
        if eid is None:
            eid = max(self.edges, default=-1) + 1
        elif eid in self.edges:
            raise ValueError(f"EdgeId {eid} already present")
        self.edges[eid] = (u, v)
        self._adj = None
        return eid

    @property
    def m(self) -> int:
        return len(self.edges)

    def _adjacency(self):
        """(out-lists, in-lists, incidence list), built on first use."""
        if self._adj is None:
            out: list[list[int]] = [[] for _ in range(self.n)]
            inc: list[list[int]] = [[] for _ in range(self.n)]
            arcs: list[list[tuple[int, int, bool]]] = [[] for _ in range(self.n)]
            for eid in sorted(self.edges):
                u, v = self.edges[eid]
                out[u].append(eid)
                inc[v].append(eid)
                arcs[u].append((eid, v, False))
                arcs[v].append((eid, u, True))
            self._adj = out, inc, arcs
        return self._adj

    def __getstate__(self):
        # the adjacency lists are a cache that _adjacency rebuilds on demand
        return None, {"n": self.n, "edges": self.edges, "_adj": None}

    def out_edges(self, u: int) -> list[int]:
        """EdgeIds leaving u, ascending."""
        return self._adjacency()[0][u]

    def in_edges(self, v: int) -> list[int]:
        """EdgeIds entering v, ascending."""
        return self._adjacency()[1][v]

    def incidence(self) -> list[list[tuple[int, int, bool]]]:
        """Per vertex v, (EdgeId, other end, is_reverse) for each edge at v,
        is_reverse True where v is the head; ascending EdgeId, a self-loop's
        forward entry first. This is the scan order of every residual
        traversal: a forward entry is an arc of spare capacity, a reverse
        entry an arc of flow."""
        return self._adjacency()[2]

    def head(self, eid: int) -> int:
        return self.edges[eid][1]

    def without_edges(self, ids) -> "DirectedMultigraph":
        """A copy with the given EdgeIds removed; survivors keep their ids."""
        drop = set(ids)
        kept = {eid: uv for eid, uv in self.edges.items() if eid not in drop}
        return DirectedMultigraph(self.n, kept)

    def __eq__(self, other):
        if not isinstance(other, DirectedMultigraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __repr__(self):
        return f"DirectedMultigraph(n={self.n}, m={self.m})"


class FlowNetwork:
    """A directed multigraph with designated source and sink."""

    __slots__ = ("graph", "s", "t")

    def __init__(self, graph: DirectedMultigraph, s: int, t: int):
        if not (0 <= s < graph.n and 0 <= t < graph.n):
            raise ValueError(f"source/sink ({s}, {t}) out of range for n={graph.n}")
        if s == t:
            raise ValueError("source equals sink")
        self.graph = graph
        self.s = s
        self.t = t

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def edges(self) -> dict[int, tuple[int, int]]:
        return self.graph.edges

    def without_edges(self, ids) -> "FlowNetwork":
        return FlowNetwork(self.graph.without_edges(ids), self.s, self.t)

    def __eq__(self, other):
        if not isinstance(other, FlowNetwork):
            return NotImplemented
        return self.graph == other.graph and self.s == other.s and self.t == other.t

    def __repr__(self):
        return f"FlowNetwork(n={self.n}, m={self.m}, s={self.s}, t={self.t})"


@dataclass(frozen=True)
class PrunedEdgeSet:
    """Record of what pruning removed.

    ``disconnected`` is the empty-network signal: the sink was unreachable
    from the source, the pruned network has no edges, and every failure
    query should be answered as max-flow 0.
    """

    removed: frozenset[int]
    disconnected: bool


def parse_network(text) -> FlowNetwork:
    """Parse the text graph format into a FlowNetwork.

    Format: a header ``p <n> <m> <s> <t>`` followed by exactly m lines
    ``e <u> <v>``, all 1-based. ``#`` starts a comment line. EdgeId k-1 is
    the k-th edge line. Raises ParseError with a 1-based line number on any
    malformed input, out-of-range vertex, or s = t.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = m = s = t = None
    edges: list[tuple[int, int]] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate problem line")
            if len(fields) != 5:
                raise ParseError(lineno, f"expected 'p <n> <m> <s> <t>', got {len(fields) - 1} fields")
            n, m, s, t = _ints(lineno, fields[1:])
            if n < 1:
                raise ParseError(lineno, f"vertex count {n} must be at least 1")
            if m < 0:
                raise ParseError(lineno, f"edge count {m} must be non-negative")
            for name, x in (("source", s), ("sink", t)):
                if not (1 <= x <= n):
                    raise ParseError(lineno, f"{name} {x} out of range 1..{n}")
            if s == t:
                raise ParseError(lineno, "source equals sink")
        elif kind == "e":
            if n is None:
                raise ParseError(lineno, "edge line before problem line")
            if len(edges) >= m:
                raise ParseError(lineno, f"more than {m} edge lines")
            if len(fields) != 3:
                raise ParseError(lineno, f"expected 'e <u> <v>', got {len(fields) - 1} fields")
            u, v = _ints(lineno, fields[1:])
            for x in (u, v):
                if not (1 <= x <= n):
                    raise ParseError(lineno, f"vertex {x} out of range 1..{n}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(lineno, f"unknown line type {kind!r}")
    if n is None:
        raise ParseError(lineno + 1, "missing problem line")
    if len(edges) != m:
        raise ParseError(lineno + 1, f"expected {m} edge lines, found {len(edges)}")
    graph = DirectedMultigraph(n, edges)
    return FlowNetwork(graph, s - 1, t - 1)


def _ints(lineno: int, fields) -> list[int]:
    out = []
    for f in fields:
        try:
            out.append(int(f))
        except ValueError:
            raise ParseError(lineno, f"expected integer, got {f!r}") from None
    return out


def serialize_network(net: FlowNetwork) -> str:
    """Inverse of parse_network for canonically numbered inputs.

    Edges are emitted in EdgeId order; parsing the result assigns fresh
    contiguous ids, so the round trip is the identity exactly when the
    network's EdgeIds are already 0..m-1.
    """
    lines = [f"p {net.n} {net.m} {net.s + 1} {net.t + 1}"]
    for eid in sorted(net.edges):
        u, v = net.edges[eid]
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def reachable_set(g: DirectedMultigraph, src: int, excluded=(), reverse: bool = False) -> set[int]:
    """Vertices reachable from src, optionally in the reverse graph,
    ignoring the EdgeIds in ``excluded``."""
    drop = excluded if isinstance(excluded, (set, frozenset)) else set(excluded)
    seen = {src}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        eids = g.in_edges(x) if reverse else g.out_edges(x)
        for eid in eids:
            if eid in drop:
                continue
            u, v = g.edges[eid]
            y = u if reverse else v
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def prune_to_st_paths(net: FlowNetwork) -> tuple[FlowNetwork, PrunedEdgeSet]:
    """Restrict the network to edges lying on some (s,t)-walk.

    An edge (u,v) survives iff u is reachable from s and v reaches t;
    self-loops never survive. Vertex ids are not renumbered: vertices off
    every (s,t)-walk simply become isolated, and the removed edges are
    recorded in the returned PrunedEdgeSet. When t is unreachable from s
    the result is the empty network (``disconnected`` flag set).
    """
    fwd = reachable_set(net.graph, net.s)
    bwd = reachable_set(net.graph, net.t, reverse=True)
    keep = {}
    removed = set()
    for eid, (u, v) in net.edges.items():
        if u != v and u in fwd and v in bwd:
            keep[eid] = (u, v)
        else:
            removed.add(eid)
    disconnected = net.t not in fwd
    pruned = FlowNetwork(DirectedMultigraph(net.n, keep), net.s, net.t)
    return pruned, PrunedEdgeSet(frozenset(removed), disconnected)


def scc_from_adjacency(n: int, succ: list[list[int]]) -> list[int]:
    """Dense SCC ids for an explicit adjacency structure (iterative Tarjan).

    Ids are canonical: components are numbered in order of their smallest
    contained vertex, so identical graphs always produce identical maps.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = succ[v]
            while pi < len(neighbors):
                w = neighbors[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    # renumber so that components are ordered by smallest member vertex
    first_seen: dict[int, int] = {}
    for v in range(n):
        first_seen.setdefault(comp[v], v)
    order = sorted(first_seen, key=first_seen.get)
    relabel = {old: new for new, old in enumerate(order)}
    return [relabel[c] for c in comp]
