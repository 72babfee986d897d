"""Flow networks, network parsing, pruning, and reachability helpers.

Edges are addressed exclusively by integer EdgeId. Ids are stable under
deletion (removing an edge never renumbers the survivors), which is what
lets failure queries, calibration, and the verification harness all talk
about the same edge. A network is never changed once built: deleting
edges makes a new one (without_edges). Its one adjacency structure is the
incidence list, which every traversal in the package reads. Vertices are
0-based internally; the file format is 1-based.
"""

from __future__ import annotations

from collections import deque

from .errors import ParseError


class FlowNetwork:
    """A directed multigraph with edges indexed by EdgeId, a source s and
    a sink t, immutable once built.

    Parallel edges and self-loops are permitted. The one adjacency
    structure is the incidence list, kept in ascending EdgeId order so
    every traversal in the package is deterministic.
    """

    __slots__ = ("n", "edges", "s", "t", "_adj")

    def __init__(self, n: int, edges, s: int, t: int):
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"source/sink ({s}, {t}) out of range for n={n}")
        if s == t:
            raise ValueError("source equals sink")
        self.n, self.s, self.t = n, s, t
        self.edges: dict[int, tuple[int, int]] = {}
        self._adj = None
        items = edges.items() if isinstance(edges, dict) else enumerate(edges)
        for eid, (u, v) in items:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoints ({u}, {v}) out of range for n={n}")
            self.edges[eid] = (u, v)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __getstate__(self):
        # the incidence list is a cache that incidence() rebuilds on demand
        return None, {"n": self.n, "edges": self.edges, "s": self.s,
                      "t": self.t, "_adj": None}

    def incidence(self) -> list[list[tuple[int, int, bool]]]:
        """Per vertex v, (EdgeId, other end, is_reverse) for each edge at v,
        is_reverse True where v is the head; ascending EdgeId, a self-loop's
        forward entry first. Built on first use. This is the scan order of
        every traversal: the forward entries at v are its out-edges, the
        reverse entries its in-edges; in a residual search a forward entry
        is an arc of spare capacity, a reverse entry an arc of flow."""
        if self._adj is None:
            arcs: list[list[tuple[int, int, bool]]] = [[] for _ in range(self.n)]
            for eid in sorted(self.edges):
                u, v = self.edges[eid]
                arcs[u].append((eid, v, False))
                arcs[v].append((eid, u, True))
            self._adj = arcs
        return self._adj

    def without_edges(self, ids) -> "FlowNetwork":
        """A copy with the given EdgeIds removed; survivors keep their ids."""
        drop = set(ids)
        kept = {eid: uv for eid, uv in self.edges.items() if eid not in drop}
        return FlowNetwork(self.n, kept, self.s, self.t)

    def __eq__(self, other):
        if not isinstance(other, FlowNetwork):
            return NotImplemented
        return (self.n, self.s, self.t, self.edges) == \
            (other.n, other.s, other.t, other.edges)

    def __repr__(self):
        return f"FlowNetwork(n={self.n}, m={self.m}, s={self.s}, t={self.t})"


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
            _, a, b = fields
            # on an ASCII line isdigit() holds exactly for the digits 0-9,
            # which int() reads as ascii_int does
            if line.isascii() and a.isdigit() and b.isdigit():
                u, v = int(a), int(b)
            else:
                u, v = _ints(lineno, (a, b))
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
    return FlowNetwork(n, edges, s - 1, t - 1)


def ascii_int(tok: str) -> int:
    """int(tok) for ASCII decimal digits after an optional sign. Raises
    ValueError on anything else, also where int() would read a number, as
    from "1_0" or full-width digits."""
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {tok!r}")
    return int(tok)


def _ints(lineno: int, fields) -> list[int]:
    out = []
    for f in fields:
        try:
            out.append(ascii_int(f))
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


def reachable_set(net: FlowNetwork, src: int, excluded=(), reverse: bool = False) -> set[int]:
    """Vertices reachable from src, optionally in the reverse graph,
    ignoring the EdgeIds in ``excluded``."""
    drop = excluded if isinstance(excluded, (set, frozenset)) else set(excluded)
    arcs = net.incidence()
    seen = {src}
    queue = deque([src])
    while queue:
        for eid, y, rev in arcs[queue.popleft()]:
            if rev == reverse and y not in seen and eid not in drop:
                seen.add(y)
                queue.append(y)
    return seen


def prune_to_st_paths(net: FlowNetwork) -> FlowNetwork:
    """Restrict the network to edges lying on some (s,t)-walk.

    An edge (u,v) survives iff u is reachable from s and v reaches t;
    self-loops never survive. Vertex ids and EdgeIds are not renumbered:
    vertices off every (s,t)-walk simply become isolated. When t is
    unreachable from s the result has no edges.
    """
    fwd = reachable_set(net, net.s)
    bwd = reachable_set(net, net.t, reverse=True)
    keep = {eid: (u, v) for eid, (u, v) in net.edges.items()
            if u != v and u in fwd and v in bwd}
    return FlowNetwork(net.n, keep, net.s, net.t)


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
