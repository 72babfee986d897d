"""Integral max-flow, residual graphs, flow canonicalization and path
decomposition.

Every flow is an IntFlow, 0/1 except the auxiliary max-flow f_H, the one
flow max_flow solves under capacities, so no flow stores capacities. Unit
flows grow a path at a time (augment_unit, UnitResidual.augment).

Everything here is deterministic: augmenting paths are shortest paths
discovered by BFS that scans arcs in ascending EdgeId order (forward arc
before reverse arc on the same id), so identical inputs always produce
identical flows. Capacities in this package stay tiny, so reproducibility
is worth far more than asymptotics.
"""

from __future__ import annotations

from collections import deque

from .graph import FlowNetwork, scc_from_adjacency


class IntFlow:
    """Integer-valued flow on a network's edges.

    ``values`` maps every EdgeId of the network to its flow.
    """

    __slots__ = ("net", "values")

    def __init__(self, net: FlowNetwork, values: dict[int, int]):
        self.net = net
        self.values = {eid: values.get(eid, 0) for eid in net.edges}

    @property
    def value(self) -> int:
        values = self.values
        return sum(-values[e] if rev else values[e]
                   for e, _, rev in self.net.incidence()[self.net.s])

    def check(self) -> None:
        """Raise ValueError unless non-negativity and conservation hold."""
        net, values = self.net, self.values
        for eid, x in values.items():
            if x < 0:
                raise ValueError(f"flow {x} on edge {eid} is negative")
        inc, out = [0] * net.n, [0] * net.n
        for eid, (u, v) in net.edges.items():
            out[u] += values[eid]
            inc[v] += values[eid]
        for v in range(net.n):
            if v not in (net.s, net.t) and inc[v] != out[v]:
                raise ValueError(
                    f"conservation violated at vertex {v}: in={inc[v]} out={out[v]}")

    __hash__ = None  # values is mutable

    def __repr__(self):
        return f"{type(self).__name__}(value={self.value})"


def max_flow(net: FlowNetwork, capacities: dict[int, int]) -> IntFlow:
    """Deterministic integral max-flow (shortest augmenting paths) under
    capacities, 0 for an edge they omit. The build solves only the
    auxiliary network H with it."""
    caps = {eid: int(capacities.get(eid, 0)) for eid in net.edges}
    for eid, c in caps.items():
        if c < 0:
            raise ValueError(f"negative capacity {c} on edge {eid}")
    flow = {eid: 0 for eid in net.edges}
    s, t = net.s, net.t
    arcs = net.incidence()
    while True:
        # BFS over residual arcs; parents recorded as (vertex, eid, is_reverse)
        parent: dict[int, tuple[int, int, bool]] = {s: (-1, -1, False)}
        queue = deque([s])
        while queue and t not in parent:
            v = queue.popleft()
            for eid, w, is_rev in arcs[v]:
                if w in parent or flow[eid] == (0 if is_rev else caps[eid]):
                    continue
                parent[w] = (v, eid, is_rev)
                if w == t:
                    break
                queue.append(w)
        if t not in parent:
            break
        path = []
        w = t
        while w != s:
            v, eid, is_rev = parent[w]
            path.append((eid, is_rev))
            w = v
        path.reverse()
        push = min((caps[eid] - flow[eid]) if not is_rev else flow[eid] for eid, is_rev in path)
        for eid, is_rev in path:
            flow[eid] += -push if is_rev else push
    return IntFlow(net, flow)


def augment_unit(arcs, flow: dict[int, int], sources, sinks) -> list[int] | None:
    """Push one unit along a shortest path from sources to sinks in the unit residual.

    arcs lists the live edges as FlowNetwork.incidence does: flow 0
    on one gives a forward residual arc, flow 1 a reverse arc, any other
    value neither. The path's edges are toggled in place and returned;
    toggling them again undoes the push. Returns None, leaving flow
    untouched, when no sink is reachable.
    """
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(sources)
    queue = deque(parent)
    while queue:
        x = queue.popleft()
        for eid, y, rev in arcs[x]:
            if y in parent or flow[eid] != rev:
                continue
            parent[y] = (x, eid)
            if y in sinks:
                path = []
                while parent[y] is not None:
                    y, eid = parent[y]
                    flow[eid] ^= 1
                    path.append(eid)
                return path
            queue.append(y)
    return None


class UnitResidual:
    """The unit residual of a 0/1 flow: out[x] has bit y while some live
    edge gives an arc x -> y (idle x -> y or carrying y -> x), and count[x, y]
    counts those edges, so parallel edges stay exact. A flow value other than
    0/1 marks a dead edge, as in augment_unit. Searches take vertex masks and
    expand a BFS level at a time, so path need not find augment_unit's path.
    """

    __slots__ = ("edges", "arcs", "flow", "out", "count")

    def __init__(self, net: FlowNetwork, flow: dict[int, int]):
        self.edges, self.arcs, self.flow = net.edges, net.incidence(), dict(flow)
        self.out, self.count = [0] * net.n, {}
        for eid, x in self.flow.items():
            if x in (0, 1):
                self._arc(eid, 1)

    def _arc(self, eid: int, step: int) -> None:
        u, v = self.edges[eid]
        x, y = (v, u) if self.flow[eid] else (u, v)
        c = self.count[x, y] = self.count.get((x, y), 0) + step
        self.out[x] = self.out[x] | 1 << y if c else self.out[x] & ~(1 << y)

    def toggle(self, eid: int) -> None:
        """Push one unit over a live edge, or take it back."""
        self._arc(eid, -1)
        self.flow[eid] ^= 1
        self._arc(eid, 1)

    def augment(self, sources: int, sinks: int) -> list[int] | None:
        """Push one unit along path(sources, sinks) and return its edges;
        None, leaving the flow as it was, when there is no such path."""
        path = self.path(sources, sinks)
        for eid in path or ():
            self.toggle(eid)
        return path

    def delete(self, eid: int) -> None:
        self._arc(eid, -1)
        self.flow[eid] = 2

    def levels(self, sources: int, sinks: int) -> list[int] | None:
        """Masks of the BFS levels from the vertex mask sources, the last
        cut down to the sinks it meets; None when no sink is reachable."""
        out, seen, frontier, levels = self.out, sources, sources, [sources]
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= out[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
            levels.append(frontier & sinks or frontier)
            if frontier & sinks:
                return levels
        return None

    def path(self, sources: int, sinks: int) -> list[int] | None:
        """The edges of a shortest path from the vertex mask sources to
        sinks, sink end first; None when there is none."""
        levels = self.levels(sources, sinks)
        if levels is None:
            return None
        y, path = levels[-1].bit_length() - 1, []
        for level in reversed(levels[:-1]):  # an arc from level into y
            eid, y = next((e, x) for e, x, rev in self.arcs[y]
                          if level >> x & 1 and self.flow[e] == (not rev))
            path.append(eid)
        return path

    def reaches_after(self, path: list[int], sources: int, sinks: int) -> bool:
        """Whether a sink is still reachable after a unit is pushed along
        path, a path from a source to a sink. The push is laid over the
        masks for the search and taken off after; flow and count stay."""
        out, saved = self.out, []
        for eid in path:
            u, v = self.edges[eid]
            x, y = (v, u) if self.flow[eid] else (u, v)
            saved += (x, out[x]), (y, out[y])
            if self.count[x, y] == 1:
                out[x] &= ~(1 << y)
            out[y] |= 1 << x
        found = self.levels(sources, sinks) is not None
        for x, mask in reversed(saved):
            out[x] = mask
        return found


def residual_scc_ids(net: FlowNetwork, flow: IntFlow) -> list[int]:
    """SCC ids of the residual graph of a feasible 0/1 flow: an idle edge
    gives a forward arc, a carrying one a reverse arc. A flow value outside
    [0, 1] raises ValueError before conservation is checked."""
    for eid, x in flow.values.items():
        if x not in (0, 1):
            raise ValueError(f"flow {x} on edge {eid} outside [0, 1]")
    flow.check()
    values = flow.values
    return scc_from_adjacency(net.n, [[w for eid, w, rev in row if values[eid] == rev]
                                      for row in net.incidence()])


def cancel_flow_cycles(net: FlowNetwork, f: IntFlow) -> IntFlow:
    """Remove directed cycles of flow, preserving value and feasibility.

    Cycles carry no net (s,t)-flow, so zeroing them changes nothing the
    rest of the package cares about and makes path decomposition valid.
    """
    values = dict(f.values)
    while True:
        cycle = _find_support_cycle(net, values)
        if cycle is None:
            break
        push = min(values[eid] for eid in cycle)
        for eid in cycle:
            values[eid] -= push
    return type(f)(net, values)


def _find_support_cycle(net: FlowNetwork, values) -> list[int] | None:
    """A directed cycle (as EdgeIds) in the flow support, or None.

    Iterative DFS with vertex coloring; arcs scanned in ascending EdgeId
    order for determinism.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    arcs = net.incidence()
    color = [WHITE] * net.n
    for root in range(net.n):
        if color[root] != WHITE:
            continue
        # stack holds (vertex, edge used to arrive); iters[v] resumes v's scan
        stack = [(root, -1)]
        iters = {}
        while stack:
            v, _ = stack[-1]
            if color[v] == WHITE:
                color[v] = GRAY
                iters[v] = ((e, w) for e, w, rev in arcs[v]
                            if not rev and values[e] > 0)
            nxt = None
            for e, w in iters[v]:
                if color[w] == GRAY:
                    # found a cycle: edges from w forward along path, plus e
                    idx = next(i for i, (x, _) in enumerate(stack) if x == w)
                    return [pe for (_, pe) in stack[idx + 1:]] + [e]
                if color[w] == WHITE:
                    nxt = (w, e)
                    break
            if nxt is None:
                color[v] = BLACK
                stack.pop()
            else:
                stack.append(nxt)
    return None


def decompose_into_paths(net: FlowNetwork, f: IntFlow) -> list[list[int]]:
    """Split an acyclic flow into edge-disjoint (s,t)-paths of EdgeIds.

    Greedy walk from s always taking the lowest-EdgeId edge with remaining
    flow. Unit flows yield value-many paths that partition the support.
    Raises ValueError when the flow support contains a cycle.
    """
    remaining = dict(f.values)
    if _find_support_cycle(net, remaining) is not None:
        raise ValueError("flow support contains a cycle; run cancel_flow_cycles first")
    arcs = net.incidence()
    paths: list[list[int]] = []
    for _ in range(f.value):
        v = net.s
        path: list[int] = []
        while v != net.t:
            eid, v = next((e, w) for e, w, rev in arcs[v]
                          if not rev and remaining[e] > 0)
            remaining[eid] -= 1
            path.append(eid)
        paths.append(path)
    return paths
