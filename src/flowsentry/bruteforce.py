"""Independent reference oracle used by verification and tests.

Deliberately shares nothing with the flow engine beyond the graph
container: capacities are plain dicts keyed by vertex pairs (parallel
edges merge into counts), augmenting paths come from a depth-first
search pushing one unit at a time, and the min-cut partition is the
final residual reachability set. Slow and obviously correct is the
point; every acceptance check compares against this.
"""

from .errors import InternalInvariantError
from .graph import FlowNetwork


def brute_force(net: FlowNetwork, failures=()) -> tuple[int, frozenset]:
    """(max-flow value, min-cut source side) of the network minus failures.

    The returned source side is a valid partition witness: the number of
    surviving edges crossing it equals the value (checked here, also under
    python -O, which doubles as a duality self-check on every call).
    """
    banned = set(failures)
    capacity: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {v: [] for v in range(net.n)}
    for eid, (u, v) in net.edges.items():
        if eid in banned or u == v:
            continue
        if (u, v) not in capacity:
            capacity[(u, v)] = 0
            if (v, u) not in capacity:
                capacity[(v, u)] = 0
                adj[v].append(u)
            adj[u].append(v)
        capacity[(u, v)] += 1

    def augmenting_path():
        stack = [(net.s, (net.s,))]
        seen = {net.s}
        while stack:
            u, path = stack.pop()
            if u == net.t:
                return path
            for v in adj[u]:
                if v not in seen and capacity[(u, v)] > 0:
                    seen.add(v)
                    stack.append((v, path + (v,)))
        return None

    value = 0
    while True:
        path = augmenting_path()
        if path is None:
            break
        for u, v in zip(path, path[1:]):
            capacity[(u, v)] -= 1
            capacity[(v, u)] += 1
        value += 1

    side = {net.s}
    stack = [net.s]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in side and capacity[(u, v)] > 0:
                side.add(v)
                stack.append(v)
    source_side = frozenset(side)
    crossing = sum(
        1
        for eid, (u, v) in net.edges.items()
        if eid not in banned and u in source_side and v not in source_side
    )
    if crossing != value:
        raise InternalInvariantError("max-flow/min-cut duality broke")
    return value, source_side
