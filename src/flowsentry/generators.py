"""Instance generators for tests, verification, and the CLI.

All families are deterministic functions of their parameters (and seed,
where one applies): building the same spec twice yields byte-identical
serialized graphs. The twopaths and matrix families are the two
information-theoretic hard instances; their decode conventions are
documented on the helpers the tests use.
"""

import random

from .graph import DirectedMultigraph, FlowNetwork


def gen_diamond() -> FlowNetwork:
    """s=0, a=1, b=2, t=3; two vertex-disjoint length-2 paths."""
    g = DirectedMultigraph(4, {0: (0, 1), 1: (1, 3), 2: (0, 2), 3: (2, 3)})
    return FlowNetwork(g, 0, 3)


def gen_bottleneck(lam: int) -> FlowNetwork:
    """s=0, x=1, t=2; lam parallel edges in, lam+1 parallel edges out."""
    if lam < 1:
        raise ValueError("bottleneck needs lam >= 1")
    edges = {}
    for i in range(lam):
        edges[i] = (0, 1)
    for i in range(lam + 1):
        edges[lam + i] = (1, 2)
    return FlowNetwork(DirectedMultigraph(3, edges), 0, 2)


def gen_twopaths(n: int) -> FlowNetwork:
    """Two paths sharing their endpoints, laced with one-way crossings.

    n must be even and at least 6. With P = n/2 vertices per path, the
    vertices are s=0, x_1..x_P = 1..P (x_1 and x_P shared with the y
    path), interior y_2..y_{P-1} = P+1..2P-2, t = n-1. Edges: (s,x_1),
    both paths, (x_P,t), and a crossing (x_i,y_i) for i in [2,P-1].
    Max-flow is 1; failing (x_i,x_{i+1}) together with (y_{i-1},y_i)
    leaves exactly one s-t path, which switches sides at crossing i.
    """
    if n < 6 or n % 2:
        raise ValueError("twopaths needs an even n >= 6")
    p = n // 2

    def x(i):
        return i

    def y(i):
        if i == 1 or i == p:
            return x(i)
        return p + i - 1

    s, t = 0, n - 1
    edges = {}

    def add(u, v):
        edges[len(edges)] = (u, v)

    add(s, x(1))
    for i in range(1, p):
        add(x(i), x(i + 1))
    add(x(p), t)
    for i in range(1, p):
        add(y(i), y(i + 1))
    for i in range(2, p):
        add(x(i), y(i))
    return FlowNetwork(DirectedMultigraph(n, edges), s, t)


def gen_matrix(r: int, length: int, seed: int | None = None,
               matrices=None) -> FlowNetwork:
    """2r disjoint s-t paths with matrix-controlled x->y crossings.

    Path X_i = (s, x_{1,i}, .., x_{L,i}, t) and likewise Y_j, all
    internally vertex-disjoint, L = length. For k in [1,L], the edge
    (x_{k,i}, y_{k,j}) exists iff bit [i][j] of the k-th matrix is 1.
    Matrices come from the seed (r*r bits each, row-major, one matrix
    per k) unless explicit 0/1 matrices are passed. Max-flow is 2r.
    """
    if r < 1 or length < 1:
        raise ValueError("matrix needs r >= 1 and length >= 1")
    if matrices is None:
        if seed is None:
            raise ValueError("matrix needs a seed or explicit matrices")
        rng = random.Random(seed)
        matrices = [
            [[rng.getrandbits(1) for _ in range(r)] for _ in range(r)]
            for _ in range(length)
        ]
    if len(matrices) != length or any(
        len(m) != r or any(len(row) != r for row in m) for m in matrices
    ):
        raise ValueError("matrices must be `length` binary r-by-r grids")
    n = 2 * r * length + 2
    s, t = 0, n - 1
    edges = {}

    def add(u, v):
        edges[len(edges)] = (u, v)

    for i in range(1, r + 1):
        add(s, matrix_x_vertex(r, length, 1, i))
        for k in range(1, length):
            add(matrix_x_vertex(r, length, k, i),
                matrix_x_vertex(r, length, k + 1, i))
        add(matrix_x_vertex(r, length, length, i), t)
    for j in range(1, r + 1):
        add(s, matrix_y_vertex(r, length, 1, j))
        for k in range(1, length):
            add(matrix_y_vertex(r, length, k, j),
                matrix_y_vertex(r, length, k + 1, j))
        add(matrix_y_vertex(r, length, length, j), t)
    for k in range(1, length + 1):
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if matrices[k - 1][i - 1][j - 1]:
                    add(matrix_x_vertex(r, length, k, i),
                        matrix_y_vertex(r, length, k, j))
    return FlowNetwork(DirectedMultigraph(n, edges), s, t)


def matrix_x_vertex(r: int, length: int, k: int, i: int) -> int:
    """Vertex id of x_{k,i} (1-based k in [1,L], i in [1,r])."""
    return 1 + (i - 1) * length + (k - 1)


def matrix_y_vertex(r: int, length: int, k: int, j: int) -> int:
    """Vertex id of y_{k,j} (1-based k in [1,L], j in [1,r])."""
    return 1 + r * length + (j - 1) * length + (k - 1)


def gen_random(n: int, seed: int, density: int = 35) -> FlowNetwork:
    """Layered DAG with sprinkled back edges and parallel duplicates.

    density is a percentage steering how many of the candidate
    forward edges appear. The result may be disconnected; callers that
    need max-flow >= 1 must check.
    """
    if n < 2:
        raise ValueError("random needs n >= 2")
    if not 1 <= density <= 100:
        raise ValueError("density is a percentage in [1,100]")
    rng = random.Random(seed)
    s, t = 0, n - 1
    layers = {s: 0, t: n}
    n_layers = max(2, (n - 2) // 3 + 1)
    for v in range(1, n - 1):
        layers[v] = rng.randint(1, n_layers)
    edges = {}

    def add(u, v):
        edges[len(edges)] = (u, v)

    for u in range(n):
        for v in range(n):
            if u == v or layers[u] >= layers[v]:
                continue
            if rng.randint(1, 100) <= density:
                add(u, v)
                if rng.randint(1, 100) <= max(1, density // 5):
                    add(u, v)
    for u in range(1, n - 1):
        for v in range(1, n - 1):
            if layers[u] > layers[v] and rng.randint(1, 300) <= density:
                add(u, v)
    return FlowNetwork(DirectedMultigraph(n, edges), s, t)


FAMILIES = ("random", "diamond", "bottleneck", "twopaths", "matrix")


def generate(family: str, sizes, seed: int = 0) -> FlowNetwork:
    """CLI dispatch: build a family instance from its size list."""
    sizes = list(sizes)

    def arity(k):
        if len(sizes) != k:
            raise ValueError(
                f"family {family} takes {k} size parameter(s), "
                f"got {len(sizes)}"
            )

    if family == "diamond":
        arity(0)
        return gen_diamond()
    if family == "bottleneck":
        arity(1)
        return gen_bottleneck(sizes[0])
    if family == "twopaths":
        arity(1)
        return gen_twopaths(sizes[0])
    if family == "matrix":
        arity(2)
        return gen_matrix(sizes[0], sizes[1], seed=seed)
    if family == "random":
        if len(sizes) == 1:
            return gen_random(sizes[0], seed)
        arity(2)
        return gen_random(sizes[0], seed, density=sizes[1])
    raise ValueError(f"unknown family {family!r}; choices: {FAMILIES}")
