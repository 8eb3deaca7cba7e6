"""Dense linear-algebra oracles and the random graph suite used across tests.

Everything here recomputes from first principles (dense matrices, direct
solves, full eigendecompositions) so the iterative production paths are
checked against an independent route.
"""

import numpy as np

import rankmass as rm


def dense_w(g) -> np.ndarray:
    """Full transition matrix straight from the definition."""
    w = np.zeros((g.n, g.n))
    for u in range(g.n):
        succ = g.out_neighbors(u)
        if succ.size == 0:
            w[u, :] = 1.0 / g.n
        else:
            w[u, succ] = 1.0 / succ.size
    return w


def dense_google(g, c: float) -> np.ndarray:
    return c * dense_w(g) + (1.0 - c) / g.n


def dense_pagerank(g, c: float) -> np.ndarray:
    """Stationary row vector of the damped chain by direct solve."""
    gm = dense_google(g, c)
    a = (np.eye(g.n) - gm).T
    a[-1, :] = 1.0
    b = np.zeros(g.n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def dense_stationary(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    if n == 1:
        return np.ones(1)
    a = (np.eye(n) - p).T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def dense_perron_left(t: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and probability-normed left eigenvector."""
    vals, vecs = np.linalg.eig(t.T)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    vec = vecs[:, k].real
    vec = np.abs(vec)
    return lam, vec / vec.sum()


def series_terms(apply, x0, tol: float = 1e-14) -> int:
    """Terms ``x0 A^k``, ``apply(x) = x A``, that the series ``x0 [I - A]^{-1}``
    sums: the first k >= 1 with ``||x0 A^k||_1 <= tol``."""
    x, k = np.asarray(x0, dtype=np.float64), 0
    while True:
        x, k = apply(x), k + 1
        if np.abs(x).sum() <= tol:
            return k


def permute_graph(g, perm) -> tuple:
    """Relabeled copy of g and the node map old -> new."""
    perm = list(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return rm.build_graph(g.n, edges), perm


SUITE_SEED = 20260810
SUITE_SIZE = 20


def random_assumption_graph(rng) -> rm.GraphHandle:
    """Random bow-tie-shaped graph: strongly connected core (the giant SCC),
    optional IN feeders, dangling nodes fed only from IN/core, and an OUT
    side made of closed cycles plus a transient chain that terminates in a
    cycle, so no OUT node dangles or links to a dangling node."""
    core = int(rng.integers(4, 13))
    n_in = int(rng.integers(0, 6))
    n_dn = int(rng.integers(1, 9))
    n_chain = int(rng.integers(0, 5))
    cycles = [int(rng.integers(2, core)) for _ in range(int(rng.integers(1, 4)))]
    edges = set()
    base = n_in
    for i in range(core):
        edges.add((base + i, base + (i + 1) % core))
    for _ in range(core):
        u, v = rng.integers(0, core, size=2)
        if u != v:
            edges.add((base + int(u), base + int(v)))
    for i in range(n_in):
        edges.add((i, base + int(rng.integers(0, core))))
        if i + 1 < n_in and rng.random() < 0.5:
            edges.add((i, i + 1))
    dn0 = n_in + core
    for i in range(n_dn):
        edges.add((base + int(rng.integers(0, core)), dn0 + i))
        if n_in and rng.random() < 0.3:
            edges.add((int(rng.integers(0, n_in)), dn0 + i))
    pos = dn0 + n_dn
    chain = list(range(pos, pos + n_chain))
    pos += n_chain
    cycle_sets = []
    for size in cycles:
        nodes = list(range(pos, pos + size))
        pos += size
        for k in range(size):
            edges.add((nodes[k], nodes[(k + 1) % size]))
        edges.add((base + int(rng.integers(0, core)), nodes[0]))
        cycle_sets.append(nodes)
    prev = None
    for t in chain:
        edges.add((base + int(rng.integers(0, core)), t) if prev is None else (prev, t))
        prev = t
    if chain:
        edges.add((chain[-1], cycle_sets[0][0]))
    return rm.build_graph(pos, sorted(edges))


def random_suite(seed: int = SUITE_SEED, count: int = SUITE_SIZE) -> list:
    rng = np.random.default_rng(seed)
    return [random_assumption_graph(rng) for _ in range(count)]


def random_digraph(rng, n: int, p: float) -> rm.GraphHandle:
    """Unstructured random digraph (any shape, dangling allowed anywhere)."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
    return rm.build_graph(n, edges)


def dense_reach(adj: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure of a boolean adjacency matrix (Warshall)."""
    reach = np.asarray(adj, dtype=bool) | np.eye(len(adj), dtype=bool)
    for k in range(len(reach)):
        reach |= np.outer(reach[:, k], reach[k, :])
    return reach


def dense_link_pattern(g, uniform_dangling: bool) -> np.ndarray:
    """Boolean adjacency of g; with ``uniform_dangling`` a dangling row is all
    ones, as in the transition matrix."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u in range(g.n):
        adj[u, g.out_neighbors(u)] = True
        if uniform_dangling and g.is_dangling(u):
            adj[u, :] = True
    return adj


def dense_reach_components(adj: np.ndarray) -> list[list[int]]:
    """SCCs from the transitive closure: i and j share a component exactly
    when each reaches the other.  Sorted, ordered by smallest member."""
    reach = dense_reach(adj)
    mutual = reach & reach.T
    comps, seen = [], np.zeros(len(adj), dtype=bool)
    for i in range(len(adj)):
        if not seen[i]:
            comp = np.flatnonzero(mutual[i])
            seen[comp] = True
            comps.append(comp.tolist())
    return comps
