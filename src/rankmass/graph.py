"""Immutable sparse directed graph with random-surfer row semantics.

A :class:`GraphHandle` stores forward and reverse adjacency in CSR-style
arrays plus the registry of dangling nodes (zero out-degree).  The implied
transition matrix spreads ``1/out_degree`` over a node's distinct successors
and, for a dangling node, ``1/n`` over every node of the graph.  Dangling
rows are never materialized: matrix products fold them into a single scalar
(the dangling mass) spread uniformly.

Edge-list text format::

    # comment
    n 12          <- optional header fixing the node count
    0 1
    0 5

Without a header the node count is one plus the largest id seen.  Duplicate
edges collapse to one; self-loops are kept and count toward the out-degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np
from scipy import sparse

from .errors import GraphParseError, GraphRangeError


@dataclass(frozen=True, eq=False)
class GraphHandle:
    """Read-only directed graph over dense integer node ids ``0..n-1``."""

    n: int
    out_indptr: np.ndarray
    out_indices: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    out_degree: np.ndarray
    dangling: np.ndarray          # sorted ids with zero out-degree
    dangling_mask: np.ndarray
    w: sparse.csr_matrix = field(repr=False)  # link weights only; dangling rows are zero

    @property
    def num_edges(self) -> int:
        return int(self.out_indices.size)

    @property
    def dangling_set(self) -> frozenset:
        return frozenset(int(i) for i in self.dangling)

    def out_neighbors(self, i: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[i]:self.out_indptr[i + 1]]

    def in_neighbors(self, i: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[i]:self.in_indptr[i + 1]]

    def is_dangling(self, i: int) -> bool:
        return bool(self.dangling_mask[i])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges sorted by (source, target)."""
        for u in range(self.n):
            for v in self.out_neighbors(u):
                yield u, int(v)


@dataclass(frozen=True, eq=False)
class HyperlinkRow:
    """One row of the transition matrix.

    ``uniform`` rows stand for weight ``1/n`` to every node; link rows carry
    ``weight`` on each listed target.  Either way the row sums to one.
    """

    uniform: bool
    targets: np.ndarray | None
    weight: float


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> GraphHandle:
    """Construct a handle from distinct node count and an edge iterable."""
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise GraphRangeError(f"edge endpoint outside [0, {n})")
    if pairs.size:
        pairs = np.unique(pairs, axis=0)  # collapses duplicates, sorts by (u, v)
    u, v = pairs[:, 0], pairs[:, 1]

    out_degree = np.bincount(u, minlength=n).astype(np.int64)
    out_indptr = np.concatenate(([0], np.cumsum(out_degree)))
    in_indptr = np.concatenate(([0], np.cumsum(np.bincount(v, minlength=n))))
    order = np.argsort(v, kind="stable")  # keeps sources ascending within a target
    return _handle(n, out_indptr, v.copy(), in_indptr, u[order], out_degree)


def _handle(n: int, out_indptr: np.ndarray, out_indices: np.ndarray,
            in_indptr: np.ndarray, in_indices: np.ndarray,
            out_degree: np.ndarray) -> GraphHandle:
    """Freeze sorted CSR arrays into a handle, deriving dangling nodes and weights."""
    dangling_mask = out_degree == 0
    dangling = np.flatnonzero(dangling_mask)
    weights = 1.0 / np.repeat(out_degree, out_degree)
    w = sparse.csr_matrix((weights, out_indices, out_indptr), shape=(n, n))

    for arr in (out_indptr, out_indices, in_indptr, in_indices, out_degree,
                dangling, dangling_mask):
        arr.setflags(write=False)
    return GraphHandle(n=int(n), out_indptr=out_indptr, out_indices=out_indices,
                       in_indptr=in_indptr, in_indices=in_indices,
                       out_degree=out_degree, dangling=dangling,
                       dangling_mask=dangling_mask, w=w)


def load_edge_list(stream: IO[str] | Iterable[str]) -> GraphHandle:
    """Parse the edge-list text format from a stream of lines.

    Raises :class:`GraphParseError` on malformed lines and
    :class:`GraphRangeError` when an id is outside a declared header count.
    """
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if declared_n is not None:
                raise GraphParseError("duplicate header", lineno)
            if edges:
                raise GraphParseError("header must precede edges", lineno)
            if len(tokens) != 2:
                raise GraphParseError("header must be 'n <count>'", lineno)
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise GraphParseError(f"bad node count {tokens[1]!r}", lineno) from None
            if declared_n < 0:
                raise GraphParseError("node count must be non-negative", lineno)
            continue
        if len(tokens) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"negative node id in {line!r}", lineno)
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise GraphRangeError(
                f"node id {max(u, v)} >= declared count {declared_n}", lineno)
        max_id = max(max_id, u, v)
        edges.append((u, v))
    n = declared_n if declared_n is not None else max_id + 1
    return build_graph(n, edges)


def loads(text: str) -> GraphHandle:
    return load_edge_list(text.splitlines())


def load_path(path) -> GraphHandle:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def dump_edge_list(g: GraphHandle, stream: IO[str]) -> None:
    """Write :func:`dumps` of the graph to ``stream``."""
    stream.write(dumps(g))


def dumps(g: GraphHandle) -> str:
    """The edge-list text: header line, then edges sorted by (u, v)."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def hyperlink_row(g: GraphHandle, i: int) -> HyperlinkRow:
    """Row ``i`` of the transition matrix: successors with weight ``1/d_i``,
    or the uniform marker (weight ``1/n``) for a dangling node."""
    if i < 0 or i >= g.n:
        raise GraphRangeError(f"node {i} outside [0, {g.n})")
    if g.dangling_mask[i]:
        return HyperlinkRow(uniform=True, targets=None, weight=1.0 / g.n)
    return HyperlinkRow(uniform=False, targets=g.out_neighbors(i),
                        weight=1.0 / float(g.out_degree[i]))


def with_edge(g: GraphHandle, u: int, v: int) -> GraphHandle:
    """Return a new graph with edge ``u -> v`` added.

    The only mutation entry point; used to splice an escape link out of a
    dead-end.  The edge is inserted into the sorted CSR arrays in O(n + m)
    array operations.  Raises if the edge already exists.
    """
    if u < 0 or u >= g.n or v < 0 or v >= g.n:
        raise GraphRangeError(f"edge ({u}, {v}) outside [0, {g.n})")
    out_row = g.out_neighbors(u)
    if v in out_row:
        raise ValueError(f"edge ({u}, {v}) already present")
    out_pos = int(g.out_indptr[u]) + int(np.searchsorted(out_row, v))
    in_pos = int(g.in_indptr[v]) + int(np.searchsorted(g.in_neighbors(v), u))
    out_indptr = g.out_indptr.copy()
    out_indptr[u + 1:] += 1
    in_indptr = g.in_indptr.copy()
    in_indptr[v + 1:] += 1
    out_degree = g.out_degree.copy()
    out_degree[u] += 1
    return _handle(g.n, out_indptr, np.insert(g.out_indices, out_pos, v),
                   in_indptr, np.insert(g.in_indices, in_pos, u), out_degree)


def dense_hyperlink_matrix(g: GraphHandle) -> np.ndarray:
    """Materialize the full transition matrix, dangling rows included.

    Intended for the small-matrix verification instruments; quadratic in n.
    """
    w = np.asarray(g.w.todense(), dtype=np.float64)
    if g.dangling.size:
        w[g.dangling, :] = 1.0 / g.n
    return w
