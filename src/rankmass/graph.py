"""Immutable sparse directed graph with random-surfer row semantics.

A :class:`GraphHandle` stores forward and reverse adjacency in CSR-style
arrays plus the registry of dangling nodes (zero out-degree).  The implied
transition matrix spreads ``1/out_degree`` over a node's distinct successors
and, for a dangling node, ``1/n`` over every node of the graph.  Dangling
rows are never materialized: matrix products fold them into a single scalar
(the dangling mass) spread uniformly.

:func:`build_graph` is the only code that lays out those arrays: it sorts an
``(m, 2)`` edge array by (source, target) once and drops repeated edges.  The
parser hands it the ids it read as one array, and :func:`with_edge` rebuilds
through it, O(m log m).

Edge-list text format::

    # comment
    n 12          <- optional header fixing the node count
    0 1
    0 5

Without a header the node count is one plus the largest id seen, which must
fit in int64.  Duplicate edges collapse to one; self-loops are kept and count
toward the out-degree.  Lines end at ``\n``, ``\r`` or ``\r\n`` only, as a
text file reads them; any other whitespace, form feeds and Unicode line
separators included, separates tokens.
"""

from __future__ import annotations

import io
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
        """Iterate over the edges as int pairs sorted by (source, target)."""
        sources = np.repeat(np.arange(self.n), self.out_degree)
        return zip(sources.tolist(), self.out_indices.tolist())


@dataclass(frozen=True, eq=False)
class HyperlinkRow:
    """One row of the transition matrix.

    ``uniform`` rows stand for weight ``1/n`` to every node; link rows carry
    ``weight`` on each listed target.  Either way the row sums to one.
    """

    uniform: bool
    targets: np.ndarray | None
    weight: float


def build_graph(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> GraphHandle:
    """Construct a handle from the node count and an ``(m, 2)`` integer array
    or an iterable of ``(u, v)`` pairs.  Repeated edges collapse to one."""
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise GraphRangeError(f"edge endpoint outside [0, {n})")
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    u, v = pairs[order, 0], pairs[order, 1]
    fresh = np.ones(u.size, dtype=bool)
    fresh[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    u, v = u[fresh], v[fresh]   # sorted by (u, v), so v is the out_indices array

    out_degree = np.bincount(u, minlength=n)
    out_indptr = np.concatenate(([0], np.cumsum(out_degree)))
    in_indptr = np.concatenate(([0], np.cumsum(np.bincount(v, minlength=n))))
    in_indices = u[np.argsort(v, kind="stable")]  # keeps sources ascending within a target
    dangling_mask = out_degree == 0
    dangling = np.flatnonzero(dangling_mask)
    weights = 1.0 / np.repeat(out_degree, out_degree)
    w = sparse.csr_matrix((weights, v, out_indptr), shape=(n, n))

    for arr in (out_indptr, v, in_indptr, in_indices, out_degree, dangling, dangling_mask):
        arr.setflags(write=False)
    return GraphHandle(n=int(n), out_indptr=out_indptr, out_indices=v,
                       in_indptr=in_indptr, in_indices=in_indices,
                       out_degree=out_degree, dangling=dangling,
                       dangling_mask=dangling_mask, w=w)


def load_edge_list(stream: IO[str] | Iterable[str]) -> GraphHandle:
    """Parse the edge-list text format from a stream of lines.

    Raises :class:`GraphParseError` on malformed lines and
    :class:`GraphRangeError` when an id is outside a declared header count
    or, without a header, past the int64 range.
    """
    declared_n: int | None = None
    bound = np.iinfo(np.int64).max   # ids stay below it, so the count fits in int64
    flat: list[int] = []
    for lineno, raw in enumerate(stream, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "n":
            if declared_n is not None:
                raise GraphParseError("duplicate header", lineno)
            if flat:
                raise GraphParseError("header must precede edges", lineno)
            if len(tokens) != 2:
                raise GraphParseError("header must be 'n <count>'", lineno)
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise GraphParseError(f"bad node count {tokens[1]!r}", lineno) from None
            if declared_n < 0:
                raise GraphParseError("node count must be non-negative", lineno)
            if declared_n > bound:
                raise GraphRangeError(f"node count {declared_n} > int64 limit {bound}", lineno)
            bound = declared_n
            continue
        if len(tokens) != 2:
            raise GraphParseError(f"expected 'u v', got {raw.strip()!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {raw.strip()!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"negative node id in {raw.strip()!r}", lineno)
        if u >= bound or v >= bound:
            what = "int64 limit" if declared_n is None else "declared count"
            raise GraphRangeError(f"node id {max(u, v)} >= {what} {bound}", lineno)
        flat += (u, v)
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
    if declared_n is None:
        declared_n = int(pairs.max()) + 1 if pairs.size else 0
    return build_graph(declared_n, pairs)


def loads(text: str) -> GraphHandle:
    """Parse edge-list text, splitting lines as :func:`load_path` reads a file."""
    return load_edge_list(io.StringIO(text, newline=None))


def load_path(path) -> GraphHandle:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def dump_edge_list(g: GraphHandle, stream: IO[str]) -> None:
    """Write :func:`dumps` of the graph to ``stream``."""
    stream.write(dumps(g))


def dumps(g: GraphHandle) -> str:
    """The edge-list text: header line, then edges sorted by (u, v)."""
    return f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


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
    dead-end.  The graph is rebuilt by :func:`build_graph` from its edge
    array plus the new edge, an O(m log m) sort.  Raises if the edge
    already exists.
    """
    if u < 0 or u >= g.n or v < 0 or v >= g.n:
        raise GraphRangeError(f"edge ({u}, {v}) outside [0, {g.n})")
    if v in g.out_neighbors(u):
        raise ValueError(f"edge ({u}, {v}) already present")
    sources = np.append(np.repeat(np.arange(g.n), g.out_degree), u)
    return build_graph(g.n, np.column_stack((sources, np.append(g.out_indices, v))))


def dense_hyperlink_matrix(g: GraphHandle) -> np.ndarray:
    """Materialize the full transition matrix, dangling rows included.

    Intended for the small-matrix verification instruments; quadratic in n.
    """
    w = np.asarray(g.w.todense(), dtype=np.float64)
    if g.dangling.size:
        w[g.dangling, :] = 1.0 / g.n
    return w
