"""Immutable sparse directed graph with random-surfer row semantics.

A :class:`GraphHandle` stores forward and reverse adjacency in CSR-style
arrays plus the registry of dangling nodes (zero out-degree).  The implied
transition matrix spreads ``1/out_degree`` over a node's distinct successors
and, for a dangling node, ``1/n`` over every node of the graph.  Dangling
rows are never materialized: matrix products fold them into a single scalar
(the dangling mass) spread uniformly.

:func:`build_graph` is the only code that lays out those arrays.  It sorts an
``(m, 2)`` edge array by (source, target) and drops repeated edges, unless the
array is already strictly increasing, as :func:`dumps` writes it and
:func:`with_edge` passes it; the reverse arrays come from one key sort
(:func:`_reverse_csr`), exact for up to ``MAX_NODES`` nodes.  The store is
numpy-only: the scipy matrix ``w`` is built on first access, for the products.

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

:func:`load_path` and :func:`loads` parse a *plain* edge list in numpy: an
optional ``n <count>`` first line, then only ``<u> <v>\\n`` lines, each id 1 to
18 ASCII digits and below the count.  Any other input goes through the
:func:`load_edge_list` line loop, so every graph and error matches the loop's.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import GraphParseError, GraphRangeError

MAX_NODES = 3_037_000_498   # the _reverse_csr key v * n + u, below n ** 2, stays in int64


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

    @cached_property
    def w(self) -> sparse.csr_matrix:
        """Link weights as a scipy CSR matrix, built on first access; dangling rows are zero."""
        from scipy import sparse
        weights = 1.0 / np.repeat(self.out_degree, self.out_degree)
        return sparse.csr_matrix((weights, self.out_indices, self.out_indptr),
                                 shape=(self.n, self.n))

    @property
    def num_edges(self) -> int:
        return int(self.out_indices.size)

    def out_neighbors(self, i: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[i]:self.out_indptr[i + 1]]

    def is_dangling(self, i: int) -> bool:
        return bool(self.dangling_mask[i])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over the edges as int pairs sorted by (source, target)."""
        sources = np.repeat(np.arange(self.n), self.out_degree)
        return zip(sources.tolist(), self.out_indices.tolist())


def _reverse_csr(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays of the reversed digraph, sources ascending within a target,
    as scipy's CSR -> CSC transpose lays them out: one sort of ``v * n + u``,
    in int64 whatever the input width (scipy narrows its index arrays to int32)."""
    n = indptr.size - 1
    indices = np.asarray(indices, dtype=np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    counts = np.bincount(indices, minlength=n)
    return np.concatenate(([0], np.cumsum(counts))), np.sort(indices * n + sources) % n


def build_graph(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> GraphHandle:
    """Construct a handle from the node count and an ``(m, 2)`` integer array
    or an iterable of ``(u, v)`` pairs.  Repeated edges collapse to one."""
    if n > MAX_NODES:
        raise GraphRangeError(f"node count {n} > graph size limit {MAX_NODES}")
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise GraphRangeError(f"edge endpoint outside [0, {n})")
    u, v = pairs[:, 0], pairs[:, 1].copy()   # the handle owns its arrays
    if not np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))):
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        fresh = np.ones(u.size, dtype=bool)
        fresh[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        u, v = u[fresh], v[fresh]   # sorted by (u, v), so v is the out_indices array

    out_degree = np.bincount(u, minlength=n)
    out_indptr = np.concatenate(([0], np.cumsum(out_degree)))
    dangling_mask = out_degree == 0
    dangling = np.flatnonzero(dangling_mask)
    in_indptr, in_indices = _reverse_csr(out_indptr, v)

    for arr in (out_indptr, v, in_indptr, in_indices, out_degree, dangling, dangling_mask):
        arr.setflags(write=False)
    return GraphHandle(n=int(n), out_indptr=out_indptr, out_indices=v,
                       in_indptr=in_indptr, in_indices=in_indices,
                       out_degree=out_degree, dangling=dangling,
                       dangling_mask=dangling_mask)


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


def _plain_body(body: np.ndarray) -> bool:
    """Whether the bytes are only ``<u> <v>\\n`` lines of 1 to 18 ASCII digits each;
    a function of its own, so its index arrays are freed before the parse."""
    seps = np.flatnonzero(body - ord("0") > 9)   # uint8 wraps, so every non-digit byte
    token_ends = np.diff(seps, prepend=-1)       # token length plus one
    return bool(seps.size % 2 == 0 and body.size == (seps[-1] + 1 if seps.size else 0)
                and np.all(body[seps[0::2]] == ord(" "))
                and np.all(body[seps[1::2]] == ord("\n"))
                and np.all((token_ends >= 2) & (token_ends <= 19)))


def _load_plain(data: bytes) -> GraphHandle | None:
    """The graph of a plain edge list, or None.  Text-mode ``np.fromstring`` takes
    signs and tabs, ignores line ends and clamps ids past int64: hence the check."""
    header = re.match(rb"n ([0-9]{1,18})\n", data)
    start = header.end() if header else 0
    if not _plain_body(np.frombuffer(data, dtype=np.uint8)[start:]):
        return None
    pairs = np.fromstring(data[start:], dtype=np.int64, sep=" ").reshape(-1, 2)
    top = int(pairs.max(initial=-1))
    n = int(header[1]) if header else top + 1
    return build_graph(n, pairs) if top < n else None   # the line loop words the range error


def loads(text: str) -> GraphHandle:
    """Parse edge-list text, splitting lines as :func:`load_path` reads a file."""
    return (_load_plain(text.encode(errors="replace"))
            or load_edge_list(io.StringIO(text, newline=None)))


def load_path(path) -> GraphHandle:
    with open(path, "rb") as fh:
        data = fh.read()
    return _load_plain(data) or load_edge_list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def dumps(g: GraphHandle) -> str:
    """The edge-list text: header line, then edges sorted by (u, v)."""
    return f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


def with_edge(g: GraphHandle, u: int, v: int) -> GraphHandle:
    """Return a new graph with edge ``u -> v`` added.

    The only mutation entry point; used to splice an escape link out of a
    dead-end.  The graph is rebuilt by :func:`build_graph` from its edge
    array with the new edge inserted in (u, v) order, so the edge sort and the
    repeat check are skipped; the reverse arrays take their one key sort.
    Raises if the edge already exists.
    """
    if u < 0 or u >= g.n or v < 0 or v >= g.n:
        raise GraphRangeError(f"edge ({u}, {v}) outside [0, {g.n})")
    if v in g.out_neighbors(u):
        raise ValueError(f"edge ({u}, {v}) already present")
    edges = np.column_stack((np.repeat(np.arange(g.n), g.out_degree), g.out_indices))
    slot = g.out_indptr[u] + np.searchsorted(g.out_neighbors(u), v)
    return build_graph(g.n, np.insert(edges, slot, (u, v), axis=0))
