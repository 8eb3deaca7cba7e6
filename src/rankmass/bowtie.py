"""Bow-tie structure: strongly connected components, IN/SCC/OUT labels,
the extended component induced by dangling-node uniform rows, and the
recurrent/transient block split.

All structure comes from two routines over CSR arrays, both O(n + m).
:func:`closure` searches level by level in numpy and hands a long path to a
list walk.  :func:`bowtie_labeling` is the one SCC routine: it takes the
component of a high-degree pivot from two closures and runs an iterative
Tarjan walk only on the nodes left over; :func:`strongly_connected_components`
lists its components.  The transition-matrix graph gives every dangling node
a uniform row, an edge to every node, so the nodes that reach a dangling node
form one component, one reverse closure away.  :func:`block_decomposition`
keeps these components; the transient block's classes are read off them, not
re-split, and a block's irreducibility takes at most two closures
(:meth:`operators.SubstochasticBlock.irreducible`).

Components are numbered deterministically by their smallest member and
every node collection is sorted, so downstream CSV output is reproducible
byte for byte.  Node sets are stored only here, as per-node arrays (labels,
component and block ids, masks) that the analyses index with; the few
frozensets and tuples left (``scc_nodes``, ``escc``, ``transient_set``, ...)
are derived from them on each access, and no analysis reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import StructureError
from .graph import GraphHandle


LEVEL_CAP = 64   # numpy levels of a closure before the list walk takes over


class Label(IntEnum):
    IN = 0
    SCC = 1
    OUT = 2
    OTHER = 3


def _split(indptr, indices, known):
    """Raw component labels: -1 on the mask ``known``, the pivot's component
    in :func:`bowtie_labeling`, and iterative Tarjan on the subgraph induced by
    the other nodes, if any (the "Multistep" scheme of Slota, Rajamanickam and
    Madduri, 2014)."""
    rest = np.flatnonzero(~known)
    local = np.full(known.size, -1, dtype=np.int64)
    if not rest.size:
        return local
    local[rest] = np.arange(rest.size)
    pos, ends = _out_edges(indptr, rest)
    targets = local[indices[pos]]
    keep = targets >= 0
    sub_indptr = np.concatenate(([0], np.cumsum(keep)))[np.concatenate(([0], ends))]
    local[rest] = _tarjan(sub_indptr.tolist(), targets[keep].tolist())
    return local


def _tarjan(indptr: list, indices: list) -> list:
    """Tarjan's algorithm with an explicit DFS path in place of recursion."""
    n = len(indptr) - 1
    index = [0] * n          # preorder number; 0 = not visited yet
    low = [0] * n
    comp = [-1] * n          # -1 while the node is on the stack or unvisited
    nxt = indptr[:-1]        # next edge to scan, per node
    stack: list[int] = []
    counter = count = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            p, end = nxt[v], indptr[v + 1]
            while p < end:
                w = indices[p]
                p += 1
                if not index[w]:
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
                elif low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                continue
            nxt[v] = p
            counter += 1
            index[w] = low[w] = counter
            stack.append(w)
            path.append(w)
    return comp


def by_smallest_member(labels: np.ndarray) -> np.ndarray:
    """Renumber arbitrary component labels to ids 0..k-1 that increase with
    each component's smallest member."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.reshape(-1)]


def component_lists(labels: np.ndarray) -> list[list[int]]:
    """Members of each component, sorted, ordered by smallest member."""
    ids = by_smallest_member(labels)
    members = np.argsort(ids, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(ids)).tolist()
    return [members[a:b] for a, b in zip([0] + bounds[:-1], bounds)]


def _node_set(mask: np.ndarray) -> frozenset:
    return frozenset(np.flatnonzero(mask).tolist())


def _out_edges(indptr, rows):
    """Positions of the CSR edges out of ``rows``, and the edge count after each row."""
    starts = indptr[rows]
    degree = indptr[rows + 1] - starts
    ends = np.cumsum(degree)
    return np.repeat(starts - ends + degree, degree) + np.arange(ends[-1] if rows.size else 0), ends


def closure(indptr, indices, seeds) -> np.ndarray:
    """Boolean mask of the nodes reachable from ``seeds`` along CSR edges
    (seeds included).  Pass the reverse adjacency for nodes that reach them.
    The search runs level by level in numpy; past ``LEVEL_CAP`` levels (a long
    path) one list walk finishes it, so the cost stays O(n + m)."""
    seen = np.zeros(indptr.size - 1, dtype=bool)
    seen[seeds] = True
    frontier, owner = np.flatnonzero(seen), np.empty(seen.size, dtype=np.int64)
    for _ in range(LEVEL_CAP):
        if not frontier.size:
            return seen
        targets = indices[_out_edges(indptr, frontier)[0]]
        targets = targets[~seen[targets]]
        at = np.arange(targets.size)
        owner[targets] = at   # one position per node survives: a dedup without a sort
        frontier = targets[owner[targets] == at]
        seen[frontier] = True
    stack, seen = frontier.tolist(), seen.tolist()
    indptr, indices = indptr.tolist(), indices.tolist()
    while stack:
        v = stack.pop()
        for w in indices[indptr[v]:indptr[v + 1]]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return np.array(seen, dtype=bool)


def strongly_connected_components(g: GraphHandle) -> list[list[int]]:
    """SCCs of the raw link graph (dangling rows have no edges)."""
    return component_lists(bowtie_labeling(g).component_of) if g.n else []


@dataclass(frozen=True, eq=False)
class BowtieLabeling:
    """Per-node IN/SCC/OUT/OTHER labels around the giant strongly connected
    component (largest; ties broken by smallest member id)."""

    labels: np.ndarray            # node -> Label code
    component_of: np.ndarray      # node -> raw SCC id, numbered by smallest member
    giant_scc_id: int

    def nodes_with(self, label: Label) -> frozenset:
        return _node_set(self.labels == label)

    @property
    def in_nodes(self) -> frozenset:
        return self.nodes_with(Label.IN)

    @property
    def scc_nodes(self) -> frozenset:
        return self.nodes_with(Label.SCC)

    @property
    def out_nodes(self) -> frozenset:
        return self.nodes_with(Label.OUT)

    @property
    def other_nodes(self) -> frozenset:
        return self.nodes_with(Label.OTHER)


def bowtie_labeling(g: GraphHandle) -> BowtieLabeling:
    """Classify every node as IN, SCC, OUT, or OTHER relative to the giant SCC."""
    if g.n == 0:
        raise StructureError("empty graph has no components")
    pivot = int(np.argmax(g.out_degree * np.diff(g.in_indptr)))   # largest out- times in-degree
    from_scc = closure(g.out_indptr, g.out_indices, [pivot])
    to_scc = closure(g.in_indptr, g.in_indices, [pivot])
    component_of = by_smallest_member(_split(g.out_indptr, g.out_indices, from_scc & to_scc))
    giant_id = int(np.argmax(np.bincount(component_of)))  # first maximum: smallest member
    giant = np.flatnonzero(component_of == giant_id)
    if not (from_scc[giant[0]] and to_scc[giant[0]]):   # the pivot lies outside the giant
        from_scc = closure(g.out_indptr, g.out_indices, giant)
        to_scc = closure(g.in_indptr, g.in_indices, giant)

    labels = np.full(g.n, int(Label.OTHER), dtype=np.int8)
    labels[to_scc] = int(Label.IN)
    labels[from_scc] = int(Label.OUT)
    labels[giant] = int(Label.SCC)
    for arr in (labels, component_of):
        arr.setflags(write=False)
    return BowtieLabeling(labels=labels, component_of=component_of, giant_scc_id=giant_id)


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Recurrent dead-end blocks plus the single transient remainder.

    ``component_of`` numbers the components of the transition-matrix graph,
    where a dangling row links to every node; they are not the raw SCCs of
    ``BowtieLabeling.component_of``.  ``recurrent_blocks`` are the closed ones
    (no mass leaving).  Everything else, including transient states on the
    pure-OUT side, forms ``transient_set``, so its classes are whole components.
    ``permutation`` lists block nodes first, block by block, then transient
    nodes, realizing the block-triangular matrix layout.
    """

    block_index: np.ndarray       # node -> recurrent block index, -1 if transient
    num_blocks: int
    escc_mask: np.ndarray         # node lies in the extended component
    pure_out_mask: np.ndarray     # OUT-labeled node outside the extended component
    dangling_ids: np.ndarray      # the graph's dangling nodes, sorted
    component_of: np.ndarray      # node -> transition-graph component, by smallest member

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.block_index[self.block_index >= 0]).tolist())

    @property
    def permutation(self) -> np.ndarray:
        return np.argsort(np.where(self.block_index < 0, self.num_blocks, self.block_index),
                          kind="stable")

    @property
    def recurrent_blocks(self) -> tuple[tuple[int, ...], ...]:
        ends = np.cumsum(self.block_sizes, dtype=np.int64)
        return tuple(tuple(b.tolist()) for b in np.split(self.permutation, ends)[:-1])

    @property
    def transient_set(self) -> frozenset:
        return _node_set(self.block_index < 0)

    @property
    def escc(self) -> frozenset:
        return _node_set(self.escc_mask)

    def block_of(self, node: int) -> int:
        """Index of the recurrent block holding ``node``, or -1 if transient."""
        return int(self.block_index[node])


def block_decomposition(g: GraphHandle, labels: BowtieLabeling) -> BlockDecomposition:
    """Split nodes into closed recurrent blocks and the transient remainder.

    The transition-matrix components are the raw ones with every node that
    reaches a dangling node merged into one.  A component is closed unless an
    edge leaves it or it holds a dangling row and is not the whole graph.
    """
    comp_of = labels.component_of
    if g.dangling.size:
        comp_of = np.where(closure(g.in_indptr, g.in_indices, g.dangling), -1, comp_of)
    comp_of = by_smallest_member(comp_of)
    count = int(comp_of.max()) + 1

    source_comp = np.repeat(comp_of, g.out_degree)
    opened = np.zeros(count, dtype=bool)
    opened[source_comp[source_comp != comp_of[g.out_indices]]] = True
    if g.dangling.size and count > 1:
        opened[comp_of[g.dangling[0]]] = True

    closed = ~opened
    block_index = np.where(closed, np.cumsum(closed) - 1, -1)[comp_of]
    escc_mask = comp_of == comp_of[np.argmax(labels.component_of == labels.giant_scc_id)]
    pure_out_mask = (labels.labels == Label.OUT) & ~escc_mask
    for arr in (comp_of, block_index, escc_mask, pure_out_mask):
        arr.setflags(write=False)
    return BlockDecomposition(block_index=block_index, num_blocks=int(closed.sum()),
                              escc_mask=escc_mask, pure_out_mask=pure_out_mask,
                              dangling_ids=g.dangling, component_of=comp_of)


def dual_path_mask(g: GraphHandle, labels: BowtieLabeling,
                   blocks: BlockDecomposition) -> np.ndarray:
    """Non-dangling OUT nodes whose raw links lead both to a dangling node and
    into a recurrent block.  These sit on the fence between the extended
    component and the dead-ends; flagged for inspection in CSV output.

    An OUT node reaches a dangling node only if the giant does, and then the
    extended component is the set of nodes that do, so it stands in for that
    closure."""
    reach_block = closure(g.in_indptr, g.in_indices, np.flatnonzero(blocks.block_index >= 0))
    return (labels.labels == Label.OUT) & ~g.dangling_mask & blocks.escc_mask & reach_block


def dual_path_out_nodes(g: GraphHandle, labels: BowtieLabeling,
                        blocks: BlockDecomposition) -> frozenset:
    """The nodes of :func:`dual_path_mask`."""
    return _node_set(dual_path_mask(g, labels, blocks))
