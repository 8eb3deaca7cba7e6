"""Escape-link experiment: splice one edge from a dead-end node into the
giant SCC and measure how the dead-end's rank and block mass respond across
damping values.  The block's captive mass can only shrink once it leaks, and
it shrinks more the stronger the damping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bowtie import BlockDecomposition, BowtieLabeling
from .graph import GraphHandle, with_edge
from .pagerank import PageRankConfig, pagerank, rank_of


@dataclass(frozen=True)
class ExperimentRow:
    damping: float
    rank_without_link: int
    rank_with_link: int
    block_mass_without: float
    block_mass_with: float


@dataclass(frozen=True)
class ExperimentReport:
    source: int                    # the dead-end node gaining the escape link
    target: int                    # giant-SCC node it now points to
    block_nodes: tuple[int, ...]   # the source's recurrent block, pre-link
    rows: tuple[ExperimentRow, ...]


def run_link_experiment(g: GraphHandle, labels: BowtieLabeling,
                        blocks: BlockDecomposition, source: int, target: int,
                        damping_values,
                        tolerance: float = PageRankConfig.tolerance) -> ExperimentReport:
    """Recompute ranks with and without the edge ``source -> target``.

    ``source`` must sit in a recurrent block and ``target`` in the giant SCC.
    Rank positions are 1-based with ties broken toward the smaller node id;
    block masses sum the original block's nodes under both vectors.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"node {source} outside [0, {g.n})")
    block_id = blocks.block_of(source)
    if block_id < 0:
        raise ValueError(f"node {source} is not in a recurrent block")
    if not (0 <= target < g.n and labels.component_of[target] == labels.giant_scc_id):
        raise ValueError(f"node {target} is not in the giant SCC")

    block = np.flatnonzero(blocks.block_index == block_id)
    g_linked = with_edge(g, source, target)

    rows = []
    for c in (float(v) for v in damping_values):
        cfg = PageRankConfig(damping=c, tolerance=tolerance)
        before = pagerank(g, cfg)
        after = pagerank(g_linked, cfg)
        rows.append(ExperimentRow(
            damping=c,
            rank_without_link=before.rank_position(source),
            rank_with_link=after.rank_position(source),
            block_mass_without=float(before.values[block].sum()),
            block_mass_with=float(after.values[block].sum()),
        ))
    return ExperimentReport(source=source, target=target,
                            block_nodes=tuple(block.tolist()),
                            rows=tuple(rows))


def click_rank(clicks: dict[int, float], node: int, n: int) -> int:
    """Rank of ``node`` by click count over all n nodes (missing count as 0),
    same tie rule as score ranks; a node id outside [0, n) is a ValueError."""
    if not 0 <= node < n:
        raise ValueError(f"node {node} outside [0, {n})")
    counts = np.zeros(n)
    for k, v in clicks.items():
        if not 0 <= int(k) < n:
            raise ValueError(f"clicks name node {k}, outside [0, {n})")
        counts[int(k)] = float(v)
    return rank_of(counts, node)
