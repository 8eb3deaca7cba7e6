"""Direct calls into the public functions of each rankmass module, each one a
span.  A group of probes runs on the full workload graph when the workload
exercises that layer and on the owning workload's small twin otherwise, so
every traced result carries every layer metric (see README.md)."""

from __future__ import annotations

import numpy as np

import rankmass as rm
from rankmass import bowtie, operators

SWEEP_GRID = [0.05 * k for k in range(20)]          # the CLI default 0:0.95:0.05
ESCC_GRID = [0.05 * k for k in range(1, 20)]        # 19 cold points, 0.05:0.95:0.05
INSCC_GRID = [0.01 * k for k in range(100)]         # the CLI default 0:0.99:0.01
LINK_DAMPING = [0.5, 0.85, 0.95]

# probe group -> workloads that exercise it on their own graph
GROUP_OWNERS = {
    "link": ("bowtie-large",),
    "pagerank": ("bowtie-large", "inscc-grid"),
    "transient": ("deadend-near1",),
    "inscc": ("inscc-grid",),
}


def structure(tr, path):
    """graph and bowtie layers, always on the workload's own graph."""
    g = tr.call("graph.load_path", rm.load_path, path)
    edges = list(g.edges())
    tr.call("graph.build_graph", rm.build_graph, g.n, edges)
    tr.call("bowtie.scc", rm.strongly_connected_components, g)
    labels = tr.call("bowtie.labeling", rm.bowtie_labeling, g)
    blocks = tr.call("bowtie.blocks", rm.block_decomposition, g, labels)
    return g, labels, blocks


def link(tr, g, labels, blocks, source, target) -> dict:
    tr.call("graph.with_edge", rm.with_edge, g, source, target)
    tr.call("experiment.link", rm.run_link_experiment, g, labels, blocks,
            source, target, LINK_DAMPING)
    tr.call("bowtie.dual_path", bowtie.dual_path_out_nodes, g, labels, blocks)
    tr.call("bowtie.block_of", lambda: [blocks.block_of(v) for v in range(g.n)])
    return {}


def pagerank(tr, g, labels, blocks, source, target) -> dict:
    pi85 = tr.call("pagerank.power_c85", rm.pagerank, g, rm.PageRankConfig(damping=0.85))
    pi99 = tr.call("pagerank.power_c99", rm.pagerank, g, rm.PageRankConfig(damping=0.99))
    tr.call("pagerank.resolvent_c85", rm.pagerank_via_resolvent, g, 0.85)
    tr.call("pagerank.sweep", rm.damping_sweep, g, labels, blocks, SWEEP_GRID)
    tr.call("pagerank.mass_breakdown", rm.mass_breakdown, pi85, labels, blocks)
    return {"pagerank.power_c85_iters": pi85.iterations_used,
            "pagerank.power_c99_iters": pi99.iterations_used}


def transient(tr, g, labels, blocks, source, target) -> dict:
    nodes = sorted(blocks.transient_set)
    view = tr.call("operators.block_view", operators.block_view, g, nodes, nodes)
    matvecs = 0

    def apply(y):
        nonlocal matvecs
        matvecs += 1
        return view.mul_left(y)

    tr.call("operators.solve_c1", operators.solve_left, apply, np.full(len(nodes), 1.0 / g.n))
    extended = sorted(blocks.escc)
    ext_view = operators.block_view(g, extended, extended)
    tr.call("operators.perron", operators.perron_irreducible, ext_view)
    tr.call("limits.absorption", rm.absorption_weights, g, blocks)
    tr.call("limits.block_stationary",
            lambda: [rm.block_stationary(g, b) for b in blocks.recurrent_blocks])
    tr.call("limits.limit_vector", rm.limit_vector, g, blocks)
    summary = tr.call("escc.spectral_summary", rm.spectral_summary, g, labels, blocks)
    tr.call("escc.expected_visits", rm.expected_visits, g, blocks)
    tr.call("escc.mass_grid", lambda: [rm.escc_mass(g, blocks, c) for c in ESCC_GRID])
    tr.call("escc.prop3", rm.prop3_bounds, g, labels, blocks, ESCC_GRID)
    # the summary is passed in so this span holds the root finding only
    tr.call("escc.cstar_uniform", rm.cstar_solve, g, labels, blocks,
            v_mode="uniform", summary=summary)
    return {"operators.solve_c1_matvecs": matvecs}


def inscc(tr, g, labels, blocks, source, target) -> dict:
    view = tr.call("inscc.three_block_view", rm.three_block_view, g, labels)
    tr.call("inscc.curve", rm.inscc_curve, view, INSCC_GRID)
    tr.call("inscc.derivative_at_zero", rm.derivative_at_zero, view)
    tr.call("inscc.derivative_at_one", rm.derivative_at_one, view)
    tr.call("inscc.unimodality", rm.unimodality_scan, view)
    tr.call("inscc.full_rank_vector", rm.full_rank_vector, view, 0.85)
    return {}


GROUPS = {"link": link, "pagerank": pagerank, "transient": transient, "inscc": inscc}
