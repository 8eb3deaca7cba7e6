"""Correctness gate, run outside the timed region.

Three kinds of checks, each one counted as an attempted operation:

- library cross-checks on the full workload graph (two PageRank routes, the
  transient-block mass against PageRank, the IN+SCC closed form against
  PageRank), and the bow-tie split against what the generator built;
- dense oracles from ``tests/helpers.py`` on a small twin of the profile;
- the CLI outputs of the measured run, parsed back from their CSV files.
"""

from __future__ import annotations

import csv
import traceback

import numpy as np

import helpers
import rankmass as rm
from rankmass.escc import transient_view
from rankmass.operators import block_view, perron_irreducible

C = 0.85
PR_TOL = 1e-12            # PageRankConfig default, also used by the CLI


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.gaps: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def close(self, name: str, a, b, tol: float) -> None:
        gap = float(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).sum())
        self.gaps[name] = max(gap, self.gaps.get(name, 0.0))
        self.check(name, gap <= tol, f"L1 gap {gap:.3g} > {tol:.3g}")

    def guarded(self, name: str, fn, *args):
        """Run a group of checks; an exception counts as one failed check."""
        try:
            return fn(self, *args)
        except Exception:
            self.check(name, False, traceback.format_exc(limit=4))
            return None


def structures(g):
    labels = rm.bowtie_labeling(g)
    return labels, rm.block_decomposition(g, labels)


def describe(g, labels, blocks) -> dict:
    """n, nnz, and the transient block's one-step retention and Perron root.

    ``lambda1`` is the extended component's Perron root; on these profiles
    the other classes of the transient block are single pure-OUT nodes
    without self-loops, so it is also the transient block's."""
    t_view = transient_view(g, blocks)
    extended = sorted(blocks.escc)
    lam, _ = perron_irreducible(block_view(g, extended, extended))
    return {"n": g.n, "nnz": g.num_edges, "dangling": int(g.dangling.size),
            "recurrent_blocks": blocks.num_blocks, "transient": len(blocks.transient_set),
            "in": len(labels.in_nodes), "scc": len(labels.scc_nodes),
            "out": len(labels.out_nodes), "other": len(labels.other_nodes),
            "p1": float(t_view.row_sums().mean()), "lambda1": float(lam)}


def full_graph(gate: Gate, g, labels, blocks, gen, three_block: bool):
    gate.check("scc_is_generated_core", np.array_equal(
        np.flatnonzero(labels.labels == rm.Label.SCC), gen.core))
    gate.check("in_is_generated_in", np.array_equal(
        np.flatnonzero(labels.labels == rm.Label.IN), gen.in_nodes))
    gate.check("blocks_are_generated_deadends", sorted(blocks.recurrent_blocks)
               == sorted(tuple(int(v) for v in b) for b in gen.deadend_blocks))
    pi = rm.pagerank(g, rm.PageRankConfig(damping=C))
    gate.close("pagerank_vs_resolvent", pi.values,
               rm.pagerank_via_resolvent(g, C).values, 2 * PR_TOL)
    transient = np.asarray(sorted(blocks.transient_set), dtype=np.int64)
    gate.close("escc_mass_vs_pagerank", rm.escc_mass(g, blocks, C),
               pi.values[transient].sum(), 1e-10)
    if three_block:
        full = rm.full_rank_vector(rm.three_block_view(g, labels), C)
        gate.close("full_rank_vector_vs_pagerank", full, pi.values, 1e-10)
        gate.close("full_rank_vector_sums_to_1", full.sum(), 1.0, 1e-12)
    return pi


def dense_limit(g, blocks) -> np.ndarray:
    """The c -> 1 limit from dense matrices: each block's fair share plus what
    drains into it, spread by the block's stationary law."""
    w = helpers.dense_w(g)
    t = sorted(blocks.transient_set)
    drain = np.linalg.solve((np.eye(len(t)) - w[np.ix_(t, t)]).T, np.full(len(t), 1.0 / g.n))
    vector = np.zeros(g.n)
    for block in blocks.recurrent_blocks:
        b = list(block)
        mass = len(b) / g.n + float(drain @ w[np.ix_(t, b)].sum(axis=1))
        vector[b] = mass * helpers.dense_stationary(w[np.ix_(b, b)])
    return vector


def twin(gate: Gate, g) -> None:
    labels, blocks = structures(g)
    pi = rm.pagerank(g, rm.PageRankConfig(damping=C))
    gate.close("twin_pagerank_vs_dense", pi.values, helpers.dense_pagerank(g, C), 1e-10)
    summary = rm.spectral_summary(g, labels, blocks)
    t = sorted(blocks.transient_set)
    lam, vec = helpers.dense_perron_left(helpers.dense_w(g)[np.ix_(t, t)])
    gate.close("twin_lambda1_vs_dense", summary.lambda1, lam, 1e-10)
    gate.close("twin_quasi_stationary_vs_dense", summary.quasi_stationary, vec, 1e-8)
    gate.close("twin_limit_vs_dense", rm.limit_vector(g, blocks).vector,
               dense_limit(g, blocks), 1e-10)


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def read_csv(path) -> tuple[dict, list]:
    """``key=value`` pairs from the comment lines, and the rows under the header."""
    notes, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                for token in line[1:].split():
                    key, sep, value = token.partition("=")
                    if sep:
                        notes[key] = value
            else:
                rows.append(line)
    table = list(csv.reader(rows))
    return notes, table[1:]


def read_summary(path) -> dict:
    """The ``key: value`` lines ``cstar`` prints."""
    with open(path, encoding="utf-8") as fh:
        return dict(line.strip().split(": ", 1) for line in fh if ": " in line)


def _floats(rows, col) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


def check_decompose(gate, path, ctx):
    notes, rows = read_csv(path)
    gen = ctx["gen"]
    gate.check("decompose_rows", len(rows) == gen.n, f"{len(rows)} rows")
    gate.check("decompose_scc", int(notes["nodes_in_scc"]) == gen.core.size)
    gate.check("decompose_in", int(notes["nodes_in_in"]) == gen.in_nodes.size)
    in_block = sorted(int(r[0]) for r in rows if int(r[4]) >= 0)
    gate.check("decompose_blocks", in_block == sorted(
        int(v) for b in gen.deadend_blocks for v in b))


def check_pagerank(gate, path, ctx):
    _, rows = read_csv(path)
    gate.close("cli_pagerank_vs_library", _floats(rows, 1), ctx["pi"].values, 1e-15)


def check_sweep(gate, path, ctx):
    _, rows = read_csv(path)
    m = {name: _floats(rows, k) for k, name in enumerate(
        ("c", "in", "scc", "inscc", "escc", "pureout", "dn", "other"))}
    gate.check("sweep_rows", len(rows) == ctx["sweep_points"], f"{len(rows)} rows")
    gate.close("sweep_escc_pureout_other_sum_to_1",
               m["escc"] + m["pureout"] + m["other"], np.ones(len(rows)), 1e-9)
    gate.close("sweep_inscc_is_in_plus_scc", m["in"] + m["scc"], m["inscc"], 1e-12)
    ctx["sweep_inscc"] = dict(zip(np.round(m["c"], 6), m["inscc"]))


def check_link_experiment(gate, path, ctx):
    _, rows = read_csv(path)
    gate.check("link_rows", len(rows) == 3, f"{len(rows)} rows")
    for r in rows:
        gate.check("link_block_mass_shrinks", float(r[4]) < float(r[3]), str(r))
        gate.check("link_ranks_in_range",
                   1 <= int(r[1]) <= ctx["gen"].n and 1 <= int(r[2]) <= ctx["gen"].n, str(r))


def check_limit(gate, path, ctx):
    _, rows = read_csv(path)
    gate.check("limit_rows", len(rows) == len(ctx["gen"].deadend_blocks), f"{len(rows)} rows")
    gate.close("limit_masses_sum_to_1", _floats(rows, 4).sum(), 1.0, 1e-9)
    gate.check("limit_mass_at_least_fair_share",
               bool(np.all(_floats(rows, 4) >= _floats(rows, 2))))


def check_escc_bounds(gate, path, ctx):
    notes, rows = read_csv(path)
    gate.check("escc_rows", len(rows) == 19, f"{len(rows)} rows")
    at = {round(float(r[0]), 6): float(r[1]) for r in rows}
    gate.close("cli_escc_mass_vs_pagerank", at[C], ctx["transient_mass"], 1e-10)
    ctx["escc_params"] = (notes["p1"], notes["lambda1"])


def check_cstar(gate, path, ctx):
    summary = read_summary(path + ".stdout")
    gate.check("cstar_crossing", summary["no_crossing"] == "false", str(summary))
    c_star = float(summary["c_star"])
    gate.check("cstar_in_range", 0.0 < c_star < 1.0, str(c_star))
    gate.check("cstar_residual", float(summary["residual"]) <= 1e-6, summary["residual"])
    if "escc_params" in ctx:
        gate.check("cstar_matches_escc_bounds",
                   (summary["p1"], summary["lambda1"]) == ctx["escc_params"])


def check_inscc_curve(gate, path, ctx):
    _, rows = read_csv(path)
    gate.check("inscc_curve_rows", len(rows) == 100, f"{len(rows)} rows")
    mass, main, corr = _floats(rows, 1), _floats(rows, 2), _floats(rows, 3)
    gate.close("inscc_split_recomposes", main + corr, mass, 1e-12)
    ctx["inscc_mass"] = dict(zip(np.round(_floats(rows, 0), 6), mass))


def check_inscc_derivatives(gate, path, ctx):
    _, rows = read_csv(path)
    q = {r[0]: float(r[1]) for r in rows}
    gate.close("slope_at_zero_closed_form", q["mass_slope_at_zero"],
               q["alpha"] * (-1.0 + q["beta"] + q["retention_p1"]), 1e-12)
    gate.check("slope_at_one_negative", q["mass_slope_at_one_exact"] < 0.0,
               str(q["mass_slope_at_one_exact"]))


CHECKS = {"decompose": check_decompose, "pagerank": check_pagerank, "sweep": check_sweep,
          "link-experiment": check_link_experiment, "limit": check_limit,
          "escc-bounds": check_escc_bounds, "cstar": check_cstar,
          "inscc-curve": check_inscc_curve, "inscc-derivatives": check_inscc_derivatives}


def outputs(gate: Gate, commands, ctx) -> None:
    """Check each command's output file, in run order, then cross-check the
    IN+SCC closed form against the PageRank sweep on their common grid."""
    for command, path in commands:
        gate.guarded(f"{command}_output", CHECKS[command], path, ctx)
    if "sweep_inscc" in ctx and "inscc_mass" in ctx:
        common = sorted(set(ctx["sweep_inscc"]) & set(ctx["inscc_mass"]))
        gate.check("inscc_curve_grid_matches_sweep", len(common) == 100, f"{len(common)} common")
        gate.close("inscc_curve_vs_sweep", [ctx["inscc_mass"][c] for c in common],
                   [ctx["sweep_inscc"][c] for c in common], 1e-9)
