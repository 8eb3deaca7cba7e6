"""Command-line front end.

One analysis per invocation; every CSV starts with comment lines recording
the tool version, the graph file hash, and the parameters, so runs are
reproducible and self-describing.  Numeric cells carry 17 significant digits
and round-trip through float parsing.

Exit codes: 0 success, 1 validation problem, 2 numerical non-convergence.
A library warning is written to stderr as one ``rankmass: warning:`` line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
import warnings

import numpy as np

from . import __version__
from .bowtie import Label, block_decomposition, bowtie_labeling, dual_path_mask
from .errors import ConvergenceError
from .escc import V_MODES, cstar_solve, prop3_bounds
from .experiment import click_rank, run_link_experiment
from .graph import load_path
from .inscc import (derivative_at_one, derivative_at_zero, inscc_curve,
                    three_block_view)
from .limits import limit_vector
from .operators import DEFAULT_MAX_ITER
from .pagerank import PageRankConfig, damping_sweep, pagerank

USAGE_ERROR = 1
CONVERGENCE_ERROR = 2
MAX_GRID_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep 1 for usage problems
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_ERROR)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _column(values) -> list[str]:
    """``_fmt`` of each entry; in an array one shared string per distinct value but for
    floats (-0 == 0)."""
    if not isinstance(values, np.ndarray):
        return [_fmt(x) for x in values]
    if values.dtype.kind == "f":
        return [format(x, ".17g") for x in values.tolist()]
    distinct, at = np.unique(values, return_inverse=True)
    cells = [_fmt(x) for x in distinct.tolist()]
    return [cells[i] for i in at.tolist()]


def _file_hash(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class CsvReport:
    """CSV with leading '#' comment lines; deterministic for fixed inputs."""

    def __init__(self, graph_path: str, params: dict):
        self.buffer = io.StringIO()
        self.buffer.write(f"# rankmass {__version__}\n")
        self.buffer.write(f"# graph: {graph_path} sha256={_file_hash(graph_path)}\n")
        rendered = " ".join(f"{k}={_fmt(v)}" for k, v in params.items())
        self.buffer.write(f"# params: {rendered}\n")

    def comment(self, text: str):
        self.buffer.write(f"# {text}\n")

    def table(self, header, *columns):
        """The header line, then one row per index of the columns; no cell needs quoting."""
        self.buffer.write(f"{','.join(header)}\n")
        self.buffer.writelines(f"{','.join(cells)}\n" for cells in zip(*map(_column, columns)))

    def save(self, out_path: str | None):
        text = self.buffer.getvalue()
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _parse_grid(text: str) -> list[float]:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ValueError(f"grid must be START:STOP:STEP, got {text!r}") from None
    if not (0.0 <= start <= stop < 1.0):
        raise ValueError(f"grid must satisfy 0 <= START <= STOP < 1, got {text!r}")
    if not 0.0 < step < np.inf:
        raise ValueError(f"grid STEP must be positive and finite, got {text!r}")
    if (stop - start + 1e-12) / step >= MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} points, got {text!r}")
    values = []
    k = 0
    while True:
        c = start + k * step
        if c > stop + 1e-12:
            break
        values.append(min(c, stop))
        k += 1
    return values


def _damping_arg(value: str) -> float:
    # ArgumentTypeError keeps the message verbatim in argparse's report
    try:
        c = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if c == 1.0:
        raise argparse.ArgumentTypeError(
            "damping 1.0 is outside the iterative range; "
            "use the 'limit' command for the c -> 1 vector")
    if not 0.0 <= c < 1.0:
        raise argparse.ArgumentTypeError(f"damping must lie in [0, 1); got {value}")
    return c


def _structures(graph_path: str):
    g = load_path(graph_path)
    labels = bowtie_labeling(g)
    blocks = block_decomposition(g, labels)
    return g, labels, blocks


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _components_within(labels, mask: np.ndarray) -> int:
    """Number of raw SCCs whose every member lies in ``mask``."""
    inside = np.ones(int(labels.component_of.max()) + 1, dtype=bool)
    inside[labels.component_of[~mask]] = False
    return int(inside.sum())


def cmd_decompose(args):
    g, labels, blocks = _structures(args.graph)
    report = CsvReport(args.graph, {"command": "decompose"})
    report.comment(f"total_nodes={g.n}")
    report.comment(f"nodes_in_scc={np.count_nonzero(labels.labels == Label.SCC)}")
    report.comment(f"nodes_in_in={np.count_nonzero(labels.labels == Label.IN)}")
    report.comment(f"nodes_in_out={np.count_nonzero(labels.labels == Label.OUT)}")
    report.comment(f"nodes_in_escc={np.count_nonzero(blocks.escc_mask)}")
    report.comment(f"nodes_in_pure_out={np.count_nonzero(blocks.pure_out_mask)}")
    report.comment(f"sccs_in_out={_components_within(labels, labels.labels == Label.OUT)}")
    report.comment(f"sccs_in_pure_out={_components_within(labels, blocks.pure_out_mask)}")
    names = np.array([label.name for label in Label])
    report.table(["node_id", "bowtie_label", "in_escc", "in_pure_out",
                  "recurrent_block_id", "feeds_dangling_and_deadend"],
                 np.arange(g.n), names[labels.labels], blocks.escc_mask,
                 blocks.pure_out_mask, blocks.block_index, dual_path_mask(g, labels, blocks))
    report.save(args.out)


def cmd_pagerank(args):
    g = load_path(args.graph)
    cfg = PageRankConfig(damping=args.damping, tolerance=args.tol,
                         max_iterations=args.max_iter)
    result = pagerank(g, cfg)
    report = CsvReport(args.graph, {
        "command": "pagerank", "damping": cfg.damping, "tol": cfg.tolerance,
        "max_iter": cfg.max_iterations,
        "iterations_used": result.iterations_used})
    report.table(["node_id", "score"], np.arange(g.n), result.values)
    report.save(args.out)


def cmd_sweep(args):
    g, labels, blocks = _structures(args.graph)
    grid = _parse_grid(args.grid)
    curve = damping_sweep(g, labels, blocks, grid, tolerance=args.tol)
    report = CsvReport(args.graph, {"command": "sweep", "grid": args.grid, "tol": args.tol})
    report.table(["c", "mass_IN", "mass_SCC", "mass_INSCC", "mass_ESCC",
                  "mass_PUREOUT", "mass_DN", "mass_OTHER"],
                 *zip(*[(c, m.by_label["IN"], m.by_label["SCC"], m.in_scc, m.escc,
                         m.pure_out, m.dn, m.by_label["OTHER"]) for c, m in curve]))
    report.save(args.out)


def cmd_limit(args):
    g, labels, blocks = _structures(args.graph)
    result = limit_vector(g, blocks, tol=args.tol)
    report = CsvReport(args.graph, {"command": "limit", "tol": args.tol})
    report.table(["block_id", "size", "fair_share", "absorption_weight", "limit_mass"],
                 range(len(blocks.block_sizes)), blocks.block_sizes,
                 result.fair_shares, result.drain_weights, result.block_masses)
    report.save(args.out)
    if args.vector_out:
        vec = CsvReport(args.graph, {"command": "limit", "output": "vector"})
        vec.table(["node_id", "limit_score"], np.arange(g.n), result.vector)
        vec.save(args.vector_out)


def _three_block(args):
    g = load_path(args.graph)
    return three_block_view(g, bowtie_labeling(g), fold_other=args.fold_other,
                            force_dn_merge=args.force_dn_merge)


def cmd_inscc_curve(args):
    view = _three_block(args)
    grid = _parse_grid(args.grid)
    points = inscc_curve(view, grid, tol=args.tol)
    report = CsvReport(args.graph, {
        "command": "inscc-curve", "grid": args.grid, "tol": args.tol,
        "force_dn_merge": args.force_dn_merge, "alpha": view.alpha, "beta": view.beta})
    report.table(["c", "mass", "main_term", "correction", "d1_estimate", "d2_estimate"],
                 *zip(*[(p.c, p.mass, p.main_term, p.correction,
                         "" if p.d1_estimate is None else p.d1_estimate,
                         "" if p.d2_estimate is None else p.d2_estimate) for p in points]))
    report.save(args.out)


def cmd_inscc_derivatives(args):
    view = _three_block(args)
    at_zero = derivative_at_zero(view)
    at_one = derivative_at_one(view, tol=args.tol)
    report = CsvReport(args.graph, {
        "command": "inscc-derivatives", "tol": args.tol,
        "force_dn_merge": args.force_dn_merge})
    report.table(["quantity", "value"],
                 ["alpha", "beta", "retention_p1", "mass_slope_at_zero",
                  "mass_slope_at_one_exact", "mass_slope_at_one_approx", "leakage"],
                 [view.alpha, view.beta, view.retention_p1(), at_zero.total,
                  at_one.total, at_one.approx_total, at_one.leakage])
    report.save(args.out)


def cmd_escc_bounds(args):
    g, labels, blocks = _structures(args.graph)
    grid = _parse_grid(args.grid)
    bounds = prop3_bounds(g, labels, blocks, grid, tol=args.tol,
                          escc_only=args.exclude_pureout_transients)
    report = CsvReport(args.graph, {
        "command": "escc-bounds", "grid": args.grid, "tol": args.tol,
        "exclude_pureout_transients": args.exclude_pureout_transients,
        "p1": bounds.p1, "lambda1": bounds.lambda1, "gamma": bounds.gamma})
    report.table(["c", "mass", "lower_bound", "upper_bound", "cond_i", "cond_ii"],
                 *zip(*[(row.c, row.mass, row.lower, row.upper,
                         bounds.condition_i, bounds.condition_ii) for row in bounds.rows]))
    report.save(args.out)


def cmd_cstar(args):
    g, labels, blocks = _structures(args.graph)
    result = cstar_solve(g, labels, blocks, v_mode=args.mode,
                         tolerance=args.tol,
                         escc_only=args.exclude_pureout_transients)
    lines = [
        f"mode: {result.v_mode}",
        f"p1: {_fmt(result.p1)}",
        f"lambda1: {_fmt(result.lambda1)}",
        f"gamma: {_fmt(result.gamma)}",
        f"vT_norm: {_fmt(result.vt_norm)}",
        f"c1: {_fmt(result.c1)}",
        f"c2: {_fmt(result.c2)}",
        f"c_star: {_fmt(result.c_star)}",
        f"residual: {_fmt(result.residual)}",
        f"no_crossing: {_fmt(result.no_crossing)}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        report = CsvReport(args.graph, {
            "command": "cstar", "mode": result.v_mode,
            "c1": result.c1, "c2": result.c2, "c_star": result.c_star})
        report.table(["c", "mass", "target"], *zip(*result.samples))
        report.save(args.out)


def cmd_link_experiment(args):
    g, labels, blocks = _structures(args.graph)
    damping_values = [_damping_arg(tok) for tok in args.damping_list.split(",") if tok]
    if not damping_values:
        raise ValueError("damping-list is empty")
    click_position = None
    if args.clicks:   # a bad clicks file fails before the PageRank solves
        click_position = click_rank(_read_clicks(args.clicks), args.source, g.n)
    result = run_link_experiment(g, labels, blocks, args.source, args.target,
                                 damping_values, tolerance=args.tol)

    report = CsvReport(args.graph, {
        "command": "link-experiment", "source": args.source, "target": args.target,
        "damping_list": args.damping_list})
    report.comment(f"block_nodes={list(result.block_nodes)}")
    header = ["c", "rank_without_link", "rank_with_link", "rank_by_clicks",
              "block_mass_without", "block_mass_with"]
    columns = list(zip(*[(r.damping, r.rank_without_link, r.rank_with_link, click_position,
                          r.block_mass_without, r.block_mass_with) for r in result.rows]))
    if click_position is None:
        del header[3], columns[3]
    report.table(header, *columns)
    report.save(args.out)


def _read_clicks(path: str) -> dict[int, float]:
    clicks: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#") or row[0] == "node_id":
                continue
            try:
                node, count = int(row[0]), float(row[1])
            except (IndexError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num}: expected node_id,clicks; "
                                 f"got {row}") from None
            if not 0.0 <= count < np.inf:
                raise ValueError(f"{path}: line {reader.line_num}: click count must be "
                                 f"finite and nonnegative; got {row[1]}")
            clicks[node] = count
    return clicks


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankmass",
                     description="Bow-tie and damping-sensitivity analysis "
                                 "of sparse directed graphs")
    parser.add_argument("--version", action="version", version=f"rankmass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_default=None):
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--out", default=None, help="output CSV (default: stdout)")
        if grid_default:
            p.add_argument("--grid", default=grid_default,
                           help=f"damping grid START:STOP:STEP (default {grid_default})")

    p = sub.add_parser("decompose", help="bow-tie / block classification CSV")
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("pagerank", help="score vector at one damping value")
    common(p)
    p.add_argument("--damping", type=_damping_arg, default=0.85)
    p.add_argument("--tol", type=float, default=1e-12, help="L1 tolerance (default 1e-12)")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help=f"cap on solve steps and walk terms (default {DEFAULT_MAX_ITER})")
    p.set_defaults(fn=cmd_pagerank)

    p = sub.add_parser("sweep", help="component masses across a damping grid")
    common(p, grid_default="0:0.95:0.05")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("limit", help="damping -> 1 limiting masses per dead-end block")
    common(p)
    p.add_argument("--vector-out", default=None, help="also write the full limit vector")
    p.add_argument("--tol", type=float, default=1e-14,
                   help="L1 residual tolerance of the inner solves (default 1e-14)")
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("inscc-curve", help="IN+SCC mass split along a damping grid")
    common(p, grid_default="0:0.99:0.01")
    p.add_argument("--force-dn-merge", action="store_true",
                   help="proceed despite OUT links into dangling nodes")
    p.add_argument("--fold-other", action="store_true",
                   help="treat nodes outside the bow-tie as OUT")
    p.add_argument("--tol", type=float, default=1e-14,
                   help="L1 residual tolerance of the inner solves (default 1e-14)")
    p.set_defaults(fn=cmd_inscc_curve)

    p = sub.add_parser("inscc-derivatives", help="IN+SCC mass slopes at both ends")
    common(p)
    p.add_argument("--force-dn-merge", action="store_true")
    p.add_argument("--fold-other", action="store_true")
    p.add_argument("--tol", type=float, default=1e-14,
                   help="L1 residual tolerance of the inner solves (default 1e-14)")
    p.set_defaults(fn=cmd_inscc_derivatives)

    p = sub.add_parser("escc-bounds", help="mass of the transient block with envelope bounds")
    common(p, grid_default="0.05:0.95:0.05")
    p.add_argument("--exclude-pureout-transients", action="store_true",
                   help="restrict the block to the extended component proper")
    p.add_argument("--tol", type=float, default=1e-14,
                   help="L1 residual tolerance of the inner solves (default 1e-14)")
    p.set_defaults(fn=cmd_escc_bounds)

    p = sub.add_parser("cstar", help="damping value balancing mass share and retention")
    common(p)
    p.add_argument("--mode", choices=sorted(V_MODES), default="uniform")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--exclude-pureout-transients", action="store_true")
    p.set_defaults(fn=cmd_cstar)

    p = sub.add_parser("link-experiment",
                       help="rank shift from splicing an escape link out of a dead-end")
    common(p)
    p.add_argument("--source", type=int, required=True, help="node in a recurrent block")
    p.add_argument("--target", type=int, required=True, help="node in the giant SCC")
    p.add_argument("--damping-list", default="0.5,0.85,0.95")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--clicks", default=None,
                   help="optional CSV node_id,clicks for a click-rank column")
    p.set_defaults(fn=cmd_link_experiment)

    return parser


def _show_warning(message, *_):
    """A library warning as one stderr line, without the path and source line."""
    sys.stderr.write(f"rankmass: warning: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning   # restored when the block exits
        try:
            args.fn(args)
        except ConvergenceError as exc:
            sys.stderr.write(f"rankmass: non-convergence: {exc}\n")
            return CONVERGENCE_ERROR
        except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
            sys.stderr.write(f"rankmass: error: {exc}\n")
            return USAGE_ERROR
        except MemoryError as exc:
            sys.stderr.write(f"rankmass: error: {str(exc) or 'out of memory'}\n")
            return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
