"""Command-line front end.

One analysis per invocation; every CSV starts with comment lines recording
the tool version, the graph file hash, and the parameters, so runs are
reproducible and self-describing.  ``csvtext`` renders the table rows; its
docstring gives the cell rules, and a cell reads as ``_fmt`` writes it.

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
from .csvtext import check_cell, table_rows
from .errors import ConvergenceError
from .escc import V_MODES, cstar_solve, prop3_bounds
from .experiment import click_rank, run_link_experiment
from .graph import load_path
from .inscc import (derivative_at_one, derivative_at_zero, inscc_curve,
                    three_block_view)
from .limits import limit_vector
from .operators import check_tolerance
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
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


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
        """The header line, then one row per index of the columns, which must
        be one per header name and of one length; a cell as ``_fmt`` writes it."""
        if len(header) != len(columns):
            raise ValueError(f"table header names {len(header)} columns, got {len(columns)}")
        self.buffer.write(f"{','.join(map(check_cell, header))}\n")
        self.buffer.writelines(table_rows(columns))

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
    values = [start]
    k = 1
    while (c := start + k * step) <= stop + 1e-12:
        if min(c, stop) > values[-1]:   # a STEP below the slack, or the ulp, repeats a value
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
    cfg = PageRankConfig(damping=args.damping, tolerance=args.tol)
    result = pagerank(g, cfg)
    report = CsvReport(args.graph, {
        "command": "pagerank", "damping": cfg.damping, "tol": cfg.tolerance,
        "iterations_used": result.iterations_used})
    report.table(["node_id", "score"], np.arange(g.n), result.values)
    report.save(args.out)


def cmd_sweep(args):
    grid = _parse_grid(args.grid)
    g, labels, blocks = _structures(args.graph)
    curve = damping_sweep(g, labels, blocks, grid, tolerance=args.tol)
    report = CsvReport(args.graph, {"command": "sweep", "grid": args.grid, "tol": args.tol})
    report.table(["c", "mass_IN", "mass_SCC", "mass_INSCC", "mass_ESCC",
                  "mass_PUREOUT", "mass_DN", "mass_OTHER"],
                 *zip(*[(c, m.by_label["IN"], m.by_label["SCC"], m.in_scc, m.escc,
                         m.pure_out, m.dn, m.by_label["OTHER"]) for c, m in curve]))
    report.save(args.out)


def cmd_limit(args):
    g, labels, blocks = _structures(args.graph)
    result = limit_vector(g, blocks)
    report = CsvReport(args.graph, {"command": "limit"})
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
    grid = _parse_grid(args.grid)
    view = _three_block(args)
    points = inscc_curve(view, grid)
    report = CsvReport(args.graph, {
        "command": "inscc-curve", "grid": args.grid,
        "force_dn_merge": args.force_dn_merge, "alpha": view.alpha, "beta": view.beta})
    report.table(["c", "mass", "main_term", "correction", "d1_estimate", "d2_estimate"],
                 *zip(*[(p.c, p.mass, p.main_term, p.correction,
                         "" if p.d1_estimate is None else _fmt(p.d1_estimate),
                         "" if p.d2_estimate is None else _fmt(p.d2_estimate))
                        for p in points]))
    report.save(args.out)


def cmd_inscc_derivatives(args):
    view = _three_block(args)
    at_zero = derivative_at_zero(view)
    at_one = derivative_at_one(view)
    report = CsvReport(args.graph, {
        "command": "inscc-derivatives", "force_dn_merge": args.force_dn_merge})
    report.table(["quantity", "value"],
                 ["alpha", "beta", "retention_p1", "mass_slope_at_zero",
                  "mass_slope_at_one_exact", "mass_slope_at_one_approx", "leakage"],
                 [view.alpha, view.beta, view.retention_p1(), at_zero.total,
                  at_one.total, at_one.approx_total, at_one.leakage])
    report.save(args.out)


def cmd_escc_bounds(args):
    grid = _parse_grid(args.grid)
    g, labels, blocks = _structures(args.graph)
    bounds = prop3_bounds(g, labels, blocks, grid, escc_only=args.exclude_pureout_transients)
    report = CsvReport(args.graph, {
        "command": "escc-bounds", "grid": args.grid,
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
    damping_values = [_damping_arg(tok) for tok in args.damping_list.split(",") if tok]
    if not damping_values:
        raise ValueError("damping-list is empty")
    g, labels, blocks = _structures(args.graph)
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

# subcommand: (help line, handler); build_parser adds the arguments
_COMMANDS = {
    "decompose": ("bow-tie / block classification CSV", cmd_decompose),
    "pagerank": ("score vector at one damping value", cmd_pagerank),
    "sweep": ("component masses across a damping grid", cmd_sweep),
    "limit": ("damping -> 1 limiting masses per dead-end block", cmd_limit),
    "inscc-curve": ("IN+SCC mass split along a damping grid", cmd_inscc_curve),
    "inscc-derivatives": ("IN+SCC mass slopes at both ends", cmd_inscc_derivatives),
    "escc-bounds": ("mass of the transient block with envelope bounds", cmd_escc_bounds),
    "cstar": ("damping value balancing mass share and retention", cmd_cstar),
    "link-experiment": ("rank shift from splicing an escape link out of a dead-end",
                        cmd_link_experiment),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command``'s alone, which
    is all that parsing one command needs; its help pages, usage lines and
    errors read the same either way."""
    parser = _Parser(prog="rankmass",
                     description="Bow-tie and damping-sensitivity analysis "
                                 "of sparse directed graphs")
    parser.add_argument("--version", action="version", version=f"rankmass {__version__}")
    # alone, the command's parser keeps every name in the usage line an error prints
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    made = {}
    for name in _COMMANDS if command is None else (command,):
        help_line, fn = _COMMANDS[name]
        made[name] = sub.add_parser(name, help=help_line)
        made[name].set_defaults(fn=fn)

    def switches(p, *flags):
        """Flags that several subcommands take, each with its one help string."""
        for flag in flags:
            p.add_argument(flag, action="store_true", help={
                "--force-dn-merge": "proceed despite OUT links into dangling nodes",
                "--fold-other": "treat nodes outside the bow-tie as OUT",
                "--exclude-pureout-transients":
                    "restrict the block to the extended component proper",
            }[flag])

    def common(p, grid_default=None):
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--out", default=None, help="output CSV (default: stdout)")
        if grid_default:
            p.add_argument("--grid", default=grid_default,
                           help=f"damping grid START:STOP:STEP (default {grid_default})")

    def pagerank_tol(p, bound):
        p.add_argument("--tol", type=float, default=PageRankConfig.tolerance,
                       help=f"{bound} (default {PageRankConfig.tolerance:g})")

    if p := made.get("decompose"):
        common(p)

    if p := made.get("pagerank"):
        common(p)
        p.add_argument("--damping", type=_damping_arg, default=0.85)
        pagerank_tol(p, "bound on the scores' fixed-point residual, and on their L1 "
                        "error where the solve meets (1 - c) x tol")

    if p := made.get("sweep"):
        common(p, grid_default="0:0.95:0.05")
        pagerank_tol(p, "bound on the L1 error of the masses")

    if p := made.get("limit"):
        common(p)
        p.add_argument("--vector-out", default=None, help="also write the full limit vector")

    if p := made.get("inscc-curve"):
        common(p, grid_default="0:0.99:0.01")
        switches(p, "--force-dn-merge", "--fold-other")

    if p := made.get("inscc-derivatives"):
        common(p)
        switches(p, "--force-dn-merge", "--fold-other")

    if p := made.get("escc-bounds"):
        common(p, grid_default="0.05:0.95:0.05")
        switches(p, "--exclude-pureout-transients")

    if p := made.get("cstar"):
        common(p)
        p.add_argument("--mode", choices=sorted(V_MODES), default="uniform")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="bound max(1e-4 x tol, 1e-12) on the width of the final "
                            "c* bracket (default 1e-6)")
        switches(p, "--exclude-pureout-transients")

    if p := made.get("link-experiment"):
        common(p)
        p.add_argument("--source", type=int, required=True, help="node in a recurrent block")
        p.add_argument("--target", type=int, required=True, help="node in the giant SCC")
        p.add_argument("--damping-list", default="0.5,0.85,0.95")
        pagerank_tol(p, "bound on each PageRank vector's fixed-point residual, and on "
                        "its L1 error where the solve meets (1 - c) x tol")
        p.add_argument("--clicks", default=None,
                       help="optional CSV node_id,clicks for a click-rank column")

    return parser


def _show_warning(message, *_):
    """A library warning as one stderr line, without the path and source line."""
    sys.stderr.write(f"rankmass: warning: {message}\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning   # restored when the block exits
        try:
            if "tol" in vars(args):   # a bad tolerance fails before the graph is read
                check_tolerance(args.tol)
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
