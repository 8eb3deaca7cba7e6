"""Child process of the benchmark, so that each run's timings, CPU time and
peak memory belong to one fresh process.

    python3 perfbench/worker.py setup GRAPH         # prints set-up seconds
    python3 perfbench/worker.py measure JOB RESULT  # timed command passes
    python3 perfbench/worker.py trace JOB RESULT    # traced pass and probes

JOB and RESULT are JSON files written and read by run.py.  Only the standard
library is imported at module level: ``setup`` times the first import of
rankmass (and with it numpy and scipy).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# the rankmass.cli names a command reaches the library through
CLI_CALLS = ("load_path", "bowtie_labeling", "block_decomposition", "pure_out_nodes",
             "dual_path_out_nodes", "strongly_connected_components", "pagerank",
             "damping_sweep", "limit_vector", "prop3_bounds", "cstar_solve",
             "three_block_view", "inscc_curve", "derivative_at_zero",
             "derivative_at_one", "run_link_experiment")


def setup(graph: str) -> None:
    start = time.perf_counter()
    import rankmass as rm
    g = rm.load_path(graph)
    rm.block_decomposition(g, rm.bowtie_labeling(g))
    print(repr(time.perf_counter() - start))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_command(cli, command: str, argv: list, span=None) -> dict:
    """One CLI invocation in this process, as ``rankmass ARGV`` would run it."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if span is None:
                code = cli.main(argv)
            else:
                with span(f"cli.{command}"):
                    code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    result = {"wall": wall, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    target = argv[argv.index("--out") + 1]
    if code == 0 and os.path.exists(target):
        result["digest"] = hashlib.sha256(
            out.getvalue().encode() + _digest(target).encode()).hexdigest()
    return result


def run_sequence(cli, sequence, span=None, kernel=None) -> tuple[dict, list]:
    """One pass over the commands; returns timings and per-command results.

    With a reference ``kernel``, it runs before the first command and after
    each one, outside the timed regions, and ``kernel`` in the timings holds
    the mean of the two runs around each command."""
    results, walls, cpus, speeds = [], {}, {}, {}
    before = kernel.run() if kernel else None
    for command, argv in sequence:
        cpu = time.process_time()
        results.append(run_command(cli, command, argv, span))
        cpus[command] = time.process_time() - cpu
        walls[command] = results[-1]["wall"]
        if kernel:
            after = kernel.run()
            speeds[command] = (before + after) / 2
            before = after
    timing = {"wall": sum(walls.values()), "cpu": sum(cpus.values()),
              "commands": walls, "cpu_commands": cpus}
    if kernel:
        timing["kernel"] = speeds
    return timing, results


def _failures(sequence, results, reference) -> list:
    failed = []
    for (command, _), r, ref in zip(sequence, results, reference):
        if r["code"] != 0:
            failed.append(f"{command}: exit {r['code']!r} {r['stderr'].strip()[-300:]}")
        elif r.get("digest") != ref.get("digest"):
            failed.append(f"{command}: output differs from the first pass")
    return failed


def _keep_stdout(sequence, results) -> None:
    for (_, argv), r in zip(sequence, results):
        Path(argv[argv.index("--out") + 1] + ".stdout").write_text(r["stdout"])


def measure(job: dict) -> dict:
    from calibration import ReferenceKernel
    from rankmass import cli  # loaded before timing: the import is part of setup_s

    kernel = ReferenceKernel()
    kernel.run()
    sequence = job["sequence"]
    passes, failures, reference = [], [], None
    start = time.perf_counter()
    while True:
        timing, results = run_sequence(cli, sequence, kernel=kernel)
        reference = reference or results
        failures += _failures(sequence, results, reference)
        passes.append(timing)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(passes)
        if elapsed + mean > job["seconds"]:
            break
    _keep_stdout(sequence, reference)
    return {"passes": passes, "attempted": len(passes) * len(sequence),
            "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(job: dict) -> dict:
    import probes
    import rankmass as rm
    from rankmass import cli
    from spans import Tracer, patched

    tracer = Tracer(job["run_id"])
    sequence, foreign = job["sequence"], job["foreign"]
    metrics, failures = {}, []

    # an untimed warm-up pass, then plain passes on both sides of the traced
    # one, so that first-call costs and drift do not show as tracing overhead
    everything = sequence + foreign
    _, reference = run_sequence(cli, everything)
    plain, results = run_sequence(cli, everything)
    failures += _failures(everything, results, reference)
    with patched(cli, CLI_CALLS, tracer) as wrapped:
        traced, results = run_sequence(cli, everything, tracer.span)
    failures += _failures(everything, results, reference)
    plain_again, results = run_sequence(cli, everything)
    failures += _failures(everything, results, reference)
    _keep_stdout(sequence, reference)
    walls = {c: (plain["commands"][c] + plain_again["commands"][c]) / 2 for c in plain["commands"]}
    own = [c for c, _ in sequence]
    metrics["trace.overhead_s"] = sum(traced["commands"][c] - walls[c] for c in own)
    metrics["wall_s"] = sum(walls[c] for c in own)
    metrics["cpu_s"] = sum(plain["cpu_commands"][c] + plain_again["cpu_commands"][c]
                           for c in own) / 2
    for command, wall in walls.items():
        metrics[f"{command.replace('-', '_')}_s"] = wall
        metrics[f"cli.{command}.self_s"] = tracer.self_time(tracer.last(f"cli.{command}"))

    g, labels, blocks = probes.structure(tracer, job["graph"])
    for group, place in job["probe_graphs"].items():
        if place["path"] == job["graph"]:
            graph = (g, labels, blocks)
        else:
            twin = rm.load_path(place["path"])
            twin_labels = rm.bowtie_labeling(twin)
            graph = (twin, twin_labels, rm.block_decomposition(twin, twin_labels))
        metrics.update(probes.GROUPS[group](tracer, *graph, place["source"], place["target"]))
    for span in tracer.spans:
        if span["parent"] is None and not span["name"].startswith("cli."):
            metrics[f"{span['name']}_s"] = tracer.duration(span)

    tracer.dump(job["spans_path"])
    return {"metrics": metrics, "attempted": 4 * len(everything), "failures": failures,
            "wrapped": wrapped, "self_time_by_layer": tracer.self_time_by_layer()}


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1])
        return 0
    job = json.loads(Path(argv[1]).read_text())
    result = {"measure": measure, "trace": trace}[mode](job)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
