"""rankmass benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it reads ``src/`` and
``tests/helpers.py`` there and writes only under ``.bench_work/``.  The
graph is generated from the seed before anything is timed.  With
``--trace 0`` it times set-up in fresh processes, then repeats the
workload's CLI command sequence in one child process for about S seconds
and reports the end-to-end metrics.  With ``--trace 1`` it runs the
sequence to warm up, plain, with spans and plain again, times the public
functions of every module, and reports the per-layer metrics.  Either way
the correctness gate runs afterwards, outside the timed region.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the seed, the edge-file hash, the graph's structure, the
environment and any failures.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 5
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "BOWTIE_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BOWTIE_THREADS", None)  # the workloads are single-threaded, as users get them
    return env


def run_child(args: list, deadline: float) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


def grid_points(argv: list) -> int:
    start, stop, step = (float(x) for x in (
        argv[argv.index("--grid") + 1] if "--grid" in argv else "0:0.95:0.05").split(":"))
    return int(round((stop - start) / step)) + 1


def unit(name: str) -> str:
    return "count" if name.endswith(("_iters", "_matvecs")) else "s"


def run_workload(wl, seed: int, seconds: float, trace: int, work: Path) -> tuple[dict, dict]:
    """One run of one workload in the empty directory ``work``; returns the
    ``info`` object and the result."""
    for path in (ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import bowtiegen
    import gate as checks
    from calibration import REFERENCE_S
    import probes
    import rankmass as rm
    from workloads import COMMAND_OWNER, TWIN_N, WORKLOADS, argv

    deadline = time.monotonic() + RUN_LIMIT_S
    (work / "foreign").mkdir(parents=True)
    gen = bowtiegen.generate(wl.profile, seed)
    graph = str(work / "graph.edges")
    edge_sha = gen.write(graph)
    twins = {}  # workload name -> (generated twin, its edge file)
    for name, profile in {**{w.name: w.profile for w in WORKLOADS.values()},
                          wl.name: wl.profile}.items():
        twins[name] = (bowtiegen.generate(profile.twin(TWIN_N), seed),
                       str(work / f"twin-{name}.edges"))
        twins[name][0].write(twins[name][1])
    sequence = [[cmd, argv(cmd, extra, graph, str(work / f"{cmd}.csv"), gen)]
                for cmd, extra in wl.commands]

    if trace == 0:
        setup_runs = [float(run_child(["setup", graph], deadline).stdout.split()[-1])
                      for _ in range(SETUP_RUNS)]
        job = {"sequence": sequence, "seconds": seconds}
    else:
        own = {cmd for cmd, _ in wl.commands}
        foreign = []
        for cmd, owner in COMMAND_OWNER.items():
            if cmd not in own:
                extra = dict(WORKLOADS[owner].commands)[cmd]
                twin_gen, twin_path = twins[owner]
                foreign.append([cmd, argv(cmd, extra, twin_path,
                                          str(work / "foreign" / f"{cmd}.csv"), twin_gen)])
        probe_graphs = {}
        for group, owners in probes.GROUP_OWNERS.items():
            place_gen, path = (gen, graph) if wl.name in owners else twins[owners[0]]
            probe_graphs[group] = {"path": path, "source": int(place_gen.deadend_blocks[0][0]),
                                   "target": int(place_gen.core[0])}
        job = {"sequence": sequence, "foreign": foreign, "graph": graph,
               "probe_graphs": probe_graphs, "run_id": f"{wl.name}-{seed}-{os.getpid()}",
               "spans_path": str(work / "spans.jsonl")}
    mode = "trace" if trace else "measure"
    (work / "job.json").write_text(json.dumps(job))
    run_child([mode, str(work / "job.json"), str(work / "worker.json")], deadline)
    worker = json.loads((work / "worker.json").read_text())

    gate = checks.Gate()
    g = rm.load_path(graph)
    labels, blocks = checks.structures(g)
    pi = gate.guarded("full_graph", checks.full_graph, g, labels, blocks, gen,
                      wl.profile.three_block_clean)
    twin_gen = twins[wl.name][0]
    gate.guarded("twin", checks.twin, rm.build_graph(twin_gen.n, twin_gen.edges.tolist()))
    transient = sorted(blocks.transient_set)
    ctx = {"gen": gen, "pi": pi,
           "transient_mass": None if pi is None else float(pi.values[transient].sum()),
           "sweep_points": grid_points(dict(sequence).get("sweep", []))}
    checks.outputs(gate, [(cmd, a[a.index("--out") + 1]) for cmd, a in sequence], ctx)

    attempted = worker["attempted"] + gate.attempted
    failures = worker["failures"] + gate.failures
    if trace == 0:
        passes = worker["passes"]

        def normalized(p, key):
            return sum(t * REFERENCE_S / p["kernel"][c] for c, t in p[key].items())

        metrics = {"wall_norm_s": statistics.median(normalized(p, "commands") for p in passes),
                   "cpu_norm_s": statistics.median(normalized(p, "cpu_commands") for p in passes),
                   "setup_s": statistics.median(setup_runs),
                   "peak_rss_mb": worker["peak_rss_mb"]}
        units = {"wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        detail = {"wall_s": statistics.median(p["wall"] for p in passes),
                  "cpu_s": statistics.median(p["cpu"] for p in passes),
                  "per_command_s": {c: statistics.median(p["commands"][c] for p in passes)
                                    for c, _ in wl.commands},
                  "passes": passes, "setup_runs": setup_runs}
    else:
        metrics = worker["metrics"]
        units = {name: unit(name) for name in metrics}
        detail = {"wrapped": worker["wrapped"], "spans": str(work / "spans.jsonl"),
                  "self_time_by_layer_s": worker["self_time_by_layer"]}

    info = {"workload": wl.name, "seed": seed, "trace": trace,
            "edge_sha256": edge_sha, "structure": checks.describe(g, labels, blocks),
            "environment": environment(), "failed_frac": len(failures) / attempted,
            "failures": failures[:20], "gate_gaps": gate.gaps, **detail}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (work / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    for path in work.iterdir():
        if path.name not in ("result.json", "spans.jsonl"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rankmass" / "cli.py").is_file() or \
            not (ROOT / "tests" / "helpers.py").is_file():
        print(f"no rankmass checkout at {ROOT}: need src/rankmass and tests/helpers.py",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    info, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                args.trace, work)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
