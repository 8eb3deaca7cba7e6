"""Compare the CLI of this checkout with that of another revision, byte for byte.

    python3 tools/samecli.py --against REV [--seed N]

Run from anywhere inside a git checkout.  It extracts REV's ``src/`` with
``git archive REV src | tar -x`` into ``.bench_work/samecli/``, generates
the three benchmark graphs of ``perfbench/workloads.py`` from the seed (1 by
default) and the ``COPIES`` of them that an option run needs, and runs the
matrix below as fresh processes, once with REV's ``src`` and once with this
checkout's (uncommitted edits included).  Each run's exit code, stdout,
stderr and written files are compared byte for byte.  It prints one line
per differing run, naming what differs and its first differing line, then a
summary that also names each run exiting non-zero under this checkout (one
failing the same way on both sides compares equal but checks only an error
path), and exits 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "samecli"
sys.path.insert(0, str(ROOT / "perfbench"))

import bowtiegen  # noqa: E402
from workloads import WORKLOADS, argv as command_argv  # noqa: E402

COMMANDS = ("decompose", "pagerank", "sweep", "limit", "inscc-curve", "inscc-derivatives",
            "escc-bounds", "cstar", "link-experiment")

def _out_dn_link(gen: bowtiegen.Generated) -> tuple[int, list]:
    """One link from a transient OUT node to a dangling node, an OUT -> DN link;
    every node outside the core, IN and the dead-end cycles with a link is one
    of the generator's transient OUT nodes."""
    sources = np.unique(gen.edges[:, 0])
    named = np.concatenate((gen.core, gen.in_nodes, *gen.deadend_blocks))
    return gen.n, [(np.setdiff1d(sources, named)[0], np.setdiff1d(np.arange(gen.n), sources)[0])]


def _other_nodes(gen: bowtiegen.Generated) -> tuple[int, list]:
    """An unreachable 2-cycle and one node feeding it: three OTHER nodes."""
    n = gen.n
    return n + 3, [(n, n + 1), (n + 1, n), (n + 2, n)]


# graph copies the option runs read: name -> (workload, its node count and added links)
COPIES = {"inscc-grid-out-dn": ("inscc-grid", _out_dn_link),
          "inscc-grid-other": ("inscc-grid", _other_nodes)}


def graph(name: str, seed: int) -> bowtiegen.Generated:
    """The graph of a workload, or of one of its ``COPIES``, from ``seed``."""
    workload, extend = COPIES.get(name, (name, None))
    gen = bowtiegen.generate(WORKLOADS[workload].profile, seed)
    if extend is None:
        return gen
    n, links = extend(gen)
    return replace(gen, n=n, edges=np.unique(np.concatenate((gen.edges, links)), axis=0))


# run name: (workload or copy whose graph it reads, command, extra arguments); each
# option run reads a graph its option acts on (tests/test_samecli.py checks it)
MATRIX = {
    "decompose": ("bowtie-large", "decompose", ()),
    "pagerank-0.85": ("bowtie-large", "pagerank", ("--damping", "0.85")),
    "pagerank-0.99": ("bowtie-large", "pagerank", ("--damping", "0.99")),
    "sweep": ("bowtie-large", "sweep", ()),
    "sweep-0.99": ("inscc-grid", "sweep", ("--grid", "0:0.99:0.01")),
    "link-experiment": ("bowtie-large", "link-experiment",
                        ("--source", "{source}", "--target", "{target}")),
    "limit": ("deadend-near1", "limit", ("--vector-out", "vector.csv")),
    "escc-bounds": ("deadend-near1", "escc-bounds", ()),
    "escc-bounds-excluded": ("bowtie-large", "escc-bounds", ("--exclude-pureout-transients",)),
    **{f"cstar-{mode}": ("deadend-near1", "cstar", ("--mode", mode))
       for mode in ("quasi", "uniform", "self")},
    # bowtie-large's T has hundreds of classes, where deadend-near1's has one: the
    # singleton, closure-below and solve-below path of the Perron pair of T
    "escc-bounds-many-classes": ("bowtie-large", "escc-bounds", ()),
    "cstar-quasi-many-classes": ("bowtie-large", "cstar", ("--mode", "quasi")),
    "inscc-curve": ("inscc-grid", "inscc-curve", ()),
    "inscc-curve-merged": ("inscc-grid-out-dn", "inscc-curve", ("--force-dn-merge",)),
    "inscc-derivatives": ("inscc-grid", "inscc-derivatives", ()),
    "inscc-derivatives-merged": ("inscc-grid-out-dn", "inscc-derivatives", ("--force-dn-merge",)),
    # options no run above sets, away from their defaults
    "cstar-uniform-excluded": ("bowtie-large", "cstar",
                               ("--mode", "uniform", "--exclude-pureout-transients")),
    "inscc-curve-folded": ("inscc-grid-other", "inscc-curve", ("--fold-other",)),
    "inscc-derivatives-folded": ("inscc-grid-other", "inscc-derivatives", ("--fold-other",)),
    "sweep-tol": ("bowtie-large", "sweep", ("--tol", "1e-10")),
}


@dataclass(frozen=True)
class Outcome:
    """What one run left: its exit code, its two streams and the files it wrote."""

    code: int
    stdout: bytes
    stderr: bytes
    files: dict


def run(src: Path, args: list, cwd: Path) -> Outcome:
    """``rankmass ARGS`` as a fresh process with the package from ``src``, in
    the empty directory ``cwd``, which keeps the files it writes."""
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "rankmass.cli", *args], cwd=cwd, env=env,
                          capture_output=True)
    files = {p.relative_to(cwd).as_posix(): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return Outcome(done.returncode, done.stdout, done.stderr, files)


def _first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = (data.decode(errors="replace").splitlines() for data in (a, b))
    for k, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {k}: {x!r} against {y!r}"
    k = min(len(lines_a), len(lines_b)) + 1
    if len(lines_a) != len(lines_b):
        return f"line {k}: one side ends ({len(lines_a)} against {len(lines_b)} lines)"
    return "the line ends differ"


def differences(name: str, a: Outcome, b: Outcome) -> str | None:
    """One line naming what differs between two runs of ``name``, or None."""
    found = []
    if a.code != b.code:
        found.append(f"exit code {a.code} against {b.code}")
    for stream in ("stdout", "stderr"):
        if getattr(a, stream) != getattr(b, stream):
            found.append(f"{stream} {_first_difference(getattr(a, stream), getattr(b, stream))}")
    for path in sorted(a.files.keys() | b.files.keys()):
        if path not in a.files or path not in b.files:
            found.append(f"{path} written by one side only")
        elif a.files[path] != b.files[path]:
            found.append(f"{path} {_first_difference(a.files[path], b.files[path])}")
    return f"{name}: " + "; ".join(found) if found else None


def extract(rev: str, into: Path) -> Path:
    """REV's ``src/`` under ``into``, by ``git archive``; returns its path."""
    if into.exists():
        shutil.rmtree(into)
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--seed", type=int, default=1, help="graph seed (default 1)")
    opts = parser.parse_args(argv)
    trees = (extract(opts.against, WORK / "rev"), ROOT / "src")
    for path in (WORK / "graphs", WORK / "runs"):
        shutil.rmtree(path, ignore_errors=True)
    (WORK / "graphs").mkdir()
    graphs = {}   # workload or copy -> (generated graph, its edge file)
    for name in {name for name, _, _ in MATRIX.values()}:
        graphs[name] = (graph(name, opts.seed), WORK / "graphs" / f"{name}.edges")
        graphs[name][0].write(graphs[name][1])

    runs = {name: command_argv(command, extra, str(graphs[source][1]), "out.csv",
                               graphs[source][0])
            for name, (source, command, extra) in MATRIX.items()}
    runs["help"] = ["--help"]
    runs.update({f"{command}-help": [command, "--help"] for command in COMMANDS})

    differing, failing = 0, []
    for name, args in runs.items():
        a, b = (run(src, args, WORK / "runs" / side / name)
                for side, src in zip(("rev", "this"), trees))
        line = differences(name, a, b)
        if line:
            differing += 1
            print(line)
        if b.code:
            failing.append(name)
    failed = f"; {len(failing)} exit non-zero here: {', '.join(failing)}" if failing else ""
    print(f"{len(runs)} runs under {opts.against} and this checkout: {differing} differ{failed}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
