"""The benchmark's workloads: a graph profile and a fixed CLI command sequence.

Sizes are chosen so that one pass of a sequence takes a few seconds on a
2-core machine, which leaves room for several passes per run; README.md
gives the reason behind each workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from bowtiegen import Profile

TWIN_N = 300


@dataclass(frozen=True)
class Workload:
    name: str
    profile: Profile
    commands: tuple  # (subcommand, extra arguments) in run order


WORKLOADS = {w.name: w for w in (
    Workload(
        name="bowtie-large",
        profile=Profile(n=20_000, dangling_frac=0.10, in_frac=0.05, out_frac=0.05,
                        deadend_count=10, deadend_size=2, core_degree=5),
        commands=(("decompose", ()),
                  ("pagerank", ("--damping", "0.85")),
                  ("sweep", ()),
                  ("link-experiment", ("--source", "{source}", "--target", "{target}")))),
    Workload(
        name="deadend-near1",
        profile=Profile(n=3_000, dangling_frac=0.10, in_frac=0.02, out_frac=0.0,
                        deadend_count=15, deadend_size=2, core_degree=5),
        commands=(("limit", ()),
                  ("escc-bounds", ()),
                  ("cstar", ("--mode", "uniform")))),
    Workload(
        name="inscc-grid",
        profile=Profile(n=8_000, dangling_frac=0.10, in_frac=0.0, out_frac=0.05,
                        deadend_count=8, deadend_size=2, three_block_clean=True),
        commands=(("inscc-curve", ()),
                  ("inscc-derivatives", ()),
                  ("sweep", ("--grid", "0:0.99:0.01")))),
)}

# the workload whose sequence runs each command; a traced run of another
# workload times that command on this owner's small twin
COMMAND_OWNER = {cmd: w.name for w in reversed(WORKLOADS.values()) for cmd, _ in w.commands}


def argv(command: str, extra, graph: str, out: str, gen) -> list[str]:
    """The CLI arguments of one command, as a user would type them."""
    names = {"source": int(gen.deadend_blocks[0][0]), "target": int(gen.core[0])}
    return [command, "--graph", graph, "--out", out, *(a.format(**names) for a in extra)]
