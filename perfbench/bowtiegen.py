"""Seeded synthetic bow-tie graphs in the rankmass edge-list format.

A graph is laid out as a strongly connected core (the giant SCC), IN nodes
that feed it, transient OUT nodes fed by it, dangling nodes, and closed
dead-end cycles.  Every count is fixed by the profile, so graphs drawn from
different seeds differ only in which nodes the random links join; node ids
are shuffled at the end.

The profile knobs:

- ``n``: node count.
- ``dangling_frac``, ``in_frac``, ``out_frac``: shares of dangling, IN and
  transient OUT nodes.
- ``deadend_count``, ``deadend_size``: closed cycles, each of the given size.
  Each cycle gets one in-link from the core, so no node is OTHER.  These
  links and the dangling rows are the only way out of the transient block,
  so the dead-end count sets its leak rate (and ``lambda1``).  The leak is
  spread over many nodes on purpose: per-node leak links made ``lambda1``,
  and with it the cost of the solves near ``c = 1``, swing with the seed.
- ``three_block_clean``: no OUT node links to a dangling node and dangling
  nodes are fed from the core only (the shape ``inscc-*`` needs).
- ``core_degree``: out-links per core node, one of them along a ring
  through the core so that it is strongly connected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Profile:
    n: int
    dangling_frac: float
    in_frac: float
    out_frac: float
    deadend_count: int
    deadend_size: int
    three_block_clean: bool = False
    core_degree: int = 4

    def twin(self, n: int) -> "Profile":
        """The same shape at ``n`` nodes, dead-end count scaled with n."""
        scale = n / self.n
        return replace(self, n=n, deadend_count=max(1, round(self.deadend_count * scale)))


@dataclass(frozen=True)
class Generated:
    n: int
    edges: np.ndarray             # (nnz, 2), sorted, duplicate-free
    core: np.ndarray              # final ids of the giant-SCC nodes
    in_nodes: np.ndarray
    deadend_blocks: tuple          # tuple of id arrays, one per closed cycle

    def write(self, path) -> str:
        """Write the edge file; returns its SHA-256."""
        body = "\n".join(f"{u} {v}" for u, v in self.edges.tolist())
        data = f"n {self.n}\n{body}\n".encode()
        with open(path, "wb") as fh:
            fh.write(data)
        return hashlib.sha256(data).hexdigest()


def generate(profile: Profile, seed: int) -> Generated:
    p = profile
    rng = np.random.default_rng(seed)
    n_dn = round(p.dangling_frac * p.n)
    n_in = round(p.in_frac * p.n)
    n_out = round(p.out_frac * p.n)
    n_dead = p.deadend_count * p.deadend_size
    n_core = p.n - n_dn - n_in - n_out - n_dead
    if n_core < 3 or p.deadend_count < 1 or p.deadend_size < 2:
        raise ValueError(f"profile leaves no room for a core or a dead-end: {p}")

    core = np.arange(n_core)
    ins = n_core + np.arange(n_in)
    outs = n_core + n_in + np.arange(n_out)
    dn = n_core + n_in + n_out + np.arange(n_dn)
    dead = n_core + n_in + n_out + n_dn + np.arange(n_dead)
    blocks = dead.reshape(p.deadend_count, p.deadend_size)

    parts = []
    ring = rng.permutation(core)
    parts.append((ring, np.roll(ring, -1)))
    # the core links at random among itself and the dangling nodes, and every
    # dangling node gets at least one core link; outside the clean shape the
    # IN/OUT side feeds half of them as well
    core_or_dn = np.concatenate((core, dn))
    for _ in range(p.core_degree - 1):
        parts.append((core, core_or_dn[rng.integers(0, core_or_dn.size, n_core)]))
    parts.append((rng.integers(0, n_core, n_dn), dn))
    if not p.three_block_clean and n_in + n_out:
        side = np.concatenate((ins, outs))
        fed = dn[rng.random(n_dn) < 0.5]
        parts.append((side[rng.integers(0, side.size, fed.size)], fed))
    if n_in:
        parts.append((ins, rng.integers(0, n_core, n_in)))
        chained = ins[1:][rng.random(n_in - 1) < 0.5]
        parts.append((chained, chained - 1))
    if n_out:
        parts.append((rng.integers(0, n_core, n_out), outs))
        parts.append((outs, dead[rng.integers(0, n_dead, n_out)]))
        onward = outs[:-1][rng.random(n_out - 1) < 0.5]
        parts.append((onward, onward + 1))
    parts.append((blocks.ravel(), np.roll(blocks, -1, axis=1).ravel()))
    parts.append((rng.integers(0, n_core, p.deadend_count), blocks[:, 0]))

    src = np.concatenate([a for a, _ in parts]).astype(np.int64)
    dst = np.concatenate([b for _, b in parts]).astype(np.int64)
    relabel = rng.permutation(p.n)
    edges = np.unique(np.column_stack((relabel[src], relabel[dst])), axis=0)
    return Generated(n=p.n, edges=edges, core=np.sort(relabel[core]),
                     in_nodes=np.sort(relabel[ins]),
                     deadend_blocks=tuple(np.sort(relabel[b]) for b in blocks))
