"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the same pass of a workload can take 1.5x
longer from one minute to the next, because other tenants share the
physical cores.  The measured run times this kernel before and after every
command and scales the command's time by ``REFERENCE_S / kernel time``.
That cancels most of the host's speed swings and keeps a change in the
program's own speed intact.

The kernel is a small copy of the kinds of work rankmass does: an iterative
depth-first search over Python lists, a fixed-point loop of small sparse
products, and larger sparse products.  It imports nothing from rankmass, so
a change to the program cannot change the kernel.  Changing the kernel or
``REFERENCE_S`` changes every normalized figure, so do it only together
with a new baseline.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy import sparse

REFERENCE_S = 0.05   # the kernel's typical time on a 2-core Xeon VM at 2.1 GHz


def _random_rows(rng, n: int, per_row: int, scale: float) -> sparse.csr_matrix:
    rows = np.repeat(np.arange(n), per_row)
    cols = rng.integers(0, n, n * per_row)
    return sparse.csr_matrix((rng.random(n * per_row) * scale, (rows, cols)), shape=(n, n))


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.adjacency = [rng.integers(0, 1500, 4).tolist() for _ in range(1500)]
        self.small = _random_rows(rng, 3000, 5, 0.19)
        self.large = _random_rows(rng, 20000, 5, 1.0)

    def _search(self) -> int:
        seen = [False] * len(self.adjacency)
        finished = 0
        for root in range(len(self.adjacency)):
            if seen[root]:
                continue
            seen[root] = True
            stack = [iter(self.adjacency[root])]
            while stack:
                for w in stack[-1]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(iter(self.adjacency[w]))
                        break
                else:
                    stack.pop()
                    finished += 1
        return finished

    def run(self) -> float:
        """Seconds one pass of the kernel takes now (garbage collection off,
        so that objects the program left behind do not count)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(9):
                self._search()
            y = np.full(3000, 1.0 / 3000)
            for _ in range(450):
                y = 1.0 / 3000 + np.asarray(y @ self.small).ravel()
            x = np.ones(20000)
            for _ in range(45):
                x = np.asarray(x @ self.large).ravel()
                x /= x.sum()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
