"""Sub-blocks of the transition matrix and the iterative solves built on them.

A block never materializes dangling rows: their uniform ``1/n`` spread is
applied as one scalar per product.  Solves are fixed-point iterations; the
matrices involved are substochastic, so they contract.  Across damping values
one walk serves instead: :func:`resolvent_moments` probes ``x0 A^k`` until the
solves' step test holds at ``c_max``, and :func:`series_at` weights it by ``c^k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .errors import ConvergenceError
from .graph import GraphHandle

DEFAULT_MAX_ITER = 500_000


def _as_index(nodes) -> np.ndarray:
    idx = np.asarray(sorted(int(v) for v in nodes), dtype=np.int64)
    if idx.size and np.any(np.diff(idx) == 0):
        raise ValueError("duplicate node ids in block selection")
    return idx


@dataclass(frozen=True, eq=False)
class SubstochasticBlock:
    """Rows x cols sub-block of the transition matrix, dangling rows folded."""

    matrix: sparse.csr_matrix   # link part; dangling rows are all-zero here
    dangling_local: np.ndarray  # row positions that are dangling nodes
    n_total: int
    rows: np.ndarray
    cols: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def mul_left(self, y: np.ndarray) -> np.ndarray:
        """Row-vector product ``y @ B``."""
        out = np.asarray(y @ self.matrix).ravel()
        if self.dangling_local.size:
            out = out + float(y[self.dangling_local].sum()) / self.n_total
        return out

    def mul_right(self, x: np.ndarray) -> np.ndarray:
        """Column-vector product ``B @ x``."""
        out = np.asarray(self.matrix @ x).ravel()
        if self.dangling_local.size:
            out = out.copy()
            out[self.dangling_local] += float(x.sum()) / self.n_total
        return out

    def row_sums(self) -> np.ndarray:
        sums = np.asarray(self.matrix.sum(axis=1)).ravel().copy()
        if self.dangling_local.size:
            sums[self.dangling_local] += self.cols.size / self.n_total
        return sums


def block_view(g: GraphHandle, rows, cols) -> SubstochasticBlock:
    rows = _as_index(rows)
    cols = _as_index(cols)
    matrix = g.w[rows, :][:, cols].tocsr()
    dangling_local = np.flatnonzero(g.dangling_mask[rows])
    return SubstochasticBlock(matrix=matrix, dangling_local=dangling_local,
                              n_total=g.n, rows=rows, cols=cols)


def solve_left(apply_a: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
               tol: float = 1e-14, max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Solve ``y (I - A) = b`` by the fixed point ``y <- b + y A``; with
    ``apply_a(x) = A x`` the same iteration solves ``(I - A) x = b``.

    Requires the spectral radius of A below one; raises
    :class:`ConvergenceError` with the last L1 step size otherwise.
    """
    y = np.array(b, dtype=np.float64, copy=True)
    for it in range(1, max_iter + 1):
        y_next = b + apply_a(y)
        delta = float(np.abs(y_next - y).sum())
        y = y_next
        if delta <= tol:
            return y
    raise ConvergenceError("fixed-point solve stagnated", delta, max_iter)


solve_right = solve_left   # the iteration is the same whichever side A acts from


def resolvent_moments(apply: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                      probes, c_max: float, tol: float = 1e-14,
                      max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Rows ``x_k @ probes`` of the walk ``x_k = x0 A^k``, for k = 0..K.

    K is the first k >= 1 with ``c_max^k ||x_k||_1 <= tol``, the step test of
    :func:`solve_left` on ``c_max A``: for any ``c <= c_max``,
    ``series_at(moments, [c])[0]`` is ``solve_left(c A, x0) @ probes`` up to
    rounding.  Raises :class:`ConvergenceError` past ``max_iter`` steps.
    """
    x = np.asarray(x0, dtype=np.float64)
    rows = [x @ probes]
    for k in range(1, max_iter + 1):
        x = apply(x)
        rows.append(x @ probes)
        term = c_max ** k * float(np.abs(x).sum())
        if term <= tol:
            return np.array(rows)
    raise ConvergenceError(f"resolvent series to c={c_max} did not converge", term, max_iter)


def series_at(moments: np.ndarray, grid) -> np.ndarray:
    """``sum_k c^k moments[k]``, the probes of ``x0 [I - cA]^{-1}``, for each
    ``c`` in ``grid``.  One vector product per value: a matrix product would
    make BLAS allocate its Level-3 buffers, about 3 MB of peak memory."""
    powers = np.arange(len(moments))
    return np.array([c ** powers @ moments for c in grid])


def stationary_left(apply_p: Callable[[np.ndarray], np.ndarray], size: int,
                    tol: float = 1e-14, max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Stationary row vector of a row-stochastic operator.

    Iterates the half-step blend ``y <- (y + y P) / 2``, which shares the
    fixed point but is immune to periodic cycling.
    """
    y = np.full(size, 1.0 / size)
    for it in range(1, max_iter + 1):
        y_next = 0.5 * (y + apply_p(y))
        y_next /= y_next.sum()
        delta = float(np.abs(y_next - y).sum())
        y = y_next
        if delta <= tol:
            return y
    raise ConvergenceError("stationary iteration stagnated", delta, max_iter)


def dense_stationary(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of a small dense stochastic matrix by direct solve."""
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    if n == 1:
        return np.ones(1)
    a = (np.eye(n) - p).T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(a, b)
    return mu


def perron_irreducible(block: SubstochasticBlock, tol: float = 1e-13,
                       max_iter: int = DEFAULT_MAX_ITER) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and left eigenvector of an irreducible nonnegative
    block, via the same half-step blend (handles periodic blocks)."""
    size = block.shape[0]
    if size == 1:
        # single node: the eigenvalue is its self-transition weight
        return float(block.mul_left(np.ones(1))[0]), np.ones(1)
    y = np.full(size, 1.0 / size)
    lam = 0.0
    for it in range(1, max_iter + 1):
        z = block.mul_left(y)
        lam = float(z.sum())
        y_next = 0.5 * (y + z)
        s = y_next.sum()
        if s <= 0.0:
            return 0.0, np.full(size, 1.0 / size)
        y_next /= s
        residual = float(np.abs(z - lam * y).sum())
        y = y_next
        if residual <= tol:
            return lam, y
    raise ConvergenceError("eigenvector iteration stagnated", residual, max_iter)
