"""Sub-blocks of the transition matrix and the iterative routines built on them.

A block never materializes dangling rows: their uniform ``1/n`` spread is
applied as one scalar per product; :func:`chain_view` is the whole graph as
one such block.  Every series ``x0 sum_k c^k A^k`` over a damping grid is
read off one walk (:func:`walk`), which yields ``x0 A^k`` until
``c_max^k ||x0 A^k||_1`` falls below the tolerance: :func:`resolvent_moments`
probes it for :func:`series_at` to weight by ``c^k``.  Near ``c = 1`` the walk
takes about ``1 / (1 - lambda1)`` terms, so a single resolvent vector
``b [I - A]^{-1}`` is :func:`solve_left`, a BiCGSTAB that stops once the true
residual ``||b - y (I - A)||_1`` is within the tolerance (or, at the rounding
floor, once it stops halving) and falls back to summing the walk on a
breakdown or at its step cap.  Dominant and stationary vectors come from
:func:`perron_irreducible`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
from scipy import sparse

from .errors import ConvergenceError
from .graph import GraphHandle

DEFAULT_MAX_ITER = 500_000
BICGSTAB_MAX_ITER = 500


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless ``0 < tol < inf``."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite; got {tol}")


def _as_index(nodes) -> np.ndarray:
    idx = np.sort(np.asarray(nodes, dtype=np.int64))
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

    @cached_property
    def _transposed(self) -> sparse.csc_matrix:
        # shares the CSR arrays; ``y @ matrix`` would build this on every call
        return self.matrix.T

    def mul_left(self, y: np.ndarray) -> np.ndarray:
        """Row-vector product ``y @ B``."""
        out = self._transposed @ y
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

    def cut(self, rows: np.ndarray, cols: np.ndarray) -> "SubstochasticBlock":
        """The sub-block on the increasing local positions ``rows`` x ``cols``."""
        return SubstochasticBlock(matrix=self.matrix[rows][:, cols],
                                  dangling_local=np.flatnonzero(np.isin(rows, self.dangling_local)),
                                  n_total=self.n_total, rows=self.rows[rows], cols=self.cols[cols])

    def row_sums(self) -> np.ndarray:
        sums = np.asarray(self.matrix.sum(axis=1)).ravel().copy()
        if self.dangling_local.size:
            sums[self.dangling_local] += self.cols.size / self.n_total
        return sums


def block_view(g: GraphHandle, rows, cols) -> SubstochasticBlock:
    """The sub-block on array-likes of node ids, each taken in increasing order."""
    return chain_view(g).cut(_as_index(rows), _as_index(cols))


def chain_view(g: GraphHandle) -> SubstochasticBlock:
    """The whole transition matrix as one block over ``g.w``, not copied."""
    every = np.arange(g.n)
    return SubstochasticBlock(matrix=g.w, dangling_local=g.dangling, n_total=g.n,
                              rows=every, cols=every)


def walk(apply: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, c_max: float = 1.0,
         tol: float = 1e-14, max_iter: int = DEFAULT_MAX_ITER) -> Iterator[np.ndarray]:
    """Yield ``x_k = x0 A^k``, with ``apply(x) = x A``, for k = 0..K.

    K is the first k >= 1 with ``c_max^k ||x_k||_1 <= tol``.  Raises
    ValueError before the first product unless ``0 < tol < inf``,
    :class:`ConvergenceError` at the first non-finite term, and past
    ``max_iter`` steps with the last ``c_max^k ||x_k||_1``.
    """
    check_tolerance(tol)
    x = np.asarray(x0, dtype=np.float64)
    yield x
    for k in range(1, max_iter + 1):
        x = apply(x)
        term = c_max ** k * float(np.abs(x).sum())
        if not np.isfinite(term):
            raise ConvergenceError("walk reached a non-finite term", term, k)
        yield x
        if term <= tol:
            return
    raise ConvergenceError(f"series to c={c_max} did not converge", term, max_iter)


def solve_left(apply_a: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
               tol: float = 1e-14, max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Solve ``y (I - A) = b`` by BiCGSTAB (van der Vorst, 1992); with
    ``apply_a(x) = A x`` the same iteration solves ``(I - A) x = b``.

    It starts at ``y = b`` with a fixed seeded random shadow residual and
    recomputes the true residual ``||b - y (I - A)||_1`` every step (three
    products per step).  It returns ``y`` as soon as that residual is at most
    ``tol``.  Once it is at most ``tol * ||y||_1`` rounding dominates: from
    then on the best iterate is kept and returned at the second step in a
    row where the residual fails to halve.  On a breakdown (a zero or
    non-finite ``r_hat . r``, ``r_hat . v`` or ``omega``) or after
    ``min(BICGSTAB_MAX_ITER, max_iter)`` steps it falls back to the sum of
    the walk ``b A^k`` (:func:`walk`), which stops after the first term of L1
    norm at most ``tol`` and raises :class:`ConvergenceError` at a non-finite
    term or past ``max_iter`` terms.  The walk needs the spectral radius of A below
    one; BiCGSTAB only needs ``I - A`` nonsingular.  The inner products are
    numpy reductions: a BLAS ``@`` would run threaded on long vectors.
    """
    check_tolerance(tol)
    b = np.asarray(b, dtype=np.float64)
    r_hat = np.random.default_rng(0).random(b.size)
    y, p, v = b.copy(), np.zeros_like(b), np.zeros_like(b)
    rho = alpha = omega = 1.0
    res, best, best_res, floored, stalls = np.inf, y, np.inf, False, 0
    for _ in range(min(BICGSTAB_MAX_ITER, max_iter)):
        r = b - (y - apply_a(y))
        res, prev = float(np.abs(r).sum()), res
        if res <= tol:
            return y
        floored = floored or res <= tol * float(np.abs(y).sum())
        if floored:
            if res < best_res:
                best, best_res = y, res
            stalls = stalls + 1 if res > 0.5 * prev else 0
            if stalls == 2:
                return best
        rho_next = float((r_hat * r).sum())
        if not (omega and rho_next and np.isfinite((omega, rho_next)).all()):
            break
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
        rho = rho_next
        v = p - apply_a(p)
        denom = float((r_hat * v).sum())
        if not (denom and np.isfinite(denom)):
            break
        alpha = rho / denom
        s = r - alpha * v
        t = s - apply_a(s)
        tt = float((t * t).sum())
        omega = float((t * s).sum()) / tt if tt else 0.0   # s = 0: the half step solved it
        y = y + alpha * p + omega * s
    return sum(walk(apply_a, b, tol=tol, max_iter=max_iter))


def resolvent_moments(apply: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                      probes, c_max: float, tol: float = 1e-14,
                      max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Rows ``x_k @ probes`` of the walk ``x_k = x0 A^k`` (:func:`walk`), k = 0..K.

    The walk stops where :func:`solve_left` on ``c_max A`` stops: for any
    ``c <= c_max``, ``series_at(moments, [c])[0]`` is
    ``solve_left(c A, x0) @ probes`` up to rounding.
    """
    probes_t = probes.T   # a sparse ``x @ probes`` would transpose on every step
    return np.array([probes_t @ x for x in walk(apply, x0, c_max, tol, max_iter)])


def series_at(moments: np.ndarray, grid) -> np.ndarray:
    """``sum_k c^k moments[k]``, the probes of ``x0 [I - cA]^{-1}``, for each
    ``c`` in ``grid``.  One vector product per value: a matrix product would
    make BLAS allocate its Level-3 buffers, about 3 MB of peak memory."""
    powers = np.arange(len(moments))
    return np.array([c ** powers @ moments for c in grid])


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
    """Dominant eigenvalue and probability-normed left eigenvector of an
    irreducible nonnegative block; for a stochastic block, its stationary
    vector.

    Iterates the half-step blend ``y <- (y + y B) / 2``, normalised, which
    shares the eigenvector but is immune to periodic cycling, until the
    residual ``||y B - lam y||_1`` is at most ``tol``; a single node stops
    after one step with its self-transition weight.  Raises ValueError
    unless ``0 < tol < inf`` and :class:`ConvergenceError` at the first
    non-finite residual.
    """
    check_tolerance(tol)
    size = block.shape[0]
    y = np.full(size, 1.0 / size)
    for it in range(1, max_iter + 1):
        z = block.mul_left(y)
        lam = float(z.sum())
        residual = float(np.abs(z - lam * y).sum())
        if not np.isfinite(residual):
            raise ConvergenceError("eigenvector iteration reached a non-finite value",
                                   residual, it)
        y_next = 0.5 * (y + z)
        s = y_next.sum()
        if s <= 0.0:
            return 0.0, np.full(size, 1.0 / size)
        y_next /= s
        y = y_next
        if residual <= tol:
            return lam, y
    raise ConvergenceError("eigenvector iteration stagnated", residual, max_iter)
