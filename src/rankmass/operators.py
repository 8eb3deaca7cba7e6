"""Sub-blocks of the transition matrix and the iterative routines built on them.

A block never materializes dangling rows: their uniform ``1/n`` spread is
applied as one scalar per product; :func:`chain_view` is the whole graph as
one such block.  Every damping grid, the probes of ``x0 [I - cA]^{-1}`` for
many c, is read off one restarted left-Arnoldi basis of A from x0
(:func:`shifted_solve`): its residuals for all c stay collinear across
restarts, so each costs O(1) to bound, and the product count follows the
spectrum, not the largest c.  A single resolvent vector ``b [I - A]^{-1}`` is
:func:`solve_left`, a BiCGSTAB that falls back to the same cycles at c = 1
(:func:`_fom_cycle`) on a breakdown or at its step cap, as a long chain in A
needs.  Dominant and stationary vectors come from :func:`perron_irreducible`:
power steps while the residual keeps falling, then half-step blends, which
converge on periodic classes too.  All three stop by one rule: residual at
most ``SOLVE_TOL`` (or the ``tol`` a caller of the two solves passes), or
normwise backward error at most eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .bowtie import closure
from .errors import ConvergenceError
from .graph import GraphHandle, _reverse_csr

if TYPE_CHECKING:
    from scipy import sparse

MAX_ITER = 500_000
BICGSTAB_MAX_ITER = 500
EPS = np.finfo(np.float64).eps
SOLVE_TOL = 1e-14  # the L1 residual every inner solve and Perron pair runs to
RESTART = 20       # basis vectors per restarted-FOM cycle (_fom_cycle)
MAX_CYCLES = 25    # shifted_solve's cycles before a value above its bound takes solve_left


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless ``0 < tol < inf``."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite; got {tol}")


def _accepts(res: float, tol: float, scale: float) -> bool:
    """The stopping rule of every solve: an L1 residual ``res`` of a
    difference of terms whose L1 norms sum to ``scale`` is accepted at most
    ``tol``, or at a normwise backward error ``res / scale`` of at most eps
    (Rigal & Gaches, J. ACM 1967; Higham, *Accuracy and Stability*, §7.1);
    elementwise on arrays."""
    return (res <= tol) | (res <= EPS * scale)


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
        """The sub-block on the local positions ``rows`` x ``cols``, in the
        order given (self if each is every position in order)."""
        if all(len(pos) == n and np.array_equal(pos, np.arange(n))
               for pos, n in zip((rows, cols), self.shape)):
            return self
        return SubstochasticBlock(matrix=self.matrix[rows][:, cols],
                                  dangling_local=np.flatnonzero(np.isin(rows, self.dangling_local)),
                                  n_total=self.n_total, rows=self.rows[rows], cols=self.cols[cols])

    def row_sums(self) -> np.ndarray:
        sums = np.asarray(self.matrix.sum(axis=1)).ravel().copy()
        if self.dangling_local.size:
            sums[self.dangling_local] += self.cols.size / self.n_total
        return sums

    def irreducible(self) -> bool:
        """Whether the square block's graph, where a dangling row links to
        every node, is strongly connected, in O(n + m): with dangling rows,
        when every node reaches one; without, when the first node reaches
        every node and every node reaches it."""
        indptr, indices = self.matrix.indptr, self.matrix.indices
        reverse = _reverse_csr(indptr, indices)
        if self.dangling_local.size:
            return bool(closure(*reverse, self.dangling_local).all())
        first = np.arange(self.shape[0])[:1]   # none in an empty block
        return bool(closure(*reverse, first).all() and closure(indptr, indices, first).all())


def block_view(g: GraphHandle, rows, cols) -> SubstochasticBlock:
    """The sub-block on array-likes of node ids, each taken in increasing order."""
    return chain_view(g).cut(_as_index(rows), _as_index(cols))


def chain_view(g: GraphHandle) -> SubstochasticBlock:
    """The whole transition matrix as one block over ``g.w``, not copied."""
    every = np.arange(g.n)
    return SubstochasticBlock(matrix=g.w, dangling_local=g.dangling, n_total=g.n,
                              rows=every, cols=every)


def _project(h: np.ndarray, cs: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each shift's FOM step ``(I - cH) z = rho e1`` on one cycle: the ``z``
    rows, and the ``rho`` of each residual ``+c h_{k+1,k} z_k v_{k+1}``."""
    m = h.shape[1]
    z = np.linalg.solve(np.eye(m) - cs[:, None, None] * h[:m], np.eye(m)[:, :1])[..., 0]
    z *= rho[:, None]
    return z, cs * h[m, m - 1] * z[:, -1]


def _fom_cycle(apply: Callable[[np.ndarray], np.ndarray], basis: np.ndarray, cs: np.ndarray,
               rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One restarted-FOM cycle from the unit vector ``basis[0]``: up to
    ``RESTART`` left-Arnoldi steps ``v_j A = sum_i H[i, j] v_i`` into
    ``basis`` by classical Gram-Schmidt in einsum (a BLAS ``@`` threads), a
    second pass only where the first leaves under ``1/sqrt(2)`` of the norm
    (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976), ending early at an
    invariant subspace; returns H and :func:`_project`'s ``(z, rho)``.
    Raises :class:`ConvergenceError` with a non-finite norm."""
    h = np.zeros((RESTART + 1, RESTART))
    for j in range(RESTART):
        w = apply(basis[j])
        scale = float(np.sqrt((w * w).sum()))
        for _ in range(2):   # the second pass only on a norm drop
            coef = np.einsum("ij,j->i", basis[:j + 1], w)
            w = w - np.einsum("ij,i->j", basis[:j + 1], coef)
            h[:j + 1, j] += coef
            norm = float(np.sqrt((w * w).sum()))
            if norm >= np.sqrt(0.5) * scale:
                break
        if not np.isfinite(norm):
            raise ConvergenceError("the restarted basis reached a non-finite value", norm, j + 1)
        if norm <= EPS * scale:   # an invariant subspace
            h = h[:j + 2, :j + 1]
            break
        h[j + 1, j], basis[j + 1] = norm, w / norm
    return (h, *_project(h, cs, rho))


def solve_left(apply_a: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
               tol: float = SOLVE_TOL) -> np.ndarray:
    """Solve ``y (I - A) = b`` by BiCGSTAB (van der Vorst, 1992); with
    ``apply_a(x) = A x`` the same iteration solves ``(I - A) x = b``.

    It starts at ``y = b`` with a fixed seeded random shadow residual and
    updates the residual by the recurrence ``r = s - omega t``, two products
    per step.  ``y`` is returned once the true residual ``b - y (I - A)`` is
    at most ``tol`` in L1 norm, or its normwise backward error
    ``||r||_1 / (||b||_1 + ||y||_1 + ||y A||_1)`` is at most eps.  The true
    residual is recomputed only when the updated one claims that stop, with
    ``||y||_1`` standing in for ``||y A||_1``; a failed claim means the
    updated residual drifted, and the true one replaces it (van der Vorst &
    Ye, SISC 2000).  At a breakdown (a zero or non-finite ``r_hat . r``,
    ``r_hat . v`` or ``omega``) or after ``BICGSTAB_MAX_ITER`` steps it falls
    back to restarted FOM from ``y = 0`` (:func:`_fom_cycle` at c = 1), each
    cycle from the true residual of ``y``, which the same rule accepts; it
    raises :class:`ConvergenceError` at a non-finite value, with that value,
    and before a cycle would pass ``MAX_ITER`` products.  A chain of k nodes
    in A needs it: BiCGSTAB, like any Krylov method, takes at least k
    products to cross the chain and turns unstable on a long one, while the
    cycles cross it in about k products with ``RESTART + 1`` more vectors.
    A non-finite ``b`` raises :class:`ConvergenceError` before any product.
    The inner products are numpy reductions: a BLAS ``@`` would run threaded
    on long vectors.
    """
    check_tolerance(tol)
    b = np.asarray(b, dtype=np.float64)
    if not np.isfinite(b).all():
        raise ConvergenceError("the right-hand side is not finite", float(np.abs(b).sum()), 0)
    r_hat = np.random.default_rng(0).random(b.size)
    y, p, v = b.copy(), np.zeros_like(b), np.zeros_like(b)
    rho = alpha = omega = 1.0
    b_norm = float(np.abs(b).sum())
    r = b - (y - apply_a(y))
    for _ in range(BICGSTAB_MAX_ITER):
        y_norm = float(np.abs(y).sum())
        if _accepts(float(np.abs(r).sum()), tol, b_norm + 2.0 * y_norm):
            y_a = apply_a(y)
            r = b - (y - y_a)   # a claimed stop: check the true residual
            if _accepts(float(np.abs(r).sum()), tol, b_norm + y_norm + float(np.abs(y_a).sum())):
                return y
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
        r = s - omega * t
    basis = np.zeros((RESTART + 1, b.size))
    y, y_a, products = np.zeros_like(b), np.zeros_like(b), 0
    while True:   # restarted FOM at c = 1, each cycle from the true residual of y
        r = b - (y - y_a)
        res = float(np.abs(r).sum())
        if not np.isfinite(res):
            raise ConvergenceError("the fallback reached a non-finite residual", res, products)
        if _accepts(res, tol, b_norm + float(np.abs(y).sum()) + float(np.abs(y_a).sum())):
            return y
        if products + RESTART + 1 > MAX_ITER:   # the next cycle would pass the cap
            raise ConvergenceError("the fallback did not converge", res, products)
        beta = float(np.sqrt((r * r).sum()))
        basis[0] = r / beta
        h, z, _ = _fom_cycle(apply_a, basis, np.ones(1), np.array([beta]))
        y = y + np.einsum("i,ij->j", z[0], basis[:h.shape[1]])
        y_a = apply_a(y)
        products += h.shape[1] + 1


class ShiftedSolve(NamedTuple):
    """:func:`shifted_solve`'s result; ``at(c)`` replays its cycles
    ``(H, probe rows, ||v_{k+1}||_1)`` for any c without a product."""

    values: np.ndarray
    residuals: np.ndarray
    cycles: list
    at: Callable[[float], np.ndarray]


def shifted_solve(apply: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, probes,
                  grid, tol: float = SOLVE_TOL) -> ShiftedSolve:
    """Probes ``y_c @ probes`` and L1 residuals ``||x0 - y_c (I - cA)||_1`` of
    ``y_c = x0 [I - cA]^{-1}``, ``apply(x) = x A``, for each c in ``grid``
    from one restarted left-Arnoldi basis (:func:`_fom_cycle`; shifted FOM:
    Frommer & Glaessner, SISC 1998; Simoncini, BIT 2003).  All residuals
    stay multiples of the next cycle's start ``v_{k+1}``, so each costs O(1).
    Once every c meets ``tol``, one product checks the true residual of
    the largest c: at most ``tol``, or a normwise backward error
    ``||r||_1 / (||x0||_1 + ||y||_1 + c ||y A||_1)`` of at most eps.  If it
    misses, ``y`` goes on as ``y + d`` with ``d (I - cA) = r`` by
    :func:`solve_left`; any other c still above ``tol`` after
    ``MAX_CYCLES`` cycles takes one :func:`solve_left` from x0.  A zero or
    non-finite start raises :class:`ConvergenceError` before any product.
    """
    check_tolerance(tol)
    grid = np.asarray(grid, dtype=np.float64)
    from scipy import sparse
    x0 = np.asarray(x0, dtype=np.float64)
    probes_t = sparse.csr_matrix(probes.T if sparse.issparse(probes)
                                 else np.reshape(probes, (x0.size, -1)).T)
    beta = float(np.sqrt((x0 * x0).sum()))
    if not 0.0 < beta < np.inf:
        raise ConvergenceError("the start vector is zero or not finite", beta, 0)
    basis = np.zeros((RESTART + 1, x0.size))
    basis[0] = x0 / beta
    top, rho, values, y_top, cycles = int(np.argmax(grid)), np.full(grid.size, beta), 0, 0, []
    met, start = False, ()   # start: the top point's y and residual, once checked
    for _ in range(MAX_CYCLES):
        h, z, rho = _fom_cycle(apply, basis, grid, rho)
        m = h.shape[1]
        cycles.append((h, np.array([probes_t @ v for v in basis[:m]]), np.abs(basis[m]).sum()))
        values = values + z @ cycles[-1][1]
        y_top = y_top + np.einsum("i,ij->j", z[top], basis[:m])
        bounds = np.abs(rho) * cycles[-1][2]
        if np.all(bounds <= tol):
            y_a = grid[top] * apply(y_top)
            start = (y_top, x0 - (y_top - y_a))
            bounds[top] = float(np.abs(start[1]).sum())
            met = _accepts(bounds[top], tol, float(np.abs(x0).sum())
                           + float(np.abs(y_top).sum()) + float(np.abs(y_a).sum()))
            break
        basis[0] = basis[m]

    def solve(c: float, y=0.0, r=x0) -> tuple[np.ndarray, float]:
        damped = lambda v: c * apply(v)
        y = y + solve_left(damped, r, tol=tol)   # r: the residual of the start y
        return probes_t @ y, float(np.abs(x0 - (y - damped(y))).sum())

    redo = bounds > tol
    redo[top] &= not met
    for i in np.flatnonzero(redo):   # only the top point once the cycles met tol
        values[i], bounds[i] = solve(float(grid[i]), *start)

    def at(c: float) -> np.ndarray:
        rho, out = np.array([beta]), 0
        for h, rows, v_norm in cycles:
            z, rho = _project(h, np.array([float(c)]), rho)
            out = out + z[0] @ rows
        return out if abs(rho[0]) * v_norm <= tol else solve(float(c))[0]

    return ShiftedSolve(values, bounds, cycles, at)


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
    return np.linalg.solve(a, b)


def perron_irreducible(block: SubstochasticBlock, start=None) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and probability-normed left eigenvector of an
    irreducible nonnegative block (of a stochastic one, its stationary vector).

    Power steps ``y <- y B`` from ``start`` (uniform by default), normalised,
    until the residual ``z - lam y`` of ``z = y B`` is at most ``SOLVE_TOL``
    in L1 norm, or its normwise backward error ``||z - lam y||_1 / (||z||_1 +
    |lam| ||y||_1)`` is at most eps; returns that ``lam`` and ``y``, the start
    itself if it passes.  From the first step whose residual exceeds 0.9 times
    the last (a periodic class, or an eigenvalue near ``-lam``, keeps plain
    steps from converging) it blends ``y <- (y + y B) / 2``, Kahan-summed,
    which shares the eigenvector and makes the class primitive, at half the
    rate.  A single node stops after one step with its self-transition weight.
    Unlinked stochastic classes keep their shares of a nonnegative start, so
    the run ends at their stationary vectors mixed in those shares.  Raises
    :class:`ConvergenceError` before any product on a start of zero or
    non-finite sum, at the first non-finite residual, and after ``MAX_ITER``
    steps, with the steps taken.
    """
    size = block.shape[0]
    y = np.full(size, 1.0 / size) if start is None else np.asarray(start, dtype=np.float64)
    if not 0.0 < (total := float(y.sum())) < np.inf:
        raise ConvergenceError("the start vector sums to zero or is not finite", total, 0)
    blend, prev, carry = False, np.inf, np.zeros(size)
    for it in range(1, MAX_ITER + 1):
        z = block.mul_left(y)
        lam = float(z.sum())
        residual = float(np.abs(r := z - lam * y).sum())
        if not np.isfinite(residual):
            raise ConvergenceError("eigenvector iteration reached a non-finite value", residual, it)
        if _accepts(residual, SOLVE_TOL,
                    float(np.abs(z).sum()) + abs(lam) * float(np.abs(y).sum())):
            return lam, y
        blend = blend or residual > 0.9 * prev
        prev = residual
        if blend:   # y + r / (1 + lam) = (y + z) / (1 + lam), Kahan-summed: on a long
            step = r / (1 + lam) - carry   # period the blend contracts so slowly that
            carry = ((z := y + step) - y) - step   # plain sums stall a few eps above the stop
        y = z / z.sum()
    raise ConvergenceError("eigenvector iteration did not converge", residual, MAX_ITER)
