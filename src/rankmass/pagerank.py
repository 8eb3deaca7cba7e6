"""PageRank two ways, plus the bookkeeping that attributes score mass to
structural components.

:func:`pagerank` corrects the uniform start ``x0`` by one
:func:`operators.solve_left` of ``y (I - cW) = r0``, where
``r0 = c x0 W + (1 - c)/n - x0`` is its residual;
:func:`pagerank_via_resolvent` sums the series ``((1 - c)/n) 1^T (c W)^k``.
Each bounds its L1 error by the tolerance (:func:`pagerank` where its solve
meets its target), so the two agree to within twice the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bowtie import BlockDecomposition, BowtieLabeling, Label
from .errors import ConvergenceError
from .graph import GraphHandle
from .operators import MAX_ITER, check_tolerance, chain_view, shifted_solve, solve_left


@dataclass(frozen=True)
class PageRankConfig:
    """Damping factor in [0, 1) and the tolerance of the returned vector (see
    :func:`pagerank` for what it bounds)."""

    damping: float
    tolerance: float = 1e-12

    def __post_init__(self):
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(
                f"damping must lie in [0, 1); got {self.damping} "
                "(the c -> 1 limit has its own analytic path)")
        check_tolerance(self.tolerance)


@dataclass(frozen=True, eq=False)
class RankVector:
    """A probability vector with how it was obtained: the chain products of
    its solve and its recomputed residual ``||c x W + (1 - c)/n - x||_1``."""

    values: np.ndarray
    damping: float
    iterations_used: int
    residual: float

    def __post_init__(self):
        self.values.setflags(write=False)

    def rank_position(self, node: int) -> int:
        """1-based rank of ``node`` (:func:`rank_of`)."""
        return rank_of(self.values, node)


def rank_of(values: np.ndarray, node: int) -> int:
    """1-based rank of ``node`` by ``values``; higher ranks first, ties go to
    the smaller node id."""
    better = int(np.count_nonzero(values > values[node]))
    better += int(np.count_nonzero((values == values[node])[:node]))
    return better + 1


def pagerank(g: GraphHandle, cfg: PageRankConfig) -> RankVector:
    """Stationary vector of the damped surfer chain, ``x0 + y`` with ``x0``
    uniform and ``y (I - cW) = r0`` solved by :func:`solve_left` to a
    residual of ``(1 - c) tol``.  ``[I - cW]^{-1}`` has L1 norm
    ``1/(1 - c)``, so ``tol`` bounds the L1 error where the solve meets that
    target; where rounding stops it above the target, at a backward error of
    eps (near ``c = 1``), the bound ``residual / (1 - c)`` exceeds ``tol``.
    The fixed-point residual ``||c x W + (1 - c)/n - x||_1`` of the returned
    vector is always recomputed and checked against ``tol``: above it, or on
    a failed solve, :class:`ConvergenceError` names ``c``.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    c = cfg.damping
    n = g.n
    chain = chain_view(g)
    fixed_point_gap = lambda y: c * chain.mul_left(y) + (1.0 - c) / n - y

    x = np.full(n, 1.0 / n)
    x /= x.sum()   # not a no-op: the entries can sum to 1 + 2e-16
    products = 0

    def damped(y: np.ndarray) -> np.ndarray:
        nonlocal products
        products += 1
        return c * chain.mul_left(y)

    try:
        x = x + solve_left(damped, fixed_point_gap(x), tol=(1.0 - c) * cfg.tolerance)
    except ConvergenceError as err:
        raise ConvergenceError(f"pagerank at c={c} did not converge",
                               err.residual, products) from None
    x /= x.sum()
    residual = float(np.abs(fixed_point_gap(x)).sum())
    if residual > cfg.tolerance:
        raise ConvergenceError(f"pagerank at c={c} missed the tolerance {cfg.tolerance}",
                               residual, products)
    return RankVector(values=x, damping=c, iterations_used=products, residual=residual)


def pagerank_via_resolvent(g: GraphHandle, damping: float) -> RankVector:
    """Same vector through the restart-weighted sum of walk distributions.

    Sums the walk ((1-c)/n) 1^T (c W)^k until its tail is within the default
    :class:`PageRankConfig` tolerance.  Cross-validates :func:`pagerank`.
    """
    cfg = PageRankConfig(damping=damping)
    c = cfg.damping
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    chain = chain_view(g)
    # the tail after a term of norm ``step`` is at most c/(1-c) * step
    step_tol = cfg.tolerance * min(1.0, (1.0 - c) / c) if c else cfg.tolerance
    total = term = np.full(n, (1.0 - c) / n)
    for terms_used in range(2, MAX_ITER + 2):
        term = c * chain.mul_left(term)
        total = total + term
        if float(np.abs(term).sum()) <= step_tol:
            break
    else:
        raise ConvergenceError("series did not converge", float(np.abs(term).sum()), MAX_ITER)
    total /= total.sum()
    residual = float(np.abs(c * chain.mul_left(total) + (1.0 - c) / n - total).sum())
    return RankVector(values=total, damping=c, iterations_used=terms_used,
                      residual=residual)


@dataclass(frozen=True)
class MassBreakdown:
    """Score mass summed over labels and over the structural sets."""

    by_label: dict
    in_scc: float
    escc: float
    pure_out: float
    dn: float
    transient: float
    recurrent_blocks: tuple[float, ...]

    @property
    def label_total(self) -> float:
        return float(sum(self.by_label.values()))


def _component_probes(labels: BowtieLabeling, blocks: BlockDecomposition):
    """Sparse indicator matrix, one column per node set of a breakdown: the
    four labels, the extended component, pure OUT, DN, the transient set, and
    each recurrent block, in :class:`MassBreakdown` field order."""
    from scipy import sparse
    sets = [np.flatnonzero(labels.labels == label) for label in Label]
    sets += [np.flatnonzero(blocks.escc_mask), np.flatnonzero(blocks.pure_out_mask),
             blocks.dangling_ids, np.flatnonzero(blocks.block_index < 0)]
    in_block = np.flatnonzero(blocks.block_index >= 0)
    rows = np.concatenate(sets + [in_block])
    cols = np.concatenate((np.repeat(np.arange(len(sets)), [s.size for s in sets]),
                           len(sets) + blocks.block_index[in_block]))
    return sparse.csr_matrix((np.ones(cols.size), (rows, cols)),
                             shape=(labels.labels.size, len(sets) + blocks.num_blocks))


def _breakdown(masses: np.ndarray) -> MassBreakdown:
    by_label = {label.name: float(masses[label]) for label in Label}
    return MassBreakdown(by_label, by_label["IN"] + by_label["SCC"], *map(float, masses[4:8]),
                         tuple(map(float, masses[8:])))


def mass_breakdown(pi, labels: BowtieLabeling,
                   blocks: BlockDecomposition) -> MassBreakdown:
    """Sum a rank vector over each component of interest."""
    values = pi.values if isinstance(pi, RankVector) else np.asarray(pi, dtype=np.float64)
    return _breakdown(values @ _component_probes(labels, blocks))


def damping_sweep(g: GraphHandle, labels: BowtieLabeling, blocks: BlockDecomposition,
                  grid, tolerance: float = PageRankConfig.tolerance
                  ) -> list[tuple[float, MassBreakdown]]:
    """One mass breakdown per grid value, in grid order.

    The PageRank vector at ``c`` is ``(1-c) y_c``, ``y_c (I - cW) = u``, so
    every point reads the component masses of ``y_c`` off one shifted basis
    (:func:`operators.shifted_solve`), normalised by their label total.
    Every point targets the top point's residual ``(1 - max c) tol / 2``, no
    looser than its own ``(1 - c) tol / 2``; the top point stops there, or
    at a normwise backward error at most eps where rounding keeps it
    above.  A residual above ``tol / 2`` raises :class:`ConvergenceError`
    naming its ``c``, with the basis cycles as the iterations; at or below it,
    as ``||[I - cW]^{-1}||_1 = 1/(1 - c)``, the L1 error of ``(1 - c) y_c`` is
    within ``tol / 2``, and normalising at most doubles it, so ``tol`` bounds
    the error of the masses.
    """
    grid = np.array([PageRankConfig(damping=float(c), tolerance=tolerance).damping
                     for c in grid])
    if not grid.size:
        return []
    solved = shifted_solve(chain_view(g).mul_left, np.full(g.n, 1.0 / g.n),
                           _component_probes(labels, blocks), grid,
                           tol=0.5 * (1.0 - grid.max()) * tolerance)
    worst = int(np.argmax(solved.residuals))
    if solved.residuals[worst] > 0.5 * tolerance:
        raise ConvergenceError(f"sweep at c={grid[worst]} missed the tolerance {tolerance}",
                               float(solved.residuals[worst]), len(solved.cycles))
    masses = solved.values / solved.values[:, :4].sum(axis=1, keepdims=True)
    return [(float(c), _breakdown(m)) for c, m in zip(grid, masses)]
