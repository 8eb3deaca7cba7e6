"""The damping -> 1 limit of the rank vector, and two small dense
instruments that check the perturbation identities the limit rests on.

In the limit all mass collects in the closed recurrent blocks.  Block ``i``
ends up with

    n_i / n  +  (1/n) 1^T [I - T]^{-1} R_i 1

(its own fair share plus what drains into it through the transient part),
distributed within the block by the block's stationary vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bowtie import BlockDecomposition, strongly_connected_components
from .errors import StructureError, _id_list
from .graph import GraphHandle, build_graph
from .operators import (SOLVE_TOL, block_view, chain_view, dense_stationary, perron_irreducible,
                        solve_left)

LAURENT_MAX_SIZE = 20
AGGREGATED_MAX_SIZE = 30


def block_stationary(g: GraphHandle, block) -> np.ndarray:
    """Stationary distribution of one closed recurrent block.

    Index order follows the sorted ids of the array-like ``block``.  Raises
    :class:`StructureError` if the block is empty, leaks mass or is not
    strongly connected.
    """
    view = block_view(g, block, block)
    if not view.rows.size:
        raise StructureError("block is empty")
    leaks = np.abs(view.row_sums() - 1.0) > 1e-12
    if leaks.any():
        raise StructureError(f"block is not closed: nodes {_id_list(view.rows[leaks])} leak mass")
    if not view.irreducible():
        raise StructureError("block is not strongly connected")
    return perron_irreducible(view, tol=SOLVE_TOL)[1]


def absorption_weights(g: GraphHandle, blocks: BlockDecomposition) -> np.ndarray:
    """Per-block drain terms (1/n) 1^T [I - T]^{-1} R_i 1: the visits x solving
    x (I - T) = 1/n, carried into the blocks by ``x W``.  The solve
    (:func:`solve_left`) has an L1 residual at most ``SOLVE_TOL``, or a
    normwise backward error at most eps."""
    transient = np.flatnonzero(blocks.block_index < 0)
    t_view = block_view(g, transient, transient)
    visits = np.zeros(g.n)
    visits[transient] = solve_left(t_view.mul_left, np.full(transient.size, 1.0 / g.n))
    inside = np.flatnonzero(blocks.block_index >= 0)
    inflow = chain_view(g).mul_left(visits)[inside]
    return np.bincount(blocks.block_index[inside], weights=inflow, minlength=blocks.num_blocks)


@dataclass(frozen=True, eq=False)
class LimitReport:
    """Limiting block masses and the assembled vector."""

    block_masses: np.ndarray          # fair share + drain, per block
    fair_shares: np.ndarray
    drain_weights: np.ndarray
    vector: np.ndarray                # full length-n limit; zero on transient nodes


def limit_vector(g: GraphHandle, blocks: BlockDecomposition) -> LimitReport:
    """Assemble the limiting rank vector: the chain cut to its recurrent
    blocks is stochastic and has no link from one block to another, so one
    :func:`perron_irreducible` run over that cut, started at each block's
    mass spread evenly over its nodes, ends at every block's mass spread by
    its stationary vector.  That vector, and the visits behind the masses
    (:func:`absorption_weights`), each have an L1 residual at most
    ``SOLVE_TOL``, or a normwise backward error at most eps."""
    if blocks.num_blocks == 0:
        raise StructureError("no recurrent blocks: the limit is undefined")
    inside = np.flatnonzero(blocks.block_index >= 0)
    sizes = np.bincount(blocks.block_index[inside])
    fair = sizes / g.n
    drain = absorption_weights(g, blocks)
    masses = fair + drain
    vector = np.zeros(g.n)
    _, vector[inside] = perron_irreducible(chain_view(g).cut(inside, inside), tol=SOLVE_TOL,
                                           start=(masses / sizes)[blocks.block_index[inside]])
    vector.setflags(write=False)
    return LimitReport(block_masses=masses, fair_shares=fair, drain_weights=drain, vector=vector)


# ---------------------------------------------------------------------------
# Dense verification instruments (small matrices only).
# ---------------------------------------------------------------------------

def _check_pair(a: np.ndarray, c: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """A dense instrument's matrix and perturbation as float arrays: square,
    at most ``cap`` x ``cap``, of one shape, and the matrix row-stochastic."""
    pair = []
    for m, what in ((a, "matrix"), (c, "perturbation")):
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"{what} must be square")
        if m.shape[0] > cap:
            raise ValueError(f"{what} capped at {cap}x{cap}; this is a verification instrument")
        pair.append(m)
    a, c = pair
    if a.shape != c.shape:
        raise ValueError("matrix and perturbation shapes differ")
    if np.any(np.abs(a.sum(axis=1) - 1.0) > 1e-12) or np.any(a < -1e-15):
        raise StructureError("matrix must be row-stochastic")
    return a, c


def _dense_components(a: np.ndarray) -> list[list[int]]:
    return strongly_connected_components(build_graph(a.shape[0], np.argwhere(a > 0.0)))


@dataclass(frozen=True, eq=False)
class LaurentCheck:
    """Per-epsilon distance between eps*[I - A + eps C]^{-1} and its leading term."""

    epsilons: np.ndarray
    errors: np.ndarray            # max-abs-row-sum norm
    relative_errors: np.ndarray   # errors / norm of the leading term
    leading_term: np.ndarray


def laurent_check(a: np.ndarray, c: np.ndarray, epsilons) -> LaurentCheck:
    """Measure how fast the resolvent of a shrinking perturbation approaches
    its rank-one leading term (1 / (mu C 1)) 1 mu.

    ``a`` must be irreducible and stochastic; ``a - eps*c`` substochastic on
    the grid.  Errors shrink linearly in epsilon.
    """
    a, c = _check_pair(a, c, LAURENT_MAX_SIZE)
    if len(_dense_components(a)) != 1:
        raise StructureError("matrix must be irreducible")
    eps_grid = np.asarray(sorted((float(e) for e in epsilons), reverse=True))
    if not (eps_grid.size and np.all((eps_grid > 0.0) & (eps_grid < np.inf))):
        raise ValueError("need a positive epsilon grid")
    for eps in eps_grid:
        perturbed = a - eps * c
        if np.any(perturbed < -1e-12) or np.any(perturbed.sum(axis=1) > 1.0 + 1e-12):
            raise StructureError(f"matrix - {eps}*perturbation is not substochastic")

    mu = dense_stationary(a)
    speed = float(mu @ c.sum(axis=1))
    if abs(speed) < 1e-13:
        raise StructureError("perturbation removes no mass under the stationary law "
                             "(mu C 1 = 0); the expansion degenerates")
    leading = np.outer(np.ones(a.shape[0]), mu) / speed
    lead_norm = float(np.abs(leading).sum(axis=1).max())

    errors = np.empty(eps_grid.size)
    for k, eps in enumerate(eps_grid):
        resolvent = np.linalg.inv(np.eye(a.shape[0]) - a + eps * c)
        diff = eps * resolvent - leading
        errors[k] = float(np.abs(diff).sum(axis=1).max())
    return LaurentCheck(epsilons=eps_grid, errors=errors,
                        relative_errors=errors / lead_norm, leading_term=leading)


def aggregated_chain_limit(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Limit distribution of the perturbed chain A + eps C as eps -> 0,
    through the aggregated chain over the ergodic classes of A.

    Builds D = M C B with B carrying class indicators on recurrent rows and
    expected-absorption columns phi_i = [I - E]^{-1} L_i 1 on transient rows,
    then solves nu (D + I) = nu and expands class weights by the class
    stationaries.
    """
    a, c = _check_pair(a, c, AGGREGATED_MAX_SIZE)
    n = a.shape[0]

    comps = _dense_components(a)
    classes: list[list[int]] = []
    transient: list[int] = []
    for comp in comps:
        closed = not np.any(np.delete(a[comp, :], comp, axis=1) > 0.0)
        if closed:
            classes.append(comp)
        else:
            transient.extend(comp)
    transient.sort()
    m = len(classes)
    if m == 0:
        raise StructureError("no ergodic class found")

    e_block = a[np.ix_(transient, transient)] if transient else np.zeros((0, 0))
    if transient:
        eigs = np.linalg.eigvals(e_block)
        if np.max(np.abs(eigs)) >= 1.0 - 1e-12:
            raise StructureError("transient block must have spectral radius below one")

    mus = [dense_stationary(a[np.ix_(cls, cls)]) for cls in classes]

    big_m = np.zeros((m, n))
    big_b = np.zeros((n, m))
    for i, cls in enumerate(classes):
        big_m[i, cls] = mus[i]
        big_b[cls, i] = 1.0
    if transient:
        inv = np.linalg.inv(np.eye(len(transient)) - e_block)
        for i, cls in enumerate(classes):
            l_i = a[np.ix_(transient, cls)]
            big_b[transient, i] = inv @ l_i.sum(axis=1)

    d = big_m @ c @ big_b
    nu = dense_stationary(d + np.eye(m))

    limit = np.zeros(n)
    for i, cls in enumerate(classes):
        limit[cls] = nu[i] * mus[i]
    return limit


# ---------------------------------------------------------------------------
# Bundled example pairs for the expansion check.
# ---------------------------------------------------------------------------

def laurent_example_2state() -> tuple[np.ndarray, np.ndarray]:
    """Two-state swap chain with mass leaking from the first state."""
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    c = np.array([[0.0, 0.5], [0.0, 0.0]])
    return a, c


def laurent_example_5state() -> tuple[np.ndarray, np.ndarray]:
    """Five-state circulant chain with a uniform leak along the short hop."""
    n = 5
    a = np.zeros((n, n))
    c = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 0.7
        a[i, (i + 2) % n] = 0.3
        c[i, (i + 1) % n] = 0.5
    return a, c
