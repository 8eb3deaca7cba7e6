"""Closed-form analysis of the IN+SCC score mass as a function of damping.

Splitting nodes into OUT, IN+SCC, and the dangling set DN turns the rank
equation into three coupled linear blocks.  Eliminating OUT and DN leaves

    pi_inscc(c) = k(c) * u * [I - cP - w(c) S1 u]^{-1},
    k(c) = (1-c) alpha / (1 - c beta),   w(c) = c^2 alpha / (1 - c beta),

with alpha, beta the IN+SCC and DN node fractions, u the uniform row over
IN+SCC, P the internal block and S1 the per-node weight toward DN.  The
rank-one term has a closed form (Sherman-Morrison): with
``y = u [I - cP]^{-1}`` and ``q = w(c) y S1``,

    u [I - cP - w(c) S1 u]^{-1} = y / (1 - q),

valid while ``q < 1``.  So no solve carries the rank-one term: a vector is
one solve of ``I - cP``, and masses on a grid come from one shifted basis of
P from ``u`` probed with ``[1, S1]`` (:func:`operators.shifted_solve`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bowtie import BowtieLabeling, Label
from .errors import AssumptionViolationError, StructureError, _id_list
from .graph import GraphHandle
from .operators import (SubstochasticBlock, block_view, perron_irreducible, shifted_solve,
                        solve_left)

FD_STEP_AT_ZERO = 1e-5     # central difference step at c = 0
FD_NEAR_ONE = 0.999        # where the one-sided difference below c = 1 is taken
FD_STEP_AT_ONE = 1e-4      # its step


@dataclass(frozen=True, eq=False)
class ThreeBlockView:
    """OUT / IN+SCC / DN node split with the four internal operators."""

    out_nodes: np.ndarray
    inscc_nodes: np.ndarray
    dn_nodes: np.ndarray
    alpha: float
    beta: float
    q: SubstochasticBlock   # OUT -> OUT
    r: SubstochasticBlock   # IN+SCC -> OUT
    p: SubstochasticBlock   # IN+SCC -> IN+SCC
    s: SubstochasticBlock   # IN+SCC -> DN
    n: int

    @property
    def size(self) -> int:
        return self.inscc_nodes.size

    def uniform(self) -> np.ndarray:
        return np.full(self.size, 1.0 / self.size)

    def s_leak(self) -> np.ndarray:
        """Per IN+SCC node total weight into DN (the vector S 1)."""
        return self.s.row_sums()

    def retention_p1(self) -> float:
        """Chance a uniformly started surfer stays inside IN+SCC for one step."""
        return float(self.p.row_sums().mean())


def three_block_view(g: GraphHandle, labels: BowtieLabeling, *,
                     fold_other: bool = False,
                     force_dn_merge: bool = False) -> ThreeBlockView:
    """Build the three-way split.

    DN is exactly the dangling set; IN+SCC comes from the labels; everything
    else is OUT.  Links from OUT into DN break the block triangular shape:
    by default that raises :class:`AssumptionViolationError` naming the
    dangling nodes hit, while ``force_dn_merge`` keeps the DN classification
    and proceeds with a warning (downstream closed forms turn approximate).
    OTHER-labeled nodes are rejected unless ``fold_other`` places them in OUT.
    """
    lab = labels.labels
    other = np.flatnonzero(lab == Label.OTHER)
    if other.size and not fold_other:
        raise StructureError(
            f"nodes {_id_list(other)} are outside the bow-tie; "
            "pass fold_other=True to treat them as OUT")
    inscc_mask = ((lab == Label.IN) | (lab == Label.SCC)) & ~g.dangling_mask
    out_mask = ~inscc_mask & ~g.dangling_mask
    inscc = np.flatnonzero(inscc_mask)
    out = np.flatnonzero(out_mask)

    if inscc.size == 0:
        raise StructureError("IN+SCC is empty")

    into_dn = np.repeat(out_mask, g.out_degree) & g.dangling_mask[g.out_indices]
    hit = np.unique(g.out_indices[into_dn]).tolist()
    if hit:
        if not force_dn_merge:
            raise AssumptionViolationError(hit)
        warnings.warn(
            f"OUT links into dangling node(s) {_id_list(hit)}; block split kept, "
            "closed-form results are approximate", stacklevel=2)

    return ThreeBlockView(
        out_nodes=out, inscc_nodes=inscc, dn_nodes=g.dangling,
        alpha=inscc.size / g.n, beta=g.dangling.size / g.n,
        q=block_view(g, out, out), r=block_view(g, inscc, out),
        p=block_view(g, inscc, inscc), s=block_view(g, inscc, g.dangling),
        n=g.n)


def _rank_one_coeff(view: ThreeBlockView, c: float) -> float:
    return c * c * view.alpha / (1.0 - c * view.beta)


def _restart_coeff(view: ThreeBlockView, c: float) -> float:
    return (1.0 - c) * view.alpha / (1.0 - c * view.beta)


def _damping(c: float) -> float:
    if not 0.0 <= c < 1.0:
        raise ValueError(f"damping must lie in [0, 1); got {c}")
    return c


def _grid(grid) -> np.ndarray:
    """The damping values of ``grid`` as an array; each in [0, 1), strictly increasing."""
    values = np.array([_damping(float(c)) for c in grid])
    if np.any(np.diff(values) <= 0.0):
        raise ValueError("damping grid must be strictly increasing")
    return values


def inscc_vector(view: ThreeBlockView, c: float) -> np.ndarray:
    """Evaluate the closed form at damping ``c``; indexed like inscc_nodes.

    The one solve ``y [I - cP] = u`` (:func:`solve_left`) has an L1
    residual at most ``SOLVE_TOL``, or a normwise backward error at most
    eps."""
    return _inscc_at(view, _damping(c))


def _inscc_at(view: ThreeBlockView, c: float) -> np.ndarray:
    # interior evaluation; also accepts small negative c for difference stencils
    return _restart_coeff(view, c) * _with_rank_one(view, c, _rank_one_coeff(view, c))


def _with_rank_one(view: ThreeBlockView, c: float, w: float) -> np.ndarray:
    """``u [I - cP - w S1 u]^{-1}`` as ``y / (1 - w y S1)`` with ``y = u [I - cP]^{-1}``."""
    y = solve_left(lambda v: c * view.p.mul_left(v), view.uniform())
    q = w * float(y @ view.s_leak())
    if q >= 1.0:
        raise StructureError("rank-one correction is not contractive")
    return y / (1.0 - q)


def reconstruct_out_and_dn(view: ThreeBlockView, c: float,
                           pi_inscc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Back-substitute the OUT and DN segments from the IN+SCC segment."""
    n = view.n
    n_dn = view.dn_nodes.size
    dn_total = 0.0
    if n_dn:
        dn_total = n / (n - c * n_dn) * (
            c * float(pi_inscc @ view.s_leak()) + (1.0 - c) / n * n_dn)
    pi_dn = np.zeros(n_dn)
    if n_dn:
        pi_dn = c * view.s.mul_left(pi_inscc) + (c / n) * dn_total + (1.0 - c) / n

    pi_out = np.zeros(view.out_nodes.size)
    if view.out_nodes.size:
        b = c * view.r.mul_left(pi_inscc) + ((1.0 - c) / n + (c / n) * dn_total)
        pi_out = solve_left(lambda y: c * view.q.mul_left(y), b)
    return pi_out, pi_dn


def full_rank_vector(view: ThreeBlockView, c: float) -> np.ndarray:
    """Closed-form rank vector over all nodes, assembled from the three segments."""
    pi_inscc = inscc_vector(view, c)
    pi_out, pi_dn = reconstruct_out_and_dn(view, c, pi_inscc)
    full = np.zeros(view.n)
    full[view.inscc_nodes] = pi_inscc
    full[view.out_nodes] = pi_out
    full[view.dn_nodes] = pi_dn
    return full


class DerivativeAtZero(NamedTuple):
    vector: np.ndarray
    total: float


def derivative_at_zero(view: ThreeBlockView) -> DerivativeAtZero:
    """Exact slope of the IN+SCC segment and of its total mass at c = 0.

    The total equals alpha * (-1 + beta + p1); it is positive exactly when
    the one-step retention p1 exceeds 1 - beta.
    """
    u = view.uniform()
    vector = -view.alpha * (1.0 - view.beta) * u + view.alpha * view.p.mul_left(u)
    total = view.alpha * (-1.0 + view.beta + view.retention_p1())
    return DerivativeAtZero(vector=vector, total=total)


@dataclass(frozen=True)
class DerivativeAtOne:
    """Exact slope at c = 1 plus its leading-order reciprocal approximation."""

    vector: np.ndarray
    total: float
    approx_total: float
    leakage: float      # pi_bar R 1 + (1-beta-alpha)/(1-beta) pi_bar S 1


def derivative_at_one(view: ThreeBlockView) -> DerivativeAtOne:
    """Evaluate the near-singular slope ``-coeff u [I - P - coeff S1 u]^{-1}``
    at c = 1, ``coeff = alpha / (1 - beta)``.

    Requires the internal IN+SCC walk (outward links dropped, rows
    renormalized) to be irreducible; its stationary vector weighs the leak
    terms in the approximation.  A core that never leaks (no OUT share and
    no link to OUT) raises :class:`StructureError` before any solve.
    ``pi_bar`` and the solve ``y [I - P] = u`` (:func:`solve_left`) each
    have an L1 residual at most ``SOLVE_TOL``, or a normwise backward error
    at most eps.
    """
    pi_bar = _internal_stationary(view)
    out_share = view.out_nodes.size / view.n   # exact: 1 - alpha - beta need not round to 0
    leakage = float(pi_bar @ view.r.row_sums()) \
        + out_share / (1.0 - view.beta) * float(pi_bar @ view.s_leak())
    if leakage <= 0.0:
        raise StructureError("IN+SCC never leaks; the slope at c = 1 diverges")
    coeff = view.alpha / (1.0 - view.beta)
    vector = -coeff * _with_rank_one(view, 1.0, coeff)
    return DerivativeAtOne(vector=vector, total=float(vector.sum()),
                           approx_total=-coeff / leakage, leakage=leakage)


def _internal_stationary(view: ThreeBlockView) -> np.ndarray:
    p = view.p.matrix
    sums = np.asarray(p.sum(axis=1)).ravel()
    if np.any(sums <= 0.0):
        dead = view.inscc_nodes[np.flatnonzero(sums <= 0.0)].tolist()
        raise StructureError(
            f"IN+SCC nodes {_id_list(dead)} have no internal links; the internal walk is reducible")
    if not view.p.irreducible():   # a dangling row has no internal link, so none is left
        raise StructureError("internal IN+SCC walk is reducible")
    internal = p.multiply(1.0 / sums[:, None]).tocsr()
    return perron_irreducible(replace(view.p, matrix=internal))[1]


@dataclass(frozen=True)
class InsccCurvePoint:
    """Mass at one damping value, split into main term and rank-one correction."""

    c: float
    mass: float
    main_term: float
    correction: float
    d1_estimate: float | None = None
    d2_estimate: float | None = None


def _visits_and_leak(view: ThreeBlockView, grid: np.ndarray) -> np.ndarray:
    """Rows ``(y_c 1, y_c S1)`` of ``y_c = u [I - cP]^{-1}``, one per grid value."""
    probes = np.column_stack([np.ones(view.size), view.s_leak()])
    return shifted_solve(view.p.mul_left, view.uniform(), probes, grid).values


def sherman_morrison_split(view: ThreeBlockView, c: float) -> InsccCurvePoint:
    """Split the closed form into its dangling-free main term and the
    rank-one correction; the two recompose the full mass exactly."""
    return inscc_curve(view, [c])[0]


def curvature_form(view: ThreeBlockView, c: float) -> float:
    """The quadratic form a(c) driving the single-peak argument; nonnegative
    because the internal block only loses mass."""
    u = view.uniform()
    y = solve_left(lambda v: c * view.p.mul_left(v), u)
    z = solve_left(lambda v: c * view.p.mul_right(v), np.ones(view.size))
    return view.alpha / (1.0 - c * view.beta) * float(y @ (z - view.p.mul_right(z)))


@dataclass(frozen=True, eq=False)
class UnimodalityReport:
    grid: np.ndarray
    main_masses: np.ndarray
    c0_estimate: float
    violations: tuple[str, ...]


def unimodality_scan(view: ThreeBlockView, grid=None) -> UnimodalityReport:
    """Scan the main-term mass over a dense grid and report any departure
    from the rise-once-then-decay shape (at most one sign change of the
    first difference, concave tail, positive a(c))."""
    grid = np.arange(0.0, 0.991, 0.01) if grid is None else _grid(grid)
    if grid.size < 3:
        raise ValueError("grid too coarse for a shape scan")
    masses = _restart_coeff(view, grid) * _visits_and_leak(view, grid)[:, 0]

    violations: list[str] = []
    diffs = np.diff(masses)
    signs = np.sign(np.where(np.abs(diffs) <= 1e-13, 0.0, diffs))
    meaningful = signs[signs != 0.0]
    flips = int(np.count_nonzero(np.diff(meaningful) != 0.0))
    if flips > 1:
        violations.append(f"first difference changes sign {flips} times")
    if meaningful.size and meaningful[0] < 0 and np.any(meaningful[1:] > 0):
        violations.append("mass rises again after an initial decay")

    peak = int(np.argmax(masses))
    second = masses[:-2] - 2.0 * masses[1:-1] + masses[2:]
    for idx in range(peak, second.size):
        if second[idx] >= 1e-12:
            violations.append(f"second difference nonnegative at c={grid[idx + 1]:.4g}")
    for c in (grid[0], grid[grid.size // 2], grid[-1]):
        if curvature_form(view, float(c)) <= 0.0:
            violations.append(f"curvature form nonpositive at c={c:.4g}")

    return UnimodalityReport(grid=grid, main_masses=masses,
                             c0_estimate=float(grid[peak]),
                             violations=tuple(violations))


def _three_point(grid, values) -> tuple[list, list]:
    """First and second derivative estimates at each interior grid point,
    from the parabola through the point and its two neighbours; exact for
    quadratics on any spacing.  None at the two ends."""
    d1, d2 = [None] * len(values), [None] * len(values)
    for i in range(1, len(values) - 1):
        h0, h1 = grid[i] - grid[i - 1], grid[i + 1] - grid[i]
        s0, s1 = (values[i] - values[i - 1]) / h0, (values[i + 1] - values[i]) / h1
        d1[i] = float((h1 * s0 + h0 * s1) / (h0 + h1))
        d2[i] = float(2.0 * (s1 - s0) / (h0 + h1))
    return d1, d2


def inscc_curve(view: ThreeBlockView, grid) -> list[InsccCurvePoint]:
    """Mass split per grid point, with grid-based difference estimates.

    The solves come from one shifted basis (:func:`shifted_solve`).  Each
    grid point has an L1 residual at most ``SOLVE_TOL``, or, the largest c
    possibly, a normwise backward error at most eps."""
    grid = _grid(grid)
    if not grid.size:
        return []
    visits, leak = _visits_and_leak(view, grid).T
    main = _restart_coeff(view, grid) * visits
    q = _rank_one_coeff(view, grid) * leak
    if np.any(q >= 1.0):
        raise StructureError("rank-one correction is not contractive")
    correction = q / (1.0 - q) * main
    mass = main + correction
    d1, d2 = _three_point(grid, mass)
    return [InsccCurvePoint(*map(float, point), d1_estimate=a, d2_estimate=b)
            for point, a, b in zip(zip(grid, mass, main, correction), d1, d2)]


def mass_derivative_fd_at_zero(view: ThreeBlockView) -> float:
    """Central-difference check value for the slope of the total mass at 0."""
    hi = float(_inscc_at(view, +FD_STEP_AT_ZERO).sum())
    lo = float(_inscc_at(view, -FD_STEP_AT_ZERO).sum())
    return (hi - lo) / (2.0 * FD_STEP_AT_ZERO)


def mass_derivative_fd_near_one(view: ThreeBlockView) -> float:
    """One-sided difference of the total mass just below c = 1."""
    hi = float(_inscc_at(view, FD_NEAR_ONE).sum())
    lo = float(_inscc_at(view, FD_NEAR_ONE - FD_STEP_AT_ONE).sum())
    return (hi - lo) / FD_STEP_AT_ONE
