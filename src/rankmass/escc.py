"""Mass of the extended component as a function of damping: exact curve,
Perron-based envelope bounds, and the damping values where the curve meets
one-step retention targets.

The transient sub-matrix T drives everything:

    mass(c) = (1 - c) * gamma * u [I - cT]^{-1} 1,

with gamma the block's node share and u uniform over the block.  ``p1``
(uniform one-step retention) and ``lambda1`` (dominant eigenvalue of T,
retention under the quasi-stationary law) yield the envelope

    gamma (1-c) / (1 - c p1)  <  mass(c)  <  gamma (1-c) / (1 - c lambda1)

under the two testable conditions reported alongside.

Every mass on a grid with the expected visits ``u [I - T]^{-1} 1``, and
every ``c*`` sample and root-search step (Brent's method), reads
``u [I - cT]^{-1} 1`` off one shifted basis of T from ``u``
(:func:`operators.shifted_solve`), which replays any c from the small data
of its cycles.  A single mass and the visits alone are one BiCGSTAB solve
(:func:`operators.solve_left`), which stops on the true residual.
``lambda1`` and the quasi-stationary vector read T's classes off
:func:`bowtie.block_decomposition`'s components, and take one solve below
the winning class, whatever the class count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bowtie import BlockDecomposition, BowtieLabeling, by_smallest_member, closure
from .errors import ConvergenceError, StructureError
from .graph import GraphHandle
from .operators import (SOLVE_TOL, ShiftedSolve, SubstochasticBlock, block_view,
                        check_tolerance, perron_irreducible, shifted_solve, solve_left)
from .pagerank import mass_breakdown


def transient_view(g: GraphHandle, blocks: BlockDecomposition,
                   escc_only: bool = False) -> SubstochasticBlock:
    """The square substochastic block T.  By default this is the whole
    transient set (extended component plus transient pure-OUT states);
    ``escc_only`` restricts to the extended component proper."""
    if escc_only:
        if np.any(blocks.escc_mask & (blocks.block_index >= 0)):
            raise StructureError("the extended component is closed; nothing is transient")
        nodes = np.flatnonzero(blocks.escc_mask)
    else:
        nodes = np.flatnonzero(blocks.block_index < 0)
    if not nodes.size:
        raise StructureError("transient block is empty")
    return block_view(g, nodes, nodes)


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """One-step retention, dominant eigenpair, and node shares of T."""

    p1: float
    lambda1: float
    quasi_stationary: np.ndarray
    gamma: float
    delta: float
    nodes: np.ndarray


def _perron_left(view: SubstochasticBlock, ids: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and probability-normed left eigenvector of T, exact
    also when T is reducible; ``ids`` numbers T's classes 0..k-1.  Singletons
    read the eigenvalue off the diagonal, larger classes run
    :func:`perron_irreducible`; the largest wins, the smallest member on ties.
    Below the winner it is one solve ``x_down (lam I - T_down) = x_win T_win,down``;
    a tie, an overflow or a failed solve there raises :class:`ConvergenceError`.  Both run
    to ``SOLVE_TOL``, and classes whose eigenvalues lie within it count as tied.
    """
    dangling = view.dangling_local
    sizes = np.bincount(ids)
    members = np.split(np.argsort(ids, kind="stable"), np.cumsum(sizes)[:-1])
    diag = view.matrix.diagonal()
    diag[dangling] += 1.0 / view.n_total
    lams = np.bincount(ids, weights=diag)   # a singleton's eigenvalue is its diagonal entry
    vecs = {}
    for k in np.flatnonzero(sizes > 1).tolist():
        lams[k], vecs[k] = perron_irreducible(view.cut(members[k], members[k]))
    winner = int(np.argmax(lams))
    lam, win = float(lams[winner]), members[winner]

    x = np.zeros(view.rows.size)
    x[win] = vecs.get(winner, 1.0)
    down = np.flatnonzero(ids != winner)
    if down.size:   # nothing lies below a class that is all of T
        below = closure(view.matrix.indptr, view.matrix.indices, win)
        down = down[below[down] | below[dangling].any()]   # a dangling row reaches all of T
    if down.size:
        rival = float(lams[ids[down]].max())
        if rival >= lam - SOLVE_TOL:
            raise ConvergenceError("tied dominant classes along a feeding path", rival, 0)
        sub = view.cut(down, down)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                x[down] = solve_left(lambda y: sub.mul_left(y) / lam,
                                     view.mul_left(x)[down] / lam)
            except ConvergenceError as exc:
                if np.isfinite(exc.residual):
                    raise ConvergenceError("the quasi-stationary vector below the dominant class "
                                           "did not converge", exc.residual, exc.iterations) from None
                x[down] = np.inf   # the restarted fallback met a non-finite value: an overflow
    total = x.sum()
    if not np.isfinite(total):
        raise ConvergenceError("the quasi-stationary vector overflows below the dominant class",
                               total, 0)
    return lam, x / total


def spectral_summary(g: GraphHandle, labels: BowtieLabeling,
                     blocks: BlockDecomposition) -> SpectralSummary:
    """Compute p1, lambda1, and the quasi-stationary vector of T."""
    return _summary_of(g, blocks, transient_view(g, blocks))


def _summary_of(g: GraphHandle, blocks: BlockDecomposition,
                view: SubstochasticBlock) -> SpectralSummary:
    lam, quasi = _perron_left(view, by_smallest_member(blocks.component_of[view.rows]))
    p1 = float(view.row_sums().mean())
    delta = np.count_nonzero(blocks.pure_out_mask) / g.n
    quasi.setflags(write=False)
    return SpectralSummary(p1=p1, lambda1=lam, quasi_stationary=quasi,
                           gamma=view.rows.size / g.n, delta=delta,
                           nodes=view.rows)


def _uniform_basis(view: SubstochasticBlock, grid) -> ShiftedSolve:
    """``u [I - cT]^{-1} 1`` for each c in ``grid`` from one shifted basis."""
    size = view.rows.size
    return shifted_solve(view.mul_left, np.full(size, 1.0 / size), np.ones(size), grid)


def _uniform_visits(view: SubstochasticBlock, c: float) -> float:
    """``u [I - cT]^{-1} 1`` by one solve."""
    size = view.rows.size
    return float(solve_left(lambda y: c * view.mul_left(y), np.full(size, 1.0 / size)).sum())


def _damping(c: float) -> float:
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"damping must lie in [0, 1]; got {c}")
    return c


def escc_mass(g: GraphHandle, blocks: BlockDecomposition, c: float) -> float:
    """Mass held by the transient block at damping ``c``, by one solve; 0 at c = 1."""
    if _damping(c) == 1.0:
        return 0.0
    view = transient_view(g, blocks)
    return (1.0 - c) * (view.rows.size / g.n) * _uniform_visits(view, c)


def expected_visits(g: GraphHandle, blocks: BlockDecomposition) -> float:
    """u [I - T]^{-1} 1: mean number of in-block steps from a uniform start,
    by one solve (:func:`operators.solve_left`)."""
    return _uniform_visits(transient_view(g, blocks), 1.0)


@dataclass(frozen=True)
class BoundRow:
    c: float
    mass: float
    lower: float
    upper: float
    lower_holds: bool
    upper_holds: bool


@dataclass(frozen=True)
class Prop3Bounds:
    rows: tuple[BoundRow, ...]
    condition_i: bool      # p1 < lambda1, validates the upper envelope
    condition_ii: bool     # 1/(1-p1) < expected visits, validates the lower envelope
    p1: float
    lambda1: float
    gamma: float
    visits: float
    violations: tuple[str, ...]


def prop3_bounds(g: GraphHandle, labels: BowtieLabeling, blocks: BlockDecomposition,
                 grid, escc_only: bool = False) -> Prop3Bounds:
    """Evaluate the envelope on a grid and report where each side binds.

    The masses and the expected visits, the value at c = 1, come from one
    shifted basis (:func:`shifted_solve`; the mass at c = 1 is 0).  Each
    point has an L1 residual at most ``SOLVE_TOL``, or, the visits at the
    largest c possibly, a normwise backward error at most eps.
    """
    grid = [_damping(float(v)) for v in grid]
    view = transient_view(g, blocks, escc_only)
    summary = _summary_of(g, blocks, view)
    p1, lam, gamma = summary.p1, summary.lambda1, summary.gamma
    *grid_visits, visits = _uniform_basis(view, grid + [1.0]).values[:, 0].tolist()
    cond_i = p1 < lam
    cond_ii = 1.0 / (1.0 - p1) < visits

    rows = []
    violations = []
    for c, visits_c in zip(grid, grid_visits):
        mass = (1.0 - c) * gamma * visits_c   # 0 at c = 1
        lower = gamma * (1.0 - c) / (1.0 - c * p1)
        upper = gamma * (1.0 - c) / (1.0 - c * lam)
        interior = 0.0 < c < 1.0   # the strict envelope only claims the open interval
        lower_ok = (not cond_ii) or (not interior) or lower < mass
        upper_ok = (not cond_i) or (not interior) or mass < upper
        if not lower_ok:
            violations.append(f"lower bound fails at c={c:.4g}")
        if not upper_ok:
            violations.append(f"upper bound fails at c={c:.4g}")
        rows.append(BoundRow(c=c, mass=mass, lower=lower, upper=upper,
                             lower_holds=lower_ok, upper_holds=upper_ok))
    return Prop3Bounds(rows=tuple(rows), condition_i=cond_i, condition_ii=cond_ii,
                       p1=p1, lambda1=lam, gamma=gamma, visits=visits,
                       violations=tuple(violations))


V_MODES = ("quasi", "uniform", "self")


def cstar_interval_closed_form(p1: float, lambda1: float, v_mode: str) -> tuple[float, float]:
    """Bracketing damping values where the envelope curves meet the
    retention target of the chosen seeding mode.

    ``quasi`` targets lambda1, ``uniform`` targets p1; ``self`` has the fixed
    bracket (1/(1+lambda1), 1/(1+p1)).
    """
    if v_mode not in V_MODES:
        raise ValueError(f"v_mode must be one of {V_MODES}")
    if not (0.0 < p1 < 1.0 and 0.0 < lambda1 < 1.0):
        raise ValueError("retention values must lie strictly between 0 and 1")
    if v_mode == "self":
        return 1.0 / (1.0 + lambda1), 1.0 / (1.0 + p1)
    w = lambda1 if v_mode == "quasi" else p1
    c1 = (1.0 - w) / (1.0 - p1 * w)
    c2 = (1.0 - w) / (1.0 - lambda1 * w)
    return c1, c2


def _r_curve(gamma: float, c: float) -> float:
    return gamma if c <= 0.5 else gamma * (1.0 - c) / c


def _brent(gap: Callable[[float], float], a: float, b: float, fa: float, fb: float,
           width: float) -> tuple[float, float, float]:
    """A root of ``gap`` on the bracket ``[a, b]``, whose end values ``fa``
    and ``fb`` differ in sign, by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4): secant and inverse
    quadratic steps, each taken only while it shrinks the bracket fast
    enough, else a bisection, and never a step below half of ``width``.
    Stops once the bracket is at most ``width`` wide, at a zero gap, or
    after 200 steps.  Returns the iterate with the smaller gap, that gap,
    and the other end of the final bracket."""
    c, fc = a, fa
    d = e = b - a
    half = 0.5 * width
    for _ in range(200):
        if (fb > 0.0 and fc > 0.0) or (fb < 0.0 and fc < 0.0):   # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        if abs(m) <= half or fb == 0.0:
            break
        if abs(e) >= half and abs(fa) > abs(fb):   # e: the step before the last, d
            s = fb / fa
            if a == c:   # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:   # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            e, d = (d, p / q) if 2.0 * p < min(3.0 * m * q - abs(half * q), abs(e * q)) else (m, m)
        else:
            e = d = m   # a bisection
        a, fa = b, fb
        b += d if abs(d) > half else math.copysign(half, m)
        fb = gap(b)
    return b, fb, c


@dataclass(frozen=True)
class CStarReport:
    v_mode: str
    vt_norm: float
    c1: float
    c2: float
    c_star: float            # nan when no crossing exists
    residual: float
    no_crossing: bool
    samples: tuple[tuple[float, float, float], ...]   # (c, mass, target)
    p1: float
    lambda1: float
    gamma: float


def cstar_solve(g: GraphHandle, labels: BowtieLabeling, blocks: BlockDecomposition,
                v_mode: str = "uniform", tolerance: float = 1e-6,
                escc_only: bool = False,
                summary: SpectralSummary | None = None) -> CStarReport:
    """Find the damping value where the block's mass share equals the
    one-step retention of the chosen seeding vector.

    For the fixed seedings the crossing solves mass(c) = gamma * ||v T||
    (the share-normalized balance the bracketing interval is built from);
    the self-normalized seeding crosses the kinked curve r(c) on (1/2, 1).
    """
    if v_mode not in V_MODES:
        raise ValueError(f"v_mode must be one of {V_MODES}")
    check_tolerance(tolerance)
    view = transient_view(g, blocks, escc_only)
    if summary is None:
        summary = _summary_of(g, blocks, view)
    gamma = summary.gamma
    if v_mode == "self":
        lo, hi = 0.5, 1.0 - 1e-9
        target = lambda c: _r_curve(gamma, c)
    else:
        w = summary.lambda1 if v_mode == "quasi" else summary.p1
        if not 0.0 < w < 1.0:
            raise ValueError(f"retention target {w} outside (0, 1)")
        lo, hi = 0.0, 1.0 - 1e-12
        target = lambda c: gamma * w

    sample_grid = np.arange(0.0, 0.991, 0.05)
    basis = _uniform_basis(view, np.append(sample_grid, [lo, hi]))
    *sample_visits, lo_visits, hi_visits = basis.values[:, 0].tolist()

    def mass(c: float, visits: float) -> float:
        return (1.0 - c) * gamma * visits

    def gap(c: float) -> float:   # off the grid the basis was built on: a replay
        return mass(c, float(basis.at(c)[0])) - target(c)

    c1, c2 = cstar_interval_closed_form(summary.p1, summary.lambda1, v_mode)
    samples = tuple((c, mass(c, visits), target(c))
                    for c, visits in zip(sample_grid.tolist(), sample_visits))

    f_lo = mass(lo, lo_visits) - target(lo)
    f_hi = mass(hi, hi_visits) - target(hi)
    no_crossing = not (f_lo > 0.0 > f_hi or f_lo < 0.0 < f_hi)
    c_star = residual = float("nan")
    if not no_crossing:
        c_star, f_star, _ = _brent(gap, lo, hi, f_lo, f_hi, max(tolerance * 1e-4, 1e-12))
        residual = abs(f_star)
    vt_norm = summary.lambda1 if v_mode == "quasi" else summary.p1
    if v_mode == "self":   # the target at c*; nan without a crossing
        vt_norm = target(c_star) / gamma
    return CStarReport(v_mode=v_mode, vt_norm=vt_norm, c1=c1, c2=c2, c_star=c_star,
                       residual=residual, no_crossing=no_crossing, samples=samples,
                       p1=summary.p1, lambda1=summary.lambda1, gamma=gamma)


def pure_out_unfairness(pi, labels: BowtieLabeling, blocks: BlockDecomposition) -> float:
    """Pure-OUT mass over its fair share; nan when there is no pure OUT."""
    delta = np.count_nonzero(blocks.pure_out_mask) / labels.labels.size
    return mass_breakdown(pi, labels, blocks).pure_out / delta if delta else float("nan")
