"""Block products and the iteration primitives of ``operators``: the
BiCGSTAB solve and its restarted-FOM fallback, the shifted basis behind every
damping grid (with its second Gram-Schmidt pass on a norm drop) and the
Perron iteration (plain power steps until they stall, then the half-step
blend); plus counts of the products that the analyses spend near one."""

import resource
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import rankmass as rm
from rankmass import escc, operators
from rankmass.escc import transient_view
from rankmass.operators import (SubstochasticBlock, block_view, chain_view, perron_irreducible,
                                shifted_solve, solve_left)

import helpers

EPS = np.finfo(float).eps


def test_mul_left_is_the_row_product_plus_dangling_fold(random_graphs):
    rng = np.random.default_rng(11)
    for g in random_graphs:
        rows = rng.choice(g.n, size=max(1, g.n // 2), replace=False)
        cols = rng.choice(g.n, size=max(1, g.n // 3), replace=False)
        for view in (block_view(g, rows, cols), chain_view(g)):
            y = rng.random(view.shape[0])
            expected = np.asarray(y @ view.matrix).ravel()
            if view.dangling_local.size:
                expected = expected + float(y[view.dangling_local].sum()) / g.n
            assert np.array_equal(view.mul_left(y), expected)


def test_chain_view_is_the_transition_matrix(random_graphs):
    rng = np.random.default_rng(12)
    for g in random_graphs:
        x = rng.random(g.n)
        x /= x.sum()
        assert np.abs(chain_view(g).mul_left(x) - x @ helpers.dense_w(g)).max() <= 1e-15


def test_cut_over_every_position_is_the_block_itself(random_graphs):
    """A full cut returns the block uncopied; a proper one is a new block
    equal to the dense slice, its dangling rows folded in."""
    rng = np.random.default_rng(13)
    for g in random_graphs:
        rows = rng.choice(g.n, size=max(2, g.n // 2), replace=False)
        cols = rng.choice(g.n, size=max(2, g.n // 3), replace=False)
        for view in (block_view(g, rows, cols), chain_view(g)):
            n_rows, n_cols = view.shape
            assert view.cut(np.arange(n_rows), np.arange(n_cols)) is view
            some_rows = np.sort(rng.choice(n_rows, size=n_rows - 1, replace=False))
            some_cols = np.sort(rng.choice(n_cols, size=n_cols - 1, replace=False))
            for sub in (view.cut(some_rows, np.arange(n_cols)),
                        view.cut(np.arange(n_rows), some_cols)):
                assert sub is not view and sub.shape != view.shape
                dense = sub.matrix.toarray()
                dense[sub.dangling_local, :] += 1.0 / g.n
                assert np.abs(dense - helpers.dense_w(g)[np.ix_(sub.rows, sub.cols)]).max() <= 1e-15


def test_cut_in_any_order_is_the_permuted_block(random_graphs):
    """A cut in a given order, such as block order, which is not increasing,
    is the dense block with its rows and columns in that order, also when it
    takes every position."""
    rng = np.random.default_rng(14)
    for g in random_graphs:
        view = chain_view(g)
        for size in (max(2, g.n // 2), g.n):
            rows = rng.permutation(g.n)[:size]
            cols = rng.permutation(g.n)[:size]
            sub = view.cut(rows, cols)
            assert sub is not view
            dense = sub.matrix.toarray()
            dense[sub.dangling_local, :] += 1.0 / g.n
            assert np.abs(dense - helpers.dense_w(g)[np.ix_(rows, cols)]).max() <= 1e-15
            assert np.array_equal(sub.rows, rows) and np.array_equal(sub.cols, cols)


def test_non_finite_fallback_stops_at_first_product():
    nan = np.full(2, np.nan)
    half = lambda y: 0.5 * y
    # a product that turns non-finite breaks BiCGSTAB down, and the fallback
    # raises at its first basis step with the non-finite value
    with pytest.raises(rm.ConvergenceError, match="^the restarted basis reached a non-finite"
                       ) as err:
        solve_left(lambda y: np.full_like(y, np.nan), np.ones(2))
    assert err.value.iterations == 1 and np.isnan(err.value.residual)
    # the solve refuses a non-finite right-hand side before any product
    with pytest.raises(rm.ConvergenceError, match="^the right-hand side is not finite") as err:
        solve_left(half, nan)
    assert err.value.iterations == 0


def test_perron_stops_at_non_finite_weight():
    for weights in ([[0.0, 0.5], [np.nan, 0.0]], [[np.nan]]):
        size = len(weights)
        block = SubstochasticBlock(matrix=sparse.csr_matrix(np.array(weights)),
                                   dangling_local=np.array([], dtype=np.int64), n_total=size,
                                   rows=np.arange(size), cols=np.arange(size))
        with pytest.raises(rm.ConvergenceError) as err:
            perron_irreducible(block)
        assert err.value.iterations == 1


def test_perron_below_the_rounding_floor_stops_at_a_backward_error_of_eps(monkeypatch):
    # no tolerance below the floor of ``||y B - lam y||_1`` can be met; the
    # iteration stops once the residual's normwise backward error is at most
    # eps, not at the step cap
    monkeypatch.setattr(operators, "MAX_ITER", 5_000)
    rng = np.random.default_rng(4)
    adj = (rng.random((300, 300)) < 0.02).astype(float)
    adj[np.arange(300), (np.arange(300) + 1) % 300] = 1.0
    block = _square_block(adj / adj.sum(axis=1, keepdims=True))
    products = 0
    mul_left = SubstochasticBlock.mul_left

    def counted(self, y):
        nonlocal products
        products += 1
        return mul_left(self, y)

    monkeypatch.setattr(SubstochasticBlock, "mul_left", counted)
    lam, y = perron_irreducible(block, tol=1e-20)
    z = mul_left(block, y)
    assert lam == 1.0 == z.sum()
    assert _backward_error(z - lam * y, z, lam * y) <= EPS
    assert products < 1_000


def test_solve_matches_dense_on_transient_blocks(random_graphs):
    tol = 1e-14
    for g in random_graphs:
        nodes = np.flatnonzero(rm.block_decomposition(g, rm.bowtie_labeling(g)).block_index < 0)
        view = block_view(g, nodes, nodes)
        t = helpers.dense_w(g)[np.ix_(nodes, nodes)]
        b = np.random.default_rng(nodes.size).random(nodes.size)
        for c in (0.5, 0.99, 1.0):
            eye_less = np.eye(nodes.size) - c * t
            for product, dense in ((view.mul_left, eye_less.T), (view.mul_right, eye_less)):
                apply = lambda v: c * product(v)
                y = solve_left(apply, b, tol=tol)
                expected = np.linalg.solve(dense, b)
                assert np.abs(y - expected).sum() <= 1e-13 * np.abs(expected).sum()
                r = b - (y - apply(y))
                assert np.abs(r).sum() <= tol or _backward_error(r, b, y, apply(y)) <= EPS


@st.composite
def _small_graphs(draw):
    """A small random digraph of one of four shapes: dangling-heavy, with
    self-loops, a single node, or a long chain with a few random links."""
    shape = draw(st.sampled_from(("dangling", "loops", "single", "chain")))
    n = 1 if shape == "single" else draw(st.integers(2, 60 if shape == "chain" else 12))
    node = st.integers(0, n - 1)
    most = n // 2 if shape == "dangling" else 3 * n
    edges = draw(st.lists(st.tuples(node, node), max_size=most))
    if shape == "loops":
        edges += [(u, u) for u in draw(st.lists(node, min_size=1, unique=True))]
    if shape == "chain":
        edges = edges[:3] + [(u, u + 1) for u in range(n - 1)]
    return rm.build_graph(n, edges)


@settings(max_examples=100, deadline=None)
@given(_small_graphs(), st.sampled_from((1e-14, 1e-20)))
def test_every_stop_meets_tol_or_a_backward_error_of_eps(g, tol):
    """Each solve and each Perron pair stops with a residual of at most
    ``tol`` or a normwise backward error of at most eps, also at a ``tol``
    no vector meets, and matches the dense oracle to what that residual
    allows."""
    w = helpers.dense_w(g)
    every = np.arange(g.n)
    transient = np.flatnonzero(rm.block_decomposition(g, rm.bowtie_labeling(g)).block_index < 0)
    for c, nodes in ((0.5, every), (0.99, every), (1.0, transient)):
        if not nodes.size:
            continue
        view = block_view(g, nodes, nodes)
        apply = lambda v: c * view.mul_left(v)
        b = np.random.default_rng(nodes.size).random(nodes.size)
        y = solve_left(apply, b, tol=tol)
        r = b - (y - apply(y))
        scale = sum(np.abs(t).sum() for t in (b, y, apply(y)))
        assert np.abs(r).sum() <= tol or np.abs(r).sum() <= EPS * scale
        # y - expected = -r [I - cA]^{-1}, and rounding in r and in the
        # oracle is a few eps of the terms
        inverse = np.linalg.inv(np.eye(nodes.size) - c * w[np.ix_(nodes, nodes)])
        bound = (np.abs(r).sum() + 4 * EPS * scale) * np.abs(inverse).sum(axis=1).max()
        assert np.abs(y - b @ inverse).sum() <= bound
    full = helpers.dense_link_pattern(g, uniform_dangling=True)
    for nodes in helpers.dense_reach_components(full):
        block = block_view(g, nodes, nodes)
        lam, y = perron_irreducible(block, tol=tol)
        z = block.mul_left(y)
        assert np.abs(z - lam * y).sum() <= tol or _backward_error(z - lam * y, z, lam * y) <= EPS
        lam_dense, y_dense = helpers.dense_perron_left(w[np.ix_(nodes, nodes)])
        assert lam == pytest.approx(lam_dense, abs=1e-14)
        assert np.abs(y - y_dense).sum() <= 1e-12


@st.composite
def _stochastic_unions(draw):
    """Dense stochastic blocks of 1-40 small irreducible classes, one after
    another with no link between them, and a positive mass per class, the
    masses summing to 1: cycles of 1-6 nodes (a single node keeps its loop),
    cycles with self-loops, and dense 3-5-node classes."""
    classes = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("cycle", "loops", "dense")))
        size = draw(st.integers(3, 5) if kind == "dense" else st.integers(1, 6))
        adj = np.roll(np.eye(size), 1, axis=1)
        if kind == "loops":   # on a single node, its loop's weight grows
            adj[np.diag_indices(size)] += draw(st.lists(st.booleans(), min_size=size,
                                                        max_size=size))
        if kind == "dense":
            adj += np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size * size,
                                          max_size=size * size))).reshape(size, size)
        classes.append(adj / adj.sum(axis=1, keepdims=True))
    masses = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(classes),
                                    max_size=len(classes))))
    return classes, masses / masses.sum()


@settings(max_examples=100, deadline=None)
@given(_stochastic_unions())
def test_one_run_from_the_class_masses_ends_at_their_mix_of_stationaries(union_masses):
    """Started at each class's mass spread evenly over its nodes, one run
    over the union keeps every class's mass and ends at the classes'
    stationary vectors mixed in those masses."""
    classes, masses = union_masses
    sizes = [m.shape[0] for m in classes]
    union = _square_block(sparse.block_diag(classes, format="csr"))
    lam, y = perron_irreducible(union, tol=operators.SOLVE_TOL,
                                start=np.repeat(masses / sizes, sizes))
    expected = np.concatenate([mass * helpers.dense_perron_left(m)[1]
                               for m, mass in zip(classes, masses)])
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert np.abs(y - expected).sum() <= 1e-12


def test_perron_spreads_a_dangling_row_and_refuses_a_start_without_mass(monkeypatch):
    # the dangling row 0 links to both nodes, and 1 links to 0
    block = replace(_square_block(np.array([[0.0, 0.0], [1.0, 0.0]])),
                    dangling_local=np.array([0]))
    assert np.abs(perron_irreducible(block)[1] - [2 / 3, 1 / 3]).sum() <= 1e-13
    monkeypatch.setattr(SubstochasticBlock, "mul_left", lambda *_: pytest.fail("a product"))
    for start in ([0.0, 0.0], [1.0, -1.0], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(rm.ConvergenceError, match="^the start vector") as err:
            perron_irreducible(block, start=start)
        assert err.value.iterations == 0


def test_solve_falls_back_to_restarted_cycles_on_a_leaky_ring(monkeypatch):
    # the ring's spectrum lies on a circle of radius 0.998, where BiCGSTAB
    # converges slowly; at a small step cap the restarted cycles take over,
    # each RESTART products and one true residual, in fewer products than
    # the series takes terms (16,211 in all against 18,621)
    cap = 20
    monkeypatch.setattr(operators, "BICGSTAB_MAX_ITER", cap)
    size = 300
    ring = SubstochasticBlock(matrix=sparse.csr_matrix(0.998 * np.roll(np.eye(size), 1, axis=1)),
                              dangling_local=np.array([], dtype=np.int64), n_total=size,
                              rows=np.arange(size), cols=np.arange(size))
    b = np.random.default_rng(3).random(size)
    products = 0

    def apply(y):
        nonlocal products
        products += 1
        return ring.mul_left(y)

    cycles = []
    cycle = operators._fom_cycle
    monkeypatch.setattr(operators, "_fom_cycle", lambda *args: cycles.append(1) or cycle(*args))
    y = solve_left(apply, b)
    expected = np.linalg.solve((np.eye(size) - ring.matrix.toarray()).T, b)
    assert np.abs(y - expected).sum() <= 1e-12 * np.abs(expected).sum()
    fallback = (operators.RESTART + 1) * len(cycles)
    assert 2 * cap < products - fallback <= 1 + 3 * cap
    assert products < helpers.series_terms(ring.mul_left, b)


def test_solve_crosses_a_long_chain_by_restarted_cycles():
    # a chain of k nodes takes a Krylov method at least k products to cross,
    # and BiCGSTAB breaks down on this one; the restarted cycles cross it in
    # about k products
    size = 1000
    chain = _square_block(sparse.eye(size, k=1, format="csr"))
    b = np.full(size, 1.0 / size)
    y = solve_left(chain.mul_left, b)
    assert np.abs(y - np.arange(1, size + 1) / size).max() <= 1e-12


def test_the_fallback_alone_matches_the_dense_oracles(random_graphs, monkeypatch):
    # no BiCGSTAB step: every solve is the restarted cycles from y = 0
    monkeypatch.setattr(operators, "BICGSTAB_MAX_ITER", 0)
    for g in random_graphs:
        for c in (0.5, 0.85, 0.99):
            values = rm.pagerank(g, rm.PageRankConfig(damping=c)).values
            assert np.abs(values - helpers.dense_pagerank(g, c)).sum() <= 1e-12
        blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
        w = helpers.dense_w(g)
        t = np.flatnonzero(blocks.block_index < 0)
        visits = np.zeros(g.n)   # x (I - T) = 1/n
        visits[t] = np.linalg.solve((np.eye(t.size) - w[np.ix_(t, t)]).T,
                                    np.full(t.size, 1.0 / g.n))
        assert rm.expected_visits(g, blocks) == pytest.approx(visits.sum() * g.n / t.size,
                                                              rel=1e-12)
        limit, inflow = np.zeros(g.n), visits @ w
        for k in range(blocks.num_blocks):
            r = np.flatnonzero(blocks.block_index == k)
            limit[r] = (r.size / g.n + inflow[r].sum()) * helpers.dense_stationary(w[np.ix_(r, r)])
        assert np.abs(rm.limit_vector(g, blocks).vector - limit).sum() <= 1e-12
    # a zero right-hand side is met at y = 0, before a norm of zero divides
    assert np.array_equal(solve_left(lambda y: 0.5 * y, np.zeros(3)), np.zeros(3))


def test_solve_goes_on_from_the_true_residual_when_the_updated_one_drifts():
    # one product off by 1e-6 leaves the updated residual off the true one for
    # good; the check at its claimed stop catches that, and the solve goes on
    # from the true residual
    rng = np.random.default_rng(6)
    a = sparse.csr_matrix(rng.random((40, 40)) * 0.02)
    b = rng.random(40)
    products = 0

    def apply(y):
        nonlocal products
        products += 1
        return a.T @ y + (1e-6 if products == 4 else 0.0)

    y = solve_left(apply, b, tol=1e-12)
    assert np.abs(b - (y - a.T @ y)).sum() <= 1e-12
    assert products < 40


@pytest.mark.parametrize("c", [0.85, 0.95, 0.99])
def test_chain_solve_meets_its_tolerance_on_the_bowtie_large_graph(c, seed1_graph):
    # a backward error of eps, about 4e-14 here at c = 0.99, lies below
    # 1e-12, so the solve stops at tol itself; the earlier floor test,
    # tol * ||y||_1, let it stop near 100 tol
    chain = chain_view(seed1_graph("bowtie-large"))
    b = np.full(chain.shape[0], 1.0 / chain.shape[0])
    y = solve_left(lambda v: c * chain.mul_left(v), b, tol=1e-12)
    assert np.abs(b - (y - c * chain.mul_left(y))).sum() <= 1e-12


def test_c1_solve_below_the_rounding_floor_stops_there(seed1_graph):
    # the limit's absorption solve over the transient block: no iterate meets
    # 1e-17, and the solve stops at a normwise backward error of eps, where
    # it stops at SOLVE_TOL too; with the floor at tol * ||y||_1 alone it
    # took 500 steps and then a series fallback, 4518 products in all
    g = seed1_graph("bowtie-large")
    view = transient_view(g, rm.block_decomposition(g, rm.bowtie_labeling(g)))
    b = np.full(view.shape[0], 1.0 / g.n)
    residual = lambda y: np.abs(b - (y - view.mul_left(y))).sum()
    products = 0

    def apply(y):
        nonlocal products
        products += 1
        return view.mul_left(y)

    y = solve_left(apply, b, tol=1e-17)
    assert products <= 100
    assert residual(y) <= residual(solve_left(view.mul_left, b, tol=operators.SOLVE_TOL))


@pytest.fixture(scope="module")
def chain_20k():
    rng = np.random.default_rng(5)
    n = 20_000
    tails = np.repeat(np.arange(n), 4)
    chain = chain_view(rm.build_graph(n, zip(tails, rng.integers(0, n, tails.size))))
    return chain, rng.random(n)


def _cpu_over_wall(run) -> tuple[float, float]:
    # BLAS threads ``@`` on vectors this long; one thread's CPU time cannot
    # exceed its wall time
    run()
    time.sleep(0.3)   # lets idle BLAS threads of earlier tests stop spinning

    def cpu_s():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime

    cpu, wall = cpu_s(), time.perf_counter()
    for _ in range(5):
        run()
    return cpu_s() - cpu, time.perf_counter() - wall


def test_solve_stays_on_one_thread(chain_20k):
    chain, b = chain_20k
    cpu, wall = _cpu_over_wall(lambda: solve_left(lambda y: 0.85 * chain.mul_left(y), b))
    assert cpu <= 1.2 * wall


def test_grid_basis_stays_on_one_thread(chain_20k):
    chain, b = chain_20k
    probes = np.random.default_rng(7).random((b.size, 3))
    grid = np.arange(0.0, 0.991, 0.01)
    cpu, wall = _cpu_over_wall(lambda: shifted_solve(chain.mul_left, b, probes, grid))
    assert cpu <= 1.2 * wall


def test_c1_analyses_take_a_fraction_of_the_walk(near_one, monkeypatch):
    g, _, blocks = near_one
    view = transient_view(g, blocks)
    size = view.rows.size
    terms = helpers.series_terms(view.mul_left, np.full(size, 1.0 / size))
    products = 0
    mul_left = SubstochasticBlock.mul_left

    def counted(self, y):
        nonlocal products
        products += 1
        return mul_left(self, y)

    monkeypatch.setattr(SubstochasticBlock, "mul_left", counted)
    for analysis in (rm.limit_vector, rm.expected_visits):
        products = 0
        analysis(g, blocks)
        assert products < terms / 20, analysis.__name__


def test_grid_analyses_take_fewer_products_than_the_walk(near_one, monkeypatch):
    # the series walk of T to the top grid value 0.95, plus a solve for c = 1, is
    # what the grids cost before they shared one basis that holds c = 1 too
    g, labels, blocks = near_one
    view = transient_view(g, blocks)
    u = np.full(view.rows.size, 1.0 / view.rows.size)
    terms = helpers.series_terms(lambda y: 0.95 * view.mul_left(y), u)
    counts = {"mul_left": 0, "solve_left": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(SubstochasticBlock, "mul_left",
                        counting("mul_left", SubstochasticBlock.mul_left))
    monkeypatch.setattr(operators, "solve_left", counting("solve_left", solve_left))
    monkeypatch.setattr(escc, "solve_left", counting("solve_left", solve_left))
    summary = rm.spectral_summary(g, labels, blocks)
    perron = counts["mul_left"]
    grid = np.arange(0.05, 0.951, 0.05)   # the CLI default 0.05:0.95:0.05
    for analysis, summary_products in (
            (lambda: rm.prop3_bounds(g, labels, blocks, grid), perron),
            (lambda: rm.cstar_solve(g, labels, blocks, summary=summary), 0)):
        counts.update(mul_left=0, solve_left=0)
        analysis()
        assert counts["solve_left"] == 0
        assert counts["mul_left"] - summary_products < terms / 4


def _backward_error(r, *terms) -> float:
    """Normwise backward error of a residual ``r`` that is a difference of
    ``terms``: ``||r||_1`` over the sum of their L1 norms."""
    return float(np.abs(r).sum() / sum(np.abs(t).sum() for t in terms))


def _square_block(m) -> SubstochasticBlock:
    size = m.shape[0]
    return SubstochasticBlock(matrix=sparse.csr_matrix(m),
                              dangling_local=np.array([], dtype=np.int64), n_total=size,
                              rows=np.arange(size), cols=np.arange(size))


def _record_passes(monkeypatch, apply):
    """``apply`` wrapped so that each product opens a list, and every
    Gram-Schmidt pass after it appends ``(||w||, ||w - projection||)``,
    computed by the same einsum calls as the pass itself."""
    steps = []
    einsum = np.einsum

    def recording(subscripts, *operands, **kwargs):
        if subscripts == "ij,j->i":   # the coefficients: one call per pass
            basis, w = operands
            rest = w - einsum("ij,i->j", basis, einsum("ij,j->i", basis, w))
            steps[-1].append((np.sqrt((w * w).sum()), np.sqrt((rest * rest).sum())))
        return einsum(subscripts, *operands, **kwargs)

    def counted(y):
        steps.append([])
        return apply(y)

    monkeypatch.setattr(np, "einsum", recording)
    return steps, counted


def test_second_pass_keeps_a_nearly_closing_basis_to_one_cycle(monkeypatch):
    # five distinct weights close the Krylov space after five steps, up to a
    # 1e-8 coupling: the first pass loses most of the norm there, and without
    # the second the basis drifts from orthogonal and takes a second cycle
    size = 80
    m = np.diag(np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], size // 5))
    m += 1e-8 * sparse.random(size, size, density=0.05, random_state=4).toarray()
    x0 = np.random.default_rng(4).random(size)
    steps, apply = _record_passes(monkeypatch, _square_block(m).mul_left)
    grid = [0.0, 0.5, 0.9, 0.99, 1.0]
    got = shifted_solve(apply, x0, np.eye(size), grid)
    monkeypatch.undo()
    assert any(len(passes) == 2 for passes in steps)
    assert len(got.cycles) == 1
    for c, values in zip(grid, got.values):
        exact = np.linalg.solve((np.eye(size) - c * m).T, x0)
        assert np.abs(values - exact).sum() <= 1e-12 * exact.sum()


def test_a_basis_step_takes_the_second_pass_only_on_a_norm_drop(near_one, monkeypatch):
    g, _, blocks = near_one
    view = transient_view(g, blocks)
    size = view.rows.size
    steps, apply = _record_passes(monkeypatch, view.mul_left)
    shifted_solve(apply, np.full(size, 1.0 / size), np.ones((size, 1)), np.arange(0.0, 1.001, 0.05))
    monkeypatch.undo()
    steps = [passes for passes in steps if passes]   # the last product checks, not extends
    for passes in steps:
        scale, after_first = passes[0]
        assert len(passes) == (2 if after_first < np.sqrt(0.5) * scale else 1)
    two_pass = sum(len(passes) == 2 for passes in steps)
    assert 1 <= two_pass < len(steps) / 10


def _cyclic_class(rng, sizes) -> np.ndarray:
    """Adjacency of a strongly connected class whose nodes fall into
    ``len(sizes)`` groups, every edge leading from one group to the next:
    its period is the number of groups."""
    starts = np.cumsum([0] + list(sizes))
    adj = np.zeros((starts[-1], starts[-1]))
    for k in range(len(sizes)):
        nxt = (k + 1) % len(sizes)
        src = np.arange(starts[k], starts[k + 1])
        dst = np.arange(starts[nxt], starts[nxt + 1])
        for u in src:
            adj[u, rng.choice(dst, size=3)] = 1.0
        reach = max(src.size, dst.size)   # every node gets an in- and an out-edge
        adj[src[np.arange(reach) % src.size], dst[np.arange(reach) % dst.size]] = 1.0
    return adj


def _blend_products(block: SubstochasticBlock, tol: float = 1e-13) -> int:
    """Products that the half-step blend ``y <- (y + y B) / 2`` alone takes
    to a residual ``||y B - lam y||_1`` of ``tol``."""
    y = np.full(block.shape[0], 1.0 / block.shape[0])
    for products in range(1, 100_000):
        z = block.mul_left(y)
        if np.abs(z - z.sum() * y).sum() <= tol:
            return products
        y = 0.5 * (y + z)
        y /= y.sum()
    raise AssertionError("the blend did not converge")


@pytest.mark.parametrize("case, most", [("bipartite", 1.0), ("one odd edge", 1.0),
                                        ("period 3", 1.0), ("aperiodic", 0.6)])
def test_perron_stalls_into_the_blend_and_matches_dense(case, most, monkeypatch):
    # plain power steps do not converge on a periodic class; the stall guard
    # hands those to the blend, and a bipartite class with one odd edge,
    # aperiodic but with an eigenvalue near -1, goes the same way
    rng = np.random.default_rng(9)
    if case == "aperiodic":
        adj = (rng.random((200, 200)) < 0.02).astype(float)
        adj[np.arange(200), (np.arange(200) + 1) % 200] = 1.0
    else:
        adj = _cyclic_class(rng, [60, 70, 70] if case == "period 3" else [100, 100])
        if case == "one odd edge":
            adj[0, 1] = 1.0   # 0 and 1 share a side
    m = 0.98 * adj / adj.sum(axis=1, keepdims=True)
    block = _square_block(m)
    blend = _blend_products(block)
    products = 0
    mul_left = SubstochasticBlock.mul_left

    def counted(self, y):
        nonlocal products
        products += 1
        return mul_left(self, y)

    monkeypatch.setattr(SubstochasticBlock, "mul_left", counted)
    lam, vec = perron_irreducible(block)
    lam_ref, vec_ref = helpers.dense_perron_left(m)
    assert lam == pytest.approx(lam_ref, abs=1e-13)
    assert np.abs(vec - vec_ref).sum() <= 1e-11
    assert products <= most * blend
