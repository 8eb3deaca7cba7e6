"""The shifted basis (``operators.shifted_solve``) against direct solves and
the dense oracles: the sweep, the transient-block masses and visits, and the
IN+SCC main term and correction all read their grids off one basis."""

import numpy as np
import pytest
from scipy import sparse

import rankmass as rm
from rankmass import operators
from rankmass.escc import transient_view
from rankmass.operators import SubstochasticBlock, chain_view, shifted_solve, solve_left

import helpers

GRID = [0.0, 0.1, 0.5, 0.85, 0.95]


@pytest.fixture(scope="module")
def cases(bowtie, random_graphs):
    """(graph, labels, blocks): the 12-node sample, assumption graphs, and
    unstructured digraphs with dangling nodes anywhere."""
    rng = np.random.default_rng(5)
    graphs = [bowtie] + random_graphs[:8]
    graphs += [helpers.random_digraph(rng, int(rng.integers(2, 25)), 0.15) for _ in range(6)]
    out = []
    for g in graphs:
        labels = rm.bowtie_labeling(g)
        out.append((g, labels, rm.block_decomposition(g, labels)))
    return out


def _dense_transient(g, blocks):
    t = sorted(blocks.transient_set)
    return t, helpers.dense_w(g)[np.ix_(t, t)]


def _diagonal(weights) -> SubstochasticBlock:
    size = len(weights)
    return SubstochasticBlock(matrix=sparse.diags(weights, format="csr"),
                              dangling_local=np.array([], dtype=np.int64), n_total=size,
                              rows=np.arange(size), cols=np.arange(size))


def _agrees_with_solve_left(view, x0, probes, grid):
    got = shifted_solve(view.mul_left, x0, probes, grid)
    assert got.values.shape == (len(grid), probes.shape[1])
    for c, values in zip(grid, got.values):
        y = solve_left(lambda v: c * view.mul_left(v), x0)
        # rounding only: a few units in the last place of ||y||_1
        assert np.abs(values - y @ probes).max() <= 1e-14 * y.sum()
    return got


def _transient_cases(cases):
    for g, _, blocks in cases:
        if blocks.transient_set:
            view = transient_view(g, blocks)
            rng = np.random.default_rng(view.rows.size)
            x0 = rng.random(view.rows.size)
            yield view, x0 / x0.sum(), rng.random((view.rows.size, 3))


def test_moments_match_solve_left(cases):
    for view, x0, probes in _transient_cases(cases):
        for c_max in (0.0, 0.5, 0.85, 0.99, 1.0):
            _agrees_with_solve_left(view, x0, probes, [c_max, 0.5 * c_max])


def test_restarts_match_solve_left(cases, near_one, monkeypatch):
    # three vectors per cycle: every case restarts, so a wrong sign or scale
    # carried across a restart shows in the values, not only in the bounds
    monkeypatch.setattr(operators, "RESTART", 3)
    g, _, blocks = near_one
    view = transient_view(g, blocks)
    size = view.rows.size
    probes = np.random.default_rng(1).random((size, 2))
    runs = [(view, np.full(size, 1.0 / size), probes)] + list(_transient_cases(cases))
    for view, x0, probes in runs:
        got = _agrees_with_solve_left(view, x0, probes, [0.0, 0.5, 0.85, 0.99, 1.0])
        assert len(got.cycles) > 1


def test_moments_vector_probe_and_stop_rule():
    # 30 distinct retention rates keep the basis from closing before the cap;
    # the cycles stop at the first one where every value meets the bound
    block = _diagonal(np.linspace(0.05, 0.9, 30))
    x0 = np.ones(30)
    grid = np.array([0.0, 0.5, 0.9, 0.99])
    tol = 1e-12
    got = shifted_solve(block.mul_left, x0, x0, grid, tol)
    exact = 1.0 / (1.0 - np.outer(grid, block.matrix.diagonal()))
    assert got.values.shape == (4, 1)
    assert np.abs(got.values[:, 0] - exact.sum(axis=1)).max() <= 1e-13 * exact.sum()
    for c, value, residual, ref in zip(grid, got.values[:, 0], got.residuals,
                                       exact.sum(axis=1)):
        assert residual <= tol
        # ||[I - cA]^{-1}||_1 = 1 / (1 - 0.9 c) turns the residual into an error bound
        assert abs(value - ref) <= residual / (1.0 - 0.9 * c) + 1e-15 * ref
    assert 1 < len(got.cycles) < operators.MAX_CYCLES
    rho = np.full(grid.size, np.sqrt(30.0))   # ||x0||_2
    for h, _, _ in got.cycles[:-1]:
        rho = operators._project(h, grid, rho)[1]
    assert np.any(np.abs(rho) * got.cycles[-2][2] > tol)
    assert got.at(0.7) == pytest.approx(np.sum(1.0 / (1.0 - 0.7 * block.matrix.diagonal())),
                                        rel=1e-13)


def test_invariant_subspace_ends_the_basis():
    # a one-node chain, and a start that is already a left eigenvector (the
    # uniform row of a 5-cycle): the first step closes the basis
    ring = rm.build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    grid = [0.0, 0.5, 0.9]
    for g in (rm.build_graph(1, []), ring):
        products = 0

        def apply(y, view=chain_view(g)):
            nonlocal products
            products += 1
            return view.mul_left(y)

        got = shifted_solve(apply, np.full(g.n, 1.0 / g.n), np.ones(g.n), grid)
        [(h, _, _)] = got.cycles
        assert h.shape == (2, 1) and h[1, 0] == 0.0
        assert got.values[:, 0] == pytest.approx(1.0 / (1.0 - np.array(grid)), rel=1e-15)
        assert products == 2   # the basis step and the check of the largest c


def test_basis_cap_falls_back_to_solve_left(near_one, monkeypatch):
    monkeypatch.setattr(operators, "MAX_CYCLES", 1)
    solved = []
    monkeypatch.setattr(operators, "solve_left",
                        lambda apply, b, tol: solved.append(tol) or solve_left(apply, b, tol=tol))
    g, _, blocks = near_one
    view = transient_view(g, blocks)
    size = view.rows.size
    u = np.full(size, 1.0 / size)
    got = shifted_solve(view.mul_left, u, np.ones(size), [0.1, 0.5, 1.0], 1e-14)
    # one cycle meets the bound at c = 0.1 only; the two others take one solve each
    assert solved == [1e-14, 1e-14]
    t = helpers.dense_w(g)[np.ix_(view.rows, view.rows)]
    for c, value, residual in zip([0.1, 0.5, 1.0], got.values[:, 0], got.residuals):
        ref = np.linalg.solve((np.eye(size) - c * t).T, u).sum()
        assert value == pytest.approx(ref, rel=1e-12)
        assert residual <= 1e-13 * ref
    solved.clear()
    assert got.at(1.0) == pytest.approx(got.values[2], rel=1e-12)
    assert solved == [1e-14]


def test_bad_start_raises_before_any_product():
    products = 0

    def apply(y):
        nonlocal products
        products += 1
        return 0.5 * y

    for x0 in (np.zeros(2), np.array([1.0, np.nan]), np.array([np.inf, 0.0])):
        with pytest.raises(rm.ConvergenceError) as err:
            shifted_solve(apply, x0, np.ones(2), [0.5])
        assert err.value.iterations == 0
    assert products == 0
    for tol in (0.0, np.nan):
        with pytest.raises(ValueError):
            shifted_solve(apply, np.ones(2), np.ones(2), [0.5, 0.9], tol)


def test_sweep_against_dense_pagerank(cases):
    for g, labels, blocks in cases:
        curve = rm.damping_sweep(g, labels, blocks, GRID)
        assert [c for c, _ in curve] == GRID
        lab = labels.labels
        for c, m in curve:
            ref = helpers.dense_pagerank(g, c)
            assert m.by_label == pytest.approx(
                {label.name: float(ref[lab == label].sum()) for label in rm.Label}, abs=1e-11)
            assert m.in_scc == pytest.approx(m.by_label["IN"] + m.by_label["SCC"], abs=1e-15)
            for got, nodes in ((m.escc, blocks.escc_mask), (m.dn, blocks.dangling_ids),
                               (m.transient, blocks.block_index < 0),
                               (m.pure_out, blocks.pure_out_mask)):
                assert got == pytest.approx(float(ref[nodes].sum()), abs=1e-11)
            assert m.recurrent_blocks == pytest.approx(
                [float(ref[list(b)].sum()) for b in blocks.recurrent_blocks], abs=1e-11)
            assert m.label_total == pytest.approx(1.0, abs=1e-14)


def test_sweep_matches_mass_breakdown_of_pagerank(threeblock, threeblock_labels,
                                                  threeblock_blocks):
    for c, m in rm.damping_sweep(threeblock, threeblock_labels, threeblock_blocks, GRID):
        pi = rm.pagerank(threeblock, rm.PageRankConfig(damping=c))
        ref = rm.mass_breakdown(pi, threeblock_labels, threeblock_blocks)
        assert m.escc == pytest.approx(ref.escc, abs=2e-12)
        assert m.by_label == pytest.approx(ref.by_label, abs=2e-12)


def test_sweep_edge_grids(bowtie, bowtie_labels, bowtie_blocks):
    assert rm.damping_sweep(bowtie, bowtie_labels, bowtie_blocks, []) == []
    [(c, m)] = rm.damping_sweep(bowtie, bowtie_labels, bowtie_blocks, [0.0])
    uniform = rm.mass_breakdown(np.full(12, 1.0 / 12.0), bowtie_labels, bowtie_blocks)
    assert c == 0.0
    assert m.by_label == pytest.approx(uniform.by_label, abs=1e-15)
    assert (m.escc, m.pure_out, m.dn, m.transient) == pytest.approx(
        (uniform.escc, uniform.pure_out, uniform.dn, uniform.transient), abs=1e-15)
    assert m.recurrent_blocks == pytest.approx(uniform.recurrent_blocks, abs=1e-15)
    for bad in ([0.5, 1.0], [-0.1], [float("nan")]):
        with pytest.raises(ValueError):
            rm.damping_sweep(bowtie, bowtie_labels, bowtie_blocks, bad)
    with pytest.raises(ValueError):
        rm.damping_sweep(bowtie, bowtie_labels, bowtie_blocks, [0.5], tolerance=0.0)


def test_sweep_tolerance_bounds_the_label_mass_error(near_one):
    # the core drains slowly (lambda1 about 0.9986): at c = 0.99 a series walk
    # stopped at its first term below tol leaves more than tol behind
    g, labels, blocks = near_one
    for tol in (1e-4, 1e-8):
        for c, m in rm.damping_sweep(g, labels, blocks, [0.5, 0.9, 0.99], tolerance=tol):
            ref = helpers.dense_pagerank(g, c)
            gap = sum(abs(m.by_label[label.name] - float(ref[labels.labels == label].sum()))
                      for label in rm.Label)
            assert gap <= tol, (tol, c)


def test_escc_mass_and_visits_against_dense_resolvent(cases):
    for i, (g, labels, blocks) in enumerate(cases):
        if not blocks.transient_set:
            continue
        t, dense_t = _dense_transient(g, blocks)
        u = np.full(len(t), 1.0 / len(t))
        gamma = len(t) / g.n
        # the envelope report needs the Perron pair: bow-tie shaped graphs only
        report = rm.prop3_bounds(g, labels, blocks, GRID[1:]) if i < 9 else None
        for c in GRID + [1.0]:
            ref = (1.0 - c) * gamma * float(np.linalg.solve(
                (np.eye(len(t)) - c * dense_t).T, u).sum())
            assert rm.escc_mass(g, blocks, c) == pytest.approx(ref, abs=1e-13)
            if report is not None and 0.0 < c < 1.0:
                row = next(r for r in report.rows if r.c == c)
                assert row.mass == pytest.approx(ref, abs=1e-13)
        visits = float(np.linalg.solve((np.eye(len(t)) - dense_t).T, u).sum())
        assert rm.expected_visits(g, blocks) == pytest.approx(visits, rel=1e-12)
        if report is not None:
            assert report.visits == pytest.approx(visits, rel=1e-12)


def test_prop3_edge_grids(bowtie, bowtie_labels, bowtie_blocks):
    assert rm.prop3_bounds(bowtie, bowtie_labels, bowtie_blocks, []).rows == ()
    [row] = rm.prop3_bounds(bowtie, bowtie_labels, bowtie_blocks, [0.0]).rows
    assert row.mass == pytest.approx(8.0 / 12.0, abs=1e-15)
    with pytest.raises(ValueError):
        rm.prop3_bounds(bowtie, bowtie_labels, bowtie_blocks, [0.5, 1.5])


def _dense_split(g, view, c):
    w = helpers.dense_w(g)
    p = w[np.ix_(view.inscc_nodes, view.inscc_nodes)]
    leak = w[np.ix_(view.inscc_nodes, view.dn_nodes)].sum(axis=1)
    y = np.linalg.solve((np.eye(view.size) - c * p).T, np.full(view.size, 1.0 / view.size))
    main = (1.0 - c) * view.alpha / (1.0 - c * view.beta) * float(y.sum())
    q = c * c * view.alpha / (1.0 - c * view.beta) * float(y @ leak)
    return main, q / (1.0 - q) * main


def test_split_parts_against_dense_solve(threeblock, heavy, random_graphs):
    for g in [threeblock, heavy] + random_graphs[:8]:
        view = rm.three_block_view(g, rm.bowtie_labeling(g))
        curve = rm.inscc_curve(view, GRID)
        for c, point in zip(GRID, curve):
            main, correction = _dense_split(g, view, c)
            single = rm.sherman_morrison_split(view, c)
            for p in (point, single):
                assert p.c == c
                assert p.main_term == pytest.approx(main, abs=1e-13)
                assert p.correction == pytest.approx(correction, abs=1e-13)
                assert p.mass == p.main_term + p.correction
            assert rm.sherman_morrison_split(view, c).main_term == pytest.approx(main, abs=1e-13)
        scan = rm.unimodality_scan(view, GRID)
        assert scan.main_masses == pytest.approx([_dense_split(g, view, c)[0] for c in GRID],
                                                 abs=1e-13)


def test_inscc_curve_edge_grids(threeblock_view):
    assert rm.inscc_curve(threeblock_view, []) == []
    [point] = rm.inscc_curve(threeblock_view, [0.0])
    assert point.correction == 0.0
    assert point.main_term == pytest.approx(threeblock_view.alpha, abs=1e-15)
    assert point.d1_estimate is None and point.d2_estimate is None
    for bad in ([0.5, 1.0], [-0.1]):
        with pytest.raises(ValueError):
            rm.inscc_curve(threeblock_view, bad)
    for bad in ([0.0, 0.5, 1.5], [0.0, np.nan, 0.5], [-0.5, 0.0, 0.5]):
        with pytest.raises(ValueError, match="damping"):
            rm.unimodality_scan(threeblock_view, bad)
