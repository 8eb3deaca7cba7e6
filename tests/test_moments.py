"""The damping-series walk (``operators.resolvent_moments``) against direct
solves and the dense oracles: the sweep, the transient-block mass and visits,
and the IN+SCC main term and correction all read their grids off one walk."""

import numpy as np
import pytest

import rankmass as rm
from rankmass.escc import transient_view
from rankmass.inscc import main_term_mass
from rankmass.operators import resolvent_moments, series_at, solve_left

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


def test_moments_match_solve_left(cases):
    for g, _, blocks in cases:
        if not blocks.transient_set:
            continue
        view = transient_view(g, blocks)
        size = view.rows.size
        rng = np.random.default_rng(size)
        x0 = rng.random(size)
        x0 /= x0.sum()
        probes = rng.random((size, 3))
        for c_max in (0.0, 0.5, 0.85, 0.99, 1.0):
            moments = resolvent_moments(view.mul_left, x0, probes, c_max)
            assert moments.shape[1] == 3
            for c in (c_max, 0.5 * c_max):
                y = solve_left(lambda v: c * view.mul_left(v), x0)
                # rounding only: a few units in the last place of ||y||_1
                gap = np.abs(series_at(moments, [c])[0] - y @ probes).max()
                assert gap <= 1e-14 * y.sum()


def test_moments_vector_probe_and_stop_rule():
    # one state keeping half its mass: x_k = 0.5^k, so the walk to c_max
    # stops at the first k with (c_max / 2)^k <= tol
    apply = lambda x: 0.5 * x
    moments = resolvent_moments(apply, np.ones(1), np.ones(1), 1.0, tol=1e-3)
    assert moments.shape == (11,)
    assert np.array_equal(moments, 0.5 ** np.arange(11))
    assert series_at(moments, [0.0, 1.0]).tolist() == [1.0, 2.0 - 0.5 ** 10]
    assert resolvent_moments(apply, np.ones(1), np.ones(1), 0.0).shape == (2,)


def test_moments_iteration_cap_raises():
    with pytest.raises(rm.ConvergenceError) as err:
        resolvent_moments(lambda x: x, np.ones(3), np.ones(3), 1.0, max_iter=50)
    assert err.value.iterations == 50
    assert err.value.residual == pytest.approx(3.0)


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
            for got, nodes in ((m.escc, blocks.escc), (m.dn, blocks.dangling),
                               (m.transient, blocks.transient_set),
                               (m.pure_out, rm.pure_out_nodes(labels, blocks))):
                assert got == pytest.approx(float(ref[sorted(nodes)].sum()), abs=1e-11)
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
            assert main_term_mass(view, c) == pytest.approx(main, abs=1e-13)
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
