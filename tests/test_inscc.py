import numpy as np
import pytest

import rankmass as rm
from rankmass import inscc

import helpers


def test_view_threeblock_fractions(threeblock_view):
    assert threeblock_view.alpha == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert threeblock_view.beta == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert list(threeblock_view.inscc_nodes) == [0, 1, 2, 3]
    assert list(threeblock_view.dn_nodes) == [4, 5]
    assert list(threeblock_view.out_nodes) == [6, 7, 8]


def test_view_without_dangling_has_zero_beta():
    g = rm.build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    view = rm.three_block_view(g, rm.bowtie_labeling(g))
    assert view.beta == 0.0
    assert view.dn_nodes.size == 0


def test_view_rejects_out_links_into_dangling(bowtie, bowtie_labels):
    with pytest.raises(rm.AssumptionViolationError) as err:
        rm.three_block_view(bowtie, bowtie_labels)
    assert err.value.nodes == (5,)


def test_view_force_merge_warns_and_proceeds(bowtie, bowtie_labels):
    with pytest.warns(UserWarning):
        view = rm.three_block_view(bowtie, bowtie_labels, force_dn_merge=True)
    assert list(view.dn_nodes) == [5]
    assert 5 not in view.out_nodes


def test_view_row_sums(threeblock_view):
    v = threeblock_view
    total = v.p.row_sums() + v.r.row_sums() + v.s.row_sums()
    assert np.allclose(total, 1.0, atol=1e-15)
    assert np.allclose(v.q.row_sums(), 1.0, atol=1e-15)


def test_closed_form_at_zero(threeblock_view):
    seg = rm.inscc_vector(threeblock_view, 0.0)
    assert np.allclose(seg, threeblock_view.alpha / 4.0, atol=1e-15)


def test_closed_form_matches_power_iteration(threeblock, threeblock_view):
    pi = rm.pagerank(threeblock, rm.PageRankConfig(damping=0.85))
    seg = rm.inscc_vector(threeblock_view, 0.85)
    assert np.abs(seg - pi.values[threeblock_view.inscc_nodes]).sum() <= 1e-10


def _dense_closed_form(view, p, s1, c, coeff):
    """``u [I - cP - coeff S1 u]^{-1}`` by a dense inverse."""
    u = np.full(view.size, 1.0 / view.size)
    return u @ np.linalg.inv(np.eye(view.size) - c * p - coeff * np.outer(s1, u))


def _dense_blocks(g, view):
    """P and S1 cut from the dense transition matrix."""
    w = helpers.dense_w(g)[view.inscc_nodes]
    return w[:, view.inscc_nodes], w[:, view.dn_nodes].sum(axis=1)


def _dense_views(threeblock_view, heavy, heavy_view, random_graphs):
    # the three-block sample's P and S1 are written out by hand
    p = np.zeros((4, 4))
    p[0, 1] = 1.0
    p[1, 2] = 0.5
    p[2, 0] = p[2, 3] = 0.5
    p[3, 0] = 1.0 / 3.0
    views = [(threeblock_view, p, np.array([0.0, 0.5, 0.0, 1.0 / 3.0])),
             (heavy_view, *_dense_blocks(heavy, heavy_view))]
    for g in random_graphs[:6]:
        view = rm.three_block_view(g, rm.bowtie_labeling(g))
        views.append((view, *_dense_blocks(g, view)))
    return views


def test_closed_form_against_dense_formula(threeblock_view, heavy, heavy_view, random_graphs):
    for v, p, s1 in _dense_views(threeblock_view, heavy, heavy_view, random_graphs):
        for c in (-1e-5, 0.5, 0.85, 0.99):
            k = (1 - c) * v.alpha / (1 - c * v.beta)
            w = c * c * v.alpha / (1 - c * v.beta)
            ref = k * _dense_closed_form(v, p, s1, c, w)
            got = inscc._inscc_at(v, c) if c < 0 else rm.inscc_vector(v, c)
            assert np.abs(got - ref).sum() <= 1e-12 * np.abs(ref).sum()


def test_derivative_at_one_against_dense_formula(threeblock_view, heavy, heavy_view,
                                                 random_graphs):
    checked = 0
    for v, p, s1 in _dense_views(threeblock_view, heavy, heavy_view, random_graphs):
        try:
            got = rm.derivative_at_one(v)
        except rm.StructureError:   # reducible internal walk
            continue
        coeff = v.alpha / (1 - v.beta)
        ref = -coeff * _dense_closed_form(v, p, s1, 1.0, coeff)
        assert np.abs(got.vector - ref).sum() <= 1e-12 * np.abs(ref).sum()
        assert got.total == pytest.approx(ref.sum(), rel=1e-12)
        checked += 1
    assert checked >= 3


def test_reconstruction_matches_power_iteration(threeblock, threeblock_view):
    pi = rm.pagerank(threeblock, rm.PageRankConfig(damping=0.85))
    full = rm.full_rank_vector(threeblock_view, 0.85)
    assert abs(full.sum() - 1.0) <= 1e-10
    assert np.abs(full - pi.values).sum() <= 1e-10


def test_reconstruction_residuals(threeblock, threeblock_view):
    # the assembled vector satisfies the stationary equation block by block
    full = rm.full_rank_vector(threeblock_view, 0.7)
    gm = helpers.dense_google(threeblock, 0.7)
    assert np.abs(full @ gm - full).sum() <= 1e-10


def test_reconstruction_at_zero(threeblock_view):
    full = rm.full_rank_vector(threeblock_view, 0.0)
    assert np.allclose(full, 1.0 / 9.0, atol=1e-14)


def test_reconstruction_without_dangling():
    g = rm.build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    view = rm.three_block_view(g, rm.bowtie_labeling(g))
    pi_inscc = rm.inscc_vector(view, 0.6)
    pi_out, pi_dn = rm.reconstruct_out_and_dn(view, 0.6, pi_inscc)
    assert pi_dn.size == 0
    ref = helpers.dense_pagerank(g, 0.6)
    assert np.abs(pi_out - ref[view.out_nodes]).sum() <= 1e-11


def test_derivative_at_zero_matches_finite_difference(threeblock_view, heavy_view):
    for view in (threeblock_view, heavy_view):
        analytic = rm.derivative_at_zero(view).total
        numeric = inscc.mass_derivative_fd_at_zero(view)
        assert abs(analytic - numeric) / abs(numeric) <= 1e-3


def test_derivative_at_zero_closed_form(threeblock_view):
    got = rm.derivative_at_zero(threeblock_view)
    p1 = threeblock_view.retention_p1()
    assert p1 == pytest.approx(17.0 / 24.0, abs=1e-15)
    expected = (4.0 / 9.0) * (-1.0 + 2.0 / 9.0 + p1)
    assert got.total == pytest.approx(expected, abs=1e-14)
    assert got.total == pytest.approx(float(got.vector.sum()), abs=1e-14)


def test_derivative_at_zero_without_dangling_is_nonpositive():
    g = rm.build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    view = rm.three_block_view(g, rm.bowtie_labeling(g))
    assert rm.derivative_at_zero(view).total <= 0.0


def test_derivative_at_zero_closed_core_grows():
    # core keeps all link mass internal (retention 1) while half the nodes
    # dangle: slope at zero is alpha * beta > 0
    g = rm.build_graph(4, [(0, 1), (1, 0)])
    view = rm.three_block_view(g, rm.bowtie_labeling(g), fold_other=True)
    assert view.retention_p1() == 1.0
    assert rm.derivative_at_zero(view).total == pytest.approx(
        view.alpha * view.beta, abs=1e-15)


def test_derivative_at_one_exact_vs_finite_difference(threeblock_view):
    exact = rm.derivative_at_one(threeblock_view).total
    numeric = inscc.mass_derivative_fd_near_one(threeblock_view)
    assert abs(exact - numeric) / abs(numeric) <= 5e-2


def test_derivative_at_one_approximation_quality(threeblock_view):
    got = rm.derivative_at_one(threeblock_view)
    assert abs(got.approx_total - got.total) / abs(got.total) <= 0.25
    assert got.leakage > 0.0


def _complete_core_with_escape(m: int):
    """Complete m-clique where every node has one escape link into a 2-cycle:
    per-node leak is exactly 1/m and the internal walk stays symmetric."""
    edges = [(i, j) for i in range(m) for j in range(m) if i != j]
    edges += [(i, m) for i in range(m)]
    edges += [(m, m + 1), (m + 1, m)]
    return rm.build_graph(m + 2, edges)


def test_derivative_at_one_scaling_with_leak():
    # slope magnitude at c = 1 scales like 1 / leak
    totals = {}
    for m in (8, 16):
        g = _complete_core_with_escape(m)
        view = rm.three_block_view(g, rm.bowtie_labeling(g))
        got = rm.derivative_at_one(view)
        assert got.leakage == pytest.approx(1.0 / m, abs=1e-12)
        totals[m] = got.total
    # exact totals track -alpha / leak = -m^2 / (m + 2)
    predicted = (16 ** 2 / 18.0) / (8 ** 2 / 10.0)
    assert totals[16] / totals[8] == pytest.approx(predicted, rel=0.15)


def test_derivative_at_one_requires_irreducible_core():
    # an IN node makes the internal IN+SCC walk reducible (core cannot reach it)
    g = rm.build_graph(5, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4), (4, 3)])
    view = rm.three_block_view(g, rm.bowtie_labeling(g))
    with pytest.raises(rm.StructureError):
        rm.derivative_at_one(view)


def test_derivative_at_one_without_out_raises_before_solving(monkeypatch):
    # 4 and 5 dangle and OUT is empty: 1 - beta - alpha rounds to 5.6e-17, not 0
    g = rm.build_graph(6, [(0, 1), (1, 2), (1, 5), (2, 0), (2, 3), (3, 0), (3, 4)])
    view = rm.three_block_view(g, rm.bowtie_labeling(g))
    assert view.out_nodes.size == 0 and 1.0 - view.beta - view.alpha > 0.0

    def not_reached(*args, **kwargs):
        raise AssertionError("solved before the leakage check")

    monkeypatch.setattr(inscc, "solve_left", not_reached)
    with pytest.raises(rm.StructureError, match="IN[+]SCC never leaks"):
        rm.derivative_at_one(view)


def test_split_identity(threeblock_view, heavy_view, random_graphs):
    views = [threeblock_view, heavy_view]
    for g in random_graphs[:6]:
        views.append(rm.three_block_view(g, rm.bowtie_labeling(g)))
    for view in views:
        for c in (0.0, 0.5, 0.85):
            point = rm.sherman_morrison_split(view, c)
            direct = float(rm.inscc_vector(view, c).sum())
            assert abs(point.mass - direct) <= 1e-10
            assert point.mass == pytest.approx(point.main_term + point.correction)


def test_split_at_zero_has_no_correction(threeblock_view):
    point = rm.sherman_morrison_split(threeblock_view, 0.0)
    assert point.correction == 0.0
    assert point.main_term == pytest.approx(threeblock_view.alpha, abs=1e-14)


def test_correction_share_reported(threeblock_view):
    point = rm.sherman_morrison_split(threeblock_view, 0.85)
    share = point.correction / point.mass
    assert 0.0 < share < 1.0


def test_unimodality_scan_threeblock(threeblock_view):
    report = rm.unimodality_scan(threeblock_view)
    assert report.violations == ()
    assert report.c0_estimate == 0.0


def test_unimodality_scan_heavy_interior_peak(heavy_view):
    report = rm.unimodality_scan(heavy_view)
    assert report.violations == ()
    assert 0.2 < report.c0_estimate < 0.8


def test_unimodality_no_dangling_peaks_at_zero():
    g = rm.build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    view = rm.three_block_view(g, rm.bowtie_labeling(g))
    report = rm.unimodality_scan(view)
    assert report.c0_estimate == 0.0
    assert report.violations == ()


def test_curvature_form_positive(threeblock_view, heavy_view):
    for view in (threeblock_view, heavy_view):
        for c in (0.0, 0.5, 0.9):
            assert inscc.curvature_form(view, c) > 0.0


def test_inscc_curve_difference_estimates(threeblock_view):
    grid = np.arange(0.0, 0.91, 0.1)
    points = rm.inscc_curve(threeblock_view, grid)
    assert points[0].d1_estimate is None and points[-1].d2_estimate is None
    mid = points[3]
    assert mid.d1_estimate == pytest.approx(
        (points[4].mass - points[2].mass) / 0.2, rel=1e-9)
    # decaying curve: interior slope estimates are negative
    assert all(p.d1_estimate < 0 for p in points[1:-1])


def test_difference_estimates_exact_for_quadratic_on_uneven_grid():
    grid = [0.0, 0.1, 0.15, 0.4, 0.45, 0.9]
    values = [3.0 * c * c - 2.0 * c + 0.5 for c in grid]
    d1, d2 = inscc._three_point(grid, values)
    assert d1[0] is d1[-1] is d2[0] is d2[-1] is None
    for c, slope, curvature in zip(grid[1:-1], d1[1:-1], d2[1:-1]):
        assert slope == pytest.approx(6.0 * c - 2.0, abs=1e-12)
        assert curvature == pytest.approx(6.0, abs=1e-11)


def test_inscc_curve_difference_estimates_uneven_grid(threeblock_view):
    # the estimates at c = 0.5 from a lopsided stencil stay close to those of a
    # fine symmetric one: the three-point error is first order in the spacing
    fine = rm.inscc_curve(threeblock_view, [0.49, 0.5, 0.51])[1]
    lopsided = rm.inscc_curve(threeblock_view, [0.49, 0.5, 0.7])[1]
    assert lopsided.d1_estimate == pytest.approx(fine.d1_estimate, abs=0.01)
    assert lopsided.d2_estimate == pytest.approx(fine.d2_estimate, abs=0.5)


def test_view_rejects_stray_components(threeblock):
    edges = list(threeblock.edges()) + [(9, 10), (10, 9)]
    g = rm.build_graph(11, edges)
    labels = rm.bowtie_labeling(g)
    with pytest.raises(rm.StructureError):
        rm.three_block_view(g, labels)
    view = rm.three_block_view(g, labels, fold_other=True)
    full = rm.full_rank_vector(view, 0.85)
    ref = helpers.dense_pagerank(g, 0.85)
    assert np.abs(full - ref).sum() <= 1e-10
