
import numpy as np
import pytest

import rankmass as rm
from rankmass import operators

import helpers


def test_zero_damping_is_uniform(bowtie):
    pi = rm.pagerank(bowtie, rm.PageRankConfig(damping=0.0))
    assert np.allclose(pi.values, 1.0 / 12.0, atol=1e-15)


def test_bowtie_against_dense_solve(bowtie):
    pi = rm.pagerank(bowtie, rm.PageRankConfig(damping=0.85))
    ref = helpers.dense_pagerank(bowtie, 0.85)
    assert np.abs(pi.values - ref).sum() <= 1e-10


def test_threeblock_mass_matches_closed_form(threeblock, threeblock_labels,
                                             threeblock_blocks, threeblock_view):
    pi = rm.pagerank(threeblock, rm.PageRankConfig(damping=0.5))
    breakdown = rm.mass_breakdown(pi, threeblock_labels, threeblock_blocks)
    closed = float(rm.inscc_vector(threeblock_view, 0.5).sum())
    assert abs(breakdown.in_scc - closed) <= 1e-10


def test_dense_oracle_equivalence_random(random_graphs):
    rng = np.random.default_rng(3)
    for g in random_graphs:
        if g.n > 50:
            continue
        c = float(rng.choice([0.1, 0.5, 0.85, 0.95]))
        pi = rm.pagerank(g, rm.PageRankConfig(damping=c))
        assert np.abs(pi.values - helpers.dense_pagerank(g, c)).sum() <= 1e-10


def test_unstructured_digraphs_against_dense():
    rng = np.random.default_rng(11)
    for _ in range(6):
        g = helpers.random_digraph(rng, int(rng.integers(2, 30)), 0.15)
        pi = rm.pagerank(g, rm.PageRankConfig(damping=0.85))
        assert np.abs(pi.values - helpers.dense_pagerank(g, 0.85)).sum() <= 1e-10


def test_resolvent_matches_power_iteration(bowtie, random_graphs):
    for g in [bowtie] + random_graphs[:5]:
        for c in (0.1, 0.5, 0.85, 0.95):
            a = rm.pagerank(g, rm.PageRankConfig(damping=c, tolerance=1e-12))
            b = rm.pagerank_via_resolvent(g, c)
            assert np.abs(a.values - b.values).sum() <= 2e-12


def test_resolvent_zero_damping(bowtie):
    pi = rm.pagerank_via_resolvent(bowtie, 0.0)
    assert np.allclose(pi.values, 1.0 / 12.0, atol=1e-15)


def test_resolvent_symmetric_cycle():
    g = rm.build_graph(2, [(0, 1), (1, 0)])
    pi = rm.pagerank_via_resolvent(g, 0.99)
    assert pi.values == pytest.approx((0.5, 0.5), abs=1e-12)


def test_properties_sum_residual_nonnegative(bowtie, random_graphs):
    for g in [bowtie] + random_graphs[:6]:
        for c in (0.1, 0.85, 0.99):
            pi = rm.pagerank(g, rm.PageRankConfig(damping=c))
            assert np.all(pi.values >= 0.0)
            assert abs(pi.values.sum() - 1.0) <= 1e-12
            assert pi.residual <= 1e-12
            # the tolerance bounds the L1 error, not only the residual
            assert np.abs(pi.values - helpers.dense_pagerank(g, c)).sum() <= 1e-12
            # recompute the fixed-point residual independently
            gm = helpers.dense_google(g, c)
            dense = np.abs(pi.values @ gm - pi.values).sum()
            assert dense <= 1e-12
            assert abs(pi.residual - dense) <= 1e-15


def test_tight_tolerance_near_one_is_met(bowtie):
    # the solve's target (1 - c) * 1e-14 lies below the rounding floor; it
    # stops at a backward error of eps there, whose residual still meets 1e-14
    pi = rm.pagerank(bowtie, rm.PageRankConfig(damping=0.999, tolerance=1e-14))
    dense = np.abs(pi.values @ helpers.dense_google(bowtie, 0.999) - pi.values).sum()
    assert pi.residual <= 1e-14
    assert abs(pi.residual - dense) <= 1e-15


def test_near_one_takes_a_solve_not_a_walk(bowtie):
    # summing the series at c = 0.99 took 2956 products on this graph
    assert rm.pagerank(bowtie, rm.PageRankConfig(damping=0.99)).iterations_used <= 100


def test_nonconvergence_raises_with_residual(bowtie, monkeypatch):
    # a residual held above the tolerance by rounding
    cfg = rm.PageRankConfig(damping=0.5, tolerance=1e-17)
    with pytest.raises(rm.ConvergenceError, match=r"^pagerank at c=0\.5 missed the tolerance"
                       ) as err:
        rm.pagerank(bowtie, cfg)
    assert err.value.residual > cfg.tolerance
    assert str(err.value).count("iterations") == 1
    # out of steps: BiCGSTAB and then the walk stop at two each
    monkeypatch.setattr(operators, "BICGSTAB_MAX_ITER", 2)
    monkeypatch.setattr(operators, "MAX_ITER", 2)
    with pytest.raises(rm.ConvergenceError) as err:
        rm.pagerank(bowtie, rm.PageRankConfig(damping=0.85))
    assert str(err.value) == ("pagerank at c=0.85 did not converge "
                              "(residual 1.308e-01 after 7 iterations)")


def test_a_tolerance_below_rounding_fails_fast_on_the_bowtie_large_graph(seed1_graph):
    # the benchmark's seed-1 bowtie-large graph: no vector meets 1e-17, and the
    # solve stops at a normwise backward error of eps; with the floor at
    # tol * ||y||_1 alone it took 1258 products, against 101 at 1e-16
    g = seed1_graph("bowtie-large")
    try:
        products = rm.pagerank(g, rm.PageRankConfig(0.85, 1e-16)).iterations_used
    except rm.ConvergenceError as err:
        products = err.iterations
    with pytest.raises(rm.ConvergenceError, match=r"^pagerank at c=0\.85 missed the tolerance"
                       ) as err:
        rm.pagerank(g, rm.PageRankConfig(0.85, 1e-17))
    assert err.value.iterations <= 2 * products


def test_a_long_chain_matches_the_dense_oracle():
    # a 3-cycle drains into a 1000-node chain and a closing 2-cycle; at
    # c = 0.99 BiCGSTAB does not cross the chain within its step cap, and the
    # walk fallback does
    depth = 1000
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)] + [(i, i + 1) for i in range(3, depth + 3)]
    g = rm.build_graph(depth + 5, edges + [(depth + 3, depth + 4), (depth + 4, depth + 3)])
    pi = rm.pagerank(g, rm.PageRankConfig(damping=0.99))
    assert np.abs(pi.values - helpers.dense_pagerank(g, 0.99)).sum() <= 1e-10


def test_config_validation():
    with pytest.raises(ValueError):
        rm.PageRankConfig(damping=1.0)
    with pytest.raises(ValueError):
        rm.PageRankConfig(damping=-0.1)
    with pytest.raises(ValueError):
        rm.PageRankConfig(damping=0.5, tolerance=0.0)


def test_rank_position_tie_break():
    g = rm.build_graph(2, [(0, 1), (1, 0)])
    pi = rm.pagerank(g, rm.PageRankConfig(damping=0.5))
    assert pi.rank_position(0) == 1
    assert pi.rank_position(1) == 2


def test_mass_breakdown_uniform(bowtie, bowtie_labels, bowtie_blocks):
    uniform = np.full(12, 1.0 / 12.0)
    m = rm.mass_breakdown(uniform, bowtie_labels, bowtie_blocks)
    assert m.escc == pytest.approx(0.5, abs=1e-15)
    assert m.pure_out == pytest.approx(0.5, abs=1e-15)
    assert m.dn == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert m.by_label["IN"] == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_mass_breakdown_limit_vector(bowtie, bowtie_labels, bowtie_blocks):
    limit = rm.limit_vector(bowtie, bowtie_blocks)
    m = rm.mass_breakdown(limit.vector, bowtie_labels, bowtie_blocks)
    assert m.escc == pytest.approx(0.0, abs=1e-10)
    assert m.pure_out == pytest.approx(1.0, abs=1e-10)


def test_pure_out_mass_exceeds_fair_share(bowtie, bowtie_labels, bowtie_blocks):
    pi = rm.pagerank(bowtie, rm.PageRankConfig(damping=0.85))
    m = rm.mass_breakdown(pi, bowtie_labels, bowtie_blocks)
    delta = 6.0 / 12.0
    assert m.pure_out / delta > 1.0
    ref = helpers.dense_pagerank(bowtie, 0.85)
    assert m.pure_out == pytest.approx(float(ref[6:].sum()), abs=1e-10)


def test_escc_pureout_other_partition(bowtie, bowtie_labels, bowtie_blocks,
                                      random_graphs):
    cases = [(bowtie, bowtie_labels, bowtie_blocks)]
    for g in random_graphs[:6]:
        labels = rm.bowtie_labeling(g)
        cases.append((g, labels, rm.block_decomposition(g, labels)))
    for g, labels, blocks in cases:
        pi = rm.pagerank(g, rm.PageRankConfig(damping=0.7))
        m = rm.mass_breakdown(pi, labels, blocks)
        other_outside = m.by_label["OTHER"]  # OTHER never joins the extended set here
        assert m.escc + m.pure_out + other_outside == pytest.approx(1.0, abs=1e-12)


def test_sweep_single_point(bowtie, bowtie_labels, bowtie_blocks):
    curve = rm.damping_sweep(bowtie, bowtie_labels, bowtie_blocks, [0.0])
    assert len(curve) == 1
    assert curve[0][0] == 0.0
    assert curve[0][1].escc == pytest.approx(0.5, abs=1e-12)


def test_sweep_pure_out_increasing(bowtie, bowtie_labels, bowtie_blocks):
    curve = rm.damping_sweep(bowtie, bowtie_labels, bowtie_blocks, [0.5, 0.85, 0.95])
    masses = [m.pure_out for _, m in curve]
    assert masses[0] < masses[1] < masses[2]


def test_sweep_pure_out_nondecreasing_canonical(threeblock, threeblock_labels,
                                                threeblock_blocks):
    grid = np.arange(0.0, 0.951, 0.05)
    curve = rm.damping_sweep(threeblock, threeblock_labels, threeblock_blocks, grid)
    masses = [m.pure_out for _, m in curve]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_sweep_order_and_workers(threeblock, threeblock_labels, threeblock_blocks):
    grid = [0.1, 0.3, 0.5]
    seq = rm.damping_sweep(threeblock, threeblock_labels, threeblock_blocks, grid)
    rev = rm.damping_sweep(threeblock, threeblock_labels, threeblock_blocks, grid[::-1])
    assert [c for c, _ in seq] == grid == [c for c, _ in rev][::-1]
    for (_, a), (_, b) in zip(seq, rev[::-1]):
        assert a.escc == b.escc


def test_sweep_to_099_meets_its_tolerance_on_the_inscc_grid_graph(seed1_graph):
    # the benchmark's seed-1 inscc-grid graph and its 100-point sweep: shifted
    # BiCG, bounded by its recursive residuals, misses the tolerance 29x here
    g = seed1_graph("inscc-grid")
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    grid = np.round(np.arange(0.0, 0.995, 0.01), 2)
    for c, got in rm.damping_sweep(g, labels, blocks, grid, tolerance=1e-12):
        pi = rm.pagerank(g, rm.PageRankConfig(damping=c, tolerance=1e-14))
        ref = rm.mass_breakdown(pi, labels, blocks).by_label
        assert sum(abs(got.by_label[k] - ref[k]) for k in ref) <= 1e-12
    # at 1e-14 rounding keeps the c = 0.99 residual near 47 times tol / 2
    with pytest.raises(rm.ConvergenceError, match=r"^sweep at c=0.99 missed the tolerance 1e-14"):
        rm.damping_sweep(g, labels, blocks, grid, tolerance=1e-14)


@pytest.mark.parametrize("name", ["bowtie-large", "deadend-near1", "inscc-grid"])
def test_sweep_to_0999_meets_the_default_tolerance_on_the_seed1_graphs(name, seed1_graph):
    # the top point stops at its tol or at a backward error of eps; a floor
    # of 2 eps let deadend-near1 miss the sweep's bound (6.18e-13 against
    # 5e-13), and one of 4 eps bowtie-large (1.52e-12)
    g = seed1_graph(name)
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    curve = rm.damping_sweep(g, labels, blocks, [0.5, 0.9, 0.99, 0.999])
    assert [c for c, _ in curve] == [0.5, 0.9, 0.99, 0.999]


def test_inscc_mass_shape_on_samples(threeblock_view, heavy_view):
    # dense-grid scan: the three-block sample decays from the start, while the
    # heavy-dangling sample's main term rises first and then decays
    grid = np.arange(0.0, 0.991, 0.01)
    tb = np.array([float(rm.inscc_vector(threeblock_view, c).sum()) for c in grid])
    assert np.all(np.diff(tb) < 1e-12)
    hv = np.array([rm.sherman_morrison_split(heavy_view, c).main_term for c in grid])
    peak = int(np.argmax(hv))
    assert 0 < peak < grid.size - 1
    assert np.all(np.diff(hv[:peak]) > -1e-12)
    assert np.all(np.diff(hv[peak:]) < 1e-12)
