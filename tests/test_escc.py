from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

import rankmass as rm
from rankmass import escc
from rankmass.bowtie import closure
from rankmass.escc import transient_view
from rankmass.operators import SubstochasticBlock, block_view, perron_irreducible

import helpers


def test_mass_endpoints(bowtie, bowtie_blocks):
    gamma = 8.0 / 12.0
    assert rm.escc_mass(bowtie, bowtie_blocks, 0.0) == pytest.approx(gamma, abs=1e-13)
    assert rm.escc_mass(bowtie, bowtie_blocks, 1.0) == 0.0


def test_mass_matches_power_iteration(bowtie, bowtie_labels, bowtie_blocks):
    pi = rm.pagerank(bowtie, rm.PageRankConfig(damping=0.85))
    breakdown = rm.mass_breakdown(pi, bowtie_labels, bowtie_blocks)
    assert rm.escc_mass(bowtie, bowtie_blocks, 0.85) == pytest.approx(
        breakdown.transient, abs=1e-9)


def test_mass_escc_only_variant(bowtie, bowtie_labels, bowtie_blocks):
    pi = rm.pagerank(bowtie, rm.PageRankConfig(damping=0.85))
    breakdown = rm.mass_breakdown(pi, bowtie_labels, bowtie_blocks)
    bounds = rm.prop3_bounds(bowtie, bowtie_labels, bowtie_blocks, [0.85], escc_only=True)
    got = bounds.rows[0].mass
    assert got == pytest.approx(breakdown.escc, abs=1e-9)
    assert got < rm.escc_mass(bowtie, bowtie_blocks, 0.85)


def test_mass_decreasing_and_concave(bowtie, bowtie_blocks):
    grid = np.arange(0.0, 1.0001, 0.05)
    masses = np.array([rm.escc_mass(bowtie, bowtie_blocks, float(c)) for c in grid])
    assert np.all(np.diff(masses) < 1e-12)
    second = masses[:-2] - 2 * masses[1:-1] + masses[2:]
    assert np.all(second < 1e-10)


def test_single_state_retention():
    block = SubstochasticBlock(matrix=sparse.csr_matrix(np.array([[0.6]])),
                               dangling_local=np.array([], dtype=np.int64),
                               n_total=5,
                               rows=np.array([0]), cols=np.array([0]))
    lam, vec = perron_irreducible(block)
    assert lam == pytest.approx(0.6, abs=1e-14)
    assert vec == pytest.approx([1.0])


def test_spectral_summary_against_dense(bowtie, bowtie_labels, bowtie_blocks):
    s = rm.spectral_summary(bowtie, bowtie_labels, bowtie_blocks)
    w = helpers.dense_w(bowtie)
    tn = sorted(bowtie_blocks.transient_set)
    t = w[np.ix_(tn, tn)]
    lam_ref, _ = helpers.dense_perron_left(t)
    assert s.lambda1 == pytest.approx(lam_ref, abs=1e-10)
    assert s.p1 == pytest.approx(float(t.sum(axis=1).mean()), abs=1e-13)
    assert np.abs(s.quasi_stationary @ t - s.lambda1 * s.quasi_stationary).sum() <= 1e-12
    assert s.quasi_stationary.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(s.quasi_stationary >= 0.0)
    assert s.gamma == pytest.approx(8.0 / 12.0)
    assert s.delta == pytest.approx(6.0 / 12.0)


def test_spectral_summary_disconnected_pieces():
    # two leaky swap pairs with different leak rates plus a closed sink:
    # the winner is the slow-leak pair, and nothing downstream of it is in T
    edges = [(0, 1), (1, 0), (1, 4), (2, 3), (3, 2), (3, 4), (3, 5),
             (4, 4), (5, 4)]
    g = rm.build_graph(6, edges)
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    assert [set(b) for b in blocks.recurrent_blocks] == [{4}]
    s = rm.spectral_summary(g, labels, blocks)
    w = helpers.dense_w(g)
    tn = sorted(blocks.transient_set)
    lam_ref, vec_ref = helpers.dense_perron_left(w[np.ix_(tn, tn)])
    assert s.lambda1 == pytest.approx(lam_ref, abs=1e-10)
    assert s.lambda1 == pytest.approx(np.sqrt(0.5), abs=1e-10)
    support = {int(n) for n, v in zip(s.nodes, s.quasi_stationary) if v > 1e-9}
    assert support == {0, 1}
    assert np.abs(s.quasi_stationary @ w[np.ix_(tn, tn)]
                  - s.lambda1 * s.quasi_stationary).sum() <= 1e-12


def test_spectral_summary_downstream_coupling():
    # dominant pair feeds a weaker transient state: the eigenvector must
    # carry induced mass there, still an exact eigenvector
    edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 3)]
    g = rm.build_graph(4, edges)
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    s = rm.spectral_summary(g, labels, blocks)
    w = helpers.dense_w(g)
    tn = sorted(blocks.transient_set)
    t = w[np.ix_(tn, tn)]
    assert np.abs(s.quasi_stationary @ t - s.lambda1 * s.quasi_stationary).sum() <= 1e-12
    assert s.quasi_stationary[list(s.nodes).index(2)] > 0.0


def _fan_out(k: int):
    # a leaky swap pair (lambda1 = sqrt(1/2)) feeds a hub that fans out to k
    # singleton transient nodes, all draining into one closed sink
    hub, sink = 2, k + 3
    edges = [(0, 1), (1, 0), (1, hub), (sink, sink)]
    edges += [(hub, leaf) for leaf in range(3, sink)] + [(leaf, sink) for leaf in range(3, sink)]
    g = rm.build_graph(k + 4, edges)
    labels = rm.bowtie_labeling(g)
    return g, labels, rm.block_decomposition(g, labels)


def test_spectral_summary_cost_does_not_grow_with_classes(monkeypatch):
    calls = {"block_view": 0, "mul_left": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(escc, "block_view", counting("block_view", escc.block_view))
    monkeypatch.setattr(SubstochasticBlock, "mul_left",
                        counting("mul_left", SubstochasticBlock.mul_left))
    counts = []
    for k in (100, 3000):
        calls.update(block_view=0, mul_left=0)
        g, labels, blocks = _fan_out(k)
        s = rm.spectral_summary(g, labels, blocks)
        counts.append(dict(calls))
        if k == 100:
            tn = sorted(blocks.transient_set)
            lam_ref, vec_ref = helpers.dense_perron_left(helpers.dense_w(g)[np.ix_(tn, tn)])
            assert s.lambda1 == pytest.approx(lam_ref, abs=1e-12)
            assert np.abs(s.quasi_stationary - vec_ref).sum() <= 1e-10
    assert counts[0] == counts[1]


def test_envelope_and_cstar_slice_t_once(near_one, monkeypatch):
    """Each analysis cuts T once, in both T modes, and reads T's classes off
    the block decomposition: it builds no reverse adjacency and walks no
    Tarjan."""
    g, labels, blocks = near_one
    calls, walks = [], []
    monkeypatch.setattr(escc, "block_view",
                        lambda *args: calls.append(args) or block_view(*args))
    for module, name in ((rm.graph, "_reverse_csr"), (rm.operators, "_reverse_csr"),
                         (rm.bowtie, "_tarjan")):
        routine = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, routine=routine:
                            walks.append(name) or routine(*args))
    for escc_only in (False, True):
        for analysis in (lambda: rm.prop3_bounds(g, labels, blocks, [0.5, 0.85], escc_only),
                         lambda: rm.cstar_solve(g, labels, blocks, escc_only=escc_only)):
            calls.clear()
            analysis()
            assert len(calls) == 1
    assert walks == []


def test_a_class_that_is_all_of_t_takes_no_closure(near_one, monkeypatch):
    """T of ``near_one`` is one class, as on the ``deadend-near1`` workload:
    nothing lies below it, so no closure searches for what does."""
    g, labels, blocks = near_one
    calls = []
    monkeypatch.setattr(escc, "closure", lambda *args: calls.append(args) or closure(*args))
    summary = rm.spectral_summary(g, labels, blocks)
    assert len(set(blocks.component_of[summary.nodes].tolist())) == 1
    assert calls == []


def test_classes_are_renumbered_to_the_transient_block():
    """The closed sink {0} holds the smallest component id, so T = {1, 2}
    numbers its classes afresh: an unused id would be an empty class that
    wins the tie of all-zero eigenvalues."""
    g = rm.build_graph(3, [(0, 0), (1, 0), (2, 1)])
    labels = rm.bowtie_labeling(g)
    summary = rm.spectral_summary(g, labels, rm.block_decomposition(g, labels))
    assert summary.nodes.tolist() == [1, 2]
    assert summary.lambda1 == 0.0
    assert summary.quasi_stationary.tolist() == [1.0, 0.0]


def test_spectral_summary_refuses_an_overflowing_vector():
    # a leaky swap pair feeds a path of 5000 transient nodes into a sink: the
    # exact eigenvector grows like lambda1^-depth and overflows float64
    depth = 5000
    edges = [(0, 1), (1, 0), (1, 2)] + [(i, i + 1) for i in range(2, depth + 2)]
    g = rm.build_graph(depth + 3, edges + [(depth + 2, depth + 2)])
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    with pytest.raises(rm.ConvergenceError, match="overflows below the dominant class"):
        rm.spectral_summary(g, labels, blocks)


def test_spectral_summary_crosses_a_chain_below_the_dominant_class():
    # a leaky swap pair feeds a 25-node chain: below the winner the solve is
    # with T_down / lambda1, which grows by 1/lambda1 = sqrt(2) per node, and
    # BiCGSTAB breaks down on it; the restarted fallback crosses the chain
    depth = 25
    edges = [(0, 1), (1, 0), (1, 2)] + [(i, i + 1) for i in range(2, depth + 2)]
    g = rm.build_graph(depth + 3, edges + [(depth + 2, depth + 2)])
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    summary = rm.spectral_summary(g, labels, blocks)
    t = helpers.dense_w(g)[np.ix_(summary.nodes, summary.nodes)]
    x = summary.quasi_stationary
    assert summary.lambda1 == pytest.approx(np.sqrt(0.5), abs=1e-13)
    assert np.abs(x @ t - summary.lambda1 * x).sum() <= 1e-12


def test_spectral_summary_refuses_tied_classes_along_a_feeding_path():
    # {0, 1} feeds {2, 3}; both have eigenvalue sqrt(1/2), so no single
    # dominant class fixes the quasi-stationary vector
    g = rm.build_graph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 4)])
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    with pytest.raises(rm.ConvergenceError,
                       match="^tied dominant classes along a feeding path"):
        rm.spectral_summary(g, labels, blocks)


def test_empty_transient_block_rejected(heavy):
    labels = rm.bowtie_labeling(heavy)
    blocks = rm.block_decomposition(heavy, labels)
    with pytest.raises(rm.StructureError):
        rm.spectral_summary(heavy, labels, blocks)


def test_bound_formula_reference_value():
    # envelope ratio at c = 0.85 with the published dominant eigenvalue
    upper_over_gamma = (1 - 0.85) / (1 - 0.85 * 0.99954)
    assert upper_over_gamma == pytest.approx(0.15 / 0.150391, abs=1e-6)


def test_bounds_trivial_near_zero(bowtie, bowtie_labels, bowtie_blocks):
    report = rm.prop3_bounds(bowtie, bowtie_labels, bowtie_blocks, [1e-9])
    row = report.rows[0]
    assert row.lower == pytest.approx(report.gamma, rel=1e-6)
    assert row.upper == pytest.approx(report.gamma, rel=1e-6)
    assert row.mass == pytest.approx(report.gamma, rel=1e-6)


def test_bounds_reporting_on_bowtie(bowtie, bowtie_labels, bowtie_blocks):
    # both conditions hold here, yet the lower envelope is crossed at small
    # damping: a genuine small-graph counterexample the report must surface
    report = rm.prop3_bounds(bowtie, bowtie_labels, bowtie_blocks,
                             np.arange(0.05, 0.951, 0.05))
    assert report.condition_i and report.condition_ii
    assert any("lower" in v for v in report.violations)
    flagged = {row.c for row in report.rows if not row.lower_holds}
    assert 0.05 in flagged
    # every reported number is genuine: re-check one row densely
    row = report.rows[0]
    ref = helpers.dense_pagerank(bowtie, row.c)
    tn = sorted(bowtie_blocks.transient_set)
    assert row.mass == pytest.approx(float(ref[tn].sum()), abs=1e-10)
    assert row.mass < report.gamma * (1 - row.c) / (1 - row.c * report.p1)


def test_interval_closed_form_published_pairs():
    c1, c2 = rm.cstar_interval_closed_form(0.97557, 0.99954, "uniform")
    assert (c1, c2) == pytest.approx((0.5062, 0.9820), abs=5e-4)
    c1, c2 = rm.cstar_interval_closed_form(0.97557, 0.99954, "quasi")
    assert (c1, c2) == pytest.approx((0.0184, 0.5001), abs=5e-4)
    # second dataset's published row is reproduced with eigenvalue 0.99917
    c1, c2 = rm.cstar_interval_closed_form(0.99659, 0.99917, "uniform")
    assert (c1, c2) == pytest.approx((0.5009, 0.8051), abs=5e-4)
    c1, c2 = rm.cstar_interval_closed_form(0.99659, 0.99917, "quasi")
    assert (c1, c2) == pytest.approx((0.1956, 0.5002), abs=5e-4)


def test_interval_closed_form_degenerate_collapse():
    w = 0.9
    c1, c2 = rm.cstar_interval_closed_form(w, w, "uniform")
    assert c1 == pytest.approx(1.0 / (1.0 + w), abs=1e-15)
    assert c2 == pytest.approx(1.0 / (1.0 + w), abs=1e-15)


def test_interval_closed_form_domain_errors():
    with pytest.raises(ValueError):
        rm.cstar_interval_closed_form(1.0, 0.999, "uniform")
    with pytest.raises(ValueError):
        rm.cstar_interval_closed_form(0.0, 0.9, "quasi")
    with pytest.raises(ValueError):
        rm.cstar_interval_closed_form(0.9, 0.99, "bogus")


@pytest.mark.parametrize("edges, analysis, error, message", [
    # T = {0} has no link inside, so p1 = 0 and the uniform target is 0
    ([(0, 1), (1, 2), (2, 1)], lambda *t: rm.cstar_solve(*t, v_mode="bogus"),
     ValueError, r"^v_mode must be one of \('quasi', 'uniform', 'self'\)$"),
    ([(0, 1), (1, 2), (2, 1)], lambda *t: rm.cstar_solve(*t, v_mode="uniform"),
     ValueError, r"^retention target 0\.0 outside \(0, 1\)$"),
    # a ring is one closed component: its extended component has no transient node
    ([(0, 1), (1, 2), (2, 0)], lambda *t: rm.prop3_bounds(*t, [0.85], escc_only=True),
     rm.StructureError, "^the extended component is closed; nothing is transient$"),
], ids=["cstar-mode", "cstar-target", "envelope-closed"])
def test_analyses_refuse_inputs_outside_their_domain(edges, analysis, error, message):
    g = rm.build_graph(3, edges)
    labels = rm.bowtie_labeling(g)
    with pytest.raises(error, match=message):
        analysis(g, labels, rm.block_decomposition(g, labels))


def test_r_curve_samples():
    from rankmass.escc import _r_curve
    assert _r_curve(0.5, 0.5) == 0.5
    assert _r_curve(0.5, 0.8) == pytest.approx(0.125)


def test_cstar_self_mode_bowtie(bowtie, bowtie_labels, bowtie_blocks):
    report = rm.cstar_solve(bowtie, bowtie_labels, bowtie_blocks, v_mode="self")
    lo = 1.0 / (1.0 + report.lambda1)
    hi = 1.0 / (1.0 + report.p1)
    assert not report.no_crossing
    assert lo <= report.c_star <= hi
    assert report.residual <= 1e-6
    assert (report.c1, report.c2) == pytest.approx((lo, hi), abs=1e-15)


def test_cstar_uniform_mode_consistent_with_interval(bowtie, bowtie_labels, bowtie_blocks):
    report = rm.cstar_solve(bowtie, bowtie_labels, bowtie_blocks, v_mode="uniform")
    c1, c2 = rm.cstar_interval_closed_form(report.p1, report.lambda1, "uniform")
    assert (report.c1, report.c2) == pytest.approx((c1, c2), abs=1e-15)
    assert c1 <= report.c_star <= c2
    # the crossing equation holds: mass at c* equals gamma * retention target
    mass = rm.escc_mass(bowtie, bowtie_blocks, report.c_star)
    assert mass == pytest.approx(report.gamma * report.p1, abs=1e-6)


def test_cstar_quasi_mode(threeblock, threeblock_labels, threeblock_blocks):
    report = rm.cstar_solve(threeblock, threeblock_labels, threeblock_blocks,
                            v_mode="quasi")
    assert report.vt_norm == pytest.approx(report.lambda1, abs=1e-15)
    assert report.c1 <= report.c_star <= report.c2
    mass = rm.escc_mass(threeblock, threeblock_blocks, report.c_star)
    assert mass == pytest.approx(report.gamma * report.lambda1, abs=1e-6)


def test_cstar_samples_cover_grid(bowtie, bowtie_labels, bowtie_blocks):
    report = rm.cstar_solve(bowtie, bowtie_labels, bowtie_blocks, v_mode="self")
    cs = [c for c, _, _ in report.samples]
    assert cs[0] == 0.0 and len(cs) == 20


def test_cstar_reads_its_samples_off_the_basis_and_replays_only_the_root_search(near_one,
                                                                              monkeypatch):
    # the basis is built on the sample grid and the bracket, so those values
    # need no replay, and a replay at them would return the same bits
    g, labels, blocks = near_one
    built, replayed = [], []
    uniform_basis = escc._uniform_basis

    def recording(view, grid):
        basis = uniform_basis(view, grid)
        built.append((basis, grid))

        def at(c):
            replayed.append(c)
            return basis.at(c)
        return basis._replace(at=at)

    monkeypatch.setattr(escc, "_uniform_basis", recording)
    for mode in escc.V_MODES:
        built.clear()
        replayed.clear()
        report = rm.cstar_solve(g, labels, blocks, v_mode=mode)
        (basis, grid), = built
        lo, hi = grid[-2:]
        assert [mass for _, mass, _ in report.samples] == [
            (1.0 - c) * report.gamma * float(basis.at(c)[0]) for c, _, _ in report.samples]
        assert not report.no_crossing and report.c_star in replayed
        assert all(lo < c < hi for c in replayed)   # root-search iterates only, c* among them


def _dense_gap(g, blocks, mode):
    """mass(c) - target(c) of ``cstar_solve`` from a dense solve on T."""
    nodes = np.flatnonzero(blocks.block_index < 0)
    t = helpers.dense_w(g)[np.ix_(nodes, nodes)]
    gamma, p1 = nodes.size / g.n, float(t.sum(axis=1).mean())
    target = {"uniform": lambda c: gamma * p1,
              "quasi": lambda c: gamma * helpers.dense_perron_left(t)[0],
              "self": lambda c: escc._r_curve(gamma, c)}[mode]
    ones = np.full(nodes.size, 1.0 / nodes.size)
    return lambda c: ((1.0 - c) * gamma * ones @ np.linalg.solve(np.eye(nodes.size) - c * t,
                                                                  np.ones(nodes.size))
                      - target(c))


def test_cstar_lies_within_the_width_goal_of_a_dense_root(random_graphs, bowtie, threeblock,
                                                         heavy, monkeypatch):
    """Brent's c* sits on a final bracket at most ``max(1e-4 tol, 1e-12)``
    wide across which the solver's gap changes sign, or on a zero gap, and
    within that width of a sign change of the dense gap."""
    found = []
    brent = escc._brent
    monkeypatch.setattr(escc, "_brent", lambda gap, *args: found.append(
        (gap, args[-1], brent(gap, *args))) or found[-1][2])
    crossings = 0
    for g in [bowtie, threeblock, heavy, *random_graphs]:
        labels = rm.bowtie_labeling(g)
        blocks = rm.block_decomposition(g, labels)
        for mode in escc.V_MODES:
            found.clear()
            try:
                report = rm.cstar_solve(g, labels, blocks, v_mode=mode)
            except (rm.StructureError, ValueError):   # no T, or a target outside (0, 1)
                continue
            if report.no_crossing:
                assert np.isnan(report.c_star) and np.isnan(report.residual) and not found
                continue
            crossings += 1
            (gap, width, (b, f_b, c)), = found
            assert (report.c_star, report.residual) == (b, abs(f_b))
            assert f_b == gap(b) and (f_b == 0.0 or abs(c - b) <= width)   # a zero gap stops it
            assert f_b == 0.0 or gap(c) == 0.0 or (f_b > 0.0) != (gap(c) > 0.0)
            dense = _dense_gap(g, blocks, mode)
            assert (dense(b - width) > 0.0) != (dense(b + width) > 0.0)
    assert crossings >= 20


def test_no_crossing_gives_nan_without_a_root_search(bowtie, bowtie_labels, bowtie_blocks,
                                                     monkeypatch):
    # a retention target below the mass left at the top of the bracket is never met
    summary = replace(rm.spectral_summary(bowtie, bowtie_labels, bowtie_blocks), p1=1e-15)
    monkeypatch.setattr(escc, "_brent", lambda *_: pytest.fail("a root search"))
    report = rm.cstar_solve(bowtie, bowtie_labels, bowtie_blocks, v_mode="uniform",
                            summary=summary)
    assert report.no_crossing and np.isnan(report.c_star) and np.isnan(report.residual)


def test_cstar_replays_fewer_points_than_bisection_on_the_seed1_graph(seed1_graph, monkeypatch):
    # bisection replayed the basis at 34 midpoints to reach the default width
    g = seed1_graph("deadend-near1")
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    replayed = []
    uniform_basis = escc._uniform_basis

    def recording(view, grid):
        basis = uniform_basis(view, grid)

        def at(c):
            replayed.append(c)
            return basis.at(c)
        return basis._replace(at=at)

    monkeypatch.setattr(escc, "_uniform_basis", recording)
    summary = rm.spectral_summary(g, labels, blocks)
    for mode in escc.V_MODES:
        replayed.clear()
        report = rm.cstar_solve(g, labels, blocks, v_mode=mode, summary=summary)
        assert not report.no_crossing and report.residual <= 1e-13
        assert len(replayed) < 34


def test_unfairness_uniform_is_one(bowtie, bowtie_labels, bowtie_blocks):
    pi = rm.pagerank(bowtie, rm.PageRankConfig(damping=0.0))
    assert rm.pure_out_unfairness(pi, bowtie_labels, bowtie_blocks) == pytest.approx(
        1.0, abs=1e-12)


def test_unfairness_grows_past_fair_share(bowtie, bowtie_labels, bowtie_blocks):
    pi = rm.pagerank(bowtie, rm.PageRankConfig(damping=0.85))
    ratio = rm.pure_out_unfairness(pi, bowtie_labels, bowtie_blocks)
    assert ratio > 1.0
    ref = helpers.dense_pagerank(bowtie, 0.85)
    assert ratio == pytest.approx(float(ref[6:].sum()) / 0.5, abs=1e-10)


def test_unfairness_at_limit_is_inverse_share(bowtie, bowtie_labels, bowtie_blocks):
    limit = rm.limit_vector(bowtie, bowtie_blocks).vector
    ratio = rm.pure_out_unfairness(limit, bowtie_labels, bowtie_blocks)
    assert ratio == pytest.approx(2.0, abs=1e-9)  # 1 / delta with delta = 1/2


def test_unfairness_monotone_in_damping(bowtie, bowtie_labels, bowtie_blocks):
    grid = np.arange(0.0, 0.951, 0.05)
    ratios = [rm.pure_out_unfairness(
        rm.pagerank(bowtie, rm.PageRankConfig(damping=float(c))),
        bowtie_labels, bowtie_blocks) for c in grid]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_unfairness_undefined_without_pure_out(heavy):
    labels = rm.bowtie_labeling(heavy)
    blocks = rm.block_decomposition(heavy, labels)
    pi = rm.pagerank(heavy, rm.PageRankConfig(damping=0.5))
    assert np.isnan(rm.pure_out_unfairness(pi, labels, blocks))


def test_transient_view_escc_only(bowtie, bowtie_blocks):
    view = transient_view(bowtie, bowtie_blocks, escc_only=True)
    assert list(view.rows) == [0, 1, 2, 3, 4, 5]
    full = transient_view(bowtie, bowtie_blocks)
    assert list(full.rows) == list(range(8))
