import numpy as np
import pytest

import rankmass as rm

import helpers


def test_block_stationary_symmetric_cycles(bowtie):
    assert rm.block_stationary(bowtie, [8, 9]) == pytest.approx((0.5, 0.5), abs=1e-13)
    assert rm.block_stationary(bowtie, [10, 11]) == pytest.approx((0.5, 0.5), abs=1e-13)


def test_block_stationary_three_node_against_dense():
    # a -> b, b -> c, c -> a, a -> c
    g = rm.build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    got = rm.block_stationary(g, [0, 1, 2])
    ref = helpers.dense_stationary(helpers.dense_w(g))
    assert np.abs(got - ref).max() <= 1e-12


def test_block_stationary_rejects_open_block(bowtie):
    with pytest.raises(rm.StructureError):
        rm.block_stationary(bowtie, [6, 7])


def test_open_block_message_caps_the_leaking_nodes():
    g = rm.build_graph(13, [(i, 12) for i in range(12)])
    with pytest.raises(rm.StructureError, match=r"nodes \[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, "
                       r"… \(12 in all\)\] leak mass"):
        rm.block_stationary(g, range(12))


def test_block_stationary_rejects_disconnected():
    g = rm.build_graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    with pytest.raises(rm.StructureError):
        rm.block_stationary(g, [0, 1, 2, 3])


def test_block_stationary_of_the_whole_graph_links_dangling_rows_to_every_node():
    """0 <-> 1 beside a dangling node 2 is reducible, for nothing reaches 2;
    in 0 -> 1 -> 2 every node reaches the dangling row, which reaches all."""
    g = rm.build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(rm.StructureError, match="^block is not strongly connected$"):
        rm.block_stationary(g, range(3))
    g = rm.build_graph(3, [(0, 1), (1, 2)])
    got = rm.block_stationary(g, range(3))
    assert np.abs(got - helpers.dense_stationary(helpers.dense_w(g))).max() <= 1e-12


def test_empty_inputs_keep_their_results_and_messages(bowtie):
    assert rm.strongly_connected_components(rm.build_graph(0, [])) == []
    with pytest.raises(rm.StructureError, match="^block is empty$"):
        rm.block_stationary(bowtie, [])
    empty = np.zeros((0, 0))
    with pytest.raises(rm.StructureError, match="^matrix must be irreducible$"):
        rm.laurent_check(empty, empty, [0.1])
    with pytest.raises(rm.StructureError, match="^no ergodic class found$"):
        rm.aggregated_chain_limit(empty, empty)


def test_absorption_weights_bowtie_against_dense(bowtie, bowtie_blocks):
    weights = rm.absorption_weights(bowtie, bowtie_blocks)
    w = helpers.dense_w(bowtie)
    transient = sorted(bowtie_blocks.transient_set)
    t = w[np.ix_(transient, transient)]
    x = (np.ones(len(transient)) / bowtie.n) @ np.linalg.inv(np.eye(len(transient)) - t)
    for i, block in enumerate(bowtie_blocks.recurrent_blocks):
        r_i = w[np.ix_(transient, sorted(block))]
        assert weights[i] == pytest.approx(float(x @ r_i.sum(axis=1)), abs=1e-12)


def test_absorption_weights_no_transient_states():
    g = rm.build_graph(2, [(0, 1), (1, 0)])
    blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
    assert rm.absorption_weights(g, blocks) == pytest.approx([0.0])


def test_absorption_weights_symmetric_feeds(bowtie, bowtie_blocks):
    weights = rm.absorption_weights(bowtie, bowtie_blocks)
    assert weights[0] == pytest.approx(weights[1], abs=1e-12)


def _core_with_deadends(count: int) -> rm.GraphHandle:
    """A core 2-cycle feeding ``count`` dead-end 2-cycles and one dangling node."""
    n = 3 + 2 * count
    edges = [(0, 1), (1, 0), (1, 2)]
    for a in range(3, n, 2):
        edges += [(0, a), (a, a + 1), (a + 1, a)]
    return rm.build_graph(n, edges)


def test_limit_cuts_a_fixed_number_of_block_views(monkeypatch):
    from rankmass import limits
    from rankmass.operators import block_view
    calls = []
    monkeypatch.setattr(limits, "block_view", lambda *args: calls.append(args) or block_view(*args))
    per_count = []
    for count in (3, 300):
        g = _core_with_deadends(count)
        blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
        assert blocks.num_blocks == count
        calls.clear()
        weights = rm.absorption_weights(g, blocks)
        after_absorption = len(calls)
        report = rm.limit_vector(g, blocks)
        per_count.append((after_absorption, len(calls) - after_absorption))
        # the dead-ends are interchangeable, so each ends with an equal share
        assert weights == pytest.approx(np.full(count, weights[0]), rel=1e-12)
        assert report.block_masses == pytest.approx(np.full(count, 1.0 / count), rel=1e-12)
    assert per_count[0] == per_count[1]
    assert per_count[0][0] == 1


def test_limit_runs_one_perron_iteration_for_hundreds_of_blocks(monkeypatch):
    """Every recurrent block takes its share of the limit from one run over
    all of them: its mass spread by a vector within 1e-12 in L1 of its
    stationary vector computed alone."""
    from rankmass import limits
    rng = np.random.default_rng(21)
    core = 30
    edges = [(i, (i + 1) % core) for i in range(core)]
    edges += [(int(u), int(v)) for u, v in rng.integers(0, core, size=(2 * core, 2)) if u != v]
    start = core
    for _ in range(300):
        size = int(rng.integers(2, 4))
        nodes = list(range(start, start + size))
        edges += [(nodes[k], nodes[(k + 1) % size]) for k in range(size)]
        if size == 3 and rng.random() < 0.5:
            edges.append((nodes[0], nodes[2]))   # an uneven stationary, no longer periodic
        edges.append((int(rng.integers(0, core)), nodes[0]))
        start += size
    g = rm.build_graph(start, edges)
    blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
    assert blocks.num_blocks == 300
    runs = []
    perron = limits.perron_irreducible
    monkeypatch.setattr(limits, "perron_irreducible",
                        lambda *args, **kw: runs.append(args) or perron(*args, **kw))
    report = rm.limit_vector(g, blocks)
    assert len(runs) == 1
    for block, mass in zip(blocks.recurrent_blocks, report.block_masses):
        stationary = report.vector[sorted(block)] / mass
        assert np.abs(stationary - rm.block_stationary(g, block)).sum() <= 1e-12


def test_limit_masses_sum_to_one(bowtie, bowtie_blocks, random_graphs):
    report = rm.limit_vector(bowtie, bowtie_blocks)
    assert report.block_masses.sum() == pytest.approx(1.0, abs=1e-10)
    for g in random_graphs[:8]:
        blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
        rep = rm.limit_vector(g, blocks)
        assert rep.block_masses.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(rep.vector >= -1e-15)
        transient = sorted(blocks.transient_set)
        assert np.all(rep.vector[transient] == 0.0)


def test_limit_vector_is_the_damping_limit(bowtie, bowtie_blocks):
    limit = rm.limit_vector(bowtie, bowtie_blocks).vector
    gaps = [np.abs(rm.pagerank(bowtie, rm.PageRankConfig(damping=c)).values - limit).sum()
            for c in (0.9, 0.99, 0.999)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_limit_vector_single_cycle():
    g = rm.build_graph(2, [(0, 1), (1, 0)])
    blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
    assert rm.limit_vector(g, blocks).vector == pytest.approx((0.5, 0.5), abs=1e-13)


def test_block_stationary_residual(random_graphs):
    for g in random_graphs[:8]:
        blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
        report = rm.limit_vector(g, blocks)
        for block, mass in zip(blocks.recurrent_blocks, report.block_masses):
            pi_bar = report.vector[sorted(block)] / mass
            w = helpers.dense_w(g)
            q = w[np.ix_(sorted(block), sorted(block))]
            assert np.abs(pi_bar @ q - pi_bar).sum() <= 1e-12
            assert pi_bar.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# expansion instruments
# ---------------------------------------------------------------------------

def test_laurent_two_state_exact():
    a, c = rm.laurent_example_2state()
    chk = rm.laurent_check(a, c, [0.1, 0.05, 0.025])
    # resolvent known in closed form: error equals epsilon, leading norm 4
    assert chk.errors == pytest.approx([0.1, 0.05, 0.025], rel=1e-9)
    assert chk.relative_errors == pytest.approx([0.025, 0.0125, 0.00625], rel=1e-9)


def test_laurent_errors_shrink_with_epsilon():
    for a, c in (rm.laurent_example_2state(), rm.laurent_example_5state()):
        chk = rm.laurent_check(a, c, [0.1, 0.05, 0.025, 0.0125])
        assert np.all(np.diff(chk.errors) < 0.0)
        assert chk.errors[-1] / chk.epsilons[-1] <= chk.errors[0] / chk.epsilons[0] * 1.5


def test_laurent_rejects_non_finite_epsilons():
    a, c = rm.laurent_example_2state()
    for eps in ([0.1, np.nan], [np.nan], [np.inf], [0.1, np.inf], [0.1, 0.0], []):
        with pytest.raises(ValueError, match="^need a positive epsilon grid$"):
            rm.laurent_check(a, c, eps)


def test_laurent_zero_perturbation_guard():
    a, _ = rm.laurent_example_2state()
    with pytest.raises(rm.StructureError):
        rm.laurent_check(a, np.zeros((2, 2)), [0.1])


def test_laurent_requires_irreducible():
    a = np.eye(2)
    with pytest.raises(rm.StructureError):
        rm.laurent_check(a, np.array([[0.5, 0.0], [0.0, 0.5]]), [0.1])


def test_laurent_size_cap():
    n = 25
    a = np.full((n, n), 1.0 / n)
    with pytest.raises(ValueError):
        rm.laurent_check(a, np.zeros((n, n)), [0.1])


def test_aggregated_limit_matches_block_assembly(bowtie, bowtie_blocks):
    w = helpers.dense_w(bowtie)
    c = np.ones((12, 12)) / 12.0 - w
    agg = rm.aggregated_chain_limit(w, c)
    direct = rm.limit_vector(bowtie, bowtie_blocks).vector
    assert np.abs(agg - direct).sum() <= 1e-10


def test_aggregated_limit_single_class_no_transient():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    c = np.array([[0.1, -0.1], [-0.1, 0.1]])
    limit = rm.aggregated_chain_limit(a, c)
    assert limit == pytest.approx((0.5, 0.5), abs=1e-13)


def test_aggregated_limit_symmetric_two_classes():
    # two identical closed swap chains, symmetrically coupled by the noise
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1.0
    c = np.ones((4, 4)) / 4.0 - a
    limit = rm.aggregated_chain_limit(a, c)
    assert limit == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)


def test_aggregated_limit_requires_substochastic_transient():
    a = np.eye(3)  # three closed classes, no transient part
    c = np.ones((3, 3)) / 3.0 - a
    limit = rm.aggregated_chain_limit(a, c)
    assert limit == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_aggregated_limit_consistent_on_random_graphs(random_graphs):
    for g in random_graphs:
        if g.n > 30:
            continue
        blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
        w = helpers.dense_w(g)
        c = np.ones((g.n, g.n)) / g.n - w
        agg = rm.aggregated_chain_limit(w, c)
        direct = rm.limit_vector(g, blocks).vector
        assert np.abs(agg - direct).sum() <= 1e-10
