import numpy as np

import rankmass as rm
from rankmass.bowtie import Label, dual_path_mask, dual_path_out_nodes
from rankmass.sample_graphs import BOWTIE_EDGES

import helpers


def as_sets(components):
    return [set(c) for c in components]


def test_bowtie_components(bowtie):
    comps = as_sets(rm.strongly_connected_components(bowtie))
    assert {1, 2, 3} in comps
    assert {8, 9} in comps
    assert {10, 11} in comps
    assert sum(1 for c in comps if len(c) == 1) == 5
    assert len(comps) == 8


def test_three_cycle_single_component():
    g = rm.build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert as_sets(rm.strongly_connected_components(g)) == [{0, 1, 2}]


def test_edgeless_graph_singletons():
    g = rm.build_graph(4, [])
    assert as_sets(rm.strongly_connected_components(g)) == [{0}, {1}, {2}, {3}]


def test_component_order_deterministic(bowtie):
    comps = rm.strongly_connected_components(bowtie)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    assert all(list(c) == sorted(c) for c in comps)


def test_bowtie_labels(bowtie_labels):
    assert bowtie_labels.in_nodes == {0}
    assert bowtie_labels.scc_nodes == {1, 2, 3}
    assert bowtie_labels.out_nodes == set(range(4, 12))
    assert bowtie_labels.other_nodes == set()


def test_cycle_alone_is_all_scc():
    g = rm.build_graph(3, [(0, 1), (1, 2), (2, 0)])
    labels = rm.bowtie_labeling(g)
    assert labels.scc_nodes == {0, 1, 2}
    assert labels.in_nodes == set() and labels.out_nodes == set()


def test_isolated_cycle_labeled_other():
    g = rm.build_graph(14, list(BOWTIE_EDGES) + [(12, 13), (13, 12)])
    labels = rm.bowtie_labeling(g)
    assert labels.other_nodes == {12, 13}
    assert labels.scc_nodes == {1, 2, 3}


def test_labeling_invariant_under_relabeling(bowtie, bowtie_labels):
    rng = np.random.default_rng(7)
    perm = rng.permutation(bowtie.n)
    shuffled, node_map = helpers.permute_graph(bowtie, perm)
    relabeled = rm.bowtie_labeling(shuffled)
    assert relabeled.labels[node_map].tolist() == bowtie_labels.labels.tolist()


def test_extended_component_bowtie(bowtie_blocks):
    assert np.flatnonzero(bowtie_blocks.escc_mask).tolist() == [0, 1, 2, 3, 4, 5]


def test_extended_component_without_dangling_matches_plain_scc_closure():
    # no dangling rows: the transition graph is the raw graph
    g = rm.build_graph(6, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 1), (3, 4), (4, 5), (5, 4)])
    labels = rm.bowtie_labeling(g)
    escc = set(np.flatnonzero(rm.block_decomposition(g, labels).escc_mask).tolist())
    comps = as_sets(rm.strongly_connected_components(g))
    assert escc in comps
    assert labels.scc_nodes <= escc


def test_single_dangling_node_extended_component():
    g = rm.build_graph(1, [])
    blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
    assert np.flatnonzero(blocks.escc_mask).tolist() == [0]


def test_block_decomposition_bowtie(bowtie_blocks):
    assert as_sets(bowtie_blocks.recurrent_blocks) == [{8, 9}, {10, 11}]
    assert bowtie_blocks.transient_set == set(range(8))
    assert bowtie_blocks.block_sizes == (2, 2)
    assert bowtie_blocks.block_of(9) == 0
    assert bowtie_blocks.block_of(3) == -1


def test_block_decomposition_single_out_cycle():
    g = rm.build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    assert as_sets(blocks.recurrent_blocks) == [{2, 3}]
    assert blocks.transient_set == {0, 1}


def test_block_decomposition_threeblock(threeblock_blocks):
    assert as_sets(threeblock_blocks.recurrent_blocks) == [{6, 7, 8}]
    assert threeblock_blocks.transient_set == {0, 1, 2, 3, 4, 5}
    assert threeblock_blocks.escc == {0, 1, 2, 3, 4, 5}


def test_permutation_realizes_block_order(bowtie_blocks):
    order = list(bowtie_blocks.permutation)
    assert order[:2] == [8, 9]
    assert order[2:4] == [10, 11]
    assert order[4:] == [0, 1, 2, 3, 4, 5, 6, 7]


def test_partition_property(random_graphs):
    for g in random_graphs:
        labels = rm.bowtie_labeling(g)
        blocks = rm.block_decomposition(g, labels)
        union = set(blocks.transient_set)
        total = len(blocks.transient_set)
        for b in blocks.recurrent_blocks:
            union.update(b)
            total += len(b)
        assert union == set(range(g.n))
        assert total == g.n  # no overlaps


def test_recurrent_blocks_closed(random_graphs):
    for g in random_graphs:
        labels = rm.bowtie_labeling(g)
        blocks = rm.block_decomposition(g, labels)
        for block in blocks.recurrent_blocks:
            members = set(block)
            for v in block:
                assert not g.is_dangling(v) or len(members) == g.n
                for w in g.out_neighbors(v):
                    assert int(w) in members


def test_transient_nodes_reach_a_block(random_graphs):
    for g in random_graphs:
        labels = rm.bowtie_labeling(g)
        blocks = rm.block_decomposition(g, labels)
        block_nodes = {v for b in blocks.recurrent_blocks for v in b}
        for start in blocks.transient_set:
            seen = {start}
            frontier = [start]
            reached = False
            while frontier and not reached:
                v = frontier.pop()
                succ = range(g.n) if g.is_dangling(v) else g.out_neighbors(v)
                for w in succ:
                    w = int(w)
                    if w in block_nodes:
                        reached = True
                        break
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            assert reached, f"transient node {start} cannot reach any recurrent block"


def test_transition_graph_components_merge_dangling(bowtie, bowtie_blocks):
    full = helpers.dense_link_pattern(bowtie, uniform_dangling=True)
    comps = helpers.dense_reach_components(full)
    assert {0, 1, 2, 3, 4, 5} in as_sets(comps)
    assert {8, 9} in as_sets(comps) and {10, 11} in as_sets(comps)
    for k, comp in enumerate(comps):   # numbered by smallest member
        assert bowtie_blocks.component_of[comp].tolist() == [k] * len(comp)


def test_pure_out_nodes(bowtie_blocks):
    assert np.flatnonzero(bowtie_blocks.pure_out_mask).tolist() == [6, 7, 8, 9, 10, 11]


def test_dual_path_flag(bowtie, bowtie_labels, bowtie_blocks):
    # node 4 feeds both the dangling node 5 and (through 6, 7) the dead-ends
    assert dual_path_out_nodes(bowtie, bowtie_labels, bowtie_blocks) == {4}


def test_dual_path_mask_matches_its_definition_on_random_digraphs():
    """The extended component stands in for the closure from the dangling
    nodes, whether the giant reaches a dangling node or not: the mask must be
    the non-dangling OUT nodes that reach a dangling node and a block."""
    rng = np.random.default_rng(22)
    giant_reaches_dangling, flagged = set(), 0
    for k in range(400):
        g = helpers.random_digraph(rng, int(rng.integers(1, 12)), float(rng.uniform(0.05, 0.4)))
        if k % 3 == 0:   # self-loops on the dangling nodes leave none
            g = rm.build_graph(g.n, list(g.edges()) + [(d, d) for d in g.dangling.tolist()])
        labels = rm.bowtie_labeling(g)
        blocks = rm.block_decomposition(g, labels)
        reach = helpers.dense_reach(helpers.dense_w(g) * ~g.dangling_mask[:, None] > 0)
        expected = ((labels.labels == Label.OUT) & ~g.dangling_mask
                    & reach[:, g.dangling].any(axis=1)
                    & reach[:, blocks.block_index >= 0].any(axis=1))
        assert np.array_equal(dual_path_mask(g, labels, blocks), expected)
        flagged += bool(expected.any())
        giant_reaches_dangling.add(bool(g.dangling.size and blocks.escc_mask[g.dangling[0]]))
    assert giant_reaches_dangling == {False, True} and flagged
