"""The SCC and closure layer against the dense reachability oracle in
helpers.py, on small seeded graphs of every awkward shape, plus long paths
and cycles that a recursive or quadratic walk could not finish."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankmass as rm
from rankmass import bowtie, graph, inscc, limits, operators
from rankmass.bowtie import Label, by_smallest_member, component_lists
from rankmass.escc import transient_view
from rankmass.operators import block_view, chain_view

import helpers


def _shaped_graphs():
    rng = np.random.default_rng(20261017)
    graphs = [rm.build_graph(1, []), rm.build_graph(1, [(0, 0)]), rm.build_graph(5, [])]
    for _ in range(6):   # dangling-heavy: most rows empty
        n = int(rng.integers(2, 16))
        graphs.append(helpers.random_digraph(rng, n, 0.08))
    for _ in range(6):   # denser, self-loops allowed
        n = int(rng.integers(2, 16))
        mask = rng.random((n, n)) < 0.2
        graphs.append(rm.build_graph(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]))
    # isolated cycles next to a chain into a dangling node
    graphs.append(rm.build_graph(9, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 6), (6, 7)]))
    graphs.extend(helpers.random_suite(count=6))
    return graphs


SHAPED = _shaped_graphs()


def _pivot_outside_giant():
    """Graphs whose node of largest out- times in-degree, where the SCC search
    pivots, lies outside the largest SCC, so the labels take their own
    closures from the giant."""
    ring = [(i, (i + 1) % 10) for i in range(10)]
    hub_out = rm.build_graph(51, ring + [(0, 10)] + [(10, k) for k in range(11, 51)])
    hub_in = rm.build_graph(52, ring + [(51, 10), (10, 0)] + [(10, k) for k in range(11, 51)])
    # two 3-node SCCs tie for the giant; the pivot sits in {3, 4, 5}, whose
    # smallest member is the larger
    tie = rm.build_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3)]
                         + [(u, v) for u in (3, 4, 5) for v in (3, 4, 5) if u != v])
    return [hub_out, hub_in, tie]


PIVOT_OUTSIDE = _pivot_outside_giant()


@pytest.mark.parametrize("g", SHAPED, ids=lambda g: f"n{g.n}m{g.num_edges}")
def test_components_match_dense_oracle(g):
    _check_components(g)


def _check_components(g):
    raw = helpers.dense_link_pattern(g, uniform_dangling=False)
    assert rm.strongly_connected_components(g) == helpers.dense_reach_components(raw)


@pytest.mark.parametrize("g", SHAPED, ids=lambda g: f"n{g.n}m{g.num_edges}")
def test_labels_and_blocks_match_dense_oracle(g):
    _check_labels_and_blocks(g)


def _check_labels_and_blocks(g):
    raw = helpers.dense_link_pattern(g, uniform_dangling=False)
    full = helpers.dense_link_pattern(g, uniform_dangling=True)
    comps = helpers.dense_reach_components(raw)
    giant = max(comps, key=lambda c: (len(c), -c[0]))
    reach = helpers.dense_reach(raw)
    expected = np.full(g.n, int(Label.OTHER))
    expected[reach[:, giant].any(axis=1)] = int(Label.IN)
    expected[reach[giant, :].any(axis=0)] = int(Label.OUT)
    expected[giant] = int(Label.SCC)

    labels = rm.bowtie_labeling(g)
    assert labels.labels.tolist() == expected.tolist()
    assert component_lists(labels.component_of) == comps
    for k, comp in enumerate(comps):
        assert labels.component_of[comp].tolist() == [k] * len(comp)
    assert labels.giant_scc_id == comps.index(giant)

    w_comps = helpers.dense_reach_components(full)
    inside = np.zeros((len(w_comps), g.n), dtype=bool)
    for k, comp in enumerate(w_comps):
        inside[k, comp] = True
    closed = [comp for k, comp in enumerate(w_comps) if not full[inside[k]][:, ~inside[k]].any()]
    assert labels.scc_nodes == frozenset(giant)
    blocks = rm.block_decomposition(g, labels)
    assert component_lists(blocks.component_of) == w_comps
    assert not blocks.component_of.flags.writeable
    assert [list(b) for b in blocks.recurrent_blocks] == closed
    block_nodes = {v for b in closed for v in b}
    assert blocks.transient_set == set(range(g.n)) - block_nodes
    assert blocks.escc == set(next(c for c in w_comps if giant[0] in c))
    assert blocks.dangling_ids.tolist() == np.flatnonzero(~raw.any(axis=1)).tolist()
    w_escc = next(c for c in w_comps if giant[0] in c)
    assert np.flatnonzero(blocks.pure_out_mask).tolist() == \
        sorted(set(np.flatnonzero(expected == int(Label.OUT)).tolist()) - set(w_escc))
    for node_set in (labels.scc_nodes, blocks.transient_set, blocks.escc):
        assert type(node_set) is frozenset
    for v in range(g.n):
        expect = next((k for k, b in enumerate(closed) if v in b), -1)
        assert blocks.block_of(v) == expect
    assert blocks.permutation.tolist() == \
        [v for b in closed for v in b] + sorted(blocks.transient_set)


def _views(g):
    """The block decomposition and the views: the whole graph, its transient
    block when there is one, and the extended component alone when it is open."""
    blocks = rm.block_decomposition(g, rm.bowtie_labeling(g))
    views = [block_view(g, range(g.n), range(g.n))]
    if blocks.transient_set:
        views.append(transient_view(g, blocks))
    if not np.any(blocks.escc_mask & (blocks.block_index >= 0)):
        views.append(transient_view(g, blocks, escc_only=True))
    return blocks, views


@pytest.mark.parametrize("g", SHAPED, ids=lambda g: f"n{g.n}m{g.num_edges}")
def test_block_classes_match_dense_oracle(g):
    _check_block_classes(g)


def _check_block_classes(g):
    """Each view's classes, as read off the block decomposition's components,
    and its irreducibility, against the dense oracle."""
    blocks, views = _views(g)
    for view in views:
        adj = view.matrix.toarray() > 0.0
        adj[view.dangling_local, :] = True
        expected = helpers.dense_reach_components(adj)
        assert view.irreducible() == (len(expected) == 1)
        expected_ids = np.empty(view.rows.size, dtype=np.int64)
        for k, members in enumerate(expected):
            expected_ids[members] = k
        ids = by_smallest_member(blocks.component_of[view.rows])
        assert ids.tolist() == expected_ids.tolist()


@pytest.mark.parametrize("cap", [0, 1, 2])
@pytest.mark.parametrize("g", SHAPED + PIVOT_OUTSIDE, ids=lambda g: f"n{g.n}m{g.num_edges}")
def test_list_walk_past_the_level_cap_matches_dense_oracle(g, cap, monkeypatch):
    """A closure still open after ``LEVEL_CAP`` numpy levels finishes as a
    list walk; with the cap at 0, 1 and 2 that tail does most of the work."""
    monkeypatch.setattr(bowtie, "LEVEL_CAP", cap)
    _check_components(g)
    _check_labels_and_blocks(g)
    _check_block_classes(g)


@pytest.mark.parametrize("g", PIVOT_OUTSIDE, ids=["hub_out", "hub_in", "tie"])
def test_pivot_outside_the_giant_matches_dense_oracle(g):
    pivot = int(np.argmax(g.out_degree * np.diff(g.in_indptr)))
    labels = rm.bowtie_labeling(g)
    assert labels.component_of[pivot] != labels.giant_scc_id
    _check_components(g)
    _check_labels_and_blocks(g)
    _check_block_classes(g)


@st.composite
def _sub_blocks(draw):
    """A random digraph, dangling rows likely at this density, and a nonempty
    node subset for a sub-block of its transition matrix."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    subset = draw(st.lists(node, min_size=1, max_size=n, unique=True))
    return rm.build_graph(n, edges), sorted(subset)


@settings(max_examples=150, deadline=None)
@given(_sub_blocks())
def test_irreducible_and_component_numbering_match_dense_oracle(case):
    """``irreducible()`` on a random sub-block and on every transition-graph
    component, where a dangling row links to the whole block, and the raw
    components numbered by smallest member, against the dense oracle."""
    g, subset = case
    raw = helpers.dense_link_pattern(g, uniform_dangling=False)
    comps = helpers.dense_reach_components(raw)
    assert rm.strongly_connected_components(g) == comps
    expected = np.empty(g.n, dtype=np.int64)
    for k, comp in enumerate(comps):
        expected[comp] = k
    assert rm.bowtie_labeling(g).component_of.tolist() == expected.tolist()

    full = helpers.dense_link_pattern(g, uniform_dangling=True)
    for nodes in [subset] + helpers.dense_reach_components(full):
        adj = raw[np.ix_(nodes, nodes)]
        adj[g.dangling_mask[nodes], :] = True
        view = block_view(g, nodes, nodes)
        assert view.irreducible() == (len(helpers.dense_reach_components(adj)) == 1)


def test_tarjan_never_walks_the_giant(monkeypatch):
    """The giant SCC comes from the pivot's two closures: Tarjan sees at most
    the n - |giant| other nodes, and never the giant itself."""
    g = helpers.random_suite(seed=7, count=1)[0]
    sizes = []
    tarjan = bowtie._tarjan

    def spy(indptr, indices):
        sizes.append(len(indptr) - 1)
        return tarjan(indptr, indices)

    monkeypatch.setattr(bowtie, "_tarjan", spy)
    labels = rm.bowtie_labeling(g)
    rm.block_decomposition(g, labels)
    giant = len(labels.scc_nodes)
    assert giant >= 4 and sizes == [g.n - giant]


def test_irreducibility_checks_walk_no_tarjan(threeblock, threeblock_view, monkeypatch):
    """``block_stationary``, ``derivative_at_one`` and ``laurent_check`` decide
    irreducibility by closures alone: a block with dangling rows by the reverse
    closure of those rows, a block without by the two closures of one node."""
    g = rm.build_graph(3, [(0, 1), (1, 2)])   # node 2 dangles; its row links to every node
    blocks = rm.block_decomposition(threeblock, rm.bowtie_labeling(threeblock))
    tarjan, sizes = bowtie._tarjan, []

    def spy(indptr, indices):
        sizes.append(len(indptr) - 1)
        return tarjan(indptr, indices)

    monkeypatch.setattr(bowtie, "_tarjan", spy)
    limits.block_stationary(g, range(3))
    for block in blocks.recurrent_blocks:
        limits.block_stationary(threeblock, block)
    inscc.derivative_at_one(threeblock_view)
    limits.laurent_check(*limits.laurent_example_5state(), [0.1, 0.01])
    assert sizes == []


def test_raw_components_build_no_reverse_adjacency(monkeypatch):
    """``strongly_connected_components`` reads the reverse arrays the handle
    stores: no module sorts a reverse adjacency of its own."""
    g = helpers.random_suite(seed=7, count=1)[0]
    reverse_csr, sizes = graph._reverse_csr, []

    def spy(indptr, indices):
        sizes.append(indptr.size - 1)
        return reverse_csr(indptr, indices)

    for module in (graph, operators, bowtie):   # wherever the name is bound
        monkeypatch.setattr(module, "_reverse_csr", spy, raising=False)
    raw = helpers.dense_link_pattern(g, uniform_dangling=False)
    assert rm.strongly_connected_components(g) == helpers.dense_reach_components(raw)
    assert sizes == []


LONG = 100_000


def test_long_path_has_no_recursion_limit():
    g = rm.build_graph(LONG, [(i, i + 1) for i in range(LONG - 1)])
    comps = rm.strongly_connected_components(g)
    assert len(comps) == LONG and comps[-1] == [LONG - 1]
    labels = rm.bowtie_labeling(g)
    assert labels.scc_nodes == {0}
    assert labels.out_nodes == set(range(1, LONG))
    blocks = rm.block_decomposition(g, labels)
    assert blocks.num_blocks == 1 and not blocks.transient_set
    # the last node dangles and every node reaches it: one transition component
    assert not blocks.component_of.any() and chain_view(g).irreducible()


def test_long_cycle_is_one_component():
    g = rm.build_graph(LONG, [(i, (i + 1) % LONG) for i in range(LONG)])
    assert rm.strongly_connected_components(g) == [list(range(LONG))]
    labels = rm.bowtie_labeling(g)
    assert len(labels.scc_nodes) == LONG
    assert rm.block_decomposition(g, labels).block_sizes == (LONG,)


def test_many_dangling_rows_stay_linear():
    # a star whose leaves all dangle: |dangling| x n would be 10^10 entries
    g = rm.build_graph(LONG, [(0, i) for i in range(1, LONG)])
    labels = rm.bowtie_labeling(g)
    assert not rm.block_decomposition(g, labels).component_of.any()
    assert chain_view(g).irreducible()
    assert len(rm.strongly_connected_components(g)) == LONG
