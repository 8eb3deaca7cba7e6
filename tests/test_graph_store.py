import io

import numpy as np
import pytest

import rankmass as rm
from rankmass.sample_graphs import BOWTIE_EDGES

import helpers


def test_minimal_edge_list():
    g = rm.loads("n 2\n0 1\n")
    assert g.n == 2
    assert list(g.out_neighbors(0)) == [1]
    assert g.dangling_set == {1}


def test_header_only_gives_isolated_dangling_nodes():
    g = rm.loads("n 3\n")
    assert g.n == 3
    assert g.num_edges == 0
    assert g.dangling_set == {0, 1, 2}


def test_bowtie_sample_counts(bowtie):
    assert bowtie.n == 12
    assert bowtie.num_edges == 14
    assert bowtie.dangling_set == {5}


def test_node_count_inferred_without_header():
    g = rm.loads("0 1\n7 3\n")
    assert g.n == 8


def test_comments_and_blank_lines_skipped():
    g = rm.loads("# a comment\n\nn 4\n# another\n0 1\n\n2 3\n")
    assert g.n == 4
    assert g.num_edges == 2


def test_duplicate_edges_collapse():
    g = rm.loads("0 1\n0 1\n0 2\n")
    assert list(g.out_neighbors(0)) == [1, 2]
    assert g.out_degree[0] == 2
    row = rm.hyperlink_row(g, 0)
    assert row.weight == 0.5


def test_self_loop_retained():
    g = rm.loads("n 1\n0 0\n")
    assert g.num_edges == 1
    assert not g.is_dangling(0)


def test_malformed_line_reports_number():
    with pytest.raises(rm.GraphParseError) as err:
        rm.loads("0 1\n0 one\n")
    assert err.value.line == 2


def test_too_many_tokens_rejected():
    with pytest.raises(rm.GraphParseError):
        rm.loads("0 1 2\n")


def test_negative_id_rejected():
    with pytest.raises(rm.GraphParseError):
        rm.loads("0 -1\n")


def test_id_beyond_declared_count():
    with pytest.raises(rm.GraphRangeError) as err:
        rm.loads("n 3\n0 5\n")
    assert err.value.line == 2


def test_header_after_edges_rejected():
    with pytest.raises(rm.GraphParseError):
        rm.loads("0 1\nn 5\n")


def test_dump_load_round_trip(bowtie):
    text = rm.dumps(bowtie)
    again = rm.loads(text)
    assert again.n == bowtie.n
    assert list(again.edges()) == list(bowtie.edges())
    assert rm.dumps(again) == text


def test_writer_format(threeblock):
    buf = io.StringIO()
    rm.dump_edge_list(threeblock, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n 9"
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert pairs == sorted(pairs)


def test_stream_writer_is_dumps(bowtie, threeblock):
    for g in (bowtie, threeblock, rm.build_graph(3, [])):
        buf = io.StringIO()
        rm.dump_edge_list(g, buf)
        assert buf.getvalue() == rm.dumps(g)


def test_hyperlink_row_two_successors(bowtie):
    row = rm.hyperlink_row(bowtie, 7)
    assert not row.uniform
    assert list(row.targets) == [8, 10]
    assert row.weight == 0.5


def test_hyperlink_row_dangling_uniform(bowtie):
    row = rm.hyperlink_row(bowtie, 5)
    assert row.uniform
    assert row.targets is None
    assert row.weight == pytest.approx(1.0 / 12.0)


def test_hyperlink_row_single_successor(bowtie):
    row = rm.hyperlink_row(bowtie, 0)
    assert row.weight == 1.0


def test_hyperlink_rows_sum_to_one(bowtie, random_graphs):
    for g in [bowtie] + random_graphs[:5]:
        for i in range(g.n):
            row = rm.hyperlink_row(g, i)
            total = row.weight * (g.n if row.uniform else row.targets.size)
            assert abs(total - 1.0) <= 1e-15


def test_transpose_consistency(random_graphs):
    for g in random_graphs[:5]:
        forward = {(u, v) for u, v in g.edges()}
        backward = {(int(u), v) for v in range(g.n) for u in g.in_neighbors(v)}
        assert forward == backward


def test_dense_matrix_rows_stochastic(bowtie):
    w = rm.dense_hyperlink_matrix(bowtie)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(w, helpers.dense_w(bowtie))


def test_with_edge_adds_and_validates(bowtie):
    g2 = rm.with_edge(bowtie, 8, 1)
    assert g2.num_edges == bowtie.num_edges + 1
    assert 1 in g2.out_neighbors(8)
    assert bowtie.num_edges == 14  # original untouched
    with pytest.raises(ValueError):
        rm.with_edge(bowtie, 0, 1)
    with pytest.raises(rm.GraphRangeError):
        rm.with_edge(bowtie, 0, 99)


def _arrays(g):
    return (g.out_indptr, g.out_indices, g.in_indptr, g.in_indices, g.out_degree,
            g.dangling, g.dangling_mask, g.w.data, g.w.indices, g.w.indptr)


def test_with_edge_splice_equals_rebuild(bowtie):
    rng = np.random.default_rng(11)
    cases = [(bowtie, 8, 1), (bowtie, 5, 0), (bowtie, 11, 11), (bowtie, 0, 11),
             (rm.build_graph(3, []), 2, 0)]
    g = helpers.random_digraph(rng, 15, 0.15)
    for _ in range(10):
        u, v = (int(x) for x in rng.integers(0, g.n, size=2))
        if v not in g.out_neighbors(u):
            cases.append((g, u, v))
    for g, u, v in cases:
        spliced = rm.with_edge(g, u, v)
        rebuilt = rm.build_graph(g.n, list(g.edges()) + [(u, v)])
        assert spliced.n == rebuilt.n and spliced.w.shape == rebuilt.w.shape
        for a, b in zip(_arrays(spliced), _arrays(rebuilt)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) already present$"):
        rm.with_edge(bowtie, 0, 1)
    for u, v in ((0, 12), (-1, 0), (12, 0)):
        with pytest.raises(rm.GraphRangeError, match=rf"edge \({u}, {v}\) outside \[0, 12\)"):
            rm.with_edge(bowtie, u, v)


def test_build_graph_matches_edge_constant(bowtie):
    assert set(bowtie.edges()) == set(BOWTIE_EDGES)
