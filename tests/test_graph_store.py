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


@pytest.mark.parametrize("text, error, line, message", [
    ("# c\nn 2\n\nn 3\n", rm.GraphParseError, 4, "duplicate header"),
    ("n 2\n0 1\nn 3\n", rm.GraphParseError, 3, "duplicate header"),
    ("0 1\n n 5\n", rm.GraphParseError, 2, "header must precede edges"),
    ("0 1\nn\n", rm.GraphParseError, 2, "header must precede edges"),
    ("n\n", rm.GraphParseError, 1, "header must be 'n <count>'"),
    ("# c\nn 3 4\n", rm.GraphParseError, 2, "header must be 'n <count>'"),
    ("n three\n", rm.GraphParseError, 1, "bad node count 'three'"),
    ("n 2.5\n", rm.GraphParseError, 1, "bad node count '2.5'"),
    ("n -1\n", rm.GraphParseError, 1, "node count must be non-negative"),
    ("0 1\n  0 1 2 \n", rm.GraphParseError, 2, "expected 'u v', got '0 1 2'"),
    ("7\n", rm.GraphParseError, 1, "expected 'u v', got '7'"),
    ("0 1 # note\n", rm.GraphParseError, 1, "expected 'u v', got '0 1 # note'"),
    ("0 1 x\n", rm.GraphParseError, 1, "expected 'u v', got '0 1 x'"),
    ("0 1\n0\tone \n", rm.GraphParseError, 2, "non-integer endpoint in '0\\tone'"),
    ("n3 4\n", rm.GraphParseError, 1, "non-integer endpoint in 'n3 4'"),
    ("1.0 2\n", rm.GraphParseError, 1, "non-integer endpoint in '1.0 2'"),
    ("\n0 -1\n", rm.GraphParseError, 2, "negative node id in '0 -1'"),
    ("n 3\n-5 9\n", rm.GraphParseError, 2, "negative node id in '-5 9'"),
    ("n 3\n0 1\n0 5\n", rm.GraphRangeError, 3, "node id 5 >= declared count 3"),
    ("n 3\n4 9\n", rm.GraphRangeError, 2, "node id 9 >= declared count 3"),
    ("n 0\n0 0\n", rm.GraphRangeError, 2, "node id 0 >= declared count 0"),
])
def test_parse_errors_are_pinned(text, error, line, message):
    with pytest.raises(error) as err:
        rm.loads(text)
    assert type(err.value) is error
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_build_graph_range_error_has_no_line():
    for edges in ([(0, 2)], [(-1, 0)], np.array([[0, 1], [3, 0]])):
        with pytest.raises(rm.GraphRangeError) as err:
            rm.build_graph(2, edges)
        assert err.value.line is None
        assert str(err.value) == "edge endpoint outside [0, 2)"


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


def _outcome(load):
    """The graph's arrays, or the type and message of the error raised."""
    try:
        g = load()
    except rm.GraphParseError as exc:
        return type(exc), str(exc)
    return g.n, [a.tolist() for a in _arrays(g)]


@pytest.mark.parametrize("sep", ["\r", "\r\n", "\x0c", "\x1c", "\x85", "\u2028"])
def test_loads_splits_lines_as_load_path(tmp_path, sep):
    path = tmp_path / "g.edges"
    for text in (f"n 3\n0 1{sep}1 2\n", f"0 1{sep}1 2{sep}", f"# c{sep}n 3{sep}2 0{sep}",
                 f"n 3{sep}\n0 1 2\n"):
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(lambda: rm.loads(text)) == _outcome(lambda: rm.load_path(path))


def test_loader_matches_build_graph_on_random_edge_lists():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(0, 40))
        pairs = [(int(u), int(v)) for u, v in rng.integers(0, n, size=(m, 2))]
        pairs += [(int(u), int(u)) for u in rng.integers(0, n, size=int(rng.integers(0, 3)))]
        pairs += [pairs[int(i)] for i in rng.integers(0, len(pairs), size=len(pairs) // 3)]
        rng.shuffle(pairs)
        pad = [" ", "\t", "  "]
        lines = [f"{pad[int(rng.integers(3))]}{u}{pad[int(rng.integers(3))]}{v}"
                 f"{pad[int(rng.integers(3))]}" for u, v in pairs]
        header = bool(rng.integers(2))
        if header:
            lines.insert(0, f"n {n}")
        for _ in range(int(rng.integers(0, 4))):
            lines.insert(int(rng.integers(0, len(lines) + 1)),
                         str(rng.choice(["", "   ", "# note", "  #0 1", "#"])))
        g = rm.loads("\n".join(lines) + "\n")
        distinct = sorted(set(pairs))
        ref = rm.build_graph(n if header else 1 + max(map(max, pairs), default=-1), distinct)
        assert list(g.edges()) == distinct
        assert g.n == ref.n
        for a, b in zip(_arrays(g), _arrays(ref)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def test_build_graph_takes_an_edge_array_and_leaves_it_alone():
    edges = np.array([[2, 0], [0, 1], [2, 0], [1, 1]], dtype=np.int64)
    g = rm.build_graph(3, edges)
    assert list(g.edges()) == [(0, 1), (1, 1), (2, 0)]
    assert edges.flags.writeable and edges.tolist() == [[2, 0], [0, 1], [2, 0], [1, 1]]
    for a, b in zip(_arrays(g), _arrays(rm.build_graph(3, edges.tolist()))):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_ids_past_int64_are_range_errors():
    big = 2 ** 63 - 1
    for text, line, message in (
            (f"0 {big}\n", 1, f"node id {big} >= int64 limit {big}"),
            (f"# c\n{big + 1} 0\n", 2, f"node id {big + 1} >= int64 limit {big}"),
            (f"n {big + 1}\n", 1, f"node count {big + 1} > int64 limit {big}"),
            ("n 3\n0 99999999999999999999\n", 2,
             "node id 99999999999999999999 >= declared count 3")):
        with pytest.raises(rm.GraphRangeError) as err:
            rm.loads(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


def _full_outcome(load):
    """The graph's arrays with their dtypes, or the type and message of the error."""
    try:
        g = load()
    except (ValueError, MemoryError) as exc:   # parse, range, UTF-8 and size errors
        return type(exc), str(exc)
    return g.n, [(a.dtype.str, a.tolist()) for a in _arrays(g)]


def _plain_texts(rng):
    """Seeded plain edge lists: optional header, ids with and without leading zeros,
    sorted or shuffled with repeats, 0 to 40 edges."""
    for k in range(40):
        n = int(rng.integers(1, 30))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 40)), 2)).tolist()
        if k % 3 == 0:
            pairs = sorted(set(map(tuple, pairs)))
        else:
            pairs += pairs[:len(pairs) // 4]
        width = 3 if k % 5 == 0 else 0
        header = f"n {n}\n" if k % 2 else ""
        yield header + "".join(f"{u:0{width}d} {v:0{width}d}\n" for u, v in pairs)


def _mutations(text, rng):
    """Near-plain variants of one plain text; most leave the plain path, and the
    18-digit ids and a header on the first line do not."""
    lines = text.splitlines(keepends=True) or ["0 1\n"]
    i = int(rng.integers(len(lines)))
    line = lines[i]

    def at(new):
        return "".join(lines[:i] + [new] + lines[i + 1:])
    yield at(line.replace(" ", "\t", 1))
    yield at(line.replace(" ", "  ", 1))
    yield at(" " + line)
    yield at(line[:-1] + " \n")
    yield at(line[:-1] + "\r")
    yield text.replace("\n", "\r\n")
    yield text.replace("\n", "\r")
    yield at("+" + line)
    yield at(line.replace(" ", " -", 1))
    for digits in (18, 19, 20):   # without a header, 18 digits ask for over 2^56 bytes
        yield at(f"{'9' * digits} 0\n")
        yield at(f"0 1{'0' * (digits - 1)}\n")
    yield at("7\n")
    yield at(line.replace(" ", "\n", 1))
    yield at(line.split()[0] + " \n")
    yield at(" " + line.split()[-1] + "\n")
    yield at(line[:-1] + " 3\n")
    yield text[:-1]
    yield text + "0 "
    yield text + "5"
    yield at(line[:-1] + ":\n")   # the bytes either side of the digits
    yield at("/" + line)
    yield at("\n" + line)
    yield at("# note\n" + line)
    yield at(line[:-1] + " # note\n")
    yield at("n 50\n" + line)
    yield at(line.replace("0", "٠").replace("1", "１"))   # Arabic-Indic and fullwidth
    yield at(line.replace(" ", "\u00a0", 1))   # no-break space
    yield text + "\ud800\n"


def test_fast_parse_matches_the_line_loop(tmp_path):
    rng = np.random.default_rng(13)
    path = tmp_path / "g.edges"
    texts = []
    for text in _plain_texts(rng):
        texts += [text, *_mutations(text, rng)]
    texts += ["", "7", "n 0\n", "n 000\n", "n 2\n", "n 2", "0 0\n", "n 3\n0 1\n2 3\n"]
    for text in texts:
        data = text.encode("utf-8", errors="surrogatepass")
        path.write_bytes(data)

        def read_lines():
            with open(path, "r", encoding="utf-8") as fh:
                return rm.load_edge_list(fh)
        expected = _full_outcome(read_lines)
        assert _full_outcome(lambda: rm.load_path(path)) == expected, text
        assert (_full_outcome(lambda: rm.loads(text))
                == _full_outcome(lambda: rm.load_edge_list(io.StringIO(text, newline=None))))
    # invalid UTF-8 at the start, in the first and past the first 8 KiB decoding chunk
    body = b"".join(b"%d %d\n" % (k, k + 1) for k in range(2000))
    for data in (b"\xff0 1\n", b"0 1\n1 \xfe\n" + body, body + b"5 \xc3(\n", body + b"\x80"):
        path.write_bytes(data)
        with open(path, "r", encoding="utf-8") as fh:
            expected = _full_outcome(lambda: rm.load_edge_list(fh))
        assert _full_outcome(lambda: rm.load_path(path)) == expected
        assert expected[0] is UnicodeDecodeError


def test_written_edge_lists_skip_the_line_loop(tmp_path, monkeypatch, bowtie, threeblock):
    def line_loop(stream):
        raise AssertionError("line loop called")
    monkeypatch.setattr(rm.graph, "load_edge_list", line_loop)
    path = tmp_path / "g.edges"
    graphs = [bowtie, threeblock, rm.build_graph(3, []),
              helpers.random_digraph(np.random.default_rng(14), 40, 0.1)]
    for g in graphs:
        path.write_text(rm.dumps(g))
        for again in (rm.loads(rm.dumps(g)), rm.load_path(path)):
            for a, b in zip(_arrays(again), _arrays(g)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    with pytest.raises(AssertionError, match="line loop called"):
        rm.loads("0 1\r\n")


def test_reverse_arrays_keep_sources_ascending_within_a_target():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        g = rm.build_graph(n, rng.integers(0, n, size=(int(rng.integers(0, 60)), 2)))
        sources = np.repeat(np.arange(n), g.out_degree)
        assert np.array_equal(g.in_indices, sources[np.argsort(g.out_indices, kind="stable")])
        assert np.array_equal(g.in_indptr, np.r_[0, np.cumsum(np.bincount(g.out_indices,
                                                                           minlength=n))])


def test_sorted_edges_skip_the_sort(bowtie, monkeypatch):
    def lexsort(keys):
        raise AssertionError("sorted")
    monkeypatch.setattr(np, "lexsort", lexsort)
    for u, v in ((8, 1), (5, 0), (11, 11), (0, 11), (0, 0)):
        rm.with_edge(bowtie, u, v)
    rm.build_graph(bowtie.n, list(bowtie.edges()))
    with pytest.raises(AssertionError, match="sorted"):
        rm.build_graph(3, [(1, 0), (0, 1)])
