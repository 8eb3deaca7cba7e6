import argparse
import csv
import io
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import rankmass as rm
from rankmass import cli, csvtext
from rankmass.bowtie import dual_path_mask
from rankmass.cli import main
from rankmass.experiment import click_rank
from rankmass.sample_graphs import bowtie_sample, three_block_sample


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    bow = root / "bowtie.edges"
    bow.write_text(rm.dumps(bowtie_sample()))
    tri = root / "threeblock.edges"
    tri.write_text(rm.dumps(three_block_sample()))
    return {"bowtie": str(bow), "threeblock": str(tri), "root": root}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    return comments, list(csv.reader(io.StringIO("\n".join(rows))))


def test_decompose_csv(graph_files, tmp_path, capsys):
    out = tmp_path / "dec.csv"
    code, _, _ = run_cli(["decompose", "--graph", graph_files["bowtie"],
                          "--out", str(out)], capsys)
    assert code == 0
    comments, rows = read_csv(out)
    assert any("total_nodes=12" in c for c in comments)
    assert any("nodes_in_escc=6" in c for c in comments)
    assert any("nodes_in_pure_out=6" in c for c in comments)
    assert rows[0] == ["node_id", "bowtie_label", "in_escc", "in_pure_out",
                       "recurrent_block_id", "feeds_dangling_and_deadend"]
    body = {r[0]: r for r in rows[1:]}
    assert body["0"][1] == "IN"
    assert body["5"][1:] == ["OUT", "true", "false", "-1", "false"]
    assert body["8"][4] == "0" and body["10"][4] == "1"
    assert body["4"][5] == "true"


def test_pagerank_csv_and_round_trip(graph_files, tmp_path, capsys):
    out = tmp_path / "pr.csv"
    code, _, _ = run_cli(["pagerank", "--graph", graph_files["bowtie"],
                          "--damping", "0.85", "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    scores = {int(r[0]): float(r[1]) for r in rows[1:]}
    assert abs(sum(scores.values()) - 1.0) <= 1e-12
    pi = rm.pagerank(bowtie_sample(), rm.PageRankConfig(damping=0.85))
    for v, score in scores.items():
        assert score == pi.values[v]  # 17 digits round-trip exactly


def test_outputs_are_reproducible(graph_files, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(["sweep", "--graph", graph_files["bowtie"],
                              "--grid", "0:0.9:0.1", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_grid_row_count(graph_files, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--graph", graph_files["bowtie"],
                          "--grid", "0:0.95:0.05", "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][:3] == ["c", "mass_IN", "mass_SCC"]
    assert len(rows) - 1 == 20


def test_damping_one_rejected(graph_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pagerank", "--graph", graph_files["bowtie"], "--damping", "1.0"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "limit" in err


def test_unknown_flag_exits_one(graph_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--graph", graph_files["bowtie"], "--bogus"])
    assert exc.value.code == 1


SUBCOMMANDS = ("decompose", "pagerank", "sweep", "limit", "inscc-curve", "inscc-derivatives",
               "escc-bounds", "cstar", "link-experiment")


def _outcome(run, argv, capsys):
    """Standard output, standard error and exit code of ``run(argv)``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_a_command_help_is_the_full_parser_help(command, capsys):
    full = _outcome(_full_parse, [command, "--help"], capsys)
    assert full[0].startswith(f"usage: rankmass {command} ") and full[1:] == ("", 0)
    assert _outcome(main, [command, "--help"], capsys) == full


@pytest.mark.parametrize("argv", [
    ["--help"], ["--version"], [], ["bogus"], ["--bogus"], ["lim", "--graph", "x"],
    ["pagerank", "--graph", "x", "--damping", "2"], ["cstar", "--graph", "x", "--mode", "bogus"],
    ["limit"], ["limit", "--graph", "x", "extra"], ["limit", "--version"],
])
def test_usage_output_is_the_full_parser_output(argv, capsys):
    # an error the top-level parser reports after the command's parser ran
    # prints the top-level usage line, which names every command
    full = _outcome(_full_parse, argv, capsys)
    assert full[2] == (0 if argv[:1] in (["--help"], ["--version"]) else 1)
    assert _outcome(main, argv, capsys) == full


def test_a_command_builds_only_its_own_parser(graph_files, tmp_path, monkeypatch, capsys):
    assert tuple(cli._COMMANDS) == SUBCOMMANDS
    made = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: made.append(name) or add_parser(self, name, **kw))
    for _ in range(2):
        made.clear()
        argv = ["limit", "--graph", graph_files["bowtie"], "--out", str(tmp_path / "limit.csv")]
        assert _outcome(main, argv, capsys) == ("", "", 0)
        assert made == ["limit"]
    made.clear()
    _outcome(main, ["--version"], capsys)
    assert made == list(SUBCOMMANDS)


def _option_help(command, flag, capsys):
    """The lines of ``command --help`` that describe ``flag``."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(f"  {flag}"))
    end = next((k for k in range(start + 1, len(lines)) if not lines[k].startswith("   ")),
               len(lines))
    return lines[start:end]


@pytest.mark.parametrize("flag, commands", [
    ("--force-dn-merge", ("inscc-curve", "inscc-derivatives")),
    ("--fold-other", ("inscc-curve", "inscc-derivatives")),
    ("--exclude-pureout-transients", ("escc-bounds", "cstar")),
])
def test_shared_flags_print_one_help_text(flag, commands, capsys):
    first, second = (_option_help(command, flag, capsys) for command in commands)
    assert first == second
    assert " ".join(first).split()[1:]   # a help text after the flag


# options naming a file: the graph has its own comment line, the rest are not results
PATH_DESTS = {"graph", "out", "vector_out", "clicks"}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_params_record_every_option_but_the_paths_in_cli_order(command, graph_files,
                                                                tmp_path, capsys):
    graph, extra = ((graph_files["bowtie"], ["--source", "8", "--target", "1"])
                    if command == "link-experiment" else (graph_files["threeblock"], []))
    out = tmp_path / "out.csv"
    argv = [command, "--graph", graph, "--out", str(out), *extra]
    assert _outcome(main, argv, capsys)[2] == 0
    parser = cli.build_parser(command)
    sub, = (a.choices[command] for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in sub._actions
             if a.option_strings and a.dest not in PATH_DESTS | {"help"}]
    args = parser.parse_args(argv)
    params = next(line for line in out.read_text().splitlines() if line.startswith("# params:"))
    command_token, *tokens = params.split()[2:]
    assert command_token == f"command={command}"
    assert tokens[:len(dests)] == [f"{d}={cli._fmt(getattr(args, d))}" for d in dests]
    computed = {token.split("=")[0] for token in tokens[len(dests):]}
    assert not computed & (set(dests) | PATH_DESTS)


def test_bad_grid_is_validation_error(graph_files, capsys):
    for grid in ("0:1.2:0.1", "0:0.5:nan", "0:0.5:inf", "0:0.5:1e-9"):
        code, _, err = run_cli(["sweep", "--graph", graph_files["bowtie"],
                                "--grid", grid], capsys)
        assert code == 1
        assert "grid" in err


def test_step_below_the_end_slack_gives_each_grid_value_once(graph_files, tmp_path, capsys):
    assert cli._parse_grid("0:1e-13:1e-13") == [0.0, 1e-13]
    out = tmp_path / "curve.csv"
    code, _, err = run_cli(["inscc-curve", "--graph", graph_files["threeblock"],
                            "--grid", "0:1e-13:1e-13", "--out", str(out)], capsys)
    assert code == 0 and err == ""
    _, rows = read_csv(out)
    assert [row[0] for row in rows[1:]] == ["0", "1e-13"]
    assert "nan" not in out.read_text()


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(1e-17, 1.0))
def test_grid_is_strictly_increasing_from_start_to_at_most_stop(a, b, step):
    start, stop = min(a, b), max(a, b)
    try:
        grid = cli._parse_grid(f"{start!r}:{stop!r}:{step!r}")
    except ValueError as exc:
        assert "more than" in str(exc)
        return
    assert grid[0] == start and grid[-1] <= stop
    assert all(x < y for x, y in zip(grid, grid[1:]))


def test_usage_errors_exit_one_with_their_message(capsys):
    # a bad grid or damping list fails before the graph is read
    missing = "/nonexistent.edges"
    link = ["link-experiment", "--graph", missing, "--source", "8", "--target", "1"]
    for argv, message in (
            (["pagerank", "--graph", missing, "--damping", "abc"],
             "argument --damping: not a number: 'abc'"),
            (["pagerank", "--graph", missing, "--damping", "1.5"],
             "argument --damping: damping must lie in [0, 1); got 1.5"),
            (["sweep", "--graph", missing, "--grid", "0:0.9"],
             "rankmass: error: grid must be START:STOP:STEP, got '0:0.9'"),
            (["inscc-curve", "--graph", missing, "--grid", "0:1.2:0.1"],
             "rankmass: error: grid must satisfy 0 <= START <= STOP < 1, got '0:1.2:0.1'"),
            (["escc-bounds", "--graph", missing, "--grid", "0:0.5:0"],
             "rankmass: error: grid STEP must be positive and finite, got '0:0.5:0'"),
            (link + ["--damping-list", ","], "rankmass: error: damping-list is empty"),
            (link + ["--damping-list", "0.5,abc"], "rankmass: error: not a number: 'abc'")):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 1
        assert message in err
        assert out == ""


def test_ids_past_int64_exit_one_without_traceback(tmp_path, capsys):
    path = tmp_path / "huge.edges"
    for text, message in (
            ("0 1\n0 99999999999999999999\n",
             "line 2: node id 99999999999999999999 >= int64 limit 9223372036854775807"),
            ("n 99999999999999999999\n0 1\n",
             "line 1: node count 99999999999999999999 > int64 limit 9223372036854775807")):
        path.write_text(text)
        code, out, err = run_cli(["decompose", "--graph", str(path)], capsys)
        assert code == 1
        assert err == f"rankmass: error: {message}\n"
        assert out == ""


def test_an_empty_graph_exits_one(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("n 0\n")
    code, out, err = run_cli(["decompose", "--graph", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "rankmass: error: empty graph has no components\n"


def test_graphs_past_the_size_limit_exit_one(tmp_path, capsys):
    path = tmp_path / "huge.edges"
    for text, count in (("n 3037000500\n0 1\n", 3037000500),
                        ("0 9223372036854775806\n", 9223372036854775807)):
        path.write_text(text)
        code, out, err = run_cli(["decompose", "--graph", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"rankmass: error: node count {count} > graph size limit 3037000498\n"


def test_out_of_memory_exits_one_without_traceback(graph_files, monkeypatch, capsys):
    for exc, message in ((MemoryError("Unable to allocate 7.45 GiB for an array"),
                          "Unable to allocate 7.45 GiB for an array"),
                         (MemoryError(), "out of memory")):
        def load_path(path, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "load_path", load_path)
        code, out, err = run_cli(["decompose", "--graph", graph_files["bowtie"]], capsys)
        assert code == 1
        assert err == f"rankmass: error: {message}\n"
        assert out == ""


def _reference_csv(rows):
    """The table as ``csv.writer`` writes it with every cell through ``_fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([cli._fmt(x) for x in row])
    return buf.getvalue()


def _table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def test_column_writer_matches_row_writer(tmp_path, capsys):
    # every label (OTHER from the 12 -> 13 tendril), both bools, block index -1, n = 1
    graphs = [bowtie_sample(), three_block_sample(),
              rm.build_graph(14, list(bowtie_sample().edges()) + [(12, 13)]),
              rm.loads("n 1\n"), rm.loads("n 1\n0 0\n")]
    decompose_rows = []
    for k, g in enumerate(graphs):
        path = tmp_path / f"g{k}.edges"
        path.write_text(rm.dumps(g))
        labels = rm.bowtie_labeling(g)
        blocks = rm.block_decomposition(g, labels)
        out, vec = tmp_path / "out.csv", tmp_path / "vec.csv"

        assert run_cli(["decompose", "--graph", str(path), "--out", str(out)], capsys)[0] == 0
        columns = [labels.labels, blocks.escc_mask, blocks.pure_out_mask, blocks.block_index,
                   dual_path_mask(g, labels, blocks)]
        rows = [[v, rm.Label(label).name, *cells]
                for v, (label, *cells) in enumerate(zip(*(c.tolist() for c in columns)))]
        decompose_rows += rows
        assert _table(out) == _reference_csv(
            [["node_id", "bowtie_label", "in_escc", "in_pure_out", "recurrent_block_id",
              "feeds_dangling_and_deadend"]] + rows)

        assert run_cli(["pagerank", "--graph", str(path), "--out", str(out)], capsys)[0] == 0
        scores = rm.pagerank(g, rm.PageRankConfig(damping=0.85)).values
        assert _table(out) == _reference_csv(
            [["node_id", "score"]] + [[v, float(scores[v])] for v in range(g.n)])

        assert run_cli(["limit", "--graph", str(path), "--out", str(out),
                        "--vector-out", str(vec)], capsys)[0] == 0
        limit = rm.limit_vector(g, blocks).vector
        assert _table(vec) == _reference_csv(
            [["node_id", "limit_score"]] + [[v, float(limit[v])] for v in range(g.n)])
    _, names, *flags, block_ids, dual = zip(*decompose_rows)
    assert set(names) == {label.name for label in rm.Label}
    assert all(set(column) == {True, False} for column in (*flags, dual))
    assert -1 in block_ids

    # the short tables of the other commands; escc-bounds flags are true on the
    # sample and false on the first suite graph
    def check(args, header, rows):
        assert run_cli([*args, "--out", str(out)], capsys)[0] == 0
        assert _table(out) == _reference_csv([header] + rows)
        return rows

    grid = cli._parse_grid("0:0.95:0.05")
    clicks = tmp_path / "clicks.csv"
    clicks.write_text("node_id,clicks\n8,3\n1,100\n0,50\n")
    flags = []
    for k, g in enumerate([bowtie_sample(), three_block_sample(), helpers.random_suite()[0]]):
        path = tmp_path / f"t{k}.edges"
        path.write_text(rm.dumps(g))
        base = ["--graph", str(path)]
        labels = rm.bowtie_labeling(g)
        blocks = rm.block_decomposition(g, labels)

        check(["sweep", *base], ["c", "mass_IN", "mass_SCC", "mass_INSCC", "mass_ESCC",
                                 "mass_PUREOUT", "mass_DN", "mass_OTHER"],
              [[c, m.by_label["IN"], m.by_label["SCC"], m.in_scc, m.escc, m.pure_out, m.dn,
                m.by_label["OTHER"]] for c, m in rm.damping_sweep(g, labels, blocks, grid)])
        limit = rm.limit_vector(g, blocks)
        check(["limit", *base], ["block_id", "size", "fair_share", "absorption_weight",
                                 "limit_mass"],
              [[i, size, float(limit.fair_shares[i]), float(limit.drain_weights[i]),
                float(limit.block_masses[i])] for i, size in enumerate(blocks.block_sizes)])
        bounds = rm.prop3_bounds(g, labels, blocks, cli._parse_grid("0.05:0.95:0.05"))
        flags += check(["escc-bounds", *base],
                       ["c", "mass", "lower_bound", "upper_bound", "cond_i", "cond_ii"],
                       [[r.c, r.mass, r.lower, r.upper, bounds.condition_i,
                         bounds.condition_ii] for r in bounds.rows])
        samples = rm.cstar_solve(g, labels, blocks, v_mode="self", tolerance=1e-6).samples
        check(["cstar", "--mode", "self", *base], ["c", "mass", "target"],
              [list(sample) for sample in samples])
        if k == 2:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # the sample needs the forced split
            view = rm.three_block_view(g, labels, force_dn_merge=True)
        ends = check(["inscc-curve", *base, "--force-dn-merge"],
                     ["c", "mass", "main_term", "correction", "d1_estimate", "d2_estimate"],
                     [[p.c, p.mass, p.main_term, p.correction,
                       "" if p.d1_estimate is None else p.d1_estimate,
                       "" if p.d2_estimate is None else p.d2_estimate]
                      for p in rm.inscc_curve(view, cli._parse_grid("0:0.99:0.01"))])
        assert ends[0][4:] == ends[-1][4:] == ["", ""]
    _, _, _, _, *conditions = zip(*flags)
    assert all(set(column) == {True, False} for column in conditions)

    # inscc-derivatives needs an irreducible core; link-experiment a dead-end source
    g, path = three_block_sample(), tmp_path / "t1.edges"
    view = rm.three_block_view(g, rm.bowtie_labeling(g))
    at_zero, at_one = rm.derivative_at_zero(view), rm.derivative_at_one(view)
    check(["inscc-derivatives", "--graph", str(path)], ["quantity", "value"],
          [["alpha", view.alpha], ["beta", view.beta], ["retention_p1", view.retention_p1()],
           ["mass_slope_at_zero", at_zero.total], ["mass_slope_at_one_exact", at_one.total],
           ["mass_slope_at_one_approx", at_one.approx_total], ["leakage", at_one.leakage]])
    g, path = bowtie_sample(), tmp_path / "t0.edges"
    labels = rm.bowtie_labeling(g)
    rows = rm.run_link_experiment(g, labels, rm.block_decomposition(g, labels), 8, 1,
                                  [0.5, 0.85, 0.95]).rows
    base = ["link-experiment", "--graph", str(path), "--source", "8", "--target", "1"]
    check(base, ["c", "rank_without_link", "rank_with_link", "block_mass_without",
                 "block_mass_with"],
          [[r.damping, r.rank_without_link, r.rank_with_link, r.block_mass_without,
            r.block_mass_with] for r in rows])
    position = click_rank(cli._read_clicks(str(clicks)), 8, g.n)
    check([*base, "--clicks", str(clicks)],
          ["c", "rank_without_link", "rank_with_link", "rank_by_clicks",
           "block_mass_without", "block_mass_with"],
          [[r.damping, r.rank_without_link, r.rank_with_link, position,
            r.block_mass_without, r.block_mass_with] for r in rows])


def _rendered(*columns):
    return "".join(csvtext.table_rows(columns))


def _formatted(values):
    return "".join(f"{format(x, '.17g')}\n" for x in values)


def _edges_of_the_exact_range():
    """Doubles at and next to every power of ten from 1e-12 to 1e16, where the
    decade, the fixed/exponent switch (1e-4 against 1e-5) and the exact range
    (1e-10 <= |x| < 1e15) change, with their negatives, +-0.0 and subnormals."""
    tens = 10.0 ** np.arange(-12, 17)
    edges = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                            [0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(0.0001, 1),
                             9.9999999999999991e-05, 0.5, 0.1, 1200.0, 99999999999999.98]])
    return np.concatenate([edges, -edges])


def _ties_at_the_17th_digit():
    """Doubles whose exact decimal value has 18 significant digits, the last a
    5, so that 17 digits are a tie that rounds to the even neighbour."""
    rng = np.random.default_rng(17)
    ties = []
    for t in range(2, 18):   # an integer part of 18 - t digits, t decimals
        for whole in rng.integers(10 ** (17 - t), min(10 ** (18 - t), 2 ** (52 - t)), 4):
            ties.append(int(whole) + (2 * int(rng.integers(0, 2 ** (t - 1))) + 1) / 2 ** t)
    for k, t in zip(rng.integers(0, 1 << 23, 4000) * 2 + 1, rng.integers(1, 40, 4000)):
        x = float(k) * 2.0 ** -int(t)
        if len(Decimal(x).as_tuple().digits) == 18:
            ties.append(x)
    ties = np.array(ties)
    assert len(ties) > 100 and all(Decimal(x).as_tuple().digits[-1] == 5 for x in ties)
    return np.concatenate([ties, -ties])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_float_cells_are_format_17g(values):
    assert _rendered(np.array(values)) == _formatted(values)
    assert _rendered(values) == _formatted(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_edges_of_the_exact_range().tolist()), min_size=1, max_size=30),
       st.lists(st.floats(1e-11, 1e16), max_size=10))
def test_float_cells_straddling_the_range_edges_are_format_17g(edges, inside):
    values = edges + inside
    assert _rendered(np.array(values)) == _formatted(values)


def test_float_cells_round_ties_to_even_and_stay_below_the_next_power_of_ten():
    ties = _ties_at_the_17th_digit()
    assert _rendered(ties) == _formatted(ties.tolist())
    # 17 digits never reach the next power of ten from below inside the exact range
    below = np.nextafter(10.0 ** np.arange(-9, 16), 0)
    assert not any(format(x, ".17g").lstrip("-").startswith("1") for x in below)
    assert _rendered(below) == _formatted(below.tolist())


def test_cells_match_format_over_random_bits_and_chunks():
    rng = np.random.default_rng(3)
    n = 3 * csvtext.CHUNK_ROWS // 2
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64)
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 17, n)
    for values in (bits.view(np.float64), scaled, rng.random(1000) / 1e5):
        assert _rendered(values) == _formatted(values.tolist())
    # a text column crossing the chunk border, as inscc-curve writes its estimates
    text = ["" if i % 7 == 0 else cli._fmt(x) for i, x in enumerate(scaled.tolist())]
    assert _rendered(text, range(n)) == "".join(f"{x},{i}\n" for i, x in enumerate(text))
    mixed = ["" if i % 7 == 0 else x for i, x in enumerate(scaled.tolist())]
    with pytest.raises(ValueError, match="one kind of cell"):
        _rendered(mixed, range(n))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40),
       st.lists(st.booleans(), min_size=1, max_size=40))
def test_integer_and_bool_cells(integers, flags):
    expected = "".join(f"{i}\n" for i in integers)
    assert _rendered(np.array(integers, dtype=np.int64)) == expected
    assert _rendered(integers) == expected
    assert _rendered(np.array(flags)) == "".join(f"{'true' if b else 'false'}\n" for b in flags)


def test_integer_cells_at_the_int64_ends_and_past_them():
    ends = [-2 ** 63, -2 ** 63 + 1, -10 ** 18, -1, 0, 1, 9, 10, 9999, 10000, 10 ** 18, 2 ** 63 - 1]
    assert _rendered(np.array(ends, dtype=np.int64)) == "".join(f"{i}\n" for i in ends)
    assert _rendered(np.array([0, 2 ** 64 - 1], dtype=np.uint64)) == f"0\n{2 ** 64 - 1}\n"
    with pytest.raises(ValueError, match="dtype object: a column holds one kind of cell"):
        _rendered([2 ** 63, -2 ** 64, 10 ** 30])


def test_narrow_integer_and_float_columns_read_as_fmt_writes_them():
    # np.abs keeps an int8 -128 negative, which a uint64 cast would wrap
    columns = [np.array([-128, 127, 0], dtype=np.int8),
               np.array([-2 ** 15, 2 ** 15 - 1, 7], dtype=np.int16),
               np.array([0.1, -3e-7, 65504.0], dtype=np.float32)]
    for column in columns:
        assert _rendered(column) == "".join(f"{cli._fmt(x)}\n" for x in column)
    assert _rendered(*columns) == "".join(
        ",".join(map(cli._fmt, row)) + "\n" for row in zip(*columns))


def test_float32_scalars_and_columns_read_alike():
    value = np.float32(0.1)
    assert cli._fmt(value) == "0.10000000149011612" == format(float(value), ".17g")
    assert _rendered(np.array([value, value], dtype=np.float32)) == "0.10000000149011612\n" * 2
    assert _rendered([value, 0.5]) == "0.10000000149011612\n0.5\n"


def test_sequences_of_mixed_cell_kinds_are_an_error():
    """``np.asarray`` would read each of these as one dtype and print a cell
    as another kind: ``2**63`` beside ``-1`` as a float, ``True`` as ``1``."""
    for column in ([2 ** 63, -1], [True, 2], [0.5, True], (np.bool_(True), 1.5),
                   [np.uint64(2 ** 64 - 1), -1]):
        with pytest.raises(ValueError, match="one kind of cell"):
            _rendered(column)
    for column in (range(3), (1, 2, 3), (True, np.bool_(False)), [np.int8(-3), 2, np.uint16(7)],
                   (np.float32(0.5), 0.25, np.float64(1.0)), ("a", np.str_("b"), ""), []):
        assert _rendered(column) == "".join(f"{cli._fmt(x)}\n" for x in column)


def _report(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n")
    return cli.CsvReport(str(graph), {"command": "test"})


def test_table_columns_of_different_lengths_are_an_error(tmp_path):
    with pytest.raises(ValueError, match=r"columns differ in length: \[3, 2\]"):
        _report(tmp_path).table(["a", "b"], np.arange(3), np.arange(2))
    with pytest.raises(ValueError, match=r"\[2, 2, 1\]"):
        _report(tmp_path).table(["a", "b", "c"], [1.0, 2.0], ["x", "y"], (True,))
    with pytest.raises(ValueError, match="header names 2 columns, got 3"):
        _report(tmp_path).table(["a", "b"], [1], [2], [3])


@pytest.mark.parametrize("bad", [",", '"', "\r", "\n", "\0"])
def test_text_cells_that_would_need_quoting_are_an_error(tmp_path, bad):
    cell = f"a{bad}b"
    for column in ([cell, "ok"], np.array(["ok", cell])):
        with pytest.raises(ValueError, match="cells are not quoted"):
            _report(tmp_path).table(["name"], column)
    with pytest.raises(ValueError, match="one kind of cell"):
        _report(tmp_path).table(["name"], ["ok", 1.5, cell])
    with pytest.raises(ValueError, match="cells are not quoted"):
        _report(tmp_path).table([f"x{bad}"], [1])
    report = _report(tmp_path)
    report.table(["name", "value"], np.array(["IN", "é", ""]), [1, 2, 3])
    assert report.buffer.getvalue().endswith("name,value\nIN,1\né,2\n,3\n")


def test_tied_dominant_classes_exit_two(tmp_path, capsys):
    # {0, 1} feeds {2, 3} and both classes have eigenvalue sqrt(1/2)
    path = tmp_path / "tied.edges"
    path.write_text("0 1\n1 0\n1 2\n2 3\n3 2\n3 4\n4 4\n")
    code, out, err = run_cli(["escc-bounds", "--graph", str(path)], capsys)
    assert code == 2
    assert err.startswith("rankmass: non-convergence: tied dominant classes along a feeding path")
    assert out == ""


def test_missing_graph_file(capsys):
    code, _, err = run_cli(["decompose", "--graph", "/nonexistent.edges"], capsys)
    assert code == 1


def test_nonconvergence_exit_code(graph_files, tmp_path, seed1_graph, capsys):
    code, out, err = run_cli(["pagerank", "--graph", graph_files["bowtie"],
                              "--damping", "0.85", "--tol", "1e-17"], capsys)
    assert code == 2
    assert "non-convergence" in err and "missed the tolerance" in err
    assert out == ""
    # the benchmark's seed-1 inscc-grid graph: at c = 0.99 rounding keeps the
    # sweep's residual near 47 times tol / 2
    path = tmp_path / "inscc-grid.edges"
    path.write_text(rm.dumps(seed1_graph("inscc-grid")))
    code, out, err = run_cli(["sweep", "--graph", str(path), "--grid", "0:0.99:0.01",
                              "--tol", "1e-14"], capsys)
    assert code == 2
    assert err.startswith("rankmass: non-convergence: sweep at c=0.99 missed the tolerance 1e-14")
    assert out == ""
    with pytest.raises(SystemExit) as exc:   # the step caps are no option
        main(["pagerank", "--graph", graph_files["bowtie"], "--max-iter", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --max-iter 2" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bowtie-large", "inscc-grid"])
def test_pagerank_near_one_finishes_on_the_seed1_graphs(name, seed1_graph, tmp_path, capsys):
    # at c = 0.9999 the solve's target (1 - c) tol lies below rounding, and it
    # stops at a backward error of eps; with the floor test tol * ||y||_1 it
    # ran 500 steps, then summed the series fallback it had then, and had not
    # finished after 30 s
    graph, out = tmp_path / f"{name}.edges", tmp_path / "pr.csv"
    graph.write_text(rm.dumps(seed1_graph(name)))
    code, _, err = run_cli(["pagerank", "--graph", str(graph), "--out", str(out),
                            "--damping", "0.9999"], capsys)
    assert (code, err) == (0, "")
    params = next(line for line in out.read_text().splitlines() if line.startswith("# params:"))
    assert int(params.rsplit("iterations_used=", 1)[1]) <= 150


def test_bad_tolerance_fails_fast(capsys):
    # every command with --tol rejects a bad one before it reads the graph
    for command in ("pagerank", "sweep", "cstar", "link-experiment"):
        extra = ["--source", "0", "--target", "1"] if command == "link-experiment" else []
        for tol in ("nan", "-1", "0", "inf"):
            code, out, err = run_cli([command, "--graph", "/nonexistent.edges", *extra,
                                      "--tol", tol], capsys)
            assert code == 1
            message = f"tolerance must be positive and finite; got {float(tol)}"
            assert err == f"rankmass: error: {message}\n"
            assert out == ""
    # the inner-solve commands run to SOLVE_TOL and take no --tol at all
    for command in ("limit", "inscc-curve", "inscc-derivatives", "escc-bounds"):
        for tol in ("1e-14", "1e-17"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--graph", "/nonexistent.edges", "--tol", tol])
            assert exc.value.code == 1
            assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err


def test_limit_command(graph_files, tmp_path, capsys):
    out = tmp_path / "limit.csv"
    vec = tmp_path / "vec.csv"
    code, _, _ = run_cli(["limit", "--graph", graph_files["bowtie"],
                          "--out", str(out), "--vector-out", str(vec)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0] == ["block_id", "size", "fair_share", "absorption_weight", "limit_mass"]
    masses = [float(r[4]) for r in rows[1:]]
    assert sum(masses) == pytest.approx(1.0, abs=1e-9)
    _, vrows = read_csv(vec)
    assert len(vrows) - 1 == 12


def test_inscc_curve_requires_merge_on_bowtie(graph_files, capsys):
    code, _, err = run_cli(["inscc-curve", "--graph", graph_files["bowtie"],
                            "--grid", "0:0.9:0.1"], capsys)
    assert code == 1
    assert "force_dn_merge" in err or "force-dn-merge" in err


def test_structure_errors_name_the_flag_that_lifts_them(graph_files, tmp_path, capsys):
    loose = tmp_path / "loose.edges"
    loose.write_text("0 1\n1 0\n1 2\n3 4\n")   # 3 -> 4 lies outside the bow-tie
    for graph, flag in ((graph_files["bowtie"], "--force-dn-merge"), (loose, "--fold-other")):
        code, _, err = run_cli(["inscc-curve", "--graph", str(graph)], capsys)
        assert code == 1 and f"({flag})" in err


def test_inscc_curve_threeblock(graph_files, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(["inscc-curve", "--graph", graph_files["threeblock"],
                          "--grid", "0:0.9:0.1", "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0] == ["c", "mass", "main_term", "correction", "d1_estimate", "d2_estimate"]
    assert len(rows) - 1 == 10
    first = rows[1]
    assert float(first[1]) == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert first[4] == ""  # no estimate at the boundary


def test_inscc_derivatives_report(graph_files, tmp_path, capsys):
    out = tmp_path / "deriv.csv"
    code, _, _ = run_cli(["inscc-derivatives", "--graph", graph_files["threeblock"],
                          "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    table = {r[0]: float(r[1]) for r in rows[1:]}
    assert table["alpha"] == pytest.approx(4 / 9)
    assert table["mass_slope_at_zero"] < 0.0
    assert table["leakage"] > 0.0


def test_inscc_derivatives_without_out_exits_one(tmp_path, capsys):
    path, out = tmp_path / "no_out.edges", tmp_path / "deriv.csv"
    path.write_text("n 6\n0 1\n1 2\n1 5\n2 0\n2 3\n3 0\n3 4\n")
    code, stdout, err = run_cli(["inscc-derivatives", "--graph", str(path),
                                 "--out", str(out)], capsys)
    assert code == 1
    assert err == "rankmass: error: IN+SCC never leaks; the slope at c = 1 diverges\n"
    assert stdout == "" and not out.exists()


def test_library_warnings_are_one_line_each(graph_files, tmp_path, capsys):
    warning = ("rankmass: warning: OUT links into dangling node(s) [5]; block split kept, "
               "closed-form results are approximate\n")
    curve = ["inscc-curve", "--graph", graph_files["bowtie"], "--force-dn-merge",
             "--out", str(tmp_path / "curve.csv")]
    code, _, err = run_cli(curve, capsys)
    assert (code, err) == (0, warning)
    code, _, err = run_cli(["inscc-derivatives", "--graph", graph_files["bowtie"],
                            "--force-dn-merge"], capsys)
    assert (code, err) == (1, warning + "rankmass: error: internal IN+SCC walk is reducible\n")
    # outside pytest's warning capture too
    proc = subprocess.run([sys.executable, "-m", "rankmass.cli", *curve],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stderr) == (0, warning)


def test_escc_bounds_csv(graph_files, tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code, _, _ = run_cli(["escc-bounds", "--graph", graph_files["threeblock"],
                          "--grid", "0.1:0.9:0.1", "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0] == ["c", "mass", "lower_bound", "upper_bound", "cond_i", "cond_ii"]
    for r in rows[1:]:
        lower, mass, upper = float(r[2]), float(r[1]), float(r[3])
        assert lower <= upper


def test_cstar_report(graph_files, tmp_path, capsys):
    out = tmp_path / "cstar.csv"
    code, stdout, _ = run_cli(["cstar", "--mode", "uniform",
                               "--graph", graph_files["threeblock"],
                               "--out", str(out)], capsys)
    assert code == 0
    report = dict(line.split(": ") for line in stdout.strip().splitlines())
    c1, c2, c_star = float(report["c1"]), float(report["c2"]), float(report["c_star"])
    assert c1 < c_star < c2
    assert report["no_crossing"] == "false"
    _, rows = read_csv(out)
    assert rows[0] == ["c", "mass", "target"]


def test_link_experiment_table(graph_files, tmp_path, capsys):
    clicks = tmp_path / "clicks.csv"
    clicks.write_text("node_id,clicks\n8,3\n1,100\n0,50\n")
    out = tmp_path / "link.csv"
    code, _, _ = run_cli(["link-experiment", "--graph", graph_files["bowtie"],
                          "--source", "8", "--target", "1",
                          "--damping-list", "0.5,0.85,0.95",
                          "--clicks", str(clicks), "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0] == ["c", "rank_without_link", "rank_with_link", "rank_by_clicks",
                       "block_mass_without", "block_mass_with"]
    assert len(rows) - 1 == 3
    for r in rows[1:]:
        assert float(r[5]) < float(r[4])
        assert r[3] == rows[1][3]  # click rank does not depend on damping


def test_link_experiment_without_clicks_omits_column(graph_files, tmp_path, capsys):
    out = tmp_path / "link2.csv"
    code, _, _ = run_cli(["link-experiment", "--graph", graph_files["bowtie"],
                          "--source", "8", "--target", "1",
                          "--damping-list", "0.85", "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert "rank_by_clicks" not in rows[0]


def test_link_experiment_rejects_node_ids_outside_graph(graph_files, tmp_path, capsys):
    base = ["link-experiment", "--graph", graph_files["bowtie"], "--target", "1",
            "--damping-list", "0.85"]
    clicks = tmp_path / "clicks.csv"
    for node in (-1, 12):
        clicks.write_text(f"node_id,clicks\n8,3\n{node},100\n")
        code, out, err = run_cli(base + ["--source", "8", "--clicks", str(clicks)], capsys)
        assert code == 1
        assert f"clicks name node {node}, outside [0, 12)" in err
        assert out == ""
    code, _, err = run_cli(base + ["--source", "999"], capsys)
    assert code == 1
    assert "node 999 outside [0, 12)" in err


def test_bad_clicks_file_fails_before_the_experiment(graph_files, tmp_path, capsys,
                                                      monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("the experiment ran before the clicks file was checked")

    monkeypatch.setattr("rankmass.cli.run_link_experiment", not_reached)
    clicks = tmp_path / "clicks.csv"
    for text, message in (("node_id,clicks\n3\n", f"{clicks}: line 2: expected node_id,clicks"),
                          ("node_id,clicks\n8,3\nx,1\n", f"{clicks}: line 3: expected"),
                          ("node_id,clicks\n12,1\n", "clicks name node 12, outside [0, 12)"),
                          ("node_id,clicks\n8,nan\n", f"{clicks}: line 2: click count must be"),
                          ("node_id,clicks\n3,1\n8,-2\n", f"{clicks}: line 3: click count")):
        clicks.write_text(text)
        code, out, err = run_cli(["link-experiment", "--graph", graph_files["bowtie"],
                                  "--source", "8", "--target", "1",
                                  "--clicks", str(clicks)], capsys)
        assert code == 1
        assert message in err
        assert out == ""


def _child_env():
    """The environment of a child that imports the package from where this process found it."""
    path = [str(Path(rm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_console_entry_point(graph_files):
    proc = subprocess.run([sys.executable, "-m", "rankmass.cli", "decompose",
                           "--graph", graph_files["bowtie"]],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "node_id,bowtie_label" in proc.stdout


# --------------------------------------------------------------------------
# how an output overwrites an existing file
# --------------------------------------------------------------------------

OLD = b"old output\n"


def _limit_outputs(graph_files, tmp_path, capsys, out, vec):
    """Runs ``limit`` writing ``out`` and ``vec``; returns the bytes a run into
    new paths writes, so an overwritten file can be checked against them."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for paths in ((fresh / "out.csv", fresh / "vec.csv"), (out, vec)):
        argv = ["limit", "--graph", graph_files["bowtie"],
                "--out", str(paths[0]), "--vector-out", str(paths[1])]
        assert _outcome(main, argv, capsys) == ("", "", 0)
    return (fresh / "out.csv").read_bytes(), (fresh / "vec.csv").read_bytes()


# an old file shorter than the new output, and one longer, whose tail is cut
@pytest.mark.parametrize("old", [OLD, OLD * 100_000], ids=["shorter", "longer"])
def test_an_output_is_overwritten_in_its_own_file(old, graph_files, tmp_path, capsys):
    # a hard link made to the old file reads the new bytes: the inode is kept
    out, vec = tmp_path / "out.csv", tmp_path / "vec.csv"
    for path in (out, vec):
        path.write_bytes(old)
        os.link(path, f"{path}.link")
    inodes = [os.stat(path).st_ino for path in (out, vec)]
    new = _limit_outputs(graph_files, tmp_path, capsys, out, vec)
    assert (out.read_bytes(), vec.read_bytes()) == new
    assert tuple(Path(f"{path}.link").read_bytes() for path in (out, vec)) == new
    assert [os.stat(path).st_ino for path in (out, vec)] == inodes


def test_an_output_is_never_opened_with_o_trunc(graph_files, tmp_path, monkeypatch, capsys):
    out, vec = tmp_path / "out.csv", tmp_path / "vec.csv"
    for path in (out, vec):
        path.write_bytes(OLD)
    opened, os_open = {}, os.open

    def recording(path, flags, *args, **kwargs):
        opened[os.fspath(path)] = flags
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    _limit_outputs(graph_files, tmp_path, capsys, out, vec)
    assert all(str(path) in opened and not opened[str(path)] & os.O_TRUNC
               for path in (out, vec))


def test_a_symlinked_output_keeps_its_link(graph_files, tmp_path, capsys):
    targets = tmp_path / "out-target.csv", tmp_path / "vec-target.csv"
    links = tmp_path / "out.csv", tmp_path / "vec.csv"
    for target, link in zip(targets, links):
        target.write_bytes(OLD)
        link.symlink_to(target.name)
    new = _limit_outputs(graph_files, tmp_path, capsys, *links)
    assert tuple(target.read_bytes() for target in targets) == new
    assert all(link.is_symlink() and link.resolve() == target
               for target, link in zip(targets, links))


def test_an_output_keeps_its_permission_bits(graph_files, tmp_path, capsys):
    out, vec = tmp_path / "out.csv", tmp_path / "vec.csv"
    for path in (out, vec):
        path.write_bytes(OLD)
        path.chmod(0o600)
    _limit_outputs(graph_files, tmp_path, capsys, out, vec)
    assert [os.stat(path).st_mode & 0o7777 for path in (out, vec)] == [0o600, 0o600]


def test_device_outputs_are_written(graph_files, capsys):
    argv = ["limit", "--graph", graph_files["bowtie"], "--out", os.devnull,
            "--vector-out", os.devnull]
    assert _outcome(main, argv, capsys) == ("", "", 0)
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_dev_stdout_into_a_file_is_written_in_place(graph_files, tmp_path):
    # /dev/stdout opens the regular file the shell redirected stdout to; the
    # old bytes there, longer than the output, are cut
    out = tmp_path / "stdout.csv"
    out.write_bytes(OLD * 100_000)
    with open(out, "r+b") as fh:
        inode = os.fstat(fh.fileno()).st_ino
        proc = subprocess.run([sys.executable, "-m", "rankmass.cli", "pagerank",
                               "--graph", graph_files["bowtie"], "--out", "/dev/stdout"],
                              stdout=fh, stderr=subprocess.PIPE, env=_child_env())
    assert proc.returncode == 0 and proc.stderr == b""
    assert os.stat(out).st_ino == inode
    assert out.read_text().splitlines()[3] == "node_id,score"
    assert out.read_bytes().count(OLD) == 0


def _refused(argv, flag, other, monkeypatch, capsys):
    """``argv`` exits 1 with one error line naming ``flag`` and ``other``,
    and without reading the graph."""
    def not_reached(*args, **kwargs):
        raise AssertionError("the analysis ran before the paths were checked")

    monkeypatch.setattr("rankmass.cli.load_path", not_reached)
    out, err, code = _outcome(main, argv, capsys)
    assert (out, code) == ("", 1)
    assert err.startswith(f"rankmass: error: {flag} ") and err.count("\n") == 1
    assert f" names the same file as {other};" in err


def test_an_output_naming_the_graph_is_refused(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text(rm.dumps(bowtie_sample()))
    before = graph.read_bytes()
    os.link(graph, tmp_path / "hard.edges")
    (tmp_path / "sym.edges").symlink_to("g.edges")
    (tmp_path / "sub").mkdir()
    for name in ("g.edges", "hard.edges", "sym.edges", "sub/../g.edges"):
        _refused(["decompose", "--graph", str(graph), "--out", str(tmp_path / name)],
                 "--out", "--graph", monkeypatch, capsys)
    assert graph.read_bytes() == before


def test_an_output_naming_the_clicks_file_is_refused(graph_files, tmp_path, monkeypatch,
                                                     capsys):
    clicks = tmp_path / "clicks.csv"
    clicks.write_text("node_id,clicks\n8,3\n")
    _refused(["link-experiment", "--graph", graph_files["bowtie"], "--source", "8",
              "--target", "1", "--clicks", str(clicks), "--out", str(clicks)],
             "--out", "--clicks", monkeypatch, capsys)
    assert clicks.read_text() == "node_id,clicks\n8,3\n"


def test_limit_outputs_naming_one_file_are_refused(graph_files, tmp_path, monkeypatch,
                                                   capsys):
    # refused whether or not the file exists yet
    out = tmp_path / "x.csv"
    for _ in range(2):
        _refused(["limit", "--graph", graph_files["bowtie"], "--out", str(out),
                  "--vector-out", str(tmp_path / "." / "x.csv")],
                 "--out", "--vector-out", monkeypatch, capsys)
        assert not out.exists() or out.read_bytes() == OLD
        out.write_bytes(OLD)
