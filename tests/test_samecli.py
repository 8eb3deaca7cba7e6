"""``tools/samecli.py``, the parent-against-change CLI diff: a run whose
output differs by one CSV cell is reported, and only that run; a run that
exits non-zero is named; every option run reads a graph its option acts on."""

import sys
from dataclasses import replace
from pathlib import Path

import rankmass as rm

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import samecli  # noqa: E402


def _change_last_cell(data: bytes) -> bytes:
    *head, last = data.splitlines(keepends=True)
    return b"".join(head) + last[:-2] + (b"1" if last[-2:-1] != b"1" else b"2") + b"\n"


def test_a_one_cell_difference_is_reported(tmp_path, monkeypatch, capsys):
    # one command on the 3k-node deadend-near1 graph and the main help page,
    # both trees this checkout's src; the "rev" side's last CSV cell changes
    monkeypatch.setattr(samecli, "WORK", tmp_path)
    monkeypatch.setattr(samecli, "MATRIX", {"limit": samecli.MATRIX["limit"]})
    monkeypatch.setattr(samecli, "COMMANDS", ())
    monkeypatch.setattr(samecli, "extract", lambda rev, into: ROOT / "src")
    run, seen = samecli.run, {}

    def changed(src, args, cwd):
        outcome = seen[cwd.parts[-2], cwd.name] = run(src, args, cwd)
        if cwd.parts[-2] == "rev" and "out.csv" in outcome.files:
            files = {**outcome.files, "out.csv": _change_last_cell(outcome.files["out.csv"])}
            return replace(outcome, files=files)
        return outcome

    monkeypatch.setattr(samecli, "run", changed)
    assert samecli.main(["--against", "HEAD"]) == 1
    this = seen["this", "limit"]
    assert this.code == 0 and set(this.files) == {"out.csv", "vector.csv"}
    csv = this.files["out.csv"]
    rows = csv.splitlines()
    assert capsys.readouterr().out.splitlines() == [
        f"limit: out.csv line {len(rows)}: "
        f"{_change_last_cell(csv).splitlines()[-1].decode()!r} against {rows[-1].decode()!r}",
        "2 runs under HEAD and this checkout: 1 differ"]


def _has_out_dn_link(g, labels) -> bool:
    try:
        rm.three_block_view(g, labels, fold_other=True)
    except rm.AssumptionViolationError:
        return True
    return False


def _has_pure_out_transient(g, labels) -> bool:
    blocks = rm.block_decomposition(g, labels)   # a dead-end cycle's nodes are pure OUT too
    return bool((blocks.pure_out_mask & (blocks.block_index < 0)).any())


def test_option_runs_read_graphs_their_option_acts_on():
    # each option run's seed-1 graph, built by samecli itself, has what the option acts on
    acts_on = {
        "--exclude-pureout-transients": _has_pure_out_transient,
        "--force-dn-merge": _has_out_dn_link,
        "--fold-other": lambda g, labels: bool((labels.labels == rm.Label.OTHER).any()),
    }
    checked = set()
    for name, (source, _, extra) in samecli.MATRIX.items():
        for option in acts_on.keys() & set(extra):
            gen = samecli.graph(source, 1)
            g = rm.build_graph(gen.n, gen.edges)
            assert acts_on[option](g, rm.bowtie_labeling(g)), (name, option)
            checked.add(option)
    assert checked == acts_on.keys()


def test_runs_exiting_non_zero_are_named(tmp_path, monkeypatch, capsys):
    # an unknown option exits 2 under both trees: equal, yet named in the summary
    monkeypatch.setattr(samecli, "WORK", tmp_path)
    monkeypatch.setattr(samecli, "MATRIX", {
        "limit-bad-option": ("deadend-near1", "limit", ("--no-such-option",))})
    monkeypatch.setattr(samecli, "COMMANDS", ())
    monkeypatch.setattr(samecli, "extract", lambda rev, into: ROOT / "src")
    assert samecli.main(["--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 runs under HEAD and this checkout: 0 differ; 1 exit non-zero here: limit-bad-option"]
