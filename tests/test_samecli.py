"""``tools/samecli.py``, the parent-against-change CLI diff: a run whose
output differs by one CSV cell is reported, and only that run."""

import sys
from dataclasses import replace
from pathlib import Path

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
