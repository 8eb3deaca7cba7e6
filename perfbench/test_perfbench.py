"""Tests of the benchmark itself: the generator, the workload shapes, and a
small run of every workload through the same code the benchmark runs."""

import dataclasses
import json
from pathlib import Path

import pytest

import rankmass as rm

import bowtiegen
import run
from workloads import WORKLOADS

CONTRACT = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _structures(name, seed):
    gen = bowtiegen.generate(WORKLOADS[name].profile, seed)
    g = rm.build_graph(gen.n, gen.edges.tolist())
    labels = rm.bowtie_labeling(g)
    return g, labels, rm.block_decomposition(g, labels)


def _tiny(name):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, profile=workload.profile.twin(400))


def test_same_seed_gives_same_edge_file(tmp_path):
    profile = WORKLOADS["bowtie-large"].profile.twin(2000)
    first = bowtiegen.generate(profile, 7).write(tmp_path / "a.edges")
    again = bowtiegen.generate(profile, 7).write(tmp_path / "b.edges")
    other = bowtiegen.generate(profile, 8).write(tmp_path / "c.edges")
    assert first == again != other


def test_inscc_grid_is_three_block_clean():
    g, labels, _ = _structures("inscc-grid", 3)
    assert not labels.in_nodes and not labels.other_nodes
    out = [u for u in range(g.n)
           if labels.labels[u] == rm.Label.OUT and not g.is_dangling(u)]
    assert out
    assert not any(g.dangling_mask[g.out_neighbors(u)].any() for u in out)


def test_deadend_near1_leaks_slowly():
    g, labels, blocks = _structures("deadend-near1", 3)
    assert rm.spectral_summary(g, labels, blocks).lambda1 >= 0.995


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_has_no_failures(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    info, result = run.run_workload(_tiny(name), seed=5, seconds=0, trace=0, work=tmp_path)
    assert result["failed"] == 0 and result["correct"], info["failures"]
    assert info["failed_frac"] == 0.0
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_tiny_traced_run_emits_every_layer_metric(tmp_path):
    info, result = run.run_workload(_tiny("inscc-grid"), seed=5, seconds=0, trace=1,
                                    work=tmp_path)
    assert result["failed"] == 0, info["failures"]
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"cli.inscc-curve", "inscc.inscc_curve", "escc.spectral_summary"} <= {
        s["name"] for s in spans}
    assert all(s["end"] >= s["start"] and s["run"] == spans[0]["run"] for s in spans)
