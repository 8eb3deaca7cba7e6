import pytest

import rankmass as rm
from rankmass.experiment import click_rank

import helpers


def test_block_mass_drops_after_escape_link(bowtie, bowtie_labels, bowtie_blocks):
    report = rm.run_link_experiment(bowtie, bowtie_labels, bowtie_blocks,
                                    source=8, target=1, damping_values=[0.85])
    row = report.rows[0]
    assert report.block_nodes == (8, 9)
    assert row.block_mass_with < row.block_mass_without
    # both masses agree with dense recomputation
    ref_before = helpers.dense_pagerank(bowtie, 0.85)
    linked = rm.with_edge(bowtie, 8, 1)
    ref_after = helpers.dense_pagerank(linked, 0.85)
    assert row.block_mass_without == pytest.approx(float(ref_before[[8, 9]].sum()), abs=1e-10)
    assert row.block_mass_with == pytest.approx(float(ref_after[[8, 9]].sum()), abs=1e-10)


def test_zero_damping_sees_no_change(bowtie, bowtie_labels, bowtie_blocks):
    report = rm.run_link_experiment(bowtie, bowtie_labels, bowtie_blocks,
                                    source=8, target=1, damping_values=[0.0])
    row = report.rows[0]
    assert row.block_mass_with == pytest.approx(row.block_mass_without, abs=1e-15)
    assert row.rank_with_link == row.rank_without_link


def test_mass_drop_grows_with_damping(bowtie, bowtie_labels, bowtie_blocks):
    report = rm.run_link_experiment(bowtie, bowtie_labels, bowtie_blocks,
                                    source=8, target=1,
                                    damping_values=[0.5, 0.85, 0.95])
    pre = [r.block_mass_without for r in report.rows]
    drops = [r.block_mass_without - r.block_mass_with for r in report.rows]
    assert pre[0] < pre[1] < pre[2]
    assert drops[0] < drops[1] < drops[2]
    assert all(d > 0 for d in drops)


def test_escape_never_raises_block_mass(random_graphs):
    for g in random_graphs[:6]:
        labels = rm.bowtie_labeling(g)
        blocks = rm.block_decomposition(g, labels)
        if not blocks.recurrent_blocks:
            continue
        source = blocks.recurrent_blocks[0][0]
        target = min(labels.scc_nodes)
        report = rm.run_link_experiment(g, labels, blocks, source, target,
                                        damping_values=[0.3, 0.85])
        for row in report.rows:
            assert row.block_mass_with <= row.block_mass_without + 1e-12


def test_source_must_be_recurrent(bowtie, bowtie_labels, bowtie_blocks):
    with pytest.raises(ValueError):
        rm.run_link_experiment(bowtie, bowtie_labels, bowtie_blocks,
                               source=6, target=1, damping_values=[0.5])


def test_target_must_be_in_giant_scc(bowtie, bowtie_labels, bowtie_blocks):
    with pytest.raises(ValueError):
        rm.run_link_experiment(bowtie, bowtie_labels, bowtie_blocks,
                               source=8, target=6, damping_values=[0.5])


def test_rank_positions_are_valid(bowtie, bowtie_labels, bowtie_blocks):
    report = rm.run_link_experiment(bowtie, bowtie_labels, bowtie_blocks,
                                    source=8, target=1, damping_values=[0.85])
    row = report.rows[0]
    assert 1 <= row.rank_without_link <= 12
    assert 1 <= row.rank_with_link <= 12
    assert row.rank_with_link > row.rank_without_link


def test_click_rank_tie_break():
    clicks = {0: 5.0, 1: 5.0, 2: 9.0}
    assert click_rank(clicks, 2, 4) == 1
    assert click_rank(clicks, 0, 4) == 2
    assert click_rank(clicks, 1, 4) == 3
    assert click_rank(clicks, 3, 4) == 4
