import functools
from pathlib import Path

import numpy as np
import pytest

import rankmass as rm
from rankmass.sample_graphs import bowtie_sample, heavy_dangling_sample, three_block_sample

import helpers


@pytest.fixture(scope="session")
def bowtie():
    return bowtie_sample()


@pytest.fixture(scope="session")
def bowtie_labels(bowtie):
    return rm.bowtie_labeling(bowtie)


@pytest.fixture(scope="session")
def bowtie_blocks(bowtie, bowtie_labels):
    return rm.block_decomposition(bowtie, bowtie_labels)


@pytest.fixture(scope="session")
def threeblock():
    return three_block_sample()


@pytest.fixture(scope="session")
def threeblock_labels(threeblock):
    return rm.bowtie_labeling(threeblock)


@pytest.fixture(scope="session")
def threeblock_blocks(threeblock, threeblock_labels):
    return rm.block_decomposition(threeblock, threeblock_labels)


@pytest.fixture(scope="session")
def threeblock_view(threeblock, threeblock_labels):
    return rm.three_block_view(threeblock, threeblock_labels)


@pytest.fixture(scope="session")
def heavy():
    return heavy_dangling_sample()


@pytest.fixture(scope="session")
def heavy_view(heavy):
    return rm.three_block_view(heavy, rm.bowtie_labeling(heavy))


@pytest.fixture(scope="session")
def random_graphs():
    """The fixed 20-graph assumption-satisfying suite shared by all tests."""
    return helpers.random_suite()


@pytest.fixture(scope="session")
def near_one():
    """A 200-node random core whose only exits are three links into one
    dead-end 2-cycle, so the core is T and lambda1 is about 0.9986."""
    rng = np.random.default_rng(8)
    core = 200
    edges = {(i, (i + 1) % core) for i in range(core)}
    edges |= {(int(u), int(v)) for u, v in rng.integers(0, core, size=(3 * core, 2)) if u != v}
    edges |= {(i, core) for i in range(3)} | {(core, core + 1), (core + 1, core)}
    g = rm.build_graph(core + 2, sorted(edges))
    labels = rm.bowtie_labeling(g)
    blocks = rm.block_decomposition(g, labels)
    assert rm.spectral_summary(g, labels, blocks).lambda1 >= 0.995
    return g, labels, blocks


@pytest.fixture(scope="session")
def seed1_graph():
    """The benchmark's seed-1 graph of a workload, by name, each built once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import bowtiegen
        from workloads import WORKLOADS

    @functools.cache
    def build(name: str) -> rm.GraphHandle:
        gen = bowtiegen.generate(WORKLOADS[name].profile, 1)
        return rm.build_graph(gen.n, gen.edges.tolist())
    return build
