"""Block products and the two iteration primitives of ``operators``: the
walk behind every series sum and the Perron blend."""

import numpy as np
import pytest
from scipy import sparse

import rankmass as rm
from rankmass.operators import (SubstochasticBlock, block_view, chain_view, perron_irreducible,
                                resolvent_moments, solve_left)

import helpers


def test_mul_left_is_the_row_product_plus_dangling_fold(random_graphs):
    rng = np.random.default_rng(11)
    for g in random_graphs:
        rows = rng.choice(g.n, size=max(1, g.n // 2), replace=False)
        cols = rng.choice(g.n, size=max(1, g.n // 3), replace=False)
        for view in (block_view(g, rows, cols), chain_view(g)):
            y = rng.random(view.shape[0])
            expected = np.asarray(y @ view.matrix).ravel()
            if view.dangling_local.size:
                expected = expected + float(y[view.dangling_local].sum()) / g.n
            assert np.array_equal(view.mul_left(y), expected)


def test_chain_view_is_the_transition_matrix(random_graphs):
    rng = np.random.default_rng(12)
    for g in random_graphs:
        x = rng.random(g.n)
        x /= x.sum()
        assert np.abs(chain_view(g).mul_left(x) - x @ helpers.dense_w(g)).max() <= 1e-15


def test_non_finite_walk_stops_at_first_term():
    nan = np.full(2, np.nan)
    half = lambda y: 0.5 * y
    for run in (lambda: solve_left(half, nan),
                lambda: resolvent_moments(half, nan, np.ones(2), 1.0)):
        with pytest.raises(rm.ConvergenceError) as err:
            run()
        assert err.value.iterations == 1


def test_perron_stops_at_non_finite_weight():
    for weights in ([[0.0, 0.5], [np.nan, 0.0]], [[np.nan]]):
        size = len(weights)
        block = SubstochasticBlock(matrix=sparse.csr_matrix(np.array(weights)),
                                   dangling_local=np.array([], dtype=np.int64), n_total=size,
                                   rows=np.arange(size), cols=np.arange(size))
        with pytest.raises(rm.ConvergenceError) as err:
            perron_irreducible(block)
        assert err.value.iterations == 1
