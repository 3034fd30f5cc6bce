"""Property-based tests for the multivariate hypergeometric and the matrix samplers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import commmatrix as cm
from repro.core import matrix_distribution as md
from repro.core import multivariate as mv
from repro.core.engine import _split_plan, get_engine
from repro.rng.counting import CountingRNG

class_sizes_strategy = st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=8).filter(
    lambda sizes: sum(sizes) > 0
)


@st.composite
def mvh_instance(draw):
    sizes = draw(class_sizes_strategy)
    n_draws = draw(st.integers(min_value=0, max_value=sum(sizes)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n_draws, sizes, seed


@st.composite
def marginal_pair(draw):
    """Row and column marginals with equal totals."""
    rows = draw(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
    total = sum(rows)
    n_cols = draw(st.integers(min_value=1, max_value=6))
    # Split `total` into n_cols non-negative parts deterministically from drawn cuts.
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=total), min_size=n_cols - 1, max_size=n_cols - 1)))
    cols = []
    previous = 0
    for cut in cuts + [total]:
        cols.append(cut - previous)
        previous = cut
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rows, cols, seed


class TestMultivariateProperties:
    @given(instance=mvh_instance(), strategy=st.sampled_from(["sequential", "recursive", "batched"]))
    @settings(max_examples=120, deadline=None)
    def test_counts_sum_and_respect_capacities(self, instance, strategy):
        n_draws, sizes, seed = instance
        counts = mv.sample(n_draws, sizes, np.random.default_rng(seed), strategy=strategy)
        assert int(counts.sum()) == n_draws
        assert np.all(counts >= 0)
        assert np.all(counts <= np.asarray(sizes))

    @given(instance=mvh_instance())
    @settings(max_examples=60, deadline=None)
    def test_pmf_of_sample_is_positive(self, instance):
        n_draws, sizes, seed = instance
        counts = mv.sample_sequential(n_draws, sizes, np.random.default_rng(seed))
        assert mv.pmf(counts, n_draws, sizes) > 0.0

    @given(instance=mvh_instance())
    @settings(max_examples=60, deadline=None)
    def test_mean_vector_sums_to_draws(self, instance):
        n_draws, sizes, _ = instance
        assert mv.mean(n_draws, sizes).sum() == pytest.approx(n_draws)


class TestMatrixProperties:
    @given(pair=marginal_pair(), strategy=st.sampled_from(["sequential", "recursive", "batched"]))
    @settings(max_examples=100, deadline=None)
    def test_marginals_hold(self, pair, strategy):
        rows, cols, seed = pair
        matrix = cm.sample_matrix(rows, cols, np.random.default_rng(seed), strategy=strategy)
        assert cm.is_valid_communication_matrix(matrix, rows, cols)

    @given(pair=marginal_pair())
    @settings(max_examples=60, deadline=None)
    def test_sample_has_positive_probability(self, pair):
        rows, cols, seed = pair
        matrix = cm.sample_matrix(rows, cols, np.random.default_rng(seed))
        assert md.log_pmf(matrix, rows, cols) > float("-inf")

    @given(pair=marginal_pair())
    @settings(max_examples=50, deadline=None)
    def test_merge_to_single_block_gives_total(self, pair):
        rows, cols, seed = pair
        matrix = cm.sample_matrix(rows, cols, np.random.default_rng(seed))
        merged = md.merge_blocks(matrix, [list(range(len(rows)))], [list(range(len(cols)))])
        assert merged[0, 0] == sum(rows)

    @given(pair=marginal_pair())
    @settings(max_examples=40, deadline=None)
    def test_expected_matrix_has_matching_marginals(self, pair):
        rows, cols, _ = pair
        expected = md.expected_matrix(rows, cols)
        assert np.allclose(expected.sum(axis=1), rows)
        assert np.allclose(expected.sum(axis=0), cols)


def _four_mask_block(rng, ngood, nbad, nsample):
    """The batched sampler's trivial-case masks before the single min rule."""
    full = nsample >= ngood + nbad
    out = np.where(full, ngood, 0).astype(np.int64)
    forced_zero = (ngood == 0) | (nsample == 0)
    forced_all = (nbad == 0) & ~forced_zero & ~full
    out[forced_all] = nsample[forced_all]
    random_mask = ~(full | forced_zero | forced_all)
    if np.any(random_mask):
        out[random_mask] = rng.hypergeometric(
            ngood[random_mask], nbad[random_mask], nsample[random_mask]
        )
    return out


def _four_mask_batch(draws, sizes, rng):
    """Reference level loop of ``multivariate_batch`` on the four masks."""
    n_batch, n_classes = sizes.shape
    prefix = np.zeros((n_batch, n_classes + 1), dtype=np.int64)
    np.cumsum(sizes, axis=1, out=prefix[:, 1:])
    counts = np.zeros((n_batch, n_classes), dtype=np.int64)
    counts[:, 0] = draws
    for los, mids, his in _split_plan(n_classes):
        split_draws = counts[:, los]
        into_left = _four_mask_block(
            rng, prefix[:, mids] - prefix[:, los], prefix[:, his] - prefix[:, mids], split_draws
        )
        counts[:, los] = into_left
        counts[:, mids] = split_draws - into_left
    return counts


@st.composite
def trivial_heavy_grid(draw):
    """A (batch, classes) urn grid rich in empty classes, with full and empty draws."""
    n_batch = draw(st.integers(min_value=1, max_value=6))
    n_classes = draw(st.integers(min_value=1, max_value=9))
    cell = st.sampled_from([0, 0, 0, 1, 2, 3, 7, 40, 1000])
    sizes = np.array(
        [[draw(cell) for _ in range(n_classes)] for _ in range(n_batch)], dtype=np.int64
    )
    draws = np.array(
        [draw(st.sampled_from([0, total, total // 2, draw(st.integers(0, total))]))
         for total in sizes.sum(axis=1).tolist()],
        dtype=np.int64,
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return draws, sizes, seed


class TestTrivialRule:
    @given(grid=trivial_heavy_grid())
    @settings(max_examples=200, deadline=None)
    def test_min_rule_matches_the_four_masks(self, grid):
        draws, sizes, seed = grid
        new_rng = CountingRNG(np.random.default_rng(seed))
        old_rng = CountingRNG(np.random.default_rng(seed))
        new = get_engine(kernels="numpy").multivariate_batch(draws, sizes, new_rng)
        old = _four_mask_batch(draws, sizes, old_rng)
        assert np.array_equal(new, old)
        assert (new_rng.uniforms_drawn, new_rng.calls) == (old_rng.uniforms_drawn, old_rng.calls)
