"""Unit tests for the SamplerEngine (method dispatch + batched kernels)."""

import hashlib

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core import commmatrix as cm
from repro.core import hypergeometric as hg
from repro.core import multivariate as mv
from repro.core.engine import (
    _STAGE_PLAN_MAX_CELLS,
    VALID_METHODS,
    SamplerEngine,
    _cached_stage_plan,
    _split_plan,
    _stage_plan,
    get_engine,
)
from repro.rng.counting import CountingRNG
from repro.util.errors import ValidationError


class TestEngineConstruction:
    def test_valid_methods(self):
        for method in VALID_METHODS:
            assert SamplerEngine(method).method == method

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown method"):
            SamplerEngine("bogus")

    def test_get_engine_caches_per_method(self):
        assert get_engine("auto") is get_engine("auto")
        assert get_engine("hin") is not get_engine("hrua")

    def test_get_engine_passes_instances_through(self):
        engine = SamplerEngine("hrua")
        assert get_engine(engine) is engine

    def test_get_engine_rejects_unknown(self):
        with pytest.raises(ValidationError):
            get_engine("bogus")


class TestMethodDispatch:
    def test_auto_resolution_threshold(self):
        engine = SamplerEngine("auto")
        assert engine.resolve_method(5) == "hin"
        assert engine.resolve_method(50) == "hrua"

    def test_fixed_methods_resolve_to_themselves(self):
        assert SamplerEngine("hin").resolve_method(10**6) == "hin"
        assert SamplerEngine("numpy").resolve_method(3) == "numpy"

    def test_sample_delegates_to_engine(self):
        # hypergeometric.sample and engine.draw use the same stream the same way.
        a = hg.sample(30, 40, 50, np.random.default_rng(7), method="hrua")
        b = get_engine("hrua").draw(30, 40, 50, np.random.default_rng(7))
        assert a == b

    def test_unknown_method_through_sample(self):
        with pytest.raises(ValidationError, match="unknown method"):
            hg.sample(5, 5, 5, np.random.default_rng(0), method="bogus")

    def test_draw_many_shape(self):
        out = get_engine().draw_many(5, 10, 10, 7, np.random.default_rng(0))
        assert out.shape == (7,)
        assert out.dtype == np.int64


class TestMultivariateBatch:
    def test_single_batch_matches_constraints(self):
        engine = get_engine()
        sizes = np.array([[3, 0, 7, 2, 5]])
        counts = engine.multivariate_batch([9], sizes, np.random.default_rng(0))
        assert counts.shape == (1, 5)
        assert counts.sum() == 9
        assert np.all(counts >= 0)
        assert np.all(counts <= sizes)

    def test_batch_rows_independent_constraints(self):
        engine = get_engine()
        rng = np.random.default_rng(42)
        sizes = rng.integers(0, 20, size=(50, 7))
        draws = np.array([int(rng.integers(0, s.sum() + 1)) for s in sizes])
        counts = engine.multivariate_batch(draws, sizes, rng)
        assert np.array_equal(counts.sum(axis=1), draws)
        assert np.all(counts >= 0)
        assert np.all(counts <= sizes)

    def test_single_class_gets_all_draws(self):
        counts = get_engine().multivariate_batch([4], [[9]], np.random.default_rng(0))
        assert counts.tolist() == [[4]]

    def test_overdraw_rejected(self):
        with pytest.raises(ValidationError):
            get_engine().multivariate_batch([100], [[3, 4]], np.random.default_rng(0))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            get_engine().multivariate_batch([-1], [[3, 4]], np.random.default_rng(0))
        with pytest.raises(ValidationError):
            get_engine().multivariate_batch([1], [[-3, 4]], np.random.default_rng(0))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValidationError):
            get_engine().multivariate_batch([1], [3, 4], np.random.default_rng(0))

    def test_counting_rng_accepted(self):
        rng = CountingRNG(np.random.default_rng(0))
        counts = get_engine().multivariate_batch([5, 3], [[4, 4], [2, 6]], rng)
        assert counts.sum(axis=1).tolist() == [5, 3]

    def test_marginal_law_matches_univariate_hypergeometric(self):
        # The count of class 0 in MVH(m, (m0, rest)) is h(m, m0, rest).
        engine = get_engine()
        rng = np.random.default_rng(2024)
        sizes = np.tile([4, 16], (4000, 1))
        counts = engine.multivariate_batch(np.full(4000, 5), sizes, rng)[:, 0]
        dist = scipy_stats.hypergeom(20, 4, 5)
        ks = np.arange(0, 5)
        observed = np.array([(counts == k).sum() for k in ks])
        expected = dist.pmf(ks) * 4000
        mask = expected > 5
        chi2 = float(((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum())
        assert scipy_stats.chi2.sf(chi2, int(mask.sum()) - 1) > 1e-4


class TestBatchedMatrix:
    def test_marginals_hold_power_of_two(self):
        rows = cols = np.full(8, 10, dtype=np.int64)
        matrix = get_engine().sample_matrix_batched(rows, cols, np.random.default_rng(0))
        assert cm.is_valid_communication_matrix(matrix, rows, cols)

    @pytest.mark.parametrize("p,pp", [(1, 1), (3, 5), (7, 2), (13, 13)])
    def test_marginals_hold_awkward_sizes(self, p, pp):
        rng = np.random.default_rng(p * 31 + pp)
        rows = rng.integers(0, 30, p)
        total = int(rows.sum())
        cols = np.full(pp, total // pp, dtype=np.int64)
        cols[: total % pp] += 1
        matrix = get_engine().sample_matrix_batched(rows, cols, rng)
        assert cm.is_valid_communication_matrix(matrix, rows, cols)

    def test_mean_matrix_matches_theory(self):
        # E[a_ij] = m_i * m'_j / n under the law of Problem 2.
        rows = np.array([4, 2, 6])
        cols = np.array([5, 3, 4])
        rng = np.random.default_rng(99)
        reps = 3000
        acc = np.zeros((3, 3))
        for _ in range(reps):
            acc += get_engine().sample_matrix_batched(rows, cols, rng)
        expected = np.outer(rows, cols) / rows.sum()
        assert np.abs(acc / reps - expected).max() < 0.12

    def test_strategy_reachable_through_sample_matrix(self):
        matrix = cm.sample_matrix([5, 5], [4, 6], np.random.default_rng(0), strategy="batched")
        assert cm.is_valid_communication_matrix(matrix, [5, 5], [4, 6])

    def test_strategy_reachable_through_multivariate_sample(self):
        counts = mv.sample(6, [3, 4, 5], np.random.default_rng(0), strategy="batched")
        assert counts.sum() == 6

    def test_mismatched_totals_rejected(self):
        with pytest.raises(ValidationError):
            get_engine().sample_matrix_batched([4, 4], [3, 3], np.random.default_rng(0))

    def test_seed_reproducible(self):
        rows = cols = np.full(16, 25, dtype=np.int64)
        a = get_engine().sample_matrix_batched(rows, cols, np.random.default_rng(5))
        b = get_engine().sample_matrix_batched(rows, cols, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", ["hin", "hrua"])
    def test_scalar_methods_rejected_by_batched_kernels(self, method):
        # The batched kernels always use numpy's vectorized sampler; a
        # request for a specific scalar sampler must not be silently ignored.
        with pytest.raises(ValidationError, match="batched"):
            cm.sample_matrix([5, 5], [4, 6], np.random.default_rng(0),
                             method=method, strategy="batched")
        with pytest.raises(ValidationError, match="batched"):
            get_engine(method).multivariate_batch([3], [[2, 4]], np.random.default_rng(0))

    def test_split_plan_matches_the_balanced_tree(self):
        for n in range(1, 301):
            plan = _split_plan(n)
            # Segment start -> end; the plan's slot semantics keep a segment
            # at its start and put a split's right part at its mid.
            ends = {0: n}
            for los, mids, his in plan:
                splitting = sorted(lo for lo, hi in ends.items() if hi - lo > 1)
                assert los.tolist() == splitting
                assert his.tolist() == [ends[lo] for lo in splitting]
                assert np.array_equal(mids, (los + his) // 2)
                for lo, mid, hi in zip(los.tolist(), mids.tolist(), his.tolist()):
                    ends[lo], ends[mid] = mid, hi
            assert sorted(ends.items()) == [(i, i + 1) for i in range(n)]
            assert len(plan) == (n - 1).bit_length()
            assert _split_plan(n) is plan

    def test_stage_plan_lays_out_the_split_plan_per_batch_row(self):
        for n_batch, n_classes in [(0, 4), (1, 1), (1, 2), (3, 5), (4, 256), (2, 7)]:
            los, mids, his, stages = _stage_plan(n_batch, n_classes)
            levels = _split_plan(n_classes)
            assert len(stages) == len(levels)
            # The stage blocks tile the index arrays in level order.
            assert [0] + [stop for _, stop in stages] == [start for start, _ in stages] + [los.size]
            rows = np.arange(n_batch)[:, None] * (n_classes + 1)
            for (start, stop), level in zip(stages, levels):
                for got, want in zip((los, mids, his), level):
                    assert np.array_equal(got[start:stop], (rows + want).ravel())

    def test_stage_plan_cache_is_bounded_and_read_only(self):
        _cached_stage_plan.cache_clear()
        plan = _stage_plan(4, 256)
        assert _stage_plan(4, 256) is plan
        for index in plan[:3]:
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 1
        maxsize = _cached_stage_plan.cache_info().maxsize
        assert maxsize is not None
        for n_classes in range(2, maxsize + 20):
            _stage_plan(2, n_classes)
        assert _cached_stage_plan.cache_info().currsize == maxsize
        # A shape above the cell limit is built per call and never cached.
        n_batch = _STAGE_PLAN_MAX_CELLS // 8 + 1
        misses = _cached_stage_plan.cache_info().misses
        assert _stage_plan(n_batch, 7) is not _stage_plan(n_batch, 7)
        assert _cached_stage_plan.cache_info().misses == misses

    def test_counting_rng_charges_vectorized_draws(self):
        rng = CountingRNG(np.random.default_rng(0))
        rows = cols = np.full(8, 20, dtype=np.int64)
        get_engine().sample_matrix_batched(rows, cols, rng)
        # Every nontrivial split consumes one variate; an 8x8 matrix needs
        # far more than the handful of vectorized calls that produce them.
        assert rng.uniforms_drawn > 8


# ---------------------------------------------------------------------------
# Golden values: the NumPy-tier batched stream, pinned across commits
# ---------------------------------------------------------------------------
def _spread(total, width):
    """``total`` split as evenly as possible over ``width`` classes."""
    out = np.full(width, total // width, dtype=np.int64)
    out[: total % width] += 1
    return out


def _skewed(width, k):
    """Deterministic uneven marginal (no RNG involved, so it never drifts)."""
    return np.array([((i * 7919 + k) % 97) * (1 + i % 5) for i in range(width)], dtype=np.int64)


def _square(width, k):
    rows = _skewed(width, k)
    return rows, _spread(int(rows.sum()), width)


def _large(width, k):
    """Deterministic sums from 10**3 to about 10**6; every 61st entry is 0."""
    return np.array(
        [0 if (i + k) % 61 == 0 else 1000 + ((i * 7919 + k) % 1000) ** 2 for i in range(width)],
        dtype=np.int64,
    )


def _rescaled(weights, total):
    """Integers proportional to ``weights`` that sum to ``total``; zeros stay 0."""
    weights = [int(w) for w in weights]
    out = [w * total // sum(weights) for w in weights]
    nonzero = [i for i, w in enumerate(weights) if w]
    for i in nonzero[: total - sum(out)]:
        out[i] += 1
    return np.array(out, dtype=np.int64)


#: name -> (row_sums, col_sums, seed) for ``sample_matrix_batched``.
_MATRIX_CASES = {
    "w1": ([7], [7], 1),
    "w2": ([3, 5], [4, 4], 2),
    **{f"w{w}": (*_square(w, w), w) for w in (3, 5, 7, 64, 256)},
    "rect3x5": (_skewed(3, 4), _spread(int(_skewed(3, 4).sum()), 5), 11),
    "zero-rows": ([0, 6, 0, 0, 9, 0, 2], [5, 4, 8], 12),
    "zero-capacities": ([4, 5, 6, 7, 8], [0, 15, 0, 0, 15, 0], 13),
    "trivial-heavy": ([0, 1, 0, 0, 1, 30, 0, 1], [0, 2, 31, 0, 0], 14),
    "empty": ([], [], 15),
    "large-marginals": (_large(256, 3), _rescaled(_large(256, 17), int(_large(256, 3).sum())), 16),
}


def _batch_case(batch, width, k):
    sizes = np.array([_skewed(width, k + r) for r in range(batch)], dtype=np.int64)
    return sizes.sum(axis=1) * (k % 3 + 1) // 4, sizes


#: name -> (n_draws, class_sizes, seed) for ``multivariate_batch``.
_BATCH_CASES = {
    **{f"w{w}": (*_batch_case(4, w, w), 100 + w) for w in (1, 2, 3, 5, 7, 64, 256)},
    "zero-rows": (np.zeros(0, dtype=np.int64), np.zeros((0, 5), dtype=np.int64), 120),
    "zero-capacities": ([3, 0, 5], [[0, 3, 0, 0], [0, 0, 0, 0], [4, 0, 5, 0]], 121),
    "trivial-heavy": ([0, 12, 1, 6, 2], [[5, 7], [5, 7], [0, 1], [6, 0], [3, 4]], 122),
    "large-marginals": (
        np.array([int(_large(256, r).sum()) // 3 for r in range(64)], dtype=np.int64),
        np.array([_large(256, r) for r in range(64)], dtype=np.int64),
        123,
    ),
}


def _golden_digest(out):
    """Literal nested list for small results, sha256 of the bytes otherwise."""
    out = np.asarray(out)
    if out.size <= 64:
        return out.tolist()
    return hashlib.sha256(out.astype("<i8").tobytes()).hexdigest()


def _golden_run(kind, name):
    engine = get_engine(kernels="numpy")
    if kind == "matrix":
        rows, cols, seed = _MATRIX_CASES[name]
        rng = CountingRNG(np.random.default_rng(seed))
        out = engine.sample_matrix_batched(rows, cols, rng)
    else:
        draws, sizes, seed = _BATCH_CASES[name]
        rng = CountingRNG(np.random.default_rng(seed))
        out = engine.multivariate_batch(draws, sizes, rng)
    return _golden_digest(out), rng.uniforms_drawn, rng.calls


#: (kind, case) -> (digest, CountingRNG uniforms, CountingRNG calls),
#: generated once from the batched sampler before its level loops were
#: rebuilt around the cached split plan.
_GOLDEN = {
    ("matrix", "w1"): ([[7]], 0, 0),
    ("matrix", "w2"): ([[2, 1], [2, 3]], 1, 1),
    ("matrix", "w3"): ([[2, 1, 0], [48, 45, 37], [25, 28, 37]], 4, 4),
    ("matrix", "w5"): (
        [
            [2, 0, 0, 1, 2],
            [31, 27, 23, 27, 26],
            [16, 19, 15, 23, 23],
            [69, 85, 79, 73, 70],
            [64, 50, 64, 57, 60],
        ],
        16, 9,
    ),
    ("matrix", "w7"): (
        [
            [2, 2, 1, 2, 0, 0, 0],
            [18, 21, 22, 16, 21, 21, 19],
            [15, 11, 22, 17, 11, 13, 13],
            [65, 56, 51, 44, 58, 51, 59],
            [36, 43, 34, 55, 49, 42, 46],
            [2, 2, 7, 6, 2, 4, 3],
            [25, 28, 26, 23, 21, 31, 22],
        ],
        35, 9,
    ),
    ("matrix", "w64"): (
        "4d3a5824be729824229f5f4ab9450c80549d2cac7d80d16bb9fc4bd799962ac7",
        3472, 36,
    ),
    ("matrix", "w256"): (
        "298f78167722ed40b03f67e98993499c8aebc1afa73c0815cc74e95d8ec8bb78",
        42095, 64,
    ),
    ("matrix", "rect3x5"): (
        [
            [0, 2, 0, 1, 1],
            [27, 25, 29, 26, 25],
            [19, 19, 17, 19, 19],
        ],
        8, 6,
    ),
    ("matrix", "zero-rows"): (
        [
            [0, 0, 0],
            [2, 3, 1],
            [0, 0, 0],
            [0, 0, 0],
            [2, 0, 7],
            [0, 0, 0],
            [1, 1, 0],
        ],
        4, 4,
    ),
    ("matrix", "zero-capacities"): (
        [
            [0, 3, 0, 0, 1, 0],
            [0, 1, 0, 0, 4, 0],
            [0, 3, 0, 0, 3, 0],
            [0, 2, 0, 0, 5, 0],
            [0, 6, 0, 0, 2, 0],
        ],
        4, 3,
    ),
    ("matrix", "trivial-heavy"): (
        [
            [0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 1, 29, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
        ],
        3, 3,
    ),
    ("matrix", "empty"): ([], 0, 0),
    ("batch", "w1"): ([[0], [1], [1], [2]], 0, 0),
    ("batch", "w2"): ([[0, 97], [3, 96], [3, 99], [4, 100]], 4, 1),
    ("batch", "w3"): ([[0, 31, 24], [3, 33, 21], [1, 36, 21], [3, 35, 22]], 8, 2),
    ("batch", "w5"): (
        [
            [3, 101, 81, 275, 219],
            [5, 108, 73, 286, 218],
            [4, 104, 75, 295, 224],
            [7, 107, 84, 0, 224],
        ],
        15, 3,
    ),
    ("batch", "w7"): (
        [
            [1, 75, 47, 195, 144, 15, 92],
            [3, 75, 54, 0, 156, 10, 86],
            [5, 66, 48, 2, 159, 16, 97],
            [4, 57, 56, 2, 168, 13, 102],
        ],
        23, 3,
    ),
    ("batch", "w64"): (
        "1310eebe5ae85b783fbcbc563ab0fe3aa29ac5b7804e2fb417200e9920b6f70f",
        249, 6,
    ),
    ("batch", "w256"): (
        "cdb321c565cfaa02bbcc136fbf05bdc7a3996b3b89f9fa79263acdda8320f828",
        1010, 8,
    ),
    ("batch", "zero-rows"): ([], 0, 0),
    ("batch", "zero-capacities"): (
        [
            [0, 3, 0, 0],
            [0, 0, 0, 0],
            [2, 0, 3, 0],
        ],
        1, 1,
    ),
    ("batch", "trivial-heavy"): ([[0, 0], [5, 7], [0, 1], [6, 0], [1, 1]], 1, 1),
    # Generated before the column levels ran on the per-shape stage plan.
    ("matrix", "large-marginals"): (
        "17a77027e25d088f61febe22965403bc637389fe637e9e39684443255702971b",
        62616, 64,
    ),
    ("batch", "large-marginals"): (
        "c0362048c3bb172e9436f580fc20751f476a3efa7cbf86a921a32ac5fae77d95",
        16051, 8,
    ),
}


class TestBatchedStreamGolden:
    """Fixed seeds keep yielding the same matrices and the same variate counts."""

    @pytest.mark.parametrize(
        "kind,name", [("matrix", n) for n in _MATRIX_CASES] + [("batch", n) for n in _BATCH_CASES]
    )
    def test_stream_is_pinned(self, kind, name):
        assert _golden_run(kind, name) == _GOLDEN[kind, name]
