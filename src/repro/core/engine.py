"""The sampler engine: unified method dispatch and batched sampling kernels.

Before this module existed, ``hypergeometric.py``, ``multivariate.py`` and
``commmatrix.py`` each re-implemented the same method-selection logic
("auto" / "hin" / "hrua" / "numpy") and every hypergeometric variate of a
matrix went through a scalar Python call.  The :class:`SamplerEngine`
consolidates both concerns:

* **Method dispatch.**  One engine instance owns the selection policy for
  the univariate sampler (the HIN-below-threshold / HRUA*-above strategy of
  production libraries) and is shared by every entry point via
  :func:`get_engine`.

* **Batched kernels.**  :meth:`SamplerEngine.multivariate_batch` draws many
  independent multivariate hypergeometric vectors at once and
  :meth:`SamplerEngine.sample_matrix_batched` samples a whole communication
  matrix, both driving NumPy's *vectorized* ``Generator.hypergeometric``
  level by level down the balanced binary splitting tree (the recursive
  formulation at the end of Section 4 of the paper, which factorises the
  distribution into independent draws per tree level -- Proposition 6).
  A ``P x P'`` matrix thus costs ``O(log P * log P')`` NumPy kernel calls
  instead of ``P * P'`` interpreted Python calls, which is the hot path of
  Algorithm 6's step 3 and of the sequential baseline.  The tree's index
  plan depends only on its width, so :func:`_split_plan` builds it once per
  width, and :func:`_stage_plan` lays the column tree of a ``(B, L)`` urn
  array out as flat gather indices once per shape.  A call then computes
  every split's class sizes with three gathers, and each column level is
  one gather of the current draw counts, two compares, one vectorized
  ``hypergeometric`` call and two scatters.

The batched path samples from exactly the same distribution as the scalar
samplers (every split is an exact hypergeometric draw; the factorisation is
the same one Algorithm 4 uses), but consumes the random stream differently,
so for a fixed seed the batched and scalar paths produce different --
equally valid -- matrices.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.rng.streams import default_rng
from repro.util.errors import DistributionError, ValidationError
from repro.util.validation import (
    check_nonnegative_int,
    check_same_total,
    check_vector_of_nonnegative_ints,
)

__all__ = ["SamplerEngine", "get_engine", "VALID_METHODS"]

#: Recognised univariate method names.
VALID_METHODS = ("auto", "hin", "hrua", "numpy")

# Below this (transformed) sample size the inverse method needs fewer
# uniforms than the rejection method on average (mirrors production
# libraries).  This is the single authoritative copy of the threshold.
_HIN_THRESHOLD = 10


def _kernel_rng(rng) -> "np.random.Generator":
    """Coerce ``rng`` into something exposing vectorized ``hypergeometric``."""
    rng = default_rng(rng) if not hasattr(rng, "random") else rng
    if not hasattr(rng, "hypergeometric"):
        raise DistributionError(
            "the provided rng does not expose hypergeometric(); the batched "
            "kernels need a numpy Generator or a CountingRNG wrapper"
        )
    return rng


@functools.lru_cache(maxsize=128)
def _split_plan(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Index plan of the balanced splitting tree over ``n`` leaves, built once per ``n``.

    One ``(los, mids, his)`` triple per tree level lists, in increasing
    order, the segments ``[lo, hi)`` that split at that level into
    ``[lo, mid)`` and ``[mid, hi)`` with ``mid = (lo + hi) // 2``.  A state
    array indexed by segment start needs nothing else: a split leaves its
    left part at ``lo`` and writes its right part at ``mid``, segments that
    do not split keep their slot, and after the last level slot ``i`` holds
    leaf ``i``.  The arrays are shared between calls and read-only.
    """
    levels = []
    los, his = np.array([0]), np.array([n])
    while True:
        split = his - los > 1
        los, his = los[split], his[split]
        if los.size == 0:
            return tuple(levels)
        mids = (los + his) // 2
        for a in (los, mids, his):
            a.setflags(write=False)
        levels.append((los, mids, his))
        los = np.column_stack([los, mids]).ravel()
        his = np.column_stack([mids, his]).ravel()


#: Largest ``n_batch * (n_classes + 1)`` whose stage plan is cached (three
#: int64 index arrays, at most 1.5 MiB); larger shapes build theirs per call.
_STAGE_PLAN_MAX_CELLS = 1 << 16


def _build_stage_plan(n_batch: int, n_classes: int):
    """Flat gather plan of every column split of a ``(n_batch, n_classes)`` urn array.

    Returns ``(los, mids, his, stages)``.  The three index arrays address a
    ``(n_batch, n_classes + 1)`` array through its flat view: entry
    ``b * (n_classes + 1) + lo`` is column ``lo`` of batch row ``b``.  Each
    level of :func:`_split_plan` contributes one contiguous block of
    ``n_batch * S`` entries in batch-major order (row ``b``, then split
    ``j``), and ``stages`` lists the blocks' ``(start, stop)`` bounds.
    """
    levels = _split_plan(n_classes)
    rows = np.arange(n_batch, dtype=np.intp)[:, None] * (n_classes + 1)
    arrays = tuple(
        np.concatenate([(rows + level[i]).ravel() for level in levels])
        if levels else np.empty(0, dtype=np.intp)
        for i in range(3)
    )
    for a in arrays:
        a.setflags(write=False)
    stops = list(itertools.accumulate(n_batch * level[0].size for level in levels))
    stages = tuple(zip([0, *stops[:-1]], stops))
    return (*arrays, stages)


_cached_stage_plan = functools.lru_cache(maxsize=16)(_build_stage_plan)


def _stage_plan(n_batch: int, n_classes: int):
    """:func:`_build_stage_plan`, cached per shape unless the shape is large."""
    if n_batch * (n_classes + 1) <= _STAGE_PLAN_MAX_CELLS:
        return _cached_stage_plan(n_batch, n_classes)
    return _build_stage_plan(n_batch, n_classes)


def _draw_levels(rng, draws: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """NumPy-tier body of :meth:`SamplerEngine.multivariate_batch` on checked input.

    ``sizes`` is a ``(B, L)`` int64 array with ``L >= 1`` and ``draws`` the
    ``B`` draw counts, none above its row's total.  Returns a ``(B, L)``
    view.  Column level by column level, every split with both sides
    non-empty and ``0 < nsample < ngood + nbad`` draws from ``h(nsample,
    ngood, nbad)`` -- all of a level's draws in one vectorized call, in
    batch-major order -- and every other split has the single outcome
    ``min(nsample, ngood)``: no draws, an empty left class, a full draw or
    an empty right class.
    """
    n_batch, n_classes = sizes.shape
    los, mids, his, stages = _stage_plan(n_batch, n_classes)
    # Prefix sums and draw counts share the row stride n_classes + 1, so
    # one set of flat indices addresses both.
    prefix = np.zeros((n_batch, n_classes + 1), dtype=np.int64)
    np.cumsum(sizes, axis=1, out=prefix[:, 1:])
    prefix = prefix.ravel()
    base = prefix[los]
    ngood = prefix[mids]
    ngood -= base
    total = prefix[his]
    total -= base
    del prefix, base  # freed before the level loop allocates its own
    # A split draws iff 0 < nsample < limit: its total, or 0 if a side is empty.
    limit = total
    limit[(ngood == 0) | (ngood == total)] = 0
    # Slot lo holds the draws of the segment starting at class lo.
    counts = np.zeros((n_batch, n_classes + 1), dtype=np.int64)
    counts[:, 0] = draws
    flat = counts.ravel()
    for start, stop in stages:
        lo = los[start:stop]
        nsample = flat[lo]
        good = ngood[start:stop]
        left = np.minimum(nsample, good)
        draw = nsample > 0
        draw &= nsample < limit[start:stop]
        if draw.any():
            good = good[draw]
            left[draw] = rng.hypergeometric(good, limit[start:stop][draw] - good, nsample[draw])
        flat[lo] = left
        nsample -= left
        flat[mids[start:stop]] = nsample
    return counts[:, :n_classes]


class SamplerEngine:
    """Hypergeometric sampling engine with one method policy and batched kernels.

    Parameters
    ----------
    method:
        ``"auto"`` (default: HIN below the threshold, HRUA* above),
        ``"hin"``, ``"hrua"`` or ``"numpy"`` (delegate to
        ``Generator.hypergeometric``; handy as an independent oracle).
    hin_threshold:
        Transformed sample size below which ``"auto"`` picks the inverse
        method.
    kernels:
        Kernel-tier request (``"auto"``/``"numba"``/``"numpy"``, a tier
        object, or ``None`` to defer to ``REPRO_KERNELS``); see
        :mod:`repro.core.kernels`.  The batched kernels and
        :meth:`draw_many` consult the resolved tier first and fall back to
        the NumPy paths whenever it declines -- results are bit-identical
        either way.
    """

    def __init__(
        self,
        method: str = "auto",
        *,
        hin_threshold: int = _HIN_THRESHOLD,
        kernels=None,
    ):
        if method not in VALID_METHODS:
            raise ValidationError(
                f"unknown method {method!r}; use auto, hin, hrua or numpy"
            )
        self.method = method
        self.hin_threshold = int(hin_threshold)
        if kernels is not None:
            from repro.core.kernels import normalize_kernels

            normalize_kernels(kernels)  # eager name validation; resolution stays lazy
        self.kernels = kernels

    def _resolve_tier(self):
        # Resolved lazily per call (not cached on the engine) so shared
        # engines honour REPRO_KERNELS changes and reset_kernels() in tests.
        from repro.core.kernels import resolve_kernels

        return resolve_kernels(self.kernels)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SamplerEngine(method={self.method!r})"

    # -- univariate dispatch -------------------------------------------------
    def resolve_method(self, t: int) -> str:
        """The concrete sampler ``"auto"`` selects for ``t`` draws."""
        if self.method != "auto":
            return self.method
        return "hin" if t <= self.hin_threshold else "hrua"

    def draw_nontrivial(self, t: int, w: int, b: int, rng) -> int:
        """One variate of ``h(t, w, b)`` for non-degenerate parameters.

        This is the dispatch core behind :func:`repro.core.hypergeometric.
        sample` (which handles validation, trivial cases and recording);
        ``rng`` must already be a generator-like object.
        """
        from repro.core import hypergeometric  # deferred: hypergeometric imports us lazily

        concrete = self.resolve_method(t)
        if concrete == "numpy":
            if not hasattr(rng, "hypergeometric"):
                raise DistributionError("the provided rng does not expose hypergeometric()")
            return int(rng.hypergeometric(w, b, t))
        if concrete == "hin":
            return hypergeometric.sample_hin(t, w, b, rng)
        return hypergeometric.sample_hrua(t, w, b, rng)

    def draw(self, t: int, w: int, b: int, rng=None) -> int:
        """One variate of ``h(t, w, b)`` with full validation and recording."""
        from repro.core import hypergeometric

        return hypergeometric.sample(t, w, b, rng, method=self.method)

    def draw_many(self, t: int, w: int, b: int, size: int, rng=None) -> np.ndarray:
        """``size`` i.i.d. variates of ``h(t, w, b)`` as an ``int64`` array.

        For the vector-capable methods (``"auto"``, ``"numpy"``) the draws
        are vectorized unconditionally -- one ``Generator.hypergeometric``
        kernel call regardless of how small ``size`` is (there is no
        scalar-loop fallback), with the same trivial-case handling as
        the batched kernels and a
        :class:`~repro.rng.counting.CountingRNG` charged by the broadcast
        size of the call.  The scalar methods (``"hin"``/``"hrua"``) keep
        the loop over :func:`repro.core.hypergeometric.sample`, which is
        the point of requesting them.
        """
        from repro.core import hypergeometric

        if self.method in ("hin", "hrua"):
            return hypergeometric.sample_many(t, w, b, size, rng, method=self.method)
        size = check_nonnegative_int(size, "size")
        t, w, b = hypergeometric._validate_parameters(t, w, b)
        if size == 0:
            return np.empty(0, dtype=np.int64)
        # Scalar parameters need no parameter arrays or masks: resolve the
        # degenerate cases once and draw the rest with a single size=
        # kernel call (the same trivial-case handling, without O(size)
        # temporaries).
        trivial = hypergeometric._trivial_sample(t, w, b)
        if trivial is not None:
            return np.full(size, trivial, dtype=np.int64)
        rng = _kernel_rng(rng)
        result = self._resolve_tier().repeat_hypergeometric(rng, w, b, t, size)
        if result is not None:
            return result
        return np.asarray(rng.hypergeometric(w, b, t, size), dtype=np.int64)

    # -- batched kernels -------------------------------------------------------
    def _check_batched_method(self) -> None:
        # The batched kernels always draw through NumPy's vectorized
        # hypergeometric sampler; silently honouring a request for a
        # specific scalar sampler would defeat the point of asking for one.
        if self.method in ("hin", "hrua"):
            raise ValidationError(
                f"the batched kernels use NumPy's vectorized hypergeometric sampler; "
                f"method={self.method!r} only applies to the scalar strategies "
                "(use method='auto' or 'numpy' with strategy='batched')"
            )

    def multivariate_batch(self, n_draws, class_sizes, rng=None) -> np.ndarray:
        """Draw a batch of independent multivariate hypergeometric vectors.

        ``class_sizes`` is a ``(B, L)`` array; row ``i`` of the result is one
        sample of ``MVH(n_draws[i], class_sizes[i])``.  All ``B`` samples
        share the balanced binary splitting tree over the ``L`` classes, so
        every tree level costs one vectorized ``Generator.hypergeometric``
        call covering all batch rows and all same-level segments at once:
        ``O(log L)`` kernel calls in total.  The flat gather plan is built
        once per shape and reused (see :func:`_stage_plan`).
        """
        self._check_batched_method()
        sizes = np.asarray(class_sizes, dtype=np.int64)
        if sizes.ndim != 2:
            raise ValidationError(
                f"class_sizes must be a (batch, classes) array, got shape {sizes.shape}"
            )
        if np.any(sizes < 0):
            raise ValidationError("class_sizes must be non-negative")
        n_batch, n_classes = sizes.shape
        draws = np.broadcast_to(np.asarray(n_draws, dtype=np.int64), (n_batch,)).copy()
        if np.any(draws < 0):
            raise ValidationError("n_draws must be non-negative")
        if np.any(draws > sizes.sum(axis=1)):
            raise ValidationError("cannot draw more balls than an urn contains")
        if n_classes == 0:
            if np.any(draws):
                raise ValidationError("cannot draw from an urn with no classes")
            return np.zeros((n_batch, 0), dtype=np.int64)
        rng = _kernel_rng(rng)
        compiled = self._resolve_tier().multivariate_batch(rng, draws, sizes)
        if compiled is not None:
            return compiled
        return np.ascontiguousarray(_draw_levels(rng, draws, sizes))

    def multivariate(self, n_draws: int, class_sizes, rng=None) -> np.ndarray:
        """One multivariate hypergeometric sample via the batched kernel."""
        n_draws = check_nonnegative_int(n_draws, "n_draws")
        class_sizes = check_vector_of_nonnegative_ints(class_sizes, "class_sizes")
        return self.multivariate_batch(
            np.array([n_draws], dtype=np.int64), class_sizes.reshape(1, -1), rng
        )[0]

    def sample_matrix_batched(self, row_sums, col_sums, rng=None) -> np.ndarray:
        """Sample a whole communication matrix with vectorized kernels.

        Same law as Algorithms 3 and 4 (the recursive row splitting *is*
        Algorithm 4; each split's multivariate draw uses the balanced
        column-splitting factorisation), evaluated level by level so that
        every level of the row tree costs ``O(log P')`` vectorized NumPy
        calls over all same-level blocks at once.  The row tree's plan is
        built once per height and each row level's column plan once per
        shape, and reused across calls.
        """
        self._check_batched_method()
        rows = check_vector_of_nonnegative_ints(row_sums, "row_sums")
        cols = check_vector_of_nonnegative_ints(col_sums, "col_sums")
        check_same_total(rows, cols, "row_sums", "col_sums")
        matrix = np.zeros((rows.size, cols.size), dtype=np.int64)
        if rows.size == 0 or cols.size == 0:
            return matrix
        rng = _kernel_rng(rng)
        compiled = self._resolve_tier().sample_matrix(rng, rows, cols)
        if compiled is not None:
            return compiled

        row_prefix = np.concatenate([[0], np.cumsum(rows)])
        # Row lo holds the column capacities reserved for the block of rows
        # starting at lo.  All blocks at one level split simultaneously.
        matrix[0] = cols
        for los, mids, his in _split_plan(rows.size):
            caps = matrix[los]
            to_up = _draw_levels(rng, row_prefix[his] - row_prefix[mids], caps)
            caps -= to_up
            matrix[los] = caps
            matrix[mids] = to_up
        return matrix


# ----------------------------------------------------------------------------
# Shared engine instances
# ----------------------------------------------------------------------------
_ENGINES: dict[tuple, SamplerEngine] = {}


def get_engine(method: str | SamplerEngine = "auto", *, kernels=None) -> SamplerEngine:
    """Shared :class:`SamplerEngine` for ``(method, kernels)`` (instances pass through).

    This is the single point every sampling entry point resolves its
    ``method=`` argument through, so the selection policy lives in exactly
    one place.  ``kernels`` selects the kernel tier the engine consults
    (see :mod:`repro.core.kernels`); passing it alongside a pre-built
    engine is rejected because the engine already owns a tier choice.
    """
    if isinstance(method, SamplerEngine):
        if kernels is not None:
            raise ValidationError(
                "kernels= cannot be combined with a pre-built SamplerEngine; "
                "construct the engine with kernels= instead"
            )
        return method
    if kernels is not None and not isinstance(kernels, str):
        # Tier objects are not hashable cache keys; build a private engine.
        return SamplerEngine(method, kernels=kernels)
    key = (method, kernels)
    engine = _ENGINES.get(key)
    if engine is None:
        # raises ValidationError for unknown method/kernels names
        engine = SamplerEngine(method, kernels=kernels)
        _ENGINES[key] = engine
    return engine
