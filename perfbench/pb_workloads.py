"""The benchmark's four workloads: seeded inputs, the library call, output checks.

Every workload is a closed loop driven by one caller thread: call ``k`` is
issued only after call ``k - 1`` returned.  Inputs and per-call seeds are
derived from the workload seed alone, so a seed fixes every input the library
sees.  Checks run outside the timed region.

* ``bulk-thread`` / ``bulk-process`` permute the same 4M-item ``int64`` vector
  (32 MB, 8x the 4 MB L2 of the reference host) with ``n_procs = 2`` on the
  thread backend and on the warm process pool with the sharedmem transport.
* ``small-calls`` permutes vectors whose length is drawn per call from a
  log-uniform law over 256..32768, on the warm process pool.
* ``matrix-wide`` samples communication matrices for 256 Pareto-skewed
  marginals (~12M items) with the sequential batched sampler.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

N_PROCS = 2
#: Every call requests this kernel tier; a run whose ranks report another
#: tier is refused (see ``run.py``).
KERNELS = "numpy"
BULK_N = 4_000_000
SMALL_N_MIN, SMALL_N_MAX = 256, 32_768
#: The small-calls lengths are drawn in strata of this many calls: each
#: stratum holds one log-uniform draw from each of its equal-probability
#: slices, in seeded order, so the size mix of a run varies little between
#: seeds while every call's length stays log-uniform.
SMALL_STRATUM = 32
MATRIX_BLOCKS = 256
MATRIX_ITEMS = 12_000_000

#: Workload name -> (backend, kind).  ``None`` backend = no machine.
WORKLOADS = {
    "bulk-thread": ("thread", "bulk"),
    "bulk-process": ("process", "bulk"),
    "small-calls": ("process", "small"),
    "matrix-wide": (None, "matrix"),
}


def call_seed(seed: int, k: int) -> int:
    """The library seed of call ``k`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(k)]).generate_state(1, np.uint64)[0])


def distinct_vector(rng: np.random.Generator, n: int) -> tuple[np.ndarray, tuple[int, int]]:
    """``n`` distinct ``int64`` values in seeded random order.

    The values are ``offset + stride * q`` for a random permutation ``q`` of
    ``0..n-1``; the returned key ``(offset, stride)`` lets :func:`is_bijection`
    check an output exactly in linear time.
    """
    stride = int(rng.integers(1, 1 << 16))
    offset = int(rng.integers(-(1 << 40), 1 << 40))
    return rng.permutation(n).astype(np.int64) * stride + offset, (offset, stride)


def is_bijection(out, n: int, key: tuple[int, int]) -> bool:
    """True iff ``out`` is a rearrangement of the vector ``key`` describes."""
    out = np.asarray(out)
    if out.shape != (n,) or out.dtype != np.int64:
        return False
    if n == 0:
        return True
    offset, stride = key
    index, rem = np.divmod(out - offset, stride)
    if rem.any() or index.min() < 0 or index.max() >= n:
        return False
    return bool((np.bincount(index, minlength=n) == 1).all())


def is_matrix_with_marginals(matrix, rows: np.ndarray, cols: np.ndarray) -> bool:
    """True iff ``matrix`` is a non-negative int64 matrix with these marginals."""
    matrix = np.asarray(matrix)
    return bool(
        matrix.dtype == np.int64
        and matrix.shape == (rows.size, cols.size)
        and (matrix >= 0).all()
        and np.array_equal(matrix.sum(axis=1), rows)
        and np.array_equal(matrix.sum(axis=0), cols)
    )


def pareto_marginals(rng: np.random.Generator, blocks: int, items: int) -> np.ndarray:
    """``blocks`` Pareto-skewed block sizes (each >= 1) summing to about ``items``."""
    weights = rng.pareto(1.5, blocks) + 1.0
    return np.maximum(1, np.floor(weights / weights.sum() * items)).astype(np.int64)


@dataclass(frozen=True)
class Call:
    """One call's inputs: index, library seed, vector (or marginals), check key, items."""

    k: int
    seed: int
    values: np.ndarray
    key: tuple | None
    items: int


class Workload:
    """Seeded inputs, the library call and the output checks of one workload.

    ``scale`` shrinks every input size (tests use it to run the real code
    paths quickly); the benchmark always runs ``scale = 1``.
    """

    def __init__(self, name: str, seed: int, *, scale: float = 1.0):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
        self.name = name
        self.seed = int(seed)
        self.backend, self.kind = WORKLOADS[name]
        rng = np.random.default_rng([self.seed, 0])
        if self.kind == "bulk":
            n = max(N_PROCS, int(BULK_N * scale))
            self._bulk, self._bulk_key = distinct_vector(rng, n)
        elif self.kind == "small":
            self._small_max = max(SMALL_N_MIN + 1, int(SMALL_N_MAX * scale))
            self._small_sizes: list[int] = []
        else:
            items = max(MATRIX_BLOCKS, int(MATRIX_ITEMS * scale))
            self.rows = pareto_marginals(rng, MATRIX_BLOCKS, items)
        self.transport = "sharedmem" if self.backend == "process" else None

    # -- inputs ---------------------------------------------------------------
    def _small_n(self, k: int) -> int:
        while len(self._small_sizes) <= k:
            stratum = len(self._small_sizes) // SMALL_STRATUM
            rng = np.random.default_rng([self.seed, 1, stratum])
            u = (rng.permutation(SMALL_STRATUM) + rng.random(SMALL_STRATUM)) / SMALL_STRATUM
            lo, hi = math.log(SMALL_N_MIN), math.log(self._small_max)
            self._small_sizes.extend(int(math.exp(lo + x * (hi - lo))) for x in u)
        return self._small_sizes[k]

    def call(self, k: int) -> Call:
        """The inputs of call ``k`` (deterministic in the workload seed)."""
        seed = call_seed(self.seed, k)
        if self.kind == "bulk":
            return Call(k, seed, self._bulk, self._bulk_key, self._bulk.size)
        if self.kind == "small":
            n = self._small_n(k)
            values, key = distinct_vector(np.random.default_rng([self.seed, 2, k]), n)
            return Call(k, seed, values, key, n)
        return Call(k, seed, self.rows, None, int(self.rows.sum()))

    # -- the library call -------------------------------------------------------
    def run(self, call: Call, *, telemetry=None, rng=None, backend=None):
        """Issue the library call for ``call``; returns its output.

        ``telemetry`` attaches a FleetReport recorder (permutation workloads),
        ``rng`` replaces the seed by a generator (matrix-wide, traced run) and
        ``backend`` overrides the workload's backend (cross-backend check).
        """
        if self.kind == "matrix":
            from repro.core.api import sample_communication_matrix

            # The sequential path draws from ``rng`` when one is given.
            return sample_communication_matrix(
                call.values, algorithm="batched", seed=call.seed, rng=rng, kernels=KERNELS)
        from repro.core.permutation import random_permutation

        backend = backend or self.backend
        return random_permutation(
            call.values, N_PROCS, backend=backend,
            transport=self.transport if backend == "process" else None,
            kernels=KERNELS, seed=call.seed, telemetry=telemetry,
        )

    def check(self, call: Call, out) -> bool:
        """The output contract: a bijection of the input, or exact marginals."""
        if self.kind == "matrix":
            return is_matrix_with_marginals(out, call.values, call.values)
        return is_bijection(out, call.values.size, call.key)

    def baseline(self, call: Call) -> float:
        """Seconds NumPy's own sequential method takes for the same output.

        The yardstick of ``overhead_factor``: ``Generator.permutation`` of the
        same vector, or for a matrix, ``Generator.multivariate_hypergeometric``
        row by row on the same marginals (compute-bound like the sampler, so
        the host's speed cancels in the ratio; a 12M-item shuffle is
        memory-bound and did not).
        """
        gen = np.random.default_rng(call.seed)
        if self.kind != "matrix":
            start = time.perf_counter()
            gen.permutation(call.values)
            return time.perf_counter() - start
        cols = call.values.copy()
        start = time.perf_counter()
        for row in call.values:
            cols -= gen.multivariate_hypergeometric(cols, row)
        return time.perf_counter() - start

    def cross_check_due(self, k: int) -> bool:
        """Seeded subset of process-backend calls re-run on the thread backend."""
        if self.backend != "process":
            return False
        return k == 1 or np.random.default_rng([self.seed, 3, k]).random() < 0.05
