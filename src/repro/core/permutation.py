"""Algorithm 1: the coarse-grained uniform random permutation.

The paper's main algorithm permutes a block-distributed vector in three
supersteps:

1. every processor permutes its local block uniformly at random;
2. a communication matrix ``A`` is sampled from the law of Problem 2
   (sequentially at the root, or in parallel with Algorithm 5/6) and every
   processor ships the first ``a_{i,0}`` items of its shuffled block to
   ``P'_0``, the next ``a_{i,1}`` items to ``P'_1``, and so on -- a single
   irregular all-to-all exchange;
3. every target processor permutes the block it received uniformly at
   random.

Because the local shuffles make the pieces sent between any pair of
processors uniformly random subsets, and the matrix is drawn with exactly
the probability a uniform permutation would induce, the end-to-end result
is a uniform random permutation of the input (Propositions 1 and 2); the
statistical test-suite verifies this exhaustively for small inputs.

The module exposes the SPMD program itself
(:func:`parallel_permutation_program`) plus two front ends:

* :func:`permute_distributed` -- operate on an explicit list of per-processor
  blocks and return the permuted blocks (plus the machine's cost report);
* :func:`random_permutation` / :func:`random_permutation_indices` -- an
  in-memory convenience API that hides the machine completely.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockDistribution
from repro.core.parallel_matrix import MATRIX_ALGORITHMS
from repro.pro.machine import PROMachine, ProcessorContext, RunResult, resolve_machine
from repro.util.errors import ValidationError
from repro.util.validation import (
    check_positive_int,
    check_vector_of_nonnegative_ints,
)

__all__ = [
    "parallel_permutation_program",
    "permute_distributed",
    "random_permutation",
    "random_permutation_indices",
    "local_shuffle",
    "cut_rows",
]


def local_shuffle(values: np.ndarray, rng, kernels=None, *, copy: bool = True) -> np.ndarray:
    """Return a uniformly shuffled copy of ``values`` using ``rng``.

    Accepts both plain NumPy generators and
    :class:`~repro.rng.counting.CountingRNG` wrappers; the Fisher-Yates cost
    of ``len(values) - 1`` variates is what the wrapper records.  ``kernels``
    selects the kernel tier (see :mod:`repro.core.kernels`); the compiled
    tier draws the Fisher-Yates permutation with a jitted kernel and gathers
    ``values`` through it -- bit-identical to ``rng.shuffle`` on the same
    seed -- and any tier that declines falls back to the in-place shuffle.
    With ``copy=False`` the caller gives ``values`` up: the in-place shuffle
    then permutes and returns it without a second buffer.
    """
    arr = np.asarray(values)
    if arr.shape[0] <= 1:
        return arr.copy() if copy else arr
    from repro.core.kernels import resolve_kernels

    perm = resolve_kernels(kernels).permutation(rng, arr.shape[0])
    if perm is not None:
        return arr[perm]
    out = arr.copy() if copy else arr
    rng.shuffle(out)
    return out


def cut_rows(values, counts) -> list[np.ndarray]:
    """Cut ``values`` into ``len(counts)`` consecutive pieces -- vectorized.

    The pieces are zero-copy views sized ``counts[0], counts[1], ...`` in
    order (the row-cut step of Algorithm 1's exchange superstep and of the
    external-memory distribution pass).  A single ``cumsum`` plus
    ``np.split`` replaces the per-piece Python slicing loop; the property
    suite checks equivalence against the loop formulation on random
    matrices.
    """
    arr = np.asarray(values)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum()) if counts.size else 0
    if total != arr.shape[0]:
        raise ValidationError(
            f"cut_rows counts sum to {total} but {arr.shape[0]} values were given"
        )
    if counts.size == 0:
        return []
    return np.split(arr, np.cumsum(counts[:-1]))


def parallel_permutation_program(
    ctx: ProcessorContext,
    blocks,
    target_sizes=None,
    *,
    matrix_algorithm: str = "root",
    method: str = "auto",
    kernels=None,
) -> np.ndarray:
    """SPMD program implementing Algorithm 1.

    Parameters
    ----------
    ctx:
        The processor context supplied by the machine.
    blocks:
        Sequence of ``ctx.n_procs`` arrays; processor ``i`` permutes
        ``blocks[i]``.  (Passing the full list mirrors how a driver hands
        each rank its slice of a shared-memory vector; each rank only reads
        its own entry.)
    target_sizes:
        Optional target block sizes ``m'`` (defaults to the source sizes).
    matrix_algorithm:
        ``"root"`` (default; Algorithm 3 at the root and a scatter -- the
        variant used in the paper's experiments), ``"alg5"`` or ``"alg6"``.
    method:
        Hypergeometric sampling method forwarded to the samplers.
    kernels:
        Kernel-tier request (see :mod:`repro.core.kernels`); resolved once
        per rank, recorded in the rank's cost record, and forwarded to the
        shuffles and the matrix program.  Bit-identical across tiers.

    Returns
    -------
    numpy.ndarray
        The block of the permuted vector that lands on this processor.
    """
    if matrix_algorithm not in MATRIX_ALGORITHMS:
        raise ValidationError(
            f"unknown matrix_algorithm {matrix_algorithm!r}; "
            f"choose from {sorted(MATRIX_ALGORITHMS)}"
        )
    if len(blocks) != ctx.n_procs:
        raise ValidationError(
            f"expected one block per processor ({ctx.n_procs}), got {len(blocks)}"
        )

    local = np.asarray(blocks[ctx.rank])
    source_sizes = np.asarray([len(b) for b in blocks], dtype=np.int64)
    if target_sizes is None:
        targets = source_sizes
    else:
        targets = check_vector_of_nonnegative_ints(target_sizes, "target_sizes")
        if targets.size != ctx.n_procs:
            raise ValidationError(
                f"target_sizes must have {ctx.n_procs} entries, got {targets.size}"
            )
        if int(targets.sum()) != int(source_sizes.sum()):
            raise ValidationError(
                "target_sizes must redistribute exactly the items present in the blocks"
            )

    # Resolve the kernel tier once per rank; the cost record carries which
    # tier actually ran here (and its JIT warm-up cost) back to the parent.
    from repro.core.kernels import resolve_kernels

    tier = resolve_kernels(kernels)
    ctx.cost.note_kernel_tier(tier.name, tier.warmup_seconds)

    # Superstep 1: local shuffle.
    shuffled = local_shuffle(local, ctx.rng, kernels=tier)
    ctx.log_compute(len(shuffled))
    ctx.cost.allocate(len(shuffled))
    ctx.comm.barrier()

    # Superstep 2: sample the communication matrix and exchange the data.
    matrix_program = MATRIX_ALGORITHMS[matrix_algorithm]
    my_row = matrix_program(ctx, source_sizes, targets, method=method, kernels=tier)

    pieces = cut_rows(shuffled, my_row)
    received = ctx.comm.alltoallv(pieces)
    ctx.comm.barrier()

    # Superstep 3: concatenate and shuffle locally.  ``incoming`` is this
    # rank's own fresh array, so it is shuffled in place.
    if received:
        incoming = np.concatenate(received)
    else:  # pragma: no cover - a machine always has >= 1 processor
        incoming = np.empty(0, dtype=local.dtype)
    result = local_shuffle(incoming, ctx.rng, kernels=tier, copy=False)
    ctx.log_compute(len(result))
    ctx.cost.allocate(len(result))
    return result


# ----------------------------------------------------------------------------
# Front ends
# ----------------------------------------------------------------------------
def permute_distributed(
    blocks,
    *,
    machine: PROMachine | None = None,
    target_sizes=None,
    matrix_algorithm: str = "root",
    method: str = "auto",
    backend: str | object | None = None,
    transport: str | object | None = None,
    persistent: bool | None = None,
    schedule_seed: int | None = None,
    kernels: str | None = None,
    retry=None,
    telemetry=None,
    seed=None,
) -> tuple[list[np.ndarray], RunResult]:
    """Permute a block-distributed vector; return the permuted blocks.

    ``blocks`` is a list with one array per processor.  A machine with
    ``len(blocks)`` processors is created when none is supplied, on
    ``backend`` (``"thread"`` default; ``"process"`` runs one OS process
    per rank and yields bit-identical output for the same seed).
    ``transport`` selects the process backend's payload transport
    (``"sharedmem"`` or ``"pickle"``; also seed-invariant).
    ``persistent`` is tri-state: the default (``None``) already runs
    **warm** -- with ``backend="process"`` the call borrows a keyed
    standing worker fleet from the process-wide default pool cache, so
    repeated calls skip the per-call process spawn -- while ``False``
    forces the cold path (fresh processes for this call) and ``True``
    makes the warm request explicit; all modes are seed-invariant.
    ``schedule_seed`` picks the sim backend's rank interleaving
    (``backend="sim"``; every schedule yields the same blocks).
    ``kernels`` selects the kernel tier each rank runs the sampling hot
    path on (``"auto"``/``"numba"``/``"numpy"``; also seed-invariant --
    the tiers are bit-identical).  ``retry`` (an attempt count or a
    :class:`~repro.pro.resilience.RetryPolicy`) turns on transient-failure
    recovery: crashed ranks are respawned and the run replayed with the
    same per-rank streams, so a recovered call returns blocks
    bit-identical to a fault-free one.  ``telemetry`` (a
    :class:`~repro.pro.telemetry.Telemetry` recorder) collects one
    :class:`~repro.pro.telemetry.FleetReport` for the run -- per-rank
    transport counters, ring geometry, pool/resilience events -- without
    perturbing results.  The returned blocks follow
    ``target_sizes`` (defaulting to the input sizes); the second element
    of the returned pair is the machine's
    :class:`~repro.pro.machine.RunResult`.

    Examples
    --------
    >>> import numpy as np
    >>> blocks = [np.arange(5), np.arange(5, 10)]
    >>> out_blocks, run = permute_distributed(blocks, seed=3)
    >>> sorted(np.concatenate(out_blocks).tolist())
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    """
    if len(blocks) == 0:
        raise ValidationError("permute_distributed needs at least one block")
    owns_machine = machine is None
    machine = resolve_machine(
        len(blocks), machine=machine, backend=backend, seed=seed,
        transport=transport, persistent=persistent, schedule_seed=schedule_seed,
        kernels=kernels, retry=retry, telemetry=telemetry,
    )
    if machine.n_procs != len(blocks):
        raise ValidationError(
            f"machine has {machine.n_procs} processors but {len(blocks)} blocks were given"
        )
    try:
        run = machine.run(
            parallel_permutation_program,
            [np.asarray(b) for b in blocks],
            target_sizes,
            matrix_algorithm=matrix_algorithm,
            method=method,
            kernels=getattr(machine, "kernels", None),
        )
    finally:
        if owns_machine:
            # Releases call-private resources only: fleets borrowed from
            # the process-wide default pool cache stay warm for the next
            # call (repro.pro.backends.pool owns and reaps those).
            machine.close()
    return run.results, run


def random_permutation(
    values,
    n_procs: int = 4,
    *,
    machine: PROMachine | None = None,
    matrix_algorithm: str = "root",
    method: str = "auto",
    backend: str | object | None = None,
    transport: str | object | None = None,
    persistent: bool | None = None,
    schedule_seed: int | None = None,
    kernels: str | None = None,
    retry=None,
    telemetry=None,
    seed=None,
    distribution: BlockDistribution | None = None,
) -> np.ndarray:
    """Uniformly permute an in-memory vector with the coarse-grained algorithm.

    The vector is cut into ``n_procs`` balanced blocks (or according to
    ``distribution``), permuted by Algorithm 1 on a PRO machine and glued
    back together.  This is the "just permute my array" entry point of the
    library.

    The machine options mirror :func:`permute_distributed`: ``backend``
    picks the execution substrate (``"thread"`` default, ``"process"``,
    ``"sim"``, ``"inline"``), ``transport`` the process backend's payload
    path (``"sharedmem"``/``"pickle"``), ``persistent`` the standing-fleet
    mode (``None`` = warm by default on the process backend via the
    default pool cache, ``False`` = cold spawn, ``True`` = explicit warm),
    ``schedule_seed`` the sim backend's rank interleaving, ``kernels``
    the sampling kernel tier (``"auto"``/``"numba"``/``"numpy"``) and
    ``retry`` the transient-failure recovery policy (an attempt count or
    a :class:`~repro.pro.resilience.RetryPolicy`) and ``telemetry`` a
    :class:`~repro.pro.telemetry.Telemetry` recorder collecting one
    :class:`~repro.pro.telemetry.FleetReport` per run.  A fixed ``seed``
    is bit-identical across every combination of them -- including
    recovered and telemetry-collected runs.

    Examples
    --------
    >>> import numpy as np
    >>> out = random_permutation(np.arange(10), n_procs=3, seed=0)
    >>> sorted(out.tolist())
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"random_permutation expects a 1-D vector, got shape {arr.shape}")
    n_procs = check_positive_int(n_procs, "n_procs")
    if machine is not None:
        n_procs = machine.n_procs
    if distribution is None:
        distribution = BlockDistribution.balanced(arr.shape[0], n_procs)
    if distribution.total != arr.shape[0]:
        raise ValidationError(
            f"distribution covers {distribution.total} items but the vector has {arr.shape[0]}"
        )
    if distribution.n_blocks != n_procs:
        raise ValidationError(
            f"distribution has {distribution.n_blocks} blocks but n_procs is {n_procs}"
        )
    blocks = distribution.split(arr)
    permuted_blocks, _ = permute_distributed(
        blocks,
        machine=machine,
        matrix_algorithm=matrix_algorithm,
        method=method,
        backend=backend,
        transport=transport,
        persistent=persistent,
        schedule_seed=schedule_seed,
        kernels=kernels,
        retry=retry,
        telemetry=telemetry,
        seed=seed,
    )
    sizes = [len(b) for b in permuted_blocks]
    return BlockDistribution(sizes).concatenate(permuted_blocks).astype(arr.dtype, copy=False)


def random_permutation_indices(
    n: int,
    n_procs: int = 4,
    *,
    machine: PROMachine | None = None,
    matrix_algorithm: str = "root",
    backend: str | object | None = None,
    transport: str | object | None = None,
    persistent: bool | None = None,
    schedule_seed: int | None = None,
    kernels: str | None = None,
    retry=None,
    telemetry=None,
    seed=None,
) -> np.ndarray:
    """Sample a uniform permutation of ``0..n-1`` with the parallel algorithm.

    Equivalent to ``random_permutation(np.arange(n), ...)`` and takes the
    same machine options (``backend=``, ``transport=``, ``persistent=`` --
    warm by default on the process backend -- ``schedule_seed=``,
    ``kernels=``, ``retry=`` and ``telemetry=``; a fixed ``seed`` is
    bit-identical across all of them, recovered and telemetry-collected
    runs included); this is the form the statistical uniformity tests
    consume.

    Examples
    --------
    >>> perm = random_permutation_indices(6, n_procs=2, seed=1)
    >>> sorted(perm.tolist())
    [0, 1, 2, 3, 4, 5]
    """
    n = int(n)
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    return random_permutation(
        np.arange(n, dtype=np.int64),
        n_procs=n_procs,
        machine=machine,
        matrix_algorithm=matrix_algorithm,
        backend=backend,
        transport=transport,
        persistent=persistent,
        schedule_seed=schedule_seed,
        kernels=kernels,
        retry=retry,
        telemetry=telemetry,
        seed=seed,
    )
