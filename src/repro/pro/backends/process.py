"""Process-per-rank execution backend: true multiprocess parallelism.

Each virtual processor runs in its own OS process, so ranks execute with
genuine hardware parallelism (no shared GIL) -- the regime the paper's
experiments on the SGI Origin actually measured.  The ranks communicate
through a :class:`ProcessFabric`: one multiprocessing queue per destination
rank plus a shared multiprocessing barrier, speaking the same
``put``/``get``/``barrier_wait``/``abort`` protocol as the in-process
:class:`~repro.pro.communicator.MessageFabric`, so every communicator
operation (point-to-point, collectives, barriers) works unchanged.

Design points:

* **Deterministic seeding.**  The machine builds the per-rank random
  streams *in the parent* (exactly as for the inline and thread backends)
  and ships each rank its own generator, so for a fixed machine seed the
  results are bit-identical across the inline, thread and process backends
  -- and across payload transports, which never touch the streams.
* **Pluggable payload transport.**  The queues carry only small control
  records; how the payload bytes cross the address-space gap is decided by
  a :class:`~repro.pro.backends.transport.PayloadTransport`:
  ``transport="sharedmem"`` (default) ships bulk NumPy arrays through
  ``multiprocessing.shared_memory`` segments with zero-copy views on the
  receive side, ``transport="pickle"`` keeps everything in the queue pipe
  as ``(dtype, shape, bytes)`` buffer records.  Results shipped back to
  the caller use the same transport.
* **Cost accounting survives the address-space gap.**  Each worker ships
  its :class:`~repro.pro.cost.CostRecorder` and random-variate count back
  together with its result; :meth:`ProcessBackend.run` folds them into the
  caller's contexts so cost reports are backend-independent.
* **Error propagation** mirrors the thread backend: a failing rank aborts
  the shared barrier (siblings blocked in ``barrier()``/``recv`` fail fast),
  and the first real error by rank order -- preferring causes over
  :class:`~repro.util.errors.CommunicationError` symptoms -- is re-raised in
  the caller wrapped in :class:`~repro.util.errors.BackendError`.
* **Clean shutdown.**  After every run -- successful, failed, aborted or
  timed out -- the backend drains the fabric's queues and *disposes* every
  undelivered record, so shared-memory segments of in-flight messages are
  unlinked instead of leaking (no ``resource_tracker`` warnings).

The backend prefers the ``fork`` start method (cheap, closures allowed);
on platforms without it, ``spawn`` is used and programs/arguments must be
picklable.

With ``persistent=True`` the per-run spawn disappears entirely: ranks run
on a standing :class:`~repro.pro.backends.pool.WorkerPool` of long-lived
daemon processes that keep their fabric endpoints and shared-memory ring
segments alive across runs, and successive programs are dispatched as
lightweight run-epoch records (see :mod:`repro.pro.backends.pool` for the
contract: picklable programs, poison-on-failure crash semantics, explicit
or atexit shutdown).
"""

from __future__ import annotations

import inspect
import multiprocessing
import pickle
import queue as _pyqueue
import threading
import time
import traceback
import uuid
from typing import Callable, Sequence

from repro.pro.backends.registry import (
    BackendCapabilities,
    ExecutionBackend,
    register_backend,
)
from repro.pro.backends.transport import (
    PayloadTransport,
    PickleTransport,
    resolve_transport,
)
from repro.pro.resilience import current_deadline
from repro.pro.telemetry import capture_rank_telemetry
from repro.util.errors import (
    BackendError,
    CommunicationError,
    DeadlineError,
    TransientBackendError,
    ValidationError,
    attach_wait_context,
    is_transient_failure,
    wrap_rank_failure,
)
from repro.util.timeouts import scale_timeout

__all__ = ["ProcessBackend", "ProcessFabric"]

# Backwards-compatible aliases of the historic module-level codec: the
# buffer-based encoding now lives in the pickle transport.
_PICKLE_CODEC = PickleTransport()
_encode_payload = _PICKLE_CODEC.encode
_decode_payload = _PICKLE_CODEC.decode

#: Control-channel tag of ring-slot acknowledgements.  Records carrying it
#: are transport receipts, not messages: ``get`` applies them to the local
#: sender rings and keeps waiting for the real message.
_RING_ACK_TAG = "__ring-ack__"

#: Control-channel tag of run-abort poison pills (see
#: :meth:`ProcessFabric.poison_waits`).  ``abort()`` only breaks the
#: *barrier*; a rank blocked in a queue receive keeps waiting out its full
#: fabric timeout -- while holding the inbox's shared reader lock, which a
#: ``terminate()`` would orphan and wedge the queue for any respawned
#: successor.  A poison record makes the blocked receive fail fast with a
#: :class:`~repro.util.errors.CommunicationError` instead, so the rank
#: exits cleanly through its own error path.
_ABORT_TAG = "__abort__"


class ProcessFabric:
    """Message fabric over multiprocessing queues and a shared barrier.

    One inbox queue per destination rank carries ``(src, tag, record)``
    triples, where ``record`` is produced by the fabric's payload
    transport; mismatched messages read while waiting for a specific
    ``(src, tag)`` are parked locally (each rank lives in its own process,
    so the parking dict is private to that rank) and served to later
    receives, preserving per-source FIFO order.
    """

    def __init__(self, n_procs: int, *, timeout: float = 60.0, mp_context=None,
                 transport: str | PayloadTransport | None = None):
        if n_procs < 1:
            raise ValidationError(f"n_procs must be >= 1, got {n_procs}")
        self.n_procs = n_procs
        self.timeout = timeout
        self.transport = resolve_transport(transport)
        if getattr(self.transport, "uses_shared_memory", False):
            # The resource tracker must exist before the rank processes
            # fork so that all of them share it (see
            # ensure_resource_tracker); in-band transports never touch
            # shared memory and skip the tracker daemon entirely.
            from repro.pro.backends.sharedmem import ensure_resource_tracker

            ensure_resource_tracker()
        self._mp = mp_context if mp_context is not None else multiprocessing.get_context()
        self._inboxes = [self._mp.Queue() for _ in range(n_procs)]
        self._barrier = self._mp.Barrier(n_procs)
        # (src, tag) -> list of decoded payloads, private to the rank's process.
        self._parked: dict = {}
        #: Run-epoch of a *standing* fabric (the worker pool's).  One-shot
        #: fabrics leave it None and tags travel unscoped.  When set, every
        #: message tag is wrapped as ``(epoch, tag)`` so a message that a
        #: successful run sent but never consumed can never be delivered to
        #: a later run's receive with the same tag -- it parks under its
        #: own epoch until the worker clears stale state at the next
        #: dispatch (see ``_pool_worker_main``).
        self.epoch: int | None = None
        # One ring-segment name per sender rank (see the sharedmem
        # transport): a reusable bulk buffer that amortises segment
        # creation over every message the rank sends during this run.
        # Transports whose encode() has no ring parameter simply never see
        # the names.
        try:
            ring_aware = "ring" in inspect.signature(self.transport.encode).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            ring_aware = False
        try:
            ack_aware = "ack" in inspect.signature(self.transport.decode).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            ack_aware = False
        self._ack_aware = ack_aware and hasattr(self.transport, "ring_ack")
        token = uuid.uuid4().hex[:12]
        self._ring_names = (
            [f"pro{token}r{src}" for src in range(n_procs)] if ring_aware else None
        )

    def encode_payload(self, src: int, payload):
        """Encode a payload sent by rank ``src`` (using its ring if any)."""
        if self._ring_names is not None:
            return self.transport.encode(payload, ring=self._ring_names[src])
        return self.transport.encode(payload)

    def _ack_sink(self, src: int):
        """Callable routing a decode acknowledgement back to rank ``src``.

        The receipt travels as an in-band control record through the
        sender's inbox; the sender applies it to its ring the next time it
        reads the inbox.  Fired from ``weakref`` finalizers, possibly
        during interpreter shutdown, so failures are swallowed.
        """
        inbox = self._inboxes[src]

        def _ack(receipt) -> None:
            try:
                inbox.put((-1, _RING_ACK_TAG, receipt))
            except Exception:  # pragma: no cover - queue already closed
                pass

        return _ack

    def decode_payload(self, record, *, src: int | None = None, ack=None):
        """Decode ``record``, wiring up slot acknowledgements when possible.

        ``src`` routes acks back through the control channel (messages read
        by ``get``); ``ack`` passes an explicit callback instead (results
        decoded in the pool's parent, which batches receipts into the next
        dispatch).  With neither -- or an ack-unaware transport -- slots
        simply stay allocated until the ring is retired.
        """
        if self._ack_aware:
            if ack is None and src is not None and src >= 0:
                ack = self._ack_sink(src)
            if ack is not None:
                return self.transport.decode(record, ack=ack)
        return self.transport.decode(record)

    def begin_epoch(self, rank: int) -> None:
        """Open a run-epoch for rank ``rank``'s sender ring (adaptive hook).

        Persistent-pool workers call this at the start of every dispatched
        run, *after* applying the receipts the dispatch batched in, so the
        transport sees the ring in its settled state and can adapt its
        logical capacity to the previous epoch's traffic.  A no-op for
        transports without rings.
        """
        if self._ring_names is None:
            return
        hook = getattr(self.transport, "ring_epoch", None)
        if hook is None:
            return
        try:
            hook(self._ring_names[rank])
        except Exception:  # pragma: no cover - adaptation is best effort
            pass

    def _scoped(self, tag):
        """Wrap ``tag`` with the current run-epoch on standing fabrics."""
        return tag if self.epoch is None else (self.epoch, tag)

    def put(self, src: int, dst: int, tag, payload) -> None:
        """Deposit a message; never blocks (queues are unbounded)."""
        self._inboxes[dst].put(
            (src, self._scoped(tag), self.encode_payload(src, payload))
        )

    def get(self, src: int, dst: int, tag, pending: list):
        """Fetch the next message from ``src`` to ``dst`` carrying ``tag``.

        ``pending`` (the communicator-owned parking list of the in-process
        fabric) is honoured for interface compatibility but the fabric parks
        internally, keyed by source *and* tag, because one inbox serves all
        sources.
        """
        tag = self._scoped(tag)
        for idx, (msg_tag, payload) in enumerate(pending):
            if msg_tag == tag:
                pending.pop(idx)
                return payload
        bucket = self._parked.get((src, tag))
        if bucket:
            return bucket.pop(0)
        deadline = time.monotonic() + self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise attach_wait_context(
                    CommunicationError(
                        f"rank {dst} timed out after {self.timeout}s waiting for a message "
                        f"from rank {src} with tag {tag!r}"
                    ),
                    rank=dst, op="recv", src=src,
                )
            try:
                msg_src, msg_tag, record = self._inboxes[dst].get(timeout=remaining)
            except _pyqueue.Empty:
                raise attach_wait_context(
                    CommunicationError(
                        f"rank {dst} timed out after {self.timeout}s waiting for a message "
                        f"from rank {src} with tag {tag!r}"
                    ),
                    rank=dst, op="recv", src=src,
                ) from None
            if msg_tag == _RING_ACK_TAG:
                # A receiver finished with one of our ring slots: reclaim
                # it and keep waiting for the real message.
                try:
                    self.transport.ring_ack(record)
                except Exception:  # pragma: no cover - acks are best effort
                    pass
                continue
            if msg_tag == _ABORT_TAG:
                # Poison pill: the run this receive belongs to was aborted.
                # Pills are stamped with the epoch they poisoned; one that
                # outlived its epoch (deposited while this rank was idle)
                # is stale and ignored.
                if record is None or self.epoch is None or record == self.epoch:
                    raise attach_wait_context(
                        CommunicationError(
                            f"rank {dst} abandoned a receive from rank {src}: "
                            "the run was aborted after a rank failure"
                        ),
                        rank=dst, op="recv", src=src,
                    )
                continue
            payload = self.decode_payload(record, src=msg_src)
            if msg_src == src and msg_tag == tag:
                return payload
            self._parked.setdefault((msg_src, msg_tag), []).append(payload)

    def barrier_wait(self) -> None:
        """Block until all ranks reach the barrier."""
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            # Rank-agnostic here; Communicator.barrier stamps the rank.
            raise attach_wait_context(
                CommunicationError(
                    f"barrier broken or timed out after {self.timeout}s "
                    "(a rank likely crashed or deadlocked)"
                ),
                op="barrier",
            ) from None

    def abort(self) -> None:
        """Break the barrier so that surviving ranks fail fast after a crash."""
        self._barrier.abort()

    def poison_waits(self, epoch: int | None = None) -> None:
        """Deposit one abort poison pill per inbox so blocked receives fail fast.

        The complement of :meth:`abort` for queue waits: a rank parked in
        ``get`` consumes the pill and raises ``CommunicationError``
        immediately instead of burning the full fabric timeout -- and,
        crucially for pool supervision, instead of having to be
        ``terminate()``-ed while it holds its inbox's shared reader lock
        (an orphaned lock would wedge the inbox for a respawned rank).
        ``epoch`` scopes the pill on standing fabrics: ranks running a
        *later* epoch skip stale pills.  Safe to call repeatedly.
        """
        for dst in range(self.n_procs):
            try:
                self._inboxes[dst].put((-1, _ABORT_TAG, epoch))
            except Exception:  # pragma: no cover - queue already closed
                pass

    def heal(self, respawned_ranks: Sequence[int] = ()) -> None:
        """Restore a *standing* fabric after a failed epoch (pool supervision).

        Called by :meth:`~repro.pro.backends.pool.WorkerPool.heal` once the
        failed epoch's workers have stopped and before replacements start:

        * every inbox is drained and the undelivered records handed to
          ``transport.dispose`` (the poisoned epoch's in-flight payloads
          must not pin shared-memory segments for the fabric's remaining
          lifetime) -- safe because no run is in flight and idle survivors
          only read their *task* queues;
        * the shared barrier, broken by ``abort()``, is reset for reuse;
        * each respawned rank gets a **fresh sender-ring name** and its old
          ring is retired: the dead worker owned the old segment, so the
          replacement re-handshakes its transport from scratch (receivers
          attach by the name embedded in each record, and survivors never
          read another rank's ring name, so the swap is race-free);
        * the standing dispatch segment, which crashed consumers may
          never release, is retired (``retire_shared``).

        Ring acks parked in drained inboxes are dropped, not applied: ring
        bookkeeping lives in the owning worker's process, so a surviving
        ring keeps any un-acked slots pinned until it adapts or retires --
        bounded, and irrelevant in the common all-ranks-exited failure.
        """
        disposes = True  # duck-typed transports: assume dispose matters
        if isinstance(self.transport, PayloadTransport):
            disposes = type(self.transport).dispose is not PayloadTransport.dispose
        if disposes:
            # In-band transports skip the drain (nothing out-of-band to
            # release; epoch-scoped tags already quarantine stale records,
            # and a worker killed mid-put can leave a truncated pickle the
            # drain would block on -- hence the abandonable thread).
            drain = threading.Thread(
                target=self._drain_and_dispose, args=(scale_timeout(0.25),),
                name="pro-fabric-heal-drain", daemon=True,
            )
            drain.start()
            drain.join(timeout=scale_timeout(2.0))
        try:
            self._barrier.reset()
        except Exception:  # pragma: no cover - a broken reset fails the heal later
            pass
        if self._ring_names is not None and respawned_ranks:
            token = uuid.uuid4().hex[:12]
            retired = []
            for rank in respawned_ranks:
                retired.append(self._ring_names[rank])
                self._ring_names[rank] = f"pro{token}r{rank}"
            try:
                self.transport.retire_rings(retired)
            except Exception:  # pragma: no cover - retirement is best effort
                pass
        retire_shared = getattr(self.transport, "retire_shared", None)
        if retire_shared is not None:
            try:
                retire_shared()
            except Exception:  # pragma: no cover - retirement is best effort
                pass

    def shutdown(self, *, drain_timeout: float = 0.0) -> None:
        """Drain undelivered messages and release their transport resources.

        Called by the backend after the workers have stopped -- on success,
        failure, abort and timeout paths alike.  Every record still sitting
        in an inbox is handed to ``transport.dispose`` so out-of-band
        payloads (shared-memory segments) are unlinked rather than leaked.

        ``drain_timeout`` is the per-inbox wait for straggling feeder
        flushes; the backend passes 0 on clean runs (the inboxes are empty)
        and a short grace period after aborts and timeouts.

        Reading records back can block indefinitely: a worker terminated
        mid-``put`` of a large in-band record leaves a *truncated* message
        whose body ``Queue.get`` waits on forever (its timeout only covers
        the readiness poll, not the body read -- even the sharedmem
        transport queues multi-KB in-band bodies for sub-``min_bytes``
        arrays and when segment creation degrades to the inline codec).
        Two defences: transports whose ``dispose`` is the base-class no-op
        hold nothing out-of-band and are not drained at all, and the drain
        of the others runs on a watchdog thread that is abandoned -- with
        the stranded segments left to the resource tracker's exit-time
        cleanup, which is what it is for -- rather than hanging the caller.
        """
        disposes = True  # duck-typed transports: assume dispose matters
        if isinstance(self.transport, PayloadTransport):
            disposes = type(self.transport).dispose is not PayloadTransport.dispose
        if disposes:
            drain = threading.Thread(
                target=self._drain_and_dispose, args=(drain_timeout,),
                name="pro-fabric-drain", daemon=True,
            )
            drain.start()
            drain.join(timeout=scale_timeout(2.0) + 4.0 * drain_timeout)
        if self._ring_names is not None:
            try:
                self.transport.retire_rings(self._ring_names)
            except Exception:  # pragma: no cover - retirement is best effort
                pass
        retire_shared = getattr(self.transport, "retire_shared", None)
        if retire_shared is not None:
            try:
                retire_shared()  # the standing dispatch segment
            except Exception:  # pragma: no cover - retirement is best effort
                pass
        for inbox in self._inboxes:
            inbox.close()
            inbox.cancel_join_thread()

    def _drain_and_dispose(self, drain_timeout: float) -> None:
        """Body of the shutdown drain (run on an abandonable thread)."""
        for inbox in self._inboxes:
            waited = False
            while True:
                try:
                    if drain_timeout > 0 and not waited:
                        waited = True
                        _src, _tag, record = inbox.get(timeout=drain_timeout)
                    else:
                        _src, _tag, record = inbox.get_nowait()
                except _pyqueue.Empty:
                    break
                except Exception:
                    # A worker terminated mid-put can leave a truncated
                    # pickle in the pipe; shutdown runs inside the
                    # backend's finally block, so nothing here may mask
                    # the real run error -- skip to the next inbox.
                    break
                try:
                    self.transport.dispose(record)
                except Exception:  # pragma: no cover - disposal is best effort
                    pass


class _VariateCount:
    """Stand-in for a remote rank's CountingRNG after the run has finished."""

    def __init__(self, total_variates: int):
        self.total_variates = int(total_variates)


def _portable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives pickling, else a summarising BackendError.

    Either way the worker-side traceback travels along as a plain
    ``remote_traceback`` string attribute (it rides in the exception's
    ``__dict__`` through pickling), so the parent's
    :func:`~repro.util.errors.wrap_rank_failure` can chain the remote
    stack into the caller-side error.  The unpicklable fallback keeps the
    original's transient/fatal classification.
    """
    tb = traceback.format_exc()
    try:
        exc.remote_traceback = tb
    except Exception:  # pragma: no cover - exotic __slots__ exceptions
        pass
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        cls = TransientBackendError if is_transient_failure(exc) else BackendError
        summary = cls(f"{type(exc).__name__}: {exc}")
        summary.remote_traceback = tb
        return summary


def _worker_main(rank: int, ctx, program, args, kwargs, result_queue) -> None:
    """Entry point of one rank's process (module-level for spawn support)."""
    fabric = ctx.comm._fabric
    try:
        value = program(ctx, *args, **kwargs)
        variates = getattr(ctx.rng, "total_variates", None)
        encoded = fabric.encode_payload(rank, value)
        # Snapshot this rank's transport counters and ring geometry onto the
        # cost recorder so they repatriate with the existing result tuple.
        ctx.cost.telemetry = capture_rank_telemetry(fabric, rank)
        result_queue.put((rank, True, (encoded, ctx.cost, variates)))
    except BaseException as exc:  # noqa: BLE001 - report any rank failure
        try:
            fabric.abort()
        except Exception:
            pass
        try:
            # The barrier abort cannot reach siblings parked in queue
            # receives: poison every inbox so they fail fast instead of
            # waiting out the fabric timeout.
            fabric.poison_waits()
        except Exception:
            pass
        result_queue.put((rank, False, _portable_exception(exc)))


class ProcessBackend(ExecutionBackend):
    """Run one OS process per rank and collect per-rank results or errors.

    Parameters
    ----------
    start_method:
        ``"fork"`` (default where available), ``"spawn"`` or
        ``"forkserver"``.  With ``spawn``/``forkserver`` the program and its
        arguments must be picklable.
    shutdown_grace:
        Seconds to wait for worker processes to exit after the run has
        finished (or failed) before terminating them.
    transport:
        Payload transport name or instance: ``"sharedmem"`` (default;
        zero-copy shared-memory segments for bulk arrays, transparent
        fallback to the pickle codec where shared memory is unavailable)
        or ``"pickle"`` (everything through the queue pipe).  Results are
        bit-identical across transports for a fixed machine seed.
    persistent:
        When True, ranks run on a standing :class:`~repro.pro.backends.
        pool.WorkerPool` of long-lived daemon processes instead of being
        spawned per run: the pool (one per ``n_procs``) is created on the
        first run and reused by every later run, amortising process spawn
        and shared-memory ring setup.  Programs and arguments must then be
        picklable even under ``fork`` (they travel through the dispatch
        queue; ``cloudpickle`` widens this to closures when installed).
        Results stay bit-identical to the non-persistent path for a fixed
        machine seed.  Call :meth:`close` (or let the pool's ``atexit``
        hook run) to release the workers; a failed run *poisons* the pool
        and subsequent runs raise :class:`~repro.util.errors.BackendError`.
    pool_scope:
        Where persistent pools live.  ``"backend"`` (default): private to
        this backend instance, released by :meth:`close`.  ``"process"``:
        the **process-wide default pool cache**
        (:func:`repro.pro.backends.pool.get_default_pool`) -- warm fleets
        keyed by ``(p, transport, timeout, start method)`` are shared by
        every backend instance that asks, survive :meth:`close`, and are
        torn down by :func:`repro.pro.backends.pool.clear_default_pools`
        or at interpreter exit.  This is what makes repeated driver calls
        (``backend="process"``) warm by default.
    """

    name = "process"
    capabilities = BackendCapabilities(
        multirank=True,
        blocking_p2p=True,
        true_parallelism=True,
        shared_address_space=False,
        self_healing=True,
    )

    def __init__(self, *, start_method: str | None = None, shutdown_grace: float = 5.0,
                 transport: str | PayloadTransport | None = "sharedmem",
                 persistent: bool = False, pool_scope: str = "backend"):
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        if start_method not in methods:
            raise ValidationError(
                f"start method {start_method!r} is not available on this platform; "
                f"choose from {methods}"
            )
        if pool_scope not in ("backend", "process"):
            raise ValidationError(
                f"pool_scope must be 'backend' or 'process', got {pool_scope!r}"
            )
        self.start_method = start_method
        self.shutdown_grace = float(shutdown_grace)
        self.transport = resolve_transport(transport)
        self.persistent = bool(persistent)
        self.pool_scope = pool_scope
        self._mp = multiprocessing.get_context(start_method)
        self._pools: dict = {}  # n_procs -> WorkerPool
        self._shared_pools: set = set()  # n_procs owned by the default cache

    def _pool(self, n_procs: int, *, timeout: float):
        """The standing pool for ``n_procs`` ranks, created on first use.

        With ``pool_scope="process"`` the pool comes from (and is owned
        by) the process-wide default cache, so several backend instances
        with an equivalent configuration share one warm fleet; a
        transport that opts out of cache keying (``cache_key() is None``)
        falls back to a backend-private pool.
        """
        # (imported from the submodule directly: the package __init__
        # re-exports the pool() context manager under the same name)
        from repro.pro.backends.pool import WorkerPool, get_default_pool

        if self.pool_scope == "process":
            # Always resolved through the cache (no local fast path): the
            # lookup refreshes the fleet's LRU recency and applies the
            # cache's health checks (poison eviction, fork ownership).
            shared = get_default_pool(
                n_procs, timeout=timeout, mp_context=self._mp,
                transport=self.transport, shutdown_grace=self.shutdown_grace,
                start_method=self.start_method,
            )
            if shared is not None:
                self._pools[n_procs] = shared
                self._shared_pools.add(n_procs)
                return shared
        existing = self._pools.get(n_procs)
        if (existing is not None and not existing.closed
                and not existing.poisoned
                and getattr(existing, "in_owner_process", True)):
            return existing
        pool = self._pools.get(n_procs)
        if pool is None or pool.closed:
            pool = WorkerPool(
                n_procs, timeout=timeout, mp_context=self._mp,
                transport=self.transport, shutdown_grace=self.shutdown_grace,
            )
            self._pools[n_procs] = pool
            self._shared_pools.discard(n_procs)
        return pool

    def serving_transport(self, n_procs: int):
        """The transport instance the parent encodes through on ``n_procs`` ranks.

        A pool borrowed from the default cache keeps its spawner's instance.
        """
        pool = self._pools.get(n_procs) if self.persistent else None
        return self.transport if pool is None else pool.fabric.transport

    def close(self) -> None:
        """Shut down every backend-private worker pool (idempotent).

        Pools borrowed from the process-wide default cache are left warm
        -- they are owned by :mod:`repro.pro.backends.pool` and released
        by ``clear_default_pools()`` or the interpreter-exit hook.
        """
        for n_procs, pool in list(self._pools.items()):
            if n_procs not in self._shared_pools:
                pool.close()
        self._pools.clear()
        self._shared_pools.clear()

    def heal(self) -> bool:
        """Recover poisoned standing pools in place (resilience hook).

        Called by :func:`~repro.pro.resilience.run_with_recovery` between
        attempts.  Backend-private pools are healed through
        :meth:`~repro.pro.backends.pool.WorkerPool.heal` -- only the dead
        ranks are respawned into the standing fabric; a pool that cannot be
        healed is dropped so the next run builds a fresh one.  Pools
        borrowed from the process-wide cache are left to the cache, which
        heals or evicts them on the next lookup.  Non-persistent runs have
        nothing standing and always return True.
        """
        healthy = True
        for n_procs, pool in list(self._pools.items()):
            if n_procs in self._shared_pools:
                # The default cache owns it; drop our reference so _pool()
                # re-resolves (and the cache heals/evicts) next run.
                self._pools.pop(n_procs, None)
                self._shared_pools.discard(n_procs)
                continue
            if pool.closed or not pool.poisoned:
                continue
            if not pool.heal():
                pool.close()
                self._pools.pop(n_procs, None)
                healthy = False
        return healthy

    def create_fabric(self, n_procs: int, *, timeout: float) -> ProcessFabric:
        """Build (or, when persistent, reuse) the multiprocess message fabric."""
        if self.persistent:
            return self._pool(n_procs, timeout=timeout).fabric
        return ProcessFabric(n_procs, timeout=timeout, mp_context=self._mp,
                             transport=self.transport)

    # -- running ------------------------------------------------------------
    def run(self, contexts: Sequence, program: Callable, args: tuple, kwargs: dict) -> list:
        """Execute ``program(ctx, *args, **kwargs)`` with one process per rank."""
        n = len(contexts)
        if n == 0:
            return []
        fabric = contexts[0].comm._fabric
        if not isinstance(fabric, ProcessFabric):
            raise BackendError(
                "the process backend needs contexts wired to its ProcessFabric; "
                "create the machine with backend='process' instead of passing "
                "contexts built for another backend"
            )
        if self.persistent:
            pool = self._pools.get(n)
            if pool is None or pool.fabric is not fabric:
                raise BackendError(
                    "persistent runs need contexts wired to the pool's standing "
                    "fabric; build them through the machine (create_fabric) "
                    "rather than reusing contexts from another run"
                )
            return pool.run(contexts, program, args, kwargs)
        result_queue = self._mp.Queue()
        workers = [
            self._mp.Process(
                target=_worker_main,
                args=(rank, contexts[rank], program, args, kwargs, result_queue),
                name=f"pro-rank-{rank}",
                daemon=True,
            )
            for rank in range(n)
        ]
        for proc in workers:
            proc.start()

        drain_timeout = 0.0
        try:
            outcomes = self._collect(workers, result_queue, n)
            self._reap(workers)

            failed = []
            for rank in range(n):
                entry = outcomes.get(rank)
                if entry is None:
                    failed.append((rank, CommunicationError(
                        f"rank {rank} exited (code {workers[rank].exitcode}) "
                        "without reporting a result"
                    )))
                elif not entry[0]:
                    failed.append((rank, entry[1]))
            if failed:
                drain_timeout = scale_timeout(0.25)
                # Undecoded success payloads may hold out-of-band resources.
                for rank in range(n):
                    entry = outcomes.get(rank)
                    if entry is not None and entry[0]:
                        try:
                            fabric.transport.dispose(entry[1][0])
                        except Exception:
                            pass
                primary = next(
                    ((rank, exc) for rank, exc in failed
                     if not isinstance(exc, CommunicationError)),
                    failed[0],
                )
                rank, exc = primary
                if isinstance(exc, Exception):
                    raise wrap_rank_failure(rank, exc) from exc
                raise exc  # KeyboardInterrupt and friends propagate unchanged

            results: list = [None] * n
            for rank in range(n):
                encoded_value, cost, variates = outcomes[rank][1]
                results[rank] = fabric.transport.decode(encoded_value)
                # Fold the worker-side accounting back into the caller's
                # context: the parent's recorder/rng never advanced.
                contexts[rank].cost = cost
                if variates is not None:
                    contexts[rank].rng = _VariateCount(variates)
            return results
        finally:
            # Unlink in-flight shared-memory payloads on every exit path
            # (normal, failed rank, abort, timeout).
            fabric.shutdown(drain_timeout=drain_timeout)

    def _collect(self, workers, result_queue, n: int) -> dict:
        """Read per-rank outcome messages until all arrive or the run is dead.

        There is deliberately no overall wall-clock deadline: like the
        thread backend, the run waits as long as healthy ranks keep
        computing.  Blocked *communication* times out inside the workers
        (the fabric's own timeout), which surfaces here as an error
        outcome; a rank that dies without reporting (hard crash) is caught
        by the liveness check.
        """
        outcomes: dict = {}
        deadline = current_deadline()
        while len(outcomes) < n:
            if deadline is not None and deadline.expired:
                for proc in workers:
                    if proc.is_alive():
                        proc.terminate()
                raise DeadlineError(
                    f"run exceeded its {deadline.seconds:g}s deadline with "
                    f"{n - len(outcomes)} rank(s) still outstanding"
                )
            try:
                rank, ok, payload = result_queue.get(timeout=0.2)
                outcomes[rank] = (ok, payload)
                continue
            except _pyqueue.Empty:
                pass
            if not any(w.is_alive() for w in workers):
                # Everybody exited; drain whatever is still in flight.
                while len(outcomes) < n:
                    try:
                        rank, ok, payload = result_queue.get(timeout=1.0)
                        outcomes[rank] = (ok, payload)
                    except _pyqueue.Empty:
                        break
                break
        return outcomes

    def _reap(self, workers) -> None:
        grace = scale_timeout(self.shutdown_grace)
        for proc in workers:
            proc.join(timeout=grace)
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=grace)


register_backend(
    "process",
    ProcessBackend,
    description="one OS process per rank; true parallelism, queue fabric with "
                "pluggable payload transport (sharedmem default, pickle)",
)
