"""Zero-copy shared-memory payload transport for the process backend.

The queue fabric of :class:`~repro.pro.backends.process.ProcessFabric`
keeps carrying small control records, but with this transport the *bytes*
of every bulk NumPy payload travel through a
``multiprocessing.shared_memory`` segment instead of the queue pipe:

* **Sender** (``encode``): all arrays of one payload that are at least
  ``min_bytes`` big are packed into a single fresh segment (one copy, at
  64-byte aligned offsets); the queue record only names the segment and the
  per-array ``(offset, dtype, shape)`` slots.  Small arrays and non-array
  values stay inline in the record via the pickle codec.
* **Receiver** (``decode``): attaches the segment, immediately *unlinks*
  its name (POSIX keeps the memory alive while mapped) and returns
  **zero-copy writable views** into the mapping.  The mapping is closed
  automatically once every returned view has been garbage collected
  (a :class:`weakref.finalize` per view), so receivers can hold results
  for as long as they like without leaking.

* **Multi-consumer dispatch** (``encode_shared``): the worker pool's bulk
  run arguments are written into the transport's **standing dispatch
  segment** -- one copy per run, not one per rank, into pages that are
  already in place.  Every rank maps it once and keeps the mapping across
  runs, and sends a *release receipt* once its last view into a run's
  write has been garbage collected; the segment is rewritten only after
  all ``n_consumers`` have released it.  A segment still held when the
  next run dispatches (a program kept a view), or of the wrong size, is
  *replaced*: its name is unlinked, the encoder's mapping closed and a
  new standing segment created, while the holders' mappings keep the old
  pages alive.  A rank drops its mapping of a replaced segment at its next
  decode.

Lifecycle discipline
--------------------
CPython's ``resource_tracker`` pairs a *register* on segment creation with
an *unregister* inside :meth:`SharedMemory.unlink`; all fabric processes
share one tracker (the file descriptor is inherited by both ``fork`` and
``spawn`` children), so the invariant the transport maintains is simply
**exactly one unlink per segment**: the receiver unlinks on decode (the
*encoder* does, on replacement or retirement, for the standing dispatch
segment), and records that are never decoded are unlinked by ``dispose``
when the fabric drains its queues on shutdown/abort/timeout paths
(``retire_shared`` unlinks the standing segment at fabric shutdown and
heal).  A segment abandoned by a hard-crashed run is the one case left to
the tracker's exit-time cleanup (which is exactly what the tracker is
for).

When shared memory is unavailable (no ``/dev/shm``, permissions, exotic
platforms) the transport degrades transparently to the pickle codec; the
probe runs once per process and is re-run after a ``fork``.
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from repro.pro.backends.transport import (
    SHMMULTI,
    SHMREF,
    SHMRING,
    SHMSEG,
    PayloadTransport,
    TransportStats,
    register_transport,
    walk_decode,
    walk_encode,
)
from repro.util.errors import CommunicationError, ValidationError

try:  # pragma: no cover - the stdlib module exists on all supported platforms
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover
    _shm_module = None

__all__ = ["SharedMemoryTransport", "shared_memory_available"]

#: Byte alignment of array slots inside a segment (cache-line sized).
_ALIGN = 64

# Per-process availability probe result, keyed by pid so that forked
# children re-probe instead of trusting the parent's cached answer.
_PROBE: tuple[int | None, bool] = (None, False)


def ensure_resource_tracker() -> None:
    """Start the resource tracker in *this* process (the fabric's parent).

    Must run before the rank processes fork so that every process of a run
    inherits one shared tracker: segment creation registers in the sending
    rank, the matching unregister happens inside ``unlink`` in the
    *receiving* rank, and the pair only balances when both land in the
    same tracker cache.  Without this, each rank lazily spawns its own
    tracker and every tracker warns about "leaked" segments at exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platforms without the tracker
        pass


def shared_memory_available() -> bool:
    """True when shared-memory segments can be created in this process."""
    global _PROBE
    pid = os.getpid()
    if _PROBE[0] != pid:
        ok = False
        if _shm_module is not None:
            try:
                seg = _shm_module.SharedMemory(create=True, size=1)
                seg.close()
                seg.unlink()
                ok = True
            except Exception:
                ok = False
        _PROBE = (pid, ok)
    return _PROBE[1]


class _SegmentLease:
    """Keep one attached segment mapped until all views into it are dead."""

    __slots__ = ("_seg", "_outstanding")

    def __init__(self, seg, n_views: int):
        self._seg = seg
        self._outstanding = int(n_views)

    def watch(self, view: np.ndarray) -> None:
        weakref.finalize(view, self._release)

    def _release(self) -> None:
        self._outstanding -= 1
        if self._outstanding <= 0 and self._seg is not None:
            seg, self._seg = self._seg, None
            try:
                seg.close()
            except Exception:  # pragma: no cover - interpreter shutdown races
                pass


# ----------------------------------------------------------------------------
# Ring segments: one reusable circular buffer per sender, acked by receivers
# ----------------------------------------------------------------------------
# Creating, mapping and unlinking a fresh segment costs a handful of
# syscalls plus the kernel zeroing every page -- fine for megabyte
# payloads, but it cancels the zero-copy win for the ~100 KB pieces of a
# realistic irregular all-to-all.  A *ring segment* amortises all of that:
# the fabric names one buffer per sender rank, the sender creates it on
# first use and bump-allocates message slots from it, and every receiver
# attaches it once and caches the mapping, so the marginal cost of a
# message drops to a single memcpy plus a tiny queue record.
#
# The ring *wraps around*: receivers acknowledge a slot once every
# zero-copy view into it has been garbage collected (the ack receipt
# travels back to the sender on the fabric's control channel), and the
# allocator reclaims acked space, so long and repeated runs keep cycling
# through the same buffer instead of degrading to dedicated per-message
# segments.  The allocator works in *virtual* byte offsets that increase
# monotonically; ``head`` is the next write position, ``tail`` the oldest
# unacknowledged byte, and a slot is live while ``head - tail`` stays
# within the capacity.  Slots are physically contiguous: an allocation
# that would straddle the physical end of the buffer skips ahead to the
# next wrap boundary and the padding is reclaimed together with the slot.
# A message that cannot be placed (outstanding slots still cover the ring)
# falls back to a dedicated per-message segment, and the fabric retires
# the rings at shutdown (parent side), after which mappings live on only
# as long as undead views need them.

#: (pid, name) -> _SenderRing, private to the creating process.
_SENDER_RINGS: dict = {}
#: (pid, name) -> _RingAttachment, private to the attaching process.
_ATTACHED_RINGS: dict = {}


def _unlink_by_name(name: str) -> None:
    """Unlink the segment called ``name`` if it still exists (best effort)."""
    if _shm_module is None:  # pragma: no cover
        return
    try:
        seg = _shm_module.SharedMemory(name=name)
    except FileNotFoundError:
        return
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - double delivery race
        pass
    seg.close()


#: Ring growth/shrink factor of the adaptive geometry.
_RING_GROWTH = 2
#: Consecutive quiet epochs (peak demand under a quarter of the capacity)
#: before the logical capacity is halved.
_RING_SHRINK_PATIENCE = 3


class _SenderRing:
    """The sender side of one ring segment: a circular slot allocator.

    The *physical* segment size is fixed at creation, but the allocator
    cycles through a **logical capacity** that may be smaller: tmpfs pages
    are committed lazily on first write, so bounding the bytes the ring
    actually cycles through bounds its resident memory.  The logical
    capacity *adapts*: :meth:`end_epoch` (called by persistent-pool
    workers at every run boundary) grows it -- up to the physical size --
    when the previous epoch's traffic did not fit, and shrinks it back
    after several quiet epochs.  Geometry only ever changes while the ring
    is empty (every slot acked), because outstanding slots pin their
    physical positions.
    """

    __slots__ = ("shm", "capacity", "max_capacity", "min_capacity",
                 "head", "tail", "_slots", "reclaimed_bytes", "wraps",
                 "resizes", "epoch_demand", "epoch_fallbacks",
                 "_quiet_epochs")

    def __init__(self, shm, *, capacity: int | None = None,
                 min_capacity: int | None = None):
        self.shm = shm
        # Physical offsets repeat modulo the capacity; keep it slot-aligned
        # so wrapped slots stay aligned too.
        if shm.size >= _ALIGN:
            self.max_capacity = shm.size - shm.size % _ALIGN
        else:
            self.max_capacity = shm.size
        if capacity is None:
            self.capacity = self.max_capacity
        else:
            capacity = min(int(capacity), self.max_capacity)
            if capacity >= _ALIGN:
                capacity -= capacity % _ALIGN
            self.capacity = max(capacity, 1)
        if min_capacity is None:
            self.min_capacity = self.capacity
        else:
            self.min_capacity = max(min(int(min_capacity), self.capacity), 1)
        self.head = 0  # virtual offset of the next write
        self.tail = 0  # virtual offset of the oldest unacked byte
        # Outstanding slots in allocation order: [virtual_end, acked].
        self._slots: list = []
        self.reclaimed_bytes = 0  # observability / tests
        self.wraps = 0
        self.resizes = 0
        #: Peak bytes the current epoch needed live at once (outstanding
        #: span or single-message size, whichever was larger).
        self.epoch_demand = 0
        #: Allocations the current epoch refused (degraded to dedicated
        #: segments).
        self.epoch_fallbacks = 0
        self._quiet_epochs = 0

    def allocate(self, nbytes: int) -> tuple[int, int] | None:
        """Reserve ``nbytes`` contiguously; return (physical_start, receipt).

        The receipt is the slot's virtual end offset -- what the receiver
        echoes back through :meth:`ack` when its views are gone.  Returns
        ``None`` when the unacknowledged slots leave no room.
        """
        aligned = (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        if aligned > self.capacity:
            self.epoch_fallbacks += 1
            self.epoch_demand = max(self.epoch_demand, aligned)
            return None
        start = self.head
        position = start % self.capacity
        wrapped = position + aligned > self.capacity
        if wrapped:
            # The slot would straddle the physical end: skip to the wrap
            # boundary.  On an empty ring the skipped bytes are free to
            # reclaim immediately; otherwise the padding belongs to this
            # slot and is reclaimed with it.
            padded = start + (self.capacity - position)
            if self.tail == start:
                self.tail = padded
            start = padded
            position = 0
        end = start + aligned
        if end - self.tail > self.capacity:
            self.epoch_fallbacks += 1
            self.epoch_demand = max(self.epoch_demand, aligned)
            return None
        if wrapped:
            self.wraps += 1
        self.head = end
        self._slots.append([end, False])
        self.epoch_demand = max(self.epoch_demand, end - self.tail)
        return position, end

    def end_epoch(self) -> int:
        """Close one traffic epoch; adapt the logical capacity; return it.

        Grows (by doubling, clamped to the physical segment) when the
        epoch had any refused allocation whose demand a bigger ring would
        have served, and shrinks (by halving, floored at ``min_capacity``)
        after :data:`_RING_SHRINK_PATIENCE` consecutive epochs whose peak
        demand used under a quarter of the capacity.  A ring with
        outstanding slots keeps its geometry and carries the epoch's
        statistics forward.
        """
        if self.head != self.tail:  # outstanding slots pin the geometry
            return self.capacity
        demand, fallbacks = self.epoch_demand, self.epoch_fallbacks
        self.epoch_demand = 0
        self.epoch_fallbacks = 0
        if fallbacks and self.capacity < self.max_capacity:
            target = self.capacity * _RING_GROWTH
            while target < demand:
                target *= _RING_GROWTH
            self._resize(min(target, self.max_capacity))
            self._quiet_epochs = 0
        elif demand * 4 <= self.capacity and self.capacity > self.min_capacity:
            self._quiet_epochs += 1
            if self._quiet_epochs >= _RING_SHRINK_PATIENCE:
                self._resize(max(self.capacity // _RING_GROWTH,
                                 self.min_capacity))
                self._quiet_epochs = 0
        else:
            self._quiet_epochs = 0
        return self.capacity

    def _resize(self, target: int) -> None:
        """Set a new logical capacity (only ever called on an empty ring)."""
        if target >= _ALIGN:
            target -= target % _ALIGN
        target = max(min(target, self.max_capacity), 1)
        if target == self.capacity:
            return
        self.capacity = target
        # The ring is empty, so the virtual space can restart at zero;
        # stale receipts for pre-resize slots find no matching slot and
        # are ignored by ack() as usual.
        self.head = self.tail = 0
        self.resizes += 1

    def ack(self, receipt: int) -> None:
        """Mark the slot ending at virtual offset ``receipt`` as consumed."""
        for slot in self._slots:
            if slot[0] == receipt:
                slot[1] = True
                break
        else:
            return  # unknown / duplicate receipt: ignore
        # Reclaim the contiguous acked prefix (slots free strictly in
        # allocation order, like a ring buffer's tail).
        while self._slots and self._slots[0][1]:
            end = self._slots.pop(0)[0]
            self.reclaimed_bytes += end - self.tail
            self.tail = end


class _RingAttachment:
    """The receiver side: one cached mapping plus live-view accounting."""

    __slots__ = ("shm", "_outstanding", "_retired")

    def __init__(self, shm):
        self.shm = shm
        self._outstanding = 0
        self._retired = False

    def watch(self, view: np.ndarray) -> None:
        self._outstanding += 1
        weakref.finalize(view, self._release)

    def retire(self) -> None:
        self._retired = True
        self._maybe_close()

    def _release(self) -> None:
        self._outstanding -= 1
        self._maybe_close()

    def _maybe_close(self) -> None:
        if self._retired and self._outstanding <= 0 and self.shm is not None:
            shm, self.shm = self.shm, None
            try:
                shm.close()
            except Exception:  # pragma: no cover - interpreter shutdown races
                pass


def _sender_ring(name: str, ring_bytes: int, *, max_bytes: int | None = None,
                 min_bytes: int | None = None) -> "_SenderRing | None":
    """This process's sender ring called ``name``, created on first use.

    The physical segment is sized ``max_bytes`` (tmpfs commits pages
    lazily, so headroom for adaptive growth is free until written) with
    the logical capacity starting at ``ring_bytes``; when the bigger
    segment cannot be created the ring falls back to a fixed-geometry
    segment of ``ring_bytes``.
    """
    key = (os.getpid(), name)
    ring = _SENDER_RINGS.get(key)
    if ring is None:
        size = max(max_bytes or ring_bytes, ring_bytes)
        shm = None
        try:
            shm = _shm_module.SharedMemory(name=name, create=True, size=size)
        except Exception:
            if size > ring_bytes:
                try:
                    shm = _shm_module.SharedMemory(name=name, create=True,
                                                   size=ring_bytes)
                except Exception:
                    return None
            else:
                return None
        ring = _SenderRing(shm, capacity=ring_bytes, min_capacity=min_bytes)
        _SENDER_RINGS[key] = ring
    return ring


def _slot_release(ack, name: str, receipt: int, n_views: int):
    """Build the finalizer that acks one record once its views are dead.

    The record is a ring slot or one write of the standing dispatch segment.
    Every zero-copy view of the record registers the returned
    callable with ``weakref.finalize``; the last view to be garbage
    collected fires ``ack((name, receipt))``, which the fabric (or the
    pool worker, for dispatch segments) routes back to the encoding
    process.  The callable must not reference the views
    themselves (that would keep them alive forever).
    """
    remaining = [int(n_views)]

    def release() -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            try:
                ack((name, receipt))
            except Exception:  # pragma: no cover - interpreter shutdown races
                pass

    return release


def _attached_ring(name: str) -> "_RingAttachment | None":
    """This process's cached attachment of the ring called ``name``."""
    key = (os.getpid(), name)
    attachment = _ATTACHED_RINGS.get(key)
    if attachment is None:
        sender = _SENDER_RINGS.get(key)
        try:
            if sender is not None and sender.shm is not None:
                # Self-delivery: reuse the sender mapping instead of a
                # second attach of our own segment.
                attachment = _RingAttachment(sender.shm)
            else:
                attachment = _RingAttachment(_shm_module.SharedMemory(name=name))
        except FileNotFoundError:
            return None
        _ATTACHED_RINGS[key] = attachment
    return attachment


# ----------------------------------------------------------------------------
# The standing dispatch segment: one reusable multi-consumer buffer per
# transport instance, holding the worker pool's bulk run arguments
# ----------------------------------------------------------------------------
# Filling fresh tmpfs pages costs several times more than rewriting pages
# already in place (on a 2-vCPU host, 28 ms against 6 ms for 32 MB, plus
# 4 ms to close and unlink the segment), so the encoder keeps one segment
# mapped across runs.  ``use`` numbers its writes: a consumer's release
# receipt names the write it read, so receipts for an earlier write or a
# replaced segment are ignored.


class _StandingSegment:
    """The encoder's standing dispatch segment and its unreleased readers."""

    __slots__ = ("pid", "shm", "use", "held")

    def __init__(self, shm):
        self.pid = os.getpid()
        self.shm = shm
        self.use = 0   # writes so far
        self.held = 0  # consumers of the latest write yet to release it

    def fits(self, nbytes: int) -> bool:
        """Reusable for ``nbytes``: all released, big enough, not 4x too big."""
        return (not self.held and self.pid == os.getpid()
                and nbytes <= self.shm.size <= 4 * nbytes)

    def release(self, use) -> None:
        if use == self.use and self.held > 0:
            self.held -= 1

    def retire(self) -> None:
        """Unlink the name (in the creating process) and close this mapping.

        Consumers still holding views keep their own mappings, and with
        them the pages, alive.
        """
        if self.pid == os.getpid():
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.shm.close()


class SharedMemoryTransport(PayloadTransport):
    """Ship bulk array payloads through shared-memory segments.

    Parameters
    ----------
    min_bytes:
        Arrays smaller than this stay inline in the queue record (the
        per-segment syscalls only pay off for bulk payloads).  The default
        of 8 KiB keeps control traffic on the fast path while every block
        of a realistically sized permutation goes zero-copy.
    ring_bytes:
        Initial *logical* capacity of one per-sender ring segment (default
        32 MiB).  The ring wraps around: receiver acknowledgements
        (flowing back on the fabric's control channel once the zero-copy
        views of a slot are garbage collected) let the allocator reclaim
        consumed slots, so sustained traffic cycles through the buffer
        indefinitely.  A message that cannot be placed -- outstanding
        unacknowledged slots still cover the ring -- uses a dedicated
        per-message segment instead.
    ring_max_bytes:
        Physical size of the ring segment, and the ceiling of adaptive
        growth (default ``8 * ring_bytes``).  tmpfs commits pages lazily,
        so the headroom is free until traffic actually needs it.
    ring_min_bytes:
        Floor of adaptive shrinking (default ``ring_bytes // 32``, at
        least one alignment unit).
    adaptive_ring:
        When True (default), persistent-pool workers adapt each ring's
        logical capacity at run boundaries: epochs whose traffic did not
        fit grow the ring (killing the oversize-segment fallback for
        steady workloads), sustained quiet epochs shrink it back.  Set
        False to pin the geometry at ``ring_bytes``.
    """

    name = "sharedmem"
    #: Tells the fabric to start the shared resource tracker pre-fork.
    uses_shared_memory = True

    def __init__(self, *, min_bytes: int = 8192, ring_bytes: int = 32 * 1024 * 1024,
                 ring_max_bytes: int | None = None,
                 ring_min_bytes: int | None = None,
                 adaptive_ring: bool = True):
        self.min_bytes = int(min_bytes)
        self.ring_bytes = int(ring_bytes)
        if self.min_bytes < 1:
            raise ValidationError(
                f"min_bytes must be >= 1, got {self.min_bytes}"
            )
        if self.ring_bytes < 1:
            raise ValidationError(
                f"ring_bytes must be >= 1, got {self.ring_bytes}"
            )
        self.adaptive_ring = bool(adaptive_ring)
        if ring_max_bytes is None:
            ring_max_bytes = 8 * self.ring_bytes if self.adaptive_ring else self.ring_bytes
        self.ring_max_bytes = int(ring_max_bytes)
        if self.ring_max_bytes < self.ring_bytes:
            raise ValidationError(
                f"ring_max_bytes must be >= ring_bytes, got {self.ring_max_bytes}"
            )
        if ring_min_bytes is None:
            ring_min_bytes = max(self.ring_bytes // 32, _ALIGN)
        self.ring_min_bytes = max(int(ring_min_bytes), 1)
        #: Monotonic per-instance counters (see TransportStats); tests and
        #: the bench harness assert the once-per-run encode and the
        #: adaptive ring's fallback behaviour through these.
        self.stats = TransportStats()
        #: The standing dispatch segment ``encode_shared`` writes into
        #: (created on first use, replaced when held or ill-sized).
        self._standing: _StandingSegment | None = None
        #: A consumer's cached mapping of the latest standing segment it
        #: decoded: ``(pid, name, _RingAttachment)``.
        self._attached: tuple | None = None

    def __getstate__(self) -> dict:
        # A copy pickled into a spawned worker must not attach (and so pin)
        # the encoder's standing segment: it starts without one.
        return {**self.__dict__, "_standing": None, "_attached": None}

    def cache_key(self) -> tuple:
        return ("sharedmem", self.min_bytes, self.ring_bytes,
                self.ring_max_bytes, self.ring_min_bytes, self.adaptive_ring)

    # -- encoding -----------------------------------------------------------
    def _pack(self, payload):
        """Walk ``payload`` claiming bulk arrays: (slabs, offsets, cursor, inner)."""
        slabs: list[np.ndarray] = []
        offsets: list[int] = []
        cursor = 0

        def claim(arr: np.ndarray):
            nonlocal cursor
            if arr.nbytes < self.min_bytes:
                return None
            contiguous = np.ascontiguousarray(arr)
            slabs.append(contiguous)
            offset = cursor
            offsets.append(offset)
            cursor += (contiguous.nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
            # ascontiguousarray promotes 0-d to 1-d; keep the caller's shape.
            return (SHMREF, len(slabs) - 1, contiguous.dtype, arr.shape)

        inner = walk_encode(payload, claim)
        return slabs, offsets, cursor, inner

    @staticmethod
    def _create_segment(size: int):
        """A fresh segment of ``size`` bytes, or ``None`` when creation fails.

        A failure (e.g. /dev/shm filled up) degrades this and future
        messages to the inline codec.
        """
        try:
            return _shm_module.SharedMemory(create=True, size=max(size, 1))
        except Exception:
            global _PROBE
            _PROBE = (os.getpid(), False)
            return None

    @staticmethod
    def _copy_slabs(buf, slabs, offsets, base: int = 0) -> None:
        for slab, offset in zip(slabs, offsets):
            dst = np.ndarray(slab.shape, dtype=slab.dtype, buffer=buf,
                             offset=base + offset)
            dst[...] = slab
            del dst

    def _write_segment(self, slabs, offsets, cursor):
        """Copy the slabs into a fresh dedicated segment; return its name.

        Returns ``None`` when segment creation fails, in which case the
        caller degrades to the inline codec.
        """
        seg = self._create_segment(cursor)
        if seg is None:
            return None
        try:
            self._copy_slabs(seg.buf, slabs, offsets)
        except BaseException:
            seg.close()
            seg.unlink()
            raise
        name = seg.name
        seg.close()  # the sender's mapping is no longer needed
        self.stats.segments_created += 1
        return name

    def encode(self, payload, *, ring: str | None = None):
        self.stats.encode_calls += 1
        if not shared_memory_available():
            return walk_encode(payload, lambda arr: None)

        slabs, offsets, cursor, inner = self._pack(payload)
        if not slabs:
            return inner
        self.stats.bytes_encoded += cursor

        if ring is not None:
            sender = _sender_ring(ring, self.ring_bytes,
                                  max_bytes=self.ring_max_bytes,
                                  min_bytes=self.ring_min_bytes)
            if sender is not None:
                alloc = sender.allocate(cursor)
                if alloc is not None:
                    base, receipt = alloc
                    self._copy_slabs(sender.shm.buf, slabs, offsets, base)
                    self.stats.ring_messages += 1
                    return (SHMRING, ring,
                            tuple(base + offset for offset in offsets),
                            receipt, inner)
                # The allocator refused (message bigger than the logical
                # capacity, or unacked slots still cover the ring): fall
                # through to a dedicated segment.  The refusal is recorded
                # in the ring's epoch statistics, so the adaptive geometry
                # grows at the next epoch boundary and steady workloads
                # stop paying this path.
                self.stats.oversize_fallbacks += 1
        name = self._write_segment(slabs, offsets, cursor)
        if name is None:
            return walk_encode(payload, lambda arr: None)
        return (SHMSEG, name, tuple(offsets), inner)

    def encode_shared(self, payload, n_consumers: int, *, ring: str | None = None):
        """Encode ``payload`` once for ``n_consumers`` independent receivers.

        Bulk arrays are written into the standing dispatch segment, which
        then stays *held* until every consumer has released it: each
        receiver's :meth:`decode` fires a ``(name, use)`` receipt once its
        last view is garbage collected, and :meth:`ring_ack` applies it
        here.  A segment still held, too small, or more than four times
        too big is replaced by a new one sized to the next power of two
        (the old name is unlinked; holders keep their mappings).  An
        undelivered copy is released by :meth:`dispose`, and
        :meth:`retire_shared` unlinks the segment.  Payloads without bulk
        arrays return the plain in-band record, which any number of
        consumers can decode.

        The standing segment serves one dispatcher at a time: pools that
        dispatch concurrently need their own transport instances (every
        backend built from a name resolves its own).
        """
        if n_consumers < 1:
            raise ValidationError(
                f"n_consumers must be >= 1, got {n_consumers}"
            )
        self.stats.shared_encode_calls += 1
        if not shared_memory_available():
            return walk_encode(payload, lambda arr: None)
        slabs, offsets, cursor, inner = self._pack(payload)
        if not slabs:
            return inner
        self.stats.bytes_encoded += cursor
        standing = self._standing
        if standing is None or not standing.fits(cursor):
            self.retire_shared()
            seg = self._create_segment(1 << (cursor - 1).bit_length())
            if seg is None:
                return walk_encode(payload, lambda arr: None)
            standing = self._standing = _StandingSegment(seg)
            self.stats.multi_segments_created += 1
        self._copy_slabs(standing.shm.buf, slabs, offsets)
        standing.use += 1
        standing.held = int(n_consumers)
        return (SHMMULTI, standing.shm.name, standing.use, tuple(offsets),
                inner)

    # -- decoding -----------------------------------------------------------
    def decode(self, record, *, ack=None):
        self.stats.decode_calls += 1
        if record[0] == SHMRING:
            return self._decode_ring(record, ack)
        if record[0] == SHMMULTI:
            return self._decode_multi(record, ack)
        if record[0] != SHMSEG:
            return walk_decode(record)
        _, name, offsets, inner = record
        try:
            seg = _shm_module.SharedMemory(name=name)
        except FileNotFoundError:
            raise CommunicationError(
                f"shared-memory segment {name!r} vanished before it was "
                "received (the run was probably aborted)"
            ) from None
        try:
            seg.unlink()  # memory stays alive while mapped; the name goes now
        except FileNotFoundError:  # pragma: no cover - double delivery race
            pass
        lease = _SegmentLease(seg, len(offsets))

        def resolve(ref):
            _, index, dtype, shape = ref
            view = np.ndarray(shape, dtype=dtype, buffer=seg.buf,
                              offset=offsets[index])
            lease.watch(view)
            return view

        return walk_decode(inner, resolve)

    def _decode_ring(self, record, ack=None):
        _, name, offsets, receipt, inner = record
        attachment = _attached_ring(name)
        if attachment is None:
            raise CommunicationError(
                f"ring segment {name!r} vanished before its message was "
                "received (the run was probably aborted)"
            )
        release = None if ack is None else _slot_release(ack, name, receipt,
                                                         len(offsets))

        def resolve(ref):
            _, index, dtype, shape = ref
            view = np.ndarray(shape, dtype=dtype, buffer=attachment.shm.buf,
                              offset=offsets[index])
            attachment.watch(view)
            if release is not None:
                weakref.finalize(view, release)
            return view

        return walk_decode(inner, resolve)

    def _decode_multi(self, record, ack=None):
        """Decode one consumer's copy of a standing-segment record.

        The views come from this process's cached mapping of the segment
        (see :meth:`_attach_standing`), so a warm rank maps and faults in
        the pages once, not on every run.  Once every returned view has
        been garbage collected, ``ack((name, use))`` releases this
        consumer's hold on the write it read; the mapping stays.
        """
        _, name, use, offsets, inner = record
        attachment = self._attach_standing(name)
        release = None if ack is None else _slot_release(ack, name, use,
                                                         len(offsets))

        def resolve(ref):
            _, index, dtype, shape = ref
            view = np.ndarray(shape, dtype=dtype, buffer=attachment.shm.buf,
                              offset=offsets[index])
            attachment.watch(view)
            if release is not None:
                weakref.finalize(view, release)
            return view

        return walk_decode(inner, resolve)

    def _attach_standing(self, name: str) -> _RingAttachment:
        """This process's mapping of the standing segment ``name``, kept across runs.

        Attaches *without unlinking* (the encoder owns the name).  A record
        naming another segment -- the encoder replaced it -- drops the
        cached mapping first; a dropped mapping closes once its last view
        is gone.
        """
        cached = self._attached
        if cached is not None and cached[:2] == (os.getpid(), name):
            return cached[2]
        self._drop_attached()
        try:
            shm = _shm_module.SharedMemory(name=name)
        except FileNotFoundError:
            raise CommunicationError(
                f"dispatch segment {name!r} vanished before it was "
                "received (the run was probably aborted)"
            ) from None
        attachment = _RingAttachment(shm)
        self._attached = (os.getpid(), name, attachment)
        return attachment

    def _drop_attached(self) -> None:
        cached, self._attached = self._attached, None
        # A forked copy's inherited entry belongs to the parent: just forget it.
        if cached is not None and cached[0] == os.getpid():
            cached[2].retire()

    # -- acknowledgements ----------------------------------------------------
    def ring_ack(self, receipt) -> None:
        """Apply a receiver acknowledgement in the encoding process.

        ``receipt`` is what a receiver's ``decode`` handed to its ``ack``
        callback once the views of a record were gone: the ``(ring name,
        virtual slot end)`` pair of a ring slot -- the named slot (and any
        contiguous acked predecessors) becomes reusable -- or the
        ``(segment name, use)`` release of the standing dispatch segment.
        Unknown receipts -- duplicate delivery, a retired ring, a write
        since overwritten or a replaced segment -- are ignored.
        """
        try:
            name, end = receipt
        except (TypeError, ValueError):
            return
        standing = self._standing
        if standing is not None and standing.shm.name == name:
            standing.release(end)
            return
        ring = _SENDER_RINGS.get((os.getpid(), name))
        if ring is not None:
            ring.ack(end)

    # -- disposal -----------------------------------------------------------
    def dispose(self, record) -> None:
        """Release a record that will never be decoded.

        Dedicated segments are unlinked outright; a standing-segment
        record releases one undelivered copy's hold (the caller disposes
        each queued copy separately).  Ring records need no per-message
        disposal -- the fabric retires whole rings via
        :meth:`retire_rings` at shutdown.
        """
        if not (isinstance(record, tuple) and record):
            return
        if record[0] == SHMMULTI:
            self.ring_ack((record[1], record[2]))
            return
        if record[0] != SHMSEG:
            return
        _unlink_by_name(record[1])

    def retire_shared(self) -> None:
        """Unlink the standing dispatch segment and close its mapping.

        Called at fabric shutdown and heal: a consumer that crashed holds
        the segment forever, and the name must not outlive the fleet.  The
        next ``encode_shared`` creates a new one.  This process's consumer
        mapping, if it decoded one, is dropped too.
        """
        standing, self._standing = self._standing, None
        if standing is not None:
            standing.retire()
        self._drop_attached()

    # -- ring lifecycle -----------------------------------------------------
    def ring_epoch(self, name: str) -> None:
        """Epoch boundary of this process's sender ring called ``name``.

        Persistent-pool workers call this at the start of every dispatched
        run (after applying the receipts batched into the dispatch, so a
        fully acked ring is observably empty); the ring closes its traffic
        epoch and adapts its logical capacity within
        ``[ring_min_bytes, ring_max_bytes]``.  A no-op for rings this
        process does not own, and when ``adaptive_ring`` is off.
        """
        if not self.adaptive_ring:
            return
        ring = _SENDER_RINGS.get((os.getpid(), name))
        if ring is not None:
            ring.end_epoch()

    def retire_rings(self, names) -> None:
        """Unlink the named ring segments and drop this process's handles.

        Called by the fabric (in the parent) at shutdown on every exit
        path.  Unlinking removes only the names; receiver mappings stay
        alive until the last zero-copy view into them is garbage
        collected.
        """
        if _shm_module is None:  # pragma: no cover
            return
        pid = os.getpid()
        for name in names:
            unlinked = False
            sender = _SENDER_RINGS.pop((pid, name), None)
            attachment = _ATTACHED_RINGS.pop((pid, name), None)
            shared_handle = (sender is not None and attachment is not None
                             and attachment.shm is sender.shm)
            if sender is not None:
                try:
                    sender.shm.unlink()
                except FileNotFoundError:
                    pass
                unlinked = True
                if not shared_handle:
                    try:
                        sender.shm.close()
                    except Exception:  # pragma: no cover - exported views
                        pass
            if attachment is not None:
                if not unlinked:
                    try:
                        attachment.shm.unlink()
                    except FileNotFoundError:
                        pass
                    unlinked = True
                attachment.retire()
            if not unlinked:
                # A ring created by a (now finished) worker that this
                # process never attached; unlink it by name.
                try:
                    seg = _shm_module.SharedMemory(name=name)
                except FileNotFoundError:
                    continue
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                seg.close()


register_transport("sharedmem", SharedMemoryTransport)
