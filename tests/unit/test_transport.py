"""Contract tests for the payload transports of the process backend.

Every transport must round-trip arbitrary payloads (arrays of any dtype,
nested containers, empty and huge arrays, plain objects), release
out-of-band resources for records that are never decoded (abort and
timeout paths), and never touch the random streams.  The shared-memory
transport additionally promises zero-copy receive views and a transparent
fallback to the pickle codec when segments cannot be created.
"""

import gc
import os

import numpy as np
import pytest

from repro.pro.backends import sharedmem as sharedmem_module
from repro.pro.backends.process import ProcessBackend, ProcessFabric
from repro.pro.backends.sharedmem import (
    SharedMemoryTransport,
    _SenderRing,
    shared_memory_available,
)
from repro.pro.backends.transport import (
    SHMRING,
    SHMSEG,
    PickleTransport,
    available_transports,
    get_transport,
    resolve_transport,
)
from repro.pro.machine import PROMachine
from repro.util.errors import BackendError, ValidationError
from repro.util.timeouts import scale_timeout

TRANSPORTS = ["pickle", "sharedmem"]


def make_transport(name):
    if name == "sharedmem":
        # A tiny threshold so even small test arrays exercise the segments.
        return SharedMemoryTransport(min_bytes=16)
    return get_transport(name)


def shm_segments():
    """Names of the POSIX shared-memory segments currently linked."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


PAYLOADS = [
    np.arange(1000, dtype=np.int64),
    np.arange(12, dtype=np.float32).reshape(3, 4),
    np.empty(0, dtype=np.int64),
    np.array(3.5),  # 0-d
    np.arange(1_000_000, dtype=np.int64),  # huge: 8 MB
    {"key": np.ones(300), "nested": (1, [np.zeros(5, dtype=bool), "text"])},
    (None, 42, "plain"),
    [np.arange(64, dtype=np.int16)[::2]],  # non-contiguous view
]


class TestTransportRegistry:
    def test_builtins_registered(self):
        assert set(TRANSPORTS) <= set(available_transports())

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValidationError, match="unknown transport"):
            get_transport("carrier-pigeon")

    def test_resolve_none_gives_pickle(self):
        assert isinstance(resolve_transport(None), PickleTransport)

    def test_resolve_instance_passthrough(self):
        transport = SharedMemoryTransport()
        assert resolve_transport(transport) is transport

    def test_resolve_rejects_non_transport(self):
        with pytest.raises(ValidationError, match="encode"):
            resolve_transport(object())

    def test_min_bytes_validated(self):
        with pytest.raises(ValidationError):
            SharedMemoryTransport(min_bytes=0)


class TestRoundTrip:
    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    @pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
    def test_payload_roundtrip(self, transport_name, payload):
        transport = make_transport(transport_name)
        out = transport.decode(transport.encode(payload))

        def compare(a, b):
            if isinstance(a, np.ndarray):
                assert isinstance(b, np.ndarray)
                assert a.dtype == b.dtype
                assert a.shape == b.shape
                assert np.array_equal(a, b)
            elif isinstance(a, (list, tuple)):
                assert type(a) is type(b) and len(a) == len(b)
                for x, y in zip(a, b):
                    compare(x, y)
            elif isinstance(a, dict):
                assert set(a) == set(b)
                for k in a:
                    compare(a[k], b[k])
            else:
                assert a == b

        compare(payload, out)

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_structured_dtype_preserved(self, transport_name):
        dtype = np.dtype([("key", np.int64), ("value", np.float64)])
        data = np.zeros(400, dtype=dtype)
        data["key"] = np.arange(400)
        data["value"] = np.arange(400) * 0.5
        transport = make_transport(transport_name)
        out = transport.decode(transport.encode(data))
        assert out.dtype == dtype
        assert np.array_equal(out["key"], data["key"])
        assert np.allclose(out["value"], data["value"])

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_object_arrays_survive(self, transport_name):
        payload = np.array(["a", ("tuple",), None], dtype=object)
        transport = make_transport(transport_name)
        out = transport.decode(transport.encode(payload))
        assert out.dtype == object
        assert out.tolist() == payload.tolist()

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_decoded_arrays_are_writable_and_private(self, transport_name):
        original = np.arange(2048, dtype=np.int64)
        transport = make_transport(transport_name)
        out = transport.decode(transport.encode(original))
        out[0] = -99  # must not raise
        assert original[0] == 0


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
class TestSharedMemoryLifecycle:
    def test_bulk_arrays_use_segments(self):
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode(np.arange(1000, dtype=np.int64))
        assert record[0] == SHMSEG
        transport.dispose(record)

    def test_small_arrays_stay_inline(self):
        transport = SharedMemoryTransport(min_bytes=10**6)
        record = transport.encode(np.arange(100, dtype=np.int64))
        assert record[0] != SHMSEG

    def test_segment_unlinked_on_decode_and_freed_with_views(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = shm_segments()
        record = transport.encode(np.arange(5000, dtype=np.int64))
        assert shm_segments() - before  # the segment exists while in flight
        view = transport.decode(record)
        assert shm_segments() == before  # unlinked immediately on decode
        assert np.array_equal(view, np.arange(5000))
        del view
        gc.collect()

    def test_dispose_unlinks_undelivered_segments(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = shm_segments()
        record = transport.encode({"a": np.arange(4000), "b": np.ones(2000)})
        assert shm_segments() - before
        transport.dispose(record)
        assert shm_segments() == before

    def test_dispose_is_idempotent_and_ignores_inline_records(self):
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode(np.arange(1000))
        transport.dispose(record)
        transport.dispose(record)  # already unlinked: must not raise
        transport.dispose(transport.encode("just a string"))

    def test_unavailable_falls_back_to_inline(self, monkeypatch):
        monkeypatch.setattr(sharedmem_module, "_PROBE", (os.getpid(), False))
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode(np.arange(1000, dtype=np.int64))
        assert record[0] != SHMSEG
        assert np.array_equal(transport.decode(record), np.arange(1000))

    def test_creation_failure_degrades_gracefully(self, monkeypatch):
        transport = SharedMemoryTransport(min_bytes=16)

        def boom(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(sharedmem_module._shm_module, "SharedMemory", boom)
        monkeypatch.setattr(sharedmem_module, "_PROBE", (os.getpid(), True))
        record = transport.encode(np.arange(1000, dtype=np.int64))
        assert record[0] != SHMSEG
        assert np.array_equal(PickleTransport().decode(record), np.arange(1000))


class TestFabricIntegration:
    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_put_get_roundtrip(self, transport_name):
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=make_transport(transport_name))
        try:
            payload = {"data": np.arange(3000, dtype=np.int64), "tag": "x"}
            fabric.put(0, 1, "t", payload)
            out = fabric.get(0, 1, "t", [])
            assert np.array_equal(out["data"], payload["data"])
            assert out["tag"] == "x"
        finally:
            fabric.shutdown()

    def test_shutdown_disposes_inflight_sharedmem(self):
        if not shared_memory_available():
            pytest.skip("no shared memory")
        before = shm_segments()
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=SharedMemoryTransport(min_bytes=16))
        fabric.put(0, 1, "never-received", np.arange(4000, dtype=np.int64))
        # Give the queue feeder a moment, then abort-style shutdown.  The
        # drain grace must stretch with REPRO_TEST_TIMEOUT_FACTOR: on an
        # oversubscribed runner the feeder may not have flushed in 0.5s.
        fabric.abort()
        fabric.shutdown(drain_timeout=scale_timeout(0.5))
        assert shm_segments() == before

    def test_fabric_name_reports_transport(self):
        fabric = ProcessFabric(1, transport="pickle")
        try:
            assert fabric.transport.name == "pickle"
        finally:
            fabric.shutdown()


class TestBackendIntegration:
    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_machine_runs_with_transport(self, transport_name):
        machine = PROMachine(3, seed=4, backend="process",
                             backend_options={"transport": transport_name})
        assert machine.backend.transport.name == transport_name

        def program(ctx):
            gathered = ctx.comm.allgather(np.full(2000, ctx.rank, dtype=np.int64))
            return int(sum(g.sum() for g in gathered))

        assert machine.run(program).results == [6000, 6000, 6000]

    def test_abort_mid_transfer_leaves_no_segments(self):
        if not shared_memory_available():
            pytest.skip("no shared memory")
        before = shm_segments()
        machine = PROMachine(3, seed=0, backend="process",
                             timeout=scale_timeout(10))

        def program(ctx):
            if ctx.rank == 0:
                # Bulk payload nobody will ever receive, then crash.
                ctx.comm.send(np.arange(50_000, dtype=np.int64), 1, tag=9)
                raise RuntimeError("mid-transfer crash")
            ctx.comm.barrier()
            return ctx.rank

        with pytest.raises(BackendError, match="rank 0"):
            machine.run(program)
        assert shm_segments() - before == set()

    def test_unknown_transport_name_rejected(self):
        with pytest.raises(ValidationError):
            ProcessBackend(transport="bogus")

    def test_non_process_backend_rejects_transport_option(self):
        with pytest.raises(ValidationError, match="does not accept"):
            PROMachine(2, backend="thread", backend_options={"transport": "sharedmem"})

    def test_results_transported_through_sharedmem(self):
        machine = PROMachine(2, seed=1, backend="process",
                             backend_options={"transport": SharedMemoryTransport(min_bytes=16)})
        run = machine.run(lambda ctx: np.full(5000, ctx.rank, dtype=np.int64))
        assert np.array_equal(run.results[1], np.full(5000, 1))
        run.results[1][0] = 123  # zero-copy views must still be writable


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
class TestRingWrapAround:
    """Receiver-acked ring slots: reclamation, wrap-around, fallback."""

    class _FakeShm:
        def __init__(self, size=256):
            self.size = size
            self.buf = memoryview(bytearray(size))

    def test_allocator_reclaims_acked_slots_in_order(self):
        ring = _SenderRing(self._FakeShm(256))
        assert ring.allocate(100) == (0, 128)    # 100 -> 128 aligned
        assert ring.allocate(100) == (128, 256)
        assert ring.allocate(100) is None        # full until acked
        ring.ack(256)                            # out of order: tail pinned
        assert ring.tail == 0
        ring.ack(128)                            # prefix complete: both free
        assert ring.tail == 256
        assert ring.reclaimed_bytes == 256

    def test_allocator_wraps_physically(self):
        ring = _SenderRing(self._FakeShm(256))
        first = ring.allocate(100)
        ring.ack(first[1])
        second = ring.allocate(100)
        ring.ack(second[1])
        third = ring.allocate(100)               # virtual 256: back to offset 0
        assert third == (0, 384)
        # a slot that would straddle the physical end skips to the boundary
        ring.ack(third[1])
        fourth = ring.allocate(160)              # phys 128 + 192 > 256: pad
        assert fourth[0] == 0
        assert ring.wraps == 1

    def test_allocator_rejects_oversize_and_duplicate_acks(self):
        ring = _SenderRing(self._FakeShm(256))
        assert ring.allocate(512) is None        # bigger than the ring
        slot = ring.allocate(64)
        ring.ack(slot[1])
        ring.ack(slot[1])                        # duplicate: ignored
        ring.ack(12345)                          # unknown: ignored
        assert ring.tail == 64

    def test_acked_traffic_never_degrades_to_segments(self):
        # 50 x 512-byte messages through a 4 KiB ring only stay on the
        # ring if acked slots are actually reclaimed (PR 2's ring, with
        # no wrap-around, fell back to dedicated segments after 8).
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        ring_name = "testring-acked"
        receipts = []
        try:
            for i in range(50):
                record = transport.encode(np.full(64, i, dtype=np.int64),
                                          ring=ring_name)
                assert record[0] == SHMRING, (i, record[0])
                view = transport.decode(record, ack=receipts.append)
                assert np.array_equal(view, np.full(64, i))
                del view
                gc.collect()
                while receipts:
                    transport.ring_ack(receipts.pop())
        finally:
            transport.retire_rings([ring_name])

    def test_unacked_traffic_falls_back_to_segments(self):
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        ring_name = "testring-unacked"
        kinds = []
        try:
            for i in range(50):
                record = transport.encode(np.full(64, i, dtype=np.int64),
                                          ring=ring_name)
                kinds.append(record[0])
                transport.dispose(record)
        finally:
            transport.retire_rings([ring_name])
        assert kinds[0] == SHMRING
        assert SHMSEG in kinds  # ring exhausted without acks: graceful fallback

    def test_ack_fires_only_after_last_view_dies(self):
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        ring_name = "testring-lastview"
        receipts = []
        try:
            payload = {"a": np.arange(64, dtype=np.int64),
                       "b": np.arange(32, dtype=np.float64)}
            record = transport.encode(payload, ring=ring_name)
            assert record[0] == SHMRING
            out = transport.decode(record, ack=receipts.append)
            del out["a"]
            gc.collect()
            assert receipts == []  # "b" still alive: slot not released
            del out
            gc.collect()
            assert len(receipts) == 1
            transport.ring_ack(receipts[0])
        finally:
            transport.retire_rings([ring_name])

    def test_fabric_routes_acks_between_ranks(self):
        # Single-process fabric: rank 0 sends to rank 1, rank 1's views
        # die, and the ack record parked in rank 0's inbox is applied the
        # next time rank 0 reads its inbox.
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=transport)
        try:
            from repro.pro.backends.sharedmem import _SENDER_RINGS

            fabric.put(0, 1, "bulk", np.arange(512, dtype=np.int64))
            view = fabric.get(0, 1, "bulk", [])
            assert np.array_equal(view, np.arange(512))
            ring = _SENDER_RINGS[(os.getpid(), fabric._ring_names[0])]
            assert ring.tail == 0
            del view
            gc.collect()                    # ack lands in rank 0's inbox
            fabric.put(1, 0, "reply", "pong")
            assert fabric.get(1, 0, "reply", []) == "pong"
            assert ring.tail > 0            # ...and was applied on the read
        finally:
            fabric.shutdown()

    def test_pickle_transport_ignores_ack_machinery(self):
        transport = PickleTransport()
        record = transport.encode(np.arange(10))
        assert np.array_equal(transport.decode(record, ack=lambda r: None),
                              np.arange(10))
        transport.ring_ack(("whatever", 0))  # must not raise


class TestMultiConsumerSegments:
    """encode_shared: one standing segment serves n receivers, run after run."""

    def _transport(self):
        return SharedMemoryTransport(min_bytes=16)

    def test_every_consumer_decodes_the_same_payload(self):
        transport = self._transport()
        payload = {"big": np.arange(512, dtype=np.int64), "tag": "x"}
        record = transport.encode_shared(payload, 3)
        from repro.pro.backends.transport import SHMMULTI

        assert record[0] == SHMMULTI
        for _ in range(3):
            out = transport.decode(record)
            assert np.array_equal(out["big"], payload["big"])
            assert out["tag"] == "x"
        transport.retire_shared()

    def test_reused_after_every_consumer_releases(self):
        transport = self._transport()
        record = transport.encode_shared(np.arange(512, dtype=np.int64), 2)
        name = record[1]
        assert name in shm_segments()
        receipts = []
        out1 = transport.decode(record, ack=receipts.append)
        out2 = transport.decode(record, ack=receipts.append)
        assert receipts == []  # attaching is not releasing
        del out1
        gc.collect()
        assert len(receipts) == 1  # the first consumer's views are gone
        del out2
        gc.collect()
        for receipt in receipts:
            transport.ring_ack(receipt)
        again = transport.encode_shared(np.arange(512, 1024, dtype=np.int64), 2)
        assert again[1] == name  # released by both: rewritten in place
        assert transport.stats.multi_segments_created == 1
        assert np.array_equal(transport.decode(again), np.arange(512, 1024))
        transport.retire_shared()
        assert name not in shm_segments()

    def test_dispose_releases_each_undelivered_copy(self):
        transport = self._transport()
        record = transport.encode_shared(np.arange(512, dtype=np.int64), 2)
        name = record[1]
        transport.dispose(record)
        held = transport.encode_shared(np.arange(512, dtype=np.int64), 2)
        assert held[1] != name  # one copy still undelivered: replaced
        assert name not in shm_segments()
        transport.dispose(held)
        transport.dispose(held)
        again = transport.encode_shared(np.arange(512, dtype=np.int64), 2)
        assert again[1] == held[1]  # both copies released: reused
        transport.retire_shared()
        assert held[1] not in shm_segments()

    def test_held_view_keeps_its_bytes_across_the_next_write(self):
        transport = self._transport()
        first = np.arange(512, dtype=np.int64)
        record = transport.encode_shared(first, 1)
        receipts = []
        view = transport.decode(record, ack=receipts.append)
        # The consumer still holds run k's view: run k+1's write of other
        # data goes to a new segment and leaves those bytes alone.
        second = transport.encode_shared(first[::-1].copy(), 1)
        assert second[1] != record[1]
        assert record[1] not in shm_segments()  # replaced: name unlinked
        assert np.array_equal(view, first)
        del view
        gc.collect()
        transport.ring_ack(receipts.pop())  # late release: ignored
        out = transport.decode(second, ack=receipts.append)
        assert np.array_equal(out, first[::-1])
        del out
        gc.collect()
        transport.ring_ack(receipts.pop())
        third = transport.encode_shared(first, 1)
        assert third[1] == second[1]  # the view died: the segment is reused
        assert transport.stats.multi_segments_created == 2
        transport.retire_shared()

    def test_size_is_a_power_of_two_and_shrinks_below_a_quarter(self):
        transport = self._transport()

        def write(nbytes):
            record = transport.encode_shared(np.zeros(nbytes, dtype=np.uint8), 1)
            transport.dispose(record)  # release the single copy
            return record[1], os.stat(f"/dev/shm/{record[1]}").st_size

        name, size = write(1000)
        assert size == 1024
        grown, size = write(5000)
        assert grown != name and size == 8192
        assert write(2048) == (grown, 8192)  # a quarter still fits
        shrunk, size = write(1000)
        assert shrunk != grown and size == 1024
        assert grown not in shm_segments()
        transport.retire_shared()
        assert shrunk not in shm_segments()

    def test_retire_shared_reaps_abandoned_segments(self):
        transport = self._transport()
        record = transport.encode_shared(np.arange(512, dtype=np.int64), 4)
        name = record[1]
        assert name in shm_segments()
        transport.retire_shared()
        assert name not in shm_segments()
        transport.ring_ack((name, record[2]))  # late release: ignored, no raise
        transport.retire_shared()  # idempotent

    def test_pickled_copy_leaves_the_standing_segment_behind(self):
        # Spawned workers receive the transport pickled: the copy must not
        # attach the encoder's segment (its mapping would pin the pages).
        import pickle

        transport = self._transport()
        record = transport.encode_shared(np.arange(512, dtype=np.int64), 1)
        copy = pickle.loads(pickle.dumps(transport))
        assert copy._standing is None and copy._attached is None
        assert copy.cache_key() == transport.cache_key()
        transport.retire_shared()
        assert record[1] not in shm_segments()

    def test_consumer_maps_the_standing_segment_once(self, monkeypatch):
        # A rank decodes with its own transport copy; warm runs reuse its
        # mapping, and a replaced segment drops the old one.
        import types

        from repro.pro.backends import sharedmem

        attached = []
        real = sharedmem._shm_module.SharedMemory

        def counting(*args, **kwargs):
            if not kwargs.get("create"):
                attached.append(kwargs["name"])
            return real(*args, **kwargs)

        monkeypatch.setattr(sharedmem, "_shm_module", types.SimpleNamespace(SharedMemory=counting))
        encoder, consumer = self._transport(), self._transport()
        receipts = []
        first = encoder.encode_shared(np.arange(512, dtype=np.int64), 1)
        out = consumer.decode(first, ack=receipts.append)
        assert np.array_equal(out, np.arange(512))
        del out
        gc.collect()
        assert receipts == [(first[1], first[2])]  # views dead: released
        encoder.ring_ack(receipts.pop())
        second = encoder.encode_shared(np.arange(512, 1024, dtype=np.int64), 1)
        assert second[1] == first[1]
        kept = consumer.decode(second, ack=receipts.append)
        assert np.array_equal(kept, np.arange(512, 1024))
        assert attached == [first[1]]  # one attach for both runs
        old = consumer._attached[2]
        # ``kept`` still holds the segment, so the next write replaces it.
        third = encoder.encode_shared(np.arange(2048, dtype=np.int64), 1)
        assert third[1] != first[1]
        assert np.array_equal(consumer.decode(third), np.arange(2048))
        assert attached == [first[1], third[1]]
        assert old.shm is not None and np.array_equal(kept, np.arange(512, 1024))
        del kept
        gc.collect()
        assert old.shm is None  # the dropped mapping closed with its last view
        assert receipts == [(second[1], second[2])]
        new = consumer._attached[2]
        consumer.retire_shared()
        assert consumer._attached is None and new.shm is None
        encoder.retire_shared()
        assert third[1] not in shm_segments()

    def test_small_payloads_stay_inband_and_reusable(self):
        transport = self._transport()
        record = transport.encode_shared((1, "two", np.arange(1)), 5)
        from repro.pro.backends.transport import SHMMULTI

        assert record[0] != SHMMULTI  # nothing bulk: plain in-band record
        for _ in range(5):
            assert transport.decode(record)[1] == "two"

    def test_pickle_transport_encode_shared_is_inband(self):
        transport = PickleTransport()
        record = transport.encode_shared(np.arange(100), 3)
        for _ in range(3):
            assert np.array_equal(transport.decode(record), np.arange(100))
        assert transport.stats.shared_encode_calls == 1

    def test_n_consumers_validated(self):
        with pytest.raises(ValidationError):
            self._transport().encode_shared(np.arange(10), 0)


class TestAdaptiveRing:
    """Adaptive logical ring capacity: grow on pressure, shrink when quiet."""

    class _FakeShm:
        def __init__(self, size):
            self.size = size
            self.buf = memoryview(bytearray(size))

    def test_grows_after_an_epoch_with_fallbacks(self):
        ring = _SenderRing(self._FakeShm(4096), capacity=512, min_capacity=128)
        assert ring.capacity == 512
        assert ring.allocate(1024) is None       # does not fit: fallback
        assert ring.epoch_fallbacks == 1
        ring.end_epoch()
        assert ring.capacity == 1024             # doubled until demand fits
        slot = ring.allocate(1024)
        assert slot is not None
        ring.ack(slot[1])

    def test_growth_clamped_to_physical_segment(self):
        ring = _SenderRing(self._FakeShm(4096), capacity=1024, min_capacity=128)
        assert ring.allocate(1_000_000) is None
        ring.end_epoch()
        assert ring.capacity == 4096             # the physical ceiling
        assert ring.allocate(1_000_000) is None  # still too big: true oversize

    def test_no_resize_while_slots_outstanding(self):
        ring = _SenderRing(self._FakeShm(4096), capacity=512, min_capacity=128)
        slot = ring.allocate(256)                # never acked
        assert ring.allocate(512) is None        # pressure...
        ring.end_epoch()
        assert ring.capacity == 512              # ...but geometry is pinned
        ring.ack(slot[1])
        ring.end_epoch()                         # stats carried forward
        assert ring.capacity == 1024

    def test_shrinks_after_sustained_quiet_epochs(self):
        ring = _SenderRing(self._FakeShm(4096), capacity=2048, min_capacity=256)
        for _ in range(3):                       # patience = 3 quiet epochs
            slot = ring.allocate(64)             # peak well under capacity/4
            ring.ack(slot[1])
            ring.end_epoch()
        assert ring.capacity == 1024
        for _ in range(6):                       # keeps shrinking to the floor
            slot = ring.allocate(64)
            ring.ack(slot[1])
            ring.end_epoch()
        assert ring.capacity == 256
        ring.end_epoch()
        assert ring.capacity == 256              # floored at min_capacity

    def test_busy_epoch_resets_shrink_patience(self):
        ring = _SenderRing(self._FakeShm(4096), capacity=2048, min_capacity=256)
        for _ in range(2):
            slot = ring.allocate(64)
            ring.ack(slot[1])
            ring.end_epoch()
        slot = ring.allocate(1024)               # busy epoch: patience resets
        ring.ack(slot[1])
        ring.end_epoch()
        slot = ring.allocate(64)
        ring.ack(slot[1])
        ring.end_epoch()
        assert ring.capacity == 2048

    def test_resize_restarts_virtual_space_and_ignores_stale_receipts(self):
        ring = _SenderRing(self._FakeShm(4096), capacity=512, min_capacity=128)
        slot = ring.allocate(256)
        ring.ack(slot[1])
        assert ring.allocate(1024) is None
        ring.end_epoch()
        assert (ring.head, ring.tail) == (0, 0)
        ring.ack(slot[1])                        # stale pre-resize receipt
        assert (ring.head, ring.tail) == (0, 0)

    def test_transport_ring_epoch_grows_and_stops_fallbacks(self):
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=1024,
                                          ring_max_bytes=64 * 1024)
        ring_name = "testring-adaptive"
        receipts = []
        try:
            payload = np.arange(512, dtype=np.int64)  # 4 KiB > 1 KiB ring
            record = transport.encode(payload, ring=ring_name)
            assert record[0] == SHMSEG               # oversize fallback
            assert transport.stats.oversize_fallbacks == 1
            transport.dispose(record)
            transport.ring_epoch(ring_name)          # epoch boundary: grow
            record = transport.encode(payload, ring=ring_name)
            assert record[0] == SHMRING              # the ring now fits it
            out = transport.decode(record, ack=receipts.append)
            assert np.array_equal(out, payload)
            del out
            gc.collect()
            while receipts:
                transport.ring_ack(receipts.pop())
            assert transport.stats.oversize_fallbacks == 1  # no new fallbacks
        finally:
            transport.retire_rings([ring_name])

    def test_adaptive_ring_disabled_keeps_geometry(self):
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=1024,
                                          adaptive_ring=False)
        assert transport.ring_max_bytes == 1024
        ring_name = "testring-pinned"
        try:
            payload = np.arange(512, dtype=np.int64)
            record = transport.encode(payload, ring=ring_name)
            assert record[0] == SHMSEG
            transport.dispose(record)
            transport.ring_epoch(ring_name)          # no-op when disabled
            record = transport.encode(payload, ring=ring_name)
            assert record[0] == SHMSEG               # still falls back
            transport.dispose(record)
        finally:
            transport.retire_rings([ring_name])

    def test_ring_geometry_validated(self):
        with pytest.raises(ValidationError):
            SharedMemoryTransport(ring_bytes=4096, ring_max_bytes=1024)
