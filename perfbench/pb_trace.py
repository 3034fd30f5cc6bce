"""Layer spans recorded from outside the library, for the traced run.

:class:`Tracer` replaces the public functions each layer exposes to the one
above it with wrappers that record a span ``[name, start_ns, end_ns, depth]``
and call through.  The wrappers are installed before the process pool forks,
so its workers inherit them; the rank-side spans of one run travel back to
the parent on the rank's ``CostRecorder`` (the library's own result channel)
and are collected by the wrapper around ``PROMachine.run``.  Timestamps are
``time.perf_counter_ns``, a system-wide monotonic clock on Linux, so parent
and worker spans share one time axis.

Spans stay in memory; :func:`chrome_trace` renders them as Chrome Trace
Event JSON (one track for the parent, one per rank) that Perfetto opens.
"""

from __future__ import annotations

import functools
import threading
import time

_now = time.perf_counter_ns

__all__ = ["Tracer", "self_times", "chrome_trace"]


class _Track:
    """The spans of one thread of execution: the parent or one rank's program."""

    __slots__ = ("spans", "depth", "shuffles")

    def __init__(self):
        self.spans: list = []
        self.depth = 0
        self.shuffles = 0


class Tracer:
    """Wraps the layers' public functions and keeps the spans they record.

    ``parent.spans`` holds the spans of the calling thread; ``runs`` one
    summary per machine run (its rank spans and communication counts, see
    :func:`summarise_run`).  Use :meth:`install` / :meth:`uninstall` (or
    ``with``) around the traced calls; :meth:`uninstall` restores every
    original.
    """

    def __init__(self):
        self.parent = _Track()
        self.runs: list[dict] = []
        self._local = threading.local()
        self._patches: list = []

    # -- recording --------------------------------------------------------------
    def _track(self) -> _Track:
        return getattr(self._local, "track", None) or self.parent

    def _record(self, name, fn, args, kwargs):
        track = self._track()
        span = [name, _now(), 0, track.depth]
        track.spans.append(span)
        track.depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            track.depth -= 1
            span[2] = _now()

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._record(name, fn, args, kwargs)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return traced

    # -- installation -----------------------------------------------------------
    def _patch(self, owner, attr, wrapper) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap the layer boundaries (call before any worker pool is spawned)."""
        from repro.core import blocks, commmatrix, parallel_matrix, permutation
        from repro.pro import communicator, machine
        from repro.pro.backends.pool import WorkerPool

        tracer = self
        dist = blocks.BlockDistribution
        self._patch(dist, "split", self._wrap("blocks.split", dist.split))
        self._patch(dist, "concatenate", self._wrap("blocks.concat", dist.concatenate))
        self._patch(permutation, "resolve_machine",
                    self._wrap("machine.resolve", permutation.resolve_machine))
        self._patch(WorkerPool, "__init__", self._wrap("pool.spawn", WorkerPool.__init__))
        self._patch(commmatrix, "sample_matrix",
                    self._wrap("matrix.sample", commmatrix.sample_matrix))
        self._patch(permutation, "cut_rows", self._wrap("perm.cut_rows", permutation.cut_rows))
        self._patch(parallel_matrix.MATRIX_ALGORITHMS, "root",
                    self._wrap("pmatrix.sample", parallel_matrix.MATRIX_ALGORITHMS["root"]))
        comm = communicator.Communicator
        self._patch(comm, "alltoallv", self._wrap("comm.alltoallv", comm.alltoallv))
        self._patch(comm, "barrier", self._wrap("comm.barrier", comm.barrier))

        run = machine.PROMachine.run

        @functools.wraps(run)
        def machine_run(self_, program, *args, **kwargs):
            result = tracer._record("machine.run", run, (self_, program) + args, kwargs)
            tracer.runs.append(summarise_run(result))
            return result

        self._patch(machine.PROMachine, "run", machine_run)

        shuffle = permutation.local_shuffle

        @functools.wraps(shuffle)
        def local_shuffle(*args, **kwargs):
            track = tracer._track()
            name = "perm.shuffle_local" if track.shuffles == 0 else "perm.shuffle_final"
            track.shuffles += 1
            return tracer._record(name, shuffle, args, kwargs)

        self._patch(permutation, "local_shuffle", local_shuffle)

        program = permutation.parallel_permutation_program

        # Same __module__/__qualname__ as the original, so the pool still
        # pickles the program by reference and the forked workers resolve the
        # name to this wrapper.
        @functools.wraps(program)
        def parallel_permutation_program(ctx, *args, **kwargs):
            track = _Track()
            tracer._local.track = track
            try:
                result = tracer._record("rank.program", program, (ctx,) + args, kwargs)
            finally:
                tracer._local.track = None
            ctx.cost.bench_spans = track.spans
            return result

        self._patch(permutation, "parallel_permutation_program", parallel_permutation_program)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def summarise_run(result) -> dict:
    """Rank spans and BSP communication counts of one ``RunResult``."""
    report = result.cost_report
    recorders = report.recorders
    steps = max(len(rec.supersteps) for rec in recorders)
    h_relation = sum(
        max(rec.supersteps[s].h_relation for rec in recorders if s < len(rec.supersteps))
        for s in range(steps)
    )
    return {
        "rank_spans": [getattr(rec, "bench_spans", []) for rec in recorders],
        "words_sent": report.total("words_sent"),
        "messages": report.total("messages_sent"),
        "h_relation": h_relation,
    }


def self_times(spans) -> list[tuple[str, int, int]]:
    """``(name, inclusive_ns, self_ns)`` for each span of one track.

    ``spans`` are in start order with their nesting depth; a span's self time
    is its duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    stack: list[int] = []
    for i, (_name, start, end, depth) in enumerate(spans):
        while stack and spans[stack[-1]][3] >= depth:
            stack.pop()
        if stack:
            child_ns[stack[-1]] += end - start
        stack.append(i)
    return [(s[0], s[2] - s[1], s[2] - s[1] - child_ns[i]) for i, s in enumerate(spans)]


def chrome_trace(parent_spans, rank_tracks, metadata: dict) -> dict:
    """Chrome Trace Event JSON: track 0 is the parent, track ``r + 1`` rank ``r``.

    ``rank_tracks`` maps a rank to its spans (all runs concatenated).
    """
    tracks = {0: ("parent", parent_spans)}
    for rank, spans in sorted(rank_tracks.items()):
        tracks[rank + 1] = (f"rank {rank}", spans)
    starts = [s[1] for _, spans in tracks.values() for s in spans]
    origin = min(starts) if starts else 0
    events = []
    for tid, (label, spans) in tracks.items():
        events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                       "args": {"name": label}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": 1, "tid": tid,
                       "args": {"sort_index": tid}})
        for name, start, end, _depth in spans:
            events.append({
                "ph": "X", "name": name, "cat": name.split(".")[0], "pid": 1, "tid": tid,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
