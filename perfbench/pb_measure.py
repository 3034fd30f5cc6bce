"""Measurement loops of the benchmark: untraced (end-to-end) and traced (per layer).

End-to-end metrics come only from :func:`untraced_run`; :func:`traced_run`
wraps the layers (see ``pb_trace``) and reports the per-layer metrics listed
in ``layers.json``.  Both are closed loops from one caller thread.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from pb_trace import Tracer, chrome_trace, self_times
from pb_workloads import KERNELS, N_PROCS, Workload

HERE = Path(__file__).resolve().parent


@functools.cache
def benchmark() -> dict:
    """``BENCHMARK.json``: the metric names, units and directions."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@functools.cache
def layers() -> dict:
    """``layers.json``: the layer each per-layer metric measures, and its predictions."""
    return json.loads((HERE / "layers.json").read_text())


#: Fresh-process first calls per untraced run, besides the run's own first
#: call; ``setup_s`` is the median of all of them.
SETUP_PROBES = 6
#: Calls every run makes whatever ``--seconds`` says.
MIN_CALLS = 3
#: Traced calls 1..K whose counts are reported (a fixed prefix, so the
#: counts repeat exactly for a fixed workload seed).
COUNT_PREFIX = {"bulk": 4, "small": 60, "matrix": 12}
#: The call-time percentile the printed (not gated) rates are taken at.
RATE_PERCENTILE = 10
#: The percentile of a run's call/baseline ratios that ``overhead_factor``
#: reports, per workload kind (see ``untraced_run``).
RATIO_PERCENTILE = {"bulk": 10, "small": 10, "matrix": 50}
#: Share of a traced run spent on the untraced reference calls.
TRACE_REFERENCE_SHARE = 0.35

#: Transport counters summed over the parent and every rank of a FleetReport.
_TRANSPORT_SUMS = {
    "transport.encode_calls": ("encode_calls",),
    "transport.decode_calls": ("decode_calls",),
    "transport.shared_encode_calls": ("shared_encode_calls",),
    "transport.bytes_encoded": ("bytes_encoded",),
    "transport.segments_created": ("segments_created", "multi_segments_created"),
    "transport.oversize_fallbacks": ("oversize_fallbacks",),
    "ring_messages": ("ring_messages",),
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a trustworthy result (nothing is reported)."""


# -- shared helpers -----------------------------------------------------------------
def fingerprint(workload: Workload, tiers) -> dict:
    """Host and tier fingerprint printed with every result."""
    try:
        import numba  # noqa: F401
        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": workload.backend or "none (sequential)",
        "transport": workload.transport or ("in-process" if workload.backend else "none"),
        "n_procs": N_PROCS if workload.backend else 1,
        "kernels_requested": KERNELS,
        "kernel_tiers": sorted(set(tiers)),
        "numba_importable": numba_importable,
    }


def check_tiers(tiers) -> None:
    """Refuse a run whose ranks ran another kernel tier than requested."""
    wrong = sorted({t for t in tiers if t != KERNELS}, key=str)
    if not tiers or wrong:
        raise BenchmarkError(
            f"requested kernel tier {KERNELS!r} but the library ran {wrong or 'no recorded tier'}; "
            "refusing to report"
        )


def fleet_tiers(report) -> list:
    return [rank.get("kernel_tier") for rank in report.ranks]


@contextlib.contextmanager
def recording_tiers(names: list):
    """Append to ``names`` the kernel tier each library lookup resolves to.

    Every kernel consumer imports ``resolve_kernels`` at call time, so the
    replaced module attribute sees the tiers the sequential sampler ran.
    """
    from repro.core import kernels

    original = kernels.resolve_kernels

    def recording(*args, **kwargs):
        tier = original(*args, **kwargs)
        names.append(tier.name)
        return tier

    kernels.resolve_kernels = recording
    try:
        yield
    finally:
        kernels.resolve_kernels = original


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set size (VmHWM) of a process, in kB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchmarkError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Lower this process's VmHWM to its current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def workers_peak_kb() -> int:
    """Summed VmHWM of every live default-pool worker (they run library code only)."""
    from repro.pro.backends.pool import default_pools

    return sum(vm_hwm_kb(pid) for pool in default_pools().values()
               for pid in pool.worker_pids())


def first_call(workload: Workload) -> tuple[float | None, str | None]:
    """Seconds from the first library call to its verified result, or why it failed."""
    call = workload.call(0)
    start = time.perf_counter()
    try:
        ok = workload.check(call, workload.run(call))
    except Exception as exc:  # counted by the caller, never retried
        return None, f"call 0: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return (elapsed, None) if ok else (None, "call 0: output failed its check")


def probe_setup(workload: Workload) -> tuple[float | None, str | None]:
    """:func:`first_call` in a fresh interpreter (pays every cold cost)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
         "--seed", str(workload.seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=str(HERE.parent),
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"setup probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["error"]


def digest(array) -> bytes:
    """A 128-bit digest of an array's bytes (for the cross-backend check)."""
    return hashlib.blake2b(np.ascontiguousarray(array).view(np.uint8), digest_size=16).digest()


def tail_percentile(times) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it (99 at most)."""
    n = len(times)
    q = min(99.0, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 50.0
    return q, n


class _Loop:
    """Calls, failures and per-call timings of one measurement loop."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.sizes: list[int] = []
        self.messages: list[str] = []
        #: Largest VmHWM of this process across the library calls alone.
        self.peak_kb = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(reason)

    def one(self, call, run):
        """Time ``run(call)``; check the output outside the timed region.

        The peak RSS is reset before the call and read as soon as it returns,
        so the benchmark's own checks and baselines do not set it.
        """
        self.attempted += 1
        reset_peak_rss()
        try:
            start = time.perf_counter()
            out = run(call)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed call is counted, never retried
            self.fail(f"call {call.k}: {type(exc).__name__}: {exc}")
            return None
        self.peak_kb = max(self.peak_kb, vm_hwm_kb())
        if not self.workload.check(call, out):
            self.fail(f"call {call.k}: output failed its check")
            return None
        self.times.append(elapsed)
        self.sizes.append(call.items)
        return out

    def guarded(self, what: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` outside timing; an exception counts as a failure."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None


def ran_tiers(workload: Workload, call, loop: _Loop) -> list:
    """The kernel tiers one more (untimed, checked) call actually ran."""
    tiers: list = []
    loop.attempted += 1
    if workload.backend:
        from repro.pro.telemetry import Telemetry

        telemetry = Telemetry()
        out = loop.guarded(f"call {call.k}", workload.run, call, telemetry=telemetry)
        if telemetry.reports:
            tiers = fleet_tiers(telemetry.last)
    else:
        with recording_tiers(tiers):
            out = loop.guarded(f"call {call.k}", workload.run, call)
    if out is not None and not workload.check(call, out):
        loop.fail(f"call {call.k}: output failed its check")
    return tiers


# -- end-to-end ---------------------------------------------------------------------
def untraced_run(workload: Workload, seconds: float) -> dict:
    """The end-to-end metrics of one run (tracing off)."""
    loop = _Loop(workload)
    setups = []
    for seconds_or_none, error in [first_call(workload)] + [
            probe_setup(workload) for _ in range(SETUP_PROBES)]:
        loop.attempted += 1
        if error:
            loop.fail(error)
        else:
            setups.append(seconds_or_none)
    if not setups:
        raise BenchmarkError(f"{workload.name}: every first call failed; {loop.messages}")

    ratios: list[float] = []
    digests: list = []
    deadline = time.perf_counter() + seconds
    k = 1
    while k <= MIN_CALLS or time.perf_counter() < deadline:
        call = workload.call(k)
        # The sequential yardstick runs right before or right after the
        # call, alternating, so neither side always follows the other; each
        # call is divided by its own baseline, so slow drift of the host cancels.
        base = workload.baseline(call) if k % 2 else None
        timed = len(loop.times)
        out = loop.one(call, workload.run)
        if out is not None and workload.cross_check_due(k):
            digests.append((call, digest(out)))
        del out
        if base is None:
            base = workload.baseline(call)
        if len(loop.times) > timed:
            ratios.append(loop.times[-1] / base)
        k += 1
    rss_kb = loop.peak_kb + workers_peak_kb()

    # The cross-backend contract on a seeded subset of calls, then the tier
    # fingerprint from one more (untimed, checked) call.
    for call, expected in digests:
        other = loop.guarded(f"call {call.k} on the thread backend",
                             workload.run, call, backend="thread")
        if other is not None and digest(other) != expected:
            loop.fail(f"call {call.k}: differs from the thread backend for the same seed")
    tiers = ran_tiers(workload, workload.call(k), loop)
    check_tiers(tiers)

    if not loop.times:
        raise BenchmarkError(f"{workload.name}: no call succeeded; {loop.messages}")
    # overhead_factor is the only speed metric that is gated: it divides each
    # call by NumPy's sequential method for the same output, interleaved with
    # it, so the shared host's speed, which moved raw rates by a third
    # between runs, cancels.  A call
    # on p = 2 ranks waits for the slower rank and is slowed whenever either
    # vCPU is disturbed, the one-thread baseline only when its own is; the
    # fast decile of the ratios keeps the pairs where both ran undisturbed.
    # The sequential sampler and its baseline are disturbed alike, so there
    # the median ratio is unbiased and steadier.
    values = {
        "overhead_factor": float(np.percentile(ratios, RATIO_PERCENTILE[workload.kind])),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_rate": (loop.attempted - loop.failed) / loop.attempted,
    }
    fast_s = float(np.percentile(loop.times, RATE_PERCENTILE))
    rates = [n / t for n, t in zip(loop.sizes, loop.times)]
    rates_note = (
        f"items_per_s: {np.percentile(rates, 100 - RATE_PERCENTILE):.4g} items/s, "
        f"calls_per_s: {1.0 / fast_s:.4g} calls/s at the fast decile of calls "
        "(diagnostic, not gated: raw rates follow the shared host's speed)")
    q, n = tail_percentile(loop.times)
    notes = [
        f"calls timed (each with a baseline): {len(loop.times)}; "
        f"cross-backend checks: {len(digests)}",
        rates_note,
        f"overhead_factor at the median ratio: {statistics.median(ratios):.4g} (diagnostic)",
        f"call_ms_p50: {statistics.median(loop.times) * 1e3:.3f} ms (diagnostic)",
        f"call_ms_p{q:g}: {np.percentile(loop.times, q) * 1e3:.3f} ms over {n} calls "
        "(diagnostic, not an end-to-end metric)",
        "setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups),
    ] + loop.messages
    return {
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in benchmark()["end_to_end"]},
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fingerprint": fingerprint(workload, tiers),
        "notes": notes,
    }


# -- per layer ----------------------------------------------------------------------
_MASK = (1 << 128) - 1
#: The multiplier of NumPy's PCG64 (128-bit LCG, one step per 64-bit output).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_steps(before: dict, after: dict) -> int:
    """64-bit outputs a PCG64 generator produced between two states.

    The jump-distance algorithm for power-of-two LCGs: fix the state one bit
    at a time, squaring the step each round.
    """
    cur, new = before["state"]["state"], after["state"]["state"]
    mult, plus, bit, distance = _PCG64_MULT, before["state"]["inc"], 1, 0
    while cur != new and bit <= _MASK:
        if (cur ^ new) & bit:
            cur = (cur * mult + plus) & _MASK
            distance |= bit
        bit <<= 1
        plus = ((mult + 1) * plus) & _MASK
        mult = (mult * mult) & _MASK
    return distance


def pool_transport_stats() -> list:
    """Cumulative transport counters of the parent side of every default pool.

    Read from the pools themselves: a FleetReport's ``parent_transport`` is
    the calling machine's own transport, which a borrowed warm pool does not
    use after the call that spawned it.
    """
    from repro.pro.backends.pool import default_pools

    return [dict(pool.fabric.transport.stats.snapshot()) for pool in default_pools().values()]


def _fleet_totals(record) -> dict:
    """Cumulative transport counters (ranks plus parent) after a traced call."""
    totals = dict.fromkeys(_TRANSPORT_SUMS, 0)
    totals["ring.resizes"] = 0
    report = record["fleet"]
    if report is None:
        return totals
    sections = record["pool_stats"] + [rank["transport"] for rank in report.ranks]
    for metric, fields in _TRANSPORT_SUMS.items():
        totals[metric] = sum(int(s.get(f, 0)) for s in sections for f in fields)
    totals["ring.resizes"] = sum(int((rank.get("ring") or {}).get("resizes", 0))
                                 for rank in report.ranks)
    return totals


def _inclusive(spans) -> dict:
    out: dict = {}
    for name, incl, _self in self_times(spans):
        out[name] = out.get(name, 0) + incl
    return out


def _call_record(tracer: Tracer, workload: Workload, call, telemetry) -> dict:
    """Run one traced call and keep its spans and counts."""
    first_span, first_run = len(tracer.parent.spans), len(tracer.runs)
    record = {"h_draws": 0, "rng_words": 0, "error": None}
    try:
        if workload.kind == "matrix":
            from repro.rng.counting import CountingRNG

            counting = CountingRNG(np.random.default_rng(call.seed))
            before = counting.generator.bit_generator.state
            out = tracer.span("call", workload.run, call, rng=counting)
            record["h_draws"] = counting.uniforms_drawn
            record["rng_words"] = pcg64_steps(before, counting.generator.bit_generator.state)
        else:
            out = tracer.span("call", workload.run, call, telemetry=telemetry)
        record["ok"] = workload.check(call, out)
    except Exception as exc:  # a failed call is counted, never retried
        record["ok"] = False
        record["error"] = f"call {call.k}: {type(exc).__name__}: {exc}"
    record["parent"] = tracer.parent.spans[first_span:]
    record["runs"] = tracer.runs[first_run:]
    record["fleet"] = telemetry.last if telemetry is not None and telemetry.reports else None
    record["pool_stats"] = pool_transport_stats()
    return record


def _per_call_times(record) -> dict:
    """Per-layer times (ms) and ratios of one traced call (``None``: did not occur)."""
    parent = _inclusive(record["parent"])
    call_span = self_times(record["parent"])[0]
    ns = {
        "call_ms": call_span[1],
        "unattributed_ms": call_span[2],
        "blocks.split_ms": parent.get("blocks.split"),
        "blocks.concat_ms": parent.get("blocks.concat"),
        "machine.resolve_ms": parent.get("machine.resolve"),
        "machine.run_ms": parent.get("machine.run"),
        "matrix.sample_ms": parent.get("matrix.sample"),
    }
    ratios = {}
    if record["runs"]:
        ranks = [_inclusive(spans) for spans in record["runs"][0]["rank_spans"]]
        p = len(ranks)
        for metric, span in (("rank.program_ms", "rank.program"),
                             ("perm.shuffle_local_ms", "perm.shuffle_local"),
                             ("perm.cut_rows_ms", "perm.cut_rows"),
                             ("perm.shuffle_final_ms", "perm.shuffle_final"),
                             ("pmatrix.sample_ms", "pmatrix.sample"),
                             ("comm.alltoallv_ms", "comm.alltoallv"),
                             ("comm.barrier_wait_ms", "comm.barrier")):
            if any(span in r for r in ranks):
                ns[metric] = sum(r.get(span, 0) for r in ranks) / p
        programs = [r.get("rank.program", 0) for r in ranks]
        if all(programs):
            ratios["rank.imbalance"] = max(programs) / (sum(programs) / p)
            ns["machine.overhead_ms"] = ns["machine.run_ms"] - max(programs)
        rank_matrix = sum(r.get("matrix.sample", 0) for r in ranks)
        if rank_matrix:
            ns["matrix.sample_ms"] = (ns["matrix.sample_ms"] or 0) + rank_matrix
    ratios.update({name: (v / 1e6 if v is not None else None) for name, v in ns.items()})
    return ratios


def layer_metrics(records: list, reference_times: list, workload: Workload) -> tuple[dict, list]:
    """Per-layer metrics (name -> value) and the names that went unmeasured."""
    steady = [r for r in records[1:] if r["ok"]]
    per_call = [_per_call_times(r) for r in steady]
    values: dict = {}
    unmeasured: list = []

    def mean_of(name):
        samples = [c[name] for c in per_call if c.get(name) is not None]
        return statistics.fmean(samples) if samples and len(samples) == len(per_call) else None

    for name in {name for c in per_call for name in c} - {"call_ms"}:
        values[name] = mean_of(name)

    prefix = COUNT_PREFIX[workload.kind]
    counted = records[1:prefix + 1]
    runs = [run for r in counted for run in r["runs"]]
    for name, key in (("comm.words_sent", "words_sent"), ("comm.messages", "messages"),
                      ("comm.h_relation", "h_relation")):
        values[name] = sum(run[key] for run in runs) / len(counted) if runs else None
    start, end = _fleet_totals(records[0]), _fleet_totals(counted[-1])
    delta = {name: (end[name] - start[name]) / len(counted) for name in start}
    for name in _TRANSPORT_SUMS:
        if name.startswith("transport."):
            values[name] = delta[name]
    values["ring.resizes"] = delta["ring.resizes"]
    values["transport.ring_hit_ratio"] = (
        delta["ring_messages"] / delta["transport.encode_calls"]
        if delta["transport.encode_calls"] else None)
    spawns = [s for r in records for s in r["parent"] if s[0] == "pool.spawn"]
    values["pool.spawn_ms"] = (spawns[0][2] - spawns[0][1]) / 1e6 if spawns else None
    values["resilience.retries"] = sum(
        r["fleet"].resilience.get("retries", 0) for r in records if r["fleet"] is not None)
    h_draws = sum(r["h_draws"] for r in counted)
    values["matrix.h_draws"] = h_draws / len(counted) if h_draws else None
    values["matrix.uniforms_per_h"] = (
        sum(r["rng_words"] for r in counted) / h_draws if h_draws else None)

    common = min(len(reference_times), len(steady))
    traced = [c["call_ms"] / 1e3 for c in per_call[:common]]
    values["trace.overhead"] = (statistics.median(traced)
                                / statistics.median(reference_times[:common]))

    for name in (m["name"] for m in benchmark()["per_layer"]):
        if values.get(name) is None:
            unmeasured.append(name)
            values[name] = 0.0
    return values, unmeasured


def layer_table(records: list) -> str:
    """Self time per span and track, per steady call."""
    steady = [r for r in records[1:] if r["ok"]]
    rows: dict = {}
    for record in steady:
        tracks = [("parent", record["parent"])]
        for run in record["runs"]:
            tracks.extend((f"rank {r}", spans) for r, spans in enumerate(run["rank_spans"]))
        for label, spans in tracks:
            for name, incl, own in self_times(spans):
                row = rows.setdefault((label, name), [0, 0, 0])
                row[0] += 1
                row[1] += incl
                row[2] += own
    n = max(1, len(steady))
    lines = [f"{'track':<8} {'span':<20} {'per call':>8} {'incl ms':>10} {'self ms':>10}"]
    for (label, name), (count, incl, own) in rows.items():
        lines.append(f"{label:<8} {name:<20} {count / n:>8.2f} {incl / n / 1e6:>10.3f} "
                     f"{own / n / 1e6:>10.3f}")
    return "\n".join(lines)


def traced_run(workload: Workload, seconds: float) -> dict:
    """The per-layer metrics of one run, its span table and its Chrome trace."""
    from repro.pro.backends.pool import clear_default_pools
    from repro.pro.telemetry import Telemetry

    # Untraced reference calls (same inputs as the traced ones) for
    # trace.overhead; the library's pools are then dropped so the traced
    # fleet is spawned with the wrappers in place.
    reference = _Loop(workload)
    reference.one(workload.call(0), workload.run)
    warm = len(reference.times)  # call 0 pays set-up; it is not a reference
    deadline = time.perf_counter() + seconds * TRACE_REFERENCE_SHARE
    k = 1
    while k <= MIN_CALLS or time.perf_counter() < deadline:
        reference.one(workload.call(k), workload.run)
        k += 1
    tiers = ran_tiers(workload, workload.call(k), reference)
    clear_default_pools()

    tracer = Tracer()
    records: list = []
    telemetry = Telemetry() if workload.backend else None
    deadline = time.perf_counter() + seconds * (1 - TRACE_REFERENCE_SHARE)
    with tracer:
        try:
            k = 0
            while k <= COUNT_PREFIX[workload.kind] or time.perf_counter() < deadline:
                records.append(_call_record(tracer, workload, workload.call(k), telemetry))
                k += 1
        finally:
            clear_default_pools()

    tiers += [t for r in records if r["fleet"] is not None for t in fleet_tiers(r["fleet"])]
    check_tiers(tiers)
    values, unmeasured = layer_metrics(records, reference.times[warm:], workload)
    failed = reference.failed + sum(not r["ok"] for r in records)
    rank_tracks: dict = {}
    for record in records:
        for run in record["runs"]:
            for rank, spans in enumerate(run["rank_spans"]):
                rank_tracks.setdefault(rank, []).extend(spans)
    host = fingerprint(workload, tiers)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in benchmark()["per_layer"]}
    return {
        "metrics": metrics,
        "unmeasured": unmeasured,
        "attempted": reference.attempted + len(records),
        "failed": failed,
        "fingerprint": host,
        "table": layer_table(records),
        "trace": chrome_trace(tracer.parent.spans, rank_tracks, host),
        "notes": reference.messages + [r["error"] for r in records if r["error"]][:5],
    }
