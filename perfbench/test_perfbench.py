"""Tests of the benchmark itself: its metric lists, output checks and counters.

Run with ``python3 -m pytest perfbench``.  The traced runs use shrunken
inputs (``scale``) so they exercise the real code paths in seconds.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import pb_measure
from pb_trace import Tracer, self_times
from pb_workloads import WORKLOADS, Workload, is_bijection, is_matrix_with_marginals

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The counters a later change may claim on (they must repeat exactly).
DETERMINISTIC = ("comm.words_sent", "comm.messages", "comm.h_relation", "matrix.h_draws",
                 "transport.encode_calls", "transport.segments_created")
SCALE = {"bulk-thread": 0.01, "bulk-process": 0.01, "small-calls": 0.1, "matrix-wide": 0.01}


def test_layer_map_covers_every_per_layer_metric():
    layers = pb_measure.layers()
    assert set(layers["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    # Every workload is either gated in BENCHMARK.json or says why it is not.
    gated = {w["name"] for w in BENCHMARK["workloads"]}
    assert sorted([*gated, *layers["not_gated"]]) == sorted(WORKLOADS)
    assert layers["seeds"]["held_out"] != layers["seeds"]["tuning"]


def test_checks_reject_wrong_outputs():
    rng = np.random.default_rng(0)
    workload = Workload("small-calls", 3)
    call = workload.call(0)
    good = rng.permutation(call.values)
    assert is_bijection(good, call.items, call.key)
    duplicated = good.copy()
    duplicated[0] = duplicated[1]
    assert not is_bijection(duplicated, call.items, call.key)
    assert not is_bijection(good[:-1], call.items, call.key)
    assert not is_bijection(good.astype(np.float64), call.items, call.key)
    assert not is_bijection(good + 1, call.items, call.key)

    rows = np.array([3, 1, 2])
    matrix = np.array([[1, 1, 1], [0, 0, 1], [2, 0, 0]])
    assert is_matrix_with_marginals(matrix, rows, rows)
    assert not is_matrix_with_marginals(matrix.astype(np.int32), rows, rows)
    shifted = matrix.copy()
    shifted[0, 0] += 1
    shifted[0, 1] -= 1
    assert not is_matrix_with_marginals(shifted, rows, rows)
    negative = np.array([[4, -1, 0], [0, 1, 0], [-1, 1, 2]])
    assert not is_matrix_with_marginals(negative, rows, rows)


def test_inputs_repeat_for_a_seed():
    a, b = Workload("small-calls", 5), Workload("small-calls", 5)
    assert [a.call(k).items for k in range(70)] == [b.call(k).items for k in range(70)]
    assert np.array_equal(a.call(9).values, b.call(9).values)
    assert a.call(9).seed == b.call(9).seed != a.call(10).seed
    sizes = [a.call(k).items for k in range(640)]
    assert 256 <= min(sizes) and max(sizes) <= 32768


def test_tier_refusal_sees_the_tier_the_sampler_ran():
    workload = Workload("matrix-wide", 2, scale=0.001)
    call = workload.call(0)
    tiers = []
    with pb_measure.recording_tiers(tiers):
        assert workload.check(call, workload.run(call))
    assert tiers and set(tiers) == {"numpy"}
    pb_measure.check_tiers(tiers)
    with pytest.raises(pb_measure.BenchmarkError):
        pb_measure.check_tiers(tiers + ["numba"])
    with pytest.raises(pb_measure.BenchmarkError):
        pb_measure.check_tiers([])


def test_pcg64_steps_counts_outputs():
    gen = np.random.default_rng(11)
    before = gen.bit_generator.state
    gen.random(1234)
    gen.integers(0, 1 << 62, size=10)
    assert pb_measure.pcg64_steps(before, gen.bit_generator.state) == 1244


def test_self_times():
    spans = [["call", 0, 100, 0], ["a", 10, 40, 1], ["b", 15, 25, 2], ["c", 50, 90, 1]]
    assert self_times(spans) == [("call", 100, 30), ("a", 30, 20), ("b", 10, 10), ("c", 40, 40)]


def _traced(name, seed):
    return pb_measure.traced_run(Workload(name, seed, scale=SCALE[name]), 0.0)


@pytest.mark.parametrize("name", [
    "bulk-thread",
    pytest.param("bulk-process", marks=pytest.mark.subprocess),
    pytest.param("small-calls", marks=pytest.mark.subprocess),
    "matrix-wide",
])
def test_traced_counters_repeat_exactly(name):
    from repro.core import permutation
    from repro.pro.machine import PROMachine

    originals = (permutation.parallel_permutation_program, PROMachine.run)
    first, second = _traced(name, 17), _traced(name, 17)
    assert (permutation.parallel_permutation_program, PROMachine.run) == originals
    assert first["failed"] == second["failed"] == 0
    for counter in DETERMINISTIC:
        assert first["metrics"][counter] == second["metrics"][counter], counter
    values = {k: v["value"] for k, v in first["metrics"].items()}
    assert set(values) == set(pb_measure.layers()["per_layer"])
    assert values["resilience.retries"] == 0
    backends = [k for k in values if k.startswith(("transport.", "ring.", "pool."))]
    if name in ("bulk-thread", "matrix-wide"):
        assert all(values[k] == 0 for k in backends)
    else:
        assert values["transport.encode_calls"] > 0 and values["pool.spawn_ms"] > 0
    if name == "matrix-wide":
        assert values["matrix.h_draws"] > 0 and values["matrix.uniforms_per_h"] >= 1
        assert values["comm.words_sent"] == 0
    else:
        assert values["comm.words_sent"] > 0 and values["perm.shuffle_local_ms"] > 0
    tracks = {e["tid"]: e["args"]["name"] for e in first["trace"]["traceEvents"]
              if e["ph"] == "M" and e["name"] == "thread_name"}
    expected = {0: "parent"} if name == "matrix-wide" else {0: "parent", 1: "rank 0", 2: "rank 1"}
    assert tracks == expected


def test_tracer_restores_everything():
    from repro.core import commmatrix, parallel_matrix, permutation
    from repro.pro.communicator import Communicator

    before = (permutation.local_shuffle, commmatrix.sample_matrix,
              parallel_matrix.MATRIX_ALGORITHMS["root"], Communicator.__dict__["barrier"])
    with Tracer():
        assert permutation.local_shuffle is not before[0]
    assert (permutation.local_shuffle, commmatrix.sample_matrix,
            parallel_matrix.MATRIX_ALGORITHMS["root"], Communicator.__dict__["barrier"]) == before
