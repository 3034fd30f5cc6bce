"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bulk-process --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; with ``--trace 1`` it wraps the layers, prints a self-time
table per span and writes a Chrome trace (Perfetto) to
``.perfbench_out/trace-<workload>-seed<seed>.json``.  Human-readable lines
come first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  A run that cannot be
trusted (no library to import, a kernel tier other than the one requested)
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    from pb_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one fresh-process first call (used for setup_s).
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import repro  # noqa: F401  (setup_s starts after this import)
    import repro.core.api  # noqa: F401
    import repro.core.permutation  # noqa: F401

    import pb_measure
    from pb_workloads import Workload

    from repro.pro.backends.pool import clear_default_pools

    workload = Workload(args.workload, args.seed)
    try:
        if args.setup_probe:
            seconds, error = pb_measure.first_call(workload)
            print(json.dumps({"setup_s": seconds, "error": error}))
            return 0
        if args.trace:
            result = pb_measure.traced_run(workload, args.seconds)
        else:
            result = pb_measure.untraced_run(workload, args.seconds)
    except pb_measure.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        clear_default_pools()  # stop and join the worker processes
        # The shared-memory transport starts multiprocessing's resource
        # tracker, which would outlive this process; stop it and wait for it.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()

    print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
    for note in result["notes"]:
        print(note)
    for what, why in pb_measure.layers()["unmeasured"].items():
        print(f"unmeasured: {what}: {why}")
    if args.trace:
        print(result["table"])
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
        trace_path.write_text(json.dumps(result["trace"]))
        print(f"trace: {trace_path.relative_to(ROOT)}")
        if result["unmeasured"]:
            print("unmeasured on this workload (reported as 0): "
                  + ", ".join(result["unmeasured"]))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
