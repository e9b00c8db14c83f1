"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from a traced pass that follows an untraced one.  Lines before it
report the figures that exist on some workloads only and any failed
operation.  A traced run also writes its spans to
``.perfbench/trace-<workload>-<seed>.json``.

The program is loaded from ``src/`` of the checkout; without it the
import fails and the run exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_block(metrics: dict) -> dict:
    return {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        # Measure the checkout's program, never an installed copy.
        raise SystemExit(f"no program to measure: {src}/repro is missing")
    sys.path[:0] = [ROOT, src]
    from perfbench import workloads

    try:
        workload = workloads.WORKLOADS[args.workload]
    except KeyError:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        ) from None
    outcome = workload(args.seed, args.seconds, bool(args.trace))

    correct = not outcome.wrong
    for line in outcome.errors + outcome.wrong:
        print(f"FAILED {line}")
    extra = workloads.workload_only(outcome)
    if args.trace:
        metrics, layer_extra = workloads.per_layer(outcome)
        extra.update(layer_extra)
        inconsistent = workloads.trace_consistency(outcome)
        for line in inconsistent:
            print(f"TRACE {line}")
        correct = correct and not inconsistent
        out_dir = os.path.join(os.getcwd(), ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(outcome.tracer.to_json(), handle)
    else:
        metrics = workloads.end_to_end(outcome)
    print(json.dumps({"workload": args.workload, "report": _metric_block(extra)}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": _metric_block(metrics),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
